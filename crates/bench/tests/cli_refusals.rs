//! The figure and bench binaries refuse a value they would otherwise
//! replace or drop: each case exits with status 2 and names the option,
//! like an unparseable value does, before any field is generated. An
//! option the binary does not declare exits 64.

use std::process::Command;

#[test]
fn substituted_or_dropped_values_exit_2_naming_the_option() {
    let study = env!("CARGO_BIN_EXE_study");
    let figure1 = env!("CARGO_BIN_EXE_figure1");
    let figure2 = env!("CARGO_BIN_EXE_figure2");
    for (bin, args, named) in [
        // Counts and lengths the generators cannot use.
        (study, &["--size", "0"][..], &["--size"][..]),
        (study, &["--ranges", "0"], &["--ranges"]),
        (study, &["--min-range", "-1"], &["--min-range"]),
        (study, &["--max-range", "inf"], &["--max-range"]),
        // Ranges whose square underflows to zero: the kernel's origin
        // would be 0 / 0 and every amplitude 0.
        (study, &["--min-range", "1e-200"], &["--min-range"]),
        (study, &["--max-range", "1e-170"], &["--max-range"]),
        (figure1, &["--size", "64", "--range", "1e-200"], &["--range"]),
        (study, &["--slice-size", "0"], &["--slice-size"]),
        // Sizes below the statistics window H = 32, where neither local
        // statistic has a window.
        (study, &["--size", "1", "--ranges", "3"], &["--size"]),
        (study, &["--size", "31"], &["--size"]),
        (study, &["--slice-size", "1"], &["--slice-size"]),
        (study, &["--slice-size", "31"], &["--slice-size"]),
        // A variogram too short to fit, and a slice the solver cannot run.
        (figure1, &["--size", "2"], &["--size"]),
        (figure2, &["--size", "1"], &["--size"]),
        // Counts that used to be read as 1.
        (study, &["--size", "32", "--ranges", "1", "--replicates", "0"], &["--replicates"]),
        // Options a scale preset used to drop.
        (study, &["--quick", "--size", "64"], &["--size", "--quick"]),
        (study, &["--full-paper-scale", "--seed", "3"], &["--seed", "--full-paper-scale"]),
        (study, &["--quick", "--slices", "2"], &["--slices", "--quick"]),
        (study, &["--quick", "--full-paper-scale"], &["--quick", "--full-paper-scale"]),
    ] {
        let run = Command::new(bin)
            .args(args)
            .args(["--out", env!("CARGO_TARGET_TMPDIR")])
            .output()
            .expect("binary starts");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        for option in named {
            assert!(stderr.contains(option), "{bin} {args:?} does not name {option}: {stderr}");
        }
    }
}

/// `bench_sweep` takes `--size` and nothing else: a size of 0 exits 2
/// naming `--size`, and each option it once read exits 64 naming the
/// argument, both before a line of the report.
#[test]
fn bench_sweep_refuses_every_option_but_size() {
    for (args, code, named) in [
        (&["--size", "0"][..], 2, "--size"),
        (&["--stage", "codecs"], 64, "unknown argument --stage"),
        (&["--out", "x"], 64, "unknown argument --out"),
        (&["--seed", "7"], 64, "unknown argument --seed"),
        (&["--threads", "2"], 64, "unknown argument --threads"),
        (&["--reps", "3"], 64, "unknown argument --reps"),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_bench_sweep"))
            .args(args)
            .output()
            .expect("bench_sweep starts");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?} does not name {named}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} printed a report");
    }
}
