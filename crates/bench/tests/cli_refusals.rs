//! The figure and bench binaries refuse a value they would otherwise
//! replace or drop: each case exits with status 2 and names the option,
//! like an unparseable value does, before any field is generated. An
//! option the binary does not declare exits 64.

use std::process::Command;

#[test]
fn substituted_or_dropped_values_exit_2_naming_the_option() {
    let figure3 = env!("CARGO_BIN_EXE_figure3");
    let figure4 = env!("CARGO_BIN_EXE_figure4");
    for (bin, args, named) in [
        // Counts and lengths the generators cannot use.
        (figure3, &["--size", "0"][..], &["--size"][..]),
        (figure3, &["--ranges", "0"], &["--ranges"]),
        (figure3, &["--min-range", "-1"], &["--min-range"]),
        (figure3, &["--max-range", "inf"], &["--max-range"]),
        (figure4, &["--slice-size", "0"], &["--slice-size"]),
        // Counts that used to be read as 1.
        (figure3, &["--size", "32", "--ranges", "1", "--replicates", "0"], &["--replicates"]),
        // Options a scale preset used to drop.
        (figure3, &["--quick", "--size", "64"], &["--size", "--quick"]),
        (figure3, &["--full-paper-scale", "--seed", "3"], &["--seed", "--full-paper-scale"]),
        (figure4, &["--quick", "--slices", "2"], &["--slices", "--quick"]),
        (figure3, &["--quick", "--full-paper-scale"], &["--quick", "--full-paper-scale"]),
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
