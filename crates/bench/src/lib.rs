//! # lcc-bench — figure-reproduction binaries and the `bench_sweep` report
//!
//! The `src/bin/figure*.rs` binaries regenerate every figure and table of
//! the paper's evaluation (README.md §"Build, test, bench" shows how to
//! run them); `bench_sweep` times the paper-scale statistics and codec
//! stages into the [`report`] this crate owns.
//!
//! This library holds the small amount of shared plumbing: a dependency-free
//! command-line option parser and helpers that print fitted panels and write
//! their CSV files.

pub mod report;

use lcc_core::dataset::StudyDatasets;
use lcc_core::experiment::FittedSeries;
use lcc_core::figures::{FigurePanel, GaussianFigureConfig, MirandaFigureConfig};
use lcc_grid::io::CsvSeries;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Value options of the Gaussian-field figures (see [`gaussian_config`]),
/// with `--out`.
pub const GAUSSIAN_KEYS: [&str; 7] =
    ["size", "ranges", "min-range", "max-range", "replicates", "seed", "out"];
/// Value options of the Miranda-proxy figures (see [`miranda_config`]), with
/// `--out`.
pub const MIRANDA_KEYS: [&str; 4] = ["slices", "slice-size", "seed", "out"];
/// The two scale presets every figure binary takes.
pub const SCALE_FLAGS: [&str; 2] = ["quick", "full-paper-scale"];

/// Exit status for an argument the binary does not declare (`EX_USAGE`, the
/// code `benchmarks/e2e/run.sh` uses for the same mistake).
const EXIT_USAGE: i32 = 64;

/// Report `message` on stderr and exit with status 2: a value the binary
/// cannot use is refused, never replaced by one nobody asked for.
fn refuse(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Parsed command-line options of the figure, bench and load binaries: each
/// declares the `--key value` options and the bare `--flag`s it reads, and
/// any other argument is refused.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Raw `--key value` pairs.
    values: BTreeMap<String, String>,
    /// Flags present without a value.
    flags: Vec<String>,
}

impl CliOptions {
    /// Parse from an iterator of arguments (excluding the program name):
    /// `--name value` for every `name` in `keys`, bare `--name` for every
    /// `name` in `flags`. Anything else — an undeclared `--name`, a token
    /// without the dashes, a key at the end with no value — is an error
    /// naming the argument.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        keys: &[&str],
        flags: &[&str],
    ) -> Result<CliOptions, String> {
        let mut opts = CliOptions { values: BTreeMap::new(), flags: Vec::new() };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(name) if flags.contains(&name) => opts.flags.push(name.to_string()),
                Some(name) if keys.contains(&name) => {
                    let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    opts.values.insert(name.to_string(), value);
                }
                _ => return Err(format!("unknown argument {arg}")),
            }
        }
        Ok(opts)
    }

    /// [`CliOptions::parse`] of the process arguments; an argument the
    /// binary does not declare is reported on stderr and exits the process
    /// with status 64.
    pub fn from_env(keys: &[&str], flags: &[&str]) -> CliOptions {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        CliOptions::parse(args, keys, flags).unwrap_or_else(|message| {
            eprintln!("{program}: {message}");
            std::process::exit(EXIT_USAGE)
        })
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parse the value of `--name`, or `default` when the option is absent.
    /// A value that does not parse is an error naming the flag and the
    /// offending text — never a silent fallback to the default.
    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(text) => {
                text.parse().map_err(|_| format!("--{name}: cannot parse {text:?} as a number"))
            }
        }
    }

    /// [`CliOptions::parsed`] for the binaries: report the error and exit
    /// with status 2 instead of benchmarking something nobody asked for.
    fn parsed_or_exit<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.parsed(name, default).unwrap_or_else(|message| refuse(&message))
    }

    /// Fetch a numeric option with a default; an unparseable value is
    /// reported on stderr and exits the process with status 2.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.parsed_or_exit(name, default)
    }

    /// Fetch a u64 option with a default; an unparseable value is reported
    /// on stderr and exits the process with status 2.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.parsed_or_exit(name, default)
    }

    /// Fetch a count or a size (at least 1) with a default; an unparseable
    /// value or 0 is reported on stderr and exits the process with status 2.
    pub fn get_count(&self, name: &str, default: usize) -> usize {
        let value = self.parsed_or_exit(name, default);
        if value == 0 {
            refuse(&format!("--{name}: must be at least 1, got 0"));
        }
        value
    }

    /// Fetch a length (finite and positive) with a default; an unparseable
    /// value or any other number is reported on stderr and exits the
    /// process with status 2.
    pub fn get_length(&self, name: &str, default: f64) -> f64 {
        let value: f64 = self.parsed_or_exit(name, default);
        if !(value.is_finite() && value > 0.0) {
            refuse(&format!("--{name}: must be a positive finite number, got {value}"));
        }
        value
    }

    /// Fetch a string option with a default.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.values.get(name).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Output directory for CSV series (default `target/figures`).
    pub fn output_dir(&self) -> PathBuf {
        PathBuf::from(self.get_str("out", "target/figures"))
    }

    /// The scale preset given (`quick` or `full-paper-scale`), if any. Both
    /// at once, or a preset beside one of `fixed` (the options whose
    /// value the preset fixes), is reported on stderr and exits the process
    /// with status 2: the option would be dropped.
    pub fn preset(&self, fixed: &[&str]) -> Option<&'static str> {
        let mut given = SCALE_FLAGS.into_iter().filter(|flag| self.flag(flag));
        let preset = given.next()?;
        if let Some(other) = given.next() {
            refuse(&format!("--{preset} and --{other} are exclusive"));
        }
        if let Some(key) = fixed.iter().find(|key| self.values.contains_key(**key)) {
            refuse(&format!("--{key}: --{preset} sets it, so it would be dropped"));
        }
        Some(preset)
    }
}

/// Build the Gaussian-figure configuration (figures 3, 5, 6) from the
/// command line: `--quick`, `--full-paper-scale`, or explicit `--size`,
/// `--ranges`, `--min-range`, `--max-range`, `--replicates`, `--seed`.
/// A preset beside an explicit one of those, a count of 0 or a range that
/// is not positive exits with status 2 naming the option.
pub fn gaussian_config(opts: &CliOptions) -> GaussianFigureConfig {
    let dataset_keys = ["size", "ranges", "min-range", "max-range", "replicates", "seed"];
    let mut config = match opts.preset(&dataset_keys) {
        Some("quick") => return GaussianFigureConfig::quick(),
        Some(_) => return GaussianFigureConfig::paper_scale(),
        None => GaussianFigureConfig::standard(),
    };
    config.datasets = StudyDatasets {
        gaussian_size: opts.get_count("size", config.datasets.gaussian_size),
        n_ranges: opts.get_count("ranges", config.datasets.n_ranges),
        min_range: opts.get_length("min-range", config.datasets.min_range),
        max_range: opts.get_length("max-range", config.datasets.max_range),
        replicates: opts.get_count("replicates", config.datasets.replicates),
        seed: opts.get_u64("seed", config.datasets.seed),
    };
    config
}

/// Build the Miranda-figure configuration (figures 4 and 7) from the command
/// line: `--quick`, `--full-paper-scale`, or explicit `--slices`,
/// `--slice-size`, `--seed`, refused like [`gaussian_config`]'s.
pub fn miranda_config(opts: &CliOptions) -> MirandaFigureConfig {
    let mut config = match opts.preset(&["slices", "slice-size", "seed"]) {
        Some("quick") => return MirandaFigureConfig::quick(),
        Some(_) => return MirandaFigureConfig::paper_scale(),
        None => MirandaFigureConfig::standard(),
    };
    config.slices = opts.get_count("slices", config.slices);
    config.slice_size = opts.get_count("slice-size", config.slice_size);
    config.seed = opts.get_u64("seed", config.seed);
    config
}

/// Print one fitted series as the paper's legend line.
pub fn print_series(series: &FittedSeries) {
    println!(
        "  {:>6} {:>9}  alpha={:>8.3}  beta={:>8.3}  R2={:>6.3}  n={}",
        series.compressor,
        series.bound.to_string(),
        series.fit.alpha,
        series.fit.beta,
        series.fit.r_squared,
        series.fit.n_points
    );
}

/// Print a whole panel (header + every series) and return the number of
/// series printed.
pub fn print_panel(title: &str, panel: &FigurePanel) -> usize {
    println!("{title}");
    println!("  x-axis: {}", panel.statistic.label());
    for s in &panel.series {
        print_series(s);
    }
    panel.series.len()
}

/// Write a panel's per-record CSV and fitted-coefficients CSV under
/// `dir/<stem>_records.csv` and `dir/<stem>_fits.csv`.
pub fn write_panel_csv(panel: &FigurePanel, dir: &Path, stem: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let records = lcc_core::experiment::records_to_csv(&panel.records);
    records
        .write(dir.join(format!("{stem}_records.csv")))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    panel
        .fits_to_csv()
        .write(dir.join(format!("{stem}_fits.csv")))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok(())
}

/// Write an arbitrary CSV series under the output directory.
pub fn write_csv(csv: &CsvSeries, dir: &Path, name: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    csv.write(dir.join(name)).map_err(|e| std::io::Error::other(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: [&str; 6] = ["size", "seed", "out", "ranges", "min-range", "max-range"];

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        CliOptions::parse(args.iter().map(|s| s.to_string()), &KEYS, &SCALE_FLAGS)
    }

    #[test]
    fn cli_parsing_handles_values_and_flags() {
        let opts = parse(&["--size", "256", "--quick", "--seed", "9", "--out", "/tmp/x"]).unwrap();
        assert_eq!(opts.get_usize("size", 64), 256);
        assert_eq!(opts.get_u64("seed", 1), 9);
        assert!(opts.flag("quick"));
        assert!(!opts.flag("full-paper-scale"));
        assert_eq!(opts.output_dir(), PathBuf::from("/tmp/x"));
        // Defaults for missing keys.
        assert_eq!(opts.get_count("ranges", 10), 10);
        assert_eq!(opts.get_length("min-range", 2.0), 2.0);
        assert_eq!(opts.get_str("missing", "d"), "d");
    }

    #[test]
    fn unparseable_values_are_errors_naming_the_flag_and_the_text() {
        let opts = parse(&["--size", "abc", "--seed", "-1", "--min-range", "2.x"]).unwrap();
        for (name, text, message) in [
            ("size", "abc", opts.parsed::<usize>("size", 64).unwrap_err()),
            ("seed", "-1", opts.parsed::<u64>("seed", 1).unwrap_err()),
            ("min-range", "2.x", opts.parsed::<f64>("min-range", 2.0).unwrap_err()),
        ] {
            assert!(message.contains(&format!("--{name}")), "flag missing from {message:?}");
            assert!(message.contains(text), "offending text missing from {message:?}");
        }
    }

    #[test]
    fn missing_options_still_yield_the_default() {
        let opts = parse(&["--size", "abc"]).unwrap();
        assert_eq!(opts.parsed::<usize>("ranges", 10), Ok(10));
        assert_eq!(opts.parsed::<u64>("seed", 7), Ok(7));
        assert_eq!(opts.parsed::<f64>("max-range", 32.0), Ok(32.0));
    }

    #[test]
    fn undeclared_arguments_are_refused_by_name() {
        for (args, offender) in [
            (&["stray", "--quick"][..], "stray"),
            (&["--size", "8", "--sise", "9"], "--sise"),
            (&["--quick", "-size", "8"], "-size"),
            (&["--size", "8", "16"], "16"),
            // A flag is not a key and a key is not a flag.
            (&["--quick", "yes"], "yes"),
            (&["--seed"], "--seed"),
            (&["--"], "--"),
        ] {
            let message = parse(args).unwrap_err();
            assert!(message.ends_with(offender) || message.starts_with(offender), "{message:?}");
        }
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        assert_eq!(parse(&["--sise", "9"]).unwrap_err(), "unknown argument --sise");
        // A binary that declares nothing takes nothing.
        assert!(CliOptions::parse(["--quick".to_string()], &[], &[]).is_err());
        assert!(CliOptions::parse(Vec::<String>::new(), &[], &[]).is_ok());
    }

    #[test]
    fn the_shared_key_sets_cover_what_the_config_builders_read() {
        fn args(keys: &[&str]) -> Vec<String> {
            keys.iter().flat_map(|k| [format!("--{k}"), "3".to_string()]).collect()
        }
        let opts = CliOptions::parse(args(&GAUSSIAN_KEYS), &GAUSSIAN_KEYS, &SCALE_FLAGS).unwrap();
        let config = gaussian_config(&opts);
        assert_eq!((config.datasets.gaussian_size, config.datasets.n_ranges), (3, 3));
        assert_eq!((config.datasets.min_range, config.datasets.max_range), (3.0, 3.0));
        assert_eq!((config.datasets.replicates, config.datasets.seed), (3, 3));
        let opts = CliOptions::parse(args(&MIRANDA_KEYS), &MIRANDA_KEYS, &SCALE_FLAGS).unwrap();
        let config = miranda_config(&opts);
        assert_eq!((config.slices, config.slice_size, config.seed), (3, 3, 3));
        assert_eq!(opts.output_dir(), PathBuf::from("3"));
    }
}
