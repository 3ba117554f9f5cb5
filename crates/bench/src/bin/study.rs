//! Figures 3–7 reproduction: compression ratio against the three
//! correlation statistics — the global variogram range (Figures 3 and 4),
//! the std of the local variogram ranges (Figures 5 and 7, left) and the
//! std of the local SVD truncation levels (Figures 6 and 7, right) — on
//! single-range and multi-range Gaussian fields and Miranda-proxy velocityx
//! slices, with the fitted logarithmic regression per compressor × error
//! bound. One sweep per dataset family feeds all nine panels; each panel is
//! printed and written as `<stem>_records.csv` and `<stem>_fits.csv`.
//!
//! ```text
//! cargo run --release -p lcc_bench --bin study -- \
//!     [--size N] [--ranges K] [--min-range A] [--max-range B] [--replicates R] \
//!     [--slices N] [--slice-size N] [--seed S] [--quick] [--full-paper-scale] [--out DIR]
//! ```

use lcc_bench::{study_config, CliOptions, SCALE_FLAGS, STUDY_KEYS};
use lcc_core::experiment::records_to_csv;
use lcc_core::figures::{run_study, FigurePanel, PANELS};

fn main() {
    let opts = CliOptions::from_env(&STUDY_KEYS, &SCALE_FLAGS);
    let config = study_config(&opts);
    let d = &config.datasets;
    println!(
        "== Figures 3-7: Gaussian fields (size={}, ranges={}, replicates={}), \
         Miranda-proxy velocityx ({} slices of {}x{}) ==",
        d.gaussian_size,
        d.n_ranges,
        d.replicates,
        config.slices,
        config.slice_size,
        config.slice_size
    );
    let study = run_study(&config).expect("the study compressors never fail on finite fields");
    let dir = opts.output_dir();
    for spec in &PANELS {
        let panel = study.panel(spec);
        print_panel(spec.title, &panel);
        let stem = spec.stem;
        let records = records_to_csv(&panel.records);
        records.write(dir.join(format!("{stem}_records.csv"))).expect("write records CSV");
        panel.fits_to_csv().write(dir.join(format!("{stem}_fits.csv"))).expect("write fits CSV");
    }
    println!("CSV written to {}", dir.display());
}

/// Print a panel: its title, its x-axis and one legend line per fitted
/// series.
fn print_panel(title: &str, panel: &FigurePanel) {
    println!("-- {title} --");
    println!("  x-axis: {}", panel.statistic.label());
    for s in &panel.series {
        println!(
            "  {:>6} {:>9}  alpha={:>8.3}  beta={:>8.3}  R2={:>6.3}  n={}",
            s.compressor,
            s.bound.to_string(),
            s.fit.alpha,
            s.fit.beta,
            s.fit.r_squared,
            s.fit.n_points
        );
    }
}
