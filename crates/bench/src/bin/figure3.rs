//! Figure 3 reproduction: compression ratio vs the estimated **global
//! variogram range** for single-range (left panel) and multi-range (right
//! panel) Gaussian fields, with the fitted logarithmic regression
//! coefficients per compressor × error bound.
//!
//! ```text
//! cargo run --release -p lcc-bench --bin figure3 -- \
//!     [--size N] [--ranges K] [--replicates R] [--seed S] [--quick] [--full-paper-scale] [--out DIR]
//! ```

use lcc_bench::{
    gaussian_config, print_panel, write_panel_csv, CliOptions, GAUSSIAN_KEYS, SCALE_FLAGS,
};
use lcc_core::figures::run_figure3;

fn main() {
    let opts = CliOptions::from_env(&GAUSSIAN_KEYS, &SCALE_FLAGS);
    let config = gaussian_config(&opts);
    println!(
        "== Figure 3: CR vs global variogram range (size={}, ranges={}, replicates={}) ==",
        config.datasets.gaussian_size, config.datasets.n_ranges, config.datasets.replicates
    );
    let data = run_figure3(&config);
    print_panel("-- single-range Gaussian fields (left panel) --", &data.single_range);
    print_panel("-- multi-range Gaussian fields (right panel) --", &data.multi_range);

    let dir = opts.output_dir();
    write_panel_csv(&data.single_range, &dir, "figure3_single_range").expect("write CSV");
    write_panel_csv(&data.multi_range, &dir, "figure3_multi_range").expect("write CSV");
    println!("CSV written to {}", dir.display());
}
