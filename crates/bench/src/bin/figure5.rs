//! Figure 5 reproduction: compression ratio vs the **standard deviation of
//! local variogram ranges (H=32)** for single-range and multi-range Gaussian
//! fields.
//!
//! ```text
//! cargo run --release -p lcc-bench --bin figure5 -- \
//!     [--size N] [--ranges K] [--replicates R] [--seed S] [--quick] [--full-paper-scale] [--out DIR]
//! ```

use lcc_bench::{
    gaussian_config, print_panel, write_panel_csv, CliOptions, GAUSSIAN_KEYS, SCALE_FLAGS,
};
use lcc_core::figures::run_figure5;

fn main() {
    let opts = CliOptions::from_env(&GAUSSIAN_KEYS, &SCALE_FLAGS);
    let config = gaussian_config(&opts);
    println!(
        "== Figure 5: CR vs std of local variogram range H=32 (size={}, ranges={}) ==",
        config.datasets.gaussian_size, config.datasets.n_ranges
    );
    let data = run_figure5(&config);
    print_panel("-- single-range Gaussian fields (left panel) --", &data.single_range);
    print_panel("-- multi-range Gaussian fields (right panel) --", &data.multi_range);

    let dir = opts.output_dir();
    write_panel_csv(&data.single_range, &dir, "figure5_single_range").expect("write CSV");
    write_panel_csv(&data.multi_range, &dir, "figure5_multi_range").expect("write CSV");
    println!("CSV written to {}", dir.display());
}
