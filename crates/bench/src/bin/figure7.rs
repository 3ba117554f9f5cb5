//! Figure 7 reproduction: compression ratio vs the two **local** statistics
//! (std of local variogram range, std of local SVD truncation level) for
//! Miranda-proxy velocityx slices.
//!
//! ```text
//! cargo run --release -p lcc-bench --bin figure7 -- \
//!     [--slices N] [--slice-size N] [--seed S] [--quick] [--full-paper-scale] [--out DIR]
//! ```

use lcc_bench::{
    miranda_config, print_panel, write_panel_csv, CliOptions, MIRANDA_KEYS, SCALE_FLAGS,
};
use lcc_core::figures::run_figure7;

fn main() {
    let opts = CliOptions::from_env(&MIRANDA_KEYS, &SCALE_FLAGS);
    let config = miranda_config(&opts);
    println!(
        "== Figure 7: CR vs local statistics, Miranda-proxy velocityx ({} slices of {}x{}) ==",
        config.slices, config.slice_size, config.slice_size
    );
    let (local_range, local_svd) = run_figure7(&config);
    print_panel("-- std of local variogram range (left column) --", &local_range);
    print_panel("-- std of local SVD truncation level (right column) --", &local_svd);

    let dir = opts.output_dir();
    write_panel_csv(&local_range, &dir, "figure7_local_range_std").expect("write CSV");
    write_panel_csv(&local_svd, &dir, "figure7_local_svd_std").expect("write CSV");
    println!("CSV written to {}", dir.display());
}
