//! Figure 4 reproduction: compression ratio vs the estimated **global
//! variogram range** for Miranda-proxy velocityx slices. The paper splits
//! the SZ panel at error bounds < 1e-2 for readability; the printed output
//! reports the full series and a filtered view.
//!
//! ```text
//! cargo run --release -p lcc-bench --bin figure4 -- \
//!     [--slices N] [--slice-size N] [--seed S] [--quick] [--full-paper-scale] [--out DIR]
//! ```

use lcc_bench::{
    miranda_config, print_panel, print_series, write_panel_csv, CliOptions, MIRANDA_KEYS,
    SCALE_FLAGS,
};
use lcc_core::figures::run_figure4;

fn main() {
    let opts = CliOptions::from_env(&MIRANDA_KEYS, &SCALE_FLAGS);
    let config = miranda_config(&opts);
    println!(
        "== Figure 4: CR vs global variogram range, Miranda-proxy velocityx ({} slices of {}x{}) ==",
        config.slices, config.slice_size, config.slice_size
    );
    let panel = run_figure4(&config);
    print_panel("-- all error bounds --", &panel);
    println!("-- SZ restricted to bounds < 1e-2 (right panel of the paper) --");
    for s in panel.series.iter().filter(|s| s.compressor == "sz" && s.bound.raw_epsilon() < 1e-2) {
        print_series(s);
    }
    let dir = opts.output_dir();
    write_panel_csv(&panel, &dir, "figure4_miranda_global_range").expect("write CSV");
    println!("CSV written to {}", dir.display());
}
