//! Figure 1 reproduction: an example empirical variogram with its fitted
//! squared-exponential model (nugget ≈ 0, sill, range).
//!
//! ```text
//! cargo run --release -p lcc-bench --bin figure1 -- [--size N] [--range A] [--seed S] [--out DIR]
//! ```

use lcc_bench::{refuse, CliOptions};
use lcc_core::figures::run_figure1;
use lcc_grid::io::CsvSeries;

fn main() {
    let opts = CliOptions::from_env(&["size", "range", "seed", "out"], &[]);
    let size = opts.get_count("size", 256, 1);
    let range = opts.get_length("range", 16.0);
    let seed = opts.get_u64("seed", 2021);

    println!("== Figure 1: example variogram (size={size}, true range={range}, seed={seed}) ==");
    let data = run_figure1(size, range, seed)
        .unwrap_or_else(|e| refuse(&format!("--size {size} with --range {range}: {e}")));
    println!("fitted sill  = {:.4}", data.sill);
    println!("fitted range = {:.4} (generation range {range})", data.range);
    println!("{:>10} {:>12}", "distance", "gamma");
    for (h, g) in &data.empirical {
        println!("{h:>10.3} {g:>12.6}");
    }

    let mut empirical = CsvSeries::new(["distance", "gamma"]);
    for &(h, g) in &data.empirical {
        empirical.push_row(vec![h, g]);
    }
    let mut model = CsvSeries::new(["distance", "gamma_model"]);
    for &(h, g) in &data.model {
        model.push_row(vec![h, g]);
    }
    let dir = opts.output_dir();
    empirical.write(dir.join("figure1_empirical.csv")).expect("write empirical CSV");
    model.write(dir.join("figure1_model.csv")).expect("write model CSV");
    println!("CSV written to {}", dir.display());
}
