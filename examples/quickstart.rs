//! Quickstart: generate a correlated field, measure its correlation
//! statistics, and compress it with the three study compressors at one
//! absolute error bound.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lcc::core::default_registry;
use lcc::core::statistics::{CorrelationStatistics, StatisticsConfig};
use lcc::pressio::ErrorBound;
use lcc::synth::{generate_single_range, GaussianFieldConfig};

fn main() {
    // 1. A 256x256 Gaussian random field with a known correlation range.
    let range = 16.0;
    let field = generate_single_range(&GaussianFieldConfig::new(256, 256, range, 42));
    println!("generated a {}x{} field with correlation range {range}", field.ny(), field.nx());

    // 2. The paper's correlation statistics.
    let stats = CorrelationStatistics::compute_view(&field.view(), &StatisticsConfig::default());
    println!("estimated global variogram range  : {:.2}", stats.global_range);
    println!("std of local variogram ranges H=32: {:.2}", stats.local_range_std);
    println!("std of local SVD truncation  H=32 : {:.2}", stats.local_svd_std);

    // 3. Compress with SZ-, ZFP- and MGARD-style compressors at abs eb 1e-3.
    let bound = ErrorBound::Absolute(1e-3);
    println!(
        "\n{:<8} {:>10} {:>12} {:>12} {:>10}",
        "codec", "ratio", "bitrate", "max_error", "psnr_db"
    );
    for compressor in default_registry().compressors() {
        let result = compressor.compress(&field, bound).expect("compression succeeds");
        println!(
            "{:<8} {:>10.2} {:>12.3} {:>12.3e} {:>10.1}",
            compressor.name(),
            result.metrics.compression_ratio,
            result.metrics.bitrate,
            result.metrics.max_abs_error,
            result.metrics.psnr
        );
        assert!(result.metrics.max_abs_error <= 1e-3);
    }
    println!("\nevery reconstruction respected the absolute error bound of 1e-3");
}
