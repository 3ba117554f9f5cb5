//! Timed paper-scale statistics and codec stages, printed on stdout as one
//! GitHub-markdown report — what only this binary measures (the serving
//! paths' throughput, latency, allocation and cache numbers are
//! `benchmarks/e2e`'s).
//!
//! ```text
//! cargo run --release -p lcc_bench --bin bench_sweep -- --size 1028
//! ```
//!
//! `--size` (default 1028) is the only option: the field's seed is 7, and
//! the pool is `LCC_THREADS` wide, or one thread per CPU. The report holds:
//!
//! - compress / decompress MB/s and ratio of every compressor of the
//!   entropy-ablation registry on the field (best of 3), at the absolute
//!   bound 1e-3;
//! - the milliseconds `sz` / `sz-rans8` (input validation, block mode
//!   selection, predict/quantize, entropy coding, container + LZ77) and
//!   `mgard` / `mgard-rans8` (validation, decomposition, quantization,
//!   entropy coding, container + LZ77) spend in each encode layer, as
//!   `min [median]` of 5 `compress_view_timed` calls — on a field of two or more
//!   64 × 64 tiles each `sz` variant has a second `<name>@64x64` row, the
//!   same layers summed over the tiles, one stream each, with the per-tile
//!   fixed cost (what a stream costs before its first cell) and, on the
//!   `sz-rans8` row, the share of the tile streams' bytes that is rANS
//!   frequency table;
//! - how many of the `*-rans8` streams overflowed the 12-bit rANS table
//!   and carry Huffman-mode codes instead;
//! - every stage's seconds;
//! - the global variogram's pairs, its ns/pair at width 1 (at 1028², whose
//!   origin strides are 3, 2 and 1, a 2-vCPU box reads ≈ 0.27 ns/pair at the
//!   AVX2 tier and ≈ 0.31 at `LCC_SIMD=off`) and its parallel efficiency at
//!   the pool's width;
//! - `correlation_statistics_compute` seconds over `compress_sz` seconds:
//!   what the predictor costs in units of the compression it steers.

use lcc_bench::CliOptions;
use lcc_core::registry::entropy_ablation_registry;
use lcc_core::statistics::{CorrelationStatistics, StatisticsConfig};
use lcc_geostat::{
    empirical_variogram_view, estimate_range_pooled, estimate_range_view, local_range_std_view,
    local_svd_truncation_std_view, LocalStatConfig, VariogramConfig,
};
use lcc_grid::{Field2D, Window, WindowIter};
use lcc_lossless::{rans8_stream_info, simd_level, Rans8StreamInfo};
use lcc_mgard::MgardCompressor;
use lcc_par::ThreadPoolConfig;
use lcc_pressio::{codes, CompressError, Compressor, ErrorBound, ScratchArena};
use lcc_synth::{generate_single_range, GaussianFieldConfig};
use lcc_sz::SzCompressor;
use std::hint::black_box;
use std::time::Instant;

/// Seed of the report's field.
const SEED: u64 = 7;

/// Timed repetitions behind each codec's best compress and decompress.
const CODEC_REPS: usize = 3;

/// Timed repetitions behind each layer's min and median.
const LAYER_REPS: usize = 5;

/// Tile side of the per-tile encode-layer rows: the archive's tile.
const LAYER_TILE: usize = 64;

/// Mode byte of a rANS section whose alphabet overflowed the 12-bit
/// frequency table: the codes that follow are a Huffman stream.
const RANS_MODE_HUFFMAN: u8 = 1;

/// `(stage, seconds)`, in the order the stages ran.
type Stages = Vec<(String, f64)>;

/// Run `f`, record its wall time under `stage`, and pass its result on.
fn timed<T>(stages: &mut Stages, stage: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = black_box(f());
    stages.push((stage.to_string(), start.elapsed().as_secs_f64()));
    out
}

/// Print a markdown table and the blank line that ends it.
fn table(header: &[&str], rows: &[Vec<String>]) {
    println!("| {} |", header.join(" | "));
    println!("|{}", "---|".repeat(header.len()));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// The rANS stream header of an `sz-rans8` or `mgard-rans8` stream's codes
/// section — a stream of `lcc_lossless::rans8_encode` — or `None` for any
/// other stream.
fn rans8_info(stream: &[u8]) -> Option<Rans8StreamInfo> {
    // A rANS container ships raw, so it opens with its format's magic (and
    // nothing is LZ77-expanded to open it).
    let formats = [&lcc_sz::FORMAT, &lcc_mgard::FORMAT];
    let format = formats.into_iter().find(|format| stream.starts_with(&format.rans8))?;
    let mut unused = Vec::new();
    let parts = codes::open(format, stream, &mut unused).expect("bench stream opens");
    Some(rans8_stream_info(parts.section).expect("bench stream parses"))
}

/// Where one compress call spends its time: `(layer, min, median)` seconds
/// per encode layer, in pipeline order, over repeated calls.
#[derive(Debug, PartialEq)]
struct EncodeLayers(Vec<(&'static str, f64, f64)>);

impl EncodeLayers {
    /// Summarize per-repetition samples: `samples[r][k]` is the seconds
    /// repetition `r` spent in layer `names[k]`.
    fn from_samples(names: &[&'static str; 5], samples: &[[f64; 5]]) -> Self {
        EncodeLayers(
            names
                .iter()
                .enumerate()
                .map(|(k, &name)| {
                    let mut column: Vec<f64> = samples.iter().map(|rep| rep[k]).collect();
                    column.sort_by(f64::total_cmp);
                    (name, column[0], column[column.len() / 2])
                })
                .collect(),
        )
    }

    /// [`EncodeLayers::from_samples`] of `LAYER_REPS` calls of
    /// `timed_compress`, which returns each layer's seconds.
    fn measure(
        names: &[&'static str; 5],
        mut timed_compress: impl FnMut() -> Result<[f64; 5], CompressError>,
    ) -> Self {
        let samples: Vec<[f64; 5]> =
            (0..LAYER_REPS).map(|_| timed_compress().expect("bench compressor succeeds")).collect();
        Self::from_samples(names, &samples)
    }

    /// Sum of the minima of the first `layers` layers.
    fn min_seconds(&self, layers: usize) -> f64 {
        self.0[..layers].iter().map(|&(_, min, _)| min).sum()
    }

    /// What one more stream costs before its first cell, in microseconds:
    /// `tiled` (these layers summed over `tiles` streams) minus `self` (one
    /// stream of the whole field) over the tile count, on every layer but
    /// the last. That one, `container_lz77`, is not linear in the payload:
    /// the whole field's LZ77 pass costs several times the tiles' passes
    /// together, and counting it would read as a negative cost.
    fn tile_fixed_cost_us(&self, tiled: &EncodeLayers, tiles: usize) -> f64 {
        let before_container = self.0.len() - 1;
        (tiled.min_seconds(before_container) - self.min_seconds(before_container)) * 1e6
            / tiles as f64
    }

    /// The row's cells: `min [median]` ms per layer, the minima's sum, and
    /// the per-tile fixed cost and table share where the row has them.
    fn row(&self, name: &str, fixed_us: Option<f64>, table_frac: Option<f64>) -> Vec<String> {
        let mut row = vec![name.to_string()];
        row.extend(
            self.0.iter().map(|(_, min, median)| format!("{:.2} [{:.2}]", min * 1e3, median * 1e3)),
        );
        row.push(format!("{:.2}", self.min_seconds(self.0.len()) * 1e3));
        row.push(fixed_us.map_or("—".into(), |us| format!("{us:.1}")));
        row.push(table_frac.map_or("—".into(), |frac| format!("{:.1} %", frac * 100.0)));
        row
    }
}

/// Print one codec family's encode-layer table.
fn layer_table(names: &[&'static str; 5], rows: &[Vec<String>]) {
    println!("Encode layers (ms: min [median])");
    println!();
    let mut header = vec!["compressor"];
    header.extend(names);
    header.extend(["layers sum", "per-tile fixed us", "table bytes"]);
    table(&header, rows);
}

/// The report's variogram line: `pairs` summed in `serial` seconds at width
/// 1 and in `pooled` seconds at width `threads`.
fn variogram_line(pairs: u64, serial: f64, pooled: f64, threads: usize) -> String {
    // What is missing from an efficiency of 1 is the serial fraction and the
    // pool's idle tail.
    format!(
        "Global variogram: {pairs} pairs, {:.3} ns/pair at one thread, \
         parallel efficiency {:.2} at {threads} threads.",
        serial * 1e9 / (pairs as f64).max(1.0),
        serial / (threads as f64 * pooled.max(f64::MIN_POSITIVE)),
    )
}

/// The report's predictor-cost line: `correlation_statistics_compute`
/// seconds over `compress_sz` seconds — what the predictor costs in units
/// of the compression it steers — or `—` without both stages.
fn predictor_cost_line(stages: &Stages) -> String {
    let seconds = |stage: &str| stages.iter().find(|(name, _)| name == stage).map(|&(_, s)| s);
    let ratio = seconds("correlation_statistics_compute")
        .zip(seconds("compress_sz").filter(|&codec| codec > 0.0))
        .map_or("—".into(), |(predictor, codec)| format!("{:.2}", predictor / codec));
    format!("Predictor cost / codec cost (correlation_statistics_compute ÷ compress_sz): {ratio}")
}

/// The global variogram of `field` at width 1 and on `pool` (best of three
/// each): the report's line of its pairs, ns/pair and parallel efficiency.
fn variogram_cost(field: &Field2D, pool: ThreadPoolConfig) -> String {
    let (view, config) = (field.view(), VariogramConfig::default());
    let best_of_three = |width: ThreadPoolConfig| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                black_box(estimate_range_pooled(&view, &config, width));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    };
    let pairs: u64 = empirical_variogram_view(&view, &config).counts.iter().sum();
    let serial = best_of_three(ThreadPoolConfig::with_threads(1));
    let pooled = best_of_three(pool);
    variogram_line(pairs, serial, pooled, pool.threads())
}

fn main() {
    let size = CliOptions::from_env(&["size"], &[]).get_count("size", 1028, 1);
    let pool = ThreadPoolConfig::auto();
    let bytes = (size * size * std::mem::size_of::<f64>()) as f64;
    let megabytes = bytes / 1e6;
    println!(
        "## bench_sweep — {size}x{size} ({megabytes:.2} MB), SIMD {}, {} threads",
        simd_level().label(),
        pool.threads()
    );
    println!();
    let mut stages = Stages::new();
    let field = timed(&mut stages, "generate_field", || {
        generate_single_range(&GaussianFieldConfig::new(size, size, 16.0, SEED))
    });
    let view = field.view();

    // Paper-scale single-field statistics: one stage per estimator, plus the
    // bundled computation a request makes.
    timed(&mut stages, "global_variogram_range", || {
        estimate_range_view(&view, &VariogramConfig::default())
    });
    let variogram_line = variogram_cost(&field, pool);
    timed(&mut stages, "local_variogram_range_std", || {
        local_range_std_view(&view, &LocalStatConfig::default())
    });
    timed(&mut stages, "local_svd_truncation_std", || {
        local_svd_truncation_std_view(&view, 32, 0.99, None)
    });
    timed(&mut stages, "correlation_statistics_compute", || {
        CorrelationStatistics::compute_view(&view, &StatisticsConfig::default())
    });

    // Codec throughput at the paper's mid-grid bound, through a reused
    // ScratchArena exactly like a sweep worker. The registry is the entropy
    // ablation: every study compressor next to its rans8-backend variant.
    let bound = ErrorBound::Absolute(1e-3);
    let mut arena = ScratchArena::new();
    let mut recon = Field2D::zeros(1, 1);
    let (mut rans8_streams, mut rans8_fallback) = (0usize, 0usize);
    let mut rows = Vec::new();
    for compressor in entropy_ablation_registry().compressors() {
        let name = compressor.name();
        let (mut compress_seconds, mut decompress_seconds) = (f64::MAX, f64::MAX);
        let mut stream_len = 0;
        for rep in 0..CODEC_REPS {
            let start = Instant::now();
            let stream = compressor
                .compress_view_with(&view, bound, &mut arena)
                .expect("bench compressor succeeds");
            compress_seconds = compress_seconds.min(start.elapsed().as_secs_f64());
            stream_len = stream.len();
            if rep == 0 {
                if let Some(info) = rans8_info(&stream) {
                    rans8_streams += 1;
                    rans8_fallback += usize::from(info.mode == RANS_MODE_HUFFMAN);
                }
            }
            let start = Instant::now();
            compressor
                .decompress_view_with(&stream, &mut arena, &mut recon)
                .expect("bench stream decodes");
            decompress_seconds = decompress_seconds.min(start.elapsed().as_secs_f64());
            assert_eq!(recon.shape(), field.shape());
        }
        stages.push((format!("compress_{name}"), compress_seconds));
        stages.push((format!("decompress_{name}"), decompress_seconds));
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", megabytes / compress_seconds),
            format!("{:.1}", megabytes / decompress_seconds),
            format!("{:.2}", bytes / stream_len as f64),
        ]);
    }
    table(&["compressor", "compress MB/s", "decompress MB/s", "ratio"], &rows);

    // Where an SZ or MGARD compress call's time goes, from its
    // `compress_view_timed` (the compress path itself), so the compress ÷
    // decompress gap of the rows above has an owner. On a field of several
    // archive tiles each `sz` variant gets a second row, the same layers
    // summed over the tiles, and from the two rows what a stream costs
    // before its first cell.
    let tiles: Vec<Window> =
        WindowIter::over(field.ny(), field.nx(), LAYER_TILE, LAYER_TILE).collect();
    let mut rows = Vec::new();
    for sz in [SzCompressor::default(), SzCompressor::rans8()] {
        let mut scratch = ScratchArena::new();
        let whole = EncodeLayers::measure(&SzCompressor::ENCODE_LAYERS, || {
            sz.compress_view_timed(&view, bound, &mut scratch).map(|(_, seconds)| seconds)
        });
        rows.push(whole.row(sz.name(), None, None));
        if tiles.len() < 2 {
            continue;
        }
        let tiled = EncodeLayers::measure(&SzCompressor::ENCODE_LAYERS, || {
            let mut sum = [0.0; 5];
            for tile in &tiles {
                let (_, seconds) =
                    sz.compress_view_timed(&view.window(tile), bound, &mut scratch)?;
                sum.iter_mut().zip(seconds).for_each(|(total, s)| *total += s);
            }
            Ok(sum)
        });
        // What share of the tile streams is frequency table (untimed).
        let (mut stream_bytes, mut table_bytes) = (0usize, 0usize);
        for tile in &tiles {
            let (stream, _) = sz
                .compress_view_timed(&view.window(tile), bound, &mut scratch)
                .expect("bench compressor succeeds");
            if let Some(info) = rans8_info(&stream) {
                stream_bytes += stream.len();
                table_bytes += info.table_bytes;
            }
        }
        rows.push(tiled.row(
            &format!("{}@{LAYER_TILE}x{LAYER_TILE}", sz.name()),
            Some(whole.tile_fixed_cost_us(&tiled, tiles.len())),
            (stream_bytes > 0).then(|| table_bytes as f64 / stream_bytes as f64),
        ));
    }
    layer_table(&SzCompressor::ENCODE_LAYERS, &rows);
    let mut rows = Vec::new();
    for mgard in [MgardCompressor::default(), MgardCompressor::rans8()] {
        let mut scratch = ScratchArena::new();
        let layers = EncodeLayers::measure(&MgardCompressor::ENCODE_LAYERS, || {
            mgard.compress_view_timed(&view, bound, &mut scratch).map(|(_, seconds)| seconds)
        });
        rows.push(layers.row(mgard.name(), None, None));
    }
    layer_table(&MgardCompressor::ENCODE_LAYERS, &rows);

    println!(
        "{rans8_fallback} of {rans8_streams} `*-rans8` streams overflowed the 12-bit rANS \
         table and carry Huffman-mode codes: the row of such a stream measures Huffman."
    );
    println!();
    let total: f64 = stages.iter().map(|&(_, seconds)| seconds).sum();
    let mut rows: Vec<Vec<String>> =
        stages.iter().map(|(stage, s)| vec![stage.clone(), format!("{s:.3}")]).collect();
    rows.push(vec!["total".into(), format!("{total:.3}")]);
    table(&["stage", "seconds"], &rows);
    println!("{variogram_line}");
    println!();
    println!("{}", predictor_cost_line(&stages));
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYERS: [&str; 5] = SzCompressor::ENCODE_LAYERS;

    #[test]
    fn layer_rows_carry_min_median_and_sum_in_milliseconds() {
        let samples = [
            [0.003, 0.5e-3, 0.0, 0.0, 0.5],
            [0.001, 0.25e-3, 0.0, 0.0, 0.25],
            [0.002, 1.0e-3, 0.0, 0.0, 1.0],
        ];
        let layers = EncodeLayers::from_samples(&LAYERS, &samples);
        assert_eq!(layers.0[0], ("validate", 0.001, 0.002));
        assert_eq!(layers.0[4], ("container_lz77", 0.25, 0.5));
        let row = layers.row("sz@64x64", Some(12.34), Some(0.13107));
        assert_eq!(row[0], "sz@64x64");
        assert_eq!(row[1], "1.00 [2.00]");
        assert_eq!(row[2], "0.25 [0.50]");
        assert_eq!(row[5], "250.00 [500.00]");
        assert_eq!(row[6..], ["251.25", "12.3", "13.1 %"]);
        assert_eq!(layers.row("sz", None, None)[7..], ["—", "—"]);
    }

    /// The whole field's LZ77 pass costs more than the tiles' passes
    /// together (19.6–25.9 ms against 2.2–3.2 ms summed over the 289 tiles
    /// of a 1028² field, for `sz`): over all five layers the fixed cost read
    /// negative; without the container it is what the other layers add.
    #[test]
    fn tile_fixed_cost_leaves_the_container_layer_out() {
        let ms = |layers: [f64; 5]| layers.map(|x| x * 1e-3);
        let whole = [ms([0.0, 3.6, 8.9, 5.1, 19.6]), ms([0.0, 3.7, 9.3, 5.2, 25.9])];
        let tiled = [ms([0.01, 3.7, 9.4, 8.5, 2.2]), ms([0.01, 3.8, 9.6, 8.7, 3.2])];
        let whole = EncodeLayers::from_samples(&LAYERS, &whole);
        let tiled = EncodeLayers::from_samples(&LAYERS, &tiled);
        let tiles = 289;
        let all_five = (tiled.min_seconds(5) - whole.min_seconds(5)) * 1e6 / tiles as f64;
        assert!(all_five < 0.0, "{all_five}");
        let fixed = whole.tile_fixed_cost_us(&tiled, tiles);
        let expected = (0.01 + 0.1 + 0.5 + 3.4) * 1e3 / tiles as f64;
        assert!((fixed - expected).abs() < 1e-9, "{fixed} vs {expected}");
    }

    #[test]
    fn variogram_line_carries_pairs_ns_per_pair_and_parallel_efficiency() {
        assert_eq!(
            variogram_line(2_000_000, 0.5e-3, 0.3125e-3, 2),
            "Global variogram: 2000000 pairs, 0.250 ns/pair at one thread, \
             parallel efficiency 0.80 at 2 threads."
        );
        // A pooled run below the clock's resolution reads a finite efficiency.
        assert!(!variogram_line(0, 0.5e-3, 0.0, 2).contains("inf"));
    }

    #[test]
    fn predictor_cost_needs_both_stages() {
        let mut stages = vec![("correlation_statistics_compute".to_string(), 0.5)];
        assert!(predictor_cost_line(&stages).ends_with("compress_sz): —"));
        stages.push(("compress_sz".into(), 0.125));
        assert_eq!(
            predictor_cost_line(&stages),
            "Predictor cost / codec cost (correlation_statistics_compute ÷ compress_sz): 4.00"
        );
    }
}
