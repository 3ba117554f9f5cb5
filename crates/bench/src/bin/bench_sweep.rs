//! Timed paper-scale statistics and codec stages, written to
//! `BENCH_sweep.json` — what only this binary reports (the serving paths'
//! throughput, latency, allocation and cache numbers are `benchmarks/e2e`'s).
//!
//! ```text
//! cargo run --release -p lcc_bench --bin bench_sweep -- \
//!     --size 1028 --threads 4 --out target/bench
//! ```
//!
//! `--stage stats` or `--stage codecs` runs one of the two stages instead of
//! both — the fast loop when iterating on one kernel or codec; the written
//! report then holds only that stage's rows.
//!
//! The `codecs` stage times every compressor of the entropy-ablation
//! registry on the field (best of `--reps`) and writes an `encode_layers`
//! section: the seconds `sz` / `sz-rans8` (input validation, block mode
//! selection, predict/quantize, entropy coding, container + LZ77) and
//! `mgard` / `mgard-rans8` (validation, decomposition, quantization, entropy
//! coding, container + LZ77) spend in each encode layer, from their
//! `compress_view_timed` — for the `sz` variants a second `<name>@64x64`
//! row sums the same layers over the field's 64 × 64 tiles, one stream
//! each, with `tile_fixed_cost_us` = (tiles − whole) ÷ tile count, the cost
//! of a stream before its first cell, and on the `sz-rans8` row
//! `tile_table_bytes_frac`, the share of those streams' bytes that is rANS
//! frequency table; and `rans8_huffman_fallback`, how many of the
//! stage's `*-rans8` streams overflowed the 12-bit rANS table and carry
//! Huffman-mode codes instead.
//!
//! The `stats` stage also writes `variogram_pairs`, `variogram_ns_per_pair`
//! (width 1; the pair kernel on an L1-resident row runs 0.17 ns/pair on the
//! dev box) and `variogram_parallel_eff` (width `--threads` over
//! `--threads` × width 1, `variogram_threads` beside it) for the global
//! variogram of the paper-scale field.
//!
//! A run with both stages (the default) also reports
//! `predictor_cost_over_codec_cost`: `correlation_statistics_compute`
//! seconds over `compress_sz` seconds on the same field.

use lcc_bench::report::{write_json, CodecThroughput, EncodeLayers, SweepReport, VariogramCost};
use lcc_bench::CliOptions;
use lcc_core::registry::entropy_ablation_registry;
use lcc_core::statistics::{CorrelationStatistics, StatisticsConfig};
use lcc_geostat::{
    empirical_variogram_view, estimate_range_pooled, estimate_range_view, local_range_std_view,
    local_svd_truncation_std_view, LocalStatConfig, VariogramConfig,
};
use lcc_grid::{Field2D, Window, WindowIter};
use lcc_lossless::{rans8_stream_info, simd_level, Rans8StreamInfo};
use lcc_mgard::{MgardCompressor, MgardScratch};
use lcc_par::ThreadPoolConfig;
use lcc_pressio::{codes, Compressor, ErrorBound, ScratchArena};
use lcc_synth::{generate_single_range, GaussianFieldConfig};
use lcc_sz::{SzCompressor, SzScratch};
use std::time::Instant;

/// Timed repetitions behind each layer's min and median.
const LAYER_REPS: usize = 5;

/// Tile side of the per-tile `encode_layers` rows: the archive's tile.
const LAYER_TILE: usize = 64;

/// Name of the `encode_layers` row that sums `compressor`'s layers over tiles.
fn tile_row(compressor: &str) -> String {
    format!("{compressor}@{LAYER_TILE}x{LAYER_TILE}")
}

/// Mode byte of a rANS section whose alphabet overflowed the 12-bit
/// frequency table: the codes that follow are a Huffman stream.
const RANS_MODE_HUFFMAN: u8 = 1;

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

/// `LAYER_REPS` timed compress calls: `samples[r][k]` is the seconds
/// repetition `r` spent in encode layer `k`.
fn layer_samples(
    mut timed_compress: impl FnMut() -> Result<[f64; 5], lcc_pressio::CompressError>,
) -> Vec<Vec<f64>> {
    (0..LAYER_REPS).map(|_| timed_compress().expect("bench compressor succeeds").to_vec()).collect()
}

/// The global variogram of `field` at width 1 and on `pool` (best of three
/// each), and the pairs it sums.
fn variogram_cost(field: &Field2D, pool: ThreadPoolConfig) -> VariogramCost {
    let (view, config) = (field.view(), VariogramConfig::default());
    let best_of_three = |width: ThreadPoolConfig| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(estimate_range_pooled(&view, &config, width));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    };
    VariogramCost {
        pairs: empirical_variogram_view(&view, &config).counts.iter().sum(),
        serial_seconds: best_of_three(ThreadPoolConfig::with_threads(1)),
        pooled_seconds: best_of_three(pool),
        threads: pool.threads(),
    }
}

/// Valid `--stage` names; `all` (the default) runs both stages in order.
const STAGES: [&str; 3] = ["all", "stats", "codecs"];

fn main() {
    let opts = CliOptions::from_env(&["size", "seed", "threads", "stage", "reps", "out"], &[]);
    let size = opts.get_count("size", 1028);
    let seed = opts.get_u64("seed", 7);
    let threads = opts.get_usize("threads", 0);
    let stage = opts.get_str("stage", "all");
    if !STAGES.contains(&stage.as_str()) {
        eprintln!("bench_sweep: unknown --stage {stage:?} (expected one of {STAGES:?})");
        std::process::exit(2);
    }
    let run = |name: &str| stage == "all" || stage == name;
    let pool = if threads > 0 {
        ThreadPoolConfig::with_threads(threads)
    } else {
        ThreadPoolConfig::auto()
    };
    let out_dir = opts.output_dir();

    let level = simd_level();
    let mut report = SweepReport {
        label: format!("{size}x{size}"),
        simd_level: level.label().to_string(),
        ..SweepReport::default()
    };
    let field = report.time("generate_field", || {
        generate_single_range(&GaussianFieldConfig::new(size, size, 16.0, seed))
    });

    // Stage 1: paper-scale single-field statistics, one stage per estimator
    // plus the bundled computation the sweep scheduler amortizes.
    let mut stats_lines = None;
    if run("stats") {
        let global = report.time("global_variogram_range", || {
            estimate_range_view(&field.view(), &VariogramConfig::default())
        });
        report.variogram_cost = Some(variogram_cost(&field, pool));
        let range_spread = report.time("local_variogram_range_std", || {
            local_range_std_view(&field.view(), &LocalStatConfig::default())
        });
        let svd_spread = report.time("local_svd_truncation_std", || {
            local_svd_truncation_std_view(&field.view(), 32, 0.99, None)
        });
        report.time("correlation_statistics_compute", || {
            CorrelationStatistics::compute_view(&field.view(), &StatisticsConfig::default())
        });
        stats_lines = Some((global, range_spread, svd_spread));
    }

    // Stage 2: per-compressor codec throughput on the full-size field at
    // the paper's mid-grid bound, recorded both as `compress_<name>` stages
    // and as MB/s + ratio throughput entries. The registry is the entropy
    // ablation: every study compressor next to its rans8-backend variant, so
    // the Huffman-vs-rans8 ratio/throughput tradeoff lands in the same
    // report. Best of `--reps` runs (default 3) so single-shot scheduler
    // noise doesn't pollute the perf trajectory; the compressors run
    // through a reused ScratchArena exactly like a sweep worker.
    let reps = opts.get_count("reps", 3);
    let registry = entropy_ablation_registry();
    let bound = ErrorBound::Absolute(1e-3);
    if run("codecs") {
        let uncompressed_bytes = (field.len() * std::mem::size_of::<f64>()) as f64;
        let mut arena = ScratchArena::new();
        let mut recon = Field2D::zeros(1, 1);
        let (mut rans8_streams, mut rans8_fallback) = (0usize, 0usize);
        for compressor in registry.compressors() {
            let name = compressor.name().to_string();
            let mut compress_seconds = f64::MAX;
            let mut decompress_seconds = f64::MAX;
            let mut stream_len = 0usize;
            for rep in 0..reps {
                let start = Instant::now();
                let stream = compressor
                    .compress_view_with(&field.view(), bound, &mut arena)
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
            report.stages.push((format!("compress_{name}"), compress_seconds));
            report.stages.push((format!("decompress_{name}"), decompress_seconds));
            report.throughput.push(CodecThroughput {
                compressor: name,
                megabytes: uncompressed_bytes / 1e6,
                compress_seconds,
                decompress_seconds,
                compression_ratio: uncompressed_bytes / stream_len.max(1) as f64,
            });
        }
        report.rans8_fallback = Some((rans8_streams, rans8_fallback));

        // Where an SZ or MGARD compress call's time goes: seconds per encode
        // layer from `compress_view_timed` (the compress path itself, min
        // and median of `LAYER_REPS`), so the compress ÷ decompress gap of
        // the rows above has an owner.
        // Each `sz` variant gets a second row: the same layers summed over
        // the field's archive tiles, one stream each, and from the two rows
        // what a stream costs before its first cell.
        let view = field.view();
        let tiles: Vec<Window> =
            WindowIter::over(field.ny(), field.nx(), LAYER_TILE, LAYER_TILE).collect();
        for sz in [SzCompressor::default(), SzCompressor::rans8()] {
            let mut scratch = SzScratch::default();
            let samples = layer_samples(|| {
                sz.compress_view_timed(&view, bound, &mut scratch).map(|(_, seconds)| seconds)
            });
            let whole =
                EncodeLayers::from_samples(sz.name(), &SzCompressor::ENCODE_LAYERS, &samples);
            let samples = layer_samples(|| {
                let mut sum = [0.0; 5];
                for tile in &tiles {
                    let (_, seconds) =
                        sz.compress_view_timed(&view.window(tile), bound, &mut scratch)?;
                    sum.iter_mut().zip(seconds).for_each(|(total, s)| *total += s);
                }
                Ok(sum)
            });
            let mut tiled = EncodeLayers::from_samples(
                tile_row(sz.name()),
                &SzCompressor::ENCODE_LAYERS,
                &samples,
            );
            tiled.tile_fixed_cost_us = Some(
                (tiled.min_total_seconds() - whole.min_total_seconds()) * 1e6 / tiles.len() as f64,
            );
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
            if stream_bytes > 0 {
                tiled.tile_table_bytes_frac = Some(table_bytes as f64 / stream_bytes as f64);
            }
            report.encode_layers.push(whole);
            report.encode_layers.push(tiled);
        }
        for mgard in [MgardCompressor::default(), MgardCompressor::rans8()] {
            let mut scratch = MgardScratch::default();
            let samples = layer_samples(|| {
                mgard.compress_view_timed(&view, bound, &mut scratch).map(|(_, seconds)| seconds)
            });
            report.encode_layers.push(EncodeLayers::from_samples(
                mgard.name(),
                &MgardCompressor::ENCODE_LAYERS,
                &samples,
            ));
        }
    }

    println!(
        "bench_sweep: {size}x{size} field, pool: {} threads, simd: {}, stage: {stage}",
        pool.threads(),
        level.label()
    );
    if let Some((global, range_spread, svd_spread)) = stats_lines {
        println!("  global variogram range: {:.3} (sill {:.3})", global.range, global.sill);
        println!("  local range std: {range_spread:.4}   local svd std: {svd_spread:.4}");
    }
    if let Some(cost) = report.variogram_cost {
        println!(
            "  global variogram: {} pairs, {:.3} ns/pair at one thread, parallel efficiency {:.2} at {}",
            cost.pairs,
            cost.ns_per_pair(),
            cost.parallel_eff(),
            cost.threads
        );
    }
    for e in &report.encode_layers {
        let layers: Vec<String> =
            e.layers.iter().map(|(layer, min, _)| format!("{layer} {:.2}", min * 1e3)).collect();
        let fixed = e
            .tile_fixed_cost_us
            .map_or(String::new(), |us| format!(" · per-tile fixed cost {us:.1} us"));
        let table = e.tile_table_bytes_frac.map_or(String::new(), |frac| {
            format!(" · frequency tables {:.1} % of the bytes", frac * 100.0)
        });
        println!(
            "  {} encode layers (ms, min of {LAYER_REPS}): {}{fixed}{table}",
            e.compressor,
            layers.join(" · ")
        );
    }
    if let Some((streams, fallback)) = report.rans8_fallback {
        println!("  rans8 streams coded in Huffman-fallback mode: {fallback} of {streams}");
    }
    if let Some(ratio) = report.predictor_cost_over_codec_cost() {
        println!("  predictor cost / codec cost (statistics ÷ sz compress): {ratio:.2}x");
    }
    for t in &report.throughput {
        println!(
            "  {}: compress {:.2} MB/s   decompress {:.2} MB/s   ratio {:.2}x",
            t.compressor,
            t.compress_mb_per_s(),
            t.decompress_mb_per_s(),
            t.compression_ratio
        );
    }
    println!("  total: {:.3}s", report.total_seconds());

    let path = out_dir.join("BENCH_sweep.json");
    let json = report.to_json();
    write_json(&path, &json).expect("write BENCH_sweep.json");
    println!("wrote {}", path.display());
    println!("{json}");
}
