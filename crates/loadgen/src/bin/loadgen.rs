//! Serving-grade load harness over the full entropy-ablation registry —
//! writes `BENCH_load.json` next to `BENCH_sweep.json`.
//!
//! ```text
//! cargo run --release -p lcc_loadgen --bin loadgen -- \
//!     --duration-ms 2000 --workers 4 --sizes 64,96,128 --out target/bench
//! ```
//!
//! Drives N concurrent workers through all 18 registry variants (5 codecs ×
//! {single-stream, framed, framed+checksummed} plus the three archive
//! region-read variants) with a seeded deterministic request mix, prints a
//! per-variant p50/p99/MB-per-core table and the decoded-tile-cache summary,
//! and exits non-zero when any round trip failed verification — the CI smoke
//! contract. `--regions-only` serves just the region band (the CI region
//! smoke mode); `--archive-size`, `--archive-tile` and `--tile-cache-mb`
//! shape the region workload. `--chaos <rate>` arms the deterministic fault
//! injector: the given fraction of reads/streams is corrupted (bit flips,
//! truncations, failed reads, stalls) plus a proportional dose of worker
//! panics, and the exit contract flips from "no errors" to "every injected
//! fault accounted for" — injected faults are *supposed* to surface as
//! detected or recovered errors. Build with
//! `--features loadgen-alloc` to also report steady-state allocations per
//! request (the binary then runs under a counting global allocator).

use lcc_bench::CliOptions;
use lcc_loadgen::{run_load, LoadgenConfig};
use std::path::PathBuf;
use std::time::Duration;

#[cfg(feature = "loadgen-alloc")]
#[global_allocator]
static ALLOC: lcc_loadgen::alloc_count::CountingAllocator =
    lcc_loadgen::alloc_count::CountingAllocator;

fn main() {
    let opts = CliOptions::from_env(
        &[
            "workers",
            "duration-ms",
            "seed",
            "queue-capacity",
            "framed-blocks",
            "bound",
            "sizes",
            "out",
            "archive-size",
            "archive-tile",
            "tile-cache-mb",
            "chaos",
        ],
        &["regions-only"],
    );
    let workers = opts.get_usize("workers", 4);
    let duration_ms = opts.get_u64("duration-ms", 2000);
    let seed = opts.get_u64("seed", 42);
    let queue_capacity = opts.get_usize("queue-capacity", 0);
    let framed_blocks = opts.get_usize("framed-blocks", 4);
    let bound = opts.get_f64("bound", 1e-3);
    let sizes: Vec<usize> = opts
        .get_str("sizes", "64,96,128")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&s| s >= 8)
        .collect();
    let out_dir = PathBuf::from(opts.get_str("out", "target/bench"));
    let archive_size = opts.get_usize("archive-size", 256);
    let archive_tile = opts.get_usize("archive-tile", 64);
    let tile_cache_mb = opts.get_usize("tile-cache-mb", 8);
    let regions_only = opts.flag("regions-only");
    let chaos_rate = opts.get_f64("chaos", 0.0).clamp(0.0, 1.0);

    let mut config = LoadgenConfig {
        workers,
        duration: Duration::from_millis(duration_ms),
        seed,
        queue_capacity,
        bound,
        framed_blocks,
        archive_size,
        archive_tile,
        tile_cache_mb,
        regions_only,
        chaos_rate,
        ..LoadgenConfig::default()
    };
    if !sizes.is_empty() {
        config.sizes = sizes;
    }
    // Guarantee at least two full round-robins over the variant table (18
    // rows, or just the 3 region rows under --regions-only) so even a
    // near-zero duration produces a row (with a warmup-free histogram) for
    // every variant.
    config.min_requests = if regions_only { 6 } else { 60 };

    let report = match run_load(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: reference setup failed: {e}");
            std::process::exit(2);
        }
    };

    println!("loadgen: {}", report.label);
    println!(
        "  {:<20} {:>9} {:>7} {:>10} {:>10} {:>10} {:>12}",
        "variant", "requests", "errors", "p50 us", "p99 us", "max us", "MB/s/core"
    );
    for v in &report.variants {
        println!(
            "  {:<20} {:>9} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>12.2}",
            v.variant,
            v.requests,
            v.errors,
            v.latency.quantile_us(0.50),
            v.latency.quantile_us(0.99),
            v.latency.max_ns() as f64 / 1e3,
            v.mb_per_s_per_core(),
        );
    }
    println!(
        "  total: {} requests, {} errors, {:.2} MB in {:.3}s — {:.2} MB/s ({:.2} MB/s per core)",
        report.total_requests(),
        report.total_errors(),
        report.total_megabytes(),
        report.duration_seconds,
        report.mb_per_s(),
        report.mb_per_s_per_core(),
    );
    if let Some(cache) = &report.tile_cache {
        println!(
            "  tile cache: {:.1}% hit rate ({} hits, {} misses, {} evictions, {} refusals), \
             {}/{} bytes resident — hits {:.2} MB/s vs misses {:.2} MB/s",
            cache.hit_rate() * 100.0,
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.refusals,
            cache.bytes,
            cache.budget_bytes,
            cache.hit_mb_per_s(),
            cache.miss_mb_per_s(),
        );
    }
    if let Some(chaos) = &report.chaos {
        println!(
            "  chaos: rate {:.4} seed {} — {} faults injected ({} detected, {} recovered, \
             {} timed out), {}/{} panics absorbed, {} unexplained errors",
            chaos.rate,
            chaos.seed,
            chaos.injected,
            chaos.detected,
            chaos.recovered,
            chaos.timeouts,
            chaos.panics_absorbed,
            chaos.panics_injected,
            chaos.unexplained_errors,
        );
    }
    match report.allocs_per_request {
        Some(a) => println!("  steady-state allocations per request: {a:.2}"),
        None => println!(
            "  steady-state allocations: not tracked (build with --features loadgen-alloc)"
        ),
    }

    let path = out_dir.join("BENCH_load.json");
    report.write(&path).expect("write BENCH_load.json");
    println!("wrote {}", path.display());

    // Exit contract. Without chaos any error is a real verification failure.
    // With chaos armed, injected faults are *supposed* to produce errors; the
    // bar instead is that every one of them is accounted for (detected or
    // recovered, panics absorbed per-job) and nothing failed for a reason we
    // did not inject.
    match &report.chaos {
        None => {
            if report.total_errors() > 0 {
                eprintln!(
                    "loadgen: {} round trip(s) failed verification under concurrent traffic",
                    report.total_errors()
                );
                std::process::exit(1);
            }
        }
        Some(chaos) => {
            if !chaos.is_accounted() {
                eprintln!(
                    "loadgen: chaos accounting broken — injected {} != detected {} + \
                     recovered {}, or panics {}/{} mismatched, or {} unexplained error(s)",
                    chaos.injected,
                    chaos.detected,
                    chaos.recovered,
                    chaos.panics_absorbed,
                    chaos.panics_injected,
                    chaos.unexplained_errors,
                );
                std::process::exit(1);
            }
        }
    }
}
