//! Concurrency-identity and chaos harness over the full entropy-ablation
//! registry — writes `BENCH_load.json`.
//!
//! ```text
//! cargo run --release -p lcc_loadgen --bin loadgen -- \
//!     --duration-ms 2000 --workers 4 --out target/bench
//! ```
//!
//! Drives N concurrent workers through all 18 registry variants (5 codecs ×
//! {single-stream, framed, framed+checksummed} plus the three archive
//! region-read variants) with a seeded deterministic request mix, verifies
//! every stream and reconstruction against a single-threaded reference,
//! prints the per-variant counts and the decoded-tile cache's counters, and
//! exits non-zero when any round trip failed verification — the CI smoke
//! contract. `--chaos <rate>` arms the deterministic fault
//! injector: the given fraction of reads/streams is corrupted (bit flips,
//! truncations, failed reads, stalls) plus a proportional dose of worker
//! panics, and the exit contract flips from "no errors" to "every injected
//! fault accounted for" — injected faults are *supposed* to surface as
//! detected or recovered errors.

use lcc_bench::report::write_json;
use lcc_bench::CliOptions;
use lcc_loadgen::{parse_chaos_rate, run_load, LoadgenConfig};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let opts = CliOptions::from_env(&["workers", "duration-ms", "seed", "out", "chaos"], &[]);
    let chaos_rate = parse_chaos_rate(&opts.get_str("chaos", "0")).unwrap_or_else(|message| {
        eprintln!("loadgen: {message}");
        std::process::exit(64)
    });
    let config = LoadgenConfig {
        workers: opts.get_usize("workers", 4),
        duration: Duration::from_millis(opts.get_u64("duration-ms", 2000)),
        seed: opts.get_u64("seed", 42),
        // At least three full round-robins over the 18-row variant table, so
        // even a near-zero duration produces a row for every variant.
        min_requests: 60,
        chaos_rate,
    };
    let out_dir = PathBuf::from(opts.get_str("out", "target/bench"));

    let report = match run_load(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: reference setup failed: {e}");
            std::process::exit(2);
        }
    };

    println!("loadgen: {}", report.label);
    println!(
        "  {:<22} {:>9} {:>7} {:>9} {:>11}",
        "variant", "requests", "errors", "tiles", "from cache"
    );
    for v in &report.variants {
        println!(
            "  {:<22} {:>9} {:>7} {:>9} {:>11}",
            v.variant, v.requests, v.errors, v.tiles, v.tiles_from_cache
        );
    }
    println!(
        "  total: {} requests, {} errors in {:.3}s",
        report.total_requests(),
        report.total_errors(),
        report.duration_seconds,
    );
    let cache = &report.tile_cache;
    println!(
        "  tile cache: {} hits, {} misses, {} evictions, {} refusals, {} integrity failures, \
         {} tiles / {} bytes resident",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.refusals,
        cache.integrity_failures,
        cache.entries,
        cache.bytes,
    );
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

    let path = out_dir.join("BENCH_load.json");
    write_json(&path, &report.to_json()).expect("write BENCH_load.json");
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
