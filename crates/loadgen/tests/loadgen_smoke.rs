//! Default-suite load-generator smoke test: a short concurrent run over all
//! 18 registry variants must complete with zero errors — which, by the
//! harness's verification design, proves every round trip produced a stream
//! and a reconstruction byte-identical to the single-threaded reference
//! even under concurrent mixed-codec traffic, and every region read decoded
//! its window bit-identically to a full-frame decode.

use lcc_loadgen::{run_load, LoadgenConfig};
use std::time::Duration;

fn smoke_config() -> LoadgenConfig {
    LoadgenConfig {
        workers: 4,
        // Keep the timed phase short; min_requests guarantees coverage.
        duration: Duration::from_millis(200),
        seed: 7,
        sizes: vec![48, 64],
        min_requests: 60,
        warmup_requests: 2,
        // A small archive keeps reference setup fast while still tiling.
        archive_size: 128,
        archive_tile: 32,
        ..LoadgenConfig::default()
    }
}

#[test]
fn concurrent_mixed_codec_run_is_error_free_and_covers_every_variant() {
    let report = run_load(&smoke_config()).expect("reference setup succeeds");

    assert_eq!(
        report.total_errors(),
        0,
        "a non-zero error count means a round trip was not byte-identical \
         to the single-threaded reference under concurrency"
    );
    assert_eq!(
        report.variants.len(),
        18,
        "5 codecs × {{single, framed, framed+ck}} + 3 region readers"
    );
    assert!(report.total_requests() >= 60);
    assert_eq!(report.workers, 4);
    assert!(report.duration_seconds > 0.0);

    for v in &report.variants {
        assert!(v.requests >= 1, "variant {} never served a request", v.variant);
        assert!(v.megabytes > 0.0, "variant {} recorded no payload volume", v.variant);
        assert!(v.busy_seconds > 0.0);
        if v.variant.starts_with("region_") {
            // Region rows measure seek-and-decode latency, not a compress
            // round trip — no ratio, but every request touched tiles.
            assert!(v.tiles > 0, "region variant {} touched no tiles", v.variant);
            assert!(v.tiles_from_cache <= v.tiles);
        } else {
            assert!(v.compression_ratio > 1.0, "variant {} ratio not > 1", v.variant);
            assert_eq!(v.tiles, 0, "round-trip variant {} reported tiles", v.variant);
        }
        assert!(v.mb_per_s_per_core() > 0.0);
        // Quantiles are ordered and bounded by the exact max.
        let p50 = v.latency.quantile_ns(0.50);
        let p99 = v.latency.quantile_ns(0.99);
        assert!(p50 <= p99, "variant {}: p50 {} > p99 {}", v.variant, p50, p99);
        assert!(p99 <= v.latency.max_ns().max(p99));
        assert_eq!(v.latency.count(), v.requests);
    }

    let cache = report.tile_cache.as_ref().expect("region runs carry a tile-cache summary");
    assert!(cache.hits + cache.misses > 0, "region reads must exercise the cache");
    assert!(cache.bytes <= cache.budget_bytes + 1_000_000, "cache stayed near budget");

    // The report serializes with every column the CI table renders.
    let json = report.to_json();
    for needle in [
        "\"bench\": \"load\"",
        "\"variant\": \"sz\"",
        "\"variant\": \"sz+framed\"",
        "\"variant\": \"zfp+framed\"",
        "\"variant\": \"sz-rans8\"",
        "\"variant\": \"mgard-rans8+framed+ck\"",
        "\"variant\": \"region_sz-rans8\"",
        "\"variant\": \"region_zfp\"",
        "\"variant\": \"region_mgard-rans8\"",
        "\"tile_cache\"",
        "\"hit_rate\"",
        "\"tiles_from_cache\"",
        "\"p50_us\"",
        "\"p99_us\"",
        "\"mb_per_s_per_core\"",
        "\"total_errors\": 0",
    ] {
        assert!(json.contains(needle), "BENCH_load.json missing {needle}");
    }
}

#[test]
fn single_worker_run_matches_the_same_schedule() {
    // One worker exercises the inline (non-spawning) queue path end to end.
    let config = LoadgenConfig {
        workers: 1,
        duration: Duration::from_millis(50),
        min_requests: 30,
        sizes: vec![32],
        archive_size: 96,
        archive_tile: 32,
        ..LoadgenConfig::default()
    };
    let report = run_load(&config).expect("setup succeeds");
    assert_eq!(report.total_errors(), 0);
    assert_eq!(report.workers, 1);
    assert!(report.variants.iter().all(|v| v.requests >= 1));
}

#[test]
fn regions_only_run_serves_just_the_region_band_with_cache_hits() {
    // The CI region smoke mode: only the three region variants, long enough
    // past the round-robin that the Zipf head re-reads cached tiles.
    let config = LoadgenConfig {
        workers: 2,
        duration: Duration::from_millis(150),
        seed: 11,
        min_requests: 60,
        regions_only: true,
        archive_size: 128,
        archive_tile: 32,
        ..LoadgenConfig::default()
    };
    let report = run_load(&config).expect("setup succeeds");
    assert_eq!(report.total_errors(), 0, "every region read must match the full decode");
    assert_eq!(report.variants.len(), 3);
    assert!(report.variants.iter().all(|v| v.variant.starts_with("region_")));
    assert!(report.variants.iter().all(|v| v.requests >= 1 && v.tiles > 0));
    let cache = report.tile_cache.as_ref().expect("tile-cache summary present");
    assert!(cache.hits > 0, "a Zipf-skewed 60+ request run must hit the cache");
}
