//! Default-suite load-generator smoke test: a short concurrent run over all
//! 18 registry variants must complete with zero errors — which, by the
//! harness's verification design, proves every round trip produced a stream
//! and a reconstruction byte-identical to the single-threaded reference
//! even under concurrent mixed-codec traffic, and every region read decoded
//! its window bit-identically to a full-frame decode.

use lcc_loadgen::{run_load, LoadgenConfig};
use std::time::Duration;

#[test]
fn concurrent_mixed_codec_run_is_error_free_and_covers_every_variant() {
    let config = LoadgenConfig {
        workers: 4,
        // Keep the timed phase short; min_requests guarantees coverage, and
        // enough traffic past the round-robin that the Zipf head re-reads
        // cached tiles.
        duration: Duration::from_millis(200),
        seed: 7,
        min_requests: 360,
        ..LoadgenConfig::default()
    };
    let report = run_load(&config).expect("reference setup succeeds");

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
    assert!(report.total_requests() >= 360);
    assert_eq!(report.workers, 4);
    assert!(report.duration_seconds > 0.0);

    for v in &report.variants {
        assert!(v.requests >= 1, "variant {} never served a request", v.variant);
        if v.variant.starts_with("region_") {
            assert!(v.tiles > 0, "region variant {} touched no tiles", v.variant);
            assert!(v.tiles_from_cache <= v.tiles);
        } else {
            assert_eq!(v.tiles, 0, "round-trip variant {} reported tiles", v.variant);
        }
    }
    assert_eq!(report.variants.iter().filter(|v| v.variant.starts_with("region_")).count(), 3);

    let cache = &report.tile_cache;
    assert!(cache.hits > 0, "a Zipf-skewed run of 60 region reads must hit the cache");
    assert_eq!(
        cache.hits + cache.misses,
        report.variants.iter().map(|v| v.tiles).sum::<u64>(),
        "every tile a region read touched was one cache lookup"
    );
    assert_eq!(cache.hits, report.variants.iter().map(|v| v.tiles_from_cache).sum::<u64>());

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
        "\"tile_cache\": {\"hits\"",
        "\"tiles_from_cache\"",
        "\"chaos\": null",
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
        ..LoadgenConfig::default()
    };
    let report = run_load(&config).expect("setup succeeds");
    assert_eq!(report.total_errors(), 0);
    assert_eq!(report.workers, 1);
    assert!(report.variants.iter().all(|v| v.requests >= 1));
}
