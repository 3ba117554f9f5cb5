//! Concurrency identity: four workers, each reusing its own scratch, serve
//! a fixed request list over all 13 variants through
//! `lcc_par::run_bounded_queue`, and every answer must equal the
//! single-threaded, fresh-scratch reference — the round trips' streams and
//! reconstructions, and the region reads' windows of a full-entry decode.
//! A scratch that leaks state from one request into the next, or a cache
//! that serves another tile's values, fails here.

#[path = "common/serving.rs"]
mod serving;

use lcc_par::{run_bounded_queue, ThreadPoolConfig};
use serving::{Load, Scratch, WORKERS};

const REQUESTS: usize = 360;

#[derive(Default)]
struct Worker {
    scratch: Scratch,
    served: usize,
    failures: Vec<String>,
}

#[test]
fn concurrent_mixed_codec_traffic_reproduces_the_single_threaded_bytes() {
    let load = Load::build(false, |bytes| bytes);
    let requests = load.requests(REQUESTS);
    let mut workers: Vec<Worker> = (0..WORKERS).map(|_| Worker::default()).collect();
    let report = run_bounded_queue(
        ThreadPoolConfig::with_threads(WORKERS),
        &mut workers,
        WORKERS * 4,
        |queue| requests.iter().for_each(|&request| queue.push(request).expect("queue open")),
        |worker, _, request| {
            let outcome = load.serve(&mut worker.scratch, &request, None, |_| ());
            worker.served += 1;
            if !matches!(outcome, Ok(true)) {
                worker.failures.push(format!("{request:?}: {outcome:?}"));
            }
        },
    );

    assert_eq!(report.job_panics, 0, "{:?}", report.first_panic);
    let failures: Vec<&String> = workers.iter().flat_map(|w| &w.failures).collect();
    assert!(
        failures.is_empty(),
        "{} requests differ from the reference: {failures:#?}",
        failures.len()
    );
    assert_eq!(workers.iter().map(|w| w.served).sum::<usize>(), REQUESTS);
    let cache = load.cache.stats();
    assert!(cache.hits > 0 && cache.misses > 0, "{cache:?}");
}
