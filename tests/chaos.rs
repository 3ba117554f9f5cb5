//! Chaos accounting: the concurrency-identity set-up with a seeded fault
//! plan armed. Round trips have their streams damaged between encode and
//! decode; the archive's reads flip bits, zero tails, fail, or stall past
//! the region read's deadline; some jobs panic. Every injected fault must
//! surface as an error, a mismatch or a timeout (detected) or be healed by
//! the tile retry or the verifying cache (recovered), every absorbed panic
//! must be an injected one, and no request may fail with nothing injected.

#[path = "common/fault.rs"]
mod fault;
#[path = "common/serving.rs"]
mod serving;

use fault::{take_thread_injections, FaultPlan, FaultyReadAt, CHAOS_PANIC_TAG};
use lcc_par::{run_bounded_queue, ThreadPoolConfig};
use lcc_pressio::CompressError;
use serving::{Load, Scratch, SEED, WORKERS};
use std::sync::Arc;
use std::time::Duration;

const REQUESTS: usize = 900;
/// Probability that a stream or an archive read draws a fault.
const RATE: f64 = 0.3;
const PANIC_RATE: f64 = 0.02;
/// Region reads' deadline. A clean read takes well under a millisecond; an
/// injected stall sleeps twice this.
const DEADLINE: Duration = Duration::from_millis(100);

/// Where one worker's share of the injected faults surfaced.
#[derive(Default)]
struct Ledger {
    detected: u64,
    recovered: u64,
    /// Of `detected`, faults charged to a request that timed out.
    timeouts: u64,
    /// Requests that failed with nothing injected into them.
    unexplained: u64,
}

impl Ledger {
    fn settle(&mut self, injections: u64, verified: bool, timed_out: bool) {
        if verified {
            self.recovered += injections;
        } else if injections > 0 {
            self.detected += injections;
            if timed_out {
                self.timeouts += injections;
            }
        } else {
            self.unexplained += 1;
        }
    }
}

#[derive(Default)]
struct Worker {
    scratch: Scratch,
    ledger: Ledger,
}

#[test]
fn every_injected_fault_is_detected_or_recovered() {
    let plan = Arc::new(FaultPlan::new(SEED, RATE, PANIC_RATE, DEADLINE * 2));
    let load = Load::build(true, |bytes| FaultyReadAt::new(bytes, Arc::clone(&plan)));
    let requests = load.requests(REQUESTS);
    let mut workers: Vec<Worker> = (0..WORKERS).map(|_| Worker::default()).collect();
    plan.arm();
    let report = run_bounded_queue(
        ThreadPoolConfig::with_threads(WORKERS),
        &mut workers,
        WORKERS * 4,
        |queue| requests.iter().for_each(|&request| queue.push(request).expect("queue open")),
        |worker, _, request| {
            // Before any fault site, so a panicked job carries no faults.
            plan.maybe_panic(request.id);
            let outcome = load.serve(&mut worker.scratch, &request, Some(DEADLINE), |stream| {
                plan.corrupt_stream(request.id, stream)
            });
            let timed_out = matches!(outcome, Err(CompressError::DeadlineExceeded(_)));
            worker.ledger.settle(take_thread_injections(), matches!(outcome, Ok(true)), timed_out);
        },
    );

    let mut sum = Ledger::default();
    for ledger in workers.iter().map(|w| &w.ledger) {
        sum.detected += ledger.detected;
        sum.recovered += ledger.recovered;
        sum.timeouts += ledger.timeouts;
        sum.unexplained += ledger.unexplained;
    }
    let (injected, detected, recovered) = (plan.injected(), sum.detected, sum.recovered);
    assert_eq!(injected, detected + recovered, "injected != detected + recovered");
    assert_eq!(sum.unexplained, 0, "requests failed with nothing injected");
    assert!(plan.injected_panics() > 0);
    assert_eq!(report.job_panics, plan.injected_panics(), "{:?}", report.first_panic);
    let first_panic = report.first_panic.unwrap_or_default();
    assert!(first_panic.contains(CHAOS_PANIC_TAG), "{first_panic}");
    // Every path the ledger claims ran: stalls timed out, retries healed.
    assert!(sum.timeouts > 0, "no stall reached a deadline");
    assert!(recovered > 0, "no fault was healed");
    assert!(load.cache.stats().hits > 0, "the verifying cache served no hit");
}
