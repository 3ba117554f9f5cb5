//! # lcc-par — scoped-thread parallelism helpers
//!
//! The experiments in this repository are embarrassingly parallel: the same
//! statistic or compressor runs over many independent fields, windows, or
//! (compressor, error bound) cells. This crate provides a tiny, dependency-
//! light data-parallel layer used everywhere a sweep fans out:
//!
//! * [`parallel_map_with`] — order-preserving, stateless parallel map over a
//!   slice; a panicking job is re-raised on the calling thread,
//! * [`try_parallel_map_with_state`] — the same map with a mutable state
//!   built once per worker, the first panicking job returned as a value,
//! * [`try_parallel_block_map`] — a map over owned items whose worker states
//!   the caller keeps across calls,
//! * [`ThreadPoolConfig`] — chooses the worker count (defaults to the number
//!   of available CPUs, overridable with the `LCC_THREADS` environment
//!   variable so benches can pin a thread count),
//! * [`queue`] — a bounded work queue plus [`run_bounded_queue`] for
//!   sustained submission under backpressure (the load-generator shape, as
//!   opposed to the one-shot maps above).
//!
//! Work distribution uses an atomic cursor over the input (a simple
//! self-scheduling loop). For the coarse-grained tasks in this study the
//! per-item cost dwarfs the cost of one `fetch_add`, so this performs within
//! noise of a work-stealing deque while staying trivially correct; the
//! threads themselves come from [`std::thread::scope`], so borrowed inputs
//! need no `'static` bound and no `Arc` cloning.
//!
//! **The caller is a worker.** A pool of width `T` is the calling thread
//! plus `T − 1` scoped threads: the caller claims items from the same cursor
//! while the others start, instead of parking behind `T` fresh spawns, so a
//! map over a handful of millisecond-sized items (the tiles of one archive
//! entry) does not pay a spawn it has a thread for already. Per-worker state
//! and panic isolation are the same on the calling thread as on the others.
//!
//! There is no cancellation handle: a claimed item runs to completion. A
//! caller that needs a deadline checks a plain `Instant` inside its own job
//! body, as the archive's region read does at tile granularity.
//!
//! ## Panic isolation
//!
//! Every job body run by the helpers here is wrapped in
//! [`std::panic::catch_unwind`]: a panicking job never takes down its worker
//! thread, the pool, or sibling jobs. The fallible entry points
//! ([`try_parallel_map_with_state`], [`try_parallel_block_map`]) surface the
//! *first* panic as a [`JobPanicked`] value (first-error-wins, matching the
//! framed codec's `FrameAssembler` contract) and stop siblings from claiming
//! further items; [`parallel_map_with`] re-raises that first panic on the
//! *calling* thread after every worker has exited cleanly.
//! [`queue::run_bounded_queue`] instead absorbs panics per job — the job is
//! dropped, a counter ticks, and the worker keeps serving — because a
//! sustained serving loop must outlive any single bad request.
//!
//! ## Mutex-poisoning policy (workspace-wide)
//!
//! Every `std::sync::Mutex` in this workspace recovers from poisoning with
//! `unwrap_or_else(PoisonError::into_inner)` instead of unwrapping, and this
//! crate is the reference for that idiom (see [`queue::BoundedQueue`]).
//! Rationale: panics inside parallel jobs are already isolated per job (see
//! above), and every guarded structure here — queue state, frame assemblers,
//! cache shards — is updated in a single critical section that leaves either
//! the pre- or post-update state, never a torn one. Poisoning therefore
//! carries no information beyond "some job panicked", which is already
//! reported through [`JobPanicked`]; propagating it would only cascade one
//! failed job into unrelated lock sites.

pub mod queue;

pub use queue::{run_bounded_queue, BoundedQueue, QueueRunReport};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Lock `mutex` under the poisoning policy of the module docs.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A job inside one of the parallel helpers panicked.
///
/// Carries the index of the offending work item plus the stringified panic
/// payload. Callers at the codec/archive layer convert this into their own
/// error taxonomy (`CompressError::Internal`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanicked {
    /// Index of the work item whose closure panicked.
    pub job: usize,
    /// Stringified panic payload.
    pub message: String,
}

impl std::fmt::Display for JobPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for JobPanicked {}

/// Extract a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shared first-panic slot used by the fallible helpers: records the first
/// [`JobPanicked`] and flips the abort flag so siblings stop claiming items.
struct FirstPanic {
    slot: Mutex<Option<JobPanicked>>,
    abort: AtomicBool,
}

impl FirstPanic {
    fn new() -> Self {
        FirstPanic { slot: Mutex::new(None), abort: AtomicBool::new(false) }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    fn record(&self, job: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = lock(&self.slot);
        if slot.is_none() {
            *slot = Some(JobPanicked { job, message: panic_message(&*payload) });
        }
        self.abort.store(true, Ordering::Relaxed);
    }

    fn into_result<U>(self, ok: Vec<U>) -> Result<Vec<U>, JobPanicked> {
        match self.slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(err) => Err(err),
            None => Ok(ok),
        }
    }
}

/// One worker's share of a fallible map: claim indices below `n` from
/// `cursor` until the input is drained or a sibling has panicked, run `job`
/// on each under `catch_unwind`, and keep the `(index, result)` pairs.
fn drain_claims<U>(
    n: usize,
    share: usize,
    cursor: &AtomicUsize,
    failure: &FirstPanic,
    mut job: impl FnMut(usize) -> U,
) -> Vec<(usize, U)> {
    let mut local = Vec::with_capacity(share);
    while !failure.aborted() {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        match catch_unwind(AssertUnwindSafe(|| job(i))) {
            Ok(value) => local.push((i, value)),
            Err(payload) => {
                failure.record(i, payload);
                break;
            }
        }
    }
    local
}

/// Run `work` once per element of `workers` — the first on the calling
/// thread, the others on scoped threads of their own — and stitch the
/// `(index, result)` pairs every worker kept back into index order.
fn on_workers<W: Send, U: Send>(
    n: usize,
    mut workers: impl Iterator<Item = W>,
    work: impl Fn(W) -> Vec<(usize, U)> + Sync,
) -> Vec<U> {
    let own = workers.next().expect("at least one worker");
    let work = &work;
    let mut indexed: Vec<(usize, U)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers.map(|w| scope.spawn(move || work(w))).collect();
        indexed.extend(work(own));
        for handle in handles {
            indexed.extend(handle.join().expect("parallel worker harness panicked"));
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, value)| value).collect()
}

/// Controls how many worker threads the parallel helpers spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPoolConfig {
    threads: usize,
}

/// Cached result of [`ThreadPoolConfig::detect`]: every map without a pinned
/// width asks [`ThreadPoolConfig::auto`], so the environment and
/// `available_parallelism` are read once per process instead of once per
/// call.
static AUTO_THREADS: OnceLock<usize> = OnceLock::new();

impl ThreadPoolConfig {
    /// Use exactly `threads` workers (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        ThreadPoolConfig { threads: threads.max(1) }
    }

    /// Use the `LCC_THREADS` environment variable when it is set, the number
    /// of available CPUs otherwise (an empty value counts as unset).
    ///
    /// The detection result is cached for the lifetime of the process, so
    /// `LCC_THREADS` is read once — set it before the first parallel call.
    ///
    /// # Panics
    /// Panics when `LCC_THREADS` is set to anything but a positive integer:
    /// a pinned width that silently became the CPU count would invalidate
    /// whatever the run was pinned for.
    pub fn auto() -> Self {
        ThreadPoolConfig { threads: *AUTO_THREADS.get_or_init(Self::detect) }
    }

    /// Uncached environment/CPU detection backing [`ThreadPoolConfig::auto`].
    fn detect() -> usize {
        let pinned = std::env::var("LCC_THREADS").ok().and_then(|value| {
            parse_threads(&value).unwrap_or_else(|message| panic!("LCC_THREADS: {message}"))
        });
        pinned.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Number of worker threads this configuration will use.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ThreadPoolConfig {
    fn default() -> Self {
        ThreadPoolConfig::auto()
    }
}

/// The pool width an `LCC_THREADS` value asks for: `None` for the empty
/// (unset) value, an error naming the value and the accepted form otherwise
/// unless it is a positive integer.
fn parse_threads(value: &str) -> Result<Option<usize>, String> {
    match value.trim() {
        "" => Ok(None),
        text => match text.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!("cannot use {value:?} as a thread count (a positive integer)")),
        },
    }
}

/// Parallel, order-preserving map over a slice. A panicking job is caught,
/// the other workers stop claiming items, and the first panic is re-raised
/// on the calling thread once every worker has exited.
///
/// ```
/// let pool = lcc_par::ThreadPoolConfig::auto();
/// let squares = lcc_par::parallel_map_with(pool, &[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map_with<T, U, F>(config: ThreadPoolConfig, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    try_parallel_map_with_state(config, items, || (), |(), _, item| f(item))
        .unwrap_or_else(|err| panic!("{err}"))
}

/// Parallel, order-preserving map where every worker owns a mutable state
/// built by `init` and passed, with the item's index, to each of its `f`
/// calls — how the sweep scheduler hands each worker one reusable scratch
/// arena for all the work items it drains.
///
/// Each worker claims indices from a shared atomic cursor (best load balance
/// for heterogeneous item costs) and keeps `(index, result)` pairs in its own
/// buffer; the buffers are stitched back into input order at the end. A
/// panicking job is caught per job (`catch_unwind`), siblings stop claiming
/// further items, every worker thread exits cleanly, and the *first* panic
/// comes back as `Err(JobPanicked)` — the pool itself survives. The calling
/// thread is one of the workers (it builds a state with `init` like the
/// others).
pub fn try_parallel_map_with_state<T, U, S, I, F>(
    config: ThreadPoolConfig,
    items: &[T],
    init: I,
    f: F,
) -> Result<Vec<U>, JobPanicked>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = config.threads().min(n);
    if threads <= 1 {
        let mut state = init();
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(&mut state, i, item))) {
                Ok(value) => out.push(value),
                Err(payload) => {
                    return Err(JobPanicked { job: i, message: panic_message(&*payload) })
                }
            }
        }
        return Ok(out);
    }

    let cursor = AtomicUsize::new(0);
    let failure = FirstPanic::new();
    let out = on_workers(n, 0..threads, |_| {
        let mut state = init();
        drain_claims(n, n / threads + 1, &cursor, &failure, |i| f(&mut state, i, &items[i]))
    });
    failure.into_result(out)
}

/// A work item waiting to be claimed by a worker, behind a take-once mutex.
type TakeSlot<T> = Mutex<Option<T>>;

/// Scoped block-map: drain owned work items across workers, each worker
/// exclusively owning one of the caller-provided `states` for its entire
/// share of the queue.
///
/// This is the primitive behind the block-parallel framed codec: the caller
/// keeps a persistent pool of per-worker scratch states (arenas, reusable
/// decode fields) alive *across* calls, and every invocation hands worker
/// `w` the exclusive `&mut states[w]`. Items are claimed from an atomic
/// cursor (good load balance when block costs differ, e.g. smooth vs rough
/// tiles) and may own mutable borrows — the framed decoder passes each
/// block its disjoint `&mut [f64]` slice of the output field. Results come
/// back in item order.
///
/// Uses at most `min(config.threads(), states.len(), items.len())` workers,
/// the calling thread among them (it owns `states[0]`).
///
/// A panicking block is caught per job, siblings stop claiming further
/// blocks, and the first panic comes back as `Err(JobPanicked)` with every
/// worker thread joined cleanly.
///
/// # Panics
/// Panics if `states` is empty while `items` is not.
pub fn try_parallel_block_map<T, S, U, F>(
    config: ThreadPoolConfig,
    states: &mut [S],
    items: Vec<T>,
    f: F,
) -> Result<Vec<U>, JobPanicked>
where
    T: Send,
    S: Send,
    U: Send,
    F: Fn(&mut S, usize, T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    assert!(!states.is_empty(), "at least one worker state is required");
    let workers = config.threads().min(states.len()).min(n);
    if workers <= 1 {
        let state = &mut states[0];
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.into_iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(state, i, item))) {
                Ok(value) => out.push(value),
                Err(payload) => {
                    return Err(JobPanicked { job: i, message: panic_message(&*payload) })
                }
            }
        }
        return Ok(out);
    }

    let cursor = AtomicUsize::new(0);
    let failure = FirstPanic::new();
    let slots: Vec<TakeSlot<T>> = items.into_iter().map(|item| Mutex::new(Some(item))).collect();
    let out = on_workers(n, states[..workers].iter_mut(), |state| {
        drain_claims(n, n / workers + 1, &cursor, &failure, |i| {
            let item = lock(&slots[i]).take().expect("each item is taken exactly once");
            f(state, i, item)
        })
    });
    failure.into_result(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn lock_is_usable_after_a_holder_panicked() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = lock(&m2);
            panic!("poison attempt");
        })
        .join();
        assert!(m.is_poisoned());
        *lock(&m) = 7;
        assert_eq!(*lock(&m), 7);
    }

    #[test]
    fn config_minimum_one_thread() {
        assert_eq!(ThreadPoolConfig::with_threads(0).threads(), 1);
        assert_eq!(ThreadPoolConfig::with_threads(8).threads(), 8);
        assert!(ThreadPoolConfig::auto().threads() >= 1);
    }

    #[test]
    fn lcc_threads_is_a_positive_integer_or_unset() {
        assert_eq!(parse_threads(""), Ok(None));
        assert_eq!(parse_threads("  "), Ok(None));
        assert_eq!(parse_threads("3"), Ok(Some(3)));
        assert_eq!(parse_threads(" 12\n"), Ok(Some(12)));
        for bad in ["abc", "0", "-1", "2x", "1.5", "+"] {
            let message = parse_threads(bad).unwrap_err();
            assert!(message.contains(&format!("{bad:?}")), "{message}");
            assert!(message.contains("positive integer"), "{message}");
        }
    }

    #[test]
    fn auto_detection_is_cached_and_stable() {
        // Repeated calls hit the OnceLock and agree (hot loops call auto()
        // once per job).
        let first = ThreadPoolConfig::auto();
        for _ in 0..100 {
            assert_eq!(ThreadPoolConfig::auto(), first);
        }
    }

    #[test]
    fn large_map_preserves_order_with_uneven_item_costs() {
        // Heterogeneous per-item work exercises the per-thread buffers +
        // stitching path (items finish far out of order).
        let items: Vec<usize> = (0..50_000).collect();
        let pool = ThreadPoolConfig::with_threads(8);
        let out = try_parallel_map_with_state(
            pool,
            &items,
            || (),
            |(), i, &x| {
                if i % 1000 == 0 {
                    std::thread::yield_now();
                }
                x * 2 + i
            },
        )
        .unwrap();
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map_with(ThreadPoolConfig::auto(), &items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_input() {
        let out: Vec<u32> = parallel_map_with(ThreadPoolConfig::auto(), &[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn map_single_thread_path() {
        let items = vec![1, 2, 3];
        let out = parallel_map_with(ThreadPoolConfig::with_threads(1), &items, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn per_worker_state_is_created_once_per_thread_and_reused() {
        // Each worker's state counts the items it processed; the total must
        // cover every item exactly once, and no worker may observe a fresh
        // state mid-run (monotonically growing per-item counter).
        let items: Vec<usize> = (0..10_000).collect();
        let out = try_parallel_map_with_state(
            ThreadPoolConfig::with_threads(4),
            &items,
            || 0usize,
            |seen, i, &x| {
                *seen += 1;
                (x, *seen, i)
            },
        )
        .unwrap();
        assert_eq!(out.len(), items.len());
        let total: usize = out.iter().filter(|&&(_, seen, _)| seen == 1).count();
        assert!(total <= 4, "at most one state reset per worker thread");
        for (k, &(x, seen, i)) in out.iter().enumerate() {
            assert_eq!(x, k);
            assert_eq!(i, k);
            assert!(seen >= 1);
        }
    }

    #[test]
    fn with_state_single_thread_path_reuses_one_state() {
        let items = vec![5, 6, 7];
        let out = try_parallel_map_with_state(
            ThreadPoolConfig::with_threads(1),
            &items,
            || 100usize,
            |acc, _, &x| {
                *acc += x;
                *acc
            },
        )
        .unwrap();
        assert_eq!(out, vec![105, 111, 118]);
    }

    #[test]
    fn map_runs_every_item_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map_with(ThreadPoolConfig::with_threads(7), &items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn block_map_uses_caller_states_and_preserves_order() {
        // Four persistent states; every state the map touches must have been
        // one of the caller's, and results must come back in item order.
        let mut states = vec![0usize; 4];
        let items: Vec<usize> = (0..1000).collect();
        let out = try_parallel_block_map(
            ThreadPoolConfig::with_threads(4),
            &mut states,
            items,
            |seen, i, item| {
                *seen += 1;
                (i, item * 2)
            },
        )
        .unwrap();
        for (k, &(i, doubled)) in out.iter().enumerate() {
            assert_eq!(i, k);
            assert_eq!(doubled, k * 2);
        }
        // Every item was processed by exactly one worker state.
        assert_eq!(states.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn block_map_state_persists_across_calls() {
        // The whole point of caller-owned states: a second call sees the
        // counts left by the first (scratch reuse across framed codec calls).
        let mut states = vec![0usize; 2];
        for round in 1..=3 {
            try_parallel_block_map(
                ThreadPoolConfig::with_threads(2),
                &mut states,
                vec![(); 10],
                |seen, _, ()| *seen += 1,
            )
            .unwrap();
            assert_eq!(states.iter().sum::<usize>(), 10 * round);
        }
    }

    #[test]
    fn block_map_items_may_own_mutable_borrows() {
        // The framed decoder hands each block a disjoint &mut chunk of the
        // output buffer; model that shape here.
        let mut data = vec![0u64; 103];
        let chunks: Vec<(usize, &mut [u64])> = {
            let mut out = Vec::new();
            let mut offset = 0;
            let mut rest = data.as_mut_slice();
            while !rest.is_empty() {
                let take = 10.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                out.push((offset, head));
                offset += take;
                rest = tail;
            }
            out
        };
        let mut states = vec![(); 3];
        try_parallel_block_map(
            ThreadPoolConfig::with_threads(3),
            &mut states,
            chunks,
            |(), _, (offset, chunk)| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (offset + k) as u64;
                }
            },
        )
        .unwrap();
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn block_map_empty_and_single_worker_paths() {
        let mut states = vec![0u32; 1];
        let out: Vec<u32> = try_parallel_block_map(
            ThreadPoolConfig::with_threads(8),
            &mut states,
            Vec::<u32>::new(),
            |_, _, x| x,
        )
        .unwrap();
        assert!(out.is_empty());
        let out = try_parallel_block_map(
            ThreadPoolConfig::with_threads(8),
            &mut states,
            vec![5u32, 6, 7],
            |s, _, x| {
                *s += 1;
                x + 1
            },
        )
        .unwrap();
        assert_eq!(out, vec![6, 7, 8]);
        assert_eq!(states[0], 3, "one state bounds the map to one worker");
    }

    #[test]
    fn try_map_surfaces_first_panic_without_killing_the_pool() {
        let items: Vec<usize> = (0..500).collect();
        let err = try_parallel_map_with_state(
            ThreadPoolConfig::with_threads(4),
            &items,
            || (),
            |(), _, &x| {
                if x == 137 {
                    panic!("boom on {x}");
                }
                x * 2
            },
        )
        .unwrap_err();
        assert_eq!(err.job, 137);
        assert!(err.message.contains("boom on 137"), "payload preserved: {}", err.message);
        assert!(err.to_string().contains("job 137 panicked"));
    }

    #[test]
    fn try_map_single_thread_path_catches_panics_too() {
        let items = vec![1, 2, 3];
        let err = try_parallel_map_with_state(
            ThreadPoolConfig::with_threads(1),
            &items,
            || (),
            |(), i, _| {
                if i == 1 {
                    panic!("sequential boom");
                }
                i
            },
        )
        .unwrap_err();
        assert_eq!(err.job, 1);
        assert!(err.message.contains("sequential boom"));
    }

    #[test]
    fn try_map_siblings_stop_early_after_a_panic() {
        // After the first panic the abort flag stops further claims: the
        // number of executed jobs must be well below the full input on a
        // large map (each worker can finish at most the jobs it had claimed
        // before observing the flag). Surviving jobs cost 50 µs each, so
        // draining the input would take seconds — longer than any panic
        // hook (backtrace symbolization under `RUST_BACKTRACE=1` included)
        // needs to unwind and raise the flag.
        let executed = AtomicU64::new(0);
        let items: Vec<usize> = (0..100_000).collect();
        let err = try_parallel_map_with_state(
            ThreadPoolConfig::with_threads(4),
            &items,
            || (),
            |(), _, &x| {
                executed.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    panic!("first job fails");
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
                x
            },
        )
        .unwrap_err();
        assert_eq!(err.job, 0);
        assert!(
            executed.load(Ordering::Relaxed) < 100_000,
            "siblings kept draining the whole input after the panic"
        );
    }

    #[test]
    fn try_map_ok_path_matches_infallible_map() {
        let items: Vec<u64> = (0..1000).collect();
        let out = try_parallel_map_with_state(
            ThreadPoolConfig::with_threads(4),
            &items,
            || (),
            |(), _, &x| x * 3,
        )
        .unwrap();
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn try_block_map_surfaces_panic_and_preserves_states() {
        let mut states = vec![0usize; 4];
        let err = try_parallel_block_map(
            ThreadPoolConfig::with_threads(4),
            &mut states,
            (0..200usize).collect::<Vec<_>>(),
            |seen, _, item| {
                if item == 42 {
                    panic!("block 42 went bad");
                }
                *seen += 1;
                item
            },
        )
        .unwrap_err();
        assert_eq!(err.job, 42);
        // The caller still owns its states afterwards (the scope joined
        // every worker cleanly) and non-panicking jobs ran on them.
        assert!(states.iter().sum::<usize>() >= 1);
    }

    /// Jobs that hold every worker of a `width`-wide pool at a barrier on its
    /// first claim, so each of them provably runs at least one job, and
    /// report the thread they ran on.
    fn rendezvous(width: usize) -> impl Fn(&mut bool) -> std::thread::ThreadId + Sync {
        let barrier = std::sync::Barrier::new(width);
        move |arrived: &mut bool| {
            if !std::mem::replace(arrived, true) {
                barrier.wait();
            }
            std::thread::current().id()
        }
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        let items = vec![(); 64];
        for width in [2, 3, 8] {
            let job = rendezvous(width);
            let pool = ThreadPoolConfig::with_threads(width);
            let ran_on =
                try_parallel_map_with_state(pool, &items, || false, |s, _, ()| job(s)).unwrap();
            let distinct: std::collections::HashSet<_> = ran_on.iter().collect();
            assert_eq!(distinct.len(), width, "the caller plus {width} - 1 spawned threads");
            assert!(distinct.contains(&caller));

            let job = rendezvous(width);
            let mut states = vec![false; width];
            let ran_on =
                try_parallel_block_map(pool, &mut states, items.clone(), |s, _, ()| job(s))
                    .unwrap();
            let distinct: std::collections::HashSet<_> = ran_on.iter().collect();
            assert_eq!(distinct.len(), width);
            assert!(distinct.contains(&caller));
            assert_eq!(states, vec![true; width], "every state was owned by one worker");
        }
    }

    #[test]
    fn a_panic_on_the_callers_share_is_a_first_error_like_any_other() {
        let caller = std::thread::current().id();
        let job = rendezvous(3);
        let mut states = vec![false; 3];
        let err = try_parallel_block_map(
            ThreadPoolConfig::with_threads(3),
            &mut states,
            vec![(); 32],
            |s, i, ()| {
                if job(s) == caller {
                    panic!("the caller's job {i} went bad");
                }
            },
        )
        .unwrap_err();
        assert!(err.message.contains(&format!("the caller's job {} went bad", err.job)));
        // The scope joined the spawned workers and the caller's panic was
        // caught per job: this thread is still running and owns its states.
        assert_eq!(states, vec![true; 3]);
    }

    #[test]
    #[should_panic(expected = "job 7 panicked")]
    fn infallible_map_reraises_on_the_calling_thread() {
        let items: Vec<usize> = (0..16).collect();
        let _ = parallel_map_with(ThreadPoolConfig::with_threads(1), &items, |&i| {
            if i == 7 {
                panic!("kept behavior");
            }
            i
        });
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let from_str = catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(&*from_str), "static str");
        let from_string = catch_unwind(|| panic!("{}", String::from("formatted"))).unwrap_err();
        assert_eq!(panic_message(&*from_string), "formatted");
        let opaque = catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(panic_message(&*opaque), "non-string panic payload");
    }
}
