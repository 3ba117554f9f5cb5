//! Bounded MPMC work queue for *sustained* submission.
//!
//! The one-shot helpers in the crate root ([`crate::parallel_map_with`],
//! [`crate::try_parallel_block_map`]) take a fully materialized work list and
//! return when it drains — the right shape for a sweep, the wrong shape for
//! a server whose requests keep arriving. This module adds the serving-style
//! primitive: a fixed-capacity queue whose `push` blocks when the workers
//! fall behind (backpressure instead of an unbounded backlog), plus
//! [`run_bounded_queue`], which spawns scoped workers with caller-owned
//! per-worker states and runs the producer on the calling thread until it
//! returns.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::{panic_message, ThreadPoolConfig};

/// A fixed-capacity multi-producer/multi-consumer queue.
///
/// `push` blocks while the queue is full; `pop` blocks while it is empty and
/// still open. After [`BoundedQueue::close`], pushes are rejected and pops
/// drain the remaining items before returning `None` — the worker-side
/// termination signal.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// Create a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The fixed capacity this queue was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently waiting (racy by nature; useful for stats/tests).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when no items are waiting.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Enqueue `item`, blocking while the queue is at capacity. Returns the
    /// item back as `Err` when the queue has been closed (the producer-side
    /// stop signal).
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        while state.items.len() >= self.capacity && !state.closed {
            state = self.wait(&self.not_full, state);
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue one item, blocking while the queue is empty and open.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.wait(&self.not_empty, state);
        }
    }

    /// Close the queue: every blocked or future `push` fails, and `pop`
    /// returns `None` once the backlog drains.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Lock the state, shrugging off poisoning: a panicking worker already
    /// aborts the scoped run via its join, and queue state (a VecDeque plus
    /// a flag) cannot be left logically inconsistent by the operations here.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn wait<'a>(
        &self,
        condvar: &Condvar,
        guard: MutexGuard<'a, QueueState<T>>,
    ) -> MutexGuard<'a, QueueState<T>> {
        condvar.wait(guard).unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Run a producer/worker pair over a [`BoundedQueue`] with caller-owned
/// per-worker states — the sustained-submission analogue of
/// [`crate::try_parallel_block_map`].
///
/// Spawns `min(config.threads(), states.len())` scoped workers, each owning
/// the exclusive `&mut states[w]` for the whole run and draining the queue
/// with `worker(state, worker_index, item)`. The producer runs on the
/// *calling* thread, pushing work through the handle it receives; when it
/// returns, the queue closes, the workers drain the backlog and the call
/// returns. Bounded capacity means a fast producer blocks in `push` instead
/// of growing an unbounded backlog — steady-state memory is `capacity`
/// items regardless of run length.
///
/// A job whose closure panicked is *absorbed*: the item is dropped, the
/// panic is counted, and the worker keeps draining — a sustained serving
/// loop must outlive any single bad request. The counts come back in the
/// returned [`QueueRunReport`] so callers can account for every absorbed
/// panic (`tests/chaos.rs` asserts injected == absorbed).
///
/// # Panics
/// Panics if `states` is empty.
pub fn run_bounded_queue<T, S, P, F>(
    config: ThreadPoolConfig,
    states: &mut [S],
    capacity: usize,
    producer: P,
    worker: F,
) -> QueueRunReport
where
    T: Send,
    S: Send,
    P: FnOnce(&BoundedQueue<T>),
    F: Fn(&mut S, usize, T) + Sync,
{
    assert!(!states.is_empty(), "at least one worker state is required");
    let workers = config.threads().min(states.len()).max(1);
    let queue = BoundedQueue::new(capacity);
    let panics = AtomicU64::new(0);
    let first_panic: Mutex<Option<String>> = Mutex::new(None);
    let queue = &queue;
    let worker = &worker;
    let panics = &panics;
    let first_panic = &first_panic;
    std::thread::scope(|scope| {
        for (w, state) in states[..workers].iter_mut().enumerate() {
            scope.spawn(move || {
                while let Some(item) = queue.pop() {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| worker(state, w, item)))
                    {
                        panics.fetch_add(1, Ordering::Relaxed);
                        let mut slot =
                            first_panic.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                        if slot.is_none() {
                            *slot = Some(panic_message(&*payload));
                        }
                    }
                }
            });
        }
        producer(queue);
        queue.close();
    });
    let first = first_panic.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).take();
    QueueRunReport { job_panics: panics.load(Ordering::Relaxed), first_panic: first }
}

/// What [`run_bounded_queue`] observed over a whole run.
#[derive(Debug, Default, Clone)]
pub struct QueueRunReport {
    /// Jobs whose closure panicked; each was absorbed per job and the worker
    /// kept serving.
    pub job_panics: u64,
    /// Stringified payload of the first absorbed panic, for diagnostics.
    pub first_panic: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn capacity_is_clamped_to_one() {
        let q: BoundedQueue<u32> = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn push_pop_fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn close_rejects_push_and_drains_pop() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed+drained stays terminal");
    }

    #[test]
    fn blocked_push_wakes_on_pop() {
        let q = BoundedQueue::new(1);
        q.push(10u64).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Blocks until the main thread pops.
                q.push(20).unwrap();
            });
            assert_eq!(q.pop(), Some(10));
            assert_eq!(q.pop(), Some(20));
        });
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q: BoundedQueue<u8> = BoundedQueue::new(1);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| q.pop());
            std::thread::yield_now();
            q.close();
            assert_eq!(handle.join().unwrap(), None);
        });
    }

    #[test]
    fn run_bounded_queue_processes_every_item_once() {
        let mut states = vec![0usize; 4];
        let processed = AtomicUsize::new(0);
        run_bounded_queue(
            ThreadPoolConfig::with_threads(4),
            &mut states,
            8,
            |queue| {
                for i in 0..1000usize {
                    queue.push(i).unwrap();
                }
            },
            |seen, _, _item| {
                *seen += 1;
                processed.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(processed.load(Ordering::Relaxed), 1000);
        assert_eq!(states.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn backpressure_bounds_the_backlog() {
        // Slow single worker + fast producer: the queue length observed by
        // the worker can never exceed the capacity.
        let mut states = vec![(); 1];
        let max_seen = AtomicUsize::new(0);
        let capacity = 3;
        run_bounded_queue(
            ThreadPoolConfig::with_threads(1),
            &mut states,
            capacity,
            |queue| {
                for i in 0..200usize {
                    queue.push(i).unwrap();
                    max_seen.fetch_max(queue.len(), Ordering::Relaxed);
                }
            },
            |(), _, _| std::thread::yield_now(),
        );
        assert!(max_seen.load(Ordering::Relaxed) <= capacity);
    }

    #[test]
    fn worker_panics_are_absorbed_per_job_and_counted() {
        // Three poisoned items among 300: each panic is caught, the worker
        // keeps draining, every other item is processed, and the report
        // accounts for all three.
        let mut states = vec![0usize; 2];
        let report = run_bounded_queue(
            ThreadPoolConfig::with_threads(2),
            &mut states,
            8,
            |queue| {
                for i in 0..300usize {
                    queue.push(i).unwrap();
                }
            },
            |seen, _, item| {
                if item % 100 == 50 {
                    panic!("injected panic on job {item}");
                }
                *seen += 1;
            },
        );
        assert_eq!(report.job_panics, 3);
        assert!(report.first_panic.as_deref().unwrap_or("").contains("injected panic"));
        assert_eq!(states.iter().sum::<usize>(), 297, "all non-panicking jobs completed");
    }

    #[test]
    fn clean_run_reports_zero_panics() {
        let mut states = vec![(); 1];
        let report = run_bounded_queue(
            ThreadPoolConfig::with_threads(1),
            &mut states,
            4,
            |queue| {
                for i in 0..10usize {
                    queue.push(i).unwrap();
                }
            },
            |(), _, _| {},
        );
        assert_eq!(report.job_panics, 0);
        assert!(report.first_panic.is_none());
    }

    #[test]
    fn worker_count_respects_states_and_config() {
        // Two states but eight configured threads: only two workers run.
        let mut states = vec![0usize; 2];
        run_bounded_queue(
            ThreadPoolConfig::with_threads(8),
            &mut states,
            4,
            |queue| {
                for i in 0..100usize {
                    queue.push(i).unwrap();
                }
            },
            |seen, w, _| {
                assert!(w < 2);
                *seen += 1;
            },
        );
        assert_eq!(states.iter().sum::<usize>(), 100);
    }
}
