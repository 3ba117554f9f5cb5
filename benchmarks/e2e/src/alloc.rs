//! The benchmark's own counting allocator: calls to the system allocator
//! and live bytes, counted process-wide so that allocations made on a
//! layer's worker threads are seen too. The calls give
//! `bench.allocs_per_req`, the highest live byte count `peak_heap_mb`
//! (and `bench.setup_peak_heap_mb` for the set-up). What the benchmark
//! itself has to remember of a run lives in [`Records`], which the
//! counters leave out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// Relaxed throughout: the counters publish no other data, they are
// statistics.
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static SETUP_PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread is inside [`uncounted`]. Constant and without
    /// a destructor, so reading it in the allocator allocates nothing.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    !UNCOUNTED.with(Cell::get)
}

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Run `f` with this thread's allocator calls left out of every counter.
/// A block allocated in here must be grown and freed in here too.
fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = UNCOUNTED.with(|flag| flag.replace(true));
    let out = f();
    UNCOUNTED.with(|flag| flag.set(was));
    out
}

/// A growable list of the benchmark's own records (samples, spans, the
/// producer's timings). Its storage grows with the number of requests a
/// run gets through, so it is kept out of the counters: `peak_heap_mb` is
/// what the program under test holds, and a faster program does not read
/// as a larger one.
#[derive(Debug)]
pub struct Records<T>(Vec<T>);

impl<T> Records<T> {
    pub fn new() -> Self {
        Records(Vec::new())
    }

    pub fn push(&mut self, value: T) {
        if self.0.len() == self.0.capacity() {
            let more = self.0.len().max(1024);
            uncounted(|| self.0.reserve_exact(more));
        }
        self.0.push(value);
    }

    /// Forget the records and keep the storage.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<T> Default for Records<T> {
    fn default() -> Self {
        Records::new()
    }
}

impl<T> std::ops::Deref for Records<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Records<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

impl<T> Drop for Records<T> {
    fn drop(&mut self) {
        // What the records own was counted; only the list's storage was not.
        self.0.clear();
        uncounted(|| drop(std::mem::take(&mut self.0)));
    }
}

pub struct CountingAllocator;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// The most bytes that were allocated and not yet freed at one time since
/// [`setup_done`], in 10⁶ bytes: what is kept from set-up plus what serving
/// adds. 0 in a process that does not install the allocator.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / 1e6
}

/// The same for the time before [`setup_done`].
pub fn setup_peak_heap_mb() -> f64 {
    SETUP_PEAK.load(Ordering::Relaxed) as f64 / 1e6
}

/// Set-up is over: file its peak and start the serving phase's at what is
/// live now. Call while no other thread allocates.
pub fn setup_done() {
    SETUP_PEAK.store(PEAK.load(Ordering::Relaxed), Ordering::Relaxed);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter touches no memory
// the allocator manages and cannot allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counted() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        // SAFETY: as above, for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        // SAFETY: `ptr` came from this allocator, which only ever hands out
        // `System` blocks, with the layout the caller states.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: `ptr` is a `System` block of this layout (see `realloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit tests of this library run under the counting allocator, so
    // that this one can read the counters.
    #[global_allocator]
    static ALLOCATOR: CountingAllocator = CountingAllocator;

    #[test]
    fn records_stay_out_of_the_live_bytes_and_a_plain_vec_does_not() {
        // Other tests allocate meanwhile, a few megabytes at most.
        const BIG: usize = 64 << 20;
        const SLACK: usize = 16 << 20;
        let live = || LIVE.load(Ordering::Relaxed);
        let start = live();
        let mut records = Records::new();
        for i in 0..BIG / 8 {
            records.push(i as u64);
        }
        assert_eq!((records.len(), records[BIG / 8 - 1]), (BIG / 8, (BIG / 8 - 1) as u64));
        assert!(live().abs_diff(start) < SLACK, "the list's storage is not counted");
        let plain = std::hint::black_box(vec![1u8; BIG]);
        assert!(live() >= start + BIG - SLACK, "a Vec of the program's is");
        drop(plain);
        records.clear();
        records.push(7);
        assert_eq!(&records[..], [7]);
        drop(records);
        assert!(live().abs_diff(start) < SLACK, "freeing it takes nothing off either");
    }
}
