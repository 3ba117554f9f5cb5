//! Thread-local "largest single allocation request" probe: the oracle that
//! a refused stream never sized a buffer by what its header claimed. Each
//! test thread sees only its own requests.
//!
//! Shared by the test binaries that install it (`#[path]`-included; each
//! declares its own `#[global_allocator]`).

// `GlobalAlloc` is an unsafe trait by definition; the implementation
// only forwards to `System` after noting the request in a
// const-initialized thread-local `Cell` (no allocation, no reentrancy).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|c| c.set(c.get().max(size)));
}

/// Run `f` and return its result with the largest allocation (bytes)
/// the current thread requested meanwhile.
pub fn largest_request_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let value = f();
    (value, LARGEST.with(|c| c.get()))
}

pub struct Probe;

unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
