//! Deterministic fault injection for `tests/chaos.rs` (`#[path]`-included
//! beside `serving.rs`). A seeded [`FaultPlan`] decides where to flip a bit,
//! zero a tail, fail a read, stall a read, or panic a job; [`FaultyReadAt`]
//! applies its read faults behind the archive's `ReadAt` seam, so the reader
//! under test cannot tell an injected fault from damaged media.
//!
//! Every applied fault is counted in the plan's total and in a thread-local
//! tally. A worker serving one request at a time drains the tally after
//! each request ([`take_thread_injections`]) to charge the faults to it,
//! which is what lets the test check `injected == detected + recovered`.
//! Panics are counted apart and carry [`CHAOS_PANIC_TAG`].

use crate::serving::mix;
use lcc_archive::ReadAt;
use lcc_pressio::CompressError;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Carried by every injected panic's payload.
pub const CHAOS_PANIC_TAG: &str = "chaos: injected worker panic";

thread_local! {
    static THREAD_INJECTIONS: Cell<u64> = const { Cell::new(0) };
}

/// The faults applied on the calling thread since the last call.
pub fn take_thread_injections() -> u64 {
    THREAD_INJECTIONS.with(|c| c.replace(0))
}

enum Fault {
    /// Flip one bit; the hash picks which.
    BitFlip(u64),
    /// Cut the stream, or zero a read's tail; the hash picks where.
    Truncate(u64),
    FailRead,
    /// Sleep past the read's deadline.
    Stall,
}

/// Map 53 hash bits onto the unit interval.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

pub struct FaultPlan {
    seed: u64,
    /// Probability that a stream or read draws a fault.
    rate: f64,
    /// Probability that a job draws an injected panic.
    panic_rate: f64,
    stall: Duration,
    armed: AtomicBool,
    draws: AtomicU64,
    injected: AtomicU64,
    injected_panics: AtomicU64,
}

impl FaultPlan {
    /// A plan that starts disarmed, so set-up runs clean.
    pub fn new(seed: u64, rate: f64, panic_rate: f64, stall: Duration) -> Self {
        FaultPlan {
            seed,
            rate,
            panic_rate,
            stall,
            armed: AtomicBool::new(false),
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            injected_panics: AtomicU64::new(0),
        }
    }

    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stream and read faults applied so far, on every thread.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    pub fn injected_panics(&self) -> u64 {
        self.injected_panics.load(Ordering::SeqCst)
    }

    /// Panic with [`CHAOS_PANIC_TAG`] if job `site` draws a panic, a
    /// function of the seed and the site alone.
    pub fn maybe_panic(&self, site: u64) {
        let armed = self.armed.load(Ordering::SeqCst);
        if armed && unit(mix(self.seed ^ mix(!site))) < self.panic_rate {
            self.injected_panics.fetch_add(1, Ordering::SeqCst);
            panic!("{CHAOS_PANIC_TAG} (job {site})");
        }
    }

    /// Draw a fault for `site` among the first `kinds` of [`Fault`]'s four.
    fn draw(&self, site: u64, kinds: u64) -> Option<Fault> {
        if !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        let draw = self.draws.fetch_add(1, Ordering::Relaxed);
        let h = mix(self.seed ^ mix(draw) ^ site.rotate_left(17));
        if unit(h) >= self.rate {
            return None;
        }
        self.injected.fetch_add(1, Ordering::SeqCst);
        THREAD_INJECTIONS.with(|c| c.set(c.get() + 1));
        let pick = mix(h);
        Some(match pick % kinds {
            0 => Fault::BitFlip(mix(pick)),
            1 => Fault::Truncate(mix(pick)),
            2 => Fault::FailRead,
            _ => Fault::Stall,
        })
    }

    /// Damage a stream held between encode and decode. Byte faults only:
    /// nothing here runs under a deadline, so a stall would only sleep.
    pub fn corrupt_stream(&self, site: u64, stream: &mut Vec<u8>) {
        let len = stream.len() as u64;
        match self.draw(site, 3) {
            Some(Fault::BitFlip(h)) => stream[(h % len) as usize] ^= 1 << ((h >> 32) % 8),
            Some(Fault::Truncate(h)) => stream.truncate((h % len) as usize),
            Some(Fault::FailRead) => stream.clear(),
            Some(Fault::Stall) | None => {}
        }
    }
}

/// An in-memory archive whose reads land the plan's faults after the copy,
/// like corruption or a slow device below the reader.
pub struct FaultyReadAt {
    bytes: Vec<u8>,
    plan: Arc<FaultPlan>,
}

impl FaultyReadAt {
    pub fn new(bytes: Vec<u8>, plan: Arc<FaultPlan>) -> Self {
        FaultyReadAt { bytes, plan }
    }
}

impl ReadAt for FaultyReadAt {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), CompressError> {
        self.bytes.read_at(offset, buf)?;
        let len = buf.len() as u64;
        match self.plan.draw(offset, 4) {
            Some(Fault::BitFlip(h)) => buf[(h % len) as usize] ^= 1 << ((h >> 32) % 8),
            Some(Fault::Truncate(h)) => buf[(h % len) as usize..].fill(0),
            Some(Fault::FailRead) => {
                let message = format!("fault: injected read failure at offset {offset}");
                return Err(CompressError::CorruptStream(message));
            }
            Some(Fault::Stall) => std::thread::sleep(self.plan.stall),
            None => {}
        }
        Ok(())
    }
}
