//! Deterministic fault injection for the chaos runs.
//!
//! Chaos tooling for the serving stack: a seeded [`FaultPlan`] decides,
//! reproducibly, where to corrupt bytes, fail reads, inject delays, or
//! panic a worker; [`FaultyReadAt`] applies the byte-level faults behind
//! the archive's [`ReadAt`] seam so the reader under test cannot tell an
//! injected fault from real media corruption.
//!
//! Two invariants make chaos runs checkable rather than merely noisy:
//!
//! * **Every injection is counted.** The plan increments a global counter
//!   and a thread-local counter the moment a fault is applied; a harness
//!   serving one request per thread reads the per-request delta with
//!   [`take_thread_injections`] and can assert
//!   `injected == detected + recovered` at the end of the run.
//! * **Decisions are seeded.** The same seed, rate and (single-threaded)
//!   call sequence produce the same faults, so a failing chaos run can be
//!   replayed.
//!
//! Panic injection is deliberately separate from byte faults: a panic
//! tears down a job, not a buffer, so it is counted in
//! [`FaultPlan::injected_panics`] only and its payload carries
//! [`CHAOS_PANIC_TAG`] so harnesses can both suppress the hook noise and
//! verify that every absorbed panic was one of theirs.

use lcc_archive::ReadAt;
use lcc_pressio::CompressError;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Marker carried by every injected panic's payload, so panic hooks can
/// silence chaos noise and harnesses can tell injected panics from real
/// ones.
pub(crate) const CHAOS_PANIC_TAG: &str = "chaos: injected worker panic";

/// One concrete fault drawn from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// Flip one bit of the affected buffer; the carried hash picks which.
    BitFlip(u64),
    /// Zero the buffer's tail; the carried hash picks the cut point.
    Truncate(u64),
    /// Fail the operation outright with a corrupt-stream error.
    FailRead,
    /// Stall the operation, modelling a slow device or remote blob.
    Delay(Duration),
}

thread_local! {
    static THREAD_INJECTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Drain this thread's injection counter: the number of byte-level faults
/// applied on the calling thread since the last call. Harnesses that serve
/// one request at a time per thread call this after each request to
/// attribute injections to it.
pub(crate) fn take_thread_injections() -> u64 {
    THREAD_INJECTIONS.with(|c| c.replace(0))
}

/// splitmix64: tiny, seedable, and good enough to decorrelate draw indices
/// into fault decisions (the same generator the vendored `rand` uses).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map 53 hash bits onto the unit interval.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded, armable fault schedule shared (behind `Arc`) between the
/// harness and every [`FaultyReadAt`] or panic site it drives.
///
/// The plan starts **disarmed**: reference data, archive builds and opens
/// run clean, then the harness calls [`arm`](FaultPlan::arm) for the
/// measured window. Each decision consumes one draw from a global
/// sequence, hashed with the seed and the site offset.
#[derive(Debug)]
pub(crate) struct FaultPlan {
    seed: u64,
    /// Probability that any one read-level site draws a fault.
    rate: f64,
    /// Probability that a job-level site draws an injected panic.
    panic_rate: f64,
    /// When set, delays join the byte-fault repertoire at this duration.
    delay: Option<Duration>,
    armed: AtomicBool,
    draws: AtomicU64,
    injected: AtomicU64,
    injected_panics: AtomicU64,
}

impl FaultPlan {
    /// A plan injecting byte-level faults at `rate` (clamped to `[0, 1]`)
    /// per read site. Starts disarmed, with no panics and no delays.
    pub(crate) fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            panic_rate: 0.0,
            delay: None,
            armed: AtomicBool::new(false),
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            injected_panics: AtomicU64::new(0),
        }
    }

    /// Builder: inject worker panics at `rate` per [`draw_panic`](Self::draw_panic) site.
    pub(crate) fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Builder: add `delay` stalls to the byte-fault repertoire. Pair with
    /// per-request deadlines so a stall surfaces as `DeadlineExceeded`
    /// rather than an unbounded hang.
    pub(crate) fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Start injecting. Counters are *not* reset: arm/disarm brackets
    /// compose over one accumulating run.
    pub(crate) fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stop injecting (reference rebuilds, teardown).
    pub(crate) fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// True while faults are being injected.
    fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Total byte-level faults applied so far (all threads).
    pub(crate) fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Total panics injected so far via [`draw_panic`](Self::draw_panic).
    pub(crate) fn injected_panics(&self) -> u64 {
        self.injected_panics.load(Ordering::SeqCst)
    }

    /// One seeded hash per decision site.
    fn draw_hash(&self, site: u64) -> u64 {
        let draw = self.draws.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ splitmix64(draw) ^ site.rotate_left(17))
    }

    /// Decide whether the read-level site at `site` (e.g. a byte offset)
    /// faults, and which fault it draws. `None` while disarmed or when the
    /// draw comes up clean. Drawing does not count as injecting — the
    /// applier calls [`note_injection`](Self::note_injection) once the
    /// fault actually lands.
    fn next_fault(&self, site: u64) -> Option<Fault> {
        if !self.is_armed() || self.rate <= 0.0 {
            return None;
        }
        let h = self.draw_hash(site);
        if unit(h) >= self.rate {
            return None;
        }
        let pick = splitmix64(h);
        let kinds = if self.delay.is_some() { 4 } else { 3 };
        Some(match pick % kinds {
            0 => Fault::BitFlip(splitmix64(pick)),
            1 => Fault::Truncate(splitmix64(pick)),
            2 => Fault::FailRead,
            _ => Fault::Delay(self.delay.expect("kind 3 only drawn when delay is set")),
        })
    }

    /// Record one applied byte-level fault, globally and on this thread.
    fn note_injection(&self) {
        self.injected.fetch_add(1, Ordering::SeqCst);
        THREAD_INJECTIONS.with(|c| c.set(c.get() + 1));
    }

    /// Decide whether the job-level site at `site` (e.g. a request index)
    /// should panic. A `true` draw is already counted in
    /// [`injected_panics`](Self::injected_panics) — the caller's only job
    /// is to actually `panic!` with [`CHAOS_PANIC_TAG`] in the payload
    /// (see [`inject_panic`]).
    pub(crate) fn draw_panic(&self, site: u64) -> bool {
        if !self.is_armed() || self.panic_rate <= 0.0 {
            return false;
        }
        let h = self.draw_hash(site ^ 0xdead_beef_cafe_f00d);
        let hit = unit(h) < self.panic_rate;
        if hit {
            self.injected_panics.fetch_add(1, Ordering::SeqCst);
        }
        hit
    }

    /// Apply one drawn byte fault to an in-memory stream (the synchronous
    /// path: harnesses corrupting an encoded round-trip buffer they hold).
    /// Returns `true` — and counts the injection — when a fault landed.
    /// `Delay` stalls the calling thread; `FailRead` is expressed as
    /// clearing the stream (the "device" returned nothing).
    pub(crate) fn corrupt_stream(&self, site: u64, stream: &mut Vec<u8>) -> bool {
        let Some(fault) = self.next_fault(site) else {
            return false;
        };
        match fault {
            Fault::BitFlip(h) => {
                if stream.is_empty() {
                    return false;
                }
                let pos = (h % stream.len() as u64) as usize;
                stream[pos] ^= 1 << ((h >> 32) % 8);
            }
            Fault::Truncate(h) => {
                if stream.is_empty() {
                    return false;
                }
                let keep = (h % stream.len() as u64) as usize;
                stream.truncate(keep);
            }
            Fault::FailRead => stream.clear(),
            Fault::Delay(d) => std::thread::sleep(d),
        }
        self.note_injection();
        true
    }
}

/// A [`ReadAt`] wrapper that injects the plan's byte faults *after*
/// delegating to the inner source, so every fault models post-storage
/// corruption: flipped bits in the returned buffer, a zeroed tail, a
/// failed call, or a stalled device. A disarmed or zero-rate plan is a
/// strict passthrough (one atomic load per read).
pub(crate) struct FaultyReadAt<R: ReadAt> {
    inner: R,
    plan: std::sync::Arc<FaultPlan>,
}

impl<R: ReadAt> FaultyReadAt<R> {
    /// Wrap `inner`, drawing faults from `plan`.
    pub(crate) fn new(inner: R, plan: std::sync::Arc<FaultPlan>) -> Self {
        FaultyReadAt { inner, plan }
    }
}

impl<R: ReadAt> ReadAt for FaultyReadAt<R> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), CompressError> {
        self.inner.read_at(offset, buf)?;
        let Some(fault) = self.plan.next_fault(offset) else {
            return Ok(());
        };
        match fault {
            Fault::BitFlip(h) => {
                if buf.is_empty() {
                    return Ok(());
                }
                let pos = (h % buf.len() as u64) as usize;
                buf[pos] ^= 1 << ((h >> 32) % 8);
            }
            Fault::Truncate(h) => {
                if buf.is_empty() {
                    return Ok(());
                }
                let keep = (h % buf.len() as u64) as usize;
                buf[keep..].fill(0);
            }
            Fault::FailRead => {
                self.plan.note_injection();
                return Err(CompressError::CorruptStream(format!(
                    "fault: injected read failure at offset {offset}"
                )));
            }
            Fault::Delay(d) => std::thread::sleep(d),
        }
        self.plan.note_injection();
        Ok(())
    }
}

/// Panic with the chaos marker in the payload. Call only after
/// [`FaultPlan::draw_panic`] returned `true`; the surrounding harness's
/// panic isolation absorbs it per-job.
pub(crate) fn inject_panic(site: u64) -> ! {
    panic!("{CHAOS_PANIC_TAG} (site {site})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn plan(seed: u64, rate: f64) -> Arc<FaultPlan> {
        let p = FaultPlan::new(seed, rate);
        p.arm();
        Arc::new(p)
    }

    #[test]
    fn disarmed_and_zero_rate_plans_are_passthrough() {
        let source: Vec<u8> = (0..=255).collect();
        let quiet = Arc::new(FaultPlan::new(7, 1.0)); // armed = false
        let faulty = FaultyReadAt::new(source.clone(), Arc::clone(&quiet));
        let mut buf = [0u8; 64];
        for off in [0u64, 17, 192] {
            faulty.read_at(off, &mut buf).unwrap();
            assert_eq!(&buf[..], &source[off as usize..off as usize + 64]);
        }
        assert_eq!(quiet.injected(), 0);

        let zero = plan(7, 0.0);
        assert!(zero.next_fault(0).is_none());
        assert!(!zero.draw_panic(0));
    }

    #[test]
    fn rate_one_faults_every_read_and_counts_each() {
        let source: Vec<u8> = (0..=255).collect();
        let every_read = plan(42, 1.0);
        let faulty = FaultyReadAt::new(source.clone(), Arc::clone(&every_read));
        take_thread_injections(); // reset this thread's tally
        let mut corrupted = 0;
        for k in 0..32u64 {
            let mut buf = [0u8; 32];
            match faulty.read_at(k, &mut buf) {
                Ok(()) => {
                    if buf != source[k as usize..k as usize + 32] {
                        corrupted += 1;
                    }
                }
                Err(CompressError::CorruptStream(msg)) => {
                    assert!(msg.contains("injected read failure"), "{msg}");
                    corrupted += 1;
                }
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
        // A rate-1.0 plan draws a fault on every read; Truncate can land a
        // no-op cut (keep == len is impossible, keep can equal the tail
        // already being zero only if source had zeros — it does not here),
        // so every read must observably corrupt or fail.
        assert_eq!(corrupted, 32);
        assert_eq!(every_read.injected(), 32);
        assert_eq!(take_thread_injections(), 32);
    }

    #[test]
    fn same_seed_same_single_threaded_decision_sequence() {
        let draw = |seed: u64| -> Vec<Option<Fault>> {
            let p = plan(seed, 0.5);
            (0..64).map(|site| p.next_fault(site)).collect()
        };
        assert_eq!(draw(1234), draw(1234));
        assert_ne!(draw(1234), draw(4321), "different seeds decorrelate");
    }

    #[test]
    fn disarm_mid_run_stops_injection_without_resetting_counters() {
        let p = plan(9, 1.0);
        let mut stream = vec![1u8; 100];
        assert!(p.corrupt_stream(0, &mut stream));
        let after_one = p.injected();
        assert_eq!(after_one, 1);
        p.disarm();
        let mut stream2 = vec![1u8; 100];
        assert!(!p.corrupt_stream(1, &mut stream2));
        assert_eq!(stream2, vec![1u8; 100]);
        assert_eq!(p.injected(), after_one);
        p.arm();
        assert!(p.corrupt_stream(2, &mut stream2));
        assert_eq!(p.injected(), after_one + 1);
    }

    #[test]
    fn panic_draws_count_separately_from_byte_faults() {
        let p = Arc::new(FaultPlan::new(77, 0.0).with_panic_rate(1.0));
        p.arm();
        assert!(p.draw_panic(0));
        assert!(p.draw_panic(1));
        assert_eq!(p.injected_panics(), 2);
        assert_eq!(p.injected(), 0, "panics are not byte faults");
        assert_eq!(take_thread_injections(), 0);

        let absorbed = std::panic::catch_unwind(|| inject_panic(3)).unwrap_err();
        let msg = absorbed.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.contains(CHAOS_PANIC_TAG), "{msg}");
    }

    #[test]
    fn delays_join_the_repertoire_only_when_configured() {
        let p = FaultPlan::new(5, 1.0).with_delay(Duration::from_millis(1));
        p.arm();
        let drew_delay = (0..256).any(|site| matches!(p.next_fault(site), Some(Fault::Delay(_))));
        assert!(drew_delay, "a rate-1.0 plan with delays draws one within 256 tries");

        let no_delay = plan(5, 1.0);
        assert!((0..256).all(|site| !matches!(no_delay.next_fault(site), Some(Fault::Delay(_)))));
    }
}
