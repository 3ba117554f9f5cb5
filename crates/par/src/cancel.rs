//! Cooperative cancellation and deadlines.
//!
//! A [`CancelToken`] is the one cancellation currency used across the
//! workspace: the sweep scheduler and the archive reader's tile loops both
//! accept one and poll it at work-item granularity (a tile, a sweep cell).
//! Polling costs one relaxed atomic load on the fast path — once a deadline
//! has been observed as expired the token latches, so only the first expired
//! check pays for `Instant::now`.
//!
//! Tokens are `Clone` (an `Arc` bump) and every clone observes the same
//! cancelled state, so one token can fan out to any number of workers and a
//! single [`CancelToken::cancel`] stops all of them at their next check.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheap, cloneable cancellation handle checked at work-item granularity.
///
/// ```
/// use lcc_par::CancelToken;
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
///
/// let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
/// assert!(expired.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own; only [`CancelToken::cancel`]
    /// trips it.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that trips once `deadline` passes (or when cancelled
    /// explicitly, whichever comes first).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner { cancelled: AtomicBool::new(false), deadline: Some(deadline) }),
        }
    }

    /// A token that trips `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Trip the token explicitly; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// The deadline this token was created with, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// True once the token has been cancelled or its deadline has passed.
    ///
    /// Latching: after the deadline is first observed as expired the state
    /// is stored in the atomic flag, so subsequent checks are a single load.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live_and_cancel_latches() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_none());
        token.cancel();
        assert!(token.is_cancelled());
        assert!(token.is_cancelled(), "cancellation is permanent");
    }

    #[test]
    fn clones_share_state() {
        let token = CancelToken::new();
        let observer = token.clone();
        assert!(!observer.is_cancelled());
        token.cancel();
        assert!(observer.is_cancelled());
    }

    #[test]
    fn expired_deadline_trips_and_latches() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        // The latch is observable through a clone that never called
        // `is_cancelled` itself.
        assert!(token.clone().is_cancelled());
    }

    #[test]
    fn future_deadline_does_not_trip_early() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_some());
    }
}
