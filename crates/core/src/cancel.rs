//! Cooperative cancellation and deadlines for long-running phase drivers.
//!
//! ECO sessions replay edits under deadline pressure: a replay that blows
//! its budget must stop *cleanly*, with the session's transactional undo
//! log restoring the pre-edit state bit for bit. The phase drivers
//! (Phase I's deletion and A* connection loops, Phase II's region
//! worklist, Phase III's refinement passes) poll a shared [`CancelToken`]
//! at loop granularity and bail out with
//! [`CoreError::Canceled`](crate::CoreError);
//! they never leave partial state behind that the caller cannot undo,
//! because every mutation either happens in a worker-local scratch or is
//! covered by the session's undo log.
//!
//! Tokens are cheap to clone (an `Arc` around an atomic flag plus an
//! optional deadline) and can be fired from another thread or implicitly
//! by the deadline passing.

use crate::{CoreError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cancellation handle: explicit [`CancelToken::cancel`] or an
/// absolute deadline, whichever fires first.
///
/// # Example
///
/// ```
/// use gsino_core::cancel::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(token.check("demo").is_ok());
/// token.cancel();
/// assert!(token.check("demo").is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A live token with no deadline; cancel it with [`Self::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A token that additionally fires once `budget` has elapsed.
    pub fn with_deadline(budget: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + budget)
    }

    /// A token that fires at an absolute instant — what the routing
    /// service uses to honour per-request deadlines measured from
    /// *submission*, not from whenever a batch starts executing.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// The absolute deadline this token fires at, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// A token that can never fire. Each phase has one implementation
    /// that takes a token; [`crate::pipeline::run_gsino`], the baselines
    /// and the plain entries ([`crate::router::IdRouter::route`],
    /// [`crate::router::AstarRouter::route`],
    /// [`crate::phase2::solve_regions_with_engine`],
    /// [`crate::refine::refine`]) pass this one, so a poll costs one
    /// branch off the session path.
    pub fn never() -> Self {
        CancelToken { inner: None }
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Release);
        }
    }

    /// Whether the token has fired (explicitly or by deadline).
    pub fn is_canceled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.flag.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// Poll point for phase drivers: `Err(CoreError::Canceled)` naming the
    /// interrupted phase once the token fires.
    ///
    /// # Errors
    ///
    /// [`CoreError::Canceled`] if the token has fired.
    #[inline]
    pub fn check(&self, phase: &'static str) -> Result<()> {
        if self.is_canceled() {
            return Err(CoreError::Canceled { phase });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_fires() {
        let t = CancelToken::never();
        t.cancel();
        assert!(!t.is_canceled());
        assert!(t.check("x").is_ok());
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_canceled());
        t.cancel();
        assert!(clone.is_canceled());
        match clone.check("phase2") {
            Err(CoreError::Canceled { phase }) => assert_eq!(phase, "phase2"),
            other => panic!("expected Canceled, got {other:?}"),
        }
    }

    #[test]
    fn deadline_token_fires_after_budget() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_canceled());
        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert!(expired.is_canceled());
    }

    #[test]
    fn absolute_deadline_is_exposed() {
        let at = Instant::now() + Duration::from_secs(60);
        let t = CancelToken::with_deadline_at(at);
        assert_eq!(t.deadline(), Some(at));
        assert!(!t.is_canceled());
        assert_eq!(CancelToken::never().deadline(), None);
        assert_eq!(CancelToken::new().deadline(), None);
    }
}
