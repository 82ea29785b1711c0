//! Shared/exclusive lock words with NO_WAIT semantics.
//!
//! Each bucket embeds one [`LockState`] (§6: "each bucket encapsulates its
//! own lock"). Under NO_WAIT, a conflicting request fails immediately and the
//! requesting transaction aborts — which makes deadlock impossible (§3.1).
//!
//! The lock also remembers *when* each holder acquired it so the storage
//! layer can report per-record **contention spans** (the thick blue lines of
//! the paper's Figure 3).

use chiller_common::ids::TxnId;
use chiller_common::time::{Duration, SimTime};

/// Requested access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// Embedded lock word. Holder lists are tiny (NO_WAIT keeps queues empty, and
/// shared holder counts are bounded by engine concurrency), so a `Vec` with
/// linear scans beats a hash set here.
///
/// Every bucket embeds one, so the word is kept to three machine words: an
/// exclusive holder or a lone reader sits inline, and only a bucket that
/// sees two concurrent readers allocates the holder list — which it then
/// keeps, empty or not, so a hot read-mostly record does not reallocate it
/// on every overlap.
#[derive(Debug, Clone, Default)]
pub struct LockState(Holders);

#[derive(Debug, Clone, Default)]
enum Holders {
    #[default]
    Free,
    Exclusive(TxnId, SimTime),
    /// One shared holder, inline.
    Shared(TxnId, SimTime),
    /// Shared holders of a bucket that has had two at once (possibly
    /// none now: an empty list is a free lock).
    SharedMany(Vec<(TxnId, SimTime)>),
}

/// Outcome of a release, reporting how long the lock was held — the record's
/// contention span contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Released {
    pub held_for: Duration,
    pub mode: LockMode,
}

impl LockState {
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no transaction holds the lock in any mode.
    pub fn is_free(&self) -> bool {
        match &self.0 {
            Holders::Free => true,
            Holders::SharedMany(v) => v.is_empty(),
            Holders::Exclusive(..) | Holders::Shared(..) => false,
        }
    }

    /// True if `txn` holds the lock in any mode.
    pub fn holds(&self, txn: TxnId) -> bool {
        match &self.0 {
            Holders::Free => false,
            Holders::Exclusive(t, _) | Holders::Shared(t, _) => *t == txn,
            Holders::SharedMany(v) => v.iter().any(|&(t, _)| t == txn),
        }
    }

    /// Current exclusive holder, if any.
    pub fn exclusive_holder(&self) -> Option<TxnId> {
        match self.0 {
            Holders::Exclusive(t, _) => Some(t),
            _ => None,
        }
    }

    /// Number of shared holders.
    pub fn shared_count(&self) -> usize {
        match &self.0 {
            Holders::Free | Holders::Exclusive(..) => 0,
            Holders::Shared(..) => 1,
            Holders::SharedMany(v) => v.len(),
        }
    }

    /// Attempt to acquire under NO_WAIT. Returns `true` iff granted.
    ///
    /// Re-entrant acquisitions by the same transaction succeed without
    /// changing state; an upgrade (shared → exclusive) succeeds only when the
    /// requester is the sole shared holder.
    pub fn try_acquire(&mut self, txn: TxnId, mode: LockMode, now: SimTime) -> bool {
        match (&mut self.0, mode) {
            // An exclusive holder may also read its own lock.
            (Holders::Exclusive(holder, _), _) => *holder == txn,
            (Holders::Free, LockMode::Shared) => {
                self.0 = Holders::Shared(txn, now);
                true
            }
            (Holders::Free, LockMode::Exclusive) => {
                self.0 = Holders::Exclusive(txn, now);
                true
            }
            (Holders::Shared(holder, since), LockMode::Shared) => {
                if *holder != txn {
                    let mut v = Vec::with_capacity(4);
                    v.push((*holder, *since));
                    v.push((txn, now));
                    self.0 = Holders::SharedMany(v);
                }
                true
            }
            (Holders::SharedMany(v), LockMode::Shared) => {
                if !v.iter().any(|&(t, _)| t == txn) {
                    v.push((txn, now));
                }
                true
            }
            // Upgrade path: sole shared holder is the requester (the span
            // counts from the shared acquisition).
            (Holders::Shared(holder, since), LockMode::Exclusive) => {
                if *holder != txn {
                    return false;
                }
                self.0 = Holders::Exclusive(txn, *since);
                true
            }
            (Holders::SharedMany(v), LockMode::Exclusive) => match v.as_slice() {
                [] => {
                    self.0 = Holders::Exclusive(txn, now);
                    true
                }
                [(holder, since)] if *holder == txn => {
                    self.0 = Holders::Exclusive(txn, *since);
                    true
                }
                _ => false,
            },
        }
    }

    /// Release whatever `txn` holds. Returns `None` when `txn` held nothing
    /// (releases are idempotent — abort paths may release eagerly).
    pub fn release(&mut self, txn: TxnId, now: SimTime) -> Option<Released> {
        let (since, mode) = match &mut self.0 {
            Holders::Exclusive(holder, since) if *holder == txn => {
                let since = *since;
                self.0 = Holders::Free;
                (since, LockMode::Exclusive)
            }
            Holders::Shared(holder, since) if *holder == txn => {
                let since = *since;
                self.0 = Holders::Free;
                (since, LockMode::Shared)
            }
            Holders::SharedMany(v) => {
                let pos = v.iter().position(|&(t, _)| t == txn)?;
                (v.swap_remove(pos).1, LockMode::Shared)
            }
            _ => return None,
        };
        Some(Released {
            held_for: now.saturating_since(since),
            mode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::NodeId;

    fn t(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    const T0: SimTime = SimTime(0);

    #[test]
    fn shared_locks_are_compatible() {
        let mut l = LockState::new();
        assert!(l.try_acquire(t(1), LockMode::Shared, T0));
        assert!(l.try_acquire(t(2), LockMode::Shared, T0));
        assert_eq!(l.shared_count(), 2);
    }

    #[test]
    fn exclusive_blocks_everyone_else() {
        let mut l = LockState::new();
        assert!(l.try_acquire(t(1), LockMode::Exclusive, T0));
        assert!(!l.try_acquire(t(2), LockMode::Exclusive, T0));
        assert!(!l.try_acquire(t(2), LockMode::Shared, T0));
    }

    #[test]
    fn shared_blocks_exclusive_from_others() {
        let mut l = LockState::new();
        assert!(l.try_acquire(t(1), LockMode::Shared, T0));
        assert!(!l.try_acquire(t(2), LockMode::Exclusive, T0));
    }

    #[test]
    fn reentrant_acquire_is_noop_success() {
        let mut l = LockState::new();
        assert!(l.try_acquire(t(1), LockMode::Exclusive, T0));
        assert!(l.try_acquire(t(1), LockMode::Exclusive, T0));
        assert!(l.try_acquire(t(1), LockMode::Shared, T0));
        assert!(l.release(t(1), SimTime(5)).is_some());
        assert!(l.is_free());
    }

    #[test]
    fn upgrade_succeeds_when_sole_holder() {
        let mut l = LockState::new();
        assert!(l.try_acquire(t(1), LockMode::Shared, T0));
        assert!(l.try_acquire(t(1), LockMode::Exclusive, SimTime(10)));
        assert_eq!(l.exclusive_holder(), Some(t(1)));
        // Span counts from the original shared acquisition.
        let rel = l.release(t(1), SimTime(30)).unwrap();
        assert_eq!(rel.held_for, Duration(30));
    }

    #[test]
    fn upgrade_fails_with_other_readers() {
        let mut l = LockState::new();
        assert!(l.try_acquire(t(1), LockMode::Shared, T0));
        assert!(l.try_acquire(t(2), LockMode::Shared, T0));
        assert!(!l.try_acquire(t(1), LockMode::Exclusive, T0));
    }

    #[test]
    fn release_reports_span_and_mode() {
        let mut l = LockState::new();
        l.try_acquire(t(1), LockMode::Exclusive, SimTime(100));
        let r = l.release(t(1), SimTime(350)).unwrap();
        assert_eq!(r.held_for, Duration(250));
        assert_eq!(r.mode, LockMode::Exclusive);
    }

    #[test]
    fn release_is_idempotent() {
        let mut l = LockState::new();
        l.try_acquire(t(1), LockMode::Shared, T0);
        assert!(l.release(t(1), T0).is_some());
        assert!(l.release(t(1), T0).is_none());
        assert!(l.release(t(9), T0).is_none());
    }

    #[test]
    fn holds_reflects_both_modes() {
        let mut l = LockState::new();
        l.try_acquire(t(1), LockMode::Shared, T0);
        l.try_acquire(t(2), LockMode::Shared, T0);
        assert!(l.holds(t(1)) && l.holds(t(2)) && !l.holds(t(3)));
    }

    #[test]
    fn freed_lock_grants_again() {
        let mut l = LockState::new();
        l.try_acquire(t(1), LockMode::Exclusive, T0);
        l.release(t(1), SimTime(10));
        assert!(l.try_acquire(t(2), LockMode::Exclusive, SimTime(10)));
    }
}
