//! The mutable placement directory: a `LookupTable` whose hot entries can
//! be re-published at runtime.
//!
//! Routing contract (the "no record unreachable" invariant): every record
//! always resolves to exactly one partition — an explicit entry if present,
//! the default partitioner otherwise. Entry flips happen at a single
//! virtual-time instant inside the migration protocol (the re-publish step
//! runs only once the record's copy exists at the destination), so there is
//! never a moment where the directory routes to a partition that does not
//! hold the record and will not transparently retry it.

use chiller_common::hash::{IntMap, IntSet};
use chiller_common::ids::{PartitionId, RecordId};
use chiller_storage::placement::Placement;
use std::sync::{Arc, RwLock};

#[derive(Debug, Default)]
struct DirState {
    entries: IntMap<RecordId, PartitionId>,
    hot: IntSet<RecordId>,
}

/// Shared, mutable successor of the frozen §4.4 `LookupTable`: explicit
/// entries for (currently or formerly) hot records over a default
/// partitioner for everything else. All engines of a cluster share one
/// `Arc<Directory>`; mutation is only performed at deterministic points
/// (migration re-publish, epoch-boundary promotions/demotions), so runs
/// stay bit-reproducible.
pub struct Directory {
    default: Arc<dyn Placement + Send + Sync>,
    state: RwLock<DirState>,
}

impl Directory {
    pub fn new(
        default: Arc<dyn Placement + Send + Sync>,
        entries: impl IntoIterator<Item = (RecordId, PartitionId)>,
        hot: impl IntoIterator<Item = RecordId>,
    ) -> Self {
        Directory {
            default,
            state: RwLock::new(DirState {
                entries: entries.into_iter().collect(),
                hot: hot.into_iter().collect(),
            }),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, DirState> {
        self.state.read().expect("directory lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, DirState> {
        self.state.write().expect("directory lock poisoned")
    }

    /// Whether the record is currently flagged hot (drives the §3.3 region
    /// decision and the hot/cold contention histograms).
    pub fn is_hot(&self, record: RecordId) -> bool {
        self.read().hot.contains(&record)
    }

    /// The partition the default (fallback) partitioner assigns — the
    /// record's "home" when it carries no explicit entry.
    pub fn home_of(&self, record: RecordId) -> PartitionId {
        self.default.partition_of(record)
    }

    /// Re-publish a record's location after its copy has been installed at
    /// `to` (the migration protocol's flip). Dropping back to the default
    /// partition of a cooled record removes the entry entirely, shrinking
    /// the lookup table; otherwise the entry is set. Idempotent.
    pub fn relocate(&self, record: RecordId, to: PartitionId, hot_after: bool) {
        let mut st = self.write();
        if !hot_after && to == self.default.partition_of(record) {
            st.entries.remove(&record);
        } else {
            st.entries.insert(record, to);
        }
        if hot_after {
            st.hot.insert(record);
        } else {
            st.hot.remove(&record);
        }
    }

    /// Flag a record hot in place (it already lives on the right
    /// partition): pure metadata, no data movement. Idempotent.
    pub fn promote(&self, record: RecordId, at: PartitionId) {
        let mut st = self.write();
        st.entries.insert(record, at);
        st.hot.insert(record);
    }

    /// Remove the hot flag. The explicit entry is dropped only when it
    /// matches the record's default partition — a displaced entry must stay
    /// until a later plan migrates the record home, or routing would point
    /// at a partition that does not hold the record. Idempotent.
    pub fn demote(&self, record: RecordId) {
        let mut st = self.write();
        st.hot.remove(&record);
        if st.entries.get(&record) == Some(&self.default.partition_of(record)) {
            st.entries.remove(&record);
        }
    }

    /// Sorted snapshot of the explicit entries (planner diff + tests).
    pub fn entries_snapshot(&self) -> Vec<(RecordId, PartitionId)> {
        let mut v: Vec<(RecordId, PartitionId)> =
            self.read().entries.iter().map(|(r, p)| (*r, *p)).collect();
        v.sort();
        v
    }

    /// Sorted snapshot of the hot set.
    pub fn hot_snapshot(&self) -> Vec<RecordId> {
        let mut v: Vec<RecordId> = self.read().hot.iter().copied().collect();
        v.sort();
        v
    }
}

impl Placement for Directory {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        match self.read().entries.get(&record) {
            Some(p) => *p,
            None => self.default.partition_of(record),
        }
    }

    fn lookup_entries(&self) -> usize {
        self.read().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::TableId;
    use chiller_storage::placement::HashPlacement;

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    fn dir() -> Directory {
        Directory::new(Arc::new(HashPlacement::new(4)), [], [])
    }

    #[test]
    fn falls_back_to_default_without_entries() {
        let d = dir();
        let h = HashPlacement::new(4);
        for k in 0..100 {
            assert_eq!(d.partition_of(rid(k)), h.partition_of(rid(k)));
            assert!(!d.is_hot(rid(k)));
        }
        assert_eq!(d.lookup_entries(), 0);
    }

    #[test]
    fn relocate_republishes_and_flags_hot() {
        let d = dir();
        let r = rid(7);
        let target = PartitionId((d.home_of(r).0 + 1) % 4);
        d.relocate(r, target, true);
        assert_eq!(d.partition_of(r), target);
        assert!(d.is_hot(r));
        assert_eq!(d.lookup_entries(), 1);
    }

    #[test]
    fn relocate_home_cold_drops_entry() {
        let d = dir();
        let r = rid(7);
        d.relocate(r, PartitionId((d.home_of(r).0 + 1) % 4), true);
        d.relocate(r, d.home_of(r), false);
        assert_eq!(d.lookup_entries(), 0);
        assert!(!d.is_hot(r));
        assert_eq!(d.partition_of(r), d.home_of(r));
    }

    #[test]
    fn demote_keeps_displaced_entry_for_reachability() {
        let d = dir();
        let r = rid(3);
        let away = PartitionId((d.home_of(r).0 + 2) % 4);
        d.relocate(r, away, true);
        d.demote(r);
        assert!(!d.is_hot(r));
        // The record still physically lives at `away`: routing must follow.
        assert_eq!(d.partition_of(r), away);
        assert_eq!(d.lookup_entries(), 1);
    }

    #[test]
    fn mutations_are_idempotent() {
        let d = dir();
        let r = rid(11);
        let away = PartitionId((d.home_of(r).0 + 1) % 4);
        d.relocate(r, away, true);
        let snap = (d.entries_snapshot(), d.hot_snapshot());
        d.relocate(r, away, true);
        assert_eq!((d.entries_snapshot(), d.hot_snapshot()), snap);
        d.demote(r);
        let snap = (d.entries_snapshot(), d.hot_snapshot());
        d.demote(r);
        assert_eq!((d.entries_snapshot(), d.hot_snapshot()), snap);
    }

    #[test]
    fn promote_is_metadata_only() {
        let d = dir();
        let r = rid(5);
        let home = d.home_of(r);
        d.promote(r, home);
        assert!(d.is_hot(r));
        assert_eq!(d.partition_of(r), home);
    }
}
