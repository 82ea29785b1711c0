//! Crash injection and checker-certified recovery (DESIGN.md §15).
//!
//! The crash model is **kill at a flush boundary**: [`crate::Cluster::kill`]
//! pauses the runtime, flushes every engine's redo log, drains the
//! observability rings, and drops the cluster without checkpointing. The
//! next [`crate::ClusterBuilder::build`] against the same durable directory
//! finds the logs and runs the recovery protocol in `recover`. Torn-write
//! realism (a crash mid-`write(2)`) is covered separately at the codec
//! layer: `Wal::open` truncates any partial tail frame, and the proptests
//! in `chiller-storage` cut logs at every byte offset.
//!
//! Recovery is a pure function over the per-node state builders already
//! hold — primary stores (freshly loaded with the workload's initial
//! rows), replica stores, decoded checkpoints, and decoded logs — so it
//! runs before any engine actor exists and needs no runtime:
//!
//! 1. **checkpoint replace** — a node with a checkpoint restores it over
//!    the initial load (the snapshot carries the complete version map);
//! 2. **redo replay** — each node's `Redo` records apply version-exactly
//!    and idempotently (`PartitionStore::apply_redo`), in log order, which
//!    equals apply order because writers held exclusive locks/latches from
//!    read to apply;
//! 3. **in-doubt resolution** — for every transaction, the *last* `Decide`
//!    in its coordinator's log wins. `pending_inner: None` is a final
//!    commit decision; `pending_inner: Some(p)` is provisional and resolves
//!    against partition `p`'s log: the transaction committed iff that log
//!    carries `InnerCommit` — the inner host's unilateral commit IS the
//!    decision for two-region transactions (paper §3.3). Without either,
//!    the attempt aborted and left nothing to undo (writes are buffered at
//!    the coordinator until the decision);
//! 4. **repair** — a committed transaction's `DecideWrite` is applied at
//!    its home partition unless that partition's own log already has a
//!    `Redo` covering the same `(txn, record)` (the participant applied
//!    and logged atomically). Repairs are safe to apply *after* replay:
//!    a participant that never applied the write still held the
//!    transaction's exclusive lock at the crash, so no later committed
//!    writer to that record can exist in its log;
//! 5. **re-home** — records found on a partition the restart placement
//!    does not route to them (live migrations completed before the crash)
//!    move back to their placement home, version chain intact, so routing
//!    is consistent from the first post-restart transaction;
//! 6. **replica re-sync** — every replica store is rebuilt from its
//!    recovered primary, which subsumes replaying replication traffic.
//!
//! The builder then writes a fresh checkpoint per node, truncates the
//! logs, and bumps the epoch file; engines start their transaction
//! sequence at `epoch << 32` so post-restart `TxnId`s can never collide
//! with pre-crash ones (read-only transactions leave no log trace, so
//! scanning for the max used sequence would not suffice).

use chiller_common::ids::{PartitionId, RecordId, TxnId};
use chiller_common::time::Duration;
use chiller_common::value::Row;
use chiller_obs::History;
use chiller_storage::placement::Placement;
use chiller_storage::store::{PartitionStore, ReplicaStore};
use chiller_storage::wal::{RedoOp, WalRecord};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Deterministic mid-run kill points for the crash-injection harness.
///
/// The plan is pure (seed in, offsets out): the same seed produces the
/// same kill schedule on every backend, and the points land in the middle
/// 20%–80% of the run window so the cluster dies under load rather than
/// at the edges.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    pub seed: u64,
}

impl CrashPlan {
    pub fn new(seed: u64) -> Self {
        CrashPlan { seed }
    }

    /// Kill offset for crash `i` within a window of length `window`.
    pub fn kill_point(&self, i: u32, window: Duration) -> Duration {
        let h = splitmix64(self.seed ^ ((u64::from(i) + 1) << 32));
        // Map to [0.2, 0.8) of the window.
        let frac = 0.2 + 0.6 * ((h >> 11) as f64 / (1u64 << 53) as f64);
        Duration::from_nanos((window.as_nanos() as f64 * frac) as u64)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What [`crate::Cluster::kill`] hands back: everything the pre-crash
/// incarnation acked, for certifying the recovered one against.
pub struct CrashSnapshot {
    /// The full drained observation history up to the kill (empty when
    /// checking was off). Checking it with `chiller_checker` certifies
    /// the pre-crash execution; its commit markers are the acked set the
    /// recovered state must contain.
    pub history: History,
    /// Commits acked before the kill, per procedure name.
    pub commits_by_proc: BTreeMap<String, u64>,
    /// Total commits acked before the kill.
    pub total_commits: u64,
}

/// What recovery found and did, per [`crate::ClusterBuilder::build`] on a
/// durable directory with surviving state.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Restart epoch (1 for the first recovery); engines mint `TxnId`s
    /// from `epoch << 32`.
    pub epoch: u64,
    /// Nodes restored from a checkpoint before replay.
    pub checkpoints_restored: usize,
    /// Log records scanned across all nodes.
    pub records_scanned: u64,
    /// Redo writes applied during replay (idempotent skips excluded).
    pub writes_replayed: u64,
    /// Decided transactions with no `Ack` in the log (resolution ran).
    pub in_doubt: u64,
    /// In-doubt transactions resolved as committed.
    pub in_doubt_committed: u64,
    /// In-doubt transactions resolved as aborted (provisional decision,
    /// no `InnerCommit` at the inner host).
    pub in_doubt_aborted: u64,
    /// Writes of committed transactions applied at participants whose own
    /// log never recorded them.
    pub writes_repaired: u64,
    /// Records moved back to their placement home (completed live
    /// migrations whose directory state died with the control plane).
    pub records_rehomed: u64,
    /// Commits recovered without an `Ack`, per procedure name — these
    /// never counted in the pre-crash metrics, so commit-counting
    /// invariants (SmallBank conservation) must accept them as extras.
    pub recovered_unacked: BTreeMap<String, u64>,
}

impl RecoveryReport {
    /// Total commits recovered that the pre-crash run never acked.
    pub fn total_recovered_unacked(&self) -> u64 {
        self.recovered_unacked.values().sum()
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery epoch {}: {} checkpoints, {} records scanned, {} writes replayed, \
             {} in-doubt ({} committed / {} aborted), {} repaired, {} re-homed, {} unacked commits recovered",
            self.epoch,
            self.checkpoints_restored,
            self.records_scanned,
            self.writes_replayed,
            self.in_doubt,
            self.in_doubt_committed,
            self.in_doubt_aborted,
            self.writes_repaired,
            self.records_rehomed,
            self.total_recovered_unacked(),
        )
    }
}

/// Run steps 2–6 of the recovery protocol (checkpoint restore, step 1,
/// happens in the builder before this call because it owns the snapshot
/// buffers). See the module docs for the protocol and its soundness
/// argument.
pub(crate) fn recover(
    primaries: &mut [PartitionStore],
    replicas: &mut [chiller_common::hash::IntMap<PartitionId, ReplicaStore>],
    logs: &[Vec<WalRecord>],
    placement: &dyn Placement,
    report: &mut RecoveryReport,
) {
    let nodes = primaries.len();
    // Pass 1: replay redo records in log order and index the decision
    // state (last Decide per txn, Ack set, InnerCommit set, and which
    // `(txn, record)` writes each partition's own log covers).
    let mut redo_writes: Vec<HashSet<(TxnId, RecordId)>> = vec![HashSet::new(); nodes];
    let mut inner_commits: Vec<HashSet<TxnId>> = vec![HashSet::new(); nodes];
    let mut last_decide: HashMap<TxnId, (usize, usize)> = HashMap::new();
    let mut acked: HashSet<TxnId> = HashSet::new();
    for (n, log) in logs.iter().enumerate() {
        for (i, rec) in log.iter().enumerate() {
            report.records_scanned += 1;
            match rec {
                WalRecord::Redo { txn, writes } => {
                    for w in writes {
                        redo_writes[n].insert((*txn, w.record));
                        if primaries[n].apply_redo(w) {
                            report.writes_replayed += 1;
                        }
                    }
                }
                WalRecord::Decide { txn, .. } => {
                    last_decide.insert(*txn, (n, i));
                }
                WalRecord::InnerCommit { txn } => {
                    inner_commits[n].insert(*txn);
                }
                WalRecord::Ack { txn } => {
                    acked.insert(*txn);
                }
            }
        }
    }

    // Pass 2: resolve decisions and repair participants. Deterministic
    // iteration order (BTreeMap over txn id) so recovery itself is
    // reproducible.
    let decides: BTreeMap<TxnId, (usize, usize)> = last_decide.into_iter().collect();
    for (txn, (n, i)) in decides {
        let WalRecord::Decide {
            proc,
            pending_inner,
            writes,
            ..
        } = &logs[n][i]
        else {
            unreachable!("indexed a non-Decide record");
        };
        let was_acked = acked.contains(&txn);
        let committed = match pending_inner {
            None => true,
            Some(p) => inner_commits.get(p.idx()).is_some_and(|s| s.contains(&txn)),
        };
        if !was_acked {
            report.in_doubt += 1;
            if !committed {
                report.in_doubt_aborted += 1;
                continue;
            }
        }
        if !committed {
            // An acked transaction always has a final decision in the log
            // (the Ack is appended after it, same engine); a provisional
            // decision surviving as the last one implies no Ack.
            continue;
        }
        for w in writes {
            let p = w.partition.idx();
            if p >= nodes || redo_writes[p].contains(&(txn, w.record)) {
                continue;
            }
            // The participant never applied this write (no redo logged):
            // apply it now with a natural version bump — its lock was
            // still held at the crash, so no later writer exists here.
            match &w.op {
                RedoOp::Put(row) | RedoOp::Insert(row) => {
                    primaries[p].write(w.record, row.clone());
                }
                RedoOp::Delete => {
                    let _ = primaries[p].delete(w.record);
                }
            }
            report.writes_repaired += 1;
        }
        if !was_acked {
            report.in_doubt_committed += 1;
            *report.recovered_unacked.entry(proc.clone()).or_insert(0) += 1;
        }
    }

    // Pass 3: re-home records that completed a live migration before the
    // crash. The adaptive directory died with the control plane, so the
    // restart routes by the base placement; a record left at its
    // migration destination would be unreachable (and its absence at the
    // placement home would read as a logic fault, not a conflict).
    let mut moves: Vec<(usize, usize, RecordId, Row, u64)> = Vec::new();
    for (n, store) in primaries.iter().enumerate() {
        for (table, ts) in store.tables() {
            for (key, row) in ts.iter() {
                let rid = RecordId::new(*table, *key);
                let home = placement.partition_of(rid).idx();
                if home != n && home < nodes {
                    moves.push((n, home, rid, row.clone(), store.record_version(rid)));
                }
            }
        }
    }
    for (from, home, rid, row, version) in moves {
        let _ = primaries[from].delete(rid);
        primaries[home].write(rid, row);
        // Continue the migrated chain exactly: the carried version is the
        // highest this record ever committed anywhere.
        primaries[home].set_record_version(rid, version);
        report.records_rehomed += 1;
    }

    // Pass 4: replica re-sync from the recovered primaries — byte-for-byte
    // copies, subsuming any replication traffic the crash swallowed.
    let snapshots: Vec<_> = primaries.iter().map(PartitionStore::snapshot).collect();
    for holder in replicas.iter_mut() {
        for (p, store) in holder.iter_mut() {
            store.restore(&snapshots[p.idx()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_points_are_deterministic_and_mid_window() {
        let plan = CrashPlan::new(42);
        let w = Duration::from_millis(100);
        let a = plan.kill_point(0, w);
        let b = plan.kill_point(0, w);
        assert_eq!(a, b);
        let lo = Duration::from_millis(20);
        let hi = Duration::from_millis(80);
        for i in 0..16 {
            let k = plan.kill_point(i, w);
            assert!(k >= lo && k < hi, "kill point {k:?} outside [20ms, 80ms)");
        }
        // Different seeds give different schedules.
        assert_ne!(
            CrashPlan::new(1).kill_point(0, w),
            CrashPlan::new(2).kill_point(0, w)
        );
    }
}
