//! Distributed optimistic concurrency control — the paper's optimistic
//! baseline (MaaT-inspired; see DESIGN.md for the substitution note).
//!
//! Waves issue lock-free versioned reads; commit runs a parallel validate
//! round (latch the write set NO_WAIT, check that every observed version
//! is still current) followed by a decide round that applies writes and
//! releases latches — or, on validation failure, a release-only round
//! before the retry backoff.

use super::{abort_attempt, drive, finish_commit, Coord, CoordinatorProtocol, FailKind, Phase};
use crate::engine::EngineActor;
use crate::msg::{Msg, OccReadItem, ValidateItem};
use crate::protocol::Protocol;
use chiller_common::ids::{NodeId, OpId, PartitionId, RecordId, TxnId};
use chiller_common::metrics::AbortReason;
use chiller_common::value::Row;
use chiller_simnet::{Ctx, Verb};
use chiller_sproc::op::OpKind;
use std::sync::Arc;

/// Strategy singleton for [`Protocol::Occ`].
pub struct OccCoordinator;

impl CoordinatorProtocol for OccCoordinator {
    fn protocol(&self) -> Protocol {
        Protocol::Occ
    }

    fn wave_message(
        &self,
        coord: &Coord,
        txn: TxnId,
        req: u64,
        ops: &[(PartitionId, OpId)],
    ) -> Msg {
        Msg::OccRead {
            txn,
            req,
            items: ops
                .iter()
                .map(|&(_, id)| {
                    let op = coord.proc.op(id);
                    OccReadItem {
                        op: id,
                        record: coord.ops[id.idx()]
                            .record
                            .expect("resolved before dispatch"),
                        want_row: op.kind.produces_output(),
                    }
                })
                .collect(),
        }
    }

    fn on_waves_complete(
        &self,
        eng: &mut EngineActor,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        coord: &mut Coord,
    ) {
        send_validate(eng, ctx, txn, coord);
    }

    fn on_response(
        &self,
        eng: &mut EngineActor,
        ctx: &mut Ctx<'_, Msg>,
        src: NodeId,
        txn: TxnId,
        coord: &mut Coord,
        msg: Msg,
    ) {
        match msg {
            Msg::OccReadResp { rows, .. } => {
                absorb_occ_read_resp(eng, ctx, coord, rows);
                drive(eng, ctx, txn, coord);
            }
            Msg::OccValidateResp { ok, .. } => {
                on_validate_resp(eng, ctx, src, txn, coord, ok);
            }
            Msg::OccDecideAck { .. } => {
                coord.pending = coord.pending.saturating_sub(1);
                if coord.pending == 0 {
                    match coord.phase {
                        Phase::Committing => finish_commit(eng, ctx, txn, coord),
                        Phase::Aborting => abort_attempt(eng, ctx, txn, coord),
                        _ => {}
                    }
                }
            }
            Msg::ReplicateAck { .. } => {
                coord.pending = coord.pending.saturating_sub(1);
                if coord.pending == 0 && coord.phase == Phase::Committing {
                    finish_commit(eng, ctx, txn, coord);
                }
            }
            other => {
                debug_assert!(false, "OCC coordinator received {other:?}");
            }
        }
    }
}

/// Absorb one lock-free versioned read response.
fn absorb_occ_read_resp(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    coord: &mut Coord,
    rows: Vec<(OpId, Option<Row>, u64)>,
) {
    coord.pending -= 1;
    ctx.use_cpu(eng.op_cpu());
    let proc = Arc::clone(&coord.proc);
    for (op_id, row, version) in rows {
        let st = &mut coord.ops[op_id.idx()];
        st.responded = true;
        st.version = version;
        match (row, &proc.op(op_id).kind) {
            (Some(r), OpKind::Read { .. }) => {
                coord.ops[op_id.idx()].raw_row = Some(r.clone());
                coord.exec.set_output(op_id, r);
            }
            (Some(r), OpKind::Update(_)) => {
                coord.ops[op_id.idx()].raw_row = Some(r);
            }
            (None, OpKind::Insert(_)) => {}
            (Some(_), OpKind::Insert(_)) => {
                coord.failed = Some(FailKind::Logic); // duplicate key
            }
            (Some(r), OpKind::Delete) => {
                coord.ops[op_id.idx()].raw_row = Some(r);
            }
            (None, OpKind::Delete) => {} // validated by version at commit
            (None, _) => {
                coord.failed = Some(FailKind::Logic); // record missing
            }
        }
    }
}

/// Collect the write-set's records into `coord.write_rids`, ascending and
/// distinct, for membership tests by binary search.
fn collect_write_rids(coord: &mut Coord) {
    coord.write_rids.clear();
    coord
        .write_rids
        .extend(coord.writes.iter().map(|(_, w)| w.record));
    coord.write_rids.sort_unstable();
    coord.write_rids.dedup();
}

/// Parallel validation round: per touched partition (ascending), latch the
/// write set and check read versions. Each partition's items follow
/// procedure order, one per distinct record.
fn send_validate(eng: &mut EngineActor, ctx: &mut Ctx<'_, Msg>, txn: TxnId, coord: &mut Coord) {
    ctx.use_cpu(eng.txn_cpu());
    coord.phase = Phase::Validating;
    coord.pending = 0;
    coord.validated_ok.clear();
    collect_write_rids(coord);
    for pi in 0..coord.participants.len() {
        let part = coord.participants[pi];
        let on_part = || {
            coord
                .ops
                .iter()
                .filter(move |st| st.partition == Some(part))
                .filter_map(|st| st.record.map(|rid| (rid, st.version)))
        };
        let mut items: Vec<ValidateItem> = Vec::with_capacity(on_part().count());
        for (rid, version) in on_part() {
            if items.iter().any(|it| it.record == rid) {
                continue;
            }
            items.push(ValidateItem {
                record: rid,
                version,
                is_write: coord.write_rids.binary_search(&rid).is_ok(),
            });
        }
        if items.is_empty() {
            continue;
        }
        let target = NodeId(part.0);
        if target != eng.node && eng.tracer.full() {
            eng.tracer.record(
                ctx.now().as_nanos(),
                eng.node,
                chiller_obs::EventKind::SendHop {
                    txn,
                    dst: target,
                    label: "occ_validate",
                },
            );
        }
        ctx.send(target, Verb::OneSided, Msg::OccValidate { txn, items });
        coord.pending += 1;
    }
    if coord.pending == 0 {
        finish_commit(eng, ctx, txn, coord);
    }
}

/// One partition's validation verdict; once all are in, run the decide
/// round (or abort if nothing needs releasing).
fn on_validate_resp(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    src: NodeId,
    txn: TxnId,
    coord: &mut Coord,
    ok: bool,
) {
    ctx.use_cpu(eng.op_cpu());
    coord.pending -= 1;
    if ok {
        coord.validated_ok.push(PartitionId(src.0));
    } else {
        coord.failed = Some(FailKind::Transient(AbortReason::OccValidation));
    }
    if coord.pending > 0 {
        return;
    }
    let commit = coord.failed.is_none();
    occ_decide(eng, ctx, txn, coord, commit);
    if !commit && coord.pending == 0 {
        abort_attempt(eng, ctx, txn, coord);
    }
}

/// Decide round after all validation responses are in: on commit, ship
/// writes + latch releases to every participant (and replicate); on
/// abort, release latches held by the partitions that validated OK.
fn occ_decide(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
    commit: bool,
) {
    coord.phase = if commit {
        Phase::Committing
    } else {
        Phase::Aborting
    };
    coord.pending = 0;
    if commit {
        // Commit point: log the decision before shipping writes/latch
        // releases, mirroring the lock-based commit path.
        super::log_decide(eng, txn, coord, None);
        // Group by partition; the stable sort keeps each partition's
        // writes in buffered order.
        coord.writes.sort_by_key(|(p, _)| *p);
    }
    collect_write_rids(coord);
    // Commit: every participant, ascending. Abort: the partitions holding
    // latches, in the order they validated.
    let targets = if commit {
        coord.participants.len()
    } else {
        coord.validated_ok.len()
    };
    for ti in 0..targets {
        let part = if commit {
            coord.participants[ti]
        } else {
            coord.validated_ok[ti]
        };
        let writes: Arc<[crate::msg::WriteItem]> = if commit {
            let start = coord.writes.partition_point(|(p, _)| *p < part);
            let end = coord.writes.partition_point(|(p, _)| *p <= part);
            if start == end {
                Arc::default()
            } else {
                coord.writes[start..end]
                    .iter()
                    .map(|(_, w)| w.clone())
                    .collect()
            }
        } else {
            Arc::default()
        };
        let mut latched: Vec<RecordId> = coord
            .ops
            .iter()
            .filter(|st| st.partition == Some(part))
            .filter_map(|st| st.record)
            .filter(|r| coord.write_rids.binary_search(r).is_ok())
            .collect();
        latched.sort_unstable();
        latched.dedup();
        if commit && !writes.is_empty() {
            for replica in eng.replica_nodes(part) {
                ctx.send(
                    replica,
                    Verb::Rpc,
                    Msg::Replicate {
                        txn,
                        partition: part,
                        writes: Arc::clone(&writes),
                        ack_coordinator: true,
                    },
                );
                coord.pending += 1;
            }
        }
        if !commit && latched.is_empty() {
            continue;
        }
        ctx.send(
            NodeId(part.0),
            Verb::OneSided,
            Msg::OccDecide {
                txn,
                commit,
                writes,
                latched,
            },
        );
        coord.pending += 1;
    }
    if coord.pending == 0 && commit {
        finish_commit(eng, ctx, txn, coord);
    }
}
