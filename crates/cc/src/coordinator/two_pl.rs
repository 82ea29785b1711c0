//! Traditional distributed 2PL + 2PC with NO_WAIT — the paper's
//! pessimistic baseline (Figure 3a).
//!
//! Waves issue combined lock+read verbs; once every op holds its lock,
//! commit write-backs + unlocks go out with the prepare piggybacked,
//! alongside replication to each written partition's replicas. Everything
//! here delegates to the shared lock-based machinery — 2PL *is* the
//! single-region special case.

use super::{drive, lock_based, Coord, CoordinatorProtocol};
use crate::engine::EngineActor;
use crate::msg::Msg;
use crate::protocol::Protocol;
use chiller_common::ids::{NodeId, OpId, PartitionId, TxnId};
use chiller_simnet::Ctx;

/// Strategy singleton for [`Protocol::TwoPhaseLocking`].
pub struct TwoPlCoordinator;

impl CoordinatorProtocol for TwoPlCoordinator {
    fn protocol(&self) -> Protocol {
        Protocol::TwoPhaseLocking
    }

    fn wave_message(
        &self,
        coord: &Coord,
        txn: TxnId,
        req: u64,
        ops: &[(PartitionId, OpId)],
    ) -> Msg {
        lock_based::lock_read_message(coord, txn, req, ops)
    }

    fn on_waves_complete(
        &self,
        eng: &mut EngineActor,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        coord: &mut Coord,
    ) {
        // Every lock is held: write back, unlock, replicate (prepare is
        // piggybacked on the last execution round — Figure 3a).
        lock_based::commit_locked(eng, ctx, txn, coord);
    }

    fn on_response(
        &self,
        eng: &mut EngineActor,
        ctx: &mut Ctx<'_, Msg>,
        _src: NodeId,
        txn: TxnId,
        coord: &mut Coord,
        msg: Msg,
    ) {
        match msg {
            Msg::LockReadResp {
                req,
                granted,
                conflict: _,
                missing,
                stale,
                rows,
                ..
            } => {
                lock_based::absorb_lock_read_resp(
                    eng, ctx, coord, req, granted, missing, stale, rows,
                );
                drive(eng, ctx, txn, coord);
            }
            Msg::CommitOuterAck { .. } | Msg::ReplicateAck { .. } => {
                lock_based::absorb_commit_phase_ack(eng, ctx, txn, coord);
            }
            other => {
                debug_assert!(false, "2PL coordinator received {other:?}");
            }
        }
    }
}
