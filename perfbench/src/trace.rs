//! Folding a traced run's event stream into per-layer numbers, one drained
//! window at a time so the events never all sit in memory at once.

use chiller::prelude::{NodeId, TraceLog, TxnId};
use chiller_common::metrics::Histogram;
use chiller_obs::EventKind;
use std::collections::{HashMap, VecDeque};

/// A remote hop's identity: transaction, source, destination, message kind.
type HopKey = (TxnId, NodeId, NodeId, &'static str);

/// What the traced run's events add up to.
#[derive(Default)]
pub struct TraceStats {
    /// Events folded in.
    pub events: u64,
    /// Events the engines' trace rings dropped.
    pub dropped: u64,
    /// Sum of `TxnRetry.backoff_ns`.
    pub backoff_ns: u64,
    /// `SendHop` → matching `RecvHop` delay, ns: mailbox queueing plus
    /// scheduling. Only coordinator requests (lock waves, `exec_inner`)
    /// record a `SendHop`, so only those hops are timed.
    pub hop_ns: Histogram,
    /// Receives with no traced send: replies, commit and replication
    /// messages, which record only their `RecvHop`.
    pub unmatched_recvs: u64,
    /// Sends still waiting for their receive, FIFO per hop identity.
    pending: HashMap<HopKey, VecDeque<u64>>,
}

impl TraceStats {
    /// Forget sends still waiting for a receive: the next episode is a
    /// new cluster whose transaction ids start over.
    pub fn end_episode(&mut self) {
        self.pending.clear();
    }

    /// Fold in one drained window. A receive always follows its send, so
    /// its send is in this window or an earlier one: sends are queued
    /// first, then receives matched in timestamp order.
    pub fn add(&mut self, log: &TraceLog) {
        self.events += log.events.len() as u64;
        self.dropped += log.dropped;
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for ev in &log.events {
            match ev.kind {
                EventKind::TxnRetry { backoff_ns, .. } => self.backoff_ns += backoff_ns,
                EventKind::SendHop { txn, dst, label } => {
                    sends.push((ev.ts, (txn, ev.node, dst, label)));
                }
                EventKind::RecvHop { txn, src, label } => {
                    recvs.push((ev.ts, (txn, src, ev.node, label)));
                }
                _ => {}
            }
        }
        sends.sort_by_key(|&(ts, _)| ts);
        recvs.sort_by_key(|&(ts, _)| ts);
        for (ts, key) in sends {
            self.pending.entry(key).or_default().push_back(ts);
        }
        for (ts, key) in recvs {
            let sent = match self.pending.get_mut(&key) {
                Some(queue) => {
                    let sent = queue.pop_front();
                    if queue.is_empty() {
                        self.pending.remove(&key);
                    }
                    sent
                }
                None => None,
            };
            match sent {
                Some(sent) => self.hop_ns.record(ts.saturating_sub(sent)),
                None => self.unmatched_recvs += 1,
            }
        }
    }
}
