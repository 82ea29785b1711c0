//! Fluent construction of stored procedures.
//!
//! Wraps the raw [`Op`] IR with convenience methods for the common shapes
//! (read by parameter, read-modify-write, insert with computed key, guards)
//! while still allowing fully custom operations via [`ProcedureBuilder::op`].
//! `build` runs the static analysis of §3.2 and fails on malformed
//! procedures.

use crate::exec::ExecState;
use crate::graph::DepGraph;
use crate::op::{Guard, KeyExpr, Op, OpKind, Procedure};
use chiller_common::error::Result;
use chiller_common::ids::{OpId, TableId};
use chiller_common::value::Row;
use std::sync::Arc;

/// Builder for [`Procedure`].
#[derive(Default)]
pub struct ProcedureBuilder {
    name: &'static str,
    ops: Vec<Op>,
    guards: Vec<Guard>,
}

impl ProcedureBuilder {
    pub fn new(name: &'static str) -> Self {
        ProcedureBuilder {
            name,
            ops: Vec::new(),
            guards: Vec::new(),
        }
    }

    fn next_id(&self) -> OpId {
        OpId(self.ops.len() as u16)
    }

    /// Id the next pushed op will get — lets callers capture ids while
    /// chaining.
    pub fn peek_id(&self) -> OpId {
        self.next_id()
    }

    /// Push a fully custom op. Its `id` is assigned by the builder.
    pub fn op(
        mut self,
        table: TableId,
        key: KeyExpr,
        kind: OpKind,
        value_deps: Vec<OpId>,
        label: &'static str,
    ) -> Self {
        let id = self.next_id();
        self.ops.push(Op {
            id,
            table,
            key,
            kind,
            value_deps,
            home_hint: None,
            label,
        });
        self
    }

    /// Add value dependencies to the most recently pushed op (outputs its
    /// row-computation reads beyond what its key already implies — the
    /// dashed v-dep edges of the paper's Figure 4).
    pub fn value_deps(mut self, deps: &[OpId]) -> Self {
        let op = self
            .ops
            .last_mut()
            .expect("value_deps() requires a prior op");
        op.value_deps.extend_from_slice(deps);
        self
    }

    /// Attach a home hint to the most recently pushed op (decision-time
    /// partition resolution for computed keys; see [`crate::op::HintFn`]).
    pub fn hint(mut self, f: impl Fn(&ExecState) -> u64 + Send + Sync + 'static) -> Self {
        let op = self.ops.last_mut().expect("hint() requires a prior op");
        op.home_hint = Some(Arc::new(f));
        self
    }

    /// Shared-lock read of the record keyed by `params[key_param]`.
    pub fn read(self, table: TableId, key_param: usize, label: &'static str) -> Self {
        self.op(
            table,
            KeyExpr::Param(key_param),
            OpKind::Read { for_update: false },
            vec![],
            label,
        )
    }

    /// Exclusive-lock read (the paper's `read_with_wl`) — use when the
    /// record will be updated later, avoiding a lock upgrade.
    pub fn read_for_update(self, table: TableId, key_param: usize, label: &'static str) -> Self {
        self.op(
            table,
            KeyExpr::Param(key_param),
            OpKind::Read { for_update: true },
            vec![],
            label,
        )
    }

    /// Read whose key is computed from earlier outputs (pk-dep on `deps`).
    pub fn read_with_key_from(
        self,
        table: TableId,
        deps: &[OpId],
        label: &'static str,
        key: impl Fn(&ExecState) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.op(
            table,
            KeyExpr::Computed {
                deps: deps.to_vec(),
                f: Arc::new(key),
            },
            OpKind::Read { for_update: false },
            vec![],
            label,
        )
    }

    /// Read-modify-write of the record keyed by `params[key_param]`.
    pub fn update(
        self,
        table: TableId,
        key_param: usize,
        label: &'static str,
        apply: impl Fn(&Row, &ExecState) -> Row + Send + Sync + 'static,
    ) -> Self {
        self.op(
            table,
            KeyExpr::Param(key_param),
            OpKind::Update(Arc::new(apply)),
            vec![],
            label,
        )
    }

    /// Read-modify-write whose new values reference earlier outputs
    /// (v-deps on `value_deps`).
    pub fn update_deps(
        self,
        table: TableId,
        key_param: usize,
        value_deps: &[OpId],
        label: &'static str,
        apply: impl Fn(&Row, &ExecState) -> Row + Send + Sync + 'static,
    ) -> Self {
        self.op(
            table,
            KeyExpr::Param(key_param),
            OpKind::Update(Arc::new(apply)),
            value_deps.to_vec(),
            label,
        )
    }

    /// Update with a computed key (pk-dep on `deps`).
    pub fn update_with_key_from(
        self,
        table: TableId,
        deps: &[OpId],
        label: &'static str,
        key: impl Fn(&ExecState) -> u64 + Send + Sync + 'static,
        apply: impl Fn(&Row, &ExecState) -> Row + Send + Sync + 'static,
    ) -> Self {
        self.op(
            table,
            KeyExpr::Computed {
                deps: deps.to_vec(),
                f: Arc::new(key),
            },
            OpKind::Update(Arc::new(apply)),
            vec![],
            label,
        )
    }

    /// Insert with a key from `params[key_param]`.
    pub fn insert(
        self,
        table: TableId,
        key_param: usize,
        value_deps: &[OpId],
        label: &'static str,
        row: impl Fn(&ExecState) -> Row + Send + Sync + 'static,
    ) -> Self {
        self.op(
            table,
            KeyExpr::Param(key_param),
            OpKind::Insert(Arc::new(row)),
            value_deps.to_vec(),
            label,
        )
    }

    /// Insert whose key is computed from earlier outputs (pk-dep on `deps`)
    /// — the paper's seat-insert pattern.
    pub fn insert_with_key_from(
        self,
        table: TableId,
        deps: &[OpId],
        label: &'static str,
        key: impl Fn(&ExecState) -> u64 + Send + Sync + 'static,
        row: impl Fn(&ExecState) -> Row + Send + Sync + 'static,
    ) -> Self {
        self.op(
            table,
            KeyExpr::Computed {
                deps: deps.to_vec(),
                f: Arc::new(key),
            },
            OpKind::Insert(Arc::new(row)),
            vec![],
            label,
        )
    }

    /// Delete the record keyed by `params[key_param]`.
    pub fn delete(self, table: TableId, key_param: usize, label: &'static str) -> Self {
        self.op(
            table,
            KeyExpr::Param(key_param),
            OpKind::Delete,
            vec![],
            label,
        )
    }

    /// Integrity constraint over the outputs of `deps`.
    pub fn guard(
        mut self,
        deps: &[OpId],
        label: &'static str,
        check: impl Fn(&ExecState) -> std::result::Result<(), &'static str> + Send + Sync + 'static,
    ) -> Self {
        self.guards.push(Guard {
            deps: deps.to_vec(),
            check: Arc::new(check),
            label,
        });
        self
    }

    /// Run static analysis and produce the procedure.
    pub fn build(self) -> Result<Procedure> {
        let graph = DepGraph::build(self.name, &self.ops, &self.guards)?;
        Ok(Procedure {
            name: self.name,
            ops: self.ops,
            guards: self.guards,
            graph,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::value::{update_row, Value};

    /// The paper's Figure 4 flight-booking procedure, faithfully encoded.
    ///
    /// params: [0]=flight_id, [1]=cust_id
    /// ops: 0 read flight (for update), 1 read customer (for update),
    ///      2 read tax (key from customer.state → pk-dep on 1),
    ///      3 update flight seats, 4 update customer balance (v-dep 0, 2),
    ///      5 insert seat (key from flight → pk-dep on 0, v-dep on 1)
    pub fn flight_booking() -> Procedure {
        const FLIGHT: TableId = TableId(1);
        const CUSTOMER: TableId = TableId(2);
        const TAX: TableId = TableId(3);
        const SEATS: TableId = TableId(4);
        ProcedureBuilder::new("flight_booking")
            .read_for_update(FLIGHT, 0, "read flight")
            .read_for_update(CUSTOMER, 1, "read customer")
            .read_with_key_from(TAX, &[OpId(1)], "read tax", |st| {
                st.output_req(OpId(1))[2].as_i64() as u64 // c.state
            })
            .update_deps(FLIGHT, 0, &[OpId(0)], "decrement seats", |row, _| {
                update_row(row, |r| {
                    r[1] = Value::I64(r[1].as_i64() - 1); // f.seats -= 1
                })
            })
            .update_deps(
                CUSTOMER,
                1,
                &[OpId(0), OpId(2)],
                "deduct balance",
                |row, st| {
                    let price = st.output_req(OpId(0))[2].as_f64();
                    let tax = st.output_req(OpId(2))[1].as_f64();
                    update_row(row, |r| {
                        r[1] = Value::F64(r[1].as_f64() - price * (1.0 + tax));
                    })
                },
            )
            .insert_with_key_from(
                SEATS,
                &[OpId(0)],
                "insert seat",
                |st| {
                    let flight = st.output_req(OpId(0)); // [id, seats, price]
                    (flight[0].as_i64() as u64) << 32 | flight[1].as_i64() as u64
                },
                |st| {
                    Row::from([
                        st.params()[1].clone(),            // cust_id
                        st.output_req(OpId(1))[1].clone(), // c.name
                    ])
                },
            )
            .value_deps(&[OpId(1)])
            .hint(|st| st.param_u64(0) << 32)
            .guard(&[OpId(0), OpId(1), OpId(2)], "balance & seats", |st| {
                let f = st.output_req(OpId(0));
                let c = st.output_req(OpId(1));
                let t = st.output_req(OpId(2));
                let cost = f[2].as_f64() * (1.0 + t[1].as_f64());
                if c[3].as_f64() < cost {
                    return Err("insufficient balance");
                }
                if f[1].as_i64() <= 0 {
                    return Err("no seats left");
                }
                Ok(())
            })
            .build()
            .unwrap()
    }

    #[test]
    fn flight_booking_dependency_graph_matches_paper() {
        let p = flight_booking();
        assert_eq!(p.num_ops(), 6);
        // sins has a pk-dep on fread (seat id from flight) …
        assert_eq!(p.graph.pk_parents[5], vec![OpId(0)]);
        // … and tax read has a pk-dep on customer read (state).
        assert_eq!(p.graph.pk_parents[2], vec![OpId(1)]);
        // Customer-balance update has v-deps only — it never constrains
        // reordering.
        assert!(p.graph.pk_parents[4].is_empty());
        assert_eq!(p.graph.v_parents[4], vec![OpId(0), OpId(2)]);
        // fread's only pk-child is the seat insert.
        assert_eq!(p.graph.pk_children[0], vec![OpId(5)]);
    }

    #[test]
    fn peek_id_tracks_ops() {
        let b = ProcedureBuilder::new("t");
        assert_eq!(b.peek_id(), OpId(0));
        let b = b.read(TableId(1), 0, "r");
        assert_eq!(b.peek_id(), OpId(1));
    }

    #[test]
    fn build_rejects_bad_guard() {
        let r = ProcedureBuilder::new("bad")
            .read(TableId(1), 0, "r")
            .guard(&[OpId(7)], "nope", |_| Ok(()))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn key_resolution_with_outputs() {
        let p = flight_booking();
        let mut st = ExecState::new(vec![Value::I64(9), Value::I64(1)], p.num_ops());
        // Seat-insert key unresolvable before flight read…
        assert_eq!(p.op(OpId(5)).key.resolve(&st), None);
        // …and its decision-time hint resolves from params alone.
        let hinted = p.op(OpId(5)).decision_key(&st);
        assert_eq!(hinted, Some(9u64 << 32));
        // After the flight read the real key resolves.
        st.set_output(
            OpId(0),
            Row::from([Value::I64(9), Value::I64(3), Value::F64(100.0)]),
        );
        assert_eq!(p.op(OpId(5)).key.resolve(&st), Some((9u64 << 32) | 3));
    }

    #[test]
    fn guard_failure_reason_propagates() {
        let p = flight_booking();
        let mut st = ExecState::new(vec![Value::I64(9), Value::I64(1)], p.num_ops());
        st.set_output(
            OpId(0),
            Row::from([Value::I64(9), Value::I64(0), Value::F64(100.0)]),
        );
        st.set_output(
            OpId(1),
            Row::from([
                Value::I64(1),
                Value::from("bob"),
                Value::I64(2),
                Value::F64(1e6),
            ]),
        );
        st.set_output(OpId(2), Row::from([Value::I64(2), Value::F64(0.1)]));
        let err = (p.guards[0].check)(&st).unwrap_err();
        assert_eq!(err, "no seats left");
    }
}
