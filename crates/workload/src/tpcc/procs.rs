//! The five TPC-C stored procedures as dependency-analyzed operation DAGs.
//!
//! Parameter layouts are produced by [`super::source::TpccSource`]; keys
//! arrive pre-packed (see [`super::schema::keys`]).
//!
//! Under Chiller's run-time decision (with the warehouse row and district
//! rows marked hot):
//! * **NewOrder** — the district increment plus the order / new-order /
//!   order-line inserts (whose keys derive from `d_next_o_id`) form the
//!   inner region on the home partition; stock updates (possibly remote)
//!   and the customer read stay outer. This is precisely the paper's §7.3
//!   description of serializing the district contention point.
//! * **Payment** — the warehouse and district updates (and the history
//!   insert) go inner; the (15% remote) customer update stays outer.
//! * **StockLevel** — the district read cannot move inner because the stock
//!   rows it transitively keys (via the previous order's lines) may live on
//!   other partitions (§3.3's legality rule), so it runs as a normal
//!   transaction and keeps conflicting with NewOrder — matching Figure 9c.

use super::schema::tables;
use chiller_common::ids::OpId;
use chiller_common::value::{update_row, Row, Value};
use chiller_sproc::{Procedure, ProcedureBuilder};

// Column indices (shared with the invariant checks in `invariants.rs`).
pub(crate) const W_YTD: usize = 2;
pub(crate) const D_YTD: usize = 3;
pub(crate) const D_NEXT_O_ID: usize = 4;
pub(crate) const D_LAST_DELIVERED: usize = 5;
const C_BALANCE: usize = 3;
pub(crate) const C_YTD_PAYMENT: usize = 4;
const C_PAYMENT_CNT: usize = 5;
const C_DELIVERY_CNT: usize = 6;
const O_C_ID: usize = 1;
const O_CARRIER: usize = 2;
const O_TOTAL: usize = 4;
const S_QUANTITY: usize = 1;
const S_YTD: usize = 2;
const S_ORDER_CNT: usize = 3;
const S_REMOTE_CNT: usize = 4;
const OL_I_ID: usize = 0;
const OL_SUPPLY_W: usize = 1;

const W_SHIFT: u32 = 48;
/// Mask keeping the (w, d) prefix of a district-scoped key.
const WD_MASK: u64 = !((1u64 << 40) - 1);

/// Registered procedure ids for the mix.
#[derive(Debug, Clone)]
pub struct TpccProcs {
    /// NewOrder variants indexed by `ol_cnt - MIN_LINES`.
    pub new_order: Vec<usize>,
    pub payment: usize,
    pub order_status: usize,
    pub delivery: usize,
    pub stock_level: usize,
}

pub const MIN_LINES: usize = 5;
pub const MAX_LINES: usize = 15;
/// Order lines StockLevel examines from the previous order.
pub const STOCK_LEVEL_LINES: usize = 5;

/// Build and register all procedures through `register` (typically
/// `ClusterBuilder::register_proc`).
pub fn register_procs(mut register: impl FnMut(Procedure) -> usize) -> TpccProcs {
    let new_order = (MIN_LINES..=MAX_LINES)
        .map(|lines| register(new_order_proc(lines)))
        .collect();
    TpccProcs {
        new_order,
        payment: register(payment_proc()),
        order_status: register(order_status_proc()),
        delivery: register(delivery_proc()),
        stock_level: register(stock_level_proc()),
    }
}

impl TpccProcs {
    /// Procedure id for a NewOrder with `lines` order lines.
    pub fn new_order_with(&self, lines: usize) -> usize {
        assert!((MIN_LINES..=MAX_LINES).contains(&lines));
        self.new_order[lines - MIN_LINES]
    }
}

/// NewOrder params: `[0]` w key, `[1]` district key, `[2]` customer key,
/// `[3]` rollback flag, then per line `l`: `[4+3l]` stock key, `[5+3l]`
/// qty (i64), `[6+3l]` price (f64).
///
/// Ops: 0 = warehouse read, 1 = district update (o_id counter),
/// 2 = customer read, 3..3+L = stock updates, then order insert, new-order
/// insert, and L order-line inserts.
pub fn new_order_proc(lines: usize) -> Procedure {
    let district_op = OpId(1);
    let mut b = ProcedureBuilder::new("NewOrder")
        .read(tables::WAREHOUSE, 0, "read warehouse")
        .update(tables::DISTRICT, 1, "bump d_next_o_id", |row, _| {
            update_row(row, |r| {
                r[D_NEXT_O_ID] = Value::I64(r[D_NEXT_O_ID].as_i64() + 1)
            })
        })
        .read(tables::CUSTOMER, 2, "read customer");
    for l in 0..lines {
        let key_param = 4 + 3 * l;
        let qty_param = key_param + 1;
        b = b.update(tables::STOCK, key_param, "update stock", move |row, st| {
            let qty = st.param_i64(qty_param);
            let home_w = st.param_u64(0) >> W_SHIFT;
            let supply_w = st.param_u64(key_param) >> W_SHIFT;
            update_row(row, |r| {
                let mut s_qty = r[S_QUANTITY].as_i64() - qty;
                if s_qty < 10 {
                    s_qty += 91;
                }
                r[S_QUANTITY] = Value::I64(s_qty);
                r[S_YTD] = Value::F64(r[S_YTD].as_f64() + qty as f64);
                r[S_ORDER_CNT] = Value::I64(r[S_ORDER_CNT].as_i64() + 1);
                if supply_w != home_w {
                    r[S_REMOTE_CNT] = Value::I64(r[S_REMOTE_CNT].as_i64() + 1);
                }
            })
        });
    }
    // o_id = the pre-increment district counter.
    let o_of = move |st: &chiller_sproc::ExecState| {
        st.output_req(district_op)[D_NEXT_O_ID].as_i64() as u64 - 1
    };
    let order_total = move |st: &chiller_sproc::ExecState| {
        (0..lines)
            .map(|l| st.param_i64(5 + 3 * l) as f64 * st.param_f64(6 + 3 * l))
            .sum::<f64>()
    };
    b = b
        .insert_with_key_from(
            tables::ORDER,
            &[district_op],
            "insert order",
            move |st| (st.param_u64(1) & WD_MASK) | (o_of(st) << 8),
            move |st| {
                Row::from([
                    Value::from(o_of(st)),
                    Value::from(st.param_u64(2) >> 16 & 0xFF_FFFF), // c_id
                    Value::from(0u64),                              // carrier
                    Value::from(lines as u64),
                    Value::F64(order_total(st)),
                ])
            },
        )
        .hint(|st| st.param_u64(1))
        .insert_with_key_from(
            tables::NEW_ORDER,
            &[district_op],
            "insert new_order",
            move |st| (st.param_u64(1) & WD_MASK) | (o_of(st) << 8),
            move |st| Row::from([Value::from(o_of(st))]),
        )
        .hint(|st| st.param_u64(1));
    for l in 0..lines {
        let key_param = 4 + 3 * l;
        b = b
            .insert_with_key_from(
                tables::ORDER_LINE,
                &[district_op],
                "insert order_line",
                move |st| (st.param_u64(1) & WD_MASK) | (o_of(st) << 8) | (l as u64 + 1),
                move |st| {
                    let stock_key = st.param_u64(key_param);
                    let qty = st.param_i64(key_param + 1);
                    let price = st.param_f64(key_param + 2);
                    Row::from([
                        Value::from(stock_key & 0xFFFF_FFFF), // i_id
                        Value::from(stock_key >> W_SHIFT),    // supply w
                        Value::F64(qty as f64),
                        Value::F64(qty as f64 * price),
                    ])
                },
            )
            .hint(|st| st.param_u64(1));
    }
    // The spec's 1% "unused item id" rollback: evaluated after the district
    // lock, so under Chiller the inner host folds it into its decision.
    b = b.guard(&[district_op], "rollback", |st| {
        if st.param_i64(3) != 0 {
            Err("simulated user rollback (invalid item)")
        } else {
            Ok(())
        }
    });
    b.build().expect("NewOrder procedure is well-formed")
}

/// Payment params: `[0]` w key, `[1]` district key, `[2]` customer key
/// (possibly remote warehouse), `[3]` amount, `[4]` history key.
pub fn payment_proc() -> Procedure {
    ProcedureBuilder::new("Payment")
        .update(tables::WAREHOUSE, 0, "w_ytd += amount", |row, st| {
            update_row(row, |r| {
                r[W_YTD] = Value::F64(r[W_YTD].as_f64() + st.param_f64(3))
            })
        })
        .update(tables::DISTRICT, 1, "d_ytd += amount", |row, st| {
            update_row(row, |r| {
                r[D_YTD] = Value::F64(r[D_YTD].as_f64() + st.param_f64(3))
            })
        })
        .update(tables::CUSTOMER, 2, "pay customer", |row, st| {
            let amount = st.param_f64(3);
            update_row(row, |r| {
                r[C_BALANCE] = Value::F64(r[C_BALANCE].as_f64() - amount);
                r[C_YTD_PAYMENT] = Value::F64(r[C_YTD_PAYMENT].as_f64() + amount);
                r[C_PAYMENT_CNT] = Value::I64(r[C_PAYMENT_CNT].as_i64() + 1);
            })
        })
        .insert(tables::HISTORY, 4, &[], "insert history", |st| {
            Row::from([Value::from(st.param_u64(2)), Value::F64(st.param_f64(3))])
        })
        .build()
        .expect("Payment procedure is well-formed")
}

/// OrderStatus params: `[0]` customer key, `[1]` order key (preloaded),
/// `[2..2+K]` order-line keys.
pub fn order_status_proc() -> Procedure {
    let mut b = ProcedureBuilder::new("OrderStatus")
        .read(tables::CUSTOMER, 0, "read customer")
        .read(tables::ORDER, 1, "read order");
    for l in 0..STOCK_LEVEL_LINES {
        b = b.read(tables::ORDER_LINE, 2 + l, "read order line");
    }
    b.build().expect("OrderStatus procedure is well-formed")
}

/// Delivery params: `[0]` district key, `[1]` carrier id.
///
/// Processes the next undelivered order of one district: bumps
/// `d_last_delivered`, stamps the order's carrier, removes the NEW_ORDER
/// row, credits the customer with the order total.
pub fn delivery_proc() -> Procedure {
    let district_op = OpId(0);
    let order_op = OpId(1);
    let o_of = move |st: &chiller_sproc::ExecState| {
        // Post-increment output: the order being delivered.
        st.output_req(district_op)[D_LAST_DELIVERED].as_i64() as u64
    };
    ProcedureBuilder::new("Delivery")
        .update(tables::DISTRICT, 0, "advance d_last_delivered", |row, _| {
            update_row(row, |r| {
                r[D_LAST_DELIVERED] = Value::I64(r[D_LAST_DELIVERED].as_i64() + 1)
            })
        })
        .update_with_key_from(
            tables::ORDER,
            &[district_op],
            "stamp carrier",
            move |st| (st.param_u64(0) & WD_MASK) | (o_of(st) << 8),
            |row, st| update_row(row, |r| r[O_CARRIER] = Value::I64(st.param_i64(1))),
        )
        .hint(|st| st.param_u64(0))
        .op(
            tables::NEW_ORDER,
            chiller_sproc::KeyExpr::Computed {
                deps: vec![district_op],
                f: std::sync::Arc::new(move |st| (st.param_u64(0) & WD_MASK) | (o_of(st) << 8)),
            },
            chiller_sproc::OpKind::Delete,
            vec![],
            "consume new_order",
        )
        .hint(|st| st.param_u64(0))
        .update_with_key_from(
            tables::CUSTOMER,
            &[order_op],
            "credit customer",
            move |st| {
                let c = st.output_req(order_op)[O_C_ID].as_i64() as u64;
                (st.param_u64(0) & WD_MASK) | (c << 16)
            },
            move |row, st| {
                let total = st.output_req(order_op)[O_TOTAL].as_f64();
                update_row(row, |r| {
                    r[C_BALANCE] = Value::F64(r[C_BALANCE].as_f64() + total);
                    r[C_DELIVERY_CNT] = Value::I64(r[C_DELIVERY_CNT].as_i64() + 1);
                })
            },
        )
        .hint(|st| st.param_u64(0))
        .guard(&[district_op], "has undelivered order", |st| {
            let d = st.output_req(OpId(0));
            if d[D_LAST_DELIVERED].as_i64() < d[D_NEXT_O_ID].as_i64() {
                Ok(())
            } else {
                Err("no undelivered order in district")
            }
        })
        .build()
        .expect("Delivery procedure is well-formed")
}

/// StockLevel params: `[0]` district key, `[1]` threshold.
///
/// Reads the district (shared lock — the Figure 9c conflict with
/// NewOrder's exclusive district lock), the previous order's first
/// [`STOCK_LEVEL_LINES`] lines, and those lines' stock rows.
pub fn stock_level_proc() -> Procedure {
    let district_op = OpId(0);
    let mut b = ProcedureBuilder::new("StockLevel").read(tables::DISTRICT, 0, "read district");
    for l in 0..STOCK_LEVEL_LINES {
        b = b
            .read_with_key_from(
                tables::ORDER_LINE,
                &[district_op],
                "read prev order line",
                move |st| {
                    let prev_o = st.output_req(district_op)[D_NEXT_O_ID].as_i64() as u64 - 1;
                    (st.param_u64(0) & WD_MASK) | (prev_o << 8) | (l as u64 + 1)
                },
            )
            .hint(|st| st.param_u64(0));
    }
    for l in 0..STOCK_LEVEL_LINES {
        let line_op = OpId(1 + l as u16);
        b = b.read_with_key_from(tables::STOCK, &[line_op], "probe stock", move |st| {
            let ol = st.output_req(line_op);
            let supply_w = ol[OL_SUPPLY_W].as_i64() as u64;
            let i_id = ol[OL_I_ID].as_i64() as u64;
            (supply_w << W_SHIFT) | i_id
        });
        // No hint: the supply warehouse is unknown until the line is read,
        // which (correctly) keeps the district read out of any inner region.
    }
    b.build().expect("StockLevel procedure is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::PartitionId;
    use chiller_sproc::decide_regions;

    #[test]
    fn new_order_shape() {
        for lines in [MIN_LINES, 10, MAX_LINES] {
            let p = new_order_proc(lines);
            assert_eq!(p.num_ops(), 5 + 2 * lines);
            assert_eq!(p.guards.len(), 1);
            // Order insert pk-depends on the district op.
            let order_insert = OpId(3 + lines as u16);
            assert_eq!(p.graph.pk_parents[order_insert.idx()], vec![OpId(1)]);
        }
    }

    #[test]
    fn new_order_region_split_matches_paper() {
        // 2 partitions; home warehouse on p0, one remote stock on p1.
        let lines = 5;
        let p = new_order_proc(lines);
        let home = Some(PartitionId(0));
        let remote = Some(PartitionId(1));
        let mut parts = vec![home; p.num_ops()];
        parts[3] = remote; // first stock line remote
        let mut hot = vec![false; p.num_ops()];
        hot[1] = true; // district
        let split = decide_regions(&p, &parts, &hot);
        assert_eq!(split.inner_host, Some(PartitionId(0)));
        // District + all three inserts land inner; remote stock stays outer.
        assert!(split.inner_ops.contains(&OpId(1)));
        assert!(split.inner_ops.contains(&OpId(3 + lines as u16)));
        assert!(split.outer_ops.contains(&OpId(3)));
        // The rollback guard must be decided by the inner host.
        assert_eq!(
            split.guard_sites[0],
            chiller_sproc::decision::GuardSite::Inner
        );
    }

    #[test]
    fn payment_region_split_remote_customer() {
        let p = payment_proc();
        let parts = vec![
            Some(PartitionId(0)), // warehouse
            Some(PartitionId(0)), // district
            Some(PartitionId(2)), // remote customer
            Some(PartitionId(0)), // history
        ];
        let hot = vec![true, true, false, false];
        let split = decide_regions(&p, &parts, &hot);
        assert_eq!(split.inner_host, Some(PartitionId(0)));
        assert_eq!(split.inner_ops, vec![OpId(0), OpId(1), OpId(3)]);
        assert_eq!(split.outer_ops, vec![OpId(2)]);
    }

    #[test]
    fn stock_level_never_two_region() {
        // Stock partitions unknown at decision time → district read cannot
        // be postponed (its pk-descendants may leave the partition).
        let p = stock_level_proc();
        let mut parts = vec![Some(PartitionId(0)); p.num_ops()];
        for l in 0..STOCK_LEVEL_LINES {
            parts[1 + STOCK_LEVEL_LINES + l] = None; // stock probes unknown
        }
        let mut hot = vec![false; p.num_ops()];
        hot[0] = true;
        let split = decide_regions(&p, &parts, &hot);
        assert!(!split.is_two_region());
    }

    #[test]
    fn delivery_is_fully_inner_at_home() {
        let p = delivery_proc();
        let parts = vec![Some(PartitionId(1)); p.num_ops()];
        let mut hot = vec![false; p.num_ops()];
        hot[0] = true;
        let split = decide_regions(&p, &parts, &hot);
        assert_eq!(split.inner_host, Some(PartitionId(1)));
        assert_eq!(split.inner_ops.len(), p.num_ops());
        assert!(split.outer_ops.is_empty());
    }

    #[test]
    fn all_procs_build() {
        let procs = register_procs({
            let mut n = 0;
            move |_p| {
                n += 1;
                n - 1
            }
        });
        assert_eq!(procs.new_order.len(), MAX_LINES - MIN_LINES + 1);
        assert_eq!(procs.new_order_with(5), procs.new_order[0]);
        assert_eq!(procs.stock_level, procs.delivery + 1);
    }
}
