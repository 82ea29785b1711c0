//! TPC-C data generation (scaled).

use super::schema::{keys, tables};
use chiller_common::ids::RecordId;
use chiller_common::rng::{derive_seed, seeded};
use chiller_common::value::{Row, Value};
use rand::Rng;

/// Scaled TPC-C sizing knobs.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    pub warehouses: u64,
    /// Customers per district (spec: 3000).
    pub customers_per_district: u64,
    /// Items (and stock rows) per warehouse (spec: 100k shared items).
    pub items: u64,
    /// Preloaded orders per district; the first half are delivered, the
    /// second half sit in NEW_ORDER awaiting Delivery (spec: 3000/2100).
    pub preloaded_orders: u64,
    /// Order lines for every preloaded order (>= 5 so StockLevel can probe
    /// a fixed number of lines).
    pub preloaded_lines: u64,
    pub seed: u64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 4,
            customers_per_district: 120,
            items: 1_000,
            preloaded_orders: 40,
            preloaded_lines: 5,
            seed: 0x79CC,
        }
    }
}

impl TpccConfig {
    pub fn with_warehouses(warehouses: u64) -> Self {
        TpccConfig {
            warehouses,
            ..Default::default()
        }
    }

    /// First order id NewOrder will create (`d_next_o_id` initial value).
    pub fn first_new_order(&self) -> u64 {
        self.preloaded_orders + 1
    }

    /// Initial `d_last_delivered` (half the preloaded orders delivered).
    pub fn last_delivered(&self) -> u64 {
        self.preloaded_orders / 2
    }

    /// Unit price of an item (deterministic in the item id; stands in for
    /// the read-only ITEM table, see module docs).
    pub fn item_price(&self, i_id: u64) -> f64 {
        1.0 + (i_id % 100) as f64 * 0.5
    }
}

/// Generate all initial records. Order is deterministic.
pub fn load_tpcc(cfg: &TpccConfig) -> Vec<(RecordId, Row)> {
    let mut rng = seeded(derive_seed(cfg.seed, 0x10AD));
    let mut out: Vec<(RecordId, Row)> = Vec::new();
    for w in 1..=cfg.warehouses {
        out.push((
            RecordId::new(tables::WAREHOUSE, keys::warehouse(w)),
            Row::from([
                Value::from(w),
                Value::F64(rng.gen_range(0.0..0.2)), // w_tax
                Value::F64(300_000.0),               // w_ytd
            ]),
        ));
        for d in 1..=10u64 {
            out.push((
                RecordId::new(tables::DISTRICT, keys::district(w, d)),
                Row::from([
                    Value::from(w),
                    Value::from(d),
                    Value::F64(rng.gen_range(0.0..0.2)), // d_tax
                    Value::F64(30_000.0),                // d_ytd
                    Value::from(cfg.first_new_order()),  // d_next_o_id
                    Value::from(cfg.last_delivered()),   // d_last_delivered
                ]),
            ));
            for c in 1..=cfg.customers_per_district {
                out.push((
                    RecordId::new(tables::CUSTOMER, keys::customer(w, d, c)),
                    Row::from([
                        Value::from(w),
                        Value::from(d),
                        Value::from(c),
                        Value::F64(-10.0), // c_balance
                        Value::F64(10.0),  // c_ytd_payment
                        Value::from(1u64), // c_payment_cnt
                        Value::from(0u64), // c_delivery_cnt
                    ]),
                ));
            }
            for o in 1..=cfg.preloaded_orders {
                let c = rng.gen_range(1..=cfg.customers_per_district);
                let mut total = 0.0;
                for line in 1..=cfg.preloaded_lines {
                    let i = rng.gen_range(1..=cfg.items);
                    let qty = rng.gen_range(1..=10) as f64;
                    let amount = qty * cfg.item_price(i);
                    total += amount;
                    out.push((
                        RecordId::new(tables::ORDER_LINE, keys::order_line(w, d, o, line)),
                        Row::from([
                            Value::from(i),
                            Value::from(w), // supply warehouse (home for preload)
                            Value::F64(qty),
                            Value::F64(amount),
                        ]),
                    ));
                }
                let delivered = o <= cfg.last_delivered();
                out.push((
                    RecordId::new(tables::ORDER, keys::order(w, d, o)),
                    Row::from([
                        Value::from(o),
                        Value::from(c),
                        Value::from(if delivered { 5u64 } else { 0 }), // o_carrier_id
                        Value::from(cfg.preloaded_lines),
                        Value::F64(total),
                    ]),
                ));
                if !delivered {
                    out.push((
                        RecordId::new(tables::NEW_ORDER, keys::new_order(w, d, o)),
                        Row::from([Value::from(o)]),
                    ));
                }
            }
        }
        for i in 1..=cfg.items {
            out.push((
                RecordId::new(tables::STOCK, keys::stock(w, i)),
                Row::from([
                    Value::from(i),
                    Value::I64(rng.gen_range(50..=100)), // s_quantity
                    Value::F64(0.0),                     // s_ytd
                    Value::from(0u64),                   // s_order_cnt
                    Value::from(0u64),                   // s_remote_cnt
                ]),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg() -> TpccConfig {
        TpccConfig {
            warehouses: 2,
            customers_per_district: 10,
            items: 50,
            preloaded_orders: 8,
            preloaded_lines: 5,
            seed: 1,
        }
    }

    #[test]
    fn cardinalities_match_config() {
        let c = cfg();
        let records = load_tpcc(&c);
        let count = |t| records.iter().filter(|(r, _)| r.table == t).count() as u64;
        assert_eq!(count(tables::WAREHOUSE), 2);
        assert_eq!(count(tables::DISTRICT), 20);
        assert_eq!(count(tables::CUSTOMER), 2 * 10 * 10);
        assert_eq!(count(tables::STOCK), 2 * 50);
        assert_eq!(count(tables::ORDER), 2 * 10 * 8);
        assert_eq!(count(tables::ORDER_LINE), 2 * 10 * 8 * 5);
        // Half the preloaded orders are undelivered.
        assert_eq!(count(tables::NEW_ORDER), 2 * 10 * 4);
    }

    #[test]
    fn keys_are_unique() {
        let records = load_tpcc(&cfg());
        let mut seen = HashSet::new();
        for (rid, _) in &records {
            assert!(seen.insert(*rid), "duplicate key {rid}");
        }
    }

    #[test]
    fn district_counters_initialized() {
        let c = cfg();
        let records = load_tpcc(&c);
        let d = records
            .iter()
            .find(|(r, _)| *r == RecordId::new(tables::DISTRICT, keys::district(1, 1)))
            .unwrap();
        assert_eq!(d.1[4].as_i64() as u64, c.first_new_order());
        assert_eq!(d.1[5].as_i64() as u64, c.last_delivered());
    }

    #[test]
    fn order_total_matches_lines() {
        let c = cfg();
        let records = load_tpcc(&c);
        let order_key = keys::order(1, 1, 1);
        let total = records
            .iter()
            .find(|(r, _)| r.table == tables::ORDER && r.key == order_key)
            .unwrap()
            .1[4]
            .as_f64();
        let line_sum: f64 = (1..=c.preloaded_lines)
            .map(|l| {
                records
                    .iter()
                    .find(|(r, _)| {
                        r.table == tables::ORDER_LINE && r.key == keys::order_line(1, 1, 1, l)
                    })
                    .unwrap()
                    .1[3]
                    .as_f64()
            })
            .sum();
        assert!((total - line_sum).abs() < 1e-9);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = load_tpcc(&cfg());
        let b = load_tpcc(&cfg());
        assert_eq!(a.len(), b.len());
        for ((ra, rowa), (rb, rowb)) in a.iter().zip(&b) {
            assert_eq!(ra, rb);
            assert_eq!(rowa, rowb);
        }
    }
}
