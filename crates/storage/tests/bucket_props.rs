//! Bucket differential tests: random `put` / `insert_new` / `remove` /
//! `set_record_version` sequences drive a [`TableStore`]'s buckets and a
//! `BTreeMap` reference model side by side, at one record per bucket and
//! at several. Every observable must agree after every step: `get`,
//! `len`, key-ordered `iter`, the tombstone-inclusive `versions()`,
//! per-record versions and the bucket version. A checkpoint of a store
//! holding tombstones must survive `snapshot` → `restore` → `snapshot`
//! byte for byte.

use chiller_common::ids::{PartitionId, RecordId, TableId};
use chiller_common::value::{Row, Value};
use chiller_storage::schema::{Schema, TableDef};
use chiller_storage::store::{PartitionStore, TableStore};
use chiller_storage::wal::{read_checkpoint, write_checkpoint};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Keys are drawn from a small range so operations collide often.
const KEYS: u64 = 12;

#[derive(Debug, Clone)]
enum Op {
    Put(u64, i64),
    InsertNew(u64, i64),
    Remove(u64),
    SetVersion(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS, any::<i64>()).prop_map(|(k, v)| Op::Put(k, v)),
        (0..KEYS, any::<i64>()).prop_map(|(k, v)| Op::InsertNew(k, v)),
        (0..KEYS).prop_map(Op::Remove),
        (0..KEYS, 0u64..50).prop_map(|(k, v)| Op::SetVersion(k, v)),
    ]
}

fn row(v: i64) -> Row {
    Row::from([Value::I64(v)])
}

/// Reference model: `key → (row value, record version)` — an entry exists
/// once a key has been written or had its version set, and survives a
/// delete as a tombstone (`None` row) — plus `bucket id → bucket version`.
#[derive(Default)]
struct Model {
    records: BTreeMap<u64, (Option<i64>, u64)>,
    bucket_versions: BTreeMap<u64, u64>,
}

impl Model {
    fn write(&mut self, key: u64, value: Option<i64>, rpb: u64) {
        let e = self.records.entry(key).or_insert((None, 0));
        e.0 = value;
        e.1 += 1;
        *self.bucket_versions.entry(key / rpb).or_insert(0) += 1;
    }

    fn live(&self, key: u64) -> Option<i64> {
        self.records.get(&key).and_then(|e| e.0)
    }
}

/// Apply one op to both sides, asserting the op's own return value.
fn step(table: &mut TableStore, model: &mut Model, op: &Op, rpb: u64) {
    match *op {
        Op::Put(k, v) => {
            table.bucket_for_mut(k).put(k, row(v));
            model.write(k, Some(v), rpb);
        }
        Op::InsertNew(k, v) => {
            let fresh = model.live(k).is_none();
            assert_eq!(table.bucket_for_mut(k).insert_new(k, row(v)), fresh);
            if fresh {
                model.write(k, Some(v), rpb);
            }
        }
        Op::Remove(k) => {
            let old = table.bucket_for_mut(k).remove(k).map(|r| r[0].as_i64());
            let expected = model.live(k);
            assert_eq!(old, expected);
            if expected.is_some() {
                model.write(k, None, rpb);
            }
        }
        Op::SetVersion(k, v) => {
            table.bucket_for_mut(k).set_record_version(k, v);
            model.records.entry(k).or_insert((None, 0)).1 = v;
        }
    }
}

/// Compare every observable of every bucket against the model.
fn assert_agrees(table: &TableStore, model: &Model, rpb: u64) {
    for key in 0..KEYS {
        let bucket = table.bucket_for(key);
        assert_eq!(
            bucket.and_then(|b| b.get(key)).map(|r| r[0].as_i64()),
            model.live(key),
            "get({key})"
        );
        assert_eq!(
            bucket.map_or(0, |b| b.record_version(key)),
            model.records.get(&key).map_or(0, |e| e.1),
            "record_version({key})"
        );
    }
    for id in 0..KEYS.div_ceil(rpb) {
        let in_bucket = || model.records.iter().filter(move |(k, _)| **k / rpb == id);
        let live: Vec<(u64, i64)> = in_bucket()
            .filter_map(|(k, e)| e.0.map(|v| (*k, v)))
            .collect();
        let versions: Vec<(u64, u64)> = in_bucket().map(|(k, e)| (*k, e.1)).collect();
        let bucket_version = model.bucket_versions.get(&id).copied().unwrap_or(0);
        match table.bucket_for(id * rpb) {
            Some(b) => {
                assert_eq!(b.len(), live.len(), "len of bucket {id}");
                assert_eq!(b.is_empty(), live.is_empty(), "is_empty of bucket {id}");
                let iter: Vec<(u64, i64)> = b.iter().map(|(k, r)| (*k, r[0].as_i64())).collect();
                assert_eq!(iter, live, "iter of bucket {id}");
                let got: Vec<(u64, u64)> = b.versions().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, versions, "versions of bucket {id}");
                assert_eq!(b.version(), bucket_version, "version of bucket {id}");
            }
            None => {
                assert!(versions.is_empty(), "bucket {id} missing");
                assert_eq!(bucket_version, 0, "bucket {id} missing");
            }
        }
    }
}

fn run(rpb: u64, ops: &[Op]) {
    let mut table = TableStore::new(rpb);
    let mut model = Model::default();
    for op in ops {
        step(&mut table, &mut model, op, rpb);
        assert_agrees(&table, &model, rpb);
    }
}

proptest! {
    /// One record per bucket: the layout every workload uses.
    #[test]
    fn single_record_buckets_match_the_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        run(1, &ops);
    }

    /// Several records per bucket: neighbors share the bucket version but
    /// keep their own record versions, in key order.
    #[test]
    fn multi_record_buckets_match_the_model(
        rpb in 2u64..6,
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        run(rpb, &ops);
    }
}

/// A checkpoint of a store holding tombstones (deleted keys, and a key
/// whose version was seeded before any row arrived) restores into a store
/// whose own checkpoint is byte-identical.
#[test]
fn snapshot_restore_snapshot_is_byte_identical_with_tombstones() {
    let mut schema = Schema::new();
    schema.add(TableDef::new(TableId(1), "fine", vec!["v"]));
    schema.add(TableDef::new(TableId(2), "coarse", vec!["v"]).with_bucket_size(4));
    let mut store = PartitionStore::new(PartitionId(0), schema.clone());
    for table in [TableId(1), TableId(2)] {
        for k in 0..10 {
            store.load(RecordId::new(table, k), row(k as i64));
        }
        for k in [2, 3, 7] {
            store.delete(RecordId::new(table, k)).expect("loaded");
        }
        store
            .insert(RecordId::new(table, 3), row(33))
            .expect("re-insert after delete");
        store.set_record_version(RecordId::new(table, 40), 9);
    }

    let dir = std::env::temp_dir().join(format!("chiller-bucket-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (first, second) = (dir.join("first.ckpt"), dir.join("second.ckpt"));
    write_checkpoint(&first, &store).expect("write first checkpoint");
    let snap = read_checkpoint(&first).expect("read first checkpoint");
    assert_eq!(snap, store.snapshot());

    let mut restored = PartitionStore::new(PartitionId(0), schema);
    restored.restore(&snap);
    assert_eq!(restored.snapshot(), snap);
    write_checkpoint(&second, &restored).expect("write second checkpoint");
    let bytes = |p: &std::path::Path| std::fs::read(p).expect("read checkpoint bytes");
    assert_eq!(bytes(&first), bytes(&second));
    for table in [TableId(1), TableId(2)] {
        assert_eq!(restored.record_version(RecordId::new(table, 2)), 2);
        assert_eq!(restored.record_version(RecordId::new(table, 3)), 3);
        assert_eq!(restored.record_version(RecordId::new(table, 40)), 9);
        assert!(!restored.exists(RecordId::new(table, 40)));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
