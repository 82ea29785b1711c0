//! Buckets: the unit of locking and one-sided access.
//!
//! §6: "Chiller splits partitions into smaller buckets. Records within a
//! partition are placed in buckets based on a hash/range/user-defined
//! function on their primary keys. Each bucket may host multiple records"
//! and "buckets are locked when any of their records are being accessed".
//!
//! Each bucket carries a monotonically increasing **version** that is bumped
//! by every committed write to any of its records; the OCC engine validates
//! against it.
//!
//! A primary partition's bucket is [`Records`] plus that concurrency-control
//! header (lock word and version). A replica copy is never locked or
//! validated, so its buckets are the bare [`Records`]; both plug into the
//! same store code through [`StoreBucket`].

use crate::lock::LockState;
use chiller_common::value::Row;

/// One record slot of a bucket. `row` is `None` for a **tombstone**: a key
/// whose write counter outlives its row (deleted by a committed write, or
/// seeded by migration/replay before the row arrives).
#[derive(Debug, Clone)]
struct Slot {
    key: u64,
    row: Option<Row>,
    /// Per-record write counter for history recording. Unlike the bucket
    /// version (which couples neighbors by design — it is what OCC
    /// validates), this identifies exactly which record a write installed,
    /// so the serializability checker never sees a spurious cross-key
    /// edge. It survives `remove` (a delete is itself a versioned write),
    /// keeping versions monotone across delete + re-insert.
    version: u64,
}

/// A live record held inline by a one-record bucket.
#[derive(Debug, Clone)]
struct Live {
    key: u64,
    row: Row,
    /// The record's write counter (see [`Slot::version`]).
    version: u64,
}

/// The layouts of [`Records`]. `Live`'s row cannot be absent, which leaves
/// its pointer's null value free to tell the variants apart: the enum is
/// no larger than `Live` itself.
#[derive(Debug, Clone)]
enum Slots {
    One(Live),
    /// Zero or several slots, key-sorted (empty buckets hold an empty,
    /// unallocated vector).
    Many(Vec<Slot>),
}

impl Default for Slots {
    fn default() -> Self {
        Slots::Many(Vec::new())
    }
}

/// Index of `key`'s slot in the sorted `slots`, inserting an unwritten
/// tombstone if absent.
fn slot_index(slots: &mut Vec<Slot>, key: u64) -> usize {
    match slots.binary_search_by_key(&key, |s| s.key) {
        Ok(i) => i,
        Err(i) => {
            slots.insert(
                i,
                Slot {
                    key,
                    row: None,
                    version: 0,
                },
            );
            i
        }
    }
}

/// A bucket's records in key order — live rows and tombstones alike — each
/// with its per-record write counter.
///
/// Most buckets hold exactly one live record (the default
/// `records_per_bucket`), so it lives inline: no allocation and no pointer
/// to chase on access. The key-sorted slot vector appears only for a
/// second key or a tombstone.
#[derive(Debug, Clone, Default)]
pub struct Records(Slots);

impl Records {
    /// The slot vector, spilling an inline record into it first.
    fn many_mut(&mut self) -> &mut Vec<Slot> {
        if let Slots::One(_) = self.0 {
            let Slots::One(live) = std::mem::take(&mut self.0) else {
                unreachable!("matched the inline variant")
            };
            let mut v = Vec::with_capacity(2);
            v.push(Slot {
                key: live.key,
                row: Some(live.row),
                version: live.version,
            });
            self.0 = Slots::Many(v);
        }
        match &mut self.0 {
            Slots::Many(v) => v,
            Slots::One(_) => unreachable!("spilled above"),
        }
    }

    /// The per-record write counter of `key`: 0 if never written, otherwise
    /// the number of committed writes (including deletes) it has absorbed.
    pub fn record_version(&self, key: u64) -> u64 {
        match &self.0 {
            Slots::One(live) => {
                if live.key == key {
                    live.version
                } else {
                    0
                }
            }
            Slots::Many(v) => v
                .binary_search_by_key(&key, |s| s.key)
                .map_or(0, |i| v[i].version),
        }
    }

    /// Force `key`'s write counter to `v` (migration carry-over: the
    /// destination continues the source's version chain so one record never
    /// installs the same version twice across partitions).
    pub fn set_record_version(&mut self, key: u64, v: u64) {
        if let Slots::One(live) = &mut self.0 {
            if live.key == key {
                live.version = v;
                return;
            }
        }
        let slots = self.many_mut();
        let i = slot_index(slots, key);
        slots[i].version = v;
    }

    pub fn len(&self) -> usize {
        match &self.0 {
            Slots::One(_) => 1,
            Slots::Many(v) => v.iter().filter(|s| s.row.is_some()).count(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, key: u64) -> Option<&Row> {
        match &self.0 {
            Slots::One(live) => (live.key == key).then_some(&live.row),
            Slots::Many(v) => v
                .binary_search_by_key(&key, |s| s.key)
                .ok()
                .and_then(|i| v[i].row.as_ref()),
        }
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Overwrite (or create) a record, bumping its write counter.
    pub fn put(&mut self, key: u64, row: Row) {
        match &mut self.0 {
            Slots::One(live) if live.key == key => {
                live.row = row;
                live.version += 1;
                return;
            }
            Slots::Many(v) if v.is_empty() => {
                self.0 = Slots::One(Live {
                    key,
                    row,
                    version: 1,
                });
                return;
            }
            // The only slot is this key's tombstone: the record comes back
            // inline and the vector is freed.
            Slots::Many(v) if v.len() == 1 && v[0].key == key => {
                let version = v[0].version + 1;
                self.0 = Slots::One(Live { key, row, version });
                return;
            }
            _ => {}
        }
        let slots = self.many_mut();
        let i = slot_index(slots, key);
        slots[i].row = Some(row);
        slots[i].version += 1;
    }

    /// Insert a new record; returns `false` if the key already exists.
    pub fn insert_new(&mut self, key: u64, row: Row) -> bool {
        if self.contains(key) {
            return false;
        }
        self.put(key, row);
        true
    }

    /// Remove a record; returns the old row if present. The key stays
    /// behind as a tombstone with its counter bumped (a delete is itself a
    /// versioned write).
    pub fn remove(&mut self, key: u64) -> Option<Row> {
        match &mut self.0 {
            Slots::One(live) if live.key == key => {
                let tombstone = Slot {
                    key,
                    row: None,
                    version: live.version + 1,
                };
                let Slots::One(live) = std::mem::replace(&mut self.0, Slots::Many(vec![tombstone]))
                else {
                    unreachable!("matched the inline variant")
                };
                Some(live.row)
            }
            Slots::One(_) => None,
            Slots::Many(v) => {
                let i = v.binary_search_by_key(&key, |s| s.key).ok()?;
                let old = v[i].row.take()?;
                v[i].version += 1;
                Some(old)
            }
        }
    }

    /// The inline record, or the slot vector.
    fn parts(&self) -> (Option<&Live>, &[Slot]) {
        match &self.0 {
            Slots::One(live) => (Some(live), &[]),
            Slots::Many(v) => (None, v),
        }
    }

    /// Iterate records in key order (used by range scans like TPC-C's
    /// StockLevel and Delivery).
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Row)> {
        let (one, many) = self.parts();
        one.map(|l| (&l.key, &l.row)).into_iter().chain(
            many.iter()
                .filter_map(|s| s.row.as_ref().map(|r| (&s.key, r))),
        )
    }

    /// Iterate the complete per-record version map in key order —
    /// tombstones included (a key deleted by a committed write keeps its
    /// counter here). Checkpoints capture this so version chains survive
    /// recovery across delete + re-insert.
    pub fn versions(&self) -> impl Iterator<Item = (&u64, &u64)> {
        let (one, many) = self.parts();
        one.map(|l| (&l.key, &l.version))
            .into_iter()
            .chain(many.iter().map(|s| (&s.key, &s.version)))
    }
}

/// A bucket: a small set of records sharing one lock word and version.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    records: Records,
    /// Embedded lock word, manipulable via simulated one-sided atomics.
    pub lock: LockState,
    /// Bumped on every committed write/insert/delete.
    version: u64,
}

impl Bucket {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn version(&self) -> u64 {
        self.version
    }

    /// See [`Records::record_version`].
    pub fn record_version(&self, key: u64) -> u64 {
        self.records.record_version(key)
    }

    /// See [`Records::set_record_version`].
    pub fn set_record_version(&mut self, key: u64, v: u64) {
        self.records.set_record_version(key, v);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn get(&self, key: u64) -> Option<&Row> {
        self.records.get(key)
    }

    pub fn contains(&self, key: u64) -> bool {
        self.records.contains(key)
    }

    /// Overwrite (or create) a record and bump the version.
    pub fn put(&mut self, key: u64, row: Row) {
        self.records.put(key, row);
        self.version += 1;
    }

    /// Insert a new record; returns `false` (without bumping the version) if
    /// the key already exists.
    pub fn insert_new(&mut self, key: u64, row: Row) -> bool {
        if self.contains(key) {
            return false;
        }
        self.put(key, row);
        true
    }

    /// Remove a record; returns the old row if present, bumping the version.
    pub fn remove(&mut self, key: u64) -> Option<Row> {
        let old = self.records.remove(key)?;
        self.version += 1;
        Some(old)
    }

    /// See [`Records::iter`].
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Row)> {
        self.records.iter()
    }

    /// See [`Records::versions`].
    pub fn versions(&self) -> impl Iterator<Item = (&u64, &u64)> {
        self.records.versions()
    }

    /// Approximate memory footprint of the bucket's records in bytes.
    pub fn approx_size(&self) -> usize {
        self.iter()
            .map(|(_, r)| r.iter().map(|v| v.approx_size()).sum::<usize>() + 8)
            .sum()
    }
}

/// What a partition store needs of its bucket type: read access to its
/// [`Records`], and the record mutations — which [`Bucket`] also counts in
/// its OCC version. [`Bucket`] serves primary copies (lock word + version
/// on top of the records); [`Records`] alone serves replica copies.
pub trait StoreBucket: Default {
    fn records(&self) -> &Records;
    fn put(&mut self, key: u64, row: Row);
    fn insert_new(&mut self, key: u64, row: Row) -> bool;
    fn remove(&mut self, key: u64) -> Option<Row>;
    fn set_record_version(&mut self, key: u64, v: u64);
}

impl StoreBucket for Records {
    fn records(&self) -> &Records {
        self
    }
    fn put(&mut self, key: u64, row: Row) {
        Records::put(self, key, row);
    }
    fn insert_new(&mut self, key: u64, row: Row) -> bool {
        Records::insert_new(self, key, row)
    }
    fn remove(&mut self, key: u64) -> Option<Row> {
        Records::remove(self, key)
    }
    fn set_record_version(&mut self, key: u64, v: u64) {
        Records::set_record_version(self, key, v);
    }
}

impl StoreBucket for Bucket {
    fn records(&self) -> &Records {
        &self.records
    }
    fn put(&mut self, key: u64, row: Row) {
        Bucket::put(self, key, row);
    }
    fn insert_new(&mut self, key: u64, row: Row) -> bool {
        Bucket::insert_new(self, key, row)
    }
    fn remove(&mut self, key: u64) -> Option<Row> {
        Bucket::remove(self, key)
    }
    fn set_record_version(&mut self, key: u64, v: u64) {
        Bucket::set_record_version(self, key, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::value::Value;

    fn row1(v: i64) -> Row {
        Row::from([Value::I64(v)])
    }

    #[test]
    fn inline_record_costs_no_tag() {
        assert_eq!(std::mem::size_of::<Slots>(), std::mem::size_of::<Live>());
    }

    #[test]
    fn delete_and_reinsert_round_trip_through_the_inline_slot() {
        let mut b = Bucket::new();
        b.put(4, row1(1));
        assert_eq!(b.remove(4).unwrap()[0].as_i64(), 1);
        assert_eq!((b.len(), b.record_version(4), b.version()), (0, 2, 2));
        assert_eq!(b.versions().collect::<Vec<_>>(), vec![(&4, &2)]);
        assert!(b.insert_new(4, row1(2)));
        assert!(matches!(b.records.0, Slots::One(_)));
        assert_eq!((b.len(), b.record_version(4), b.version()), (1, 3, 3));
    }

    #[test]
    fn put_get_roundtrip() {
        let mut b = Bucket::new();
        b.put(5, row1(50));
        assert_eq!(b.get(5).unwrap()[0].as_i64(), 50);
        assert!(b.get(6).is_none());
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut b = Bucket::new();
        assert_eq!(b.version(), 0);
        b.put(1, row1(1));
        assert_eq!(b.version(), 1);
        b.get(1);
        assert_eq!(b.version(), 1);
        b.put(1, row1(2));
        assert_eq!(b.version(), 2);
        b.remove(1);
        assert_eq!(b.version(), 3);
        // Removing a missing key is not a write.
        b.remove(1);
        assert_eq!(b.version(), 3);
    }

    #[test]
    fn insert_new_rejects_duplicates() {
        let mut b = Bucket::new();
        assert!(b.insert_new(1, row1(1)));
        assert!(!b.insert_new(1, row1(2)));
        assert_eq!(b.get(1).unwrap()[0].as_i64(), 1);
        assert_eq!(b.version(), 1);
    }

    #[test]
    fn record_versions_are_per_key_and_survive_delete() {
        let mut b = Bucket::new();
        assert_eq!(b.record_version(1), 0);
        b.put(1, row1(1));
        b.put(2, row1(2));
        // Neighbors do not couple: key 1 saw one write, key 2 one write.
        assert_eq!(b.record_version(1), 1);
        assert_eq!(b.record_version(2), 1);
        b.put(1, row1(10));
        assert_eq!(b.record_version(1), 2);
        assert_eq!(b.record_version(2), 1);
        // A delete is a versioned write, and the counter survives it so a
        // re-insert continues the chain instead of duplicating version 1.
        b.remove(1);
        assert_eq!(b.record_version(1), 3);
        assert!(b.insert_new(1, row1(99)));
        assert_eq!(b.record_version(1), 4);
        // Migration carry-over.
        b.set_record_version(7, 42);
        b.put(7, row1(7));
        assert_eq!(b.record_version(7), 43);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut b = Bucket::new();
        for k in [5u64, 1, 3] {
            b.put(k, row1(k as i64));
        }
        let keys: Vec<u64> = b.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn approx_size_counts_rows() {
        let mut b = Bucket::new();
        assert_eq!(b.approx_size(), 0);
        b.put(1, Row::from([Value::I64(1), Value::from("abcd")]));
        assert_eq!(b.approx_size(), 8 + 12 + 8);
    }
}
