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

/// A bucket: a small set of records sharing one lock word and version.
///
/// Records live in one key-sorted slot vector — live rows and tombstones
/// alike — so a one-record bucket (the default `records_per_bucket`) costs
/// a single one-slot allocation.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    /// Slots sorted by primary key (within this bucket).
    slots: Vec<Slot>,
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

    fn find(&self, key: u64) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&key, |s| s.key)
    }

    fn slot(&self, key: u64) -> Option<&Slot> {
        self.find(key).ok().map(|i| &self.slots[i])
    }

    /// The slot of `key`, created as an unwritten tombstone if absent.
    fn slot_mut(&mut self, key: u64) -> &mut Slot {
        let i = match self.find(key) {
            Ok(i) => i,
            Err(i) => {
                if self.slots.is_empty() {
                    // Most buckets hold exactly one record: size for it.
                    self.slots.reserve_exact(1);
                }
                self.slots.insert(
                    i,
                    Slot {
                        key,
                        row: None,
                        version: 0,
                    },
                );
                i
            }
        };
        &mut self.slots[i]
    }

    /// The per-record write counter of `key`: 0 if never written, otherwise
    /// the number of committed writes (including deletes) it has absorbed.
    pub fn record_version(&self, key: u64) -> u64 {
        self.slot(key).map_or(0, |s| s.version)
    }

    /// Force `key`'s write counter to `v` (migration carry-over: the
    /// destination continues the source's version chain so one record never
    /// installs the same version twice across partitions).
    pub fn set_record_version(&mut self, key: u64, v: u64) {
        self.slot_mut(key).version = v;
    }

    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.row.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.row.is_none())
    }

    pub fn get(&self, key: u64) -> Option<&Row> {
        self.slot(key).and_then(|s| s.row.as_ref())
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Overwrite (or create) a record and bump the version.
    pub fn put(&mut self, key: u64, row: Row) {
        let slot = self.slot_mut(key);
        slot.row = Some(row);
        slot.version += 1;
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
        let i = self.find(key).ok()?;
        let slot = &mut self.slots[i];
        let old = slot.row.take()?;
        slot.version += 1;
        self.version += 1;
        Some(old)
    }

    /// Iterate records in key order (used by range scans like TPC-C's
    /// StockLevel and Delivery).
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Row)> {
        self.slots
            .iter()
            .filter_map(|s| s.row.as_ref().map(|r| (&s.key, r)))
    }

    /// Iterate the complete per-record version map in key order —
    /// tombstones included (a key deleted by a committed write keeps its
    /// counter here). Checkpoints capture this so version chains survive
    /// recovery across delete + re-insert.
    pub fn versions(&self) -> impl Iterator<Item = (&u64, &u64)> {
        self.slots.iter().map(|s| (&s.key, &s.version))
    }

    /// Approximate memory footprint of the bucket's records in bytes.
    pub fn approx_size(&self) -> usize {
        self.iter()
            .map(|(_, r)| r.iter().map(|v| v.approx_size()).sum::<usize>() + 8)
            .sum()
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
