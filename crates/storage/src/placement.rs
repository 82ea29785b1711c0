//! Record placement: which partition owns which record.
//!
//! §4.4 of the paper: only **hot** records get entries in a lookup table;
//! everything else falls back to an orthogonal default partitioner (hash or
//! range), which "takes almost no lookup-table space". This module provides
//! both default partitioners and the combined [`LookupTable`] placement.

use chiller_common::hash::IntMap;
use chiller_common::ids::{PartitionId, RecordId, TableId};

/// Maps records to their owning partition.
pub trait Placement {
    fn partition_of(&self, record: RecordId) -> PartitionId;

    /// Number of explicit (per-record) entries this placement must store —
    /// the metric of the paper's lookup-table size comparison (§7.2.2).
    fn lookup_entries(&self) -> usize {
        0
    }
}

impl<P: Placement + ?Sized> Placement for std::sync::Arc<P> {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        (**self).partition_of(record)
    }

    fn lookup_entries(&self) -> usize {
        (**self).lookup_entries()
    }
}

/// Hash partitioning on the primary key (the paper's baseline).
#[derive(Debug, Clone)]
pub struct HashPlacement {
    partitions: u32,
}

impl HashPlacement {
    pub fn new(partitions: u32) -> Self {
        assert!(partitions > 0);
        HashPlacement { partitions }
    }

    /// Stateless 64-bit mix (SplitMix64 finalizer); cheap and well spread.
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Placement for HashPlacement {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        let h = Self::mix(record.key ^ ((record.table.0 as u64) << 48));
        PartitionId((h % self.partitions as u64) as u32)
    }
}

/// Range partitioning: per-table split points on the key space. This is what
/// "partitioned by warehouse" means for TPC-C: the warehouse id occupies the
/// most significant key bits, so contiguous ranges align with warehouses.
#[derive(Debug, Clone, Default)]
pub struct RangePlacement {
    /// Per table: sorted upper bounds (exclusive) for partitions 0..k-1; keys
    /// >= the last bound map to the last partition.
    ranges: IntMap<TableId, Vec<u64>>,
    fallback_partitions: u32,
}

impl RangePlacement {
    pub fn new(fallback_partitions: u32) -> Self {
        RangePlacement {
            ranges: IntMap::default(),
            fallback_partitions: fallback_partitions.max(1),
        }
    }

    /// Register split points for a table. `bounds[i]` is the exclusive upper
    /// key bound of partition `i`; there are `bounds.len() + 1` partitions.
    pub fn set_table(&mut self, table: TableId, bounds: Vec<u64>) {
        debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "unsorted bounds");
        self.ranges.insert(table, bounds);
    }

    /// Convenience: partition a table uniformly by the top bits of the key —
    /// i.e. `key_high = key >> shift` maps to partition `key_high % k`.
    pub fn by_key_prefix(table: TableId, _k: u32) -> impl Fn(RecordId) -> PartitionId {
        move |r: RecordId| {
            debug_assert_eq!(r.table, table);
            PartitionId((r.key >> 48) as u32)
        }
    }
}

impl Placement for RangePlacement {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        match self.ranges.get(&record.table) {
            Some(bounds) => {
                let p = bounds.partition_point(|&b| b <= record.key);
                PartitionId(p as u32)
            }
            None => HashPlacement::new(self.fallback_partitions).partition_of(record),
        }
    }
}

/// The paper's combined scheme: a small per-record lookup table for hot
/// records plus a default partitioner for everything else (§4.4).
pub struct LookupTable<P: Placement> {
    hot: IntMap<RecordId, PartitionId>,
    default: P,
}

impl<P: Placement> LookupTable<P> {
    pub fn new(default: P) -> Self {
        LookupTable {
            hot: IntMap::default(),
            default,
        }
    }

    pub fn with_entries(
        entries: impl IntoIterator<Item = (RecordId, PartitionId)>,
        default: P,
    ) -> Self {
        LookupTable {
            hot: entries.into_iter().collect(),
            default,
        }
    }

    pub fn insert(&mut self, record: RecordId, partition: PartitionId) {
        self.hot.insert(record, partition);
    }

    pub fn is_hot(&self, record: RecordId) -> bool {
        self.hot.contains_key(&record)
    }

    pub fn hot_entries(&self) -> impl Iterator<Item = (&RecordId, &PartitionId)> {
        self.hot.iter()
    }

    /// Approximate memory footprint in bytes (entry = RecordId + PartitionId).
    pub fn approx_size_bytes(&self) -> usize {
        self.hot.len() * (std::mem::size_of::<RecordId>() + std::mem::size_of::<PartitionId>())
    }
}

impl<P: Placement> Placement for LookupTable<P> {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        match self.hot.get(&record) {
            Some(p) => *p,
            None => self.default.partition_of(record),
        }
    }

    fn lookup_entries(&self) -> usize {
        self.hot.len()
    }
}

/// A placement defined entirely by an explicit per-record map — how Schism
/// must be deployed when the optimal layout is not expressible as ranges
/// (§7.2.2: "the number of entries in the lookup table can be as large as
/// the number of records in the database").
pub struct ExplicitPlacement<P: Placement> {
    map: IntMap<RecordId, PartitionId>,
    /// Fallback for records created after partitioning (inserts).
    fallback: P,
}

impl<P: Placement> ExplicitPlacement<P> {
    pub fn new(map: impl IntoIterator<Item = (RecordId, PartitionId)>, fallback: P) -> Self {
        ExplicitPlacement {
            map: map.into_iter().collect(),
            fallback,
        }
    }
}

impl<P: Placement> Placement for ExplicitPlacement<P> {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        match self.map.get(&record) {
            Some(p) => *p,
            None => self.fallback.partition_of(record),
        }
    }

    fn lookup_entries(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(t: u16, k: u64) -> RecordId {
        RecordId::new(TableId(t), k)
    }

    #[test]
    fn hash_placement_in_range_and_deterministic() {
        let p = HashPlacement::new(4);
        for k in 0..1000 {
            let a = p.partition_of(rid(1, k));
            assert!(a.0 < 4);
            assert_eq!(a, p.partition_of(rid(1, k)));
        }
    }

    #[test]
    fn hash_placement_spreads_keys() {
        let p = HashPlacement::new(4);
        let mut counts = [0usize; 4];
        for k in 0..10_000 {
            counts[p.partition_of(rid(1, k)).idx()] += 1;
        }
        for c in counts {
            assert!((2_000..3_000).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn hash_differs_across_tables() {
        let p = HashPlacement::new(16);
        let same_everywhere =
            (0..100).all(|k| p.partition_of(rid(1, k)) == p.partition_of(rid(2, k)));
        assert!(!same_everywhere);
    }

    #[test]
    fn range_placement_respects_bounds() {
        let mut p = RangePlacement::new(1);
        p.set_table(TableId(1), vec![100, 200]);
        assert_eq!(p.partition_of(rid(1, 0)), PartitionId(0));
        assert_eq!(p.partition_of(rid(1, 99)), PartitionId(0));
        assert_eq!(p.partition_of(rid(1, 100)), PartitionId(1));
        assert_eq!(p.partition_of(rid(1, 199)), PartitionId(1));
        assert_eq!(p.partition_of(rid(1, 200)), PartitionId(2));
        assert_eq!(p.partition_of(rid(1, u64::MAX)), PartitionId(2));
    }

    #[test]
    fn lookup_table_overrides_default_only_for_hot() {
        let mut lt = LookupTable::new(HashPlacement::new(4));
        let hot = rid(1, 42);
        let want = PartitionId(3);
        lt.insert(hot, want);
        assert_eq!(lt.partition_of(hot), want);
        assert!(lt.is_hot(hot));
        assert!(!lt.is_hot(rid(1, 43)));
        assert_eq!(lt.lookup_entries(), 1);
        // Cold records use the hash fallback.
        let cold = rid(1, 7);
        assert_eq!(
            lt.partition_of(cold),
            HashPlacement::new(4).partition_of(cold)
        );
    }

    #[test]
    fn lookup_table_size_accounting() {
        let mut lt = LookupTable::new(HashPlacement::new(2));
        for k in 0..10 {
            lt.insert(rid(1, k), PartitionId(0));
        }
        assert_eq!(lt.approx_size_bytes(), 10 * (16 + 4));
    }

    #[test]
    fn explicit_placement_counts_all_entries() {
        let mut map = std::collections::HashMap::new();
        for k in 0..100 {
            map.insert(rid(1, k), PartitionId((k % 2) as u32));
        }
        let p = ExplicitPlacement::new(map, HashPlacement::new(2));
        assert_eq!(p.lookup_entries(), 100);
        assert_eq!(p.partition_of(rid(1, 3)), PartitionId(1));
    }
}
