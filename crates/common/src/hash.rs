//! A fixed integer hasher for the maps probed on every record access and
//! every message.
//!
//! `std`'s default `SipHash` is keyed per process and built to resist
//! hash-flooding by untrusted input. The maps that sit on the hot path
//! here — a partition's tables and buckets, an engine's open
//! transactions, the hot-record set, the placement overlays — are keyed
//! by integers the system itself derives (table ids, bucket ids, txn
//! ids, record ids), so that defence buys nothing and its cost shows up
//! on every probe.
//!
//! [`IntHasher`] absorbs each integer with one *folded multiply*: a
//! 64×64→128-bit product by an odd constant whose high half is XORed
//! into its low half. hashbrown (behind `std::collections::HashMap`)
//! takes the bucket index from the **low** bits of the hash, and a plain
//! multiply only carries key bits upwards — a stride-2^k key sequence, or
//! a TPC-C composite key whose distinguishing fields sit in bits 40..64,
//! would land on few low-bit patterns. Folding the high half down gives
//! every key bit a say in the low bits.
//!
//! The hasher is unkeyed and deterministic; nothing may rely on its
//! iteration order (iterating these maps was already order-free under
//! the randomly keyed default).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier (2^64 / golden ratio) of the folded multiply.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// 64×64→128-bit multiply with the high half folded into the low half.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = (a as u128) * (b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Integer hasher: one folded multiply per absorbed integer. See the
/// module docs for why it replaces `SipHash` on hot-path maps.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = fold_mul(self.0 ^ x, MUL);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Byte-slice fallback (keys that are not plain integers): absorbs
    /// the bytes in little-endian 8-byte words.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// Builder for [`IntHasher`] (zero-sized, no per-map key).
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` over integer-like keys using [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

/// A `HashSet` over integer-like keys using [`IntHasher`].
pub type IntSet<K> = HashSet<K, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{RecordId, TableId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        IntBuildHasher::default().hash_one(v)
    }

    /// Spread of `keys` over the `2^bits` low-bit buckets: the largest
    /// bucket's load relative to a perfectly even spread (1.0 = even).
    fn worst_load<T: Hash>(keys: impl Iterator<Item = T>, bits: u32) -> f64 {
        let mut counts = vec![0usize; 1 << bits];
        let mut n = 0usize;
        for k in keys {
            counts[(hash_of(&k) & ((1 << bits) - 1)) as usize] += 1;
            n += 1;
        }
        let even = n as f64 / counts.len() as f64;
        *counts.iter().max().expect("non-empty") as f64 / even
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        let a = RecordId::new(TableId(1), 7);
        let b = RecordId::new(TableId(2), 7);
        assert_ne!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn stride_power_of_two_keys_spread_over_low_bits() {
        // 4096 keys over 256 low-bit buckets: 16 per bucket when even.
        for k in [0u32, 4, 8, 16, 24, 32, 40, 48] {
            let load = worst_load((0u64..4096).map(|i| i << k), 8);
            assert!(load < 2.5, "stride 2^{k}: worst bucket at {load:.2}x even");
        }
    }

    #[test]
    fn tpcc_composite_keys_spread_over_low_bits() {
        // The TPC-C key layout: warehouse in bits 48.., district in
        // 40..48, then customer (16..40) or order (8..40) + line (0..8).
        let district = |w: u64, d: u64| (w << 48) | (d << 40);
        let districts = (1..=64u64).flat_map(|w| (1..=10u64).map(move |d| district(w, d)));
        assert!(worst_load(districts, 6) < 2.5);
        let customers = (1..=4u64).flat_map(|w| {
            (1..=10u64).flat_map(move |d| (1..=300u64).map(move |c| district(w, d) | (c << 16)))
        });
        assert!(worst_load(customers, 10) < 2.0);
        let order_lines = (1..=2u64).flat_map(|w| {
            (1..=10u64).flat_map(move |d| {
                (1..=100u64)
                    .flat_map(move |o| (1..=15u64).map(move |l| district(w, d) | (o << 8) | l))
            })
        });
        assert!(worst_load(order_lines, 10) < 2.0);
        // Record ids (table + key) hash both fields.
        let rids =
            (1..=8u16).flat_map(|t| (0..512u64).map(move |k| RecordId::new(TableId(t), k << 40)));
        assert!(worst_load(rids, 8) < 2.5);
    }
}
