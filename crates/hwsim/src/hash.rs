//! One hasher for the simulator's integer-keyed maps.
//!
//! The per-page and per-request tables — materialized frames, the frame
//! table, TLB entries, in-flight transfers, submit stamps, the journal
//! index — are all keyed by integers the simulator itself mints:
//! page-aligned addresses, frame numbers, request and chain ids. std's
//! default SipHash defends against adversarial keys these tables never
//! see, and it was a large share of the host cost of one page access.
//!
//! [`IdHasher`] multiplies each word by an odd 64-bit constant into a
//! 128-bit product and folds the high half onto the low half. The fold
//! matters: hashbrown picks buckets from the low hash bits, and a plain
//! `key * K` keeps the twelve zero low bits of a page-aligned key
//! (`i << 12`), piling every page into one bucket in 4096. The high
//! half of the product carries those keys' entropy back down.
//!
//! The hasher has no per-process seed, so the iteration order of an
//! [`IdMap`] or [`IdSet`] depends only on the operations applied to it:
//! the same in every run and every process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 divided by the golden ratio, rounded to odd (Fibonacci hashing).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher for integer keys (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `HashMap` keyed by simulator-minted integers, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` of simulator-minted integers, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Distinct low-bit buckets hit by `keys` in a table of `1 << bits`
    /// buckets, and the fullest bucket's load.
    fn spread(keys: impl Iterator<Item = u64>, bits: u32) -> (usize, usize) {
        let mut load = vec![0usize; 1 << bits];
        for key in keys {
            load[(hash(key) & ((1 << bits) - 1)) as usize] += 1;
        }
        let used = load.iter().filter(|&&n| n > 0).count();
        (used, load.into_iter().max().unwrap_or(0))
    }

    #[test]
    fn page_aligned_keys_spread_across_low_bits() {
        // 4096 page addresses into 4096 buckets: a plain multiply would
        // put all of them in bucket 0. Uniform hashing fills ~63%.
        for base in [0u64, 0x8_0000_0000, 0x4000_0000] {
            let (used, max) = spread((0..4096u64).map(|i| base + (i << 12)), 12);
            assert!(
                used >= 2048,
                "base {base:#x}: only {used} of 4096 buckets used"
            );
            assert!(max <= 8, "base {base:#x}: a bucket holds {max} keys");
        }
        // 2 MiB-aligned keys too (large pages, level-2 entries).
        let (used, _) = spread((0..1024u64).map(|i| i << 21), 10);
        assert!(used >= 512, "only {used} of 1024 buckets used");
    }

    #[test]
    fn frame_numbers_and_ids_spread_across_low_bits() {
        let (used, max) = spread(0x80_0000..0x80_0000 + 4096u64, 12);
        assert!(used >= 2048, "only {used} of 4096 buckets used");
        assert!(max <= 8, "a bucket holds {max} keys");
        let (used, _) = spread(0..256u64, 8);
        assert!(used >= 128, "sequential ids use only {used} of 256 buckets");
    }

    #[test]
    fn hashes_are_fixed_across_processes() {
        // No per-process seed: these values are the same in every run.
        assert_eq!(hash(0), 0);
        assert_eq!(hash(1), K);
        let mut h = IdHasher::default();
        h.write_usize(3);
        h.write_u64(7);
        assert_eq!(h.finish(), {
            let mut g = IdHasher::default();
            g.write_u64(3);
            g.write_u64(7);
            g.finish()
        });
    }

    #[test]
    fn iteration_order_depends_only_on_contents() {
        let keys: Vec<u64> = (0..1000u64).map(|i| (i * 7919) << 12).collect();
        let a: IdSet<u64> = keys.iter().copied().collect();
        let b: IdSet<u64> = keys.iter().copied().collect();
        assert!(a.iter().eq(b.iter()), "two maps, one order");
        let mut m: IdMap<(usize, u64), u32> = IdMap::default();
        m.insert((1, 2), 3);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        assert_eq!(m.get(&(2, 1)), None);
    }
}
