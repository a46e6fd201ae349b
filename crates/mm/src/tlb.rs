//! A software TLB model for flush accounting.
//!
//! The paper's Release optimization rests on a TLB fact: "no TLB flush is
//! needed since the semi-final PTE never enters TLB" (§5.2). This model
//! tracks which translations have been walked into the TLB so tests can
//! verify that claim, and counts flush operations so the cost harness can
//! charge them.
//!
//! A translation is keyed by its page base, `vaddr.align_down(size)`,
//! and cached as one presence bit per 4 KiB granule. The bits are
//! chunked per 2 MiB like the page table's leaf tables, in a `Vec`
//! indexed by `vaddr >> 21` and grown to the highest chunk filled, so a
//! fill, probe or flush is one index and one bit operation. Keys wrap at
//! the top of the 39-bit space, as page-table chunks do.

use crate::addr::{PageSize, VirtAddr};

/// Granules per chunk, and presence words per chunk.
const GRANULES: u64 = 512;
const WORDS: usize = GRANULES as usize / 64;
/// Chunks in the 39-bit space.
const CHUNKS: u64 = 1 << 18;

/// Flush counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Single-entry flushes.
    pub page_flushes: u64,
    /// Whole-TLB flushes.
    pub full_flushes: u64,
    /// Translations served from the TLB.
    pub hits: u64,
    /// Translations that required a walk.
    pub misses: u64,
}

/// A set-of-translations TLB (capacity-unbounded: the experiments care
/// about *whether* an entry was cached, not replacement policy).
#[derive(Debug, Default)]
pub struct Tlb {
    /// Chunk `c` holds the presence bits of `[c * 2 MiB, (c + 1) * 2 MiB)`,
    /// bit `g % 64` of word `g / 64` for granule `g` of the chunk.
    chunks: Vec<[u64; WORDS]>,
    len: usize,
    stats: TlbStats,
}

/// `(chunk, word, bit mask)` of the translation for the `size` page
/// holding `vaddr`.
fn slot(vaddr: VirtAddr, size: PageSize) -> (usize, usize, u64) {
    let granule = vaddr.align_down(size).as_u64() >> 12;
    let chunk = (granule / GRANULES % CHUNKS) as usize;
    let word = (granule % GRANULES) as usize / 64;
    (chunk, word, 1 << (granule % 64))
}

impl Tlb {
    /// An empty TLB.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a translation for the page containing `vaddr`. Returns
    /// `true` on a hit (already cached).
    pub fn access(&mut self, vaddr: VirtAddr, size: PageSize) -> bool {
        let (chunk, word, bit) = slot(vaddr, size);
        if self.chunks.len() <= chunk {
            self.chunks.resize(chunk + 1, [0; WORDS]);
        }
        let word = &mut self.chunks[chunk][word];
        if *word & bit != 0 {
            self.stats.hits += 1;
            true
        } else {
            *word |= bit;
            self.len += 1;
            self.stats.misses += 1;
            false
        }
    }

    /// True if the page's translation is currently cached.
    #[must_use]
    pub fn contains(&self, vaddr: VirtAddr, size: PageSize) -> bool {
        let (chunk, word, bit) = slot(vaddr, size);
        self.chunks.get(chunk).is_some_and(|c| c[word] & bit != 0)
    }

    /// Flushes the entry for one page.
    pub fn flush_page(&mut self, vaddr: VirtAddr, size: PageSize) {
        let (chunk, word, bit) = slot(vaddr, size);
        if let Some(word) = self.chunks.get_mut(chunk).map(|c| &mut c[word]) {
            if *word & bit != 0 {
                *word &= !bit;
                self.len -= 1;
            }
        }
        self.stats.page_flushes += 1;
    }

    /// Flushes everything.
    pub fn flush_all(&mut self) {
        self.chunks.clear();
        self.len = 0;
        self.stats.full_flushes += 1;
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Cached entries (diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut tlb = Tlb::new();
        let va = VirtAddr::new(0x1234_5678);
        assert!(!tlb.access(va, PageSize::Small4K), "cold miss");
        assert!(tlb.access(va, PageSize::Small4K), "warm hit");
        assert!(
            tlb.access(VirtAddr::new(0x1234_5000), PageSize::Small4K),
            "same page"
        );
        let s = tlb.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn page_flush_is_targeted() {
        let mut tlb = Tlb::new();
        tlb.access(VirtAddr::new(0x1000), PageSize::Small4K);
        tlb.access(VirtAddr::new(0x2000), PageSize::Small4K);
        tlb.flush_page(VirtAddr::new(0x1000), PageSize::Small4K);
        assert!(!tlb.contains(VirtAddr::new(0x1000), PageSize::Small4K));
        assert!(tlb.contains(VirtAddr::new(0x2000), PageSize::Small4K));
        assert_eq!(tlb.stats().page_flushes, 1);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn full_flush_clears_all() {
        let mut tlb = Tlb::new();
        for i in 0..8u64 {
            tlb.access(VirtAddr::new(i * 4096), PageSize::Small4K);
        }
        tlb.flush_all();
        assert!(tlb.is_empty());
        assert_eq!(tlb.stats().full_flushes, 1);
    }

    #[test]
    fn large_pages_key_on_their_base() {
        let mut tlb = Tlb::new();
        tlb.access(VirtAddr::new(0x40_0000), PageSize::Large2M);
        assert!(tlb.contains(VirtAddr::new(0x40_0000 + 12345), PageSize::Large2M));
        tlb.flush_page(VirtAddr::new(0x40_0000 + 99), PageSize::Large2M);
        assert!(!tlb.contains(VirtAddr::new(0x40_0000), PageSize::Large2M));
    }
}
