//! Page-table entries and their flag bits.
//!
//! The *young* bit carries memif's lightweight race detection (§5.2):
//! Remap installs a *semi-final* PTE identical to the final one except
//! that young is set; any page reference clears it; Release swaps in the
//! final PTE with a compare-and-swap that fails exactly when the entry
//! was disturbed during the DMA transfer.

use std::fmt;

use memif_hwsim::PhysAddr;

use crate::addr::PageSize;

const FLAG_PRESENT: u64 = 1 << 0;
const FLAG_WRITABLE: u64 = 1 << 1;
const FLAG_YOUNG: u64 = 1 << 2;
const FLAG_DIRTY: u64 = 1 << 3;
/// A Linux-style migration entry: accesses block until migration ends
/// (the baseline's race *prevention*, §5.2).
const FLAG_MIGRATION: u64 = 1 << 4;
/// Write-protect watch used by memif's proceed-and-recover mode: writes
/// trap to a custom fault handler that aborts the migration.
const FLAG_WATCH: u64 = 1 << 5;
const SIZE_SHIFT: u32 = 6;
const SIZE_MASK: u64 = 0b11 << SIZE_SHIFT;
const ADDR_MASK: u64 = !0xFFF;

/// A page-table entry value: physical frame address plus flag bits.
///
/// Plain value type; the table stores entries and offers the
/// compare-and-swap the driver relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte(u64);

impl Pte {
    /// The empty (non-present) entry.
    pub const EMPTY: Pte = Pte(0);

    /// A present, writable, young mapping of `frame` with `size`.
    ///
    /// Fresh mappings start *young* (recently referenced) and clean, as
    /// Linux installs them.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not aligned to `size`.
    #[must_use]
    pub fn mapping(frame: PhysAddr, size: PageSize) -> Self {
        assert!(
            frame.as_u64() & (size.bytes() - 1) == 0,
            "frame {frame} unaligned for {size} page"
        );
        Pte(frame.as_u64()
            | FLAG_PRESENT
            | FLAG_WRITABLE
            | FLAG_YOUNG
            | ((size as u64) << SIZE_SHIFT))
    }

    /// A Linux migration entry: not present; blocks accessors.
    #[must_use]
    pub fn migration_entry(size: PageSize) -> Self {
        Pte(FLAG_MIGRATION | ((size as u64) << SIZE_SHIFT))
    }

    /// Raw bits (diagnostics).
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The mapped physical frame.
    #[must_use]
    pub fn frame(self) -> PhysAddr {
        PhysAddr::new(self.0 & ADDR_MASK)
    }

    /// Page size recorded in the entry.
    #[must_use]
    pub fn size(self) -> PageSize {
        match (self.0 & SIZE_MASK) >> SIZE_SHIFT {
            1 => PageSize::Medium64K,
            2 => PageSize::Large2M,
            _ => PageSize::Small4K,
        }
    }

    /// Present (maps a frame)?
    #[must_use]
    pub fn is_present(self) -> bool {
        self.0 & FLAG_PRESENT != 0
    }

    /// Empty (neither present nor a special entry)?
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Writable?
    #[must_use]
    pub fn is_writable(self) -> bool {
        self.0 & FLAG_WRITABLE != 0
    }

    /// Young (referenced) bit state.
    #[must_use]
    pub fn is_young(self) -> bool {
        self.0 & FLAG_YOUNG != 0
    }

    /// Dirty?
    #[must_use]
    pub fn is_dirty(self) -> bool {
        self.0 & FLAG_DIRTY != 0
    }

    /// A Linux migration entry?
    #[must_use]
    pub fn is_migration(self) -> bool {
        self.0 & FLAG_MIGRATION != 0
    }

    /// Write-watched (proceed-and-recover mode)?
    #[must_use]
    pub fn is_watched(self) -> bool {
        self.0 & FLAG_WATCH != 0
    }

    /// Copy with the young bit set/cleared.
    #[must_use]
    pub fn with_young(self, young: bool) -> Self {
        if young {
            Pte(self.0 | FLAG_YOUNG)
        } else {
            Pte(self.0 & !FLAG_YOUNG)
        }
    }

    /// Copy with the dirty bit set/cleared.
    #[must_use]
    pub fn with_dirty(self, dirty: bool) -> Self {
        if dirty {
            Pte(self.0 | FLAG_DIRTY)
        } else {
            Pte(self.0 & !FLAG_DIRTY)
        }
    }

    /// Copy with the write-watch bit set/cleared.
    #[must_use]
    pub fn with_watch(self, watch: bool) -> Self {
        if watch {
            Pte(self.0 | FLAG_WATCH)
        } else {
            Pte(self.0 & !FLAG_WATCH)
        }
    }

    /// Copy pointing at a different frame, all flags preserved.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is unaligned for the entry's size.
    #[must_use]
    pub fn with_frame(self, frame: PhysAddr) -> Self {
        assert!(
            frame.as_u64() & (self.size().bytes() - 1) == 0,
            "frame {frame} unaligned for {} page",
            self.size()
        );
        Pte((self.0 & !ADDR_MASK) | frame.as_u64())
    }
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("pte[empty]");
        }
        write!(
            f,
            "pte[{} {} {}{}{}{}{}{}]",
            self.frame(),
            self.size(),
            if self.is_present() { "P" } else { "-" },
            if self.is_writable() { "W" } else { "-" },
            if self.is_young() { "Y" } else { "-" },
            if self.is_dirty() { "D" } else { "-" },
            if self.is_migration() { "M" } else { "-" },
            if self.is_watched() { "X" } else { "-" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_mapping_flags() {
        let pte = Pte::mapping(PhysAddr::new(0x8000_0000), PageSize::Small4K);
        assert!(pte.is_present());
        assert!(pte.is_writable());
        assert!(pte.is_young(), "fresh mappings are young");
        assert!(!pte.is_dirty());
        assert!(!pte.is_migration());
        assert_eq!(pte.frame(), PhysAddr::new(0x8000_0000));
        assert_eq!(pte.size(), PageSize::Small4K);
    }

    #[test]
    fn size_encoding() {
        for size in PageSize::ALL {
            let pte = Pte::mapping(PhysAddr::new(0x4000_0000), size);
            assert_eq!(pte.size(), size);
        }
    }

    #[test]
    fn semi_final_vs_final_differ_only_in_young() {
        // The §5.2 relationship: semi-final == final except young.
        let final_pte =
            Pte::mapping(PhysAddr::new(0x0C00_0000), PageSize::Small4K).with_young(false);
        let semi_final = final_pte.with_young(true);
        assert_eq!(semi_final.with_young(false), final_pte);
        assert_ne!(semi_final, final_pte);
        assert_eq!(semi_final.frame(), final_pte.frame());
    }

    #[test]
    fn migration_entry_blocks() {
        let pte = Pte::migration_entry(PageSize::Medium64K);
        assert!(pte.is_migration());
        assert!(!pte.is_present());
        assert!(!pte.is_empty());
        assert_eq!(pte.size(), PageSize::Medium64K);
    }

    #[test]
    fn frame_replacement_preserves_flags() {
        let pte = Pte::mapping(PhysAddr::new(0x8000_0000), PageSize::Small4K).with_dirty(true);
        let moved = pte.with_frame(PhysAddr::new(0x0C00_1000));
        assert_eq!(moved.frame(), PhysAddr::new(0x0C00_1000));
        assert!(moved.is_dirty());
        assert!(moved.is_present());
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_frame_rejected() {
        let _ = Pte::mapping(PhysAddr::new(0x1234), PageSize::Large2M);
    }

    #[test]
    fn watch_bit() {
        let pte = Pte::mapping(PhysAddr::new(0x1000), PageSize::Small4K).with_watch(true);
        assert!(pte.is_watched());
        assert!(!pte.with_watch(false).is_watched());
    }

    #[test]
    fn display_is_informative() {
        let pte = Pte::mapping(PhysAddr::new(0x1000), PageSize::Small4K);
        let s = pte.to_string();
        assert!(s.contains("0x1000"));
        assert!(s.contains('Y'));
        assert_eq!(Pte::EMPTY.to_string(), "pte[empty]");
    }
}
