//! Simulated physical memory with real byte contents.
//!
//! Byte copies in the experiments are *real*: migration and replication
//! verifiably move data, and race tests can corrupt and detect it. To
//! make an 8 GB DDR bank affordable, storage is sparse — 4 KiB frames
//! materialize on first write, and reads of untouched memory yield zeros
//! (matching zero-initialized fresh pages).
//!
//! Host time scales the way host RAM does: with backed frames, not with
//! the bytes a range spans. Backed frames sit in an ordered index, so a
//! frame-aligned [`PhysMem::copy`] or a [`PhysMem::discard`] finds the
//! backed frames inside its range in O(log n) and visits only those. A
//! 2 MiB move of untouched memory costs two index probes, not 512.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

/// A physical byte address on the simulated SoC.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Constructs an address.
    #[must_use]
    pub const fn new(addr: u64) -> Self {
        PhysAddr(addr)
    }

    /// Raw address value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Address advanced by `offset` bytes.
    #[must_use]
    pub const fn offset(self, offset: u64) -> Self {
        PhysAddr(self.0 + offset)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

const FRAME_SHIFT: u32 = 12;
const FRAME_SIZE: usize = 1 << FRAME_SHIFT;

/// Sparse, byte-addressable physical memory.
#[derive(Default)]
pub struct PhysMem {
    /// Backed frames by frame number; absent frames read as zeros.
    frames: BTreeMap<u64, Box<[u8; FRAME_SIZE]>>,
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("backed_frames", &self.frames.len())
            .finish()
    }
}

impl PhysMem {
    /// Empty (all-zero) physical memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames that have been materialized.
    #[must_use]
    pub fn backed_frames(&self) -> usize {
        self.frames.len()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mut pos = addr.0;
        let mut done = 0;
        while done < buf.len() {
            let frame = pos >> FRAME_SHIFT;
            let off = (pos as usize) & (FRAME_SIZE - 1);
            let n = (FRAME_SIZE - off).min(buf.len() - done);
            match self.frames.get(&frame) {
                Some(data) => buf[done..done + n].copy_from_slice(&data[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            pos += n as u64;
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) {
        let mut pos = addr.0;
        let mut done = 0;
        while done < buf.len() {
            let frame = pos >> FRAME_SHIFT;
            let off = (pos as usize) & (FRAME_SIZE - 1);
            let n = (FRAME_SIZE - off).min(buf.len() - done);
            let data = self
                .frames
                .entry(frame)
                .or_insert_with(|| Box::new([0u8; FRAME_SIZE]));
            data[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            pos += n as u64;
        }
    }

    /// Copies `len` bytes from `src` to `dst` (the byte-moving work a DMA
    /// descriptor or a kernel memcpy performs). Regions may overlap; the
    /// copy behaves like `memmove`.
    ///
    /// Frame-aligned copies preserve sparseness: an unbacked (all-zero)
    /// source frame *releases* the destination frame instead of
    /// materializing a zero-filled one, so moving a terabyte of
    /// untouched memory costs no host RAM. Reads observe the same bytes
    /// either way.
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: u64) {
        if len == 0 || src == dst {
            return;
        }
        let mask = FRAME_SIZE as u64 - 1;
        if src.0 & mask == 0 && dst.0 & mask == 0 && len & mask == 0 {
            let frames = len >> FRAME_SHIFT;
            let src_f = src.0 >> FRAME_SHIFT;
            let dst_f = dst.0 >> FRAME_SHIFT;
            // Snapshot the backed source frames first so overlapping
            // ranges still behave like memmove. An all-unbacked source
            // collects nothing and allocates nothing.
            let backed: Vec<(u64, Box<[u8; FRAME_SIZE]>)> = self
                .frames
                .range(src_f..src_f + frames)
                .map(|(&f, data)| (f - src_f, data.clone()))
                .collect();
            self.release(dst_f..dst_f + frames);
            for (i, data) in backed {
                self.frames.insert(dst_f + i, data);
            }
            return;
        }
        let mut buf = vec![0u8; len as usize];
        self.read(src, &mut buf);
        self.write(dst, &buf);
    }

    /// Fills `len` bytes at `addr` with `value`.
    pub fn fill(&mut self, addr: PhysAddr, len: u64, value: u8) {
        let buf = vec![value; len as usize];
        self.write(addr, &buf);
    }

    /// Reads one byte (test convenience).
    #[must_use]
    pub fn read_u8(&self, addr: PhysAddr) -> u8 {
        let mut b = [0u8];
        self.read(addr, &mut b);
        b[0]
    }

    /// FNV-1a checksum over `len` bytes — used by tests and examples to
    /// verify data integrity across moves without holding copies.
    #[must_use]
    pub fn checksum(&self, addr: PhysAddr, len: u64) -> u64 {
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in buf {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Releases the backing of every frame fully covered by the range
    /// (models freeing physical pages; reads return zeros afterwards).
    /// Partly covered frames at either end keep their bytes.
    pub fn discard(&mut self, addr: PhysAddr, len: u64) {
        let first = addr.0.div_ceil(FRAME_SIZE as u64);
        let last = (addr.0 + len) >> FRAME_SHIFT;
        if first < last {
            self.release(first..last);
        }
    }

    /// Drops every backed frame whose number lies in `frames`, visiting
    /// only those.
    fn release(&mut self, frames: Range<u64>) {
        let mut next = frames.start;
        while let Some(&frame) = self.frames.range(next..frames.end).next().map(|(f, _)| f) {
            self.frames.remove(&frame);
            next = frame + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn read_of_untouched_memory_is_zero() {
        let mem = PhysMem::new();
        let mut buf = [0xAAu8; 64];
        mem.read(PhysAddr::new(0x1234_5678), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(mem.backed_frames(), 0);
    }

    #[test]
    fn write_read_roundtrip_across_frames() {
        let mut mem = PhysMem::new();
        // Straddle a frame boundary deliberately.
        let addr = PhysAddr::new(4096 - 7);
        let data: Vec<u8> = (0..40).collect();
        mem.write(addr, &data);
        let mut back = vec![0u8; 40];
        mem.read(addr, &mut back);
        assert_eq!(back, data);
        assert_eq!(mem.backed_frames(), 2);
    }

    #[test]
    fn copy_moves_bytes() {
        let mut mem = PhysMem::new();
        let src = PhysAddr::new(0x10_000);
        let dst = PhysAddr::new(0x8000_0000);
        mem.fill(src, 8192, 0x5A);
        mem.copy(src, dst, 8192);
        assert_eq!(mem.read_u8(dst), 0x5A);
        assert_eq!(mem.read_u8(dst.offset(8191)), 0x5A);
        assert_eq!(mem.checksum(src, 8192), mem.checksum(dst, 8192));
    }

    #[test]
    fn overlapping_copy_is_memmove() {
        let mut mem = PhysMem::new();
        let base = PhysAddr::new(0x2000);
        let data: Vec<u8> = (0..=255).collect();
        mem.write(base, &data);
        mem.copy(base, base.offset(16), 256);
        assert_eq!(mem.read_u8(base.offset(16)), 0);
        assert_eq!(mem.read_u8(base.offset(16 + 255)), 255);
    }

    #[test]
    fn checksums_differ_for_different_data() {
        let mut mem = PhysMem::new();
        mem.fill(PhysAddr::new(0), 128, 1);
        mem.fill(PhysAddr::new(4096), 128, 2);
        assert_ne!(
            mem.checksum(PhysAddr::new(0), 128),
            mem.checksum(PhysAddr::new(4096), 128)
        );
    }

    #[test]
    fn discard_releases_backing() {
        let mut mem = PhysMem::new();
        mem.fill(PhysAddr::new(0), 4096 * 4, 0xFF);
        assert_eq!(mem.backed_frames(), 4);
        mem.discard(PhysAddr::new(0), 4096 * 2);
        assert_eq!(mem.backed_frames(), 2);
        assert_eq!(mem.read_u8(PhysAddr::new(0)), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(4096 * 2)), 0xFF);
    }

    #[test]
    fn aligned_copy_of_untouched_source_stays_sparse() {
        let mut mem = PhysMem::new();
        // Destination had data; the all-zero source overwrites it by
        // *releasing* the frames rather than materializing zeros.
        mem.fill(PhysAddr::new(0x8000), 4096 * 2, 0x77);
        assert_eq!(mem.backed_frames(), 2);
        mem.copy(PhysAddr::new(0x100_0000), PhysAddr::new(0x8000), 4096 * 2);
        assert_eq!(mem.backed_frames(), 0, "no zero frames materialized");
        assert_eq!(mem.read_u8(PhysAddr::new(0x8000)), 0);
    }

    #[test]
    fn aligned_copy_matches_byte_copy() {
        let mut a = PhysMem::new();
        let mut b = PhysMem::new();
        for m in [&mut a, &mut b] {
            m.fill(PhysAddr::new(0x1000), 4096, 0x11);
            // 0x2000 left unbacked; 0x3000 backed.
            m.fill(PhysAddr::new(0x3000), 4096, 0x33);
        }
        // a: aligned (frame) path; b: forced byte path via odd length
        // split into two copies.
        a.copy(PhysAddr::new(0x1000), PhysAddr::new(0x10_000), 4096 * 3);
        b.copy(PhysAddr::new(0x1000), PhysAddr::new(0x10_000), 4096 * 3 - 1);
        b.copy(
            PhysAddr::new(0x1000 + 4096 * 3 - 1),
            PhysAddr::new(0x10_000 + 4096 * 3 - 1),
            1,
        );
        assert_eq!(
            a.checksum(PhysAddr::new(0x10_000), 4096 * 3),
            b.checksum(PhysAddr::new(0x10_000), 4096 * 3)
        );
    }

    #[test]
    fn zero_len_and_self_copy_are_noops() {
        let mut mem = PhysMem::new();
        mem.fill(PhysAddr::new(0), 16, 7);
        mem.copy(PhysAddr::new(0), PhysAddr::new(0), 16);
        mem.copy(PhysAddr::new(0), PhysAddr::new(64), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(64)), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(0)), 7);
    }

    #[test]
    fn discard_keeps_a_partly_covered_first_frame() {
        let mut mem = PhysMem::new();
        mem.fill(PhysAddr::new(0x1000), 4096, 0xAB);
        mem.fill(PhysAddr::new(0x2000), 4096, 0xCD);
        // Covers the upper half of 0x1000 and the lower half of 0x2000:
        // no frame fully, so nothing is released.
        mem.discard(PhysAddr::new(0x1800), 4096);
        assert_eq!(mem.read_u8(PhysAddr::new(0x1000)), 0xAB);
        assert_eq!(mem.read_u8(PhysAddr::new(0x2FFF)), 0xCD);
        assert_eq!(mem.backed_frames(), 2);
        // Covering 0x2000 whole releases exactly that frame.
        mem.discard(PhysAddr::new(0x1800), 0x1800 + 4096);
        assert_eq!(mem.read_u8(PhysAddr::new(0x1000)), 0xAB);
        assert_eq!(mem.read_u8(PhysAddr::new(0x2000)), 0);
        assert_eq!(mem.backed_frames(), 1);
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(PhysAddr::new(0xABC).to_string(), "0xabc");
        assert_eq!(format!("{:x}", PhysAddr::new(0xABC)), "abc");
    }

    /// The reference model: a hash map probed once per 4 KiB frame, as
    /// `PhysMem` was before the ordered index, with `discard` releasing
    /// fully covered frames only.
    #[derive(Default)]
    struct FrameHashMem {
        frames: std::collections::HashMap<u64, Box<[u8; FRAME_SIZE]>>,
    }

    impl FrameHashMem {
        fn read(&self, addr: u64, buf: &mut [u8]) {
            let mut done = 0;
            while done < buf.len() {
                let pos = addr + done as u64;
                let off = (pos as usize) & (FRAME_SIZE - 1);
                let n = (FRAME_SIZE - off).min(buf.len() - done);
                match self.frames.get(&(pos >> FRAME_SHIFT)) {
                    Some(data) => buf[done..done + n].copy_from_slice(&data[off..off + n]),
                    None => buf[done..done + n].fill(0),
                }
                done += n;
            }
        }

        fn write(&mut self, addr: u64, buf: &[u8]) {
            let mut done = 0;
            while done < buf.len() {
                let pos = addr + done as u64;
                let off = (pos as usize) & (FRAME_SIZE - 1);
                let n = (FRAME_SIZE - off).min(buf.len() - done);
                let data = self
                    .frames
                    .entry(pos >> FRAME_SHIFT)
                    .or_insert_with(|| Box::new([0u8; FRAME_SIZE]));
                data[off..off + n].copy_from_slice(&buf[done..done + n]);
                done += n;
            }
        }

        fn copy(&mut self, src: u64, dst: u64, len: u64) {
            if len == 0 || src == dst {
                return;
            }
            let mask = FRAME_SIZE as u64 - 1;
            if src & mask == 0 && dst & mask == 0 && len & mask == 0 {
                let (src_f, dst_f) = (src >> FRAME_SHIFT, dst >> FRAME_SHIFT);
                let contents: Vec<_> = (0..len >> FRAME_SHIFT)
                    .map(|i| self.frames.get(&(src_f + i)).cloned())
                    .collect();
                for (i, frame) in contents.into_iter().enumerate() {
                    match frame {
                        Some(data) => self.frames.insert(dst_f + i as u64, data),
                        None => self.frames.remove(&(dst_f + i as u64)),
                    };
                }
                return;
            }
            let mut buf = vec![0u8; len as usize];
            self.read(src, &mut buf);
            self.write(dst, &buf);
        }

        fn discard(&mut self, addr: u64, len: u64) {
            let first = addr.div_ceil(FRAME_SIZE as u64);
            let last = (addr + len) >> FRAME_SHIFT;
            for frame in first..last {
                self.frames.remove(&frame);
            }
        }
    }

    /// Frames of the window the operations touch.
    const WINDOW_FRAMES: u64 = 12;
    /// A frame-aligned area no operation ever writes: an unbacked source.
    const HOLE: u64 = 0x100 << FRAME_SHIFT;

    #[derive(Debug, Clone)]
    enum Op {
        Write {
            addr: u64,
            len: u64,
            seed: u8,
        },
        Fill {
            addr: u64,
            len: u64,
            value: u8,
        },
        /// Frame-aligned copy; source and destination may overlap.
        CopyFrames {
            src: u64,
            dst: u64,
            frames: u64,
        },
        /// An unbacked source copied over (possibly backed) frames.
        CopyHole {
            dst: u64,
            frames: u64,
        },
        Copy {
            src: u64,
            dst: u64,
            len: u64,
        },
        Discard {
            addr: u64,
            len: u64,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let bytes = WINDOW_FRAMES << FRAME_SHIFT;
        let frame = 0..WINDOW_FRAMES;
        prop_oneof![
            (0..bytes, 1u64..9000, any::<u8>()).prop_map(|(addr, len, seed)| Op::Write {
                addr,
                len,
                seed
            }),
            (frame.clone(), 1u64..4, any::<u8>()).prop_map(|(f, n, value)| Op::Fill {
                addr: f << FRAME_SHIFT,
                len: n << FRAME_SHIFT,
                value
            }),
            (frame.clone(), frame.clone(), 0u64..5).prop_map(|(s, d, n)| Op::CopyFrames {
                src: s << FRAME_SHIFT,
                dst: d << FRAME_SHIFT,
                frames: n
            }),
            (frame.clone(), 1u64..5).prop_map(|(d, n)| Op::CopyHole {
                dst: d << FRAME_SHIFT,
                frames: n
            }),
            (0..bytes, 0..bytes, 0u64..10_000).prop_map(|(src, dst, len)| Op::Copy {
                src,
                dst,
                len
            }),
            (0..bytes, 0u64..20_000).prop_map(|(addr, len)| Op::Discard { addr, len }),
        ]
    }

    fn apply(mem: &mut PhysMem, model: &mut FrameHashMem, op: &Op) {
        match *op {
            Op::Write { addr, len, seed } => {
                let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
                mem.write(PhysAddr::new(addr), &data);
                model.write(addr, &data);
            }
            Op::Fill { addr, len, value } => {
                mem.fill(PhysAddr::new(addr), len, value);
                model.write(addr, &vec![value; len as usize]);
            }
            Op::CopyFrames { src, dst, frames } => {
                let len = frames << FRAME_SHIFT;
                mem.copy(PhysAddr::new(src), PhysAddr::new(dst), len);
                model.copy(src, dst, len);
            }
            Op::CopyHole { dst, frames } => {
                let len = frames << FRAME_SHIFT;
                mem.copy(PhysAddr::new(HOLE), PhysAddr::new(dst), len);
                model.copy(HOLE, dst, len);
            }
            Op::Copy { src, dst, len } => {
                mem.copy(PhysAddr::new(src), PhysAddr::new(dst), len);
                model.copy(src, dst, len);
            }
            Op::Discard { addr, len } => {
                mem.discard(PhysAddr::new(addr), len);
                model.discard(addr, len);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ordered index must be observationally identical to the
        /// per-frame hash map on any stream of writes, fills, aligned,
        /// unaligned and overlapping copies, and discards: the same
        /// bytes everywhere the stream can reach, and the same frames
        /// backed.
        #[test]
        fn indexed_frames_match_per_frame_model(
            ops in proptest::collection::vec(op_strategy(), 1..40)
        ) {
            let mut mem = PhysMem::new();
            let mut model = FrameHashMem::default();
            for op in &ops {
                apply(&mut mem, &mut model, op);
                prop_assert_eq!(mem.backed_frames(), model.frames.len(), "after {:?}", op);
            }
            // Copies of up to 10,000 bytes can spill past the window.
            let reach = ((WINDOW_FRAMES + 4) << FRAME_SHIFT) as usize;
            let mut got = vec![0u8; reach];
            let mut want = vec![0u8; reach];
            mem.read(PhysAddr::new(0), &mut got);
            model.read(0, &mut want);
            prop_assert!(got == want, "bytes diverge after {:?}", ops);
            let mut keys: Vec<u64> = model.frames.keys().copied().collect();
            keys.sort_unstable();
            prop_assert!(mem.frames.keys().copied().eq(keys));
        }
    }
}
