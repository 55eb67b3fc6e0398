//! Functional memory components of one DPU: the 64 MB MRAM bank and the
//! 64 KB WRAM scratchpad.
//!
//! Both memories hold real bytes — kernels running on the simulator
//! compute real results, which downstream crates check against a pure-CPU
//! reference.
//!
//! **MRAM backing** (DESIGN.md, `crates/upmem-sim`). A bank costs host
//! time and host memory in proportion to the bytes *written* to it,
//! never to the address range *committed*: its storage comes zeroed
//! from the allocator (`alloc_zeroed` — untouched zero pages the OS
//! makes resident only when they are written), committing a range
//! writes nothing into it, and the one thing growth copies is the
//! range committed before it. A 2 MB staging reserve per slot per DPU
//! is therefore address space, not resident memory, and the paper's
//! 2,560-DPU system simulates in the memory its tables and touched
//! staging bytes need. The one party that can still clear a reserve is
//! the allocator itself, when it serves `alloc_zeroed` from a freed
//! chunk it recycles rather than from fresh pages (glibc does once
//! enough bank-sized chunks have been freed in one process —
//! EXPERIMENTS.md, "An engine costs what it writes"); the simulator
//! never does.

use crate::arch::{DMA_ALIGN, DMA_MAX_TRANSFER, MRAM_CAPACITY, WRAM_CAPACITY};
use crate::error::{Result, SimError};

/// One DPU's 64 MB DRAM bank.
///
/// All accesses go through DMA-shaped read/write methods that enforce the
/// hardware's alignment (8 B) and size (≤ 2048 B) rules. The backing
/// storage grows lazily up to [`MRAM_CAPACITY`] (see the module docs
/// for what growth costs).
#[derive(Debug, Clone, Default)]
pub struct Mram {
    /// Zero-initialized backing, at least `committed` bytes long. No
    /// write reaches past `committed`, so the tail is still the zeros
    /// the allocator handed out and reads as never-written MRAM must.
    data: Vec<u8>,
    committed: usize,
}

impl Mram {
    /// Creates an empty MRAM bank.
    pub fn new() -> Self {
        Mram::default()
    }

    /// Bytes currently committed: the high-water mark of every write
    /// and [`Mram::commit`] so far. Bytes below it that were never
    /// written read as zeros, like everything above it.
    pub fn committed(&self) -> usize {
        self.committed
    }

    /// Validates a DMA request against alignment, size and capacity rules.
    ///
    /// # Errors
    ///
    /// Returns the specific [`SimError`] for an empty, unaligned,
    /// oversized or out-of-bounds transfer.
    #[inline]
    pub fn check_dma(addr: u32, len: usize) -> Result<()> {
        if len == 0 {
            return Err(SimError::EmptyDma);
        }
        if len > DMA_MAX_TRANSFER {
            return Err(SimError::DmaTooLarge { len });
        }
        if !(addr as usize).is_multiple_of(DMA_ALIGN) || !len.is_multiple_of(DMA_ALIGN) {
            return Err(SimError::UnalignedDma { addr, len });
        }
        let end = addr as usize + len;
        if end > MRAM_CAPACITY {
            return Err(SimError::MramOutOfBounds {
                addr,
                len,
                capacity: MRAM_CAPACITY,
            });
        }
        Ok(())
    }

    /// The single growth point: raises the committed mark to `end`
    /// (callers have checked `end <= MRAM_CAPACITY`) without writing a
    /// byte of the range it adds.
    #[inline]
    fn ensure(&mut self, end: usize) {
        if end > self.committed {
            if end > self.data.len() {
                self.grow(end);
            }
            self.committed = end;
        }
    }

    /// Moves the bank into a larger zeroed allocation, copying only the
    /// committed prefix; everything else stays untouched zero pages.
    /// Doubling keeps a bank grown write by write at amortized O(1) per
    /// byte, and a bank committed once to its planned end
    /// ([`Mram::commit`]) never comes back here.
    #[cold]
    fn grow(&mut self, end: usize) {
        let len = end.max(self.data.len() * 2).min(MRAM_CAPACITY);
        let mut data = vec![0u8; len];
        data[..self.committed].copy_from_slice(&self.data[..self.committed]);
        self.data = data;
    }

    /// DMA read of `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Errors
    ///
    /// Fails if the transfer violates DMA rules (see [`Mram::check_dma`]).
    #[inline]
    pub fn dma_read(&self, addr: u32, buf: &mut [u8]) -> Result<()> {
        Self::check_dma(addr, buf.len())?;
        let start = addr as usize;
        let end = start + buf.len();
        if end <= self.data.len() {
            buf.copy_from_slice(&self.data[start..end]);
        } else if start >= self.data.len() {
            buf.fill(0);
        } else {
            let n = self.data.len() - start;
            buf[..n].copy_from_slice(&self.data[start..]);
            buf[n..].fill(0);
        }
        Ok(())
    }

    /// Commits the bank to at least `end` bytes (clamped to
    /// [`MRAM_CAPACITY`]) and returns every committed byte, writable —
    /// the one borrow through which a whole-DPU program
    /// ([`DpuPass::mram`](crate::dpu::DpuPass::mram)) indexes its rows
    /// and streams and writes its result rows in place. Never-written
    /// MRAM reads as zeros, exactly like [`Mram::dma_read`]; checking
    /// each access against the DMA rules ([`Mram::check_dma`]) and
    /// against this slice's length is the caller's job.
    #[inline]
    pub fn committed_mut(&mut self, end: usize) -> &mut [u8] {
        self.commit(end);
        &mut self.data[..self.committed]
    }

    /// Host-side pre-commit: raises the committed mark to `end`
    /// (clamped to [`MRAM_CAPACITY`]). It writes nothing — the range it
    /// adds is address space until something is stored there — so
    /// committing a planned layout costs the same however large its
    /// staging reserves are. What a caller may rely on: commit a bank
    /// once to the end of its layout *before* loading it and every
    /// later write lands in that one allocation; load first and commit
    /// afterwards and the bank is equal byte for byte, at the price of
    /// one copy of what was loaded. Functionally a no-op: unwritten
    /// MRAM reads as zeros either way.
    pub fn commit(&mut self, end: usize) {
        self.ensure(end.min(MRAM_CAPACITY));
    }

    /// DMA write of `buf` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the transfer violates DMA rules (see [`Mram::check_dma`]).
    #[inline]
    pub fn dma_write(&mut self, addr: u32, buf: &[u8]) -> Result<()> {
        Self::check_dma(addr, buf.len())?;
        let start = addr as usize;
        self.ensure(start + buf.len());
        self.data[start..start + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Host-side bulk write (CPU→MRAM), free of per-DMA size limits but
    /// still 8-byte aligned and bounded by capacity.
    ///
    /// # Errors
    ///
    /// Fails on unaligned or out-of-bounds writes.
    pub fn host_write(&mut self, addr: u32, buf: &[u8]) -> Result<()> {
        self.host_window_mut(addr, buf.len())?.copy_from_slice(buf);
        Ok(())
    }

    /// The `len` bytes at `addr`, committed and writable in place: what
    /// [`Mram::host_write`] copies into, for a host that serializes
    /// straight into the bank instead of staging a buffer first. Same
    /// rules and errors as [`Mram::host_write`].
    ///
    /// # Errors
    ///
    /// Fails on unaligned or out-of-bounds ranges.
    pub fn host_window_mut(&mut self, addr: u32, len: usize) -> Result<&mut [u8]> {
        if !(addr as usize).is_multiple_of(DMA_ALIGN) {
            return Err(SimError::UnalignedDma { addr, len });
        }
        let end = (addr as usize).saturating_add(len);
        if end > MRAM_CAPACITY {
            return Err(SimError::MramOutOfBounds {
                addr,
                len,
                capacity: MRAM_CAPACITY,
            });
        }
        self.ensure(end);
        Ok(&mut self.data[addr as usize..end])
    }

    /// Host-side bulk read (MRAM→CPU).
    ///
    /// # Errors
    ///
    /// Fails on unaligned or out-of-bounds reads.
    pub fn host_read(&self, addr: u32, buf: &mut [u8]) -> Result<()> {
        if !(addr as usize).is_multiple_of(DMA_ALIGN) {
            return Err(SimError::UnalignedDma {
                addr,
                len: buf.len(),
            });
        }
        let start = addr as usize;
        let end = start + buf.len();
        if end > MRAM_CAPACITY {
            return Err(SimError::MramOutOfBounds {
                addr,
                len: buf.len(),
                capacity: MRAM_CAPACITY,
            });
        }
        if end <= self.data.len() {
            buf.copy_from_slice(&self.data[start..end]);
        } else if start >= self.data.len() {
            buf.fill(0);
        } else {
            let n = self.data.len() - start;
            buf[..n].copy_from_slice(&self.data[start..]);
            buf[n..].fill(0);
        }
        Ok(())
    }
}

/// Sequential MRAM region planner: hands out 8-byte-aligned,
/// non-overlapping base addresses inside one DPU's 64 MB bank.
///
/// Hosts lay their MRAM image out as a sequence of named regions (EMT
/// tile, cache rows, per-batch staging slots). This helper centralizes
/// the two rules every such layout must obey — DMA alignment
/// ([`DMA_ALIGN`]) and the capacity ceiling ([`MRAM_CAPACITY`]) — so a
/// region that does not fit surfaces as an error at *planning* time
/// instead of as a mid-batch DMA fault. Reserving a region commits
/// nothing; the bank still grows lazily on first write.
///
/// ```rust
/// use upmem_sim::MramLayout;
/// let mut layout = MramLayout::new();
/// let emt = layout.reserve(1 << 20).unwrap();
/// let slot0 = layout.reserve(4096).unwrap();
/// let slot1 = layout.reserve(4096).unwrap();
/// assert_eq!(emt, 0);
/// assert!(slot0 < slot1 && (slot1 as usize).is_multiple_of(8));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MramLayout {
    next: usize,
}

impl MramLayout {
    /// An empty layout starting at address 0.
    pub fn new() -> Self {
        MramLayout { next: 0 }
    }

    /// Reserves `bytes` (rounded up to [`DMA_ALIGN`]) and returns the
    /// region's base address. Zero-byte regions are legal and return
    /// the current cursor without advancing it.
    ///
    /// # Errors
    ///
    /// [`SimError::MramOutOfBounds`] if the region would extend past
    /// [`MRAM_CAPACITY`]; the layout is left unchanged.
    pub fn reserve(&mut self, bytes: usize) -> Result<u32> {
        let base = self.next;
        let padded = bytes
            .checked_add(DMA_ALIGN - 1)
            .map(|b| b & !(DMA_ALIGN - 1))
            .unwrap_or(usize::MAX);
        let end = base.saturating_add(padded);
        if end > MRAM_CAPACITY {
            return Err(SimError::MramOutOfBounds {
                addr: base as u32,
                len: bytes,
                capacity: MRAM_CAPACITY,
            });
        }
        self.next = end;
        Ok(base as u32)
    }

    /// Bytes reserved so far.
    pub fn used(&self) -> usize {
        self.next
    }

    /// Bytes still available below the capacity ceiling.
    pub fn remaining(&self) -> usize {
        MRAM_CAPACITY - self.next
    }
}

/// One DPU's 64 KB scratchpad.
///
/// Kernels receive disjoint per-tasklet views of this memory; the
/// simulator does not model WRAM access latency separately because WRAM
/// accesses complete within the pipeline (they are covered by the
/// per-instruction cost).
#[derive(Debug, Clone)]
pub struct Wram {
    data: Box<[u8]>,
}

impl Default for Wram {
    fn default() -> Self {
        Self::new()
    }
}

impl Wram {
    /// Creates a zeroed 64 KB scratchpad.
    pub fn new() -> Self {
        Wram {
            data: vec![0u8; WRAM_CAPACITY].into_boxed_slice(),
        }
    }

    /// Total capacity in bytes (64 KB).
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Reads `buf.len()` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the scratchpad.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        let end = offset
            .checked_add(buf.len())
            .filter(|&e| e <= self.data.len());
        match end {
            Some(end) => {
                buf.copy_from_slice(&self.data[offset..end]);
                Ok(())
            }
            None => Err(SimError::WramOutOfBounds {
                offset,
                len: buf.len(),
            }),
        }
    }

    /// Writes `buf` at `offset`.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the scratchpad.
    pub fn write(&mut self, offset: usize, buf: &[u8]) -> Result<()> {
        let end = offset
            .checked_add(buf.len())
            .filter(|&e| e <= self.data.len());
        match end {
            Some(end) => {
                self.data[offset..end].copy_from_slice(buf);
                Ok(())
            }
            None => Err(SimError::WramOutOfBounds {
                offset,
                len: buf.len(),
            }),
        }
    }

    /// Mutable view of a sub-range, used to hand tasklets disjoint slices.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the scratchpad.
    pub fn slice_mut(&mut self, offset: usize, len: usize) -> Result<&mut [u8]> {
        let end = offset.checked_add(len).filter(|&e| e <= self.data.len());
        match end {
            Some(end) => Ok(&mut self.data[offset..end]),
            None => Err(SimError::WramOutOfBounds { offset, len }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_round_trip() {
        let mut m = Mram::new();
        let src = [1u8, 2, 3, 4, 5, 6, 7, 8];
        m.dma_write(16, &src).unwrap();
        let mut dst = [0u8; 8];
        m.dma_read(16, &mut dst).unwrap();
        assert_eq!(src, dst);
    }

    #[test]
    fn dma_rejects_unaligned() {
        let m = Mram::new();
        let mut buf = [0u8; 8];
        assert_eq!(
            m.dma_read(4, &mut buf),
            Err(SimError::UnalignedDma { addr: 4, len: 8 })
        );
        let mut buf7 = [0u8; 7];
        assert!(matches!(
            m.dma_read(0, &mut buf7),
            Err(SimError::UnalignedDma { .. })
        ));
    }

    #[test]
    fn dma_rejects_oversized() {
        let m = Mram::new();
        let mut buf = vec![0u8; 2056];
        assert_eq!(
            m.dma_read(0, &mut buf),
            Err(SimError::DmaTooLarge { len: 2056 })
        );
    }

    #[test]
    fn dma_rejects_empty() {
        let m = Mram::new();
        let mut buf = [0u8; 0];
        assert_eq!(m.dma_read(0, &mut buf), Err(SimError::EmptyDma));
    }

    #[test]
    fn dma_rejects_out_of_bounds() {
        let m = Mram::new();
        let mut buf = [0u8; 16];
        let addr = (MRAM_CAPACITY - 8) as u32;
        assert!(matches!(
            m.dma_read(addr, &mut buf),
            Err(SimError::MramOutOfBounds { .. })
        ));
    }

    #[test]
    fn unwritten_mram_reads_zero() {
        let m = Mram::new();
        let mut buf = [0xAAu8; 16];
        m.dma_read(1024, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn lazy_growth_tracks_high_water_mark() {
        let mut m = Mram::new();
        assert_eq!(m.committed(), 0);
        m.host_write(1 << 20, &[1u8; 64]).unwrap();
        assert_eq!(m.committed(), (1 << 20) + 64);
        assert!(m.committed() < MRAM_CAPACITY);
    }

    #[test]
    fn host_rw_round_trip_straddling_committed_edge() {
        let mut m = Mram::new();
        m.host_write(0, &[7u8; 8]).unwrap();
        let mut out = [0u8; 16];
        m.host_read(0, &mut out).unwrap();
        assert_eq!(&out[..8], &[7u8; 8]);
        assert_eq!(&out[8..], &[0u8; 8]);
    }

    #[test]
    fn wram_round_trip_and_bounds() {
        let mut w = Wram::new();
        w.write(100, &[9u8; 4]).unwrap();
        let mut out = [0u8; 4];
        w.read(100, &mut out).unwrap();
        assert_eq!(out, [9u8; 4]);
        assert!(matches!(
            w.write(WRAM_CAPACITY - 2, &[0u8; 4]),
            Err(SimError::WramOutOfBounds { .. })
        ));
    }

    #[test]
    fn wram_slice_mut_is_disjoint_view() {
        let mut w = Wram::new();
        {
            let s = w.slice_mut(0, 8).unwrap();
            s.copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        }
        let mut out = [0u8; 8];
        w.read(0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn wram_overflow_offset_does_not_panic() {
        let w = Wram::new();
        let mut buf = [0u8; 8];
        assert!(w.read(usize::MAX - 2, &mut buf).is_err());
    }

    #[test]
    fn layout_reserves_aligned_disjoint_regions() {
        let mut l = MramLayout::new();
        let a = l.reserve(10).unwrap(); // rounds to 16
        let b = l.reserve(8).unwrap();
        let c = l.reserve(0).unwrap();
        assert_eq!((a, b, c), (0, 16, 24));
        assert_eq!(l.used(), 24);
        assert_eq!(l.remaining(), MRAM_CAPACITY - 24);
    }

    #[test]
    fn layout_rejects_overflow_and_stays_usable() {
        let mut l = MramLayout::new();
        l.reserve(MRAM_CAPACITY - 8).unwrap();
        assert!(matches!(
            l.reserve(16),
            Err(SimError::MramOutOfBounds { .. })
        ));
        // The failed reservation must not consume space.
        assert_eq!(l.reserve(8).unwrap() as usize, MRAM_CAPACITY - 8);
        assert_eq!(l.remaining(), 0);
        assert!(matches!(
            MramLayout::new().reserve(usize::MAX),
            Err(SimError::MramOutOfBounds { .. })
        ));
    }
}
