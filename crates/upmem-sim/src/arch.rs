//! Architectural constants and strong ID types for the UPMEM PIM system.
//!
//! The numbers below follow the UPMEM v1A product described in the UpDLRM
//! paper (DAC'24, §2.2) and the public UPMEM SDK documentation: each DPU is
//! a 350 MHz multi-threaded 32-bit RISC core with an 11-stage pipeline,
//! exclusive access to a 64 MB DRAM bank (MRAM), a 64 KB scratchpad (WRAM)
//! and a 24 KB instruction memory (IRAM). MRAM is reached through a DMA
//! engine whose transfers must be 8-byte aligned and at most 2048 bytes.

use std::fmt;

/// Capacity of one DPU's MRAM bank in bytes (64 MB).
pub const MRAM_CAPACITY: usize = 64 * 1024 * 1024;

/// Capacity of one DPU's WRAM scratchpad in bytes (64 KB).
pub const WRAM_CAPACITY: usize = 64 * 1024;

/// Capacity of one DPU's IRAM instruction memory in bytes (24 KB).
pub const IRAM_CAPACITY: usize = 24 * 1024;

/// Required alignment (bytes) of every MRAM DMA transfer.
pub const DMA_ALIGN: usize = 8;

/// Maximum size (bytes) of a single MRAM DMA transfer.
pub const DMA_MAX_TRANSFER: usize = 2048;

/// Default DPU clock frequency in Hz (350 MHz, Table 2 of the paper).
pub const DEFAULT_CLOCK_HZ: u64 = 350_000_000;

/// Depth of the DPU instruction pipeline. A single tasklet may only have
/// one instruction in flight, so a lone tasklet dispatches at most one
/// instruction every `PIPELINE_DEPTH` cycles; `PIPELINE_DEPTH` or more
/// tasklets saturate the pipeline at one instruction per cycle.
pub const PIPELINE_DEPTH: u64 = 11;

/// Maximum number of hardware tasklets (threads) per DPU.
pub const MAX_TASKLETS: usize = 24;

/// Number of tasklets the paper employs per DPU (§4.1).
pub const DEFAULT_TASKLETS: usize = 14;

/// Number of DPUs per rank (one side of a UPMEM DIMM).
pub const DPUS_PER_RANK: usize = 64;

/// Number of DPUs used in the paper's evaluation (two UPMEM modules).
pub const DEFAULT_NR_DPUS: usize = 256;

/// Identifier of a DPU within a [`PimSystem`](crate::host::PimSystem).
///
/// `DpuId` is a dense index in `0..nr_dpus`; ranks are derived from it
/// (`id / DPUS_PER_RANK`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct DpuId(pub u32);

impl DpuId {
    /// Returns the dense index as `usize` for container indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rank this DPU belongs to (64 DPUs per rank).
    #[inline]
    pub fn rank(self) -> u32 {
        self.0 / DPUS_PER_RANK as u32
    }
}

impl fmt::Display for DpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dpu{}", self.0)
    }
}

impl From<u32> for DpuId {
    fn from(v: u32) -> Self {
        DpuId(v)
    }
}

/// A cycle count on the DPU clock domain.
///
/// Newtype so cycle math cannot be accidentally mixed with modeled time;
/// convert explicitly with [`Cycles::to_ps`].
#[derive(
    Debug,
    Clone,
    Copy,
    Default,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The modeled time of this many cycles at clock `hz`, rounded once
    /// to the nearest picosecond (ties up; a 350 MHz cycle is
    /// 2,857.142857 ps). Saturates at [`Ps::MAX`].
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    #[inline]
    pub fn to_ps(self, hz: u64) -> Ps {
        let hz = u128::from(hz);
        let ps = (u128::from(self.0) * PS_PER_SEC + hz / 2) / hz;
        Ps(u64::try_from(ps).unwrap_or(u64::MAX))
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl std::ops::Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl std::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;

/// The latest whole-ns instant the picosecond clock holds (≈ 213 days):
/// integer-ns inputs beyond it — arrival stamps, waits, quanta — are
/// refused where they are parsed.
pub const MAX_WHOLE_NS: u64 = u64::MAX / PS_PER_NS;

/// Picoseconds in one second.
const PS_PER_SEC: u128 = 1_000_000_000_000;

/// An instant or a duration of modeled time, in integer picoseconds —
/// the one unit every stage time, schedule instant and latency of the
/// model is carried in.
///
/// Every default cost constant is a whole number of picoseconds (bus
/// bytes at 156 / 210 ps, 260 / 350 ps ragged; a 2,500,000 ps transfer
/// phase; 1,500,000 / 500,000 ps rank terms; route, combine and probe
/// charges of 1,000 / 100 / 2,000 ps), so time is rounded once, where
/// it is priced: a launch's cycle total ([`Cycles::to_ps`]), a transfer
/// phase and any other f64 ns figure ([`Ps::from_ns`]). From there on
/// it is summed and compared as integers. A `u64` of picoseconds spans
/// 213 days; arithmetic saturates at [`Ps::MAX`] instead of wrapping.
/// Floats appear only where a report prints ns or µs ([`Ps::as_ns`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ps(pub u64);

impl Ps {
    /// Zero time.
    pub const ZERO: Ps = Ps(0);

    /// The latest representable instant (≈ 213 days).
    pub const MAX: Ps = Ps(u64::MAX);

    /// `ns` rounded to the nearest picosecond: the one rounding a
    /// priced f64 figure gets. Saturating: NaN and negatives become
    /// zero, and anything past [`Ps::MAX`] becomes it — inputs that can
    /// reach either are refused where they are parsed
    /// ([`Ps::checked_from_ns`]).
    #[inline]
    pub fn from_ns(ns: f64) -> Ps {
        Ps((ns * PS_PER_NS as f64).round() as u64)
    }

    /// [`Ps::from_ns`] for a value that must be a finite, nonnegative
    /// time whose picoseconds fit a `u64`; `None` otherwise.
    pub fn checked_from_ns(ns: f64) -> Option<Ps> {
        let ps = (ns * PS_PER_NS as f64).round();
        // `u64::MAX as f64` is 2^64, itself out of range.
        (ps.is_finite() && ps >= 0.0 && ps < u64::MAX as f64).then_some(Ps(ps as u64))
    }

    /// A whole number of nanoseconds, exactly up to [`MAX_WHOLE_NS`]
    /// and saturating past it.
    #[inline]
    pub fn from_whole_ns(ns: u64) -> Ps {
        Ps(ns.saturating_mul(PS_PER_NS))
    }

    /// This time in nanoseconds, for reports.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
}

impl std::ops::Add for Ps {
    type Output = Ps;
    #[inline]
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::AddAssign for Ps {
    #[inline]
    fn add_assign(&mut self, rhs: Ps) {
        *self = *self + rhs;
    }
}

/// The time from `rhs` to `self`; `rhs` must not be later (an
/// instant before the one it is measured from is a bug, not a
/// saturation).
impl std::ops::Sub for Ps {
    type Output = Ps;
    #[inline]
    fn sub(self, rhs: Ps) -> Ps {
        Ps(self.0 - rhs.0)
    }
}

impl std::ops::Mul<u64> for Ps {
    type Output = Ps;
    #[inline]
    fn mul(self, rhs: u64) -> Ps {
        Ps(self.0.saturating_mul(rhs))
    }
}

impl std::iter::Sum for Ps {
    fn sum<I: Iterator<Item = Ps>>(iter: I) -> Ps {
        iter.fold(Ps::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ps", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mram_is_64_mb() {
        assert_eq!(MRAM_CAPACITY, 67_108_864);
    }

    #[test]
    fn dma_limits_match_paper() {
        // §3.1: "each MRAM read has to be 8 bytes aligned and can be 2,048
        // bytes maximum".
        assert_eq!(DMA_ALIGN, 8);
        assert_eq!(DMA_MAX_TRANSFER, 2048);
    }

    #[test]
    fn dpu_id_rank_mapping() {
        assert_eq!(DpuId(0).rank(), 0);
        assert_eq!(DpuId(63).rank(), 0);
        assert_eq!(DpuId(64).rank(), 1);
        assert_eq!(DpuId(255).rank(), 3);
    }

    #[test]
    fn cycles_to_time_at_350mhz() {
        assert_eq!(Cycles(350).to_ps(DEFAULT_CLOCK_HZ), Ps(1_000_000));
        // One cycle is 2,857.142857 ps: rounded once, to the nearest.
        assert_eq!(Cycles(1).to_ps(DEFAULT_CLOCK_HZ), Ps(2_857));
        assert_eq!(Cycles(3).to_ps(DEFAULT_CLOCK_HZ), Ps(8_571));
        assert_eq!(Cycles(u64::MAX).to_ps(1), Ps::MAX, "saturates");
    }

    #[test]
    fn ps_conversions_round_once_and_refuse_what_does_not_fit() {
        // The default bus costs are whole picoseconds per byte.
        assert_eq!(Ps::from_ns(4096.0 * 0.156), Ps(4096 * 156));
        assert_eq!(Ps::from_ns(2048.0 * 0.21 / 0.6), Ps(2048 * 350));
        assert_eq!(Ps::from_ns(f64::NAN), Ps::ZERO);
        assert_eq!(Ps::from_ns(-1.0), Ps::ZERO);
        assert_eq!(Ps::from_ns(1e300), Ps::MAX);
        assert_eq!(Ps::from_whole_ns(3), Ps(3_000));
        assert_eq!(Ps::checked_from_ns(2.0), Some(Ps(2_000)));
        for bad in [f64::NAN, f64::INFINITY, -1e-3, 1e300, u64::MAX as f64 / 1e3] {
            assert_eq!(Ps::checked_from_ns(bad), None, "{bad}");
        }
        assert_eq!(Ps::from_whole_ns(MAX_WHOLE_NS), Ps(MAX_WHOLE_NS * 1000));
        assert_eq!(Ps::from_whole_ns(MAX_WHOLE_NS + 1), Ps::MAX);
        assert_eq!(Ps(1_500).as_ns(), 1.5);
        assert_eq!(Ps::MAX + Ps(1), Ps::MAX, "saturates");
        assert_eq!(Ps(7) * 3, Ps(21));
        assert_eq!(Ps(7) - Ps(3), Ps(4));
        assert_eq!([Ps(1), Ps(2)].into_iter().sum::<Ps>(), Ps(3));
    }

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles(3) + Cycles(4);
        assert_eq!(a, Cycles(7));
        let mut b = Cycles(1);
        b += Cycles(2);
        assert_eq!(b, Cycles(3));
        assert_eq!(Cycles(5) * 3, Cycles(15));
        let s: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(s, Cycles(6));
    }

    #[test]
    fn dpu_id_display() {
        assert_eq!(DpuId(7).to_string(), "dpu7");
    }
}
