//! Property-based tests for the UPMEM simulator's architectural laws.

use proptest::prelude::*;
use upmem_sim::arch::{Cycles, DpuId, DMA_MAX_TRANSFER, MRAM_CAPACITY};
use upmem_sim::stats::{DpuRunStats, LaunchReport};
use upmem_sim::{CostModel, Mram, Wram};

/// A launch report over the given per-DPU cycle counts.
fn launch_with_cycles(cycles: &[u64]) -> LaunchReport {
    LaunchReport {
        wall_cycles: Cycles(cycles.iter().copied().max().unwrap_or(0)),
        wall: Default::default(),
        per_dpu: cycles
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                (
                    DpuId(i as u32),
                    DpuRunStats {
                        cycles: Cycles(c),
                        ..DpuRunStats::default()
                    },
                )
            })
            .collect(),
        energy_pj: 0.0,
    }
}

/// Address range the MRAM-oracle properties touch: small enough to
/// hold a flat copy, large enough that a bank regrows several times.
const ORACLE_SPAN: usize = 64 << 10;

/// One step of an [`Mram`] interleaving: `(kind, 8-byte block, length in
/// 8-byte blocks, fill byte)`.
type MramOp = (u8, u32, usize, u8);

fn mram_ops() -> impl Strategy<Value = Vec<MramOp>> {
    let blocks = (ORACLE_SPAN / 2 / 8) as u32;
    prop::collection::vec(
        (
            0u8..6,
            0..blocks,
            1usize..=(DMA_MAX_TRANSFER / 8),
            any::<u8>(),
        ),
        1..48,
    )
}

/// Flat model of the touched range: never-written bytes are zero, the
/// committed mark is the high-water end of every write and commit.
struct FlatBank {
    bytes: Vec<u8>,
    high: usize,
}

impl FlatBank {
    fn new() -> Self {
        FlatBank {
            bytes: vec![0; ORACLE_SPAN],
            high: 0,
        }
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        self.bytes[addr..addr + data.len()].copy_from_slice(data);
        self.high = self.high.max(addr + data.len());
    }
}

/// The bank's first [`ORACLE_SPAN`] bytes, read through the host path.
fn bank_image(m: &Mram) -> Vec<u8> {
    let mut image = vec![0xEEu8; ORACLE_SPAN];
    m.host_read(0, &mut image).unwrap();
    image
}

proptest! {
    /// Any interleaving of host writes, DMA writes, commits, in-place
    /// writes through `committed_mut` and reads (straddling the
    /// committed end included) behaves like a flat zero-initialized
    /// array: never-written bytes read as zero, written bytes survive
    /// every later growth, and `committed()` is the high-water mark.
    #[test]
    fn mram_matches_a_flat_oracle_under_any_interleaving(ops in mram_ops()) {
        let mut m = Mram::new();
        let mut oracle = FlatBank::new();
        for (kind, blk, len_blk, fill) in ops {
            let addr = blk as usize * 8;
            let len = len_blk * 8;
            let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8) | 1).collect();
            match kind {
                0 => {
                    // Host writes need an aligned base only: odd lengths are legal.
                    let data = &data[..len - (fill as usize % 8)];
                    m.host_write(addr as u32, data).unwrap();
                    oracle.write(addr, data);
                }
                1 => {
                    m.dma_write(addr as u32, &data).unwrap();
                    oracle.write(addr, &data);
                }
                2 => {
                    let end = addr + fill as usize;
                    m.commit(end);
                    oracle.high = oracle.high.max(end);
                }
                3 => {
                    let end = addr + fill as usize;
                    oracle.high = oracle.high.max(end);
                    let bank = m.committed_mut(end);
                    prop_assert_eq!(&*bank, &oracle.bytes[..oracle.high]);
                    if let Some(last) = bank.last_mut() {
                        *last = fill | 1;
                        oracle.bytes[oracle.high - 1] = fill | 1;
                    }
                }
                4 => {
                    let mut out = vec![0xEEu8; len - (fill as usize % 8)];
                    m.host_read(addr as u32, &mut out).unwrap();
                    prop_assert_eq!(&out[..], &oracle.bytes[addr..addr + out.len()]);
                }
                _ => {
                    let mut out = vec![0xEEu8; len];
                    m.dma_read(addr as u32, &mut out).unwrap();
                    prop_assert_eq!(&out[..], &oracle.bytes[addr..addr + len]);
                }
            }
            prop_assert_eq!(m.committed(), oracle.high);
        }
        prop_assert_eq!(bank_image(&m), oracle.bytes);
    }

    /// A bank written first and committed afterwards equals one
    /// committed first, byte for byte and in its committed mark.
    #[test]
    fn write_then_commit_equals_commit_then_write(ops in mram_ops(), end in 0usize..ORACLE_SPAN) {
        let writes = |m: &mut Mram| {
            for &(kind, blk, len_blk, fill) in &ops {
                let data = vec![fill | 1; len_blk * 8];
                if kind % 2 == 0 {
                    m.host_write(blk * 8, &data).unwrap();
                } else {
                    m.dma_write(blk * 8, &data).unwrap();
                }
            }
        };
        let mut committed_first = Mram::new();
        committed_first.commit(end);
        writes(&mut committed_first);
        let mut written_first = Mram::new();
        writes(&mut written_first);
        written_first.commit(end);
        prop_assert_eq!(committed_first.committed(), written_first.committed());
        prop_assert_eq!(bank_image(&committed_first), bank_image(&written_first));
    }

    /// Any aligned, sized, in-bounds DMA write is readable back verbatim.
    #[test]
    fn dma_write_read_round_trip(
        addr_blk in 0u32..1024,
        len_blk in 1usize..=(DMA_MAX_TRANSFER / 8),
        seed in any::<u8>(),
    ) {
        let addr = addr_blk * 8;
        let len = len_blk * 8;
        let mut m = Mram::new();
        let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
        m.dma_write(addr, &data).unwrap();
        let mut out = vec![0u8; len];
        m.dma_read(addr, &mut out).unwrap();
        prop_assert_eq!(data, out);
    }

    /// DMA validation accepts exactly the hardware-legal requests.
    #[test]
    fn dma_check_matches_hardware_rules(addr in 0u32..=(MRAM_CAPACITY as u32), len in 0usize..4096) {
        let ok = Mram::check_dma(addr, len).is_ok();
        let legal = len > 0
            && len <= DMA_MAX_TRANSFER
            && (addr as usize).is_multiple_of(8)
            && len % 8 == 0
            && addr as usize + len <= MRAM_CAPACITY;
        prop_assert_eq!(ok, legal);
    }

    /// Writes to disjoint regions never interfere.
    #[test]
    fn disjoint_writes_do_not_interfere(a_blk in 0u32..512, b_off in 1u32..512) {
        let a = a_blk * 8;
        let b = a + b_off * 8 + 8; // disjoint, both 8-byte regions
        let mut m = Mram::new();
        m.dma_write(a, &[0x11; 8]).unwrap();
        m.dma_write(b, &[0x22; 8]).unwrap();
        let mut ra = [0u8; 8];
        let mut rb = [0u8; 8];
        m.dma_read(a, &mut ra).unwrap();
        m.dma_read(b, &mut rb).unwrap();
        prop_assert_eq!(ra, [0x11; 8]);
        prop_assert_eq!(rb, [0x22; 8]);
    }

    /// The DMA latency curve is monotonically non-decreasing in size.
    #[test]
    fn dma_latency_monotonic(a in 1usize..=256, b in 1usize..=256) {
        let m = CostModel::default();
        let (small, large) = (a.min(b) * 8, a.max(b) * 8);
        prop_assert!(m.dma_cycles(small) <= m.dma_cycles(large));
    }

    /// The load-imbalance index (slowest DPU over mean) is at least 1:
    /// no fleet can finish before its own average. Exactly 1 only when
    /// every DPU took the same time (up to f64 division rounding).
    #[test]
    fn load_imbalance_is_at_least_one(cycles in prop::collection::vec(0u64..1_000_000, 1..64)) {
        let imb = launch_with_cycles(&cycles).imbalance();
        prop_assert!(imb >= 1.0 - 1e-9, "imbalance {imb} < 1 for {cycles:?}");
        let all_equal = cycles.iter().all(|&c| c == cycles[0]);
        if all_equal {
            prop_assert!((imb - 1.0).abs() < 1e-9, "balanced fleet reported {imb}");
        }
    }

    /// The imbalance index is a fleet property, not an ordering
    /// property: relabeling the DPUs (any rotation of the cycle list)
    /// yields the bit-identical index, because max and the u64 cycle
    /// sum are both order-independent.
    #[test]
    fn load_imbalance_is_invariant_under_dpu_permutation(
        cycles in prop::collection::vec(0u64..1_000_000, 1..64),
        rot in 0usize..64,
    ) {
        let base = launch_with_cycles(&cycles).imbalance();
        let mut permuted = cycles.clone();
        permuted.rotate_left(rot % cycles.len());
        let rotated = launch_with_cycles(&permuted).imbalance();
        prop_assert_eq!(
            base.to_bits(),
            rotated.to_bits(),
            "imbalance changed under rotation: {} vs {}",
            base,
            rotated
        );
        permuted.reverse();
        let reversed = launch_with_cycles(&permuted).imbalance();
        prop_assert_eq!(
            base.to_bits(),
            reversed.to_bits(),
            "imbalance changed under reversal: {} vs {}",
            base,
            reversed
        );
    }

    /// WRAM round trip for arbitrary in-bounds ranges.
    #[test]
    fn wram_round_trip(off in 0usize..60_000, len in 1usize..4096) {
        let mut w = Wram::new();
        if off + len <= w.capacity() {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            w.write(off, &data).unwrap();
            let mut out = vec![0u8; len];
            w.read(off, &mut out).unwrap();
            prop_assert_eq!(data, out);
        } else {
            prop_assert!(w.write(off, &vec![0u8; len]).is_err());
        }
    }
}
