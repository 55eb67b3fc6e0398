//! # upmem-sim — a functional + timing simulator of the UPMEM PIM system
//!
//! This crate replaces the physical UPMEM hardware used by the UpDLRM
//! paper (DAC'24) with a from-scratch simulator that is *functional*
//! (kernels compute real results over real bytes in MRAM/WRAM) and
//! *timed* (a calibrated cost model reproduces the architecture's
//! first-order performance behaviour):
//!
//! * 64 MB MRAM per DPU, reached via a DMA engine with 8-byte alignment
//!   and a 2048-byte transfer cap, whose latency curve is flat from 8 B
//!   to 32 B and steeper beyond (paper Fig. 3);
//! * a single-issue 11-deep pipeline shared by up to 24 tasklets;
//! * host⇄MRAM transfers that parallelize across DPUs only when every
//!   per-DPU buffer has the same size;
//! * no inter-DPU communication path — all data exchange goes through
//!   the host, exactly as on the real DIMMs.
//!
//! A DPU-side program is a [`Kernel`], which the simulator interprets
//! tasklet by tasklet, or — when its per-tasklet counters are a closed
//! form of its input — a [`DpuProgram`], which gets each launched DPU
//! once and reports the counters itself.
//!
//! ## Example
//!
//! ```rust
//! use upmem_sim::{Kernel, PimConfig, PimSystem, TaskletCtx, DpuId, SimError};
//!
//! /// Sums 8 u32 values stored in MRAM into WRAM.
//! struct SumKernel;
//!
//! impl Kernel for SumKernel {
//!     fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
//!         if ctx.tasklet_id() != 0 {
//!             return Ok(());
//!         }
//!         let mut buf = [0u8; 32];
//!         ctx.mram_read(0, &mut buf)?;
//!         let sum: u32 = buf
//!             .chunks_exact(4)
//!             .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
//!             .sum();
//!         ctx.charges().charge_int_ops(8);
//!         ctx.mram_write(64, &(sum as u64).to_le_bytes())?;
//!         Ok(())
//!     }
//! }
//!
//! # fn main() -> Result<(), SimError> {
//! let mut sys = PimSystem::new(PimConfig::new(1, 14))?;
//! let data: Vec<u8> = (1u32..=8).flat_map(|v| v.to_le_bytes()).collect();
//! sys.load_mram(DpuId(0), 0, &data)?;
//! let report = sys.launch_all(&SumKernel)?;
//! assert!(report.wall_cycles.0 > 0);
//! let (bufs, _) = sys.gather(&[(DpuId(0), 64, 8)])?;
//! assert_eq!(u64::from_le_bytes(bufs[0][..8].try_into().unwrap()), 36);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch;
pub mod cost;
pub mod dpu;
pub mod error;
pub mod fleet;
pub mod host;
pub mod mem;
pub mod stats;

pub use arch::{Cycles, DpuId, Ps, MAX_WHOLE_NS, PS_PER_NS};
pub use cost::{CostModel, CostTable, WramBudget, TASKLET_STACK_BYTES};
pub use dpu::{Charges, Dpu, DpuPass, DpuProgram, Kernel, TaskletCtx};
pub use error::{Result, SimError};
pub use fleet::{Fleet, RankCostModel, RankTopology};
pub use host::{PimConfig, PimSystem};
pub use mem::{Mram, MramLayout, Wram};
pub use stats::{DpuCounters, DpuRunStats, LaunchReport, TaskletStats, TransferReport};
