//! # baselines — the four compared DLRM inference systems
//!
//! The UpDLRM paper evaluates against three open-source DLRM
//! implementations (Table 2): **DLRM-CPU** (CPU-only), **DLRM-Hybrid**
//! (CPU embedding + GPU dense over PCIe) and **FAE** (hybrid with hot
//! embeddings cached in GPU memory). None of that hardware is available
//! here, so each backend pairs the *functional* DLRM forward pass with
//! a calibrated, trace-driven timing model of its hardware (see
//! DESIGN.md §1 for the substitution table).
//!
//! All four systems — including UpDLRM itself via [`UpdlrmBackend`] —
//! implement [`InferenceBackend`], so harnesses can sweep them
//! uniformly and tests can assert they produce identical CTR outputs.
//!
//! ## Example
//!
//! ```rust
//! use baselines::{CpuMemoryModel, DlrmCpu, InferenceBackend};
//! use dlrm_model::{Dlrm, DlrmConfig};
//! use std::sync::Arc;
//! use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = DatasetSpec::amazon_clothes().scaled_down(50_000);
//! let workload = Workload::generate(
//!     &spec,
//!     TraceConfig { num_tables: 2, num_batches: 1, ..TraceConfig::default() },
//! );
//! let model = Arc::new(Dlrm::new(DlrmConfig {
//!     num_dense: 13,
//!     embedding_dim: 32,
//!     table_rows: vec![spec.num_items; 2],
//!     bottom_hidden: vec![32],
//!     top_hidden: vec![32],
//!     seed: 1,
//! })?);
//! let profiles: Vec<FreqProfile> = (0..2)
//!     .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
//!     .collect();
//! let mut cpu = DlrmCpu::new(model, &profiles, CpuMemoryModel::default())?;
//! let (ctr, report) = cpu.run_batch(&workload.batches[0])?;
//! assert_eq!(ctr.len(), 64);
//! assert!(report.total_ns() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod cpu;
pub mod fae;
pub mod gpu;
pub mod hybrid;
pub mod memory;
pub mod updlrm;

pub use backend::{InferenceBackend, LatencyReport};
pub use cpu::DlrmCpu;
pub use fae::Fae;
pub use gpu::GpuModel;
pub use hybrid::DlrmHybrid;
pub use memory::CpuMemoryModel;
pub use updlrm::UpdlrmBackend;
