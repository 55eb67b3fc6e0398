//! # dlrm-model — the DLRM substrate
//!
//! A from-scratch implementation of Meta's Deep Learning Recommendation
//! Model (Naumov et al., 2019) as used by the UpDLRM paper: embedding
//! tables with multi-hot sum-reduction lookups, bottom/top MLPs, feature
//! interaction and a sigmoid CTR head.
//!
//! Like the paper, it only serves: a model's weights and tables are a
//! fixed, seed-deterministic input, and there is no backward pass or
//! optimizer.
//!
//! The [`Dlrm::forward`] path is the *reference implementation*: every
//! accelerated backend in this workspace (PIM, CPU, hybrid, FAE) must
//! produce embedding-layer outputs that agree with it.
//!
//! ## Example
//!
//! ```rust
//! use dlrm_model::{Dlrm, DlrmConfig, QueryBatch, SparseInput};
//!
//! # fn main() -> Result<(), dlrm_model::ModelError> {
//! let config = DlrmConfig {
//!     num_dense: 2,
//!     embedding_dim: 4,
//!     table_rows: vec![10, 10],
//!     bottom_hidden: vec![8],
//!     top_hidden: vec![8],
//!     seed: 1,
//! };
//! let model = Dlrm::new(config)?;
//! let batch = QueryBatch::new(
//!     vec![0.3, -0.1, 0.9, 0.2],
//!     2,
//!     vec![
//!         SparseInput::from_samples([vec![1u64, 3], vec![2]]),
//!         SparseInput::from_samples([vec![4u64], vec![5, 6]]),
//!     ],
//! )?;
//! let ctr = model.forward(&batch)?;
//! assert_eq!(ctr.len(), 2);
//! assert!(ctr.iter().all(|p| (0.0..=1.0).contains(p)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod embedding;
pub mod error;
pub mod hash;
pub mod mlp;
pub mod model;
pub mod quant;
pub mod query;
pub mod simd;
pub mod tensor;

pub use embedding::EmbeddingTable;
pub use error::{ModelError, Result};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use mlp::{Activation, Linear, Mlp};
pub use model::{Dlrm, DlrmConfig};
pub use quant::{EmbedDtype, QuantTable};
pub use query::{QueryBatch, SparseInput};
pub use simd::SimdTier;
pub use tensor::Matrix;
