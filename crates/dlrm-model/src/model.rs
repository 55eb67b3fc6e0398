//! The full DLRM model (paper Fig. 1): bottom MLP over dense features,
//! embedding bags over sparse features, feature interaction, top MLP.

use crate::embedding::EmbeddingTable;
use crate::error::{ModelError, Result};
use crate::mlp::{Activation, Mlp};
use crate::query::QueryBatch;
use crate::tensor::Matrix;

#[cfg(test)]
thread_local! {
    /// The worker count [`generate_tables`] uses on this thread.
    static WORKERS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// One worker per core, at most one per table; in tests, `WORKERS`'
/// count when set.
fn workers(tables: usize) -> usize {
    #[cfg(test)]
    if let Some(n) = WORKERS.get() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |p| p.get().min(tables))
}

/// Generates every table: allocates each zeroed on the calling thread,
/// then fills table `i` with `fill(table, seed + 2000 + i)` in one thread
/// scope on `min(available_parallelism, tables)` workers under the
/// caller's SIMD tier. Each worker fills the next unfilled table until
/// none is left, so a helper that cannot be spawned leaves its tables
/// to the others. A table's bytes depend only on its own seed, so they
/// equal a serial generation's. The tables are allocated where a serial
/// generation allocates them, so the process's heap is laid out as one.
fn generate_tables(
    config: &DlrmConfig,
    fill: impl Fn(&mut EmbeddingTable, u64) + Sync,
) -> Result<Vec<EmbeddingTable>> {
    let mut tables = config
        .table_rows
        .iter()
        .map(|&rows| EmbeddingTable::zeros(rows, config.embedding_dim))
        .collect::<Result<Vec<_>>>()?;
    let workers = workers(tables.len());
    let queue = std::sync::Mutex::new(tables.iter_mut().enumerate());
    let drain = || loop {
        let next = queue
            .lock()
            .expect("no table is filled under the lock")
            .next();
        let Some((i, table)) = next else {
            return;
        };
        fill(table, config.seed.wrapping_add(2000 + i as u64));
    };
    let tier = crate::simd::tier();
    // The scope joins every helper, and re-raises a helper's panic.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            let spawned = std::thread::Builder::new()
                .name("table-gen".into())
                .spawn_scoped(scope, || crate::simd::with_tier(tier, drain));
            if spawned.is_err() {
                break;
            }
        }
        drain();
    });
    Ok(tables)
}

/// Hyperparameters of a DLRM instance.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DlrmConfig {
    /// Number of dense (continuous) input features.
    pub num_dense: usize,
    /// Embedding dimension shared by all tables (paper: 32).
    pub embedding_dim: usize,
    /// Rows of each embedding table (paper: the dataset's #Items,
    /// duplicated into 8 tables).
    pub table_rows: Vec<usize>,
    /// Hidden sizes of the bottom MLP (input and output added
    /// automatically: `num_dense → ... → embedding_dim`).
    pub bottom_hidden: Vec<usize>,
    /// Hidden sizes of the top MLP (`interaction_dim → ... → 1`).
    pub top_hidden: Vec<usize>,
    /// RNG seed for weights and tables.
    pub seed: u64,
}

impl DlrmConfig {
    /// A small configuration mirroring the paper's setup shape: 13 dense
    /// features (Criteo-style), 32-dim embeddings, 8 tables of
    /// `rows_per_table` rows.
    pub fn paper_shape(rows_per_table: usize) -> Self {
        DlrmConfig {
            num_dense: 13,
            embedding_dim: 32,
            table_rows: vec![rows_per_table; 8],
            bottom_hidden: vec![64],
            top_hidden: vec![64, 16],
            seed: 0x5EED,
        }
    }

    /// Dimension of the concatenated interaction vector.
    pub fn interaction_dim(&self) -> usize {
        self.embedding_dim * (1 + self.table_rows.len())
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Fails when any dimension is zero or there are no tables.
    pub fn validate(&self) -> Result<()> {
        if self.num_dense == 0 {
            return Err(ModelError::InvalidConfig("num_dense must be > 0".into()));
        }
        if self.embedding_dim == 0 {
            return Err(ModelError::InvalidConfig(
                "embedding_dim must be > 0".into(),
            ));
        }
        if self.table_rows.is_empty() {
            return Err(ModelError::InvalidConfig(
                "at least one embedding table".into(),
            ));
        }
        if self.table_rows.contains(&0) {
            return Err(ModelError::InvalidConfig("table rows must be > 0".into()));
        }
        Ok(())
    }
}

/// A DLRM with materialized weights and embedding tables.
///
/// `Dlrm::forward` is the pure-CPU *reference* path. Accelerated
/// backends (PIM / hybrid / FAE) compute the embedding layer themselves
/// and reuse [`Dlrm::forward_with_pooled`] for the dense side, so every
/// backend's output can be compared against the reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Dlrm {
    config: DlrmConfig,
    bottom: Mlp,
    top: Mlp,
    tables: Vec<EmbeddingTable>,
}

impl Dlrm {
    /// Builds a model with seeded random weights and tables.
    ///
    /// # Errors
    ///
    /// Fails on an invalid configuration.
    pub fn new(config: DlrmConfig) -> Result<Self> {
        Self::with_table_init(config, |table, seed| table.fill_random(0.1, seed))
    }

    /// Builds a model whose embedding tables hold small integer values
    /// (exact fp32 summation — see
    /// [`EmbeddingTable::random_integer_valued`]), for bit-exact
    /// cross-backend tests.
    ///
    /// # Errors
    ///
    /// Fails on an invalid configuration.
    pub fn new_integer_tables(config: DlrmConfig) -> Result<Self> {
        Self::with_table_init(config, |table, seed| table.fill_integer_valued(4, seed))
    }

    fn with_table_init(
        config: DlrmConfig,
        fill: impl Fn(&mut EmbeddingTable, u64) + Sync,
    ) -> Result<Self> {
        config.validate()?;
        let mut bottom_sizes = vec![config.num_dense];
        bottom_sizes.extend_from_slice(&config.bottom_hidden);
        bottom_sizes.push(config.embedding_dim);
        let bottom = Mlp::new(&bottom_sizes, Activation::Relu, config.seed)?;

        let mut top_sizes = vec![config.interaction_dim()];
        top_sizes.extend_from_slice(&config.top_hidden);
        top_sizes.push(1);
        let top = Mlp::new(
            &top_sizes,
            Activation::Sigmoid,
            config.seed.wrapping_add(1000),
        )?;

        let tables = generate_tables(&config, fill)?;
        Ok(Dlrm {
            config,
            bottom,
            top,
            tables,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &DlrmConfig {
        &self.config
    }

    /// The embedding tables, in order.
    pub fn tables(&self) -> &[EmbeddingTable] {
        &self.tables
    }

    /// The bottom MLP.
    pub fn bottom_mlp(&self) -> &Mlp {
        &self.bottom
    }

    /// The top MLP.
    pub fn top_mlp(&self) -> &Mlp {
        &self.top
    }

    /// Total embedding storage in bytes.
    pub fn embedding_bytes(&self) -> usize {
        self.tables.iter().map(EmbeddingTable::size_bytes).sum()
    }

    /// Reference CPU forward pass: returns one CTR probability per
    /// sample.
    ///
    /// # Errors
    ///
    /// Fails on malformed batches or out-of-range indices.
    pub fn forward(&self, batch: &QueryBatch) -> Result<Vec<f32>> {
        let pooled = self.pool_embeddings(batch)?;
        self.forward_with_pooled(batch, &pooled)
    }

    /// Runs the embedding layer only (one pooled `batch x dim` matrix
    /// per table) — the piece accelerated backends replace.
    ///
    /// # Errors
    ///
    /// Fails on malformed batches or out-of-range indices.
    pub fn pool_embeddings(&self, batch: &QueryBatch) -> Result<Vec<Matrix>> {
        batch.validate()?;
        if batch.sparse.len() != self.tables.len() {
            return Err(ModelError::TableCountMismatch {
                model: self.tables.len(),
                batch: batch.sparse.len(),
            });
        }
        self.tables
            .iter()
            .zip(batch.sparse.iter())
            .map(|(t, s)| t.bag_sum(s))
            .collect()
    }

    /// Dense side of the forward pass, given pooled embeddings computed
    /// by any backend. The bottom MLP reads `batch.dense` in place and
    /// the top MLP's first layer takes the interaction vector part by
    /// part (dense features, then each table's pooled rows), so neither
    /// a copy of the dense features nor the concatenation is built.
    ///
    /// # Errors
    ///
    /// Fails on shape mismatches between the batch, the pooled
    /// embeddings and the model; a pooled matrix that is not
    /// `batch x embedding_dim` is named by its table index.
    pub fn forward_with_pooled(&self, batch: &QueryBatch, pooled: &[Matrix]) -> Result<Vec<f32>> {
        if pooled.len() != self.tables.len() {
            return Err(ModelError::TableCountMismatch {
                model: self.tables.len(),
                batch: pooled.len(),
            });
        }
        let b = batch.batch_size();
        let d = self.config.embedding_dim;
        if let Some((table, m)) = pooled
            .iter()
            .enumerate()
            .find(|(_, m)| (m.rows(), m.cols()) != (b, d))
        {
            return Err(ModelError::PooledShapeMismatch {
                table,
                got: (m.rows(), m.cols()),
                expected: (b, d),
            });
        }
        let dense_feat = self
            .bottom
            .forward_parts(b, &[(&batch.dense, self.config.num_dense)])?;
        let mut parts = Vec::with_capacity(1 + pooled.len());
        parts.push((dense_feat.as_slice(), d));
        parts.extend(pooled.iter().map(|m| (m.as_slice(), d)));
        Ok(self.top.forward_parts(b, &parts)?.into_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SparseInput;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tables_equal_a_serial_generation_at_any_worker_count() {
        let config = DlrmConfig {
            num_dense: 4,
            embedding_dim: 8,
            table_rows: vec![300, 50, 1, 120, 7],
            bottom_hidden: vec![16],
            top_hidden: vec![16],
            seed: 11,
        };
        let seed = |i: usize| config.seed + 2000 + i as u64;
        let serial: Vec<_> = config
            .table_rows
            .iter()
            .enumerate()
            .map(|(i, &rows)| EmbeddingTable::random(rows, 8, 0.1, seed(i)).unwrap())
            .collect();
        let integer: Vec<_> = config
            .table_rows
            .iter()
            .enumerate()
            .map(|(i, &rows)| EmbeddingTable::random_integer_valued(rows, 8, 4, seed(i)).unwrap())
            .collect();
        for n in [1, 2, 4] {
            WORKERS.set(Some(n));
            let random = Dlrm::new(config.clone()).unwrap();
            let integers = Dlrm::new_integer_tables(config.clone()).unwrap();
            WORKERS.set(None);
            for (got, want) in [(random.tables(), &serial), (integers.tables(), &integer)] {
                for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                    assert_eq!(g.to_le_bytes(), w.to_le_bytes(), "{n} workers, table {i}");
                }
                assert_eq!(got.len(), want.len());
            }
        }
    }

    #[test]
    fn every_generating_worker_runs_the_callers_simd_tier() {
        let config = DlrmConfig {
            table_rows: vec![10; 4],
            ..DlrmConfig::paper_shape(10)
        };
        let barrier = std::sync::Barrier::new(4);
        let ran = std::sync::Mutex::new(Vec::new());
        WORKERS.set(Some(4));
        crate::simd::with_tier(crate::simd::SimdTier::Scalar, || {
            generate_tables(&config, |table, seed| {
                // Each of the four holds its table until all four have
                // one, so every worker fills exactly one.
                barrier.wait();
                let id = std::thread::current().id();
                ran.lock().unwrap().push((id, crate::simd::tier()));
                table.fill_random(0.1, seed);
            })
            .unwrap()
        });
        WORKERS.set(None);
        let ran = ran.into_inner().unwrap();
        assert!(
            ran.iter().all(|(_, t)| *t == crate::simd::SimdTier::Scalar),
            "{ran:?}"
        );
        let threads: std::collections::HashSet<_> = ran.iter().map(|(id, _)| id).collect();
        assert_eq!(threads.len(), 4, "four workers");
    }

    fn tiny_model() -> Dlrm {
        let config = DlrmConfig {
            num_dense: 4,
            embedding_dim: 8,
            table_rows: vec![100, 50],
            bottom_hidden: vec![16],
            top_hidden: vec![16],
            seed: 7,
        };
        Dlrm::new(config).unwrap()
    }

    fn tiny_batch(model: &Dlrm, batch: usize, seed: u64) -> QueryBatch {
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = (0..batch * model.config().num_dense)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let sparse = model
            .config()
            .table_rows
            .iter()
            .map(|&rows| {
                SparseInput::from_samples(
                    (0..batch)
                        .map(|_| {
                            (0..rng.random_range(1..6))
                                .map(|_| rng.random_range(0..rows as u64))
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        QueryBatch::new(dense, model.config().num_dense, sparse).unwrap()
    }

    #[test]
    fn forward_produces_probabilities() {
        let m = tiny_model();
        let b = tiny_batch(&m, 16, 3);
        let out = m.forward(&b).unwrap();
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn forward_is_deterministic() {
        let m = tiny_model();
        let b = tiny_batch(&m, 8, 5);
        assert_eq!(m.forward(&b).unwrap(), m.forward(&b).unwrap());
    }

    #[test]
    fn pooled_path_equals_monolithic_forward() {
        let m = tiny_model();
        let b = tiny_batch(&m, 8, 9);
        let pooled = m.pool_embeddings(&b).unwrap();
        let via_pooled = m.forward_with_pooled(&b, &pooled).unwrap();
        assert_eq!(via_pooled, m.forward(&b).unwrap());
    }

    #[test]
    fn forward_with_pooled_matches_the_concatenated_formulation() {
        // Part-by-part accumulation into the first top layer is
        // ascending `k` across the concatenation it no longer builds.
        let m = tiny_model();
        let b = tiny_batch(&m, 11, 13);
        let pooled = m.pool_embeddings(&b).unwrap();
        let dense = Matrix::from_vec(11, m.config().num_dense, b.dense.clone()).unwrap();
        let dense_feat = m.bottom_mlp().forward(&dense).unwrap();
        let mut parts = vec![&dense_feat];
        parts.extend(pooled.iter());
        let concatenated = m
            .top_mlp()
            .forward(&Matrix::hconcat(&parts).unwrap())
            .unwrap();
        let via_parts = m.forward_with_pooled(&b, &pooled).unwrap();
        for (x, y) in via_parts.iter().zip(concatenated.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn pooled_of_the_wrong_shape_is_rejected_by_table_index() {
        let m = tiny_model();
        let b = tiny_batch(&m, 4, 2);
        // Widths 4 and 12 still sum to the two tables' 16 columns.
        let swapped = [Matrix::zeros(4, 4), Matrix::zeros(4, 12)];
        assert_eq!(
            m.forward_with_pooled(&b, &swapped),
            Err(ModelError::PooledShapeMismatch {
                table: 0,
                got: (4, 4),
                expected: (4, 8),
            })
        );
        let short = [Matrix::zeros(4, 8), Matrix::zeros(3, 8)];
        let err = m.forward_with_pooled(&b, &short).unwrap_err();
        assert!(err.to_string().contains("table 1"), "{err}");
    }

    #[test]
    fn table_count_mismatch_detected() {
        let m = tiny_model();
        let mut b = tiny_batch(&m, 4, 1);
        b.sparse.pop();
        assert!(matches!(
            m.forward(&b),
            Err(ModelError::TableCountMismatch { .. }) | Err(ModelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn interaction_dim_matches_layout() {
        let c = DlrmConfig::paper_shape(1000);
        assert_eq!(c.interaction_dim(), 32 * 9);
        c.validate().unwrap();
    }

    #[test]
    fn config_validation_rejects_zeros() {
        let mut c = DlrmConfig::paper_shape(10);
        c.embedding_dim = 0;
        assert!(Dlrm::new(c).is_err());
        let mut c = DlrmConfig::paper_shape(10);
        c.table_rows.clear();
        assert!(Dlrm::new(c).is_err());
    }

    #[test]
    fn embedding_bytes_counts_all_tables() {
        let m = tiny_model();
        assert_eq!(m.embedding_bytes(), (100 + 50) * 8 * 4);
    }

    #[test]
    fn different_inputs_give_different_outputs() {
        let m = tiny_model();
        let b1 = tiny_batch(&m, 4, 100);
        let b2 = tiny_batch(&m, 4, 200);
        assert_ne!(m.forward(&b1).unwrap(), m.forward(&b2).unwrap());
    }
}
