//! Embedding tables and the multi-hot lookup-and-reduce operation.
//!
//! An embedding table (EMT) maps categorical values to dense vectors: row
//! `i` is the embedding of category value `i`. DLRM pools a sample's
//! multi-hot lookups with a sum reduction ("embedding bag"). This module
//! is the *reference* implementation every accelerated backend is
//! validated against.

use crate::error::{ModelError, Result};
use crate::query::SparseInput;
use crate::simd;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An embedding table: `rows x dim` f32 vectors.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EmbeddingTable {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl EmbeddingTable {
    /// Creates a zeroed table.
    ///
    /// # Errors
    ///
    /// Fails if `rows` or `dim` is zero.
    pub fn zeros(rows: usize, dim: usize) -> Result<Self> {
        if rows == 0 || dim == 0 {
            return Err(ModelError::InvalidConfig(format!(
                "embedding table must be non-empty, got {rows}x{dim}"
            )));
        }
        Ok(EmbeddingTable {
            rows,
            dim,
            data: vec![0.0; rows * dim],
        })
    }

    /// Creates a table with uniform random values in `[-scale, scale)`,
    /// deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Fails if `rows` or `dim` is zero.
    pub fn random(rows: usize, dim: usize, scale: f32, seed: u64) -> Result<Self> {
        let mut t = Self::zeros(rows, dim)?;
        t.fill_random(scale, seed);
        Ok(t)
    }

    /// Overwrites every value with [`EmbeddingTable::random`]'s for
    /// `seed`, in place.
    pub(crate) fn fill_random(&mut self, scale: f32, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for v in &mut self.data {
            *v = rng.random_range(-scale..scale);
        }
    }

    /// Creates a table whose values are small *integers* stored as f32.
    ///
    /// Integer-valued embeddings make fp32 summation exact (up to 2^24),
    /// which lets tests assert bit-exact agreement between backends that
    /// reduce in different orders. Deterministic from `seed`.
    ///
    /// # Errors
    ///
    /// Fails if `rows` or `dim` is zero.
    pub fn random_integer_valued(rows: usize, dim: usize, max_abs: i32, seed: u64) -> Result<Self> {
        let mut t = Self::zeros(rows, dim)?;
        t.fill_integer_valued(max_abs, seed);
        Ok(t)
    }

    /// Overwrites every value with
    /// [`EmbeddingTable::random_integer_valued`]'s for `seed`, in place.
    pub(crate) fn fill_integer_valued(&mut self, max_abs: i32, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for v in &mut self.data {
            *v = rng.random_range(-max_abs..=max_abs) as f32;
        }
    }

    /// Number of rows (distinct categorical values).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Table size in bytes (f32 storage).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Borrow row `i`'s embedding vector.
    ///
    /// # Errors
    ///
    /// Fails if `i` is out of range.
    pub fn row(&self, i: u64) -> Result<&[f32]> {
        let idx = usize::try_from(i).ok().filter(|&v| v < self.rows).ok_or(
            ModelError::IndexOutOfRange {
                index: i,
                rows: self.rows,
            },
        )?;
        Ok(&self.data[idx * self.dim..(idx + 1) * self.dim])
    }

    /// Raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw storage (e.g. to plant specific vectors in tests).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Multi-hot lookup with sum reduction: returns a `batch x dim`
    /// matrix of pooled embeddings (the "embedding bag" op).
    ///
    /// # Errors
    ///
    /// Fails on malformed offsets or out-of-range indices.
    pub fn bag_sum(&self, input: &SparseInput) -> Result<Matrix> {
        input.validate()?;
        let batch = input.batch_size();
        let mut out = Matrix::zeros(batch, self.dim);
        for s in 0..batch {
            let acc = out.row_mut(s);
            for &idx in input.sample(s) {
                let row = self.row(idx)?;
                simd::add_assign(acc, row);
            }
        }
        Ok(out)
    }

    /// Sum of an arbitrary set of rows — the "partial sum" primitive the
    /// partial-sum caches store.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range indices.
    pub fn partial_sum(&self, indices: &[u64]) -> Result<Vec<f32>> {
        let mut acc = vec![0.0f32; self.dim];
        for &idx in indices {
            let row = self.row(idx)?;
            simd::add_assign(&mut acc, row);
        }
        Ok(acc)
    }

    /// Serializes the table rows into little-endian bytes, the layout
    /// the PIM backend loads into MRAM.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() * 4);
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_3x2() -> EmbeddingTable {
        let mut t = EmbeddingTable::zeros(3, 2).unwrap();
        t.as_mut_slice()
            .copy_from_slice(&[1.0, 2.0, 10.0, 20.0, 100.0, 200.0]);
        t
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(EmbeddingTable::zeros(0, 4).is_err());
        assert!(EmbeddingTable::zeros(4, 0).is_err());
    }

    #[test]
    fn row_access_and_bounds() {
        let t = table_3x2();
        assert_eq!(t.row(1).unwrap(), &[10.0, 20.0]);
        assert!(matches!(t.row(3), Err(ModelError::IndexOutOfRange { .. })));
    }

    #[test]
    fn bag_sum_pools_per_sample() {
        let t = table_3x2();
        let q = SparseInput::from_samples([vec![0u64, 2], vec![1]]);
        let out = t.bag_sum(&q).unwrap();
        assert_eq!(out.row(0), &[101.0, 202.0]);
        assert_eq!(out.row(1), &[10.0, 20.0]);
    }

    #[test]
    fn bag_sum_empty_sample_is_zero_vector() {
        let t = table_3x2();
        let q = SparseInput::from_samples([Vec::<u64>::new()]);
        let out = t.bag_sum(&q).unwrap();
        assert_eq!(out.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn bag_sum_checks_indices() {
        let t = table_3x2();
        let q = SparseInput::from_samples([vec![99u64]]);
        assert!(t.bag_sum(&q).is_err());
    }

    #[test]
    fn partial_sum_matches_manual() {
        let t = table_3x2();
        assert_eq!(t.partial_sum(&[0, 1, 2]).unwrap(), vec![111.0, 222.0]);
        assert_eq!(t.partial_sum(&[]).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = EmbeddingTable::random(16, 4, 0.5, 42).unwrap();
        let b = EmbeddingTable::random(16, 4, 0.5, 42).unwrap();
        let c = EmbeddingTable::random(16, 4, 0.5, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|v| (-0.5..0.5).contains(v)));
    }

    #[test]
    fn integer_valued_tables_have_integer_entries() {
        let t = EmbeddingTable::random_integer_valued(32, 8, 3, 7).unwrap();
        assert!(t
            .as_slice()
            .iter()
            .all(|v| v.fract() == 0.0 && v.abs() <= 3.0));
    }

    #[test]
    fn le_bytes_round_trip() {
        let t = table_3x2();
        let bytes = t.to_le_bytes();
        assert_eq!(bytes.len(), t.size_bytes());
        let first = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        assert_eq!(first, 1.0);
    }
}
