//! Minimal row-major matrix type and the dense ops DLRM needs.
//!
//! The workspace implements its own linear algebra (no external crates):
//! DLRM's dense side only needs matmul, bias add, ReLU and sigmoid over
//! small matrices, so a simple cache-friendly row-major implementation
//! suffices.

use crate::error::{ModelError, Result};
use crate::simd;

/// A row-major `rows x cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Reshapes the matrix in place to `rows x cols` with every element
    /// zeroed, reusing the existing allocation. Capacity only grows, so
    /// once a matrix has seen its largest shape, later `reset_zeroed`
    /// calls are allocation-free — this is what lets pooled-output
    /// recycling survive varying batch sizes.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Fails if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(ModelError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the row-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `self @ other` — matrix multiplication.
    ///
    /// # Errors
    ///
    /// Fails if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// `self @ other` written into the caller-provided `out`, which is
    /// reshaped and zeroed in place (its allocation is reused when the
    /// capacity suffices) — the allocation-free form of
    /// [`Matrix::matmul`], bit-identical to it.
    ///
    /// This is [`simd::gemm`] over a zeroed `out`: each output element
    /// accumulates its products in ascending-`k` order with a
    /// multiply-then-add per product (no FMA), so the result matches
    /// the naive i-j-k ordering bit for bit on every dispatch tier.
    ///
    /// # Errors
    ///
    /// Fails if `self.cols != other.rows`; `out` is untouched then.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(ModelError::ShapeMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (other.rows, other.cols),
            });
        }
        out.reset_zeroed(self.rows, other.cols);
        simd::gemm(
            &mut out.data,
            &self.data,
            self.cols,
            &other.data,
            other.cols,
        );
        Ok(())
    }

    /// Adds a bias row vector to every row in place.
    ///
    /// # Errors
    ///
    /// Fails if `bias.len() != cols`.
    pub fn add_bias(&mut self, bias: &[f32]) -> Result<()> {
        if bias.len() != self.cols {
            return Err(ModelError::ShapeMismatch {
                op: "add_bias",
                lhs: (self.rows, self.cols),
                rhs: (1, bias.len()),
            });
        }
        for r in 0..self.rows {
            simd::add_assign(self.row_mut(r), bias);
        }
        Ok(())
    }

    /// Applies ReLU in place.
    pub fn relu_in_place(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Applies the logistic sigmoid in place.
    pub fn sigmoid_in_place(&mut self) {
        for v in &mut self.data {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
    }

    /// Horizontally concatenates matrices with equal row counts.
    ///
    /// # Errors
    ///
    /// Fails if row counts differ or `parts` is empty.
    pub fn hconcat(parts: &[&Matrix]) -> Result<Matrix> {
        let first = parts
            .first()
            .ok_or(ModelError::InvalidConfig("hconcat of zero matrices".into()))?;
        let rows = first.rows;
        let total_cols: usize = parts.iter().map(|m| m.cols).sum();
        for m in parts {
            if m.rows != rows {
                return Err(ModelError::ShapeMismatch {
                    op: "hconcat",
                    lhs: (rows, first.cols),
                    rhs: (m.rows, m.cols),
                });
            }
        }
        let mut out = Matrix::zeros(rows, total_cols);
        for r in 0..rows {
            let mut c0 = 0;
            for m in parts {
                out.data[r * total_cols + c0..r * total_cols + c0 + m.cols]
                    .copy_from_slice(m.row(r));
                c0 += m.cols;
            }
        }
        Ok(out)
    }

    /// Consumes the matrix and returns the backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Scales every element in place.
    pub fn scale_in_place(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sums each column into a length-`cols` vector (used for bias
    /// gradients).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            simd::add_assign(&mut out, self.row(r));
        }
        out
    }

    /// Splits the matrix horizontally at `col`, returning the left and
    /// right parts.
    ///
    /// # Errors
    ///
    /// Fails if `col > cols`.
    pub fn hsplit(&self, col: usize) -> Result<(Matrix, Matrix)> {
        if col > self.cols {
            return Err(ModelError::ShapeMismatch {
                op: "hsplit",
                lhs: (self.rows, self.cols),
                rhs: (0, col),
            });
        }
        let mut left = Matrix::zeros(self.rows, col);
        let mut right = Matrix::zeros(self.rows, self.cols - col);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..col]);
            right.row_mut(r).copy_from_slice(&self.row(r)[col..]);
        }
        Ok((left, right))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(ModelError::ShapeMismatch { .. })
        ));
        let mut out = Matrix::from_vec(1, 1, vec![42.0]).unwrap();
        assert!(a.matmul_into(&b, &mut out).is_err());
        // `out` untouched on error.
        assert_eq!(out.as_slice(), &[42.0]);
    }

    /// Naive i-j-k matmul with the same zero-skip — the "old ordering"
    /// reference. Every output element accumulates its products in
    /// ascending-k order in both versions, so they must agree bit for
    /// bit, not just approximately.
    fn matmul_ijk(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut sum = 0.0f32;
                for k in 0..a.cols() {
                    let av = a.get(i, k);
                    if av == 0.0 {
                        continue;
                    }
                    sum += av * b.get(k, j);
                }
                out.set(i, j, sum);
            }
        }
        out
    }

    /// Deterministic ill-conditioned-ish fill with sprinkled zeros so
    /// the zero-skip path is exercised.
    fn fill(rows: usize, cols: usize, seed: u32) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                if x.is_multiple_of(7) {
                    0.0
                } else {
                    (x % 1000) as f32 / 99.0 - 5.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn matmul_ikj_bit_identical_to_ijk_reference() {
        for (m, k, n, seed) in [(4, 7, 5, 1), (1, 16, 1, 2), (9, 3, 8, 3), (6, 6, 6, 4)] {
            let a = fill(m, k, seed);
            let b = fill(k, n, seed.wrapping_add(100));
            let fast = a.matmul(&b).unwrap();
            let reference = matmul_ijk(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "ikj diverged from ijk");
            }
        }
    }

    #[test]
    fn matmul_scalar_and_simd_are_bit_identical() {
        // The dispatched axpy must reproduce the scalar loop exactly
        // on whatever tier this machine detects.
        use crate::simd::{self, SimdTier};
        let _guard = simd::test_tier_lock();
        for (m, k, n, seed) in [(4, 7, 5, 11), (8, 32, 16, 12), (3, 5, 9, 13)] {
            let a = fill(m, k, seed);
            let b = fill(k, n, seed.wrapping_add(100));
            simd::force_tier(Some(SimdTier::Scalar));
            let scalar = a.matmul(&b).unwrap();
            let mut scalar_bias = scalar.clone();
            scalar_bias.add_bias(&vec![0.25; n]).unwrap();
            let scalar_sums = scalar.column_sums();
            simd::force_tier(None);
            let vector = a.matmul(&b).unwrap();
            let mut vector_bias = vector.clone();
            vector_bias.add_bias(&vec![0.25; n]).unwrap();
            let vector_sums = vector.column_sums();
            for (x, y) in scalar.as_slice().iter().zip(vector.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "matmul diverged across tiers");
            }
            for (x, y) in scalar_bias.as_slice().iter().zip(vector_bias.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "add_bias diverged across tiers");
            }
            for (x, y) in scalar_sums.iter().zip(vector_sums.iter()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "column_sums diverged across tiers"
                );
            }
        }
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let mut out = Matrix::zeros(0, 0);
        for seed in 0..4u32 {
            let a = fill(5, 6, seed);
            let b = fill(6, 4, seed + 50);
            a.matmul_into(&b, &mut out).unwrap();
            assert_eq!(out, a.matmul(&b).unwrap());
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn bias_and_relu() {
        let mut m = Matrix::from_vec(2, 2, vec![-1.0, 1.0, -3.0, 3.0]).unwrap();
        m.add_bias(&[0.5, -0.5]).unwrap();
        m.relu_in_place();
        assert_eq!(m.as_slice(), &[0.0, 0.5, 0.0, 2.5]);
    }

    #[test]
    fn bias_shape_checked() {
        let mut m = Matrix::zeros(1, 3);
        assert!(m.add_bias(&[0.0; 2]).is_err());
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        let mut m = Matrix::from_vec(1, 3, vec![-100.0, 0.0, 100.0]).unwrap();
        m.sigmoid_in_place();
        let s = m.as_slice();
        assert!(s[0] < 1e-6);
        assert!((s[1] - 0.5).abs() < 1e-6);
        assert!(s[2] > 1.0 - 1e-6);
    }

    #[test]
    fn hconcat_layout() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = Matrix::hconcat(&[&a, &b]).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.as_slice(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn hconcat_rejects_ragged_rows() {
        let a = Matrix::zeros(2, 1);
        let b = Matrix::zeros(3, 1);
        assert!(Matrix::hconcat(&[&a, &b]).is_err());
    }

    #[test]
    fn hconcat_rejects_empty() {
        assert!(Matrix::hconcat(&[]).is_err());
    }
}
