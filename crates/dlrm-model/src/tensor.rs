//! Minimal row-major matrix type: the activations of DLRM's dense side.
//!
//! The workspace implements its own linear algebra (no external crates).
//! The product itself is [`simd::gemm`], called by
//! [`Linear`](crate::Linear) on a matrix's slices; a [`Matrix`] only
//! carries the shape and the element-wise steps around it — bias add,
//! ReLU and sigmoid.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic fill with sprinkled zeros.
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
    fn add_bias_scalar_and_simd_are_bit_identical() {
        // The dispatched add must reproduce the scalar loop exactly on
        // whatever tier this machine detects; rows of 37 and more reach
        // the vector copies (`AVX2_MIN_ELEMS`, `AVX512_MIN_ELEMS`).
        use crate::simd::{self, SimdTier};
        for (m, n) in [(4, 5), (3, 9), (2, 37), (3, 64), (2, 100)] {
            let bias = fill(1, n, 100).into_vec();
            let mut scalar = fill(m, n, 7);
            simd::with_tier(SimdTier::Scalar, || scalar.add_bias(&bias)).unwrap();
            let mut vector = fill(m, n, 7);
            vector.add_bias(&bias).unwrap();
            for (x, y) in scalar.as_slice().iter().zip(vector.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "add_bias diverged across tiers");
            }
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
