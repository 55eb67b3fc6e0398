//! Fully-connected layers: the bottom and top MLPs of DLRM.

use crate::error::{ModelError, Result};
use crate::simd;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Activation applied after a linear layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid (used by the final CTR layer).
    Sigmoid,
    /// Identity.
    None,
}

/// One dense layer: `y = act(x W + b)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Linear {
    weight: Matrix,
    bias: Vec<f32>,
    activation: Activation,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights, deterministic in
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Fails if either dimension is zero.
    pub fn xavier(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        seed: u64,
    ) -> Result<Self> {
        if in_dim == 0 || out_dim == 0 {
            return Err(ModelError::InvalidConfig(format!(
                "linear layer dims must be nonzero, got {in_dim}x{out_dim}"
            )));
        }
        let bound = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..in_dim * out_dim)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Ok(Linear {
            weight: Matrix::from_vec(in_dim, out_dim, data)?,
            bias: vec![0.0; out_dim],
            activation,
        })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Forward pass over a `batch x in_dim` matrix.
    ///
    /// # Errors
    ///
    /// Fails on a shape mismatch.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(x, &mut y)?;
        Ok(y)
    }

    /// [`Linear::forward`] writing into a caller-provided output matrix
    /// (reshaped in place, allocation reused) — bit-identical results.
    ///
    /// # Errors
    ///
    /// Fails on a shape mismatch.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) -> Result<()> {
        self.forward_parts(x.rows(), &[(x.as_slice(), x.cols())], y)
    }

    /// Forward pass over an input given as column blocks: each part is
    /// a row-major `rows x width` slice, and the layer sees their
    /// horizontal concatenation without it being built. Part `p`
    /// multiplies the weight rows its columns would occupy and
    /// accumulates into `y` after the parts before it — ascending `k`
    /// across the concatenation, so the result is bit-identical to
    /// [`Linear::forward`] over [`Matrix::hconcat`] of the parts.
    ///
    /// # Errors
    ///
    /// Fails if the widths do not sum to the input dimension or a part
    /// is not `rows x width`; `y` is untouched then.
    pub(crate) fn forward_parts(
        &self,
        rows: usize,
        parts: &[(&[f32], usize)],
        y: &mut Matrix,
    ) -> Result<()> {
        let n = self.out_dim();
        let width: usize = parts.iter().map(|&(_, w)| w).sum();
        if width != self.in_dim() || parts.iter().any(|&(x, w)| x.len() != rows * w) {
            return Err(ModelError::ShapeMismatch {
                op: "matmul",
                lhs: (rows, width),
                rhs: (self.in_dim(), n),
            });
        }
        y.reset_zeroed(rows, n);
        let mut k0 = 0;
        for &(x, w) in parts {
            let weight_rows = &self.weight.as_slice()[k0 * n..(k0 + w) * n];
            simd::gemm(y.as_mut_slice(), x, w, weight_rows, n);
            k0 += w;
        }
        y.add_bias(&self.bias)?;
        match self.activation {
            Activation::Relu => y.relu_in_place(),
            Activation::Sigmoid => y.sigmoid_in_place(),
            Activation::None => {}
        }
        Ok(())
    }

    /// Multiply-accumulate count for one sample (used by hardware cost
    /// models).
    pub fn flops_per_sample(&self) -> u64 {
        2 * self.weight.rows() as u64 * self.weight.cols() as u64
    }
}

/// A stack of [`Linear`] layers.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP from a list of layer sizes, e.g. `[13, 64, 32]`
    /// gives two layers (13→64, 64→32). Hidden layers use ReLU; the last
    /// layer uses `final_activation`. Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Fails if fewer than two sizes are supplied or any is zero.
    pub fn new(sizes: &[usize], final_activation: Activation, seed: u64) -> Result<Self> {
        if sizes.len() < 2 {
            return Err(ModelError::InvalidConfig(
                "mlp needs at least input and output sizes".into(),
            ));
        }
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for (i, w) in sizes.windows(2).enumerate() {
            let act = if i + 2 == sizes.len() {
                final_activation
            } else {
                Activation::Relu
            };
            layers.push(Linear::xavier(
                w[0],
                w[1],
                act,
                seed.wrapping_add(i as u64),
            )?);
        }
        Ok(Mlp { layers })
    }

    /// Input dimension of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension of the last layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("mlp has layers").out_dim()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Fails on a shape mismatch.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        self.forward_parts(x.rows(), &[(x.as_slice(), x.cols())])
    }

    /// Forward pass over an input given as column blocks (see
    /// [`Linear::forward_parts`]); the layers after the first ping-pong
    /// between two buffers.
    ///
    /// # Errors
    ///
    /// Fails on a shape mismatch.
    pub(crate) fn forward_parts(&self, rows: usize, parts: &[(&[f32], usize)]) -> Result<Matrix> {
        let mut cur = Matrix::zeros(0, 0);
        self.layers[0].forward_parts(rows, parts, &mut cur)?;
        let mut next = Matrix::zeros(0, 0);
        for layer in &self.layers[1..] {
            layer.forward_into(&cur, &mut next)?;
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(cur)
    }

    /// Total multiply-accumulate count for one sample.
    pub fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(Linear::flops_per_sample).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_shapes_flow_through() {
        let mlp = Mlp::new(&[13, 64, 32], Activation::Relu, 0).unwrap();
        assert_eq!(mlp.in_dim(), 13);
        assert_eq!(mlp.out_dim(), 32);
        let x = Matrix::zeros(4, 13);
        let y = mlp.forward(&x).unwrap();
        assert_eq!((y.rows(), y.cols()), (4, 32));
    }

    #[test]
    fn mlp_needs_two_sizes() {
        assert!(Mlp::new(&[8], Activation::None, 0).is_err());
        assert!(Mlp::new(&[], Activation::None, 0).is_err());
    }

    #[test]
    fn relu_output_is_nonnegative() {
        let mlp = Mlp::new(&[4, 8, 8], Activation::Relu, 3).unwrap();
        let x = Matrix::from_vec(2, 4, vec![-5.0, 3.0, -1.0, 0.5, 1.0, -2.0, 4.0, -0.1]).unwrap();
        let y = mlp.forward(&x).unwrap();
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn sigmoid_head_is_probability() {
        let mlp = Mlp::new(&[4, 1], Activation::Sigmoid, 9).unwrap();
        let x = Matrix::from_vec(3, 4, vec![10.0; 12]).unwrap();
        let y = mlp.forward(&x).unwrap();
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Mlp::new(&[4, 4], Activation::None, 11).unwrap();
        let b = Mlp::new(&[4, 4], Activation::None, 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn flops_count_macs() {
        let mlp = Mlp::new(&[10, 20, 5], Activation::None, 0).unwrap();
        assert_eq!(mlp.flops_per_sample(), 2 * (10 * 20 + 20 * 5));
    }

    #[test]
    fn forward_shape_mismatch_is_error() {
        let mlp = Mlp::new(&[4, 4], Activation::None, 0).unwrap();
        let x = Matrix::zeros(2, 5);
        assert!(mlp.forward(&x).is_err());
    }

    #[test]
    fn forward_parts_rejects_widths_that_do_not_fill_the_input() {
        let layer = Linear::xavier(6, 5, Activation::None, 1).unwrap();
        let x = [0.5f32; 12];
        let mut y = Matrix::from_vec(1, 1, vec![42.0]).unwrap();
        // 2 + 3 columns against 6 inputs; 2 + 4 with a short slice.
        assert!(layer
            .forward_parts(2, &[(&x[..4], 2), (&x[..6], 3)], &mut y)
            .is_err());
        assert!(layer
            .forward_parts(2, &[(&x[..4], 2), (&x[..7], 4)], &mut y)
            .is_err());
        assert_eq!(y.as_slice(), &[42.0]);
        layer
            .forward_parts(2, &[(&x[..4], 2), (&x[..8], 4)], &mut y)
            .unwrap();
        assert_eq!((y.rows(), y.cols()), (2, 5));
    }

    #[test]
    fn forward_into_matches_forward_bit_for_bit() {
        let layer = Linear::xavier(6, 5, Activation::Relu, 21).unwrap();
        let x = Matrix::from_vec(
            3,
            6,
            (0..18).map(|i| (i as f32 - 9.0) / 3.0).collect::<Vec<_>>(),
        )
        .unwrap();
        let fresh = layer.forward(&x).unwrap();
        // A reused (previously differently-shaped) buffer must converge
        // to the same bits.
        let mut reused = Matrix::zeros(7, 2);
        layer.forward_into(&x, &mut reused).unwrap();
        assert_eq!(fresh, reused);
        for (a, b) in fresh.as_slice().iter().zip(reused.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
