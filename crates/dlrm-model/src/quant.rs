//! Per-row affine u8 quantization of embedding rows.
//!
//! Embedding bandwidth, not arithmetic, bounds PIM recommendation
//! serving, so shrinking the stored row is worth a bounded precision
//! loss. Each stored row (or row *slice* — the engine quantizes each
//! DPU's `N_c`-column tile slice independently) is encoded as
//!
//! ```text
//! [scale: f32 le][min: f32 le][q[0..n]: u8 each][zero pad to 8 B]
//! ```
//!
//! with `q = round((v - min) / scale)` clamped to `0..=255`,
//! `scale = (max - min) / 255`, and dequantization
//! `v' = min + scale * q` (the op order every backend, scalar or SIMD,
//! reproduces exactly — see [`crate::simd::add_assign_dequant_u8`] for
//! one record and [`crate::simd::sum_rows_tagged_le`] for records mixed
//! into a list of f32 rows). A row whose `max - min` overflows f32 is
//! refused rather than stored with an infinite `scale`.
//!
//! **Error model.** With exact arithmetic the reconstruction error is
//! at most `scale / 2` per element (the value is rounded to the nearest
//! of 256 evenly spaced levels). The f32 round-off of the encode and
//! decode expressions adds a few ulps of the row's magnitude on top;
//! [`max_abs_error_bound`] folds both into one checkable bound, which
//! the proptest suite enforces at 1024 cases. A constant row has
//! `scale == 0` and reconstructs exactly (`v' = min`).

use crate::embedding::EmbeddingTable;
use crate::error::{ModelError, Result};

/// Bytes of per-row header: `scale` then `min`, both little-endian f32.
pub const QROW_HEADER_BYTES: usize = 8;

/// Stored bytes of one quantized row of `n` values: header plus one
/// byte per value, zero-padded to the 8-byte MRAM DMA granule.
pub const fn quantized_row_bytes(n: usize) -> usize {
    (QROW_HEADER_BYTES + n + 7) & !7
}

/// Upper bound on `|v - dequant(quant(v))|` for any element of a row
/// quantized with `scale` over values of magnitude at most `max_abs`:
/// the half-step quantization error plus f32 round-off slack.
pub fn max_abs_error_bound(scale: f32, max_abs: f32) -> f32 {
    0.5 * scale + 8.0 * f32::EPSILON * (max_abs + scale) + f32::MIN_POSITIVE
}

/// Quantizes `src` into `dst`, which must be exactly
/// [`quantized_row_bytes`]`(src.len())` long.
///
/// # Errors
///
/// Fails if `dst` has the wrong length, `src` contains a non-finite
/// value (quantization needs a finite min/max), or `max - min`
/// overflows f32 (the row's `scale` would be infinite).
pub fn quantize_row_into(src: &[f32], dst: &mut [u8]) -> Result<()> {
    if dst.len() != quantized_row_bytes(src.len()) {
        return Err(ModelError::InvalidConfig(format!(
            "quantized row of {} values needs {} bytes, got {}",
            src.len(),
            quantized_row_bytes(src.len()),
            dst.len()
        )));
    }
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in src {
        if !v.is_finite() {
            return Err(ModelError::InvalidConfig(format!(
                "cannot quantize non-finite value {v}"
            )));
        }
        min = min.min(v);
        max = max.max(v);
    }
    if src.is_empty() {
        min = 0.0;
        max = 0.0;
    }
    let scale = (max - min) / 255.0;
    // A finite row can still span more than f32 holds: `max - min`
    // overflows and every dequantized value would be NaN.
    if !scale.is_finite() {
        return Err(ModelError::InvalidConfig(format!(
            "cannot quantize a row spanning {min:e} to {max:e}: its range overflows f32"
        )));
    }
    dst[0..4].copy_from_slice(&scale.to_le_bytes());
    dst[4..8].copy_from_slice(&min.to_le_bytes());
    for (d, &v) in dst[QROW_HEADER_BYTES..].iter_mut().zip(src.iter()) {
        *d = if scale == 0.0 {
            0
        } else {
            ((v - min) / scale).round().clamp(0.0, 255.0) as u8
        };
    }
    for d in dst[QROW_HEADER_BYTES + src.len()..].iter_mut() {
        *d = 0;
    }
    Ok(())
}

/// The `(scale, min)` header of a quantized row.
///
/// # Errors
///
/// Fails if `bytes` is shorter than the header.
pub fn row_params(bytes: &[u8]) -> Result<(f32, f32)> {
    if bytes.len() < QROW_HEADER_BYTES {
        return Err(ModelError::InvalidConfig(format!(
            "quantized row header needs {QROW_HEADER_BYTES} bytes, got {}",
            bytes.len()
        )));
    }
    let scale = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let min = f32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    Ok((scale, min))
}

/// Dequantizes a row of `n` values from its stored bytes, overwriting
/// `out[..n]`.
///
/// # Errors
///
/// Fails if `bytes` is shorter than [`quantized_row_bytes`]`(n)` or
/// `out` shorter than `n`.
pub fn dequantize_row_into(bytes: &[u8], n: usize, out: &mut [f32]) -> Result<()> {
    if bytes.len() < quantized_row_bytes(n) || out.len() < n {
        return Err(ModelError::InvalidConfig(format!(
            "dequantize of {n} values: got {} bytes and {} output slots",
            bytes.len(),
            out.len()
        )));
    }
    let (scale, min) = row_params(bytes)?;
    for (o, &q) in out[..n]
        .iter_mut()
        .zip(bytes[QROW_HEADER_BYTES..QROW_HEADER_BYTES + n].iter())
    {
        *o = min + scale * q as f32;
    }
    Ok(())
}

/// Storage dtype of the embedding rows a PIM engine scatters into MRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum EmbedDtype {
    /// Full-precision rows, 4 bytes per element (the default).
    #[default]
    F32,
    /// Per-row affine u8 rows (this module's format): a 4x element
    /// shrink, bounded by the quantization error model above.
    Int8,
}

impl EmbedDtype {
    /// Stored MRAM bytes of one row (or row slice) of `n` elements.
    pub fn stored_row_bytes(self, n: usize) -> usize {
        match self {
            EmbedDtype::F32 => n * 4,
            EmbedDtype::Int8 => quantized_row_bytes(n),
        }
    }

    /// Stable lower-case name (`"f32" | "int8"`), used by the CLI flag
    /// and bench rows.
    pub fn as_str(self) -> &'static str {
        match self {
            EmbedDtype::F32 => "f32",
            EmbedDtype::Int8 => "int8",
        }
    }

    /// Parses [`EmbedDtype::as_str`] names.
    ///
    /// # Errors
    ///
    /// Fails on anything other than `"f32"` or `"int8"`.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "f32" => Ok(EmbedDtype::F32),
            "int8" => Ok(EmbedDtype::Int8),
            other => Err(ModelError::InvalidConfig(format!(
                "unknown embed dtype {other:?} (expected \"f32\" or \"int8\")"
            ))),
        }
    }
}

impl std::fmt::Display for EmbedDtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A whole embedding table quantized row-by-row — the model-level
/// mirror of what the engine stores per DPU tile, used by the error
/// proptests and the int8 end-to-end reference.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTable {
    rows: usize,
    dim: usize,
    data: Vec<u8>,
}

impl QuantTable {
    /// Quantizes every row of `table` independently.
    ///
    /// # Errors
    ///
    /// Fails if any value is non-finite.
    pub fn from_table(table: &EmbeddingTable) -> Result<Self> {
        let rows = table.rows();
        let dim = table.dim();
        let rb = quantized_row_bytes(dim);
        let mut data = vec![0u8; rows * rb];
        for r in 0..rows {
            quantize_row_into(table.row(r as u64)?, &mut data[r * rb..(r + 1) * rb])?;
        }
        Ok(QuantTable { rows, dim, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Stored bytes per row.
    pub fn row_bytes(&self) -> usize {
        quantized_row_bytes(self.dim)
    }

    /// Total stored bytes (the number an f32 table shrinks to).
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// The stored bytes of row `i`.
    ///
    /// # Errors
    ///
    /// Fails if `i` is out of range.
    pub fn row_bytes_of(&self, i: u64) -> Result<&[u8]> {
        let idx = usize::try_from(i).ok().filter(|&v| v < self.rows).ok_or(
            ModelError::IndexOutOfRange {
                index: i,
                rows: self.rows,
            },
        )?;
        let rb = self.row_bytes();
        Ok(&self.data[idx * rb..(idx + 1) * rb])
    }

    /// Reconstructs the full table with every row dequantized — the
    /// reference an int8 engine's output is compared against.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (cannot happen for a well-formed
    /// `QuantTable`).
    pub fn dequantize(&self) -> Result<EmbeddingTable> {
        let mut t = EmbeddingTable::zeros(self.rows, self.dim)?;
        let rb = self.row_bytes();
        for r in 0..self.rows {
            let dst = &mut t.as_mut_slice()[r * self.dim..(r + 1) * self.dim];
            dequantize_row_into(&self.data[r * rb..(r + 1) * rb], self.dim, dst)?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(src: &[f32]) -> Vec<f32> {
        let mut bytes = vec![0u8; quantized_row_bytes(src.len())];
        quantize_row_into(src, &mut bytes).unwrap();
        let mut out = vec![0.0f32; src.len()];
        dequantize_row_into(&bytes, src.len(), &mut out).unwrap();
        out
    }

    #[test]
    fn row_bytes_are_padded_to_dma_granule() {
        assert_eq!(quantized_row_bytes(0), 8);
        assert_eq!(quantized_row_bytes(2), 16);
        assert_eq!(quantized_row_bytes(6), 16);
        assert_eq!(quantized_row_bytes(8), 16);
        assert_eq!(quantized_row_bytes(9), 24);
        assert_eq!(quantized_row_bytes(32), 40);
        for n in 0..70 {
            assert_eq!(quantized_row_bytes(n) % 8, 0);
            assert!(quantized_row_bytes(n) >= QROW_HEADER_BYTES + n);
        }
    }

    #[test]
    fn constant_row_reconstructs_exactly() {
        for v in [0.0f32, -3.25, 1e-20, 7e12] {
            let src = vec![v; 8];
            assert_eq!(round_trip(&src), src);
        }
    }

    #[test]
    fn endpoints_reconstruct_near_exactly() {
        let src = [-1.0f32, 1.0, 0.0, 0.5];
        let got = round_trip(&src);
        let scale = 2.0 / 255.0;
        let bound = max_abs_error_bound(scale, 1.0);
        for (g, s) in got.iter().zip(src.iter()) {
            assert!((g - s).abs() <= bound, "{g} vs {s} (bound {bound})");
        }
        // The endpoints hit exact levels: q=0 gives min exactly.
        assert_eq!(got[0], -1.0);
    }

    #[test]
    fn non_finite_rows_are_rejected() {
        let mut dst = vec![0u8; quantized_row_bytes(2)];
        assert!(quantize_row_into(&[1.0, f32::NAN], &mut dst).is_err());
        assert!(quantize_row_into(&[f32::INFINITY, 0.0], &mut dst).is_err());
    }

    #[test]
    fn rows_whose_range_overflows_f32_are_rejected() {
        // Every value is finite, but `max - min` is not: before this was
        // refused, the row stored `scale = inf` and every element
        // dequantized to NaN.
        let mut dst = vec![0u8; quantized_row_bytes(4)];
        let err = quantize_row_into(&[-3e38, 3e38, 1.0, 0.0], &mut dst).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("spanning -3e38 to 3e38"), "{msg}");
        assert!(msg.contains("overflows f32"), "{msg}");
        // Rows as wide as f32 allows still round-trip to finite values.
        for wide in [[-1.5e38f32, 1.5e38, 0.0, 1.0], [0.0, f32::MAX, 1.0, 2.0]] {
            assert!(round_trip(&wide).iter().all(|v| v.is_finite()), "{wide:?}");
        }
    }

    #[test]
    fn wrong_buffer_sizes_are_rejected() {
        let mut small = vec![0u8; 8];
        assert!(quantize_row_into(&[1.0; 8], &mut small).is_err());
        let bytes = vec![0u8; quantized_row_bytes(8)];
        let mut out = vec![0.0f32; 4];
        assert!(dequantize_row_into(&bytes, 8, &mut out).is_err());
        assert!(row_params(&bytes[..4]).is_err());
    }

    #[test]
    fn quant_table_round_trip_is_bounded() {
        let t = EmbeddingTable::random(64, 16, 2.0, 9).unwrap();
        let q = QuantTable::from_table(&t).unwrap();
        assert_eq!(q.rows(), 64);
        assert_eq!(q.dim(), 16);
        assert_eq!(q.size_bytes(), 64 * quantized_row_bytes(16));
        assert!(q.size_bytes() < t.size_bytes());
        let back = q.dequantize().unwrap();
        for r in 0..64 {
            let (scale, _) = row_params(q.row_bytes_of(r as u64).unwrap()).unwrap();
            let bound = max_abs_error_bound(scale, 2.0);
            for (a, b) in t
                .row(r as u64)
                .unwrap()
                .iter()
                .zip(back.row(r as u64).unwrap())
            {
                assert!(
                    (a - b).abs() <= bound,
                    "row {r}: {a} vs {b} (bound {bound})"
                );
            }
        }
    }

    #[test]
    fn dtype_row_bytes_and_names() {
        assert_eq!(EmbedDtype::F32.stored_row_bytes(8), 32);
        assert_eq!(EmbedDtype::Int8.stored_row_bytes(8), 16);
        assert_eq!(EmbedDtype::parse("f32").unwrap(), EmbedDtype::F32);
        assert_eq!(EmbedDtype::parse("int8").unwrap(), EmbedDtype::Int8);
        assert!(EmbedDtype::parse("fp16").is_err());
        assert_eq!(EmbedDtype::Int8.to_string(), "int8");
    }

    #[test]
    fn simd_dequant_accumulate_matches_dequantize() {
        // The engine's fused dequant-accumulate and this module's
        // dequantize_row_into must agree bit-for-bit: same op order.
        let src = [-1.5f32, 0.0, 0.25, 2.75, -0.125, 1.0, 0.5, -2.0];
        let mut bytes = vec![0u8; quantized_row_bytes(src.len())];
        quantize_row_into(&src, &mut bytes).unwrap();
        let (scale, min) = row_params(&bytes).unwrap();
        let mut direct = vec![0.0f32; src.len()];
        dequantize_row_into(&bytes, src.len(), &mut direct).unwrap();
        let mut fused = vec![0.0f32; src.len()];
        crate::simd::add_assign_dequant_u8(
            &mut fused,
            &bytes[QROW_HEADER_BYTES..QROW_HEADER_BYTES + src.len()],
            scale,
            min,
        );
        for (a, b) in fused.iter().zip(direct.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    proptest! {
        /// Round-trip error of every element is bounded by the per-row
        /// scale (plus f32 round-off slack) for arbitrary finite rows.
        #[test]
        fn round_trip_error_bounded_by_scale(
            row in proptest::collection::vec(-1e6f32..1e6, 1..64),
        ) {
            let got = round_trip(&row);
            let mut bytes = vec![0u8; quantized_row_bytes(row.len())];
            quantize_row_into(&row, &mut bytes).unwrap();
            let (scale, _) = row_params(&bytes).unwrap();
            let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let bound = max_abs_error_bound(scale, max_abs);
            for (g, s) in got.iter().zip(row.iter()) {
                prop_assert!(
                    (g - s).abs() <= bound,
                    "{} vs {} exceeds bound {}", g, s, bound
                );
            }
        }

        /// Quantized values always decode within the row's [min, max]
        /// envelope (plus round-off), regardless of input.
        #[test]
        fn dequantized_values_stay_in_envelope(
            row in proptest::collection::vec(-1e4f32..1e4, 1..32),
        ) {
            let got = round_trip(&row);
            let min = row.iter().copied().fold(f32::INFINITY, f32::min);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let slack = max_abs_error_bound(0.0, max.abs().max(min.abs()));
            for g in &got {
                prop_assert!(*g >= min - slack && *g <= max + slack);
            }
        }
    }
}
