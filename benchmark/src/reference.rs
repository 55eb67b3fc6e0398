//! The benchmark-owned reference pass and correctness oracle.
//!
//! Every timed system pass is followed by one *reference pass*: a plain
//! scalar gather-and-sum over the same batches, on a private `f32` copy
//! of the embedding tables taken at set-up. It calls no repository
//! code, is always f32, and is never edited by a later change, so the
//! ratio `reference_ns / system_ns` cancels machine-speed drift while
//! its denominator stays put. The sums it produces are also the oracle
//! every pooled output is verified against.

use std::hint::black_box;

use updlrm::dlrm_model::quant::max_abs_error_bound;
use updlrm::prelude::{Dlrm, EmbedDtype, Matrix, Workload};

/// Private copy of the tables plus the per-sample pooled sums.
pub struct Reference {
    dim: usize,
    /// Row-major `rows x dim` values per table.
    tables: Vec<Vec<f32>>,
    /// Requests in the trace (global batch-major sample index space).
    samples: usize,
    /// `sums[(t * samples + k) * dim ..][..dim]` = pooled row of table
    /// `t` for global sample `k`. Rewritten by every reference pass.
    sums: Vec<f32>,
    /// Lookups per (table, sample), for the int8 tolerance.
    lookups: Vec<u32>,
    /// Largest per-element quantization error of any row, per table
    /// (0 for f32 engines).
    row_err: Vec<f32>,
    /// Gather-and-sum sweeps per [`Reference::pass`].
    sweeps: usize,
}

impl Reference {
    /// Copies `model`'s tables and computes the oracle once. A timed
    /// reference pass sweeps the trace `sweeps` times.
    pub fn new(model: &Dlrm, workload: &Workload, dtype: EmbedDtype, sweeps: usize) -> Self {
        let dim = model.config().embedding_dim;
        let tables: Vec<Vec<f32>> = model
            .tables()
            .iter()
            .map(|t| t.as_slice().to_vec())
            .collect();
        let samples = workload.num_queries();
        let row_err = tables
            .iter()
            .map(|t| match dtype {
                EmbedDtype::F32 => 0.0,
                EmbedDtype::Int8 => t
                    .chunks_exact(dim)
                    .map(|row| {
                        let (lo, hi) = row
                            .iter()
                            .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                        max_abs_error_bound((hi - lo) / 255.0, lo.abs().max(hi.abs()))
                    })
                    .fold(0.0f32, f32::max),
            })
            .collect();
        let mut lookups = vec![0u32; tables.len() * samples];
        let bs = workload.config.batch_size;
        for (b, batch) in workload.batches.iter().enumerate() {
            for (t, sp) in batch.sparse.iter().enumerate() {
                for (s, sample) in sp.iter().enumerate() {
                    lookups[t * samples + b * bs + s] = sample.len() as u32;
                }
            }
        }
        let mut r = Reference {
            dim,
            sums: vec![0.0; tables.len() * samples * dim],
            tables,
            samples,
            lookups,
            row_err,
            sweeps,
        };
        r.sweep(workload);
        r
    }

    /// Lookups one reference pass performs.
    pub fn lookups_per_pass(&self) -> u64 {
        self.lookups.iter().map(|&n| u64::from(n)).sum::<u64>() * self.sweeps as u64
    }

    /// One reference pass.
    pub fn pass(&mut self, workload: &Workload) {
        for _ in 0..self.sweeps {
            self.sweep(workload);
        }
    }

    /// Gathers and sums every sample of every table in index order.
    /// Deliberately plain scalar code — `acc[k] += row[k]` — over the
    /// private copy.
    fn sweep(&mut self, workload: &Workload) {
        let dim = self.dim;
        let bs = workload.config.batch_size;
        for (b, batch) in workload.batches.iter().enumerate() {
            for (t, sp) in batch.sparse.iter().enumerate() {
                let table = &self.tables[t];
                let base = t * self.samples + b * bs;
                for (s, sample) in sp.iter().enumerate() {
                    let acc = &mut self.sums[(base + s) * dim..(base + s + 1) * dim];
                    acc.fill(0.0);
                    for &i in sample {
                        let row = &table[i as usize * dim..(i as usize + 1) * dim];
                        for k in 0..dim {
                            acc[k] += row[k];
                        }
                    }
                }
            }
        }
        black_box(&mut self.sums);
    }

    /// The oracle's pooled row for table `t`, global sample `k`.
    pub fn sum(&self, t: usize, k: usize) -> &[f32] {
        &self.sums[(t * self.samples + k) * self.dim..][..self.dim]
    }

    /// The oracle's pooled matrices for generator batch `b` of
    /// `workload` (one `batch x dim` matrix per table).
    pub fn pooled_for_batch(&self, workload: &Workload, b: usize) -> Vec<Matrix> {
        let bs = workload.config.batch_size;
        let n = workload.batches[b].batch_size();
        (0..self.tables.len())
            .map(|t| {
                let from = (t * self.samples + b * bs) * self.dim;
                Matrix::from_vec(n, self.dim, self.sums[from..from + n * self.dim].to_vec())
                    .expect("oracle rows have the model's dimension")
            })
            .collect()
    }

    /// Checks one served batch against the oracle: `ids[r]` is the
    /// global sample pooled into row `r`. f32 engines must match
    /// bit-for-bit (integer-valued tables make the sums exact in any
    /// order); int8 engines within the summed per-row quantization
    /// bound. Returns how many of the batch's inferences failed.
    pub fn verify_batch(&self, ids: impl Iterator<Item = usize>, pooled: &[Matrix]) -> u64 {
        let mut failed = 0;
        for (r, k) in ids.enumerate() {
            let ok = pooled.len() == self.tables.len()
                && pooled.iter().enumerate().all(|(t, m)| {
                    let got = m.row(r);
                    let want = self.sum(t, k);
                    if self.row_err[t] == 0.0 {
                        got.iter()
                            .zip(want)
                            .all(|(g, w)| g.to_bits() == w.to_bits())
                    } else {
                        let n = self.lookups[t * self.samples + k] as f32;
                        // Quantization error per looked-up row, plus
                        // f32 round-off of summing n inexact values.
                        let tol = n * self.row_err[t] * (1.0 + n * f32::EPSILON) + f32::EPSILON;
                        got.len() == want.len()
                            && got.iter().zip(want).all(|(g, w)| (g - w).abs() <= tol)
                    }
                });
            failed += u64::from(!ok);
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use updlrm::prelude::{DatasetSpec, DlrmConfig, TraceConfig};

    fn tiny() -> (Dlrm, Workload) {
        let spec = DatasetSpec::goodreads().scaled_down(20_000);
        let workload = Workload::generate(
            &spec,
            TraceConfig {
                num_tables: 2,
                batch_size: 8,
                num_batches: 3,
                num_dense: 13,
                seed: 5,
            },
        );
        let model = Dlrm::new_integer_tables(DlrmConfig {
            num_dense: 13,
            embedding_dim: 32,
            table_rows: vec![spec.num_items; 2],
            bottom_hidden: vec![16],
            top_hidden: vec![16],
            seed: 5,
        })
        .unwrap();
        (model, workload)
    }

    #[test]
    fn reference_equals_partial_sum_bit_for_bit() {
        let (model, workload) = tiny();
        let r = Reference::new(&model, &workload, EmbedDtype::F32, 1);
        let bs = workload.config.batch_size;
        for (b, batch) in workload.batches.iter().enumerate() {
            for (t, table) in model.tables().iter().enumerate() {
                for s in 0..batch.batch_size() {
                    let want = table.partial_sum(batch.sparse[t].sample(s)).unwrap();
                    let got = r.sum(t, b * bs + s);
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "batch {b} table {t} sample {s}");
                    }
                }
            }
        }
    }

    #[test]
    fn verify_counts_each_wrong_inference_once() {
        let (model, workload) = tiny();
        let r = Reference::new(&model, &workload, EmbedDtype::F32, 1);
        let mut pooled = r.pooled_for_batch(&workload, 1);
        let ids = 8..16usize;
        assert_eq!(r.verify_batch(ids.clone(), &pooled), 0);
        // Two wrong tables in one sample still fail one inference.
        pooled[0].row_mut(2)[0] += 1.0;
        pooled[1].row_mut(2)[5] += 1.0;
        pooled[1].row_mut(7)[0] -= 1.0;
        assert_eq!(r.verify_batch(ids, &pooled), 2);
    }

    #[test]
    fn int8_tolerance_accepts_quantization_error_only() {
        let (model, workload) = tiny();
        let r = Reference::new(&model, &workload, EmbedDtype::Int8, 2);
        let mut pooled = r.pooled_for_batch(&workload, 0);
        let n = workload.batches[0].sparse[0].sample(0).len() as f32;
        assert!(n > 0.0);
        pooled[0].row_mut(0)[0] += 0.5 * n * r.row_err[0];
        assert_eq!(r.verify_batch(0..8usize, &pooled), 0);
        pooled[0].row_mut(0)[0] += 2.0 * n * r.row_err[0];
        assert_eq!(r.verify_batch(0..8usize, &pooled), 1);
    }
}
