//! Uniform EMT tiling and the §3.1 tile-shape search (Eq. 1–3).
//!
//! A table of `R x C` f32 values is cut into tiles of `N_r` rows by
//! `N_c` columns, one tile per DPU. The DPUs holding one table form a
//! *group*, arranged as a `row_parts x col_slices` grid: every index
//! lookup is routed to one row partition and executed by all of its
//! column slices in parallel.
//!
//! Choosing `N_c` trades the three stages against each other (paper
//! §3.1): a larger `N_c` means fewer, larger MRAM reads and fewer row
//! partitions (more lookups per DPU, higher CPU→DPU index traffic per
//! DPU) but more DPU→CPU result bytes. The search enumerates the
//! constrained space — `N_c = 2k, 1 <= k <= 4` (Eq. 3), tile elements
//! `<= 1.6e7` (Eq. 2) — and picks the estimated-cost minimizer of Eq. 1.

use crate::error::{CoreError, Result};
use upmem_sim::{CostModel, CostTable};

/// The paper's Eq. 3 candidate set for columns per tile.
pub const CANDIDATE_NC: [usize; 4] = [2, 4, 6, 8];

/// The paper's Eq. 2 bound: elements per tile (64 MB / 4 B).
pub const MAX_TILE_ELEMENTS: usize = 16_000_000;

/// One uniform tiling of a table over a DPU group.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tiling {
    /// Columns per tile (`N_c`).
    pub n_c: usize,
    /// Column slices per group (`C / N_c`).
    pub col_slices: usize,
    /// Row partitions per group (`dpus / col_slices`).
    pub row_parts: usize,
    /// Rows per tile under uniform partitioning (`ceil(R / row_parts)`).
    pub n_r: usize,
    /// Estimated embedding-stage latency (Eq. 1) in nanoseconds.
    pub est_cost_ns: f64,
}

impl Tiling {
    /// Bytes per tile row (`N_c * 4`).
    pub fn row_bytes(&self) -> usize {
        self.n_c * 4
    }

    /// Total DPUs in the group.
    pub fn group_dpus(&self) -> usize {
        self.col_slices * self.row_parts
    }
}

/// Inputs of the tiling cost model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TilingProblem {
    /// Table rows (`R`).
    pub rows: usize,
    /// Table columns (`C`, the embedding dimension).
    pub cols: usize,
    /// DPUs available for this table's group (`N_dpu`).
    pub dpus: usize,
    /// Inference batch size.
    pub batch_size: usize,
    /// Average multi-hot reduction of the workload.
    pub avg_reduction: f64,
    /// MRAM bytes available for the EMT region of each DPU.
    pub emt_capacity_bytes: usize,
    /// Tasklets per DPU (sets how much of a lookup's serial path a DPU
    /// hides).
    pub tasklets: usize,
    /// Share of the lookups expected to find their row WRAM-resident
    /// (the profile's mass on the rows the group's DPUs can keep; `0.0`
    /// prices the paper's kernel). It does not depend on `N_c`: a
    /// group's WRAM holds the same number of whole rows however they
    /// are sliced.
    pub wram_hit_share: f64,
}

impl TilingProblem {
    /// Builds a tiling for a specific `N_c`, validating feasibility.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoFeasibleTiling`] when `N_c` does not divide the
    /// column count, the group cannot host the column slices, or the
    /// tile exceeds Eq. 2 / MRAM capacity.
    pub fn tiling_for_nc(&self, n_c: usize, cost: &CostModel) -> Result<Tiling> {
        let infeasible = CoreError::NoFeasibleTiling {
            rows: self.rows,
            cols: self.cols,
            dpus: self.dpus,
        };
        if n_c == 0 || !self.cols.is_multiple_of(n_c) {
            return Err(infeasible);
        }
        let col_slices = self.cols / n_c;
        if col_slices == 0 || self.dpus < col_slices {
            return Err(infeasible);
        }
        let row_parts = self.dpus / col_slices;
        let n_r = self.rows.div_ceil(row_parts);
        if n_r * n_c > MAX_TILE_ELEMENTS || n_r * n_c * 4 > self.emt_capacity_bytes {
            return Err(infeasible);
        }
        let est_cost_ns = self.estimate_cost_ns(n_c, row_parts, cost);
        Ok(Tiling {
            n_c,
            col_slices,
            row_parts,
            n_r,
            est_cost_ns,
        })
    }

    /// Eq. 1: `T_c-comm + T_lkp + T_d-comm` for one batch.
    ///
    /// Stage 2 is per-DPU (all DPUs run in parallel); the transfer
    /// stages share the host bus, so their cost is the group's *total*
    /// byte count over the aggregate bandwidth. The resulting trade-off
    /// matches §3.1: larger `N_c` means more row partitions (less
    /// lookup time per DPU) but more DPU→CPU result bytes.
    fn estimate_cost_ns(&self, n_c: usize, row_parts: usize, cost: &CostModel) -> f64 {
        let total_lookups = self.batch_size as f64 * self.avg_reduction;
        let lookups_per_dpu = total_lookups / row_parts as f64;
        // Stage 1: each reference is a 4-byte CSR entry broadcast to
        // its row partition's column slices in one bus pass.
        let t_c = total_lookups * cost.host_to_mram_ns(4);
        // Stage 2: what the kernel charges a lookup — a loop iteration,
        // an accumulate and the row's read, an MRAM DMA of N_c*4 bytes
        // or a WRAM-resident operand — through the launch accounting's
        // bounds (`CostTable::lookup_cycles`), on the slowest (here:
        // any) DPU.
        let per_lookup_cycles = CostTable::new(cost).lookup_cycles(
            n_c * 4,
            false,
            n_c as u64,
            self.wram_hit_share,
            self.tasklets,
        );
        let t_lkp = lookups_per_dpu * per_lookup_cycles * 1e9 / cost.clock_hz as f64;
        // Stage 3: every DPU returns one partial-sum row (N_c*4 B) per
        // sample over the shared bus: batch * 4 * C * row_parts bytes.
        let t_d = self.batch_size as f64 * cost.mram_to_host_ns(4 * self.cols) * row_parts as f64;
        t_c + t_lkp + t_d
    }

    /// Exhaustive Eq. 1–3 search: the feasible `N_c` with minimum
    /// estimated cost.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoFeasibleTiling`] if no candidate is feasible.
    pub fn search(&self, cost: &CostModel) -> Result<Tiling> {
        CANDIDATE_NC
            .iter()
            .filter_map(|&n_c| self.tiling_for_nc(n_c, cost).ok())
            .min_by(|a, b| {
                a.est_cost_ns
                    .partial_cmp(&b.est_cost_ns)
                    .expect("cost estimates are finite")
            })
            .ok_or(CoreError::NoFeasibleTiling {
                rows: self.rows,
                cols: self.cols,
                dpus: self.dpus,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_problem() -> TilingProblem {
        // One of 8 EMT groups: 32 DPUs, 32-dim embeddings.
        TilingProblem {
            rows: 100_000,
            cols: 32,
            dpus: 32,
            batch_size: 64,
            avg_reduction: 100.0,
            emt_capacity_bytes: 48 << 20,
            tasklets: 14,
            wram_hit_share: 0.0,
        }
    }

    #[test]
    fn grid_shapes_follow_nc() {
        let p = paper_problem();
        let cost = CostModel::default();
        let t2 = p.tiling_for_nc(2, &cost).unwrap();
        assert_eq!((t2.col_slices, t2.row_parts), (16, 2));
        let t4 = p.tiling_for_nc(4, &cost).unwrap();
        assert_eq!((t4.col_slices, t4.row_parts), (8, 4));
        let t8 = p.tiling_for_nc(8, &cost).unwrap();
        assert_eq!((t8.col_slices, t8.row_parts), (4, 8));
        assert_eq!(t8.group_dpus(), 32);
        assert_eq!(t8.row_bytes(), 32);
    }

    #[test]
    fn nc_must_divide_cols() {
        let p = paper_problem();
        let cost = CostModel::default();
        // 32 % 6 != 0 -> infeasible.
        assert!(matches!(
            p.tiling_for_nc(6, &cost),
            Err(CoreError::NoFeasibleTiling { .. })
        ));
        assert!(p.tiling_for_nc(0, &cost).is_err());
    }

    #[test]
    fn search_picks_minimum_cost_candidate() {
        let p = paper_problem();
        let cost = CostModel::default();
        let best = p.search(&cost).unwrap();
        for &n_c in &CANDIDATE_NC {
            if let Ok(t) = p.tiling_for_nc(n_c, &cost) {
                assert!(best.est_cost_ns <= t.est_cost_ns);
            }
        }
    }

    #[test]
    fn larger_nc_shifts_cost_between_stages() {
        // Verify the §3.1 trade-off direction: more columns per tile
        // means fewer row partitions, so more lookups land on each DPU
        // (stage 1+2 grow), while stage 3 grows with the result row size.
        let p = paper_problem();
        let cost = CostModel::default();
        let t2 = p.tiling_for_nc(2, &cost).unwrap();
        let t8 = p.tiling_for_nc(8, &cost).unwrap();
        assert!(t8.row_parts > t2.row_parts);
        // Per-DPU lookups: batch*red/row_parts decreases with more parts.
        assert!(t8.n_r < t2.n_r);
    }

    /// The estimator prices a lookup with the kernel's own charges:
    /// at `N_c = 8` on 14 tasklets that is the pipeline bound, 36
    /// instructions with the row fetched and 32 with it WRAM-resident,
    /// and nothing else in Eq. 1 moves with the hit share.
    #[test]
    fn stage_two_is_priced_by_the_kernels_charges() {
        let cost = CostModel::default();
        let cold = paper_problem();
        let warm = TilingProblem {
            wram_hit_share: 1.0,
            ..cold
        };
        let lookups_per_dpu = 64.0 * 100.0 / 8.0;
        let ns = |cycles: f64| cycles * 1e9 / cost.clock_hz as f64;
        let saved = cold.tiling_for_nc(8, &cost).unwrap().est_cost_ns
            - warm.tiling_for_nc(8, &cost).unwrap().est_cost_ns;
        assert!(
            (saved - lookups_per_dpu * ns(36.0 - 32.0)).abs() < 1e-6,
            "{saved}"
        );
        let half = TilingProblem {
            wram_hit_share: 0.5,
            ..cold
        };
        let mid = half.tiling_for_nc(8, &cost).unwrap().est_cost_ns;
        assert!(
            (cold.tiling_for_nc(8, &cost).unwrap().est_cost_ns - mid - saved / 2.0).abs() < 1e-6
        );
    }

    #[test]
    fn capacity_bound_rejects_huge_tiles() {
        let p = TilingProblem {
            rows: 200_000_000,
            cols: 32,
            dpus: 32,
            batch_size: 64,
            avg_reduction: 50.0,
            emt_capacity_bytes: 48 << 20,
            tasklets: 14,
            wram_hit_share: 0.0,
        };
        // 200M rows / 2 row parts = 100M rows * 2 cols = 2e8 > 1.6e7.
        assert!(p.tiling_for_nc(2, &CostModel::default()).is_err());
    }

    #[test]
    fn search_fails_when_nothing_feasible() {
        let p = TilingProblem {
            rows: 1_000_000_000,
            cols: 32,
            dpus: 16,
            batch_size: 64,
            avg_reduction: 50.0,
            emt_capacity_bytes: 48 << 20,
            tasklets: 14,
            wram_hit_share: 0.0,
        };
        assert!(matches!(
            p.search(&CostModel::default()),
            Err(CoreError::NoFeasibleTiling { .. })
        ));
    }

    #[test]
    fn high_reduction_prefers_more_row_parts() {
        // With very high reduction, per-DPU lookup traffic dominates, so
        // the optimizer should favor large N_c (more row partitions).
        let mut p = paper_problem();
        p.avg_reduction = 400.0;
        let cost = CostModel::default();
        let best = p.search(&cost).unwrap();
        assert!(best.n_c >= 4, "expected n_c >= 4, got {}", best.n_c);
    }
}
