//! CPU memory-hierarchy cost model.
//!
//! The paper's host is an Intel Xeon Silver 4110 with 128 GB of DRAM
//! (Table 2). Embedding gathers on such a CPU are dominated by LLC
//! behaviour: the hottest rows stay resident while the long tail pays a
//! DRAM access. This model is *trace-driven* — it classifies every
//! access of the real batch against a frequency-derived hot set
//! (approximating steady-state LRU), rather than assuming a flat rate.

use workloads::FreqProfile;

/// Tunable CPU timing model.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CpuMemoryModel {
    /// Last-level cache capacity in bytes (Xeon Silver 4110: 11 MB).
    pub llc_bytes: usize,
    /// Effective nanoseconds per LLC-resident row gather.
    pub llc_hit_ns: f64,
    /// Effective nanoseconds per DRAM row gather (with the overlap an
    /// out-of-order core extracts from independent lookups).
    pub dram_miss_ns: f64,
    /// Effective CPU MLP throughput in flops per nanosecond
    /// (multiply-accumulates count as 2 flops).
    pub mlp_flops_per_ns: f64,
    /// Nanoseconds per scalar add when pooling embedding vectors.
    pub pool_add_ns: f64,
}

impl Default for CpuMemoryModel {
    fn default() -> Self {
        CpuMemoryModel {
            llc_bytes: 11 << 20,
            llc_hit_ns: 4.0,
            dram_miss_ns: 18.0,
            mlp_flops_per_ns: 50.0,
            pool_add_ns: 0.05,
        }
    }
}

impl CpuMemoryModel {
    /// Steady-state hot set for one table: the most frequent items
    /// whose rows fit in this table's share of the LLC.
    ///
    /// Returns a per-item flag vector (`true` = LLC-resident).
    pub fn hot_flags(&self, profile: &FreqProfile, row_bytes: usize, tables: usize) -> Vec<bool> {
        let share = self.llc_bytes / tables.max(1);
        let budget_rows = share / row_bytes.max(1);
        let mut flags = vec![false; profile.num_items()];
        for item in profile.hottest(budget_rows) {
            flags[item as usize] = true;
        }
        flags
    }

    /// Gather time for a set of accesses split into LLC hits and misses.
    pub fn gather_ns(&self, hits: u64, misses: u64) -> f64 {
        hits as f64 * self.llc_hit_ns + misses as f64 * self.dram_miss_ns
    }

    /// Pooling (sum-reduction) time for `adds` scalar additions.
    pub fn pool_ns(&self, adds: u64) -> f64 {
        adds as f64 * self.pool_add_ns
    }

    /// Dense-layer time for `flops` floating point operations.
    pub fn mlp_ns(&self, flops: u64) -> f64 {
        flops as f64 / self.mlp_flops_per_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_flags_prefer_frequent_items() {
        let mut p = FreqProfile::new(100);
        for _ in 0..50 {
            p.record(42);
        }
        p.record(7);
        let m = CpuMemoryModel {
            llc_bytes: 128 * 2,
            ..CpuMemoryModel::default()
        };
        // share = 256 bytes / 1 table, 128-byte rows -> 2 hot rows.
        let flags = m.hot_flags(&p, 128, 1);
        assert!(flags[42]);
        assert!(flags[7]);
        assert_eq!(flags.iter().filter(|&&f| f).count(), 2);
    }

    #[test]
    fn hot_set_shrinks_with_more_tables() {
        let mut p = FreqProfile::new(64);
        for i in 0..64 {
            p.record(i);
        }
        let m = CpuMemoryModel {
            llc_bytes: 64 * 128,
            ..CpuMemoryModel::default()
        };
        let one = m.hot_flags(&p, 128, 1).iter().filter(|&&f| f).count();
        let eight = m.hot_flags(&p, 128, 8).iter().filter(|&&f| f).count();
        assert_eq!(one, 64);
        assert_eq!(eight, 8);
    }

    #[test]
    fn misses_cost_more_than_hits() {
        let m = CpuMemoryModel::default();
        assert!(m.gather_ns(0, 100) > m.gather_ns(100, 0));
        assert_eq!(m.gather_ns(0, 0), 0.0);
    }

    #[test]
    fn mlp_time_scales_with_flops() {
        let m = CpuMemoryModel::default();
        assert!((m.mlp_ns(1000) - 2.0 * m.mlp_ns(500)).abs() < 1e-9);
    }
}
