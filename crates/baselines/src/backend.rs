//! The common inference-backend interface all four systems implement.

use dlrm_model::QueryBatch;
use updlrm_core::{CoreError, EmbeddingBreakdown};

/// Per-batch latency report common to every backend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyReport {
    /// Embedding-layer time (lookup + pooling + any device transfer the
    /// embedding path needs), nanoseconds.
    pub embedding_ns: f64,
    /// Dense-layer (bottom + top MLP + interaction) time, nanoseconds.
    pub dense_ns: f64,
    /// Extra device-transfer/launch time not attributable to either
    /// layer (e.g. PCIe for hybrid backends), nanoseconds.
    pub transfer_ns: f64,
    /// Detailed stage breakdown when the backend runs on the PIM array.
    pub pim: Option<EmbeddingBreakdown>,
}

impl LatencyReport {
    /// End-to-end inference time for the batch.
    pub fn total_ns(&self) -> f64 {
        self.embedding_ns + self.dense_ns + self.transfer_ns
    }

    /// Accumulates another batch's report.
    pub fn accumulate(&mut self, other: &LatencyReport) {
        self.embedding_ns += other.embedding_ns;
        self.dense_ns += other.dense_ns;
        self.transfer_ns += other.transfer_ns;
        match (&mut self.pim, &other.pim) {
            (Some(a), Some(b)) => a.accumulate(b),
            (None, Some(b)) => self.pim = Some(*b),
            _ => {}
        }
    }
}

/// A DLRM inference system: functional forward pass plus a latency
/// model of the hardware it represents.
///
/// Implementations must be *functionally equivalent*: for the same
/// batch, every backend returns the same CTR outputs (bit-exact for
/// integer-valued tables), differing only in modeled latency.
pub trait InferenceBackend {
    /// Short display name (paper's legend labels).
    fn name(&self) -> &'static str;

    /// Runs one batch, returning CTR probabilities and the latency
    /// report.
    ///
    /// # Errors
    ///
    /// Malformed batches, out-of-range indices, or simulator faults.
    fn run_batch(&mut self, batch: &QueryBatch) -> Result<(Vec<f32>, LatencyReport), CoreError>;

    /// A telemetry snapshot, when this backend records fleet metrics.
    /// Only the PIM-backed UpDLRM backend does; the CPU/GPU baselines
    /// return `None`.
    fn metrics_snapshot(&self) -> Option<updlrm_core::Snapshot> {
        None
    }

    /// What the backend keeps resident in its DPUs' WRAM; `None` for
    /// the CPU/GPU baselines, which have no DPUs.
    fn residency(&self) -> Option<updlrm_core::ResidencyReport> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_totals_and_accumulates() {
        let mut a = LatencyReport {
            embedding_ns: 1.0,
            dense_ns: 2.0,
            transfer_ns: 3.0,
            pim: None,
        };
        assert_eq!(a.total_ns(), 6.0);
        let b = LatencyReport {
            embedding_ns: 10.0,
            dense_ns: 20.0,
            transfer_ns: 30.0,
            pim: None,
        };
        a.accumulate(&b);
        assert_eq!(a.total_ns(), 66.0);
    }

    #[test]
    fn backend_trait_is_object_safe() {
        fn _takes(_: &mut dyn InferenceBackend) {}
    }
}
