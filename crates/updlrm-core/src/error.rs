//! Error type for UpDLRM core operations.

use std::fmt;

/// Errors produced by partitioning, placement and engine execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The underlying PIM simulator rejected an operation.
    Sim(upmem_sim::SimError),
    /// The DLRM substrate rejected an operation.
    Model(dlrm_model::ModelError),
    /// No feasible tiling exists under the paper's constraints
    /// (Eq. 2–3) for the given table and DPU budget.
    NoFeasibleTiling {
        /// Table rows.
        rows: usize,
        /// Table columns (embedding dim).
        cols: usize,
        /// DPUs available for the table.
        dpus: usize,
    },
    /// A partitioner ran out of EMT rows.
    CapacityExceeded {
        /// Table index, attached by the engine; `None` from a bare
        /// partitioner call.
        table: Option<usize>,
        /// The partition over its capacity; `None` when the table as a
        /// whole does not fit (every partition is full).
        partition: Option<usize>,
        /// Rows required.
        required: usize,
        /// Rows available.
        available: usize,
    },
    /// One table's data exceeded the MRAM bytes it may occupy on a DPU:
    /// its region layout, shared by all of its partitions
    /// (`partition: None`), or one partition's reference stream of a
    /// batch.
    TableCapacityExceeded {
        /// Table index.
        table: usize,
        /// The row partition whose reference stream overflowed its
        /// reserve; `None` for the table's region layout.
        partition: Option<usize>,
        /// Bytes required.
        required: usize,
        /// Bytes available.
        available: usize,
    },
    /// Invalid engine or partitioning configuration.
    InvalidConfig(String),
    /// An internal scheduling invariant was violated — a bug in the
    /// event loop or runtime, not a user error. Returned (not just
    /// debug-asserted) so release builds fail loudly instead of
    /// silently continuing with corrupted time accounting.
    Invariant(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "pim simulator: {e}"),
            CoreError::Model(e) => write!(f, "dlrm model: {e}"),
            CoreError::NoFeasibleTiling { rows, cols, dpus } => write!(
                f,
                "no feasible tiling for a {rows}x{cols} table on {dpus} dpus under Eq. 2-3"
            ),
            CoreError::CapacityExceeded {
                table,
                partition,
                required,
                available,
            } => {
                match (table, partition) {
                    (Some(t), Some(p)) => write!(f, "table {t} partition {p}: ")?,
                    (Some(t), None) => write!(f, "table {t}: ")?,
                    (None, Some(p)) => write!(f, "partition {p}: ")?,
                    (None, None) => {}
                }
                write!(
                    f,
                    "{required} EMT rows to place but only {available} rows of capacity"
                )
            }
            CoreError::TableCapacityExceeded {
                table,
                partition: None,
                required,
                available,
            } => write!(
                f,
                "table {table}: MRAM layout needs {required} bytes per DPU but only {available} \
                 available"
            ),
            CoreError::TableCapacityExceeded {
                table,
                partition: Some(p),
                required,
                available,
            } => write!(
                f,
                "table {table} partition {p}: reference stream needs {required} bytes but only \
                 {available} reserved"
            ),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::Invariant(msg) => write!(f, "scheduling invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<upmem_sim::SimError> for CoreError {
    fn from(e: upmem_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<dlrm_model::ModelError> for CoreError {
    fn from(e: dlrm_model::ModelError) -> Self {
        CoreError::Model(e)
    }
}

/// Convenience alias for core results.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_substrate_errors_with_source() {
        let e = CoreError::from(upmem_sim::SimError::EmptyDma);
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("pim simulator"));
    }

    #[test]
    fn display_no_feasible_tiling() {
        let e = CoreError::NoFeasibleTiling {
            rows: 10,
            cols: 32,
            dpus: 4,
        };
        assert!(e.to_string().contains("10x32"));
    }
}
