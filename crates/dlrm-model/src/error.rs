//! Error type for DLRM model construction and inference.

use std::fmt;

/// Errors produced while building or running a DLRM model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// Matrix dimensions incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Left-hand shape (rows, cols).
        lhs: (usize, usize),
        /// Right-hand shape (rows, cols).
        rhs: (usize, usize),
    },
    /// An embedding index was outside the table.
    IndexOutOfRange {
        /// Offending index.
        index: u64,
        /// Number of rows in the table.
        rows: usize,
    },
    /// A query batch's offsets were not monotonically non-decreasing or
    /// exceeded the index buffer.
    MalformedOffsets(String),
    /// Invalid model configuration.
    InvalidConfig(String),
    /// The number of sparse feature groups in a batch did not match the
    /// model's embedding table count.
    TableCountMismatch {
        /// Tables in the model.
        model: usize,
        /// Sparse groups in the batch.
        batch: usize,
    },
    /// A backend handed the dense side a pooled-embedding matrix of the
    /// wrong shape.
    PooledShapeMismatch {
        /// Index of the table the matrix belongs to.
        table: usize,
        /// Its shape (rows, cols).
        got: (usize, usize),
        /// `(batch, embedding_dim)`.
        expected: (usize, usize),
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: ({}x{}) vs ({}x{})",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            ModelError::IndexOutOfRange { index, rows } => {
                write!(
                    f,
                    "embedding index {index} out of range for table with {rows} rows"
                )
            }
            ModelError::MalformedOffsets(msg) => write!(f, "malformed offsets: {msg}"),
            ModelError::InvalidConfig(msg) => write!(f, "invalid model configuration: {msg}"),
            ModelError::TableCountMismatch { model, batch } => write!(
                f,
                "batch has {batch} sparse feature groups but model has {model} embedding tables"
            ),
            ModelError::PooledShapeMismatch {
                table,
                got,
                expected,
            } => write!(
                f,
                "pooled embeddings of table {table} are ({}x{}), expected ({}x{})",
                got.0, got.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// Convenience alias for model results.
pub type Result<T> = std::result::Result<T, ModelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = ModelError::IndexOutOfRange {
            index: 99,
            rows: 10,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn is_send_sync_error() {
        fn check<T: std::error::Error + Send + Sync>() {}
        check::<ModelError>();
    }
}
