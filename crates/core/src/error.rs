//! The unified error type of the prediction pipeline.
//!
//! Training touches two fallible substrates — the learning crate (model
//! fitting) and the engine (query execution while collecting data) — and
//! has failure modes of its own. [`QppError`] wraps all of them so the
//! facade can expose a single `Result` surface and `?`-propagation works
//! across crate boundaries.

use engine::faults::ExecError;
use ml::MlError;

/// Everything that can go wrong across the QPP pipeline.
///
/// Marked `#[non_exhaustive]`: downstream crates must keep a wildcard arm
/// when matching, so new failure modes (like serving-layer rejections) can
/// be added without a breaking release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QppError {
    /// The learning substrate failed (model fitting or validation).
    Ml(MlError),
    /// An execution failed while collecting training data.
    Exec(ExecError),
    /// No usable training data survived collection.
    NoTrainingData,
    /// A materialized model snapshot failed validation at load time
    /// (corrupted file, checksum mismatch, unsupported format version,
    /// non-finite weights, or mismatched feature arity). The message
    /// names the failed gate.
    InvalidSnapshot(String),
    /// A model-registry file-system operation failed (the message carries
    /// the rendered `std::io::Error`, which is neither `Clone` nor
    /// `PartialEq` and so cannot be stored directly).
    Io(String),
    /// The prediction service refused the request at admission: its
    /// bounded queue (or rate limiter) is saturated and accepting the
    /// request would only grow latency unboundedly. Clients should back
    /// off and retry; the request was never queued.
    Overloaded {
        /// Serving queue depth observed at the rejection.
        queue_depth: usize,
    },
    /// A specific tenant exhausted its own admission budget (token bucket
    /// or queue-depth quota) in the multi-tenant server. Unlike
    /// [`QppError::Overloaded`], this is a bulkhead rejection: only the
    /// named tenant is shed, and other tenants' budgets are unaffected.
    TenantOverloaded {
        /// The tenant whose budget rejected the request.
        tenant: String,
    },
    /// The request's deadline expired before any prediction tier — even
    /// the constant training prior — could answer within the remaining
    /// budget.
    DeadlineExceeded {
        /// The total budget the request arrived with, in seconds.
        budget_secs: f64,
    },
    /// An internal invariant was violated (the message names it).
    Internal(&'static str),
}

impl QppError {
    /// The stable `QPPWIRE-v2` error code of this variant.
    ///
    /// The networked front door (`qpp-serve`'s codec) maps every error it
    /// returns onto a typed wire frame carrying this code; the numbering
    /// lives here, next to the enum, so adding a variant forces the wire
    /// contract to be extended in the same change. Codes are grouped by
    /// substrate — `0x01xx` learning, `0x02xx` execution, `0x03xx`
    /// pipeline, `0x04xx` serving/admission — and once published a code
    /// is never reused for a different meaning.
    pub fn wire_code(&self) -> u16 {
        match self {
            QppError::Ml(MlError::ShapeMismatch { .. }) => 0x0101,
            QppError::Ml(MlError::EmptyDataset) => 0x0102,
            QppError::Ml(MlError::NotPositiveDefinite) => 0x0103,
            QppError::Ml(MlError::InvalidParameter(_)) => 0x0104,
            QppError::Ml(MlError::NonFiniteData) => 0x0105,
            QppError::Ml(MlError::DidNotConverge { .. }) => 0x0106,
            QppError::Exec(ExecError::Aborted { .. }) => 0x0201,
            QppError::Exec(ExecError::Timeout { .. }) => 0x0202,
            QppError::NoTrainingData => 0x0301,
            QppError::InvalidSnapshot(_) => 0x0302,
            QppError::Io(_) => 0x0303,
            QppError::Internal(_) => 0x0304,
            QppError::Overloaded { .. } => 0x0401,
            QppError::TenantOverloaded { .. } => 0x0402,
            QppError::DeadlineExceeded { .. } => 0x0403,
        }
    }
}

impl std::fmt::Display for QppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QppError::Ml(e) => write!(f, "model training failed: {e}"),
            QppError::Exec(e) => write!(f, "execution failed: {e}"),
            QppError::NoTrainingData => write!(f, "no usable training data"),
            QppError::InvalidSnapshot(reason) => {
                write!(f, "invalid model snapshot: {reason}")
            }
            QppError::Io(msg) => write!(f, "registry I/O failed: {msg}"),
            QppError::Overloaded { queue_depth } => write!(
                f,
                "prediction service overloaded (queue depth {queue_depth}); request shed at admission"
            ),
            QppError::TenantOverloaded { tenant } => write!(
                f,
                "tenant `{tenant}` over its admission budget; request shed at the bulkhead"
            ),
            QppError::DeadlineExceeded { budget_secs } => write!(
                f,
                "request deadline exceeded (budget was {budget_secs:.3} s)"
            ),
            QppError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for QppError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QppError::Ml(e) => Some(e),
            QppError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MlError> for QppError {
    fn from(e: MlError) -> Self {
        QppError::Ml(e)
    }
}

impl From<ExecError> for QppError {
    fn from(e: ExecError) -> Self {
        QppError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn wraps_and_displays_both_substrates() {
        let ml: QppError = MlError::EmptyDataset.into();
        assert!(ml.to_string().contains("empty"));
        assert!(ml.source().is_some());
        let exec: QppError = ExecError::Aborted { progress: 0.2 }.into();
        assert!(exec.to_string().contains("aborted"));
        assert!(exec.source().is_some());
        assert!(QppError::NoTrainingData.source().is_none());
        let snap = QppError::InvalidSnapshot("checksum mismatch".to_string());
        assert!(snap.to_string().contains("checksum mismatch"));
        assert!(snap.source().is_none());
    }

    #[test]
    fn serving_errors_display_and_compare() {
        let over = QppError::Overloaded { queue_depth: 128 };
        assert!(over.to_string().contains("overloaded"));
        assert!(over.to_string().contains("128"));
        assert_eq!(over, QppError::Overloaded { queue_depth: 128 });
        assert!(over.source().is_none());
        let late = QppError::DeadlineExceeded { budget_secs: 0.25 };
        assert!(late.to_string().contains("deadline"));
        assert!(late.to_string().contains("0.250"));
        assert_eq!(late.clone(), late);
    }

    #[test]
    fn tenant_overload_displays_and_compares() {
        let shed = QppError::TenantOverloaded {
            tenant: "analytics".to_string(),
        };
        assert!(shed.to_string().contains("tenant `analytics`"));
        assert!(shed.to_string().contains("bulkhead"));
        assert!(shed.source().is_none());
        assert_eq!(
            shed,
            QppError::TenantOverloaded {
                tenant: "analytics".to_string()
            }
        );
        assert_ne!(
            shed,
            QppError::TenantOverloaded {
                tenant: "etl".to_string()
            }
        );
        assert_eq!(shed.clone(), shed);
    }
}
