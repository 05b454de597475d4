use std::fmt;

use sfi_nn::NnError;

/// Error type for fault-injection operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultSimError {
    /// An inference failure during a campaign.
    Nn(NnError),
    /// A fault referenced a layer, weight, or bit that does not exist in
    /// the target model.
    InvalidFault {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A subpopulation index was out of range.
    IndexOutOfRange {
        /// The offending index.
        index: u64,
        /// The subpopulation size.
        size: u64,
    },
    /// The campaign was given no evaluation images.
    EmptyEvalSet,
    /// The golden reference was built for a different evaluation set: its
    /// image count differs from the dataset's.
    EvalSetMismatch {
        /// Images in the golden reference.
        golden: usize,
        /// Images in the evaluation dataset.
        data: usize,
    },
    /// The golden reference was built from other weights than the model
    /// the campaign injects into: its predictions, activation caches and
    /// golden weight panels belong to those weights.
    ModelMismatch {
        /// [`ParameterStore::digest`](sfi_nn::ParameterStore::digest) of the
        /// weights the golden reference was built from.
        golden: u64,
        /// Digest of the campaign model's weights.
        model: u64,
    },
    /// One or more pool workers died without reporting their claimed
    /// faults (a non-unwinding death; panics are isolated and retried).
    WorkerLost {
        /// Faults whose reports never arrived.
        missing: u64,
    },
    /// Every pool worker has died; the campaign cannot make progress.
    WorkerPoolExhausted,
    /// Internal accounting failure: a fault slot was never filled even
    /// though every worker report was consumed.
    MissingResult {
        /// The unfilled fault index.
        index: usize,
    },
    /// The campaign was cooperatively cancelled via a
    /// [`CancelToken`](crate::executor::CancelToken); every fault classified
    /// before the stop was reported through the run's hooks.
    Cancelled {
        /// Faults classified before the cancellation took effect.
        completed: u64,
    },
    /// A checkpoint journal could not be written, read, or parsed.
    Journal {
        /// Human-readable description of the failure.
        reason: String,
    },
    /// A checkpoint journal belongs to a different plan (model, seed,
    /// scheme, or campaign options differ).
    CheckpointMismatch {
        /// Human-readable description of the mismatch.
        reason: String,
    },
}

impl fmt::Display for FaultSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSimError::Nn(e) => write!(f, "inference failed: {e}"),
            FaultSimError::InvalidFault { reason } => write!(f, "invalid fault: {reason}"),
            FaultSimError::IndexOutOfRange { index, size } => {
                write!(f, "fault index {index} out of range for subpopulation of size {size}")
            }
            FaultSimError::EmptyEvalSet => write!(f, "evaluation set must not be empty"),
            FaultSimError::EvalSetMismatch { golden, data } => write!(
                f,
                "golden reference covers {golden} image(s) but the evaluation set has {data}"
            ),
            FaultSimError::ModelMismatch { golden, model } => write!(
                f,
                "golden reference was built from other weights (digest {golden:#018x}) than \
                 the campaign model (digest {model:#018x})"
            ),
            FaultSimError::WorkerLost { missing } => {
                write!(f, "campaign workers died with {missing} fault report(s) outstanding")
            }
            FaultSimError::WorkerPoolExhausted => {
                write!(f, "every campaign worker has died; no worker left to classify faults")
            }
            FaultSimError::MissingResult { index } => {
                write!(f, "fault slot {index} was never filled by any worker")
            }
            FaultSimError::Cancelled { completed } => {
                write!(f, "campaign cancelled after {completed} classified fault(s)")
            }
            FaultSimError::Journal { reason } => write!(f, "journal error: {reason}"),
            FaultSimError::CheckpointMismatch { reason } => {
                write!(f, "checkpoint mismatch: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultSimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultSimError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for FaultSimError {
    fn from(e: NnError) -> Self {
        FaultSimError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultSimError>();
    }

    #[test]
    fn from_nn_error_preserves_source() {
        use std::error::Error;
        let e: FaultSimError = NnError::InvalidGraph { reason: "x".into() }.into();
        assert!(e.source().is_some());
    }
}
