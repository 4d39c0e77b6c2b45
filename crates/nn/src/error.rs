use std::error::Error;
use std::fmt;

use dagfl_tensor::ShapeError;

/// Errors produced by model construction, training and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// An underlying tensor operation received incompatible shapes.
    Shape(ShapeError),
    /// A parameter vector had the wrong length for the target model.
    ParameterCount {
        /// Number of parameters the model expects.
        expected: usize,
        /// Number of parameters supplied.
        actual: usize,
    },
    /// The batch matrix and label slice disagree on the sample count.
    BatchMismatch {
        /// Rows in the input matrix.
        inputs: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// A label was out of range for the model's output dimension.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes the model predicts.
        classes: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Shape(e) => write!(f, "tensor shape error: {e}"),
            NnError::ParameterCount { expected, actual } => write!(
                f,
                "parameter vector length mismatch: expected {expected}, got {actual}"
            ),
            NnError::BatchMismatch { inputs, labels } => {
                write!(f, "batch mismatch: {inputs} input rows but {labels} labels")
            }
            NnError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for NnError {
    fn from(e: ShapeError) -> Self {
        NnError::Shape(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NnError::ParameterCount {
            expected: 10,
            actual: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("5"));
    }

    #[test]
    fn shape_error_converts_and_sources() {
        let inner = ShapeError::new("matmul", (1, 2), (3, 4));
        let e: NnError = inner.clone().into();
        assert_eq!(e, NnError::Shape(inner));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
