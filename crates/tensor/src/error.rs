use std::error::Error;
use std::fmt;

/// Error returned when the shapes of two operands are incompatible.
///
/// Carries the operation name and both shapes so that failures deep inside a
/// training loop point directly at the offending call site.
///
/// # Example
///
/// ```
/// use dagfl_tensor::{MatmulBackend, Matrix, NaiveBackend};
///
/// let a = Matrix::zeros(2, 3);
/// let b = Matrix::zeros(2, 3);
/// let err = NaiveBackend.matmul(&a, &b).unwrap_err();
/// assert!(err.to_string().contains("matmul"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    op: &'static str,
    lhs: (usize, usize),
    rhs: (usize, usize),
}

impl ShapeError {
    /// Creates a new shape error for operation `op` with the two operand
    /// shapes given as `(rows, cols)` pairs.
    pub fn new(op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) -> Self {
        Self { op, lhs, rhs }
    }

    /// The name of the operation that failed.
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// Shape of the left-hand operand as `(rows, cols)`.
    pub fn lhs(&self) -> (usize, usize) {
        self.lhs
    }

    /// Shape of the right-hand operand as `(rows, cols)`.
    pub fn rhs(&self) -> (usize, usize) {
        self.rhs
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "incompatible shapes for {}: {}x{} vs {}x{}",
            self.op, self.lhs.0, self.lhs.1, self.rhs.0, self.rhs.1
        )
    }
}

impl Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_operation_and_shapes() {
        let err = ShapeError::new("matmul", (2, 3), (4, 5));
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }

    #[test]
    fn accessors_round_trip() {
        let err = ShapeError::new("add", (1, 2), (3, 4));
        assert_eq!(err.op(), "add");
        assert_eq!(err.lhs(), (1, 2));
        assert_eq!(err.rhs(), (3, 4));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShapeError>();
    }
}
