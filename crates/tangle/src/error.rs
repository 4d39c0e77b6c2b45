//! Errors of the ledger operations (unknown ids, missing parents,
//! invalid walk starts).

use std::error::Error;
use std::fmt;

use crate::TxId;

/// Errors produced by tangle operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TangleError {
    /// A referenced parent transaction does not exist in this tangle.
    UnknownParent(TxId),
    /// A referenced transaction does not exist in this tangle.
    UnknownTransaction(TxId),
    /// A non-genesis transaction was attached without parents.
    MissingParents,
    /// A random walk was asked to start from a transaction not in the
    /// tangle.
    InvalidWalkStart(TxId),
}

impl fmt::Display for TangleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TangleError::UnknownParent(id) => write!(f, "unknown parent transaction {id}"),
            TangleError::UnknownTransaction(id) => write!(f, "unknown transaction {id}"),
            TangleError::MissingParents => {
                write!(f, "transaction must approve at least one parent")
            }
            TangleError::InvalidWalkStart(id) => {
                write!(f, "random walk start {id} is not in the tangle")
            }
        }
    }
}

impl Error for TangleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_id() {
        let e = TangleError::UnknownParent(TxId(9));
        assert!(e.to_string().contains("tx9"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TangleError>();
    }
}
