//! The crate-wide error type, unifying model and ledger failures.

use std::error::Error;
use std::fmt;

use dagfl_nn::NnError;
use dagfl_tangle::{TangleError, TxId};

/// Errors produced by the Specializing-DAG simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A model operation failed.
    Nn(NnError),
    /// A tangle operation failed.
    Tangle(TangleError),
    /// The configuration is inconsistent with the dataset.
    Config(String),
    /// A single configuration field failed validation.
    InvalidField {
        /// Dotted path of the offending field (e.g. `delay.slow_fraction`).
        field: &'static str,
        /// The `[execution]` key a scenario file spells the field as,
        /// for a field of a core key list (`slow_fraction`).
        key: Option<&'static str>,
        /// The rejected value, formatted for display.
        value: String,
        /// Human-readable constraint the value violated.
        constraint: &'static str,
    },
    /// A networked-transport operation failed (socket or wire format).
    Network(crate::WireError),
    /// The weights of a transaction were read after the simulator
    /// retired them; no walk can reach such a transaction.
    RetiredPayload(TxId),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Nn(e) => write!(f, "model error: {e}"),
            CoreError::Tangle(e) => write!(f, "tangle error: {e}"),
            CoreError::Config(msg) => write!(f, "configuration error: {msg}"),
            CoreError::InvalidField {
                field,
                value,
                constraint,
                ..
            } => {
                write!(f, "invalid value `{value}` for `{field}`: {constraint}")
            }
            CoreError::Network(e) => write!(f, "network error: {e}"),
            CoreError::RetiredPayload(id) => {
                write!(f, "the payload of {id} was retired: no walk reaches it")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Nn(e) => Some(e),
            CoreError::Tangle(e) => Some(e),
            CoreError::Network(e) => Some(e),
            CoreError::Config(_)
            | CoreError::InvalidField { .. }
            | CoreError::RetiredPayload(_) => None,
        }
    }
}

impl CoreError {
    /// Shorthand for an [`CoreError::InvalidField`] validation error.
    pub(crate) fn invalid_field(
        field: &'static str,
        value: impl fmt::Display,
        constraint: &'static str,
    ) -> Self {
        CoreError::InvalidField {
            field,
            key: None,
            value: value.to_string(),
            constraint,
        }
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<TangleError> for CoreError {
    fn from(e: TangleError) -> Self {
        CoreError::Tangle(e)
    }
}

impl From<crate::WireError> for CoreError {
    fn from(e: crate::WireError) -> Self {
        CoreError::Network(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_sources() {
        let e: CoreError = NnError::ParameterCount {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(Error::source(&e).is_some());
        let e: CoreError = TangleError::MissingParents.into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&CoreError::Config("bad".into())).is_none());
    }

    #[test]
    fn display_is_informative() {
        let e = CoreError::Config("clients_per_round exceeds clients".into());
        assert!(e.to_string().contains("clients_per_round"));
    }

    #[test]
    fn invalid_field_names_field_value_and_constraint() {
        let e = CoreError::invalid_field("delay.jitter", -0.5, "must be non-negative and finite");
        let msg = e.to_string();
        assert!(msg.contains("delay.jitter"), "{msg}");
        assert!(msg.contains("-0.5"), "{msg}");
        assert!(msg.contains("non-negative"), "{msg}");
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
