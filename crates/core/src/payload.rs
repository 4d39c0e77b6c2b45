//! The transaction payload: immutable model weights.

use std::sync::Arc;

use dagfl_tangle::{ShardedTangle, Tangle};

/// A published model update: the full flat parameter vector, shared
/// immutably between the tangle and any evaluation caches.
#[derive(Debug, Clone)]
pub struct ModelPayload {
    params: Arc<Vec<f32>>,
}

impl ModelPayload {
    /// Wraps a parameter vector.
    pub fn new(params: Vec<f32>) -> Self {
        Self {
            params: Arc::new(params),
        }
    }

    /// Wraps an already-shared parameter vector without copying — the
    /// payload and every other holder of the `Arc` stay one allocation.
    pub fn from_shared(params: Arc<Vec<f32>>) -> Self {
        Self { params }
    }

    /// The model weights.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// A shared handle to the weights (no copy).
    pub fn share(&self) -> Arc<Vec<f32>> {
        Arc::clone(&self.params)
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the payload holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }
}

impl From<Vec<f32>> for ModelPayload {
    fn from(params: Vec<f32>) -> Self {
        Self::new(params)
    }
}

/// A tangle of model updates.
pub type ModelTangle = Tangle<ModelPayload>;

/// The tangle of model updates both simulators run on: transaction
/// slots are read with no lock, structure under one lock, and it is
/// written only in the simulators' serial phases.
pub type ShardedModelTangle = ShardedTangle<ModelPayload>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_shares_without_copying() {
        let p = ModelPayload::new(vec![1.0, 2.0]);
        let a = p.share();
        let b = p.share();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(p.params(), &[1.0, 2.0]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn from_vec_works() {
        let p: ModelPayload = vec![0.5].into();
        assert_eq!(p.params(), &[0.5]);
    }

    #[test]
    fn model_tangle_stores_payloads() {
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(vec![0.0; 4]));
        let g = tangle.genesis();
        let id = tangle
            .attach(ModelPayload::new(vec![1.0; 4]), &[g])
            .unwrap();
        assert_eq!(tangle.get(id).unwrap().payload().params(), &[1.0; 4]);
    }
}
