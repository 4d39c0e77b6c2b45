//! The transaction payload: immutable model weights, retired once no
//! walk can reach them.

use std::sync::Arc;

use dagfl_tangle::{ShardedTangle, Tangle, TangleRead, TxId};

use crate::CoreError;

/// A published model update: the full flat parameter vector, shared
/// immutably between the tangle and any evaluation caches.
///
/// A payload may keep its weights' finished hash ([`crate::weights_hash`]),
/// which [`crate::tangle_digest`] reads in place of rehashing. The
/// rounds simulator builds every payload it attaches with
/// [`ModelPayload::hashed`], and *retires* one once no walk can reach
/// its transaction: the weights are dropped and only the hash is kept.
/// A retired payload reads as empty through [`ModelPayload::params`],
/// [`ModelPayload::share`] and [`ModelPayload::len`], which never
/// panic; the code that needs the weights reads them through
/// [`weights_of`], which fails with [`CoreError::RetiredPayload`].
#[derive(Debug, Clone)]
pub struct ModelPayload {
    /// The weights; `None` once retired.
    weights: Option<Arc<Vec<f32>>>,
    /// The weights' hash, kept from birth or from retirement; always
    /// `Some` once retired.
    hash: Option<u64>,
}

impl ModelPayload {
    /// Wraps a parameter vector.
    pub fn new(params: Vec<f32>) -> Self {
        Self::from_shared(Arc::new(params))
    }

    /// Wraps a parameter vector and keeps its weights hash, computed
    /// now, while the caller has just written the weights.
    pub fn hashed(params: Vec<f32>) -> Self {
        let hash = crate::metrics::weights_hash(&params);
        Self::with_unchecked_hash(params, hash)
    }

    /// Wraps a parameter vector keeping `hash` as its weights hash,
    /// unchecked. A payload whose `hash` is not its weights' is what
    /// the store audit of a scenario run rejects; this builds one.
    #[doc(hidden)]
    pub fn with_unchecked_hash(params: Vec<f32>, hash: u64) -> Self {
        Self {
            weights: Some(Arc::new(params)),
            hash: Some(hash),
        }
    }

    /// Wraps an already-shared parameter vector without copying — the
    /// payload and every other holder of the `Arc` stay one allocation.
    pub fn from_shared(params: Arc<Vec<f32>>) -> Self {
        Self {
            weights: Some(params),
            hash: None,
        }
    }

    /// The model weights; empty once retired.
    pub fn params(&self) -> &[f32] {
        self.live().unwrap_or(&[])
    }

    /// The model weights, or `None` once retired.
    pub fn live(&self) -> Option<&[f32]> {
        self.weights.as_deref().map(Vec::as_slice)
    }

    /// A shared handle to the weights (no copy); empty once retired.
    pub fn share(&self) -> Arc<Vec<f32>> {
        self.weights.clone().unwrap_or_default()
    }

    /// Number of scalar parameters; zero once retired.
    pub fn len(&self) -> usize {
        self.params().len()
    }

    /// Whether the payload holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params().is_empty()
    }

    /// Whether the weights were dropped.
    pub fn is_retired(&self) -> bool {
        self.weights.is_none()
    }

    /// The kept weights hash: `Some` for a payload built
    /// [`ModelPayload::hashed`] and for every retired one.
    pub fn kept_hash(&self) -> Option<u64> {
        self.hash
    }

    /// The content hash of the weights ([`crate::weights_hash`]): the
    /// kept one, else computed.
    pub(crate) fn weights_hash(&self) -> u64 {
        self.hash
            .unwrap_or_else(|| crate::metrics::weights_hash(self.params()))
    }

    /// Drops the weights, keeping `hash`, their weights hash.
    fn retire(&mut self, hash: u64) {
        (self.weights, self.hash) = (None, Some(hash));
    }
}

/// The weights of transaction `id`, for code that computes with them.
///
/// # Errors
///
/// Returns [`CoreError::RetiredPayload`] for a retired payload, never
/// its empty slice, and the tangle's error for an unknown id.
pub fn weights_of<T: TangleRead<ModelPayload>>(tangle: &T, id: TxId) -> Result<&[f32], CoreError> {
    tangle
        .payload_of(id)?
        .live()
        .ok_or(CoreError::RetiredPayload(id))
}

/// Retires the payloads of `ids` in `tangle`: drops their weights,
/// keeping each one's weights hash. A payload that kept its hash (one
/// born [`ModelPayload::hashed`], or already retired) is not rehashed,
/// so a rounds tangle retires with no hashing and no thread.
///
/// # Errors
///
/// Returns the tangle's error for an unknown id; nothing is retired
/// then.
pub fn retire_payloads(tangle: &mut ShardedModelTangle, ids: &[TxId]) -> Result<(), CoreError> {
    let payloads = ids
        .iter()
        .map(|&id| tangle.payload_of(id))
        .collect::<Result<Vec<_>, _>>()?;
    let hashes = crate::metrics::payload_hashes(&payloads);
    for (&id, hash) in ids.iter().zip(hashes) {
        tangle.payload_mut(id)?.retire(hash);
    }
    Ok(())
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
    fn a_retired_payload_reads_empty_and_its_weights_fail() {
        let mut tangle = ShardedModelTangle::new(ModelPayload::new(vec![0.0; 2]));
        let g = tangle.genesis();
        let hash = crate::metrics::weights_hash(&[1.0, 2.0]);
        // One payload hashed at retirement, one born hashed.
        for payload in [
            ModelPayload::new(vec![1.0, 2.0]),
            ModelPayload::hashed(vec![1.0, 2.0]),
        ] {
            let id = tangle.attach(payload, &[g]).unwrap();
            let born = tangle.payload_of(id).unwrap().kept_hash();
            retire_payloads(&mut tangle, &[id]).unwrap();
            let payload = tangle.payload_of(id).unwrap();
            assert!(payload.is_retired());
            assert_eq!((payload.params(), payload.len()), (&[][..], 0));
            assert!(payload.share().is_empty() && payload.is_empty());
            assert_eq!(
                weights_of(&tangle, id).unwrap_err(),
                CoreError::RetiredPayload(id)
            );
            // The kept hash is the dropped weights' hash.
            assert!(born.is_none() || born == Some(hash));
            assert_eq!(
                (payload.kept_hash(), payload.weights_hash()),
                (Some(hash), hash)
            );
        }
        assert_eq!(weights_of(&tangle, g).unwrap(), &[0.0; 2]);
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
