//! The FedProx synthetic(α, β) benchmark (Li et al., 2020), reimplemented
//! faithfully.
//!
//! Each client `k` solves a 10-class logistic regression over 60 features:
//!
//! * model heterogeneity: `W_k, b_k ~ N(u_k, 1)` with `u_k ~ N(0, α)`,
//! * data heterogeneity: features `x ~ N(v_k, Σ)` with
//!   `(v_k)_j ~ N(B_k, 1)`, `B_k ~ N(0, β)` and `Σ_jj = j^{-1.2}`,
//! * labels: `y = argmax(softmax(W_k x + b_k))`.
//!
//! The paper compares the Specializing DAG against FedAvg and FedProx on
//! synthetic(0.5, 0.5) with 30 clients (Figures 10–11).

use dagfl_tensor::{argmax, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::rand_util::sample_normal;
use crate::{ClientDataset, FederatedDataset, MIN_SAMPLES};

/// Feature dimension of the synthetic task.
pub const FEATURE_DIM: usize = 60;
/// Number of classes.
pub const NUM_CLASSES: usize = 10;
/// Inter-client *model* heterogeneity (α in Li et al.): the variance of
/// each client's model mean `u_k`.
const ALPHA: f64 = 0.5;
/// Inter-client *data* heterogeneity (β in Li et al.): the variance of
/// each client's feature offset `B_k`.
const BETA: f64 = 0.5;

/// Configuration for the FedProx synthetic generator.
#[derive(Debug, Clone, Copy)]
pub struct FedProxConfig {
    /// Number of clients (the paper's comparison uses 30).
    pub num_clients: usize,
    /// Minimum samples per client.
    pub min_samples: usize,
    /// Maximum samples per client (counts are drawn log-normally between
    /// the bounds, mimicking the power-law sizes of the original).
    pub max_samples: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FedProxConfig {
    fn default() -> Self {
        Self {
            num_clients: 30,
            min_samples: 50,
            max_samples: 300,
            seed: 42,
        }
    }
}

/// Generates the synthetic(0.5, 0.5) dataset.
///
/// All clients share ground-truth cluster 0 — the benchmark measures
/// continuous heterogeneity rather than discrete clusters.
///
/// # Panics
///
/// Panics if `num_clients == 0` or the sample bounds are invalid.
pub fn fedprox_synthetic(cfg: &FedProxConfig) -> FederatedDataset {
    assert!(cfg.num_clients > 0, "need at least one client");
    assert!(
        cfg.min_samples >= MIN_SAMPLES && cfg.min_samples <= cfg.max_samples,
        "invalid sample bounds"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Diagonal feature covariance Σ_jj = j^{-1.2}.
    let sigma: Vec<f64> = (1..=FEATURE_DIM).map(|j| (j as f64).powf(-1.2)).collect();
    let mut clients = Vec::with_capacity(cfg.num_clients);
    for id in 0..cfg.num_clients {
        // Per-client true model.
        let u_k = sample_normal(&mut rng, 0.0, ALPHA.sqrt());
        let w: Vec<f64> = (0..NUM_CLASSES * FEATURE_DIM)
            .map(|_| sample_normal(&mut rng, u_k, 1.0))
            .collect();
        let b: Vec<f64> = (0..NUM_CLASSES)
            .map(|_| sample_normal(&mut rng, u_k, 1.0))
            .collect();
        // Per-client feature distribution.
        let b_k = sample_normal(&mut rng, 0.0, BETA.sqrt());
        let v: Vec<f64> = (0..FEATURE_DIM)
            .map(|_| sample_normal(&mut rng, b_k, 1.0))
            .collect();
        // Log-normal-ish client size within the bounds.
        let span = (cfg.max_samples - cfg.min_samples) as f64;
        let raw = sample_normal(&mut rng, 0.0, 1.0).exp();
        let n = cfg.min_samples + ((raw / (raw + 1.0)) * span).round() as usize;
        let mut x = Matrix::zeros(n, FEATURE_DIM);
        let mut y = Vec::with_capacity(n);
        for s in 0..n {
            let row = x.row_mut(s);
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = sample_normal(&mut rng, v[j], sigma[j].sqrt()) as f32;
            }
            // y = argmax(W x + b)
            let mut logits = [0.0f32; NUM_CLASSES];
            for (c, logit) in logits.iter_mut().enumerate() {
                let mut acc = b[c];
                for j in 0..FEATURE_DIM {
                    acc += w[c * FEATURE_DIM + j] * row[j] as f64;
                }
                *logit = acc as f32;
            }
            y.push(argmax(&logits));
        }
        clients.push(ClientDataset::from_split(id as u32, 0, x, y, 0.1, &mut rng));
    }
    FederatedDataset::new("fedprox-synthetic", NUM_CLASSES, clients)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_benchmark() {
        let ds = fedprox_synthetic(&FedProxConfig {
            num_clients: 5,
            ..FedProxConfig::default()
        });
        assert_eq!(ds.num_classes(), 10);
        assert_eq!(ds.feature_len(), 60);
        assert_eq!(ds.num_clients(), 5);
    }

    #[test]
    fn client_sizes_vary_within_bounds() {
        let cfg = FedProxConfig {
            num_clients: 20,
            ..FedProxConfig::default()
        };
        let ds = fedprox_synthetic(&cfg);
        let sizes: Vec<usize> = ds
            .clients()
            .iter()
            .map(|c| c.num_train() + c.num_test())
            .collect();
        for &s in &sizes {
            assert!((cfg.min_samples..=cfg.max_samples).contains(&s));
        }
        let distinct: std::collections::HashSet<usize> = sizes.iter().copied().collect();
        assert!(distinct.len() > 3, "sizes suspiciously uniform: {sizes:?}");
    }

    #[test]
    fn labels_are_valid() {
        let ds = fedprox_synthetic(&FedProxConfig {
            num_clients: 4,
            ..FedProxConfig::default()
        });
        for client in ds.clients() {
            for &label in client.train_y().iter().chain(client.test_y()) {
                assert!(label < NUM_CLASSES);
            }
        }
    }

    #[test]
    fn clients_have_heterogeneous_label_distributions() {
        let ds = fedprox_synthetic(&FedProxConfig {
            num_clients: 8,
            ..FedProxConfig::default()
        });
        // Compare modal labels across clients; with alpha = beta = 0.5 they
        // should not all coincide.
        let mut modes = Vec::new();
        for client in ds.clients() {
            let mut counts = [0usize; NUM_CLASSES];
            for &label in client.train_y() {
                counts[label] += 1;
            }
            modes.push(argmax(&counts.map(|c| c as f32)));
        }
        let distinct: std::collections::HashSet<usize> = modes.iter().copied().collect();
        assert!(distinct.len() >= 2, "all clients share mode {modes:?}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FedProxConfig::default();
        let a = fedprox_synthetic(&cfg);
        let b = fedprox_synthetic(&cfg);
        assert_eq!(a.clients()[0].train_y(), b.clients()[0].train_y());
    }

    #[test]
    fn logistic_regression_learns_a_client() {
        use dagfl_nn::{Dense, Model, Sequential, SgdConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let ds = fedprox_synthetic(&FedProxConfig {
            num_clients: 1,
            min_samples: 200,
            max_samples: 300,
            ..FedProxConfig::default()
        });
        let client = &ds.clients()[0];
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new(vec![Box::new(Dense::new(
            &mut rng,
            FEATURE_DIM,
            NUM_CLASSES,
        ))]);
        let before = model.evaluate(client.test_x(), client.test_y()).unwrap();
        let opt = SgdConfig::new(0.05);
        let mut batch_rng = StdRng::seed_from_u64(1);
        for _ in 0..40 {
            for (x, y) in client.train_batches(10, 20, &mut batch_rng) {
                model.train_batch(&x, &y, &opt).unwrap();
            }
        }
        let after = model.evaluate(client.test_x(), client.test_y()).unwrap();
        assert!(
            after.accuracy > before.accuracy,
            "no improvement: {} -> {}",
            before.accuracy,
            after.accuracy
        );
    }
}
