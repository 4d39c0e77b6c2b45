//! Synthetic CIFAR-100-like dataset with Pachinko Allocation client split.
//!
//! CIFAR-100 groups 100 classes into 20 superclasses of 5; the paper uses
//! the superclasses as ground-truth clusters and allocates client data with
//! the Pachinko Allocation Method (PAM) as in TensorFlow Federated
//! (§5.1.3): a root Dirichlet over superclasses and per-superclass
//! Dirichlets over subclasses, drawing samples without replacement.
//!
//! We keep the full hierarchy but replace the images with a Gaussian
//! feature mixture: superclass means are far apart, subclass means orbit
//! their superclass mean. What the experiments measure — fuzzy
//! client-cluster affiliation and the resulting partial specialization
//! (approval pureness ≈ 0.5 in Table 2) — is a property of the allocation,
//! which is reproduced faithfully.

use dagfl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rand_util::{fill_normals_f32, sample_dirichlet};
use crate::{ClientDataset, FederatedDataset, MIN_SAMPLES};

/// Number of fine-grained classes.
pub const NUM_CLASSES: usize = 100;
/// Number of superclasses (the ground-truth clusters).
pub const NUM_SUPERCLASSES: usize = 20;
/// Fine classes per superclass.
pub const CLASSES_PER_SUPERCLASS: usize = 5;
/// Dimension of the synthetic feature vectors.
const FEATURE_DIM: usize = 32;
/// Samples available per fine class in the global pool.
const POOL_PER_CLASS: usize = 60;
/// Samples in the global pool: all clients together draw at most this many.
pub const POOL_SAMPLES: usize = NUM_CLASSES * POOL_PER_CLASS;
/// Root Dirichlet concentration over superclasses (TFF uses 0.1).
const ROOT_ALPHA: f64 = 0.1;
/// Per-superclass Dirichlet concentration over its subclasses (TFF
/// uses 10).
const SUB_ALPHA: f64 = 10.0;
/// Per-feature sample noise; it keeps the task hard (CIFAR-100
/// accuracies are far from ceiling in the paper).
const NOISE_STDDEV: f64 = 1.5;

/// Configuration for the CIFAR-100-like generator.
#[derive(Debug, Clone, Copy)]
pub struct Cifar100Config {
    /// Number of clients (the paper uses 94).
    pub num_clients: usize,
    /// Samples drawn per client (before the 90:10 split).
    pub samples_per_client: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Cifar100Config {
    fn default() -> Self {
        Self {
            num_clients: 94,
            samples_per_client: 50,
            seed: 42,
        }
    }
}

/// The superclass of a fine class.
pub fn superclass_of(class: usize) -> usize {
    class / CLASSES_PER_SUPERCLASS
}

/// Generates the synthetic class hierarchy: per-class mean vectors where
/// subclasses cluster around their superclass mean.
fn class_means(rng: &mut StdRng) -> Vec<Vec<f32>> {
    let mut superclass_means = Vec::with_capacity(NUM_SUPERCLASSES);
    for _ in 0..NUM_SUPERCLASSES {
        let mut mean = vec![0.0f32; FEATURE_DIM];
        fill_normals_f32(rng, 0.0, 3.0, &mut mean);
        superclass_means.push(mean);
    }
    let mut means = Vec::with_capacity(NUM_CLASSES);
    for class in 0..NUM_CLASSES {
        let base = &superclass_means[superclass_of(class)];
        let mut mean = vec![0.0f32; FEATURE_DIM];
        fill_normals_f32(rng, 0.0, 1.0, &mut mean);
        for (m, &b) in mean.iter_mut().zip(base) {
            *m += b;
        }
        means.push(mean);
    }
    means
}

/// Draws `k` indices from `weights` restricted to categories with remaining
/// capacity; returns `None` if everything is exhausted.
fn draw_available<R: Rng>(weights: &[f64], remaining: &[usize], rng: &mut R) -> Option<usize> {
    let total: f64 = weights
        .iter()
        .zip(remaining)
        .filter(|(_, &r)| r > 0)
        .map(|(&w, _)| w)
        .sum();
    if total <= 0.0 {
        return remaining.iter().position(|&r| r > 0);
    }
    let mut target = rng.gen_range(0.0..total);
    for (i, (&w, &r)) in weights.iter().zip(remaining).enumerate() {
        if r == 0 {
            continue;
        }
        if target < w {
            return Some(i);
        }
        target -= w;
    }
    remaining.iter().position(|&r| r > 0)
}

/// Generates the CIFAR-100-like federated dataset.
///
/// Each client's ground-truth cluster is the most common superclass in its
/// data (ties resolved randomly), exactly as the paper assigns clusters for
/// analysis.
///
/// # Panics
///
/// Panics if the pool is too small for the requested client data
/// (`num_clients * samples_per_client > 100 * 60`), there are no
/// clients or a client has fewer than 10 samples.
pub fn cifar100_like(cfg: &Cifar100Config) -> FederatedDataset {
    assert!(cfg.num_clients > 0 && cfg.samples_per_client >= MIN_SAMPLES);
    assert!(
        cfg.num_clients * cfg.samples_per_client <= POOL_SAMPLES,
        "sample pool too small: need {}, have {POOL_SAMPLES}",
        cfg.num_clients * cfg.samples_per_client,
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let means = class_means(&mut rng);
    // Remaining pool capacity per fine class (samples are generated on
    // draw; the pool only enforces the without-replacement budget).
    let mut remaining = vec![POOL_PER_CLASS; NUM_CLASSES];
    let mut clients = Vec::with_capacity(cfg.num_clients);
    for id in 0..cfg.num_clients {
        // PAM: root Dirichlet over superclasses, one Dirichlet per
        // superclass over its 5 subclasses.
        let root = sample_dirichlet(&mut rng, ROOT_ALPHA, NUM_SUPERCLASSES);
        let subs: Vec<Vec<f64>> = (0..NUM_SUPERCLASSES)
            .map(|_| sample_dirichlet(&mut rng, SUB_ALPHA, CLASSES_PER_SUPERCLASS))
            .collect();
        let mut x = Matrix::zeros(cfg.samples_per_client, FEATURE_DIM);
        let mut y = Vec::with_capacity(cfg.samples_per_client);
        let mut super_counts = [0usize; NUM_SUPERCLASSES];
        for s in 0..cfg.samples_per_client {
            // Capacity left per superclass.
            let super_remaining: Vec<usize> = (0..NUM_SUPERCLASSES)
                .map(|sc| {
                    (0..CLASSES_PER_SUPERCLASS)
                        .map(|i| remaining[sc * CLASSES_PER_SUPERCLASS + i])
                        .sum()
                })
                .collect();
            let sc = draw_available(&root, &super_remaining, &mut rng)
                .expect("pool capacity checked in advance");
            let sub_remaining: Vec<usize> = (0..CLASSES_PER_SUPERCLASS)
                .map(|i| remaining[sc * CLASSES_PER_SUPERCLASS + i])
                .collect();
            let sub = draw_available(&subs[sc], &sub_remaining, &mut rng)
                .expect("superclass chosen with capacity");
            let class = sc * CLASSES_PER_SUPERCLASS + sub;
            remaining[class] -= 1;
            super_counts[sc] += 1;
            // Materialise the sample: class mean + noise.
            let row = x.row_mut(s);
            fill_normals_f32(&mut rng, 0.0, NOISE_STDDEV, row);
            for (slot, &m) in row.iter_mut().zip(&means[class]) {
                *slot += m;
            }
            y.push(class);
        }
        // Cluster = most common superclass; ties resolve randomly.
        let max_count = *super_counts.iter().max().expect("non-empty");
        let top: Vec<usize> = (0..NUM_SUPERCLASSES)
            .filter(|&sc| super_counts[sc] == max_count)
            .collect();
        let cluster = top[rng.gen_range(0..top.len())];
        clients.push(ClientDataset::from_split(
            id as u32, cluster, x, y, 0.1, &mut rng,
        ));
    }
    FederatedDataset::new("cifar100-like", NUM_CLASSES, clients)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Cifar100Config {
        Cifar100Config {
            num_clients: 12,
            samples_per_client: 30,
            ..Cifar100Config::default()
        }
    }

    #[test]
    fn superclass_mapping() {
        assert_eq!(superclass_of(0), 0);
        assert_eq!(superclass_of(4), 0);
        assert_eq!(superclass_of(5), 1);
        assert_eq!(superclass_of(99), 19);
    }

    #[test]
    fn labels_are_valid_fine_classes() {
        let ds = cifar100_like(&small_config());
        for client in ds.clients() {
            for &label in client.train_y().iter().chain(client.test_y()) {
                assert!(label < NUM_CLASSES);
            }
        }
    }

    #[test]
    fn cluster_matches_majority_superclass() {
        let ds = cifar100_like(&small_config());
        for client in ds.clients() {
            let mut counts = [0usize; NUM_SUPERCLASSES];
            for &label in client.train_y().iter().chain(client.test_y()) {
                counts[superclass_of(label)] += 1;
            }
            let max = *counts.iter().max().unwrap();
            assert_eq!(
                counts[client.cluster()],
                max,
                "client {} cluster is not a modal superclass",
                client.id()
            );
        }
    }

    #[test]
    fn pachinko_concentrates_clients() {
        // With root alpha = 0.1 most clients should be dominated by few
        // superclasses.
        let ds = cifar100_like(&small_config());
        let mut dominated = 0;
        for client in ds.clients() {
            let mut counts = [0usize; NUM_SUPERCLASSES];
            for &label in client.train_y() {
                counts[superclass_of(label)] += 1;
            }
            let total: usize = counts.iter().sum();
            let max = *counts.iter().max().unwrap();
            if max as f64 / total as f64 > 0.4 {
                dominated += 1;
            }
        }
        assert!(
            dominated * 2 >= ds.num_clients(),
            "only {dominated}/{} clients are concentrated",
            ds.num_clients()
        );
    }

    #[test]
    fn pool_budget_is_respected() {
        // Clients asking for exactly the whole pool get every sample of
        // every class once: no class is drawn past its budget.
        let cfg = Cifar100Config {
            num_clients: 120,
            samples_per_client: 50,
            ..Cifar100Config::default()
        };
        assert_eq!(
            cfg.num_clients * cfg.samples_per_client,
            NUM_CLASSES * POOL_PER_CLASS
        );
        let ds = cifar100_like(&cfg);
        let mut counts = vec![0usize; NUM_CLASSES];
        for client in ds.clients() {
            for &label in client.train_y().iter().chain(client.test_y()) {
                counts[label] += 1;
            }
        }
        for (class, &count) in counts.iter().enumerate() {
            assert_eq!(
                count, POOL_PER_CLASS,
                "class {class} drawn {count} times (pool {POOL_PER_CLASS})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "pool too small")]
    fn oversubscribed_pool_panics() {
        let cfg = Cifar100Config {
            num_clients: 1000,
            samples_per_client: 100,
            ..Cifar100Config::default()
        };
        cifar100_like(&cfg);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let a = cifar100_like(&cfg);
        let b = cifar100_like(&cfg);
        assert_eq!(a.clients()[5].train_y(), b.clients()[5].train_y());
        assert_eq!(a.cluster_labels(), b.cluster_labels());
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let cfg = Cifar100Config::default();
        assert_eq!(cfg.num_clients, 94);
        // The default must satisfy the pool constraint.
        assert!(cfg.num_clients * cfg.samples_per_client <= NUM_CLASSES * POOL_PER_CLASS);
    }

    #[test]
    fn features_reflect_class_structure() {
        // Same-class samples must be closer than different-superclass ones
        // on average.
        let ds = cifar100_like(&small_config());
        let client = &ds.clients()[0];
        let x = client.train_x();
        let y = client.train_y();
        let dist = |a: usize, b: usize| -> f32 {
            x.row(a)
                .iter()
                .zip(x.row(b))
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f32>()
                .sqrt()
        };
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..y.len() {
            for j in (i + 1)..y.len() {
                if y[i] == y[j] {
                    same.push(dist(i, j));
                } else if superclass_of(y[i]) != superclass_of(y[j]) {
                    diff.push(dist(i, j));
                }
            }
        }
        if same.is_empty() || diff.is_empty() {
            return; // Degenerate draw; nothing to compare.
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&same) < mean(&diff),
            "class structure not reflected in features"
        );
    }
}
