//! The client–server round loop shared by FedAvg and FedProx.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dagfl_datasets::FederatedDataset;
use dagfl_nn::{weighted_average_parameters, Evaluation, Model, ModelFactory, NnError, SgdConfig};

/// Configuration of a centralized federated-learning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedConfig {
    /// Training rounds.
    pub rounds: usize,
    /// Clients sampled per round.
    pub clients_per_round: usize,
    /// Local epochs per selected client.
    pub local_epochs: usize,
    /// Mini-batches per local epoch (fixed per Table 1).
    pub local_batches: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// FedProx proximal strength; `0.0` yields plain FedAvg.
    pub proximal_mu: f32,
    /// Fraction of active clients that are *stragglers* each round: they
    /// only manage a random fraction of their local batch budget
    /// (Li et al.'s systems-heterogeneity simulation). FedAvg
    /// (`proximal_mu == 0.0`) drops their partial updates from
    /// aggregation, as Li et al.'s FedAvg baseline does; FedProx
    /// incorporates them.
    pub straggler_fraction: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for FedConfig {
    fn default() -> Self {
        Self {
            rounds: 100,
            clients_per_round: 10,
            local_epochs: 1,
            local_batches: 10,
            batch_size: 10,
            learning_rate: 0.05,
            proximal_mu: 0.0,
            straggler_fraction: 0.0,
            seed: 42,
        }
    }
}

impl FedConfig {
    /// Turns this configuration into FedProx with the given μ.
    pub fn with_proximal_mu(mut self, mu: f32) -> Self {
        self.proximal_mu = mu;
        self
    }

    /// Whether this configuration is FedProx (μ > 0) rather than FedAvg.
    pub fn is_fedprox(&self) -> bool {
        self.proximal_mu > 0.0
    }
}

/// Metrics of one centralized round: the *aggregated* global model
/// evaluated on each active client's local test data — exactly what
/// Figure 9 plots for FedAvg.
#[derive(Debug, Clone)]
pub struct FedRoundMetrics {
    /// Round index (0-based).
    pub round: usize,
    /// Ids of the active clients.
    pub active_clients: Vec<u32>,
    /// Per-active-client accuracy of the aggregated model.
    pub accuracies: Vec<f32>,
    /// Per-active-client loss of the aggregated model.
    pub losses: Vec<f32>,
    /// How many active clients were stragglers this round.
    pub stragglers: usize,
}

impl FedRoundMetrics {
    /// Mean accuracy over the active clients.
    pub fn mean_accuracy(&self) -> f32 {
        mean(&self.accuracies)
    }

    /// Mean loss over the active clients.
    pub fn mean_loss(&self) -> f32 {
        mean(&self.losses)
    }
}

fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f32>() / values.len() as f32
}

/// A centralized federated-learning server (FedAvg / FedProx).
pub struct FederatedServer {
    config: FedConfig,
    dataset: FederatedDataset,
    global: Arc<Vec<f32>>,
    model: Box<dyn Model>,
    rng: StdRng,
    history: Vec<FedRoundMetrics>,
    round: usize,
}

impl FederatedServer {
    /// Creates a server with a freshly initialised global model.
    ///
    /// # Panics
    ///
    /// Panics if `clients_per_round` is zero or exceeds the dataset's
    /// client count.
    pub fn new(config: FedConfig, dataset: FederatedDataset, factory: ModelFactory) -> Self {
        assert!(
            config.clients_per_round > 0 && config.clients_per_round <= dataset.num_clients(),
            "clients_per_round ({}) must be in 1..={}",
            config.clients_per_round,
            dataset.num_clients()
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let model = factory(&mut rng);
        let global = Arc::new(model.parameters());
        Self {
            config,
            dataset,
            global,
            model,
            rng,
            history: Vec::new(),
            round: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FedConfig {
        &self.config
    }

    /// The dataset being trained on.
    pub fn dataset(&self) -> &FederatedDataset {
        &self.dataset
    }

    /// The current global model parameters.
    pub fn global_parameters(&self) -> &[f32] {
        &self.global
    }

    /// Rounds completed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Metrics of all completed rounds.
    pub fn history(&self) -> &[FedRoundMetrics] {
        &self.history
    }

    /// Runs a single round: broadcast, local training, aggregation.
    ///
    /// # Errors
    ///
    /// Propagates model errors (architecture/dataset mismatches).
    pub fn run_round(&mut self) -> Result<FedRoundMetrics, NnError> {
        // Sample active clients without replacement.
        let mut ids: Vec<usize> = (0..self.dataset.num_clients()).collect();
        ids.shuffle(&mut self.rng);
        let mut active: Vec<usize> = ids
            .into_iter()
            .take(self.config.clients_per_round)
            .collect();
        active.sort_unstable();

        let mut opt = SgdConfig::new(self.config.learning_rate);
        if self.config.proximal_mu > 0.0 {
            opt = opt.with_proximal(self.config.proximal_mu, Arc::clone(&self.global));
        }
        let mut updates: Vec<Vec<f32>> = Vec::with_capacity(active.len());
        let mut weights: Vec<f32> = Vec::with_capacity(active.len());
        let total_budget = self.config.local_epochs * self.config.local_batches;
        let mut stragglers = 0usize;
        for &idx in &active {
            let data = &self.dataset.clients()[idx];
            // Systems heterogeneity (Li et al.): a straggler only finishes
            // a random fraction of its batch budget this round.
            let is_straggler = self.config.straggler_fraction > 0.0
                && self.rng.gen::<f32>() < self.config.straggler_fraction;
            let budget = if is_straggler {
                stragglers += 1;
                self.rng.gen_range(1..total_budget.max(2))
            } else {
                total_budget
            };
            self.model.set_parameters(&self.global)?;
            let mut remaining = budget;
            'epochs: for _ in 0..self.config.local_epochs {
                for (x, y) in data.train_batches(
                    self.config.batch_size,
                    self.config.local_batches,
                    &mut self.rng,
                ) {
                    if remaining == 0 {
                        break 'epochs;
                    }
                    self.model.train_batch(&x, &y, &opt)?;
                    remaining -= 1;
                }
            }
            if is_straggler && self.config.proximal_mu == 0.0 {
                // FedAvg discards partial work (the FedProx paper's FedAvg
                // baseline); the straggler's update never reaches the
                // server.
                continue;
            }
            updates.push(self.model.parameters());
            // Standard FedAvg: weight each update by its sample count.
            weights.push(data.num_train() as f32);
        }
        // Aggregate; if every update was dropped, the global is unchanged.
        if !updates.is_empty() {
            let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
            self.global = Arc::new(weighted_average_parameters(&refs, &weights));
        }
        // Evaluate the aggregated model on the active clients' local test
        // data (Figure 9's FedAvg quantity).
        let mut accuracies = Vec::with_capacity(active.len());
        let mut losses = Vec::with_capacity(active.len());
        self.model.set_parameters(&self.global)?;
        for &idx in &active {
            let data = &self.dataset.clients()[idx];
            let eval = self.model.evaluate(data.test_x(), data.test_y())?;
            accuracies.push(eval.accuracy);
            losses.push(eval.loss);
        }
        let metrics = FedRoundMetrics {
            round: self.round,
            active_clients: active.iter().map(|&i| i as u32).collect(),
            accuracies,
            losses,
            stragglers,
        };
        self.history.push(metrics.clone());
        self.round += 1;
        Ok(metrics)
    }

    /// Runs rounds until `config.rounds` have completed; returns the newly
    /// run rounds' metrics.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`FederatedServer::run_round`].
    pub fn run(&mut self) -> Result<Vec<FedRoundMetrics>, NnError> {
        let mut out = Vec::new();
        while self.round < self.config.rounds {
            out.push(self.run_round()?);
        }
        Ok(out)
    }

    /// Evaluates the global model on every client's local test data.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn evaluate_all(&mut self) -> Result<Vec<(u32, Evaluation)>, NnError> {
        self.model.set_parameters(&self.global)?;
        let mut out = Vec::with_capacity(self.dataset.num_clients());
        for (idx, data) in self.dataset.clients().iter().enumerate() {
            let eval = self.model.evaluate(data.test_x(), data.test_y())?;
            out.push((idx as u32, eval));
        }
        Ok(out)
    }
}

impl std::fmt::Debug for FederatedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedServer")
            .field("round", &self.round)
            .field("fedprox", &self.config.is_fedprox())
            .field("clients", &self.dataset.num_clients())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfl_datasets::{fedprox_synthetic, fmnist_clustered, FedProxConfig, FmnistConfig};
    use dagfl_nn::{Dense, Relu, Sequential};

    fn mlp_factory(features: usize, classes: usize) -> ModelFactory {
        Arc::new(move |rng: &mut StdRng| {
            Box::new(Sequential::new(vec![
                Box::new(Dense::new(rng, features, 16)),
                Box::new(Relu::new()),
                Box::new(Dense::new(rng, 16, classes)),
            ])) as Box<dyn Model>
        })
    }

    fn small_dataset() -> FederatedDataset {
        fmnist_clustered(&FmnistConfig {
            num_clients: 6,
            samples_per_client: 60,
            ..FmnistConfig::default()
        })
    }

    #[test]
    fn fedavg_improves_over_rounds() {
        let dataset = small_dataset();
        let features = dataset.feature_len();
        let config = FedConfig {
            rounds: 15,
            clients_per_round: 6,
            local_batches: 5,
            learning_rate: 0.1,
            ..FedConfig::default()
        };
        let mut server = FederatedServer::new(config, dataset, mlp_factory(features, 10));
        let history = server.run().unwrap();
        let early = history[0].mean_accuracy();
        let late = history.last().unwrap().mean_accuracy();
        assert!(
            late > early + 0.1,
            "no learning progress: {early} -> {late}"
        );
    }

    #[test]
    fn fedprox_stays_closer_to_global_start() {
        // One round from the same global start: the FedProx update must
        // stay closer to the initial global model than FedAvg's.
        let dataset = fedprox_synthetic(&FedProxConfig {
            num_clients: 10,
            ..FedProxConfig::default()
        });
        let features = dataset.feature_len();
        let factory = mlp_factory(features, 10);
        let base = FedConfig {
            rounds: 1,
            clients_per_round: 10,
            local_batches: 20,
            learning_rate: 0.1,
            ..FedConfig::default()
        };
        let mut avg_server = FederatedServer::new(base, dataset.clone(), Arc::clone(&factory));
        let mut prox_server = FederatedServer::new(base.with_proximal_mu(1.0), dataset, factory);
        let start = avg_server.global_parameters().to_vec();
        assert_eq!(start, prox_server.global_parameters());
        avg_server.run_round().unwrap();
        prox_server.run_round().unwrap();
        let dist = |params: &[f32]| -> f32 {
            params
                .iter()
                .zip(&start)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        };
        assert!(
            dist(prox_server.global_parameters()) < dist(avg_server.global_parameters()),
            "proximal term did not constrain the update"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let dataset = small_dataset();
            let features = dataset.feature_len();
            let config = FedConfig {
                rounds: 3,
                clients_per_round: 3,
                local_batches: 3,
                ..FedConfig::default()
            };
            let mut server = FederatedServer::new(config, dataset, mlp_factory(features, 10));
            server.run().unwrap();
            server.global_parameters().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn metrics_shapes_match_active_clients() {
        let dataset = small_dataset();
        let features = dataset.feature_len();
        let config = FedConfig {
            rounds: 1,
            clients_per_round: 4,
            local_batches: 2,
            ..FedConfig::default()
        };
        let mut server = FederatedServer::new(config, dataset, mlp_factory(features, 10));
        let m = server.run_round().unwrap();
        assert_eq!(m.active_clients.len(), 4);
        assert_eq!(m.accuracies.len(), 4);
        assert_eq!(m.losses.len(), 4);
    }

    #[test]
    fn evaluate_all_covers_every_client() {
        let dataset = small_dataset();
        let features = dataset.feature_len();
        let config = FedConfig {
            rounds: 1,
            clients_per_round: 3,
            local_batches: 2,
            ..FedConfig::default()
        };
        let mut server = FederatedServer::new(config, dataset, mlp_factory(features, 10));
        server.run().unwrap();
        let evals = server.evaluate_all().unwrap();
        assert_eq!(evals.len(), 6);
    }

    #[test]
    fn config_helpers() {
        let cfg = FedConfig::default();
        assert!(!cfg.is_fedprox());
        assert!(cfg.with_proximal_mu(0.5).is_fedprox());
    }

    #[test]
    #[should_panic(expected = "clients_per_round")]
    fn oversized_round_panics() {
        let dataset = small_dataset();
        let features = dataset.feature_len();
        let config = FedConfig {
            clients_per_round: 100,
            ..FedConfig::default()
        };
        FederatedServer::new(config, dataset, mlp_factory(features, 10));
    }

    #[test]
    fn all_stragglers_dropped_leaves_global_unchanged() {
        let dataset = small_dataset();
        let features = dataset.feature_len();
        let config = FedConfig {
            rounds: 1,
            clients_per_round: 3,
            local_batches: 3,
            straggler_fraction: 1.0,
            ..FedConfig::default()
        };
        let mut server = FederatedServer::new(config, dataset, mlp_factory(features, 10));
        let before = server.global_parameters().to_vec();
        let m = server.run_round().unwrap();
        assert_eq!(m.stragglers, 3);
        assert_eq!(server.global_parameters(), before.as_slice());
    }

    #[test]
    fn kept_stragglers_still_move_the_global() {
        let dataset = small_dataset();
        let features = dataset.feature_len();
        let config = FedConfig {
            rounds: 1,
            clients_per_round: 3,
            local_batches: 3,
            straggler_fraction: 1.0,
            proximal_mu: 0.1,
            ..FedConfig::default()
        };
        let mut server = FederatedServer::new(config, dataset, mlp_factory(features, 10));
        let before = server.global_parameters().to_vec();
        let m = server.run_round().unwrap();
        assert_eq!(m.stragglers, 3);
        assert_ne!(server.global_parameters(), before.as_slice());
    }

    #[test]
    fn no_stragglers_by_default() {
        let dataset = small_dataset();
        let features = dataset.feature_len();
        let config = FedConfig {
            rounds: 1,
            clients_per_round: 3,
            local_batches: 3,
            ..FedConfig::default()
        };
        let mut server = FederatedServer::new(config, dataset, mlp_factory(features, 10));
        let m = server.run_round().unwrap();
        assert_eq!(m.stragglers, 0);
    }

    #[test]
    fn run_after_completion_is_empty() {
        let dataset = small_dataset();
        let features = dataset.feature_len();
        let config = FedConfig {
            rounds: 1,
            clients_per_round: 2,
            local_batches: 2,
            ..FedConfig::default()
        };
        let mut server = FederatedServer::new(config, dataset, mlp_factory(features, 10));
        server.run().unwrap();
        assert!(server.run().unwrap().is_empty());
    }
}
