//! The shared execution-mode abstraction over the round-based and
//! asynchronous simulators.
//!
//! The paper's algorithm is mode-agnostic — rounds exist only for
//! comparability (§5.3.3) — and so is most analysis code: pureness,
//! client graphs, Louvain partitions and accuracy summaries only need a
//! tangle and a dataset, not a scheduling discipline. [`ExecutionMode`]
//! captures exactly that surface, so experiment harnesses (e.g. the
//! `mode_comparison` row of `dagfl-bench`'s figure registry) can drive
//! [`Simulation`](crate::Simulation) and
//! [`AsyncSimulation`](crate::AsyncSimulation) through one `dyn`
//! interface and compare them on identical budgets.

use dagfl_datasets::FederatedDataset;
use dagfl_tangle::TangleStats;

use crate::graph::{
    misclassification_fraction, modularity, partition_count, specialization_partition, Graph,
};

use crate::{AsyncSimulation, CoreError, ShardedModelTangle, Simulation, SpecializationMetrics};

/// A simulator that can run a Specializing-DAG workload to completion
/// and expose its tangle for analysis, regardless of whether progress is
/// counted in rounds or in activations.
pub trait ExecutionMode {
    /// Short human-readable mode name (`"rounds"` or `"async"`).
    fn mode_name(&self) -> &'static str;

    /// The federated dataset being trained on.
    fn dataset(&self) -> &FederatedDataset;

    /// Completed scheduling units: rounds for the round simulator,
    /// activations for the asynchronous one.
    fn progress(&self) -> usize;

    /// Runs the configured workload to completion.
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors.
    fn run_to_completion(&mut self) -> Result<(), CoreError>;

    /// The globally visible tangle. Its read path is lock-free, so the
    /// borrow can be kept for as long as the simulator is borrowed.
    fn tangle(&self) -> &ShardedModelTangle;

    /// Mean post-training accuracy over the most recent `n` client
    /// evaluations.
    fn recent_accuracy(&self, n: usize) -> f32;

    /// The derived client graph `G_clients` (§4.3), as the simulator
    /// maintains it at publish time; [`crate::client_graph_of`]
    /// re-derives it by a full scan. Borrowed: the inherent
    /// `client_graph` of each simulator returns an owned copy.
    fn client_graph(&self) -> &Graph;

    /// Approval pureness of the visible tangle (Table 2), as the
    /// simulator maintains it at publish time;
    /// [`crate::approval_pureness_of`] re-derives it by a full scan.
    fn approval_pureness(&self) -> f64;

    /// Structural statistics of the visible tangle.
    fn tangle_stats(&self) -> TangleStats {
        self.tangle().stats()
    }

    /// The §4.3 specialization metrics, with Louvain seeded by `seed`
    /// so comparisons across modes stay reproducible.
    fn specialization_metrics_seeded(&self, seed: u64) -> SpecializationMetrics {
        let graph = self.client_graph();
        let partition = specialization_partition(graph, seed);
        SpecializationMetrics {
            modularity: modularity(graph, &partition),
            partitions: partition_count(&partition),
            misclassification: misclassification_fraction(
                &partition,
                &self.dataset().cluster_labels(),
            ),
            approval_pureness: self.approval_pureness(),
            partition,
        }
    }
}

impl ExecutionMode for Simulation {
    fn mode_name(&self) -> &'static str {
        "rounds"
    }

    fn dataset(&self) -> &FederatedDataset {
        Simulation::dataset(self)
    }

    fn progress(&self) -> usize {
        self.round()
    }

    fn run_to_completion(&mut self) -> Result<(), CoreError> {
        Simulation::run(self).map(|_| ())
    }

    fn tangle(&self) -> &ShardedModelTangle {
        Simulation::tangle(self)
    }

    fn recent_accuracy(&self, n: usize) -> f32 {
        Simulation::recent_accuracy(self, n)
    }

    fn client_graph(&self) -> &Graph {
        self.graph.graph()
    }

    fn approval_pureness(&self) -> f64 {
        Simulation::approval_pureness(self)
    }
}

impl ExecutionMode for AsyncSimulation {
    fn mode_name(&self) -> &'static str {
        "async"
    }

    fn dataset(&self) -> &FederatedDataset {
        AsyncSimulation::dataset(self)
    }

    fn progress(&self) -> usize {
        self.activations()
    }

    fn run_to_completion(&mut self) -> Result<(), CoreError> {
        AsyncSimulation::run(self)
    }

    fn tangle(&self) -> &ShardedModelTangle {
        AsyncSimulation::tangle(self)
    }

    fn recent_accuracy(&self, n: usize) -> f32 {
        AsyncSimulation::recent_accuracy(self, n)
    }

    fn client_graph(&self) -> &Graph {
        self.graph.graph()
    }

    fn approval_pureness(&self) -> f64 {
        AsyncSimulation::approval_pureness(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncConfig, DagConfig, DelayModel, ModelFactory};
    use dagfl_datasets::{fmnist_clustered, FmnistConfig};
    use dagfl_nn::{Dense, Model, Relu, Sequential};
    use rand::rngs::StdRng;
    use std::sync::Arc;

    fn dataset() -> FederatedDataset {
        fmnist_clustered(&FmnistConfig {
            num_clients: 6,
            samples_per_client: 40,
            ..FmnistConfig::default()
        })
    }

    fn factory(features: usize) -> ModelFactory {
        Arc::new(move |rng: &mut StdRng| {
            Box::new(Sequential::new(vec![
                Box::new(Dense::new(rng, features, 16)),
                Box::new(Relu::new()),
                Box::new(Dense::new(rng, 16, 10)),
            ])) as Box<dyn Model>
        })
    }

    fn both_modes() -> Vec<Box<dyn ExecutionMode>> {
        let ds = dataset();
        let features = ds.feature_len();
        let round_sim = Simulation::new(
            DagConfig {
                rounds: 2,
                clients_per_round: 3,
                local_batches: 2,
                ..DagConfig::default()
            },
            ds,
            factory(features),
        );
        let ds = dataset();
        let async_sim = AsyncSimulation::new(
            AsyncConfig {
                dag: DagConfig {
                    local_batches: 2,
                    ..DagConfig::default()
                },
                total_activations: 30,
                delay: DelayModel::constant(1.0),
                ..AsyncConfig::default()
            },
            ds,
            factory(features),
        );
        vec![Box::new(round_sim), Box::new(async_sim)]
    }

    #[test]
    fn both_simulators_run_behind_the_trait() {
        for mode in &mut both_modes() {
            mode.run_to_completion().unwrap();
            assert!(mode.progress() > 0, "{} made no progress", mode.mode_name());
            let stats = mode.tangle_stats();
            assert!(stats.transactions >= 1);
            assert!((0.0..=1.0).contains(&mode.approval_pureness()));
            assert!(mode.recent_accuracy(5) > 0.0);
            let spec = mode.specialization_metrics_seeded(7);
            assert_eq!(spec.partition.len(), 6);
        }
    }

    #[test]
    fn mode_names_distinguish_the_simulators() {
        let modes = both_modes();
        assert_eq!(modes[0].mode_name(), "rounds");
        assert_eq!(modes[1].mode_name(), "async");
    }

    #[test]
    fn maintained_graph_and_pureness_equal_the_rescans() {
        use crate::{approval_pureness_of, client_graph_of};
        for mode in &mut both_modes() {
            mode.run_to_completion().unwrap();
            let name = mode.mode_name();
            let rescan = client_graph_of(mode.tangle(), mode.dataset().num_clients());
            assert!(
                rescan.total_weight() > 0.0,
                "{name}: no approvals to compare"
            );
            assert_eq!(mode.client_graph().edges(), rescan.edges(), "{name}");
            let labels = mode.dataset().cluster_labels();
            assert_eq!(
                mode.approval_pureness(),
                approval_pureness_of(mode.tangle(), &labels),
                "{name}"
            );
        }
    }

    #[test]
    fn client_graph_has_dataset_dimensions() {
        for mode in &mut both_modes() {
            mode.run_to_completion().unwrap();
            assert_eq!(mode.client_graph().num_nodes(), 6);
        }
    }
}
