//! Experiment runners shared by the registry rows.

use dagfl_baselines::FedConfig;
use dagfl_core::{DagConfig, ModelFactory, Simulation};
use dagfl_datasets::FederatedDataset;
use dagfl_scenario::Scenario;

/// What a simulator takes, unpacked from a scenario: its hyperparameters,
/// the generated dataset and the model factory for its dimensions.
pub fn task(scenario: &Scenario) -> (DagConfig, FederatedDataset, ModelFactory) {
    let dataset = scenario.dataset.build();
    let factory = scenario.build_factory(&dataset);
    (*scenario.execution.dag(), dataset, factory)
}

/// The centralized configuration on the same training budget as `dag`,
/// with the given proximal μ (0.0 = FedAvg).
pub fn fed_config(dag: &DagConfig, proximal_mu: f32) -> FedConfig {
    FedConfig {
        rounds: dag.rounds,
        clients_per_round: dag.clients_per_round,
        local_epochs: dag.local_epochs,
        local_batches: dag.local_batches,
        batch_size: dag.batch_size,
        learning_rate: dag.learning_rate,
        proximal_mu,
        seed: dag.seed,
        ..FedConfig::default()
    }
}

/// Runs a Specializing-DAG simulation to completion.
///
/// # Panics
///
/// Panics on simulation errors — experiments should fail loudly.
pub fn run_dag(config: DagConfig, dataset: FederatedDataset, factory: ModelFactory) -> Simulation {
    let mut sim = Simulation::new(config, dataset, factory);
    sim.run().expect("DAG simulation failed");
    sim
}

/// Mean accuracy over the last five entries of a per-round series — the
/// "late accuracy" column several rows report.
pub fn late_accuracy(per_round: impl DoubleEndedIterator<Item = f32>) -> f32 {
    per_round.rev().take(5).sum::<f32>() / 5.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn tiny(rounds: usize) -> (DagConfig, FederatedDataset, ModelFactory) {
        let smoke = Scenario::preset_at("smoke", Scale::Quick).unwrap();
        task(&smoke.rounds(rounds))
    }

    #[test]
    fn specs_scale_down_for_quick_runs() {
        let dag = |row: &str, scale| {
            let table1 = Scenario::preset_at(&format!("table1-{row}"), scale).unwrap();
            *table1.execution.dag()
        };
        assert!(dag("fmnist", Scale::Quick).rounds < dag("fmnist", Scale::Full).rounds);
        assert!(dag("poets", Scale::Quick).local_batches < dag("poets", Scale::Full).local_batches);
        assert_eq!(dag("cifar", Scale::Full).local_epochs, 5);
    }

    #[test]
    fn tiny_dag_run_completes() {
        let (config, dataset, factory) = tiny(2);
        let sim = run_dag(config, dataset, factory);
        assert_eq!(sim.round(), 2);
    }
}
