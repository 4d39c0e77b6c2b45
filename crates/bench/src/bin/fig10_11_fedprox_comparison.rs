//! Figures 10 & 11: average accuracy (Fig. 10) and loss (Fig. 11) per
//! round on the FedProx synthetic(0.5, 0.5) benchmark — Specializing DAG
//! vs FedAvg vs FedProx, 30 clients with 10 active per round.
//!
//! Following Li et al.'s systems-heterogeneity setup, half of the active
//! clients are stragglers each round: FedAvg *drops* their partial
//! updates, FedProx *incorporates* them (the proximal term keeps partial
//! work useful). The DAG has no stragglers — it is asynchronous by
//! design (§5.3.3).
//!
//! Paper shape: the centralized approaches are steadier early; the DAG is
//! noisier (statistical tip selection) but eventually outperforms FedAvg
//! on both metrics and approaches FedProx on loss.

use dagfl_baselines::FederatedServer;
use dagfl_bench::experiments::{fed_config, run_dag, task};
use dagfl_bench::output::{emit, f32c, int};
use dagfl_bench::Scale;
use dagfl_core::DagConfig;
use dagfl_scenario::{DatasetSpec, ExecutionSpec, Scenario};

fn main() {
    let scale = Scale::from_env();
    // The FedProx synthetic(0.5, 0.5) run: 30 clients, 10 per round.
    let scenario = Scenario::new(
        "fig10-11",
        DatasetSpec::FedProx {
            clients: 30,
            min_samples: 50,
            max_samples: scale.pick(200, 300),
            seed: 42,
        },
    )
    .with_execution(ExecutionSpec::Rounds(DagConfig {
        rounds: scale.pick(30, 100),
        clients_per_round: 10,
        // Enough local work that client updates actually drift apart —
        // the regime in which the proximal term pays off.
        local_epochs: 2,
        local_batches: scale.pick(15, 20),
        learning_rate: 0.03,
        ..DagConfig::default()
    }));
    let (spec, dataset, factory) = task(&scenario);
    let mut rows = Vec::new();

    // Specializing DAG.
    let sim = run_dag(spec, dataset.clone(), factory.clone());
    for m in sim.history() {
        rows.push(vec![
            "dag".into(),
            int(m.round + 1),
            f32c(m.mean_accuracy()),
            f32c(m.mean_loss()),
        ]);
    }

    // Centralized baselines under 50 % stragglers.
    for (name, mu, drop) in [("fedavg", 0.0f32, true), ("fedprox", 0.1, false)] {
        let mut config = fed_config(&spec, mu);
        config.straggler_fraction = 0.5;
        config.drop_stragglers = drop;
        let mut server = FederatedServer::new(config, dataset.clone(), factory.clone());
        server.run().expect("centralized training failed");
        for m in server.history() {
            rows.push(vec![
                name.into(),
                int(m.round + 1),
                f32c(m.mean_accuracy()),
                f32c(m.mean_loss()),
            ]);
        }
    }

    emit(
        "fig10_11_fedprox_comparison",
        &["algorithm", "round", "accuracy", "loss"],
        &rows,
    );
}
