//! The cluster specialization matrix: each cluster's consensus model
//! evaluated on every cluster's pooled test data, plus pairwise parameter
//! divergence.
//!
//! A parameter-space companion to Table 2 / Figure 5: implicit
//! specialization should produce a diagonal-dominant accuracy matrix and
//! growing inter-cluster parameter distance. Also runs the local-only
//! baseline (no communication) for the mean-own-accuracy comparison the
//! paper's introduction motivates.

use dagfl_baselines::LocalOnly;
use dagfl_bench::experiments::{run_dag, table1, task};
use dagfl_bench::output::{emit, f32c, int};
use dagfl_bench::Scale;
use dagfl_core::analysis::cluster_specialization;

fn main() {
    let (spec, dataset, factory) = task(&table1("fmnist", Scale::from_env()));

    // Specializing DAG.
    let mut sim = run_dag(spec, dataset.clone(), factory.clone());
    let analysis = cluster_specialization(&mut sim).expect("analysis failed");

    let mut rows = Vec::new();
    for (a_idx, &a) in analysis.clusters.iter().enumerate() {
        for (b_idx, &b) in analysis.clusters.iter().enumerate() {
            rows.push(vec![
                int(a),
                int(b),
                f32c(analysis.accuracy[a_idx][b_idx]),
                f32c(analysis.divergence[a_idx][b_idx]),
            ]);
        }
    }
    emit(
        "specialization_matrix",
        &["model_cluster", "data_cluster", "accuracy", "parameter_l2"],
        &rows,
    );

    // Summary row including the local-only baseline.
    let mut local = LocalOnly::new(
        dataset,
        factory,
        spec.learning_rate,
        spec.local_batches,
        spec.batch_size,
        spec.seed,
    );
    // Match the *expected* per-client budget of the DAG run: each client
    // is active clients_per_round / num_clients of the time.
    let expected_rounds =
        (spec.rounds * spec.clients_per_round / sim.dataset().num_clients()).max(1);
    local.run(expected_rounds).expect("local training failed");

    emit(
        "specialization_summary",
        &[
            "dag_own_cluster_accuracy",
            "dag_foreign_cluster_accuracy",
            "dag_specialization_gap",
            "local_only_accuracy",
        ],
        &[vec![
            f32c(analysis.mean_own_accuracy()),
            f32c(analysis.mean_foreign_accuracy()),
            f32c(analysis.specialization_gap()),
            f32c(local.mean_accuracy().expect("evaluation failed")),
        ]],
    );
}
