//! Figure 9: per-client accuracy distributions, Specializing DAG vs
//! FedAvg, on all three datasets, grouped over five consecutive rounds
//! (the paper's box plots).
//!
//! Paper shape: the DAG improves faster with a tighter spread on
//! FMNIST-clustered; on Poets and CIFAR-100 both approaches reach similar
//! accuracy — removing the central server costs nothing.

use dagfl_bench::experiments::{run_dag, run_fed, table1, task};
use dagfl_bench::output::{emit, f32c, int};
use dagfl_bench::Scale;
use dagfl_tensor::Summary;

/// Summarises accuracies grouped over 5-round windows.
fn grouped(accs_per_round: &[Vec<f32>]) -> Vec<(usize, Summary)> {
    accs_per_round
        .chunks(5)
        .enumerate()
        .map(|(group, chunk)| {
            let all: Vec<f32> = chunk.iter().flatten().copied().collect();
            ((group + 1) * 5, Summary::of(&all))
        })
        .collect()
}

fn run_pair(name: &str, row: &str, scale: Scale, rows: &mut Vec<Vec<String>>) {
    let (spec, dataset, factory) = task(&table1(row, scale));
    let sim = run_dag(spec, dataset.clone(), factory.clone());
    let dag_accs: Vec<Vec<f32>> = sim.history().iter().map(|m| m.accuracies.clone()).collect();
    let server = run_fed(&spec, 0.0, dataset, factory);
    let fed_accs: Vec<Vec<f32>> = server
        .history()
        .iter()
        .map(|m| m.accuracies.clone())
        .collect();
    for (algorithm, accs) in [("dag", dag_accs), ("fedavg", fed_accs)] {
        for (rounds, s) in grouped(&accs) {
            rows.push(vec![
                name.into(),
                algorithm.into(),
                int(rounds),
                f32c(s.mean),
                f32c(s.stddev),
                f32c(s.min),
                f32c(s.q1),
                f32c(s.median),
                f32c(s.q3),
                f32c(s.max),
            ]);
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let mut rows = Vec::new();

    run_pair("fmnist-clustered", "fmnist", scale, &mut rows);
    run_pair("poets", "poets", scale, &mut rows);
    run_pair("cifar100", "cifar", scale, &mut rows);

    emit(
        "fig09_fedavg_comparison",
        &[
            "dataset",
            "algorithm",
            "rounds",
            "mean",
            "stddev",
            "min",
            "q1",
            "median",
            "q3",
            "max",
        ],
        &rows,
    );
}
