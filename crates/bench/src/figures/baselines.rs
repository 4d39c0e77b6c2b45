//! The Specializing DAG against FedAvg, FedProx and local-only training.

use dagfl_baselines::{FederatedServer, LocalOnly};
use dagfl_core::analysis::cluster_specialization;
use dagfl_core::DagConfig;
use dagfl_scenario::{DatasetSpec, ExecutionSpec, Scenario};
use dagfl_tensor::Summary;

use crate::experiments::{fed_config, run_dag, task};
use crate::output::{f, int};
use crate::Session;

/// Figure 9: the DAG and FedAvg on each Table 1 row, same data, same
/// budget, per-client accuracies summarised over 5-round windows.
pub fn fig09(session: &Session) {
    let mut rows = Vec::new();
    for (name, preset) in [
        ("fmnist-clustered", "table1-fmnist"),
        ("poets", "table1-poets"),
        ("cifar100", "table1-cifar"),
    ] {
        let sim = session.simulation(preset);
        let dag_accs: Vec<&[f32]> = sim.history().iter().map(|m| &m.accuracies[..]).collect();
        let server = session.fedavg(preset);
        let fed_accs: Vec<&[f32]> = server.history().iter().map(|m| &m.accuracies[..]).collect();
        for (algorithm, accs) in [("dag", dag_accs), ("fedavg", fed_accs)] {
            for (group, window) in accs.chunks(5).enumerate() {
                let s = Summary::of(&window.concat());
                let mut row = vec![name.into(), algorithm.into(), int((group + 1) * 5)];
                row.extend([s.mean, s.stddev, s.min, s.q1, s.median, s.q3, s.max].map(f));
                rows.push(row);
            }
        }
    }
    session.emit(
        "fig09_fedavg_comparison",
        "dataset,algorithm,rounds,mean,stddev,min,q1,median,q3,max",
        &rows,
    );
}

/// Figures 10 & 11. Following Li et al.'s systems-heterogeneity setup,
/// half of the active clients are stragglers each round: FedAvg *drops*
/// their partial updates, FedProx *incorporates* them (the proximal
/// term keeps partial work useful). The DAG has no stragglers — it is
/// asynchronous by design (§5.3.3).
pub fn fig10_11(session: &Session) {
    let scale = session.scale;
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
    let mut record = |name: &str, round: usize, accuracy: f32, loss: f32| {
        rows.push(vec![name.into(), int(round + 1), f(accuracy), f(loss)]);
    };

    // Specializing DAG.
    let sim = run_dag(spec, dataset.clone(), factory.clone());
    for m in sim.history() {
        record("dag", m.round, m.mean_accuracy(), m.mean_loss());
    }

    // Centralized baselines under 50 % stragglers.
    for (name, mu) in [("fedavg", 0.0f32), ("fedprox", 0.1)] {
        let mut config = fed_config(&spec, mu);
        config.straggler_fraction = 0.5;
        let mut server = FederatedServer::new(config, dataset.clone(), factory.clone());
        server.run().expect("centralized training failed");
        for m in server.history() {
            record(name, m.round, m.mean_accuracy(), m.mean_loss());
        }
    }

    session.emit(
        "fig10_11_fedprox_comparison",
        "algorithm,round,accuracy,loss",
        &rows,
    );
}

/// Communication cost, both directions accounted for:
///
/// * **FedAvg**: every active client downloads the global model and
///   uploads its update — `2 · |params|` per activation.
/// * **Specializing DAG**: every active client downloads each candidate
///   model its walks are offered (the dominant term, counted exactly from
///   the recorded walk statistics) plus the two parents, and uploads its
///   update if published.
pub fn communication_cost(session: &Session) {
    let sim = session.simulation("table1-fmnist");
    let server = session.fedavg("table1-fmnist");
    let spec = sim.config();
    let bytes_per_model = server.global_parameters().len() * 4;

    // DAG: count candidate downloads and uploads from the round metrics.
    let mut dag_download = 0u64;
    let mut dag_upload = 0u64;
    for m in sim.history() {
        // Each offered candidate and both selected parents are fetched.
        dag_download += (m.candidates_evaluated as u64 + 2 * m.active_clients.len() as u64)
            * bytes_per_model as u64;
        dag_upload += m.published as u64 * bytes_per_model as u64;
    }

    // FedAvg: broadcast + update per active client per round.
    let fed_each_way: u64 = server
        .history()
        .iter()
        .map(|m| m.active_clients.len() as u64 * bytes_per_model as u64)
        .sum();

    let activations = (spec.rounds * spec.clients_per_round) as u64;
    let row = |algorithm: &str, download: u64, upload: u64| {
        vec![
            algorithm.into(),
            int(bytes_per_model),
            int(download as usize),
            int(upload as usize),
            f((download + upload) as f64 / activations as f64 / 1024.0),
        ]
    };
    session.emit(
        "communication_cost",
        "algorithm,bytes_per_model,total_download_bytes,total_upload_bytes,kib_per_activation",
        &[
            row("dag", dag_download, dag_upload),
            row("fedavg", fed_each_way, fed_each_way),
        ],
    );
    println!(
        "note: DAG downloads are dominated by walk evaluations; caching \
         (already modelled client-side) amortises repeat visits across rounds."
    );
}

/// The cluster specialization matrix, plus the local-only baseline (no
/// communication) for the mean-own-accuracy comparison the paper's
/// introduction motivates.
pub fn specialization_matrix(session: &Session) {
    let (spec, dataset, factory) = task(&session.scenario("table1-fmnist"));

    // Specializing DAG.
    let mut sim = run_dag(spec, dataset.clone(), factory.clone());
    let analysis = cluster_specialization(&mut sim).expect("analysis failed");

    let mut rows = Vec::new();
    for (a_idx, &a) in analysis.clusters.iter().enumerate() {
        for (b_idx, &b) in analysis.clusters.iter().enumerate() {
            rows.push(vec![
                int(a),
                int(b),
                f(analysis.accuracy[a_idx][b_idx]),
                f(analysis.divergence[a_idx][b_idx]),
            ]);
        }
    }
    session.emit(
        "specialization_matrix",
        "model_cluster,data_cluster,accuracy,parameter_l2",
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

    let summary = [
        analysis.mean_own_accuracy(),
        analysis.mean_foreign_accuracy(),
        analysis.specialization_gap(),
        local.mean_accuracy().expect("evaluation failed"),
    ];
    session.emit(
        "specialization_summary",
        "dag_own_cluster_accuracy,dag_foreign_cluster_accuracy,dag_specialization_gap,\
         local_only_accuracy",
        &[summary.map(f).to_vec()],
    );
}
