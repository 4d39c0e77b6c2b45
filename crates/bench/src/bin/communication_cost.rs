//! Communication cost: DAG vs FedAvg on identical training budgets.
//!
//! The related-work discussion (§3.2, Hegedűs et al.) notes that
//! peer-to-peer learning pays more network traffic than a star topology.
//! This experiment accounts for both directions:
//!
//! * **FedAvg**: every active client downloads the global model and
//!   uploads its update — `2 · |params|` per activation.
//! * **Specializing DAG**: every active client downloads each candidate
//!   model its walks evaluate (the dominant term, counted exactly from the
//!   recorded walk statistics) plus the two parents, and uploads its
//!   update if published.

use dagfl_bench::experiments::{run_dag, run_fed, table1, task};
use dagfl_bench::output::{emit, f, int};
use dagfl_bench::Scale;
use rand::SeedableRng;

fn main() {
    let (spec, dataset, factory) = task(&table1("fmnist", Scale::from_env()));
    let params = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        factory(&mut rng).num_parameters()
    };
    let bytes_per_model = params * 4;

    // DAG: count candidate downloads and uploads from the round metrics.
    let sim = run_dag(spec, dataset.clone(), factory.clone());
    let mut dag_download = 0u64;
    let mut dag_upload = 0u64;
    for m in sim.history() {
        // Each evaluated candidate and both selected parents are fetched.
        dag_download += (m.candidates_evaluated as u64 + 2 * m.active_clients.len() as u64)
            * bytes_per_model as u64;
        dag_upload += m.published as u64 * bytes_per_model as u64;
    }

    // FedAvg: broadcast + update per active client per round.
    let server = run_fed(&spec, 0.0, dataset, factory);
    let mut fed_download = 0u64;
    let mut fed_upload = 0u64;
    for m in server.history() {
        fed_download += m.active_clients.len() as u64 * bytes_per_model as u64;
        fed_upload += m.active_clients.len() as u64 * bytes_per_model as u64;
    }

    let activations = (spec.rounds * spec.clients_per_round) as u64;
    let rows = vec![
        vec![
            "dag".into(),
            int(bytes_per_model),
            int(dag_download as usize),
            int(dag_upload as usize),
            f((dag_download + dag_upload) as f64 / activations as f64 / 1024.0),
        ],
        vec![
            "fedavg".into(),
            int(bytes_per_model),
            int(fed_download as usize),
            int(fed_upload as usize),
            f((fed_download + fed_upload) as f64 / activations as f64 / 1024.0),
        ],
    ];
    emit(
        "communication_cost",
        &[
            "algorithm",
            "bytes_per_model",
            "total_download_bytes",
            "total_upload_bytes",
            "kib_per_activation",
        ],
        &rows,
    );
    println!(
        "note: DAG downloads are dominated by walk evaluations; caching \
         (already modelled client-side) amortises repeat visits across rounds."
    );
}
