//! The tangle itself: its shape (Figure 4) and what walking it costs
//! (Figure 15).

use dagfl_core::{DagConfig, Simulation};
use dagfl_scenario::{DatasetSpec, Scenario};
use dagfl_tangle::TangleRead;

use crate::experiments::{run_dag, task};
use crate::output::{f, int};
use crate::Session;

/// Distinct fill colours per ground-truth cluster.
const COLORS: [&str; 6] = [
    "lightblue",
    "lightsalmon",
    "palegreen",
    "plum",
    "khaki",
    "lightcyan",
];

/// Figure 4: `fig04_dag.dot`; render it with
/// `dot -Tsvg results/fig04_dag.dot -o dag.svg` if graphviz is installed.
pub fn fig04(session: &Session) {
    let (mut spec, dataset, factory) = task(&session.scenario("table1-fmnist"));
    // A short run keeps the graph small enough to render readably.
    spec.rounds = spec.rounds.min(12);
    let sim = run_dag(spec, dataset, factory);
    let clusters = sim.dataset().cluster_labels();
    let tangle = sim.tangle();
    let dot = tangle.to_dot(|_, issuer| match issuer {
        Some(issuer) => {
            let cluster = clusters[issuer as usize];
            format!("style=filled fillcolor={} ", COLORS[cluster % COLORS.len()])
        }
        None => "shape=doublecircle ".to_string(),
    });
    let path = session.write("fig04_dag.dot", &dot);
    let stats = tangle.stats();
    println!(
        "wrote {} ({} transactions, {} tips, depth {})",
        path.display(),
        stats.transactions,
        stats.tips,
        stats.max_depth
    );
    println!("render with: dot -Tsvg {} -o dag.svg", path.display());
}

/// Figure 15: per-round walk cost at 5/10/20/40 active clients.
pub fn fig15(session: &Session) {
    let scale = session.scale;
    let rounds = scale.pick(15, 100);
    let mut rows = Vec::new();
    // One fixed client pool for every concurrency level, so the series
    // isolates the effect of concurrent activity (like the paper's fixed
    // author-split FMNIST).
    let pool = Scenario::new(
        "fig15",
        DatasetSpec::FmnistAuthor {
            clients: 120,
            samples: scale.pick(80, 120),
            seed: 42,
        },
    );
    for active in [5usize, 10, 20, 40] {
        let (_, dataset, factory) = task(&pool);
        let config = DagConfig {
            rounds,
            clients_per_round: active,
            local_batches: scale.pick(5, 10),
            ..DagConfig::default()
        };
        let mut sim = Simulation::new(config, dataset, factory);
        for _ in 0..rounds {
            let m = sim.run_round().expect("round failed");
            rows.push(vec![
                int(active),
                int(m.round + 1),
                f(m.mean_walk_duration.as_secs_f64() * 1000.0),
                int(m.candidates_evaluated),
                int(m.walk_steps),
            ]);
        }
    }
    session.emit(
        "fig15_walk_scalability",
        "active_clients,round,walk_duration_ms,candidates_evaluated,walk_steps",
        &rows,
    );
}
