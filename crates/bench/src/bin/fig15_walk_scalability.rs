//! Figure 15: wall-clock duration of the biased random walk per client,
//! over training rounds, for 5/10/20/40 concurrently active clients.
//!
//! Paper shape: the walk cost is dominated by candidate model evaluation;
//! it spikes early (imbalanced child counts while accuracies differ
//! widely) and levels out, with only marginal differences between
//! concurrency levels — i.e. the approach scales.

use dagfl_bench::experiments::task;
use dagfl_bench::output::{emit, f, int};
use dagfl_bench::Scale;
use dagfl_core::{DagConfig, Simulation};
use dagfl_scenario::{DatasetSpec, Scenario};

fn main() {
    let scale = Scale::from_env();
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
    emit(
        "fig15_walk_scalability",
        &[
            "active_clients",
            "round",
            "walk_duration_ms",
            "candidates_evaluated",
            "walk_steps",
        ],
        &rows,
    );
}
