//! Round-based vs asynchronous execution on an equal logical-time
//! budget with identical seeds.
//!
//! The round simulator compresses one logical time unit into one round
//! of `clients_per_round` parallel activations; the asynchronous
//! simulator spreads the same activation budget over the same expected
//! logical time through per-client Poisson clocks: `mean_interarrival =
//! num_clients / clients_per_round`, scaled by the compute profile's
//! expected mean speed so that scenarios with a slow cohort keep the
//! same aggregate activation rate. Every mode therefore performs the
//! same amount of training work in the same expected logical time, from
//! the same seeds — what differs is purely the network model (the
//! realised `logical_time` column shows the residual Poisson noise).
//!
//! Expected shape: comparable accuracy and pureness across modes;
//! heterogeneous links (cohorts) raise publish latency and widen the
//! DAG without breaking convergence; positive training time introduces
//! stale tips, which the re-selection policy absorbs.

use dagfl_bench::experiments::{table1, task};
use dagfl_bench::output::{emit, f, f32c, int};
use dagfl_bench::Scale;
use dagfl_core::{
    AsyncConfig, AsyncSimulation, ComputeProfile, DelayModel, ExecutionMode, Simulation,
    StaleTipPolicy,
};

/// The asynchronous network scenarios compared against the round mode.
fn async_scenarios() -> Vec<(
    &'static str,
    DelayModel,
    ComputeProfile,
    f64,
    StaleTipPolicy,
)> {
    vec![
        (
            "async_constant",
            DelayModel::Constant { delay: 2.0 },
            ComputeProfile::Uniform,
            0.0,
            StaleTipPolicy::PublishAnyway,
        ),
        (
            "async_jitter",
            DelayModel::UniformJitter {
                base: 1.0,
                jitter: 2.0,
            },
            ComputeProfile::Uniform,
            0.0,
            StaleTipPolicy::PublishAnyway,
        ),
        (
            "async_cohorts",
            DelayModel::Cohorts {
                slow_fraction: 0.3,
                fast: 1.0,
                slow: 8.0,
                jitter: 1.0,
            },
            // The same clients are network-slow and compute-slow — the
            // realistic straggler regime.
            ComputeProfile::MatchNetworkCohort { slowdown: 4.0 },
            0.5,
            StaleTipPolicy::Reselect,
        ),
    ]
}

/// The mode-agnostic columns, collected through [`ExecutionMode`].
fn shared_columns(mode: &mut dyn ExecutionMode, seed: u64, window: usize) -> Vec<String> {
    mode.run_to_completion().expect("simulation failed");
    let stats = mode.tangle_stats();
    let spec = mode.specialization_metrics_seeded(seed ^ 0xC0FF_EE00);
    vec![
        mode.mode_name().to_string(),
        seed.to_string(),
        int(mode.progress()),
        f32c(mode.recent_accuracy(window)),
        f(mode.approval_pureness()),
        f(spec.modularity),
        int(stats.tips),
        int(stats.transactions),
    ]
}

fn main() {
    let scale = Scale::from_env();
    let spec = *table1("fmnist", scale).execution.dag();
    let budget = spec.rounds * spec.clients_per_round;
    let window = spec.clients_per_round * 5;
    let seeds: &[u64] = &[42, 43];
    let mut rows = Vec::new();

    for &seed in seeds {
        // Round-based reference: `spec.rounds` logical time units.
        let (dag, dataset, factory) = task(&table1("fmnist", scale).with_seed(seed));
        let num_clients = dataset.num_clients();
        let mut sim = Simulation::new(dag, dataset.clone(), factory.clone());
        let mut row = shared_columns(&mut sim, seed, window);
        row[2] = int(budget); // progress in activations, not rounds
        row.extend((0..6).map(|_| String::new()));
        rows.push(row);

        // Asynchronous runs: same seeds, same activation budget, same
        // expected aggregate rate — one logical time unit per round
        // equivalent, with the per-client gap shrunk by the expected
        // mean speed so slow cohorts do not stretch the budget.
        for (name, delay, compute, train_time, stale_policy) in async_scenarios() {
            let mean_interarrival = num_clients as f64 / spec.clients_per_round as f64
                * compute.expected_mean_speed(delay.slow_fraction());
            let mut sim = AsyncSimulation::new(
                AsyncConfig {
                    dag,
                    total_activations: budget,
                    mean_interarrival,
                    delay,
                    compute,
                    train_time,
                    stale_policy,
                    gossip_fanout: 0,
                    workers: 1,
                },
                dataset.clone(),
                factory.clone(),
            );
            let mut row = shared_columns(&mut sim, seed, window);
            row[0] = name.to_string();
            let m = sim.metrics();
            row.extend([
                f(m.activation_rate()),
                f(m.mean_publish_latency),
                f(m.stale_fraction()),
                int(m.reselections),
                f(m.mean_confirmation_depth),
                f(m.elapsed),
            ]);
            rows.push(row);
        }
    }

    emit(
        "mode_comparison",
        &[
            "mode",
            "seed",
            "activations",
            "late_accuracy",
            "pureness",
            "modularity",
            "tips",
            "transactions",
            "activation_rate",
            "mean_publish_latency",
            "stale_fraction",
            "reselections",
            "confirmation_depth",
            "logical_time",
        ],
        &rows,
    );
}
