//! The round-based simulator against the event-driven one (§5.3.3).

use dagfl_core::{
    specialization_seed, AsyncConfig, AsyncSimulation, ComputeProfile, DelayModel, ExecutionMode,
    Simulation, StaleTipPolicy,
};

use crate::experiments::{late_accuracy, task};
use crate::output::{f, int};
use crate::{axis_f64, Session};

/// The round reference is the `table1-fmnist` preset; the asynchronous
/// delay grid is the `sweep-async-delay` sweep preset (base
/// `async-delay2`, axis `execution.delay`, budget-matched to the round
/// reference).
pub fn async_vs_rounds(session: &Session) {
    let mut rows = Vec::new();

    // Round-based reference run: late accuracy over the last 5 rounds.
    let rounds = session.simulation("table1-fmnist");
    let tangle = ExecutionMode::tangle_stats(&*rounds);
    rows.push(vec![
        "rounds".into(),
        f(0.0),
        f(late_accuracy(
            rounds.history().iter().map(|m| m.mean_accuracy()),
        )),
        f(rounds.specialization_metrics().approval_pureness),
        int(tangle.tips),
        int(tangle.transactions),
    ]);

    // Asynchronous cells with increasing propagation delay; the sweep
    // matches the round-based training budget (rounds x clients_per_round
    // activations) and reports accuracy over an equivalent late window.
    let sweep = session.sweep("sweep-async-delay");
    for cell in &sweep.cells {
        let delay = axis_f64(cell, "execution.delay");
        rows.push(vec![
            format!("async_delay_{delay}"),
            f(delay),
            f(cell.report.recent_accuracy),
            f(cell.report.specialization.approval_pureness),
            int(cell.report.tangle.tips),
            int(cell.report.tangle.transactions),
        ]);
    }

    session.emit(
        "async_vs_rounds",
        "mode,visibility_delay,late_accuracy,pureness,tips,transactions",
        &rows,
    );
}

/// The asynchronous network scenarios compared against the round mode:
/// name and the fields each sets (`dag`, budget and inter-arrival gap are
/// filled in per seed).
fn async_scenarios() -> [(&'static str, AsyncConfig); 3] {
    let constant = AsyncConfig {
        delay: DelayModel::Constant { delay: 2.0 },
        ..AsyncConfig::default()
    };
    let jitter = AsyncConfig {
        delay: DelayModel::UniformJitter {
            base: 1.0,
            jitter: 2.0,
        },
        ..AsyncConfig::default()
    };
    let cohorts = AsyncConfig {
        delay: DelayModel::Cohorts {
            slow_fraction: 0.3,
            fast: 1.0,
            slow: 8.0,
            jitter: 1.0,
        },
        // The same clients are network-slow and compute-slow — the
        // realistic straggler regime.
        compute: ComputeProfile::MatchNetworkCohort { slowdown: 4.0 },
        train_time: 0.5,
        stale_policy: StaleTipPolicy::Reselect,
        ..AsyncConfig::default()
    };
    [
        ("async_constant", constant),
        ("async_jitter", jitter),
        ("async_cohorts", cohorts),
    ]
}

/// The mode-agnostic columns, collected through [`ExecutionMode`].
fn shared_columns(mode: &mut dyn ExecutionMode, seed: u64, window: usize) -> Vec<String> {
    mode.run_to_completion().expect("simulation failed");
    let stats = mode.tangle_stats();
    let spec = mode.specialization_metrics_seeded(specialization_seed(seed, 0));
    vec![
        mode.mode_name().to_string(),
        seed.to_string(),
        int(mode.progress()),
        f(mode.recent_accuracy(window)),
        f(mode.approval_pureness()),
        f(spec.modularity),
        int(stats.tips),
        int(stats.transactions),
    ]
}

/// Round-based vs asynchronous execution on an equal logical-time
/// budget with identical seeds.
///
/// The round simulator compresses one logical time unit into one round
/// of `clients_per_round` parallel activations; the asynchronous
/// simulator spreads the same activation budget over the same expected
/// logical time through per-client Poisson clocks: `mean_interarrival =
/// num_clients / clients_per_round`, scaled by the compute profile's
/// expected mean speed so that scenarios with a slow cohort keep the
/// same aggregate activation rate. Every mode therefore performs the
/// same amount of training work in the same expected logical time, from
/// the same seeds — what differs is purely the network model (the
/// realised `logical_time` column shows the residual Poisson noise).
pub fn mode_comparison(session: &Session) {
    let table1 = session.scenario("table1-fmnist");
    let spec = *table1.execution.dag();
    let budget = spec.rounds * spec.clients_per_round;
    let window = spec.clients_per_round * 5;
    let seeds: &[u64] = &[42, 43];
    let mut rows = Vec::new();

    for &seed in seeds {
        // Round-based reference: `spec.rounds` logical time units.
        let (dag, dataset, factory) = task(&table1.clone().with_seed(seed));
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
        for (name, network) in async_scenarios() {
            let config = AsyncConfig {
                dag,
                total_activations: budget,
                mean_interarrival: num_clients as f64 / spec.clients_per_round as f64
                    * network
                        .compute
                        .expected_mean_speed(network.delay.slow_fraction()),
                ..network
            };
            let mut sim = AsyncSimulation::new(config, dataset.clone(), factory.clone());
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

    session.emit(
        "mode_comparison",
        "mode,seed,activations,late_accuracy,pureness,modularity,tips,transactions,\
         activation_rate,mean_publish_latency,stale_fraction,reselections,confirmation_depth,\
         logical_time",
        &rows,
    );
}
