//! The named workloads: what each runs and why it exists.
//!
//! Simulator workloads are scenario files under `workloads/`, parsed with
//! `Scenario::from_toml`; the harness applies the seed (`with_seed`), so
//! the program only ever receives generated inputs. Thread counts are
//! fixed numbers in those files (`workers`, `clients_per_round` with
//! `parallel = true`), never `available_parallelism()`, so two machines
//! run the same program.

use dagfl::scenario::{ExecutionSpec, ScenarioError};
use dagfl::{DatasetSpec, Scenario};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// Scenario text (`None` for `net-gossip`, which bypasses the
    /// simulators).
    pub toml: Option<&'static str>,
    /// Timed reps in a 20 s run (`run_seconds`) on the 2-core reference box.
    /// The count is fixed per `--seconds`, not fitted to the clock, so one
    /// seed always generates the same inputs.
    pub reps: usize,
}

/// All workloads, in the order the suite runs them.
///
/// `async-workers` (the `async-scale` file at `workers = 2`) was measured
/// and withdrawn as a workload: its per-batch thread spawns make its wall
/// time a function of the hypervisor's mood (medians of 2.4-4.3 s, once
/// 13.7 s, for identical inputs; IQR / median 37 % over ten seeds), which
/// no bound the contract allows can hold. Its contrast survives in the
/// traced run of `async-scale`, which re-runs at `workers = 2`
/// (`core.async_sim.workers_speedup`, `core.async_sim.flipped.*`).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "rounds-fmnist",
        why: "Table-1 FMNIST at paper scale: an activation is half walk, half train; tangle reads dominate",
        toml: Some(include_str!("../workloads/rounds-fmnist.toml")),
        reps: 13,
    },
    Workload {
        name: "rounds-poets",
        why: "GRU char-rnn, train-bound (~69 % train_batch): a kernel win must show here, a walk win must not",
        toml: Some(include_str!("../workloads/rounds-poets.toml")),
        reps: 8,
    },
    Workload {
        name: "async-scale",
        why: "5000 clients, tiny training, workers = 1: event loop, replicas, registry, loopback, tangle writes",
        toml: Some(include_str!("../workloads/async-scale.toml")),
        reps: 8,
    },
    Workload {
        name: "net-gossip",
        why: "53 KB frames over loopback TCP into a Replica: the only path through wire and net, no compute",
        toml: None,
        reps: 900,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Shrinks a scenario to a tenth of its size for `--quick` (a smoke of the
/// harness itself, not a measurement).
fn shrink(scenario: &mut Scenario) {
    let tenth = |n: usize, floor: usize| (n / 10).max(floor);
    let per_round = scenario.execution.dag().clients_per_round;
    match &mut scenario.dataset {
        DatasetSpec::Fmnist { clients, .. }
        | DatasetSpec::FmnistStreamed { clients, .. }
        | DatasetSpec::FmnistAuthor { clients, .. }
        | DatasetSpec::Cifar { clients, .. }
        | DatasetSpec::FedProx { clients, .. } => *clients = tenth(*clients, per_round.max(3)),
        // Twelve poets clients are already the floor for 6 per round.
        DatasetSpec::Poets { .. } => {}
    }
    match &mut scenario.execution {
        ExecutionSpec::Rounds(dag) => dag.rounds = tenth(dag.rounds, 3),
        ExecutionSpec::Async { config, .. } => {
            config.total_activations = tenth(config.total_activations, 10);
        }
    }
}

/// SplitMix64: decorrelates consecutive rep indices into seeds.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of rep `rep` of a run seeded `seed`. Rep 0 runs the seed
/// itself; later reps run seeds derived from it. The seed decides how much
/// *work* a simulation is (which clients are drawn, where walks go, how
/// soon accuracy saturates) — on `rounds-fmnist` identical code takes
/// 1.2-1.9 s depending on it — so a run's median over reps of one seed
/// would report that seed's luck. Over reps of different seeds it reports
/// the scenario.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    if rep == 0 {
        seed
    } else {
        splitmix(seed ^ splitmix(rep as u64))
    }
}

impl Workload {
    /// Timed reps of a run measuring for `seconds` (1 under `--quick`).
    pub fn reps_for(&self, seconds: f64, quick: bool) -> usize {
        if quick {
            1
        } else {
            ((self.reps as f64 * seconds / 20.0).round() as usize).max(3)
        }
    }

    /// The workload's scenario with `seed` applied to the dataset and the
    /// simulation (`None` for `net-gossip`).
    ///
    /// # Errors
    ///
    /// Returns the parse or validation error of the scenario text.
    pub fn scenario(&self, seed: u64, quick: bool) -> Result<Option<Scenario>, ScenarioError> {
        let Some(text) = self.toml else {
            return Ok(None);
        };
        let mut scenario = Scenario::from_toml(text)?.with_seed(seed);
        if quick {
            shrink(&mut scenario);
        }
        scenario.validate()?;
        Ok(Some(scenario))
    }
}

/// Parameters of the `net-gossip` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetPlan {
    /// `f32` parameters per transaction: the `rounds-fmnist` model
    /// (196 -> 64 -> 10 MLP), a 53 KB frame.
    pub params: usize,
    /// Messages per closed-loop burst.
    pub burst: usize,
    /// Most messages in flight (sent, not yet applied) in a burst.
    pub window: usize,
    /// Open-loop rate in messages per second (traced run only).
    pub open_rate: f64,
    /// Most open-loop messages.
    pub open_messages: usize,
}

impl NetPlan {
    /// The plan at full or `--quick` size.
    pub fn new(quick: bool) -> Self {
        let scale = if quick { 10 } else { 1 };
        Self {
            params: 13_258,
            burst: 300 / scale,
            window: 8,
            open_rate: 200.0,
            open_messages: 2_000 / scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sim_workload_parses_validates_and_takes_the_seed() {
        for w in WORKLOADS {
            let Some(scenario) = w.scenario(7, false).unwrap() else {
                assert_eq!(w.name, "net-gossip");
                continue;
            };
            assert_eq!(scenario.name, w.name);
            assert_eq!(scenario.dataset.seed(), 7);
            assert_eq!(scenario.execution.dag().seed, 7);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            let quick = w.scenario(7, true).unwrap().unwrap();
            assert!(quick.dataset.num_clients() <= scenario.dataset.num_clients());
        }
    }

    #[test]
    fn rep_seeds_start_at_the_seed_and_do_not_collide() {
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|rep| rep_seed(42, rep)).collect();
        assert_eq!(seeds.len(), 64);
        assert_eq!(rep_seed(42, 0), 42);
        assert_ne!(rep_seed(42, 1), rep_seed(43, 1));
        let w = find("async-scale").unwrap();
        assert_eq!((w.reps_for(20.0, false), w.reps_for(20.0, true)), (8, 1));
        assert_eq!((w.reps_for(10.0, false), w.reps_for(1.0, false)), (4, 3));
    }
}
