//! The four simulator workloads: a harness-composed run
//! (`dataset.build()` -> `build_factory` -> `Simulation::new` /
//! `AsyncSimulation::try_new_with_faults` -> `run()`), which is exactly
//! the rounds/async arm of `ScenarioRunner::run` — proven per process by
//! one untimed `ScenarioRunner::run` whose digest must match.

use std::time::Instant;

use dagfl::dag::{tangle_digest, CoreError, ExecutionMode, ShardedModelTangle};
use dagfl::datasets::FederatedDataset;
use dagfl::scenario::{ExecutionSpec, ScenarioError};
use dagfl::tangle::{TangleRead, TangleStats, TxId};
use dagfl::tensor::Matrix;
use dagfl::{
    AsyncMetrics, AsyncSimulation, DagConfig, MatmulBackendKind, ModelSpec, Scenario,
    ScenarioRunner, Simulation,
};

use crate::canary;
use crate::json::Value;
use crate::outcome::{Budget, Checks, Opts, Outcome};
use crate::proc;
use crate::stats::median;
use crate::workload::{rep_seed, Workload};

/// Setup samples wanted per run (`setup_s` is the median) ...
pub const SETUP_SAMPLES: usize = 200;
/// ... unless topping them up would take more than this share of the run.
pub const SETUP_SHARE: f64 = 0.05;

/// Either simulator behind the calls both share. (One lives at a time and
/// it is never moved in a hot path, so the variants' size gap is moot.)
#[allow(clippy::large_enum_variant)]
pub enum Sim {
    /// Round-based.
    Rounds(Simulation),
    /// Event-driven.
    Async(AsyncSimulation),
}

/// What `dagfl run` computes after the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// `tangle_digest` of the final tangle.
    pub digest: u64,
    /// `recent_accuracy(window)`.
    pub final_accuracy: f64,
    /// Table 2 approval pureness.
    pub approval_pureness: f64,
    /// Structure of the final tangle.
    pub stats: TangleStats,
    /// Async throughput metrics.
    pub async_metrics: Option<AsyncMetrics>,
}

impl Sim {
    /// Builds the dataset, the model factory and the simulator — the
    /// `setup_s` phase.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors of the async constructor.
    pub fn build(scenario: &Scenario) -> Result<Self, ScenarioError> {
        let dataset = scenario.dataset.build();
        let factory = scenario.build_factory(&dataset);
        Ok(match &scenario.execution {
            ExecutionSpec::Rounds(dag) => Sim::Rounds(Simulation::new(*dag, dataset, factory)),
            ExecutionSpec::Async { config, .. } => {
                Sim::Async(AsyncSimulation::try_new_with_faults(
                    *config,
                    dataset,
                    factory,
                    Default::default(),
                )?)
            }
        })
    }

    /// Runs to completion — the `wall_s` phase.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run(&mut self) -> Result<(), CoreError> {
        match self {
            Sim::Rounds(sim) => sim.run().map(|_| ()),
            Sim::Async(sim) => sim.run(),
        }
    }

    /// Client activations completed so far.
    pub fn ops(&self) -> usize {
        match self {
            Sim::Rounds(sim) => sim.history().iter().map(|m| m.active_clients.len()).sum(),
            Sim::Async(sim) => sim.activations(),
        }
    }

    /// The globally visible tangle.
    pub fn tangle(&self) -> &ShardedModelTangle {
        match self {
            Sim::Rounds(sim) => sim.tangle(),
            Sim::Async(sim) => sim.tangle(),
        }
    }

    /// The dataset being trained on.
    pub fn dataset(&self) -> &FederatedDataset {
        match self {
            Sim::Rounds(sim) => sim.dataset(),
            Sim::Async(sim) => sim.dataset(),
        }
    }

    /// The shared client-loop configuration.
    pub fn dag(&self) -> &DagConfig {
        match self {
            Sim::Rounds(sim) => sim.config(),
            Sim::Async(sim) => &sim.config().dag,
        }
    }

    /// Computes what `ScenarioRunner::run` puts in its report after the
    /// run — the `report_s` phase.
    pub fn report(&self, scenario: &Scenario) -> Report {
        let window = scenario.output.recent_window;
        match self {
            Sim::Rounds(sim) => Report {
                final_accuracy: f64::from(sim.recent_accuracy(window)),
                approval_pureness: sim.specialization_metrics().approval_pureness,
                stats: ExecutionMode::tangle_stats(sim),
                digest: tangle_digest(sim.tangle()),
                async_metrics: None,
            },
            Sim::Async(sim) => {
                let metrics = sim.metrics();
                let seed = sim.config().dag.seed ^ 0xC0FF_EE00;
                Report {
                    final_accuracy: f64::from(sim.recent_accuracy(window)),
                    approval_pureness: sim.specialization_metrics_seeded(seed).approval_pureness,
                    stats: ExecutionMode::tangle_stats(sim),
                    digest: tangle_digest(sim.tangle()),
                    async_metrics: Some(metrics),
                }
            }
        }
    }
}

/// One timed repetition.
pub struct Rep {
    /// Seconds to build.
    pub setup_s: f64,
    /// Seconds to run.
    pub wall_s: f64,
    /// CPU seconds the process used while running.
    pub cpu_s: f64,
    /// [`canary::serial_reading`]s taken right after the run and right
    /// after the report.
    pub speed: [f64; 2],
    /// Seconds to report (median of a few repeats when the report is
    /// shorter than timer noise).
    pub report_s: f64,
    /// Activations completed.
    pub ops: usize,
    /// The report.
    pub report: Report,
}

/// Times `report()`; repeats it (up to five times, 50 ms in all) when one
/// call is too short to time well.
fn timed_report(sim: &Sim, scenario: &Scenario) -> (Report, f64) {
    let mut samples = Vec::new();
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let report = sim.report(scenario);
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() == 5 || started.elapsed().as_secs_f64() > 0.05 {
            return (report, median(&samples));
        }
    }
}

/// Builds, runs and reports once; also returns the finished simulator.
///
/// # Errors
///
/// Propagates build and simulation errors.
pub fn rep(scenario: &Scenario) -> Result<(Rep, Sim), ScenarioError> {
    let t = Instant::now();
    let mut sim = Sim::build(scenario)?;
    let setup_s = t.elapsed().as_secs_f64();
    let (t, cpu) = (Instant::now(), proc::cpu_time_s());
    sim.run()?;
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), proc::cpu_time_s() - cpu);
    let after_run = canary::serial_reading();
    let (report, report_s) = timed_report(&sim, scenario);
    let speed = [after_run, canary::serial_reading()];
    let rep = Rep {
        setup_s,
        wall_s,
        cpu_s,
        speed,
        report_s,
        ops: sim.ops(),
        report,
    };
    Ok((rep, sim))
}

/// Every parent id of the final tangle resolves and is smaller than its
/// child.
fn parents_are_topological(tangle: &ShardedModelTangle) -> (bool, String) {
    let mut parents = Vec::new();
    for index in 0..tangle.len() as u64 {
        let id = TxId::from_index(index);
        if tangle.parents_into(id, &mut parents).is_err() {
            return (false, format!("parents of {index} do not resolve"));
        }
        if index > 0 && parents.is_empty() {
            return (false, format!("transaction {index} has no parents"));
        }
        if let Some(bad) = parents
            .iter()
            .find(|p| p.index() >= index || !tangle.contains(**p))
        {
            return (false, format!("{index} approves {}", bad.index()));
        }
    }
    (true, format!("{} transactions", tangle.len()))
}

/// `(rows, inner, cols)` of the forward product that dominates one
/// train-batch and one test-set pass of `model`.
pub fn ladder_shapes(
    model: &ModelSpec,
    dag: &DagConfig,
    dataset: &FederatedDataset,
) -> [(usize, usize, usize); 2] {
    let test_rows = dataset.clients()[0].test_y().len().max(1);
    let (inner, cols) = match model {
        ModelSpec::Mlp { hidden } => (
            dataset.feature_len(),
            hidden.first().copied().unwrap_or(dataset.num_classes()),
        ),
        ModelSpec::Linear => (dataset.feature_len(), dataset.num_classes()),
        // The recurrent product h * U of the GRU cell.
        ModelSpec::CharRnn { hidden, .. } => (*hidden, *hidden),
    };
    [(dag.batch_size, inner, cols), (test_rows, inner, cols)]
}

/// A deterministic matrix with the sparsity of ReLU activations, so the
/// kernels' zero-skip paths are exercised like in training.
pub fn pattern_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        if (r + 2 * c + salt) % 3 == 0 {
            0.0
        } else {
            ((r * cols + c + salt) as f32 * 0.37).sin()
        }
    })
}

/// Naive and tiled kernels must agree bit for bit on the ladder shapes.
fn kernels_agree(shapes: &[(usize, usize, usize)]) -> (bool, String) {
    let (naive, tiled) = (
        MatmulBackendKind::Naive.as_dyn(),
        MatmulBackendKind::Tiled.as_dyn(),
    );
    for &(m, k, n) in shapes {
        let a = pattern_matrix(m, k, 0);
        let b = pattern_matrix(k, n, 1);
        let bt = pattern_matrix(n, k, 2);
        let g = pattern_matrix(m, n, 3);
        let pairs = [
            (naive.matmul(&a, &b), tiled.matmul(&a, &b)),
            (
                naive.matmul_transpose(&a, &bt),
                tiled.matmul_transpose(&a, &bt),
            ),
            (
                naive.transpose_matmul(&a, &g),
                tiled.transpose_matmul(&a, &g),
            ),
        ];
        for (x, y) in pairs {
            let same = match (x, y) {
                (Ok(x), Ok(y)) => {
                    x.shape() == y.shape()
                        && x.as_slice()
                            .iter()
                            .zip(y.as_slice())
                            .all(|(p, q)| p.to_bits() == q.to_bits())
                }
                _ => false,
            };
            if !same {
                return (false, format!("kernels differ at {m}x{k}x{n}"));
            }
        }
    }
    (true, format!("{shapes:?}"))
}

/// A fiftieth-scale twin of an async scenario: small enough that
/// `reconcile_replicas` (quadratic in clients) finishes in milliseconds.
pub fn reconcile_twin(scenario: &Scenario) -> Option<Scenario> {
    let mut twin = scenario.clone();
    let ExecutionSpec::Async { config, .. } = &mut twin.execution else {
        return None;
    };
    config.total_activations = (config.total_activations / 50).clamp(40, 400);
    if let dagfl::DatasetSpec::FmnistStreamed { clients, .. } = &mut twin.dataset {
        *clients = (*clients / 50).clamp(10, 100);
    }
    Some(twin)
}

/// Transport accounting must balance once everything in flight has been
/// delivered: `sent = delivered + dropped - duplicated`, and every
/// replica must then hold the same tangle. Returns the reconcile time.
pub fn transport_balance(scenario: &Scenario, checks: &mut Checks) -> Result<f64, ScenarioError> {
    let Some(twin) = reconcile_twin(scenario) else {
        return Ok(0.0);
    };
    let Sim::Async(mut sim) = Sim::build(&twin)? else {
        return Ok(0.0);
    };
    sim.run()?;
    let t = Instant::now();
    sim.reconcile_replicas();
    let reconcile_s = t.elapsed().as_secs_f64();
    let stats = sim.transport_stats();
    let sent = stats.latency_count;
    checks.check(
        "transport stats balance (sent = delivered + dropped - duplicated)",
        sent + stats.duplicated == stats.delivered + stats.dropped,
        format!(
            "sent {sent} delivered {} dropped {} duplicated {}",
            stats.delivered, stats.dropped, stats.duplicated
        ),
    );
    let first = sim.replica_digest(0);
    let agree = (1..sim.dataset().num_clients()).all(|c| sim.replica_digest(c) == first);
    checks.check(
        "replica digests agree after anti-entropy",
        agree && sim.pending_deliveries() == 0,
        format!("digest {first:#018x}, pending {}", sim.pending_deliveries()),
    );
    Ok(reconcile_s)
}

/// The checks every simulator run executes. `same_seed` holds the reports
/// of every run of the base seed (at least one), `reference` is the
/// `ScenarioRunner` run of that seed.
pub fn run_checks(
    scenario: &Scenario,
    same_seed: &[Report],
    reference: &dagfl::RunReport,
    last: &Sim,
    checks: &mut Checks,
) {
    let first = &same_seed[0];
    let runs = same_seed.len() + 1;
    checks.check(
        "all runs of a seed give one digest; composed digest == ScenarioRunner digest",
        same_seed
            .iter()
            .all(|r| r.digest == reference.tangle_digest),
        format!(
            "{runs} runs, composed {:#018x}, ScenarioRunner {:#018x}",
            first.digest, reference.tangle_digest
        ),
    );
    checks.check(
        "all runs of a seed give one final_accuracy and one approval_pureness",
        same_seed.iter().all(|r| {
            r.final_accuracy == f64::from(reference.recent_accuracy)
                && r.approval_pureness == reference.specialization.approval_pureness
        }),
        format!(
            "accuracy {} pureness {}",
            first.final_accuracy, first.approval_pureness
        ),
    );
    let (ok, note) = parents_are_topological(last.tangle());
    checks.check("every parent resolves and precedes its child", ok, note);
    let (ok, note) = kernels_agree(&ladder_shapes(&scenario.model, last.dag(), last.dataset()));
    checks.check(
        "naive and tiled kernels bit-identical on the ladder shapes",
        ok,
        note,
    );
}

/// `final_accuracy` must beat twice the chance level on every seed run.
pub fn check_learning(reports: &[Report], classes: usize, checks: &mut Checks) {
    let chance = 1.0 / classes as f64;
    let worst = reports
        .iter()
        .map(|r| r.final_accuracy)
        .fold(f64::INFINITY, f64::min);
    checks.check(
        "final_accuracy > 2x chance",
        worst > 2.0 * chance,
        format!(
            "lowest of {} seeds {worst} vs chance {chance:.4}",
            reports.len()
        ),
    );
}

/// Details every simulator run writes to its result file.
pub fn detail(outcome: &mut Outcome, report: &Report, reps: usize) {
    outcome.detail.extend([
        ("reps", Value::from(reps)),
        (
            "tangle_digest",
            Value::from(format!("{:#018x}", report.digest)),
        ),
        ("final_accuracy", Value::from(report.final_accuracy)),
        ("approval_pureness", Value::from(report.approval_pureness)),
        ("transactions", Value::from(report.stats.transactions)),
        ("tips", Value::from(report.stats.tips)),
        ("max_depth", Value::from(report.stats.max_depth as usize)),
    ]);
}

/// Whether the scenario runs one compute-bound thread per active client
/// (rounds mode, `parallel = true`), so that its wall time is set by how
/// much of *both* cores the host grants: `wall_s` is then restated by the
/// 2-thread canary reading (see [`canary::host_normalised`]).
pub fn keeps_both_cores_busy(scenario: &Scenario) -> bool {
    matches!(&scenario.execution, ExecutionSpec::Rounds(dag) if dag.parallel && dag.clients_per_round > 1)
}

/// Whether the scenario runs on one thread (async mode, `workers = 1`):
/// `wall_s` is then the CPU time of the run, restated by the 1-thread
/// canary reading. The 2-thread reading does not track a serial event loop
/// (normalising by it took `async-scale` from 7.7 % to 14.4 % spread).
pub fn keeps_one_core_busy(scenario: &Scenario) -> bool {
    matches!(&scenario.execution, ExecutionSpec::Async { config, .. } if config.workers <= 1)
}

/// The untraced end-to-end run of a simulator workload: a fixed number
/// of reps, each on its own seed (see [`rep_seed`]), every value the median
/// over reps of times restated at the reference box's usual speed.
///
/// # Errors
///
/// Propagates scenario and simulation errors (the run is then reported as
/// failed by the caller).
pub fn run_e2e(workload: &Workload, opts: &Opts) -> Result<Outcome, ScenarioError> {
    let scenario_of = |rep: usize| -> Result<Scenario, ScenarioError> {
        Ok(workload
            .scenario(rep_seed(opts.seed, rep), opts.quick)?
            .expect("a simulator workload has a scenario"))
    };
    let mut outcome = Outcome::default();
    let base = scenario_of(0)?;
    // Untimed warm-up, which doubles as the reference run.
    let reference = ScenarioRunner::new(base.clone())?.run()?;

    let (both, one) = (keeps_both_cores_busy(&base), keeps_one_core_busy(&base));
    let budget = Budget::start(opts.seconds);
    let planned = workload.reps_for(opts.seconds, opts.quick);
    let mut reps: Vec<Rep> = Vec::new();
    let mut last: Option<Sim> = None;
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    let (mut setup, mut top_up_s) = (Vec::new(), 0.0);
    for index in 0..planned {
        // On a box much slower than the reference the fixed count would
        // overrun the caller's time limit; stop at twice the budget.
        if index >= 3 && budget.spent() > 2.0 * opts.seconds {
            break;
        }
        // Drop the previous simulator first: two alive at once would
        // double `peak_rss_mb`, and a simulator built while another lives
        // needs memory the process never touched (first-touch page faults
        // cost this VM several times what the build itself does).
        drop(last.take());
        let speed = canary::serial_reading();
        let at_usual_speed = |s: f64| s * canary::REFERENCE_SERIAL_S / speed;
        // Cheap set-ups are topped up with build-and-drop samples so the
        // median rests on more than a handful of sub-millisecond readings:
        // an equal share before every rep, not all at once. 200 set-ups of
        // `rounds-poets` last a tenth of a second, and taken in one go their
        // median read what the shared host did in that tenth (0.39-0.82 ms
        // over ten runs of one binary).
        let share = (index + 1) as f64 / planned as f64;
        while !opts.quick
            && (setup.len() as f64) < share * SETUP_SAMPLES as f64
            && top_up_s + median(&setup) <= share * SETUP_SHARE * opts.seconds
        {
            let t = Instant::now();
            drop(Sim::build(&base)?);
            let s = t.elapsed().as_secs_f64();
            setup.push(at_usual_speed(s));
            top_up_s += s;
        }
        if both {
            parallel.push(canary::parallel_reading());
        }
        let (next, sim) = rep(&scenario_of(index)?)?;
        outcome.attempted += next.ops as u64;
        setup.push(at_usual_speed(next.setup_s));
        serial.push(speed);
        reps.push(next);
        last = Some(sim);
    }
    if both {
        parallel.push(canary::parallel_reading());
    }
    let reports: Vec<Report> = reps.iter().map(|r| r.report.clone()).collect();
    {
        let last = last.expect("at least one rep ran");
        run_checks(&base, &reports[..1], &reference, &last, &mut outcome.checks);
        check_learning(&reports, last.dataset().num_classes(), &mut outcome.checks);
    }

    let raw_wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let cpu: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let wall: Vec<f64> = if both {
        canary::host_normalised(&raw_wall, &parallel, canary::REFERENCE_PARALLEL_S)
    } else if one {
        reps.iter()
            .zip(&serial)
            .map(|(r, before)| {
                canary::restated(r.cpu_s, [*before, r.speed[0]], canary::REFERENCE_SERIAL_S)
            })
            .collect()
    } else {
        raw_wall.clone()
    };
    let rate: Vec<f64> = reps
        .iter()
        .zip(&wall)
        .map(|(r, w)| r.ops as f64 / w)
        .collect();
    let report: Vec<f64> = reps
        .iter()
        .map(|r| canary::restated(r.report_s, r.speed, canary::REFERENCE_SERIAL_S))
        .collect();
    outcome.timed("setup_s", &setup);
    outcome.timed("wall_s", &wall);
    outcome.timed("ops_per_s", &rate);
    outcome.timed("report_s", &report);
    transport_balance(&base, &mut outcome.checks)?;
    detail(&mut outcome, &reports[0], reps.len());
    outcome.detail.extend([
        ("raw_wall_s", Value::from(raw_wall.as_slice())),
        ("cpu_s", Value::from(cpu.as_slice())),
        ("serial_reading_s", Value::from(serial.as_slice())),
        ("parallel_reading_s", Value::from(parallel.as_slice())),
    ]);
    Ok(outcome)
}
