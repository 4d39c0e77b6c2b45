//! The traced run: repeats a workload with spans recorded from the
//! benchmark's own files around each call into a layer, then walks the
//! cost ladder on the state the run left behind.
//!
//! Part A steps the real simulators through their public `run_round()` /
//! `step()` with one span per call and copies the program's own counters.
//! Part B is the ladder (`ladder.rs`). End-to-end metrics always come
//! from the untraced run (`sim.rs`, `net.rs`); here an untraced rep runs
//! only as the baseline of `trace.overhead_share`.

use std::io;
use std::path::Path;
use std::time::Instant;

use dagfl::scenario::{ExecutionSpec, ScenarioError};
use dagfl::{EvalCounters, Scenario, ScenarioRunner, Transport};

use crate::alloc::{self, AllocCount};
use crate::json::Value;
use crate::ladder::{messages_of, sample_message, Ladder, CLIENT_SHARES, REPLICA_MESSAGES};
use crate::net::{self, Link};
use crate::outcome::{Budget, Opts, Outcome};
use crate::proc::{self, ProcSample};
use crate::sim::{self, ladder_shapes, Report, Sim};
use crate::span::Tracer;
use crate::stats::{median, quantile};
use crate::workload::{NetPlan, Workload};

/// Most untraced/traced pairs behind `trace.overhead_share`.
const MAX_PAIRS: usize = 2;
/// ... and of `net-gossip`, whose bursts are a hundredth of a simulator
/// run: two of them would make `trace.overhead_share` a coin toss.
const NET_PAIRS: usize = 20;
/// Share of the time budget the pairs may use; the ladder gets the rest.
const PAIR_SHARE: f64 = 0.6;
/// Timed rungs a simulator ladder runs (sizes each rung's time slice).
const SIM_RUNGS: f64 = 45.0;
/// Longest time slice of one rung (an unhurried run: 5 batches of 60 ms).
const MAX_RUNG_S: f64 = 0.3;
/// Shortest time slice of one rung, however little of `--seconds` is left:
/// below 10 ms per batch the rungs stop repeating within a tenth.
const MIN_RUNG_S: f64 = 0.05;

/// One untraced rep with the process counters around `run()`.
struct Plain {
    setup_s: f64,
    wall_s: f64,
    report_s: f64,
    process: ProcSample,
    report: Report,
    sim: Sim,
}

fn plain_rep(scenario: &Scenario) -> Result<Plain, ScenarioError> {
    let t = Instant::now();
    let mut sim = Sim::build(scenario)?;
    let setup_s = t.elapsed().as_secs_f64();
    let before = proc::sample();
    let t = Instant::now();
    sim.run()?;
    let wall_s = t.elapsed().as_secs_f64();
    let process = proc::sample().since(before);
    let t = Instant::now();
    let report = sim.report(scenario);
    Ok(Plain {
        setup_s,
        wall_s,
        report_s: t.elapsed().as_secs_f64(),
        process,
        report,
        sim,
    })
}

/// The program's own counters, copied while stepping.
#[derive(Debug, Default)]
struct Stepped {
    wall_s: f64,
    published: usize,
    activations: usize,
    evals: EvalCounters,
    allocs: AllocCount,
}

/// Part A: the same run, one span per public scheduling call.
fn stepped_rep(
    scenario: &Scenario,
    tracer: &mut Tracer,
) -> Result<(Stepped, Report), ScenarioError> {
    let mut sim = Sim::build(scenario)?;
    let mut out = Stepped::default();
    let t = Instant::now();
    let (result, allocs) = alloc::counted(|| -> Result<(), ScenarioError> {
        match &mut sim {
            Sim::Rounds(sim) => {
                for round in 0..sim.config().rounds {
                    let id = tracer.enter("core.simulation.run_round", round as u64);
                    let metrics = sim.run_round()?;
                    tracer.exit(id);
                    out.published += metrics.published;
                    out.activations += metrics.active_clients.len();
                    out.evals.fresh += metrics.fresh_evaluations;
                    out.evals.cached += metrics.cached_evaluations;
                }
            }
            Sim::Async(sim) => {
                let total = sim.config().total_activations;
                while sim.activations() < total {
                    let id = tracer.enter("core.async_sim.step", sim.activations() as u64);
                    let record = sim.step()?;
                    tracer.exit(id);
                    out.published += usize::from(record.published);
                    out.activations += 1;
                }
            }
        }
        Ok(())
    });
    result?;
    out.wall_s = t.elapsed().as_secs_f64();
    out.allocs = allocs;
    let report = sim.report(scenario);
    if let Some(metrics) = &report.async_metrics {
        out.evals = EvalCounters {
            fresh: metrics.fresh_evaluations,
            cached: metrics.cached_evaluations,
        };
    }
    Ok((out, report))
}

/// The scenario with the one concurrency knob of its mode flipped:
/// `parallel` for rounds, `workers` 1 <-> 2 for async.
fn flipped(scenario: &Scenario) -> Scenario {
    let mut other = scenario.clone();
    match &mut other.execution {
        ExecutionSpec::Rounds(dag) => dag.parallel = !dag.parallel,
        ExecutionSpec::Async { config, .. } => {
            config.workers = if config.workers == 1 { 2 } else { 1 };
        }
    }
    other
}

/// Whether the scenario runs its clients on one thread.
fn is_serial(scenario: &Scenario) -> bool {
    match &scenario.execution {
        ExecutionSpec::Rounds(dag) => !dag.parallel,
        ExecutionSpec::Async { config, .. } => config.workers == 1,
    }
}

fn write_trace(tracer: &Tracer, out_dir: Option<&Path>, workload: &str, outcome: &mut Outcome) {
    let Some(dir) = out_dir else {
        return;
    };
    let path = dir.join(format!("trace-{workload}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => outcome.detail.extend([
            ("trace_file", Value::from(path.display().to_string())),
            ("trace_spans", Value::from(tracer.spans().len())),
        ]),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn process_metrics(outcome: &mut Outcome, process: ProcSample, wall_s: f64, allocs: AllocCount) {
    let m = &mut outcome.metrics;
    m.set("process.cpu_user_s", process.user_s);
    m.set("process.cpu_sys_s", process.sys_s);
    m.set(
        "process.cpu_per_wall",
        (process.user_s + process.sys_s) / wall_s,
    );
    m.set("process.minor_faults", process.minor_faults as f64);
    m.set("process.allocs", allocs.calls as f64);
    m.set("process.alloc_mb", allocs.bytes as f64 / 1e6);
}

/// The traced run of a simulator workload.
///
/// # Errors
///
/// Propagates scenario and simulation errors.
pub fn run_sim(
    workload: &Workload,
    scenario: &Scenario,
    opts: &Opts,
    out_dir: Option<&Path>,
) -> Result<Outcome, ScenarioError> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new();
    let budget = Budget::start(opts.seconds);

    // Untimed warm-up, which doubles as the reference run. From here to
    // the ladder at most one simulator is alive at a time: a second one
    // would need memory the process never touched, and first-touch page
    // faults cost this VM several times what the run itself does.
    let runner = ScenarioRunner::new(scenario.clone())?;
    let reference = runner.run()?;

    // What `dagfl run` does, start to end, against the composed
    // build + run + report of the same (now warm) process.
    let t = Instant::now();
    let again = runner.run()?;
    let runner_s = t.elapsed().as_secs_f64();
    outcome.checks.check(
        "ScenarioRunner is reproducible within the process",
        // Not `again == reference`: reports may legitimately hold NaN
        // (e.g. an undefined silhouette), which never equals itself.
        again.tangle_digest == reference.tangle_digest
            && again.recent_accuracy == reference.recent_accuracy
            && again.specialization.approval_pureness == reference.specialization.approval_pureness,
        format!("digest {:#018x}", again.tangle_digest),
    );
    drop(again);

    // The same run with its concurrency knob flipped.
    let other = plain_rep(&flipped(scenario))?;
    outcome.attempted += other.sim.ops() as u64;
    let (flipped_wall_s, flipped_digest) = (other.wall_s, other.report.digest);
    let flipped_process = other.process;
    drop(other);

    let (mut plain, mut stepped, mut composed_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut reports = Vec::new();
    let mut last: Option<Plain> = None;
    let mut counters = Stepped::default();
    let mut pair_cost = 0.0f64;
    while plain.is_empty()
        || (!opts.quick
            && plain.len() < MAX_PAIRS
            && budget.spent() + pair_cost <= PAIR_SHARE * opts.seconds)
    {
        let t = Instant::now();
        drop(last.take());
        let (step, report) = stepped_rep(scenario, &mut tracer)?;
        stepped.push(step.wall_s);
        reports.push(report);
        outcome.attempted += step.activations as u64;
        counters = step;
        let rep = plain_rep(scenario)?;
        plain.push(rep.wall_s);
        composed_s.push(rep.setup_s + rep.wall_s + rep.report_s);
        reports.push(rep.report.clone());
        outcome.attempted += rep.sim.ops() as u64;
        last = Some(rep);
        pair_cost = pair_cost.max(t.elapsed().as_secs_f64());
    }
    let last = last.expect("at least one pair ran");
    let wall_s = median(&plain);
    outcome.checks.check(
        "digest independent of parallel / workers",
        flipped_digest == last.report.digest,
        format!("{flipped_digest:#018x} vs {:#018x}", last.report.digest),
    );
    let (serial_s, concurrent_s) = if is_serial(scenario) {
        (wall_s, flipped_wall_s)
    } else {
        (flipped_wall_s, wall_s)
    };

    let m = &mut outcome.metrics;
    m.set("trace.overhead_share", (median(&stepped) - wall_s) / wall_s);
    m.set(
        "scenario.runner_overhead_share",
        (runner_s - median(&composed_s)) / median(&composed_s),
    );
    m.set("core.evaluator.fresh_evals", counters.evals.fresh as f64);
    m.set("core.evaluator.cached_evals", counters.evals.cached as f64);
    m.set("core.evaluator.fresh_ratio", counters.evals.fresh_ratio());
    m.set("quality.final_accuracy", last.report.final_accuracy);
    m.set("quality.approval_pureness", last.report.approval_pureness);
    let published_share = counters.published as f64 / counters.activations.max(1) as f64;
    match &last.sim {
        Sim::Rounds(_) => {
            let rounds = tracer.durations("core.simulation.run_round");
            m.set("core.simulation.run_round.p50_ms", median(&rounds) * 1e3);
            m.set(
                "core.simulation.run_round.p99_ms",
                quantile(&rounds, 0.99) * 1e3,
            );
            m.set("core.simulation.parallel_speedup", serial_s / concurrent_s);
            m.set("core.simulation.published_share", published_share);
        }
        Sim::Async(sim) => {
            let steps = tracer.durations("core.async_sim.step");
            m.set("core.async_sim.step.p50_us", median(&steps) * 1e6);
            m.set("core.async_sim.step.p99_us", quantile(&steps, 0.99) * 1e6);
            m.set("core.async_sim.workers_speedup", serial_s / concurrent_s);
            m.set("core.async_sim.flipped.cpu_sys_s", flipped_process.sys_s);
            m.set(
                "core.async_sim.flipped.cpu_per_wall",
                (flipped_process.user_s + flipped_process.sys_s) / flipped_wall_s,
            );
            m.set(
                "core.async_sim.flipped.minor_faults",
                flipped_process.minor_faults as f64,
            );
            if let Some(metrics) = &last.report.async_metrics {
                m.set("core.async_sim.stale_fraction", metrics.stale_fraction());
                m.set(
                    "core.async_sim.publish_fraction",
                    metrics.publish_fraction(),
                );
                m.set("core.transport.delivered", metrics.delivered as f64);
                m.set("core.transport.dropped", metrics.dropped as f64);
                m.set("core.transport.duplicated", metrics.duplicated as f64);
            }
            m.set(
                "core.transport.sent",
                sim.transport_stats().latency_count as f64,
            );
        }
    }
    process_metrics(
        &mut outcome,
        last.process,
        *plain.last().expect("a pair ran"),
        counters.allocs,
    );
    let reconcile_s = sim::transport_balance(scenario, &mut outcome.checks)?;
    if reconcile_s > 0.0 {
        outcome
            .metrics
            .set("core.async_sim.reconcile.ms", reconcile_s * 1e3);
    }

    // Part B: the ladder, on the final state of the last untraced rep.
    let rung_s = if opts.quick {
        0.002
    } else {
        (budget.left() / SIM_RUNGS).clamp(MIN_RUNG_S, MAX_RUNG_S)
    };
    let mut sim = last.sim;
    let dag = *sim.dag();
    let factory = scenario.build_factory(sim.dataset());
    let seed = opts.seed;
    let mut ladder = Ladder::new(&mut tracer, rung_s);
    ladder.tensor(ladder_shapes(&scenario.model, &dag, sim.dataset()));
    ladder.nn(&factory, &sim.dataset().clients()[0], &dag, seed);
    ladder.tangle(sim.tangle(), &dag, seed);
    ladder.walk(
        &factory,
        sim.tangle(),
        &sim.dataset().clients()[0],
        &dag,
        seed,
    );
    // As many activations per ladder client as it takes for their walks to
    // hit the cache as often as the run's did.
    let per_client = (1.0 / counters.evals.fresh_ratio().max(0.125)).round() as usize;
    ladder.client(&factory, &sim, seed, per_client)?;
    let genesis = sim
        .tangle()
        .iter()
        .next()
        .expect("a tangle has a genesis")
        .payload()
        .clone();
    let messages = messages_of(sim.tangle(), REPLICA_MESSAGES);
    ladder.replica(&genesis, &messages);
    let sample = sample_message(genesis.share());
    ladder.transport(scenario, sim.dataset().num_clients(), &sample, seed);
    ladder.wire(&sample);
    ladder.datasets(scenario, &dag, seed);
    ladder.report(&sim, seed);
    if let Sim::Rounds(sim) = &mut sim {
        ladder.analysis(sim, seed)?;
    }
    ladder.scenario(workload.toml.unwrap_or_default());
    let mut measured = ladder.metrics;
    if let Some(train_us) = measured.get("nn.train_batch.us") {
        let steps = (counters.activations * dag.local_epochs * dag.local_batches) as f64;
        measured.set("nn.train_share", steps * train_us / 1e6 / serial_s);
    }
    let shares: f64 = CLIENT_SHARES
        .iter()
        .filter_map(|(metric, _)| measured.get(metric))
        .sum();
    outcome.checks.check(
        "the five core.client.share.* sum to >= 0.9",
        shares >= 0.9,
        format!("sum {shares:.4}"),
    );
    outcome.metrics.merge(measured);

    sim::run_checks(scenario, &reports, &reference, &sim, &mut outcome.checks);
    sim::check_learning(
        &reports[..1],
        sim.dataset().num_classes(),
        &mut outcome.checks,
    );
    sim::detail(&mut outcome, &reports[0], plain.len());
    outcome.detail.extend([
        ("untraced_wall_s", Value::from(plain.as_slice())),
        ("traced_wall_s", Value::from(stepped.as_slice())),
        (
            "flipped_wall_s",
            Value::from(if is_serial(scenario) {
                concurrent_s
            } else {
                serial_s
            }),
        ),
        ("scenario_runner_s", Value::from(runner_s)),
    ]);
    write_trace(&tracer, out_dir, workload.name, &mut outcome);
    Ok(outcome)
}

/// The traced run of `net-gossip`: untraced/traced closed-loop bursts,
/// the open-loop phase, then the replica and wire rungs.
///
/// # Errors
///
/// Propagates socket errors from connecting.
pub fn run_net(workload: &Workload, opts: &Opts, out_dir: Option<&Path>) -> io::Result<Outcome> {
    let plan = NetPlan::new(opts.quick);
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new();
    let budget = Budget::start(opts.seconds);
    let open_s = if opts.quick {
        0.5
    } else {
        (0.5 * opts.seconds).min(10.0)
    };
    let open_count = ((plan.open_rate * open_s) as usize).clamp(1, plan.open_messages);
    let (genesis, messages) = net::generate(&plan, plan.burst.max(open_count), opts.seed);
    let burst = &messages[..plan.burst];
    // The process the end-to-end run measures: one CPU, untrimmed heap.
    let cpu = proc::pin_to_one_cpu();
    proc::keep_freed_memory();

    let connects: Vec<f64> = (0..3)
        .map(|_| Link::connect().map(|link| link.connect_s))
        .collect::<io::Result<_>>()?;
    let mut link = Link::connect()?;
    let warm = net::run_phase(&mut link, &genesis, burst, plan.window, None, None);
    let mut sent = warm.applied;
    drop(warm);

    let (mut plain, mut traced, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let (mut send_s, mut receive_apply_s) = (Vec::new(), Vec::new());
    let mut process = ProcSample::default();
    let mut allocs = AllocCount::default();
    let mut pair_cost = 0.0f64;
    while plain.is_empty()
        || (!opts.quick
            && plain.len() < NET_PAIRS
            && budget.spent() + pair_cost <= 0.5 * PAIR_SHARE * opts.seconds)
    {
        let t = Instant::now();
        let before = proc::sample();
        let phase = net::run_phase(&mut link, &genesis, burst, plan.window, None, None);
        process = proc::sample().since(before);
        plain.push(phase.wall_s);
        digests.push(net::report(&phase));
        outcome.errored += phase.errored as u64;
        sent += phase.applied;
        drop(phase);
        let (phase, count) = alloc::counted(|| {
            net::run_phase(
                &mut link,
                &genesis,
                burst,
                plan.window,
                None,
                Some(&mut tracer),
            )
        });
        allocs = count;
        traced.push(phase.wall_s);
        send_s.extend_from_slice(&phase.send_s);
        receive_apply_s.push(phase.receive_apply_s);
        digests.push(net::report(&phase));
        outcome.errored += phase.errored as u64;
        sent += phase.applied;
        outcome.attempted += 2 * burst.len() as u64;
        pair_cost = pair_cost.max(t.elapsed().as_secs_f64());
    }
    let wall_s = median(&plain);

    // Phase A: open loop. Each message is timed from when it was due.
    let open = net::run_phase(
        &mut link,
        &genesis,
        &messages[..open_count],
        usize::MAX,
        Some(plan.open_rate),
        None,
    );
    outcome.attempted += open_count as u64;
    outcome.errored += open.errored as u64;
    sent += open.applied;
    digests.push(net::report(&open));

    let frame_bytes =
        dagfl::dag::wire::encode(&dagfl::dag::WireMessage::Transaction(burst[0].clone())).len();
    let m = &mut outcome.metrics;
    m.set("core.net.connect.ms", median(&connects) * 1e3);
    m.set("core.net.send_to_conn.us", median(&send_s) * 1e6);
    m.set("core.net.receive_apply.us", median(&receive_apply_s) * 1e6);
    m.set(
        "core.net.burst.mb_s",
        (frame_bytes * burst.len()) as f64 / 1e6 / wall_s,
    );
    m.set("core.net.deliver.p50_ms", median(&open.deliver_s) * 1e3);
    m.set(
        "core.net.deliver.p99_ms",
        quantile(&open.deliver_s, 0.99) * 1e3,
    );
    m.set(
        "core.net.generator_late.p99_ms",
        quantile(&open.late_s, 0.99) * 1e3,
    );
    m.set("trace.overhead_share", (median(&traced) - wall_s) / wall_s);
    drop(open);
    net::check_digests(&digests, &mut outcome.checks);
    let stats = net::check_delivery(&link, sent, &mut outcome.checks);
    outcome.metrics.set(
        "core.net.dropped",
        (stats.dropped + link.sender.stats().dropped) as f64,
    );
    process_metrics(
        &mut outcome,
        process,
        *plain.last().expect("a pair ran"),
        allocs,
    );
    drop(link);

    let rung_s = if opts.quick {
        0.002
    } else {
        (budget.left() / 8.0).clamp(MIN_RUNG_S, MAX_RUNG_S)
    };
    let mut ladder = Ladder::new(&mut tracer, rung_s);
    ladder.replica(&genesis, burst);
    ladder.wire(&burst[0]);
    outcome.metrics.merge(ladder.metrics);
    outcome.detail.extend([
        ("reps", Value::from(plain.len())),
        ("burst_messages", Value::from(burst.len())),
        ("open_loop_messages", Value::from(open_count)),
        ("open_loop_rate_per_s", Value::from(plan.open_rate)),
        ("pinned_cpu", cpu.map_or(Value::Null, Value::from)),
    ]);
    write_trace(&tracer, out_dir, workload.name, &mut outcome);
    Ok(outcome)
}
