//! The fault matrix: each injected fault kind — drops, duplicates,
//! reorders, a partition that heals, a crash that restarts — runs a
//! loopback async session under `FaultyTransport`, and after the run
//! (plus snapshot anti-entropy for losses) every replica must hold the
//! same tangle. Identical seeds must reproduce identical faulted
//! `RunReport`s, serially or pooled.

use dagfl::dag::ModelFactory;
use dagfl::datasets::{fmnist_clustered, FmnistConfig};
use dagfl::scenario::Scale;
use dagfl::{
    AsyncConfig, AsyncSimulation, CrashWindow, DagConfig, DelayModel, FaultPlan, ModelSpec,
    PartitionWindow, Scenario, ScenarioRunner, SweepRunner, SweepSpec,
};

const CLIENTS: usize = 6;

fn mlp_factory(features: usize) -> ModelFactory {
    ModelSpec::Mlp { hidden: vec![16] }.build_factory(features, 10)
}

fn faulted(plan: FaultPlan) -> AsyncSimulation {
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: CLIENTS,
        samples_per_client: 30,
        ..FmnistConfig::default()
    });
    let features = dataset.feature_len();
    let config = AsyncConfig {
        dag: DagConfig {
            local_batches: 2,
            seed: 42,
            ..DagConfig::default()
        },
        total_activations: 40,
        mean_interarrival: 1.0,
        delay: DelayModel::constant(1.0),
        ..AsyncConfig::default()
    };
    AsyncSimulation::try_new_with_faults(config, dataset, mlp_factory(features), plan)
        .expect("plan is valid")
}

/// Runs the faulted session, reconciles, and asserts one shared digest.
fn run_and_converge(plan: FaultPlan, label: &str) -> AsyncSimulation {
    let mut sim = faulted(plan);
    sim.run().expect("faulted run completes");
    sim.reconcile_replicas();
    let digest = sim.replica_digest(0);
    for client in 1..CLIENTS {
        assert_eq!(
            sim.replica_digest(client),
            digest,
            "{label}: replica {client} diverged"
        );
    }
    sim
}

#[test]
fn dropped_messages_converge_after_reconciliation() {
    let sim = run_and_converge(
        FaultPlan {
            drop: 0.3,
            ..FaultPlan::default()
        },
        "drop",
    );
    let stats = sim.transport_stats();
    assert!(stats.dropped > 0, "a 30% drop rate must actually drop");
    assert!(stats.delivered > 0, "most messages still get through");
}

#[test]
fn duplicated_messages_are_idempotent() {
    let sim = run_and_converge(
        FaultPlan {
            duplicate: 0.4,
            ..FaultPlan::default()
        },
        "duplicate",
    );
    let stats = sim.transport_stats();
    assert!(stats.duplicated > 0, "a 40% duplicate rate must duplicate");
    // Duplicates inflate deliveries but never the tangle: nothing is
    // lost, so the replicas agree even before reconciliation ran.
}

#[test]
fn reordered_messages_converge() {
    let sim = run_and_converge(
        FaultPlan {
            reorder: 0.4,
            delay_boost: 3.0,
            ..FaultPlan::default()
        },
        "reorder",
    );
    assert!(sim.transport_stats().delivered > 0);
}

#[test]
fn partition_heals_and_both_sides_converge() {
    // Peers 0..3 vs 3..6 are cut off for a quarter of the session; the
    // held envelopes arrive at heal time, so no anti-entropy is needed
    // beyond the run itself.
    run_and_converge(
        FaultPlan {
            partition: Some(PartitionWindow {
                start: 8.0,
                heal: 18.0,
                split: 3,
            }),
            ..FaultPlan::default()
        },
        "partition",
    );
}

#[test]
fn crashed_peer_restarts_and_catches_up() {
    // Peer 5 is down for a quarter of the session and misses whatever
    // was gossiped meanwhile; reconciliation (the loopback analogue of
    // the networked snapshot rejoin) fills the gap.
    run_and_converge(
        FaultPlan {
            crash: Some(CrashWindow {
                peer: 5,
                at: 10.0,
                restart: 20.0,
            }),
            ..FaultPlan::default()
        },
        "crash",
    );
}

#[test]
fn everything_at_once_still_converges() {
    run_and_converge(
        FaultPlan {
            drop: 0.2,
            duplicate: 0.15,
            reorder: 0.15,
            extra_delay: 0.2,
            delay_boost: 2.0,
            partition: Some(PartitionWindow {
                start: 6.0,
                heal: 14.0,
                split: 2,
            }),
            crash: Some(CrashWindow {
                peer: 0,
                at: 18.0,
                restart: 26.0,
            }),
        },
        "chaos",
    );
}

#[test]
fn chaos_preset_reports_are_reproducible() {
    let run = || {
        ScenarioRunner::new(Scenario::preset_at("chaos-smoke", Scale::Quick).unwrap())
            .expect("chaos-smoke validates")
            .run()
            .expect("chaos-smoke runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same fault plan, same full report");
    let m = a.async_metrics.as_ref().expect("async metrics");
    assert!(m.dropped > 0, "the chaos preset drops messages");
    assert!(m.duplicated > 0, "the chaos preset duplicates messages");
    assert!(
        a.summary().contains("faults:"),
        "fault activity shows up in the human summary"
    );
}

#[test]
fn faulted_sweeps_are_scheduling_independent() {
    // The determinism guarantee under faults, end to end: a faulted
    // 2-cell grid with 1 worker and with 2 workers produces equal
    // reports and byte-identical comparison CSV text.
    let spec = SweepSpec::over_preset("chaos-sweep", "chaos-smoke").axis("seed", ["41", "42"]);
    let runner = SweepRunner::at_scale(spec, Scale::Quick).expect("sweep validates");
    let serial = runner.run(1).expect("serial sweep runs");
    let pooled = runner.run(2).expect("pooled sweep runs");
    assert_eq!(serial, pooled);
    assert_eq!(
        serial.comparison_csv_text().as_bytes(),
        pooled.comparison_csv_text().as_bytes()
    );
}
