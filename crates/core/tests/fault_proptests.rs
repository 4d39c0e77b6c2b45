//! Property tests for the fault-injection seam: an *arbitrary* valid
//! [`FaultPlan`] — any mix of drops, duplicates, reorders, latency
//! spikes, partitions and crashes — must never deadlock or panic the
//! asynchronous simulation, the replicas must converge to one digest
//! after anti-entropy reconciliation, and the same seed must reproduce
//! the same faulted run exactly.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;

use dagfl_core::{
    AsyncConfig, AsyncSimulation, CrashWindow, DagConfig, DelayModel, FaultPlan, ModelFactory,
    PartitionWindow,
};
use dagfl_datasets::{fmnist_clustered, FmnistConfig};
use dagfl_nn::{Dense, Model, Sequential};

const CLIENTS: usize = 4;

fn tiny_factory(features: usize) -> ModelFactory {
    Arc::new(move |rng: &mut StdRng| {
        Box::new(Sequential::new(vec![Box::new(Dense::new(
            rng, features, 10,
        ))])) as Box<dyn Model>
    })
}

fn faulted_sim(seed: u64, plan: FaultPlan) -> AsyncSimulation {
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: CLIENTS,
        samples_per_client: 20,
        ..FmnistConfig::default()
    });
    let features = dataset.feature_len();
    let config = AsyncConfig {
        dag: DagConfig {
            local_batches: 1,
            seed,
            ..DagConfig::default()
        },
        total_activations: 16,
        mean_interarrival: 1.0,
        delay: DelayModel::constant(1.0),
        gossip_fanout: 2,
        ..AsyncConfig::default()
    };
    AsyncSimulation::try_new_with_faults(config, dataset, tiny_factory(features), plan)
        .expect("generated plans are valid")
}

/// Draws an arbitrary valid fault plan: probabilities across their full
/// useful range, at most one partition window (possibly degenerate
/// `start == heal`) and at most one crash window (possibly never
/// restarting).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (0.0f64..0.5, 0.0f64..0.4),
        (0.0f64..0.4, 0.0f64..0.4, 0.0f64..4.0),
        vec((0.0f64..16.0, 0.0f64..10.0, 1usize..CLIENTS), 0..2),
        vec(
            (0usize..CLIENTS, 0.0f64..16.0, 0.0f64..8.0, any::<bool>()),
            0..2,
        ),
    )
        .prop_map(
            |((drop, duplicate), (reorder, extra_delay, delay_boost), partition, crash)| {
                FaultPlan {
                    drop,
                    duplicate,
                    reorder,
                    extra_delay,
                    delay_boost,
                    partition: partition
                        .into_iter()
                        .map(|(start, len, split)| PartitionWindow {
                            start,
                            heal: start + len,
                            split,
                        })
                        .next(),
                    crash: crash
                        .into_iter()
                        .map(|(peer, at, len, forever)| CrashWindow {
                            peer,
                            at,
                            restart: if forever { f64::INFINITY } else { at + len },
                        })
                        .next(),
                }
            },
        )
}

/// Everything observable about one faulted run, for exact comparison.
fn run_fingerprint(seed: u64, plan: FaultPlan) -> (usize, usize, usize, usize, Vec<u64>) {
    let mut sim = faulted_sim(seed, plan);
    sim.run().expect("faulted run completes");
    sim.reconcile_replicas();
    let m = sim.metrics();
    let digests = (0..CLIENTS).map(|c| sim.replica_digest(c)).collect();
    (
        m.delivered,
        m.dropped,
        m.duplicated,
        m.transactions,
        digests,
    )
}

proptest! {
    // Each case trains a (tiny) model for 16 activations; a handful of
    // cases already explores drops, duplicates, reorders, partitions
    // and crashes jointly without making CI crawl.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// No fault schedule may wedge the event loop: the run completes,
    /// and after reconciliation every replica holds the same tangle.
    #[test]
    fn any_fault_schedule_completes_and_converges(
        plan in arb_plan(),
        seed in 0u64..1_000,
    ) {
        let mut sim = faulted_sim(seed, plan);
        sim.run().expect("faulted run completes");
        sim.reconcile_replicas();
        let digest = sim.replica_digest(0);
        for client in 1..CLIENTS {
            prop_assert_eq!(sim.replica_digest(client), digest);
        }
    }

    /// The fault stream is derived from the master seed alone, so the
    /// same seed and plan reproduce the run bit-for-bit: same delivery
    /// counters, same tangle, same per-replica digests.
    #[test]
    fn same_seed_and_plan_reproduce_the_faulted_run(plan in arb_plan()) {
        prop_assert_eq!(
            run_fingerprint(7, plan.clone()),
            run_fingerprint(7, plan)
        );
    }
}
