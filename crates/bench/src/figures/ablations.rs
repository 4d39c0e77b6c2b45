//! Ablations of the design choices in ARCHITECTURE.md's "Data flow: one
//! client activation" (tip selection, walk start, publish gate), and the
//! random-weight flooding attack of §4.4.

use dagfl_core::{DagConfig, GarbageAttackConfig, GarbageAttackScenario, PublishGate, TipSelector};
use dagfl_scenario::{DatasetSpec, Scenario};

use crate::experiments::{late_accuracy, run_dag, task};
use crate::output::{f, int};
use crate::Session;

/// One ablation arm: what it changes in the Table 1 FMNIST configuration.
type Arm = (&'static str, fn(&mut DagConfig));

/// 1. **Publish gate** — best-parent vs averaged-reference vs always.
/// 2. **Walk-start depth band** — Popov's 15–25 vs walking from genesis.
/// 3. **Tip-selection strategy** — accuracy vs cumulative-weight vs random
///    (the Figure 3 classic bias as a third arm).
/// 4. **Accuracy-cliff guard.**
const DESIGN_ARMS: [Arm; 8] = [
    ("gate_best_parent", |c| {
        c.publish_gate = PublishGate::BestParent
    }),
    ("gate_averaged_reference", |c| {
        c.publish_gate = PublishGate::AveragedReference
    }),
    ("gate_always", |c| c.publish_gate = PublishGate::Always),
    ("walk_from_genesis", |c| {
        c.walk_depth = (u32::MAX - 1, u32::MAX)
    }),
    ("walk_depth_15_25", |c| c.walk_depth = (15, 25)),
    ("selector_cumulative_weight", |c| {
        *c = c.with_tip_selector(TipSelector::CumulativeWeight { alpha: 0.5 })
    }),
    ("selector_random", |c| {
        *c = c.with_tip_selector(TipSelector::Random)
    }),
    ("cliff_guard_0_25", |c| c.walk_stop_margin = Some(0.25)),
];

/// Each arm runs the FMNIST-clustered workload and reports final mean
/// accuracy, approval pureness and publication counts.
pub fn design_choices(session: &Session) {
    let scenario = session.scenario("table1-fmnist");
    let rows: Vec<Vec<String>> = DESIGN_ARMS
        .iter()
        .map(|(name, change)| {
            let (mut config, dataset, factory) = task(&scenario);
            change(&mut config);
            let sim = run_dag(config, dataset, factory);
            let published: usize = sim.history().iter().map(|m| m.published).sum();
            vec![
                name.to_string(),
                f(late_accuracy(
                    sim.history().iter().map(|m| m.mean_accuracy()),
                )),
                f(sim.approval_pureness()),
                int(published),
                int(sim.tangle().len()),
            ]
        })
        .collect();
    session.emit(
        "ablation_design_choices",
        "variant,late_accuracy,pureness,published,transactions",
        &rows,
    );
}

/// The garbage attack: accuracy-aware vs random tip selection. The
/// hardened arm combines the cliff guard with the best-parent publish
/// gate; the others run the paper's plain configuration.
pub fn garbage_attack(session: &Session) {
    let scale = session.scale;
    let mut rows = Vec::new();
    for (name, selector, hardened) in [
        ("accuracy+hardened", TipSelector::default(), true),
        ("accuracy", TipSelector::default(), false),
        ("random", TipSelector::Random, false),
    ] {
        let authors = DatasetSpec::FmnistAuthor {
            clients: scale.pick(10, 40),
            samples: scale.pick(80, 120),
            seed: 42,
        };
        let (_, dataset, factory) = task(&Scenario::new(name, authors));
        let (walk_stop_margin, publish_gate) = if hardened {
            (Some(0.25), PublishGate::BestParent)
        } else {
            (None, PublishGate::default())
        };
        let config = GarbageAttackConfig {
            dag: DagConfig {
                rounds: scale.pick(24, 200),
                clients_per_round: scale.pick(5, 10),
                local_batches: scale.pick(5, 10),
                walk_stop_margin,
                publish_gate,
                ..DagConfig::default()
            }
            .with_tip_selector(selector),
            clean_rounds: scale.pick(12, 100),
        };
        let mut attack = GarbageAttackScenario::new(config, dataset, factory);
        attack.run().expect("scenario failed");
        let m = attack.measure().expect("measurement failed");
        let history = attack.simulation().history();
        rows.push(vec![
            name.to_string(),
            f(late_accuracy(history.iter().map(|r| r.mean_accuracy()))),
            f(m.garbage_tip_fraction),
            f(m.garbage_in_cone),
        ]);
    }
    session.emit(
        "ablation_garbage_attack",
        "variant,late_accuracy,garbage_tip_fraction,garbage_in_reference_cone",
        &rows,
    );
}
