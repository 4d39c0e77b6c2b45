//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Publish gate** — best-parent vs averaged-reference vs always.
//! 2. **Walk-start depth band** — Popov's 15–25 vs walking from genesis.
//! 3. **Tip-selection strategy** — accuracy vs cumulative-weight vs random
//!    (the Figure 3 classic bias as a third arm).
//!
//! Each arm runs the FMNIST-clustered workload and reports final mean
//! accuracy, approval pureness and publication counts.

use dagfl_bench::experiments::{run_dag, table1, task};
use dagfl_bench::output::{emit, f, f32c, int};
use dagfl_bench::Scale;
use dagfl_core::{DagConfig, PublishGate, TipSelector};
use dagfl_scenario::Scenario;

fn run(config: DagConfig, scenario: &Scenario) -> (f32, f64, usize, usize) {
    let (_, dataset, factory) = task(scenario);
    let sim = run_dag(config, dataset, factory);
    let late: f32 = sim
        .history()
        .iter()
        .rev()
        .take(5)
        .map(|m| m.mean_accuracy())
        .sum::<f32>()
        / 5.0;
    let published: usize = sim.history().iter().map(|m| m.published).sum();
    (late, sim.approval_pureness(), published, sim.tangle().len())
}

fn main() {
    let scenario = table1("fmnist", Scale::from_env());
    let base = *scenario.execution.dag();
    let mut rows = Vec::new();
    let mut record = |name: &str, config: DagConfig| {
        let (acc, pureness, published, txs) = run(config, &scenario);
        rows.push(vec![
            name.to_string(),
            f32c(acc),
            f(pureness),
            int(published),
            int(txs),
        ]);
    };

    // 1. Publish gate.
    record(
        "gate_best_parent",
        DagConfig {
            publish_gate: PublishGate::BestParent,
            ..base
        },
    );
    record(
        "gate_averaged_reference",
        DagConfig {
            publish_gate: PublishGate::AveragedReference,
            ..base
        },
    );
    record(
        "gate_always",
        DagConfig {
            publish_gate: PublishGate::Always,
            ..base
        },
    );

    // 2. Walk-start depth band.
    record(
        "walk_from_genesis",
        DagConfig {
            walk_depth: (u32::MAX - 1, u32::MAX),
            ..base
        },
    );
    record(
        "walk_depth_15_25",
        DagConfig {
            walk_depth: (15, 25),
            ..base
        },
    );

    // 3. Tip-selection strategy.
    record(
        "selector_cumulative_weight",
        base.with_tip_selector(TipSelector::CumulativeWeight { alpha: 0.5 }),
    );
    record(
        "selector_random",
        base.with_tip_selector(TipSelector::Random),
    );

    // 4. Accuracy-cliff guard.
    record(
        "cliff_guard_0_25",
        DagConfig {
            walk_stop_margin: Some(0.25),
            ..base
        },
    );

    emit(
        "ablation_design_choices",
        &[
            "variant",
            "late_accuracy",
            "pureness",
            "published",
            "transactions",
        ],
        &rows,
    );
}
