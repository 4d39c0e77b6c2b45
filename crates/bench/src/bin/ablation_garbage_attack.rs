//! The random-weight flooding attack (§4.4, argued but not measured in the
//! paper): accuracy-aware vs random tip selection, with and without the
//! accuracy-cliff guard.
//!
//! Expected shape: the random selector lets garbage into references
//! freely; the accuracy selector avoids it; the cliff guard eliminates the
//! remaining *forced* selections (paths whose only continuation is
//! garbage).

use dagfl_bench::experiments::task;
use dagfl_bench::output::{emit, f, f32c};
use dagfl_bench::Scale;
use dagfl_core::{DagConfig, GarbageAttackConfig, GarbageAttackScenario, PublishGate, TipSelector};
use dagfl_scenario::{DatasetSpec, Scenario};

fn main() {
    let scale = Scale::from_env();
    let mut rows = Vec::new();
    // The hardened arm combines the cliff guard with the best-parent
    // publish gate; the others run the paper's plain configuration.
    let arms: [(&str, TipSelector, Option<f32>, PublishGate); 3] = [
        (
            "accuracy+hardened",
            TipSelector::default(),
            Some(0.25),
            PublishGate::BestParent,
        ),
        (
            "accuracy",
            TipSelector::default(),
            None,
            PublishGate::default(),
        ),
        ("random", TipSelector::Random, None, PublishGate::default()),
    ];
    for (name, selector, margin, gate) in arms {
        let authors = DatasetSpec::FmnistAuthor {
            clients: scale.pick(10, 40),
            samples: scale.pick(80, 120),
            seed: 42,
        };
        let (_, dataset, factory) = task(&Scenario::new(name, authors));
        let config = GarbageAttackConfig {
            dag: DagConfig {
                rounds: scale.pick(24, 200),
                clients_per_round: scale.pick(5, 10),
                local_batches: scale.pick(5, 10),
                walk_stop_margin: margin,
                publish_gate: gate,
                ..DagConfig::default()
            }
            .with_tip_selector(selector),
            clean_rounds: scale.pick(12, 100),
            attacks_per_round: 1,
            weight_scale: 1.0,
        };
        let mut scenario = GarbageAttackScenario::new(config, dataset, factory);
        scenario.run().expect("scenario failed");
        let m = scenario.measure().expect("measurement failed");
        let late = scenario
            .simulation()
            .history()
            .iter()
            .rev()
            .take(5)
            .map(|r| r.mean_accuracy())
            .sum::<f32>()
            / 5.0;
        rows.push(vec![
            name.to_string(),
            f32c(late),
            f(m.garbage_tip_fraction),
            f(m.garbage_in_cone),
        ]);
    }
    emit(
        "ablation_garbage_attack",
        &[
            "variant",
            "late_accuracy",
            "garbage_tip_fraction",
            "garbage_in_reference_cone",
        ],
        &rows,
    );
}
