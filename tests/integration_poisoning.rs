//! End-to-end poisoning robustness (§5.3.4): flipped-label attackers are
//! contained by the accuracy-aware tip selection.

use dagfl::datasets::{fmnist_by_author, FmnistConfig};
use dagfl::{DagConfig, ModelSpec, PoisoningConfig, PoisoningScenario, TipSelector};

fn scenario(selector: TipSelector, fraction: f64, seed: u64) -> PoisoningScenario {
    let dataset = fmnist_by_author(&FmnistConfig {
        num_clients: 10,
        samples_per_client: 80,
        seed,
        ..FmnistConfig::default()
    });
    let factory = ModelSpec::Mlp { hidden: vec![24] }
        .build_factory(dataset.feature_len(), dataset.num_classes());
    PoisoningScenario::new(
        DagConfig {
            clients_per_round: 5,
            local_batches: 5,
            seed,
            ..DagConfig::default()
        }
        .with_tip_selector(selector),
        PoisoningConfig {
            clean_rounds: 8,
            attack_rounds: 8,
            poison_fraction: fraction,
            class_a: 3,
            class_b: 8,
            measure_every: 4,
        },
        dataset,
        factory,
    )
}

#[test]
fn unpoisoned_network_has_no_poisoned_approvals() {
    let mut s = scenario(TipSelector::default(), 0.0, 1);
    let measurements = s.run().expect("scenario runs");
    for m in &measurements {
        assert_eq!(m.approved_poisoned, 0.0);
    }
}

#[test]
fn flipped_fraction_is_bounded_under_attack() {
    let mut s = scenario(TipSelector::default(), 0.2, 2);
    let measurements = s.run().expect("scenario runs");
    let last = measurements.last().expect("measurements exist");
    // The paper reports p = 0.2 attacks stay within the clean-run variance
    // (< 30% flipped). Scaled-down runs are noisier; assert containment
    // well below total takeover.
    assert!(
        last.flipped_fraction < 0.6,
        "attack dominated the network: {:.3}",
        last.flipped_fraction
    );
}

#[test]
fn poisoned_clients_are_identified_in_report() {
    let mut s = scenario(TipSelector::default(), 0.3, 3);
    s.run().expect("scenario runs");
    let report = s.report().expect("attack ran").clone();
    assert_eq!(report.poisoned_clients.len(), 3);
    assert_eq!(report.class_a, 3);
    assert_eq!(report.class_b, 8);
    // The distribution rows must account for every client.
    let rows = s.poisoned_cluster_distribution();
    let total: usize = rows.iter().map(|(_, b, p)| b + p).sum();
    assert_eq!(total, 10);
}

#[test]
fn accuracy_selector_limits_poison_spread_vs_random() {
    // The paper's qualitative claim (Figure 12): with the accuracy
    // selector, poisoning effects on mispredictions stay no worse than the
    // random selector's (even though the random selector may approve fewer
    // poisoned transactions, Figure 13).
    let mut accuracy = scenario(TipSelector::default(), 0.3, 4);
    let acc_measure = accuracy.run().expect("accuracy scenario runs");
    let mut random = scenario(TipSelector::Random, 0.3, 4);
    let rand_measure = random.run().expect("random scenario runs");
    let acc_last = acc_measure.last().unwrap().flipped_fraction;
    let rand_last = rand_measure.last().unwrap().flipped_fraction;
    // Generous tolerance: scaled-down runs are noisy, but the accuracy
    // selector must not be dramatically worse than random.
    assert!(
        acc_last <= rand_last + 0.25,
        "accuracy selector ({acc_last:.3}) much worse than random ({rand_last:.3})"
    );
}
