//! The shared poisoning experiment suite behind Figures 12–14.
//!
//! All three figures come from the same four runs (p ∈ {0.0, 0.2, 0.3}
//! with the accuracy tip selector, plus p = 0.2 with the random selector).
//! Each run is a `poisoning-*` scenario preset executed once per
//! [`Session`]; the figure functions extract their slice of the reports.

use dagfl_core::{PoisonRoundMetrics, TipSelector};

use crate::output::{f, int};
use crate::Session;

/// The result of one poisoning scenario run.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Human-readable scenario label (e.g. `p=0.2`).
    pub label: String,
    /// Fraction of poisoned clients.
    pub fraction: f64,
    /// Tip selector used.
    pub selector_name: &'static str,
    /// Per-measurement metrics over the attack phase.
    pub measurements: Vec<PoisonRoundMetrics>,
    /// Final `(community, benign, poisoned)` distribution (Figure 14).
    pub distribution: Vec<(usize, usize, usize)>,
}

/// The paper's four scenarios, by preset name. Fraction and selector
/// are read off the resolved scenarios — the registry is the single
/// source of truth.
pub const POISONING_PRESETS: &[&str] = &[
    "poisoning-p0.0",
    "poisoning-p0.2",
    "poisoning-random-p0.2",
    "poisoning-p0.3",
];

/// The paper's four poisoning scenarios at the session's scale.
///
/// # Panics
///
/// Panics on simulation errors.
pub fn run_suite(session: &Session) -> Vec<ScenarioResult> {
    POISONING_PRESETS
        .iter()
        .map(|preset| run_preset(session, preset))
        .collect()
}

/// One poisoning preset's result; the label, fraction and selector name
/// are derived from the scenario itself so they cannot drift from
/// the registry.
///
/// # Panics
///
/// Panics if the preset is unknown, lacks an attack, or the simulation
/// fails.
pub fn run_preset(session: &Session, preset: &str) -> ScenarioResult {
    let run = session.report(preset);
    let fraction = run
        .scenario
        .attack
        .expect("poisoning preset configures an attack")
        .poison_fraction;
    let selector_name = match run.scenario.execution.dag().tip_selector {
        TipSelector::Random => "random",
        TipSelector::Accuracy { .. } => "accuracy",
        TipSelector::CumulativeWeight { .. } => "cumulative",
    };
    let poisoning = run
        .report
        .poisoning
        .as_ref()
        .expect("attack scenario reports poisoning");
    let label = if selector_name == "random" {
        format!("p={fraction} (random tip selector)")
    } else {
        format!("p={fraction}")
    };
    ScenarioResult {
        label,
        fraction,
        selector_name,
        measurements: poisoning.measurements.clone(),
        distribution: poisoning.distribution.clone(),
    }
}

/// One per-round column of the suite as `scenario, selector, round,
/// <column>` rows — the shape Figures 12 and 13 share.
fn series(
    session: &Session,
    name: &str,
    column: &str,
    attacked_only: bool,
    value: fn(&PoisonRoundMetrics) -> f64,
) {
    let mut rows = Vec::new();
    for result in run_suite(session) {
        if attacked_only && result.fraction == 0.0 {
            continue;
        }
        for m in &result.measurements {
            rows.push(vec![
                result.label.clone(),
                result.selector_name.into(),
                int(m.round),
                f(value(m)),
            ]);
        }
    }
    session.emit(name, &format!("scenario,selector,round,{column}"), &rows);
}

/// Figure 12 (see its [`crate::FIGURES`] row).
pub fn fig12(session: &Session) {
    series(
        session,
        "fig12_poisoning_flipped",
        "flipped_predictions_pct",
        false,
        |m| m.flipped_fraction * 100.0,
    );
}

/// Figure 13 (see its [`crate::FIGURES`] row).
pub fn fig13(session: &Session) {
    // p = 0.0 has no poisoned transactions by construction; the paper
    // plots only the attacked scenarios.
    series(
        session,
        "fig13_poisoned_approvals",
        "approved_poisoned_txs",
        true,
        |m| m.approved_poisoned,
    );
}

/// Figure 14 (see its [`crate::FIGURES`] row).
pub fn fig14(session: &Session) {
    let rows: Vec<Vec<String>> = run_preset(session, "poisoning-p0.3")
        .distribution
        .iter()
        .map(|&(community, benign, poisoned)| vec![int(community), int(benign), int(poisoned)])
        .collect();
    session.emit(
        "fig14_poisoned_cluster_distribution",
        "community,benign,poisoned",
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn single_preset_produces_measurements() {
        let session = Session::new(Scale::Quick, std::env::temp_dir());
        let result = run_preset(&session, "poisoning-p0.2");
        assert!(!result.measurements.is_empty());
        assert_eq!(result.label, "p=0.2");
        assert_eq!(result.fraction, 0.2);
        assert_eq!(result.selector_name, "accuracy");
        let clients: usize = result.distribution.iter().map(|(_, b, p)| b + p).sum();
        assert_eq!(clients, 12);
    }
}
