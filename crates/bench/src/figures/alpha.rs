//! Figures 5–8: the α grids, each a sweep preset plus CSV reshaping.

use dagfl_scenario::SweepReport;

use crate::output::{f, int};
use crate::{axis_f64, Session};

/// Figure 5: the `sweep-fig05-alpha` grid (base `fig05-alpha10` with
/// specialization tracking, axis `execution.alpha`).
pub fn fig05(session: &Session) {
    let sweep = session.sweep("sweep-fig05-alpha");
    let mut rows = Vec::new();
    for cell in &sweep.cells {
        let alpha = axis_f64(cell, "execution.alpha");
        for (round, m) in &cell.report.specialization_track {
            // The base preset runs the analytics pipeline on the same
            // cadence as the tracking, so each row can carry the
            // unsupervised purity next to the graph metrics (empty when
            // no snapshot landed on this round).
            let purity = cell
                .report
                .analysis_track
                .iter()
                .find(|s| s.round == *round)
                .and_then(|s| s.parameters.as_ref())
                .map_or_else(String::new, |p| f(p.purity));
            rows.push(vec![
                f(alpha),
                int(*round),
                f(m.modularity),
                int(m.partitions),
                f(m.misclassification),
                purity,
            ]);
        }
    }
    session.emit(
        "fig05_alpha_cluster_metrics",
        "alpha,round,modularity,partitions,misclassification,analysis_purity",
        &rows,
    );
}

/// Writes a sweep's per-round accuracy as `alpha, round, accuracy`.
fn emit_accuracy(session: &Session, name: &str, sweep: &SweepReport) {
    let mut rows = Vec::new();
    for cell in &sweep.cells {
        let alpha = axis_f64(cell, "execution.alpha");
        for (round, accuracy) in cell.report.round_accuracy.iter().enumerate() {
            rows.push(vec![f(alpha), int(round + 1), f(*accuracy)]);
        }
    }
    session.emit(name, "alpha,round,accuracy", &rows);
}

/// Figures 6 and 8: accuracy per round over one α sweep preset (axis
/// `execution.alpha`), executed cell-parallel by the shared sweep engine.
pub fn accuracy(session: &Session, name: &str, sweep: &str) {
    emit_accuracy(session, name, &session.sweep(sweep));
}

/// Figure 7: simple-normalization runs are the `sweep-fig06-alpha`
/// sweep, dynamic runs the `sweep-fig07-alpha` sweep — the two figures
/// share one definition of "the α grid" in the sweep preset registry.
pub fn fig07(session: &Session) {
    let simple = session.sweep("sweep-fig06-alpha");
    let dynamic = session.sweep("sweep-fig07-alpha");
    assert_eq!(
        simple.cells.len(),
        dynamic.cells.len(),
        "the fig06 and fig07 sweeps must cover the same alpha grid"
    );
    let mut pureness_rows = Vec::new();
    for (simple_cell, dynamic_cell) in simple.cells.iter().zip(&dynamic.cells) {
        let alpha = axis_f64(dynamic_cell, "execution.alpha");
        assert_eq!(
            alpha,
            axis_f64(simple_cell, "execution.alpha"),
            "the two sweeps share one alpha grid"
        );
        for (norm_name, cell) in [("simple", simple_cell), ("dynamic", dynamic_cell)] {
            pureness_rows.push(vec![
                f(alpha),
                norm_name.into(),
                f(cell.report.specialization.approval_pureness),
            ]);
        }
    }
    emit_accuracy(session, "fig07_dynamic_normalization", &dynamic);
    session.emit(
        "fig07_pureness_by_normalization",
        "alpha,normalization,pureness",
        &pureness_rows,
    );
}
