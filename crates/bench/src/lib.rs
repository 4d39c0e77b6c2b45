//! Shared harness for the paper-reproduction experiments.
//!
//! Every table and figure of the evaluation section has a dedicated binary
//! in `src/bin/` (see DESIGN.md §5 for the index); this library provides
//! the pieces they share: experiment scales, preset unpacking, the
//! simulator runners and result output.
//!
//! # Scales
//!
//! Experiments run at *quick* scale by default (minutes on a laptop,
//! preserving the qualitative shape of every result) and at the paper's
//! *full* scale when the environment variable `DAGFL_FULL=1` is set.
//!
//! # Output
//!
//! Each binary prints its series as a readable table and writes a CSV into
//! `results/` (override with `DAGFL_RESULTS`).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod output;
pub mod poisoning_suite;

use dagfl_scenario::{SweepCellReport, SweepReport, SweepRunner, SweepSpec};

pub use dagfl_scenario::Scale;

/// Runs a sweep preset on all available cores and returns the aggregate
/// report — the standard entry point of the figure binaries, which are
/// thin preset lookups plus CSV reshaping.
///
/// # Panics
///
/// Panics if the preset is unknown, fails validation or a cell fails;
/// experiment binaries fail loudly.
pub fn run_sweep_preset(name: &str) -> SweepReport {
    let spec = SweepSpec::preset(name).expect("sweep preset exists");
    let jobs = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    SweepRunner::new(spec)
        .expect("sweep preset validates")
        .run(jobs)
        .expect("sweep run failed")
}

/// Reads one axis coordinate of a sweep cell as a number.
///
/// # Panics
///
/// Panics if the cell has no such axis or the token is not numeric.
pub fn axis_f64(cell: &SweepCellReport, path: &str) -> f64 {
    cell.values
        .iter()
        .find(|(p, _)| p == path)
        .unwrap_or_else(|| panic!("cell `{}` has no `{path}` axis", cell.id))
        .1
        .parse()
        .expect("axis tokens are numeric")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_selects_correctly() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
