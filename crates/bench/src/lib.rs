//! The paper-reproduction experiments: one registry, one program.
//!
//! Every table and figure of the evaluation section is a row of
//! [`registry::FIGURES`] — its name, what the paper shows, the presets it
//! resolves and the function that reshapes simulator output into CSV —
//! and `reproduce [NAME…]` (the crate's only binary) runs rows in-process
//! through one [`Session`]. The README's "Figure index" lists the names.
//!
//! # Scales
//!
//! Experiments run at *quick* scale by default (seconds on a laptop,
//! preserving the qualitative shape of every result) and at the paper's
//! *full* scale when the environment variable `DAGFL_FULL=1` is set.
//!
//! # Output
//!
//! Each row prints its series as a readable table and writes a CSV into
//! the session's results directory (`results/`, or `DAGFL_RESULTS`).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod figures;
pub mod output;
pub mod poisoning_suite;
pub mod registry;

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::rc::Rc;

use dagfl_baselines::FederatedServer;
use dagfl_core::Simulation;
use dagfl_scenario::{
    RunReport, Scenario, ScenarioRunner, SweepCellReport, SweepReport, SweepRunner, SweepSpec,
};

use experiments::{fed_config, run_dag, task};

pub use dagfl_scenario::Scale;
pub use registry::{Figure, FIGURES};

type Memo<T> = RefCell<BTreeMap<String, Rc<T>>>;

/// Returns `cache[key]`, computing it with `make` on the first request.
fn memo<T>(cache: &Memo<T>, key: &str, make: impl FnOnce() -> T) -> Rc<T> {
    if let Some(hit) = cache.borrow().get(key) {
        return Rc::clone(hit);
    }
    let made = Rc::new(make());
    cache.borrow_mut().insert(key.into(), Rc::clone(&made));
    made
}

/// Drops every entry of `cache` whose preset is not in `keep`.
fn retain<T>(cache: &Memo<T>, keep: &BTreeSet<&str>) {
    cache
        .borrow_mut()
        .retain(|preset, _| keep.contains(preset.as_str()));
}

/// A scenario preset as resolved, and the report of running it.
#[derive(Debug)]
pub struct PresetRun {
    /// The resolved scenario.
    pub scenario: Scenario,
    /// What running it reported.
    pub report: RunReport,
}

/// One `reproduce` invocation: the scale and results directory every
/// row shares, plus the preset runs rows have in common — each executes
/// at most once per session, whichever rows ask for it. Table 2, Figure
/// 9, the communication cost and `async_vs_rounds` read the three Table
/// 1 [`Session::simulation`]s and Figure 9's [`Session::fedavg`]
/// servers, Figures 12–14 the four `poisoning-*` [`Session::report`]s,
/// Figures 6 and 7 one [`Session::sweep`]. A row that changes a run's
/// configuration, or its state after the run, runs its own copy.
/// [`Session::release`] frees a run once no later row declares its
/// preset.
///
/// Rows fail loudly: every method panics on an unknown preset, a
/// failed run or an I/O error.
pub struct Session {
    /// The scale every preset resolves at.
    pub scale: Scale,
    out_dir: PathBuf,
    simulations: Memo<Simulation>,
    servers: Memo<FederatedServer>,
    reports: Memo<PresetRun>,
    sweeps: Memo<SweepReport>,
    resolved: RefCell<Vec<String>>,
    ran: RefCell<Vec<String>>,
    written: RefCell<Vec<PathBuf>>,
}

impl Session {
    /// A session writing into `out_dir` (created on first write).
    pub fn new(scale: Scale, out_dir: impl Into<PathBuf>) -> Self {
        Self {
            scale,
            out_dir: out_dir.into(),
            simulations: Memo::default(),
            servers: Memo::default(),
            reports: Memo::default(),
            sweeps: Memo::default(),
            resolved: RefCell::default(),
            ran: RefCell::default(),
            written: RefCell::default(),
        }
    }

    /// Resolves a scenario preset at the session's scale. The one place
    /// rows get a preset from, so [`Session::resolved`] sees them all.
    pub fn scenario(&self, preset: &str) -> Scenario {
        self.resolved.borrow_mut().push(preset.into());
        Scenario::preset_at(preset, self.scale).expect("scenario preset exists")
    }

    /// Rounds-mode scenario `preset`'s simulation, run to completion.
    pub fn simulation(&self, preset: &str) -> Rc<Simulation> {
        memo(&self.simulations, preset, || {
            self.ran.borrow_mut().push(format!("simulation {preset}"));
            let (config, dataset, factory) = task(&self.scenario(preset));
            run_dag(config, dataset, factory)
        })
    }

    /// FedAvg trained on scenario `preset`'s data with its budget.
    pub fn fedavg(&self, preset: &str) -> Rc<FederatedServer> {
        memo(&self.servers, preset, || {
            self.ran.borrow_mut().push(format!("fedavg {preset}"));
            let (dag, dataset, factory) = task(&self.scenario(preset));
            let mut server = FederatedServer::new(fed_config(&dag, 0.0), dataset, factory);
            server.run().expect("centralized training failed");
            server
        })
    }

    /// Scenario `preset` run through the scenario runner, as the preset
    /// registry defines it; the poisoning rows read their presets so.
    pub fn report(&self, preset: &str) -> Rc<PresetRun> {
        memo(&self.reports, preset, || {
            self.ran.borrow_mut().push(format!("report {preset}"));
            let scenario = self.scenario(preset);
            let report = ScenarioRunner::new(scenario.clone())
                .expect("preset validates")
                .run()
                .expect("scenario run failed");
            PresetRun { scenario, report }
        })
    }

    /// The report of running sweep preset `name` on all available cores;
    /// its comparison CSV goes to the session's directory.
    pub fn sweep(&self, name: &str) -> Rc<SweepReport> {
        memo(&self.sweeps, name, || {
            self.ran.borrow_mut().push(format!("sweep {name}"));
            self.resolved.borrow_mut().push(name.into());
            let mut spec = SweepSpec::preset(name).expect("sweep preset exists");
            // The runner would write the comparison under `DAGFL_RESULTS`.
            let comparison = spec.comparison_csv.take();
            let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            let report = SweepRunner::at_scale(spec, self.scale)
                .expect("sweep preset validates")
                .run(jobs)
                .expect("sweep run failed");
            if let Some(csv) = comparison {
                self.write(&format!("{csv}.csv"), &report.comparison_csv_text());
            }
            report
        })
    }

    /// Writes a result series as `<name>.csv` under the comma-separated
    /// `header` and echoes it to stdout.
    pub fn emit(&self, name: &str, header: &str, rows: &[Vec<String>]) {
        let path = output::emit(&self.out_dir, name, header, rows);
        self.written.borrow_mut().push(path);
    }

    /// Writes `text` as `file` in the results directory.
    pub fn write(&self, file: &str, text: &str) -> PathBuf {
        let path = self.out_dir.join(file);
        std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| std::fs::write(&path, text))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        self.written.borrow_mut().push(path.clone());
        path
    }

    /// Runs one registry row and returns the files it wrote.
    pub fn run(&self, figure: &Figure) -> Vec<PathBuf> {
        (figure.run)(self);
        std::mem::take(&mut self.written.borrow_mut())
    }

    /// Frees every shared run that none of the `later` rows declares,
    /// so a run lives until the last row that reads it. Call it after
    /// each row with the selected rows still to come.
    pub fn release(&self, later: &[&Figure]) {
        let keep: BTreeSet<&str> = later
            .iter()
            .flat_map(|figure| figure.presets)
            .copied()
            .collect();
        retain(&self.simulations, &keep);
        retain(&self.servers, &keep);
        retain(&self.reports, &keep);
        retain(&self.sweeps, &keep);
    }

    /// Every preset resolved so far, scenario and sweep, in order; a
    /// name appears once per resolution.
    pub fn resolved(&self) -> Vec<String> {
        self.resolved.borrow().clone()
    }

    /// Every shared run executed so far, in order, as `simulation`,
    /// `fedavg`, `report` or `sweep` followed by the preset's name.
    pub fn ran(&self) -> Vec<String> {
        self.ran.borrow().clone()
    }
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
