//! The **declarative scenario layer**: one spec to build, validate, run,
//! and report any Specializing-DAG experiment.
//!
//! The paper's evaluation is one algorithm under many conditions —
//! Table 1 hyperparameter rows, tip-selector ablations, poisoning
//! attacks, asynchronous deployments. This crate makes each such
//! condition *data* instead of hand-wired code:
//!
//! * [`Scenario`] — a complete experiment as a value: dataset
//!   ([`DatasetSpec`]), model architecture ([`ModelSpec`]), execution
//!   mode ([`ExecutionSpec`]: rounds or async, with the full core
//!   config), optional poisoning attack
//!   ([`PoisoningConfig`](dagfl_core::PoisoningConfig)), optional
//!   fault injection ([`FaultPlan`](dagfl_core::FaultPlan)), optional
//!   specialization analytics ([`AnalysisSpec`], driving
//!   [`dagfl_analysis`]) and output options ([`OutputSpec`]), with a
//!   fluent builder and a single [`Scenario::validate`].
//! * **Text round-trip** — [`Scenario::to_toml`] /
//!   [`Scenario::from_toml`] serialize scenarios through a
//!   dependency-free TOML subset, so experiments live in version
//!   control as `scenarios/*.toml` files.
//! * [`ScenarioRunner`] — consumes a scenario, builds the dataset and
//!   model factory, drives the right simulator behind the core
//!   [`ExecutionMode`](dagfl_core::ExecutionMode) trait and returns a
//!   structured [`RunReport`] (specialization metrics, tangle stats,
//!   async throughput and poisoning summaries).
//! * **Presets** — [`Scenario::preset`] resolves the paper's
//!   experiments by name (`"table1-fmnist"`, `"fig06-alpha10"`,
//!   `"poisoning-p0.2"`, `"async-cohorts"`, ...) at quick or full
//!   [`Scale`]. A preset is its checked-in `scenarios/<name>.toml`
//!   ([`PRESETS`]); full scale sets a few Table 1 keys on it.
//! * **Sweeps** — [`SweepSpec`] expands a base scenario over axes that
//!   are scenario key paths (`execution.alpha = [0.1, 1, 10, 100]`, set
//!   through [`Scenario::set_keys`]) or `replicate = 0..5` into a
//!   validated grid; [`SweepRunner`] executes
//!   the cells on a worker pool and aggregates a [`SweepReport`] with a
//!   scheduling-independent comparison CSV. Sweep files
//!   (`scenarios/sweep-*.toml`) run with `dagfl sweep <file>`.
//!
//! A paper experiment is therefore runnable three equivalent ways — by
//! preset name, from a checked-in `.toml` file (`dagfl run --scenario`),
//! or through the builder API — and all three meet in the same
//! validation and runner code. Text that names a knob (a file line, a
//! sweep axis value, a CLI flag) meets earlier still, in the one reader
//! [`Scenario::from_document`].
//!
//! # Example
//!
//! ```
//! use dagfl_scenario::{Scenario, ScenarioRunner};
//!
//! // By preset name...
//! let scenario = Scenario::preset("smoke")?;
//! // ...which is the same experiment as this file:
//! let from_file = Scenario::from_toml(&scenario.to_toml())?;
//! assert_eq!(scenario, from_file);
//!
//! let report = ScenarioRunner::new(scenario)?.run()?;
//! assert_eq!(report.progress, 2);
//! println!("{}", report.summary());
//! # Ok::<(), dagfl_scenario::ScenarioError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

/// A registry row `(name, description, text)` whose text is the
/// checked-in `scenarios/<name>.toml`.
macro_rules! preset_file {
    ($name:literal, $description:literal) => {
        (
            $name,
            $description,
            include_str!(concat!("../../../scenarios/", $name, ".toml")),
        )
    };
}

mod presets;
mod runner;
mod spec;
mod sweep;
pub mod text;

pub use presets::{Scale, PRESETS};
pub use runner::{DatasetSummary, Footprint, PoisoningSummary, RunReport, ScenarioRunner};
pub use spec::{
    AnalysisSpec, DatasetSpec, ExecutionSpec, ModelSpec, OutputSpec, Scenario, ScenarioError,
};
pub use sweep::{
    is_sweep_toml, SweepAxis, SweepBase, SweepCell, SweepCellReport, SweepReport, SweepRunner,
    SweepSpec, SWEEP_PRESETS,
};
