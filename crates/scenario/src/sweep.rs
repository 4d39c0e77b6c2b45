//! The parameter-grid sweep engine: expand one base [`Scenario`] over
//! key-path axes, run the cells on a worker pool, aggregate the reports.
//!
//! The paper's results are all *sweeps* — Figures 5–8 sweep the walk
//! randomness α, Table 1 sweeps datasets, Figures 12–14 sweep poisoning
//! fractions. A [`SweepSpec`] makes the grid itself data:
//!
//! * a **base scenario** ([`SweepBase`]): a preset name, a scenario
//!   file, or an inline [`Scenario`] value,
//! * one or more **axes** ([`SweepAxis`]): a scenario key path (or
//!   `seed` / `replicate`) plus the values it takes
//!   (`execution.alpha = [0.1, 1, 10, 100]`, `replicate = 0..5`),
//! * the cross-product of the axes.
//!
//! Expansion ([`SweepSpec::expand_at`]) produces concrete, validated
//! [`SweepCell`]s in a deterministic order (axes as listed, last axis
//! fastest). [`SweepRunner::run`] executes them on `jobs` worker
//! threads ([`dagfl_core::fan_out`]); every cell is a self-contained [`ScenarioRunner`] run whose
//! randomness derives only from the cell's own scenario seed, so the
//! aggregate [`SweepReport`] — including its cross-cell comparison CSV
//! — is byte-identical for any worker count or scheduling order.
//! Replicate grids use [`dagfl_core::derive_seed`] so per-cell seeds are
//! data, never a function of execution order.
//!
//! Sweeps serialize through the same TOML subset as scenarios
//! ([`SweepSpec::to_toml`] / [`SweepSpec::from_toml`]): a `[sweep]`
//! section naming the base plus an `[axes]` section, checked in as
//! `scenarios/sweep-*.toml` and runnable with `dagfl sweep <file>`.
//!
//! # Example
//!
//! ```
//! use dagfl_scenario::{Scale, SweepRunner, SweepSpec};
//!
//! let spec = SweepSpec::over_preset("alpha-demo", "smoke")
//!     .axis("execution.alpha", ["1", "10"])
//!     .axis("seed", ["42", "43"]);
//! let runner = SweepRunner::at_scale(spec, Scale::Quick)?;
//! assert_eq!(runner.cells().len(), 4);
//! let report = runner.run(2)?;
//! assert_eq!(report.cells.len(), 4);
//! # Ok::<(), dagfl_scenario::ScenarioError>(())
//! ```

use std::path::{Path, PathBuf};

use dagfl_analysis::AnalysisSnapshot;
use dagfl_core::csv::{to_csv_string, write_csv};
use dagfl_core::{derive_seed, fan_out, key, KeyVisitor, Range, RangeCheck, Slot};

use crate::presets::Scale;
use crate::runner::{RunReport, ScenarioRunner};
use crate::spec::{
    core_error, name_key, read, write, ExecutionSpec, Reader, Scenario, ScenarioError, SECTIONS,
};
use crate::text::{Document, Value};

/// The longest expansion a single range axis may produce; a backstop
/// against `0..9999999999` typos, far above any real grid.
const MAX_RANGE_LEN: u64 = 10_000;

// ---------------------------------------------------------------------------
// Axis names
// ---------------------------------------------------------------------------

/// Short axis names: accepted in place of the key path, and what cell
/// ids print (`alpha=0.1,seed=42`). This is a table of bytes that
/// checked-in cell ids and CSVs already hold, not a list of what can be
/// swept — every numeric scenario key is an axis under its own path,
/// and prints that path.
const SHORT_NAMES: &[(&str, &str)] = &[
    ("alpha", "execution.alpha"),
    ("rounds", "execution.rounds"),
    ("clients_per_round", "execution.clients_per_round"),
    ("epochs", "execution.local_epochs"),
    ("batches", "execution.local_batches"),
    ("batch_size", "execution.batch_size"),
    ("learning_rate", "execution.learning_rate"),
    ("relaxation", "dataset.relaxation"),
    ("clients", "dataset.clients"),
    ("samples", "dataset.samples"),
    ("fraction", "attack.fraction"),
    ("activations", "execution.activations"),
    ("interarrival", "execution.interarrival"),
    ("train_time", "execution.train_time"),
    ("delay", "execution.delay"),
];

/// Whether `path` is one of the two axes that are not a scenario key:
/// `seed` sets the master seed (dataset generator and simulation
/// together, like [`Scenario::with_seed`]) and `replicate = k` sets it
/// to `derive_seed(base seed, k)`, the canonical seed-replicated grid.
fn is_seed_axis(path: &str) -> bool {
    matches!(path, "seed" | "replicate")
}

/// The short name of a canonical axis path.
fn short_name(path: &str) -> &str {
    SHORT_NAMES
        .iter()
        .find(|(_, p)| *p == path)
        .map_or(path, |(short, _)| short)
}

// ---------------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------------

/// One sweep axis: a field path (raw, resolved at validation) plus the
/// raw value tokens it takes, in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// The field path as authored (canonical path or short alias).
    pub field: String,
    /// The values, as raw number tokens (`"0.1"`, `"42"`). Raw tokens
    /// keep cell ids and CSV columns byte-stable.
    pub values: Vec<String>,
}

impl SweepAxis {
    /// Expands a half-open integer range (`start..end`) into raw value
    /// tokens, enforcing the shared `MAX_RANGE_LEN` backstop — the one
    /// range expansion both sweep files and the CLI `--axes` flag go
    /// through, so a typo'd `0..9999999999` is rejected instead of
    /// eagerly allocated.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] for empty or oversized ranges.
    pub fn range_tokens(field: &str, start: u64, end: u64) -> Result<Vec<String>, ScenarioError> {
        if start >= end {
            return Err(ScenarioError::Invalid(format!(
                "sweep axis `{field}`: range {start}..{end} is empty"
            )));
        }
        if end - start > MAX_RANGE_LEN {
            return Err(ScenarioError::Invalid(format!(
                "sweep axis `{field}`: range {start}..{end} expands to more than \
                 {MAX_RANGE_LEN} values"
            )));
        }
        Ok((start..end).map(|v| v.to_string()).collect())
    }
}

/// Where the base scenario of a sweep comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepBase {
    /// A preset name, resolved at the sweep's [`Scale`].
    Preset(String),
    /// A scenario file, loaded at expansion time.
    File(PathBuf),
    /// An inline scenario value (embedded in the sweep file; boxed to
    /// keep the enum small next to the name variants).
    Inline(Box<Scenario>),
}

/// A declarative parameter grid over one base scenario.
///
/// Built three equivalent ways — the fluent builder
/// ([`SweepSpec::over_preset`] + [`SweepSpec::axis`]), a sweep preset
/// name ([`SweepSpec::preset`]), or a TOML file
/// ([`SweepSpec::from_toml`]) — and executed by a [`SweepRunner`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (one line; prefixes cell scenario names and output
    /// files).
    pub name: String,
    /// The base scenario every cell starts from.
    pub base: SweepBase,
    /// The axes, in sweep order (last axis varies fastest).
    pub axes: Vec<SweepAxis>,
    /// Write the cross-cell comparison CSV as
    /// `<results dir>/<name>.csv` (`DAGFL_RESULTS`, default `results/`).
    pub comparison_csv: Option<String>,
}

impl SweepSpec {
    /// Starts a sweep over a preset base.
    pub fn over_preset(name: impl Into<String>, preset: impl Into<String>) -> Self {
        Self::new(name, SweepBase::Preset(preset.into()))
    }

    /// Starts a sweep over an inline scenario base.
    pub fn over_scenario(name: impl Into<String>, scenario: Scenario) -> Self {
        Self::new(name, SweepBase::Inline(Box::new(scenario)))
    }

    fn new(name: impl Into<String>, base: SweepBase) -> Self {
        Self {
            name: name.into(),
            base,
            axes: Vec::new(),
            comparison_csv: None,
        }
    }

    /// Adds an axis (builder style). `field` is a scenario key path
    /// (`execution.alpha`), one of its short names (`alpha`), `seed` or
    /// `replicate`; keys the base scenario does not have surface in
    /// [`SweepSpec::validate`].
    pub fn axis<I, S>(mut self, field: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        self.axes.push(SweepAxis {
            field: field.into(),
            values: values.into_iter().map(|v| v.to_string()).collect(),
        });
        self
    }

    /// Resolves each axis to its canonical path (`seed`, `replicate` or
    /// a scenario key path), rejecting unknown short names, empty value
    /// lists and duplicate/conflicting axes.
    fn resolved_axes(&self) -> Result<Vec<(&str, &SweepAxis)>, ScenarioError> {
        if self.axes.is_empty() {
            return Err(ScenarioError::Invalid(
                "a sweep needs at least one axis (a zero-axis sweep is `dagfl run`)".into(),
            ));
        }
        let mut resolved: Vec<(&str, &SweepAxis)> = Vec::with_capacity(self.axes.len());
        for axis in &self.axes {
            let field = axis.field.as_str();
            let path = if is_seed_axis(field) || field.contains('.') {
                field
            } else {
                SHORT_NAMES
                    .iter()
                    .find(|(short, _)| *short == field)
                    .map(|(_, path)| *path)
                    .ok_or_else(|| ScenarioError::UnknownKey {
                        key: format!("axes.{field}"),
                    })?
            };
            if axis.values.is_empty() {
                return Err(ScenarioError::Invalid(format!(
                    "sweep axis `{path}` has no values"
                )));
            }
            // `seed` and `replicate` collide on the master seed.
            if let Some((prev, prev_axis)) = resolved
                .iter()
                .find(|(p, _)| *p == path || (is_seed_axis(p) && is_seed_axis(path)))
            {
                return Err(ScenarioError::Invalid(format!(
                    "duplicate sweep axis for `{prev}`: `{}` and `{}` target the same field",
                    prev_axis.field, axis.field
                )));
            }
            resolved.push((path, axis));
        }
        Ok(resolved)
    }

    /// Resolves the base scenario at the given scale.
    fn resolve_base(&self, scale: Scale) -> Result<Scenario, ScenarioError> {
        match &self.base {
            SweepBase::Preset(name) => Scenario::preset_at(name, scale),
            SweepBase::File(path) => Scenario::load(path),
            SweepBase::Inline(scenario) => Ok(scenario.as_ref().clone()),
        }
    }

    /// Expands the grid into concrete, validated cells at the scale read
    /// from `DAGFL_FULL`.
    ///
    /// # Errors
    ///
    /// Returns the first spec or cell inconsistency.
    pub fn expand(&self) -> Result<Vec<SweepCell>, ScenarioError> {
        self.expand_at(Scale::from_env())
    }

    /// Expands the grid at an explicit scale. Cells come out in a
    /// deterministic order — axes as listed, the last axis varying
    /// fastest — independent of how they will later be scheduled.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency: unknown/duplicate/inapplicable
    /// axes, malformed values, or a cell whose scenario fails
    /// [`Scenario::validate`].
    pub fn expand_at(&self, scale: Scale) -> Result<Vec<SweepCell>, ScenarioError> {
        let mut name = self.name.clone();
        RangeCheck::run(|check| name_key(&mut name, check)).map_err(|e| core_error("", e))?;
        let base = self.resolve_base(scale)?;
        base.validate()
            .map_err(|e| ScenarioError::Invalid(format!("sweep base scenario is invalid: {e}")))?;
        let axes = self.resolved_axes()?;
        let inapplicable = |path: &str, reason: String| {
            ScenarioError::Invalid(format!("sweep axis `{path}` does not apply: {reason}"))
        };
        // The one applicability rule the reader cannot give: it accepts
        // these two keys under async (canonical files spell them) though
        // the mode ignores them, so sweeping them would repeat one cell.
        if matches!(base.execution, ExecutionSpec::Async { .. }) {
            if let Some((path, _)) = axes.iter().find(|(path, _)| {
                matches!(*path, "execution.rounds" | "execution.clients_per_round")
            }) {
                return Err(inapplicable(
                    path,
                    "it needs rounds mode, the base scenario is async".into(),
                ));
            }
        }
        let mut total: usize = 1;
        for (_, axis) in &axes {
            total = total.checked_mul(axis.values.len()).ok_or_else(|| {
                ScenarioError::Invalid("sweep expansion overflows the cell counter".into())
            })?;
        }
        let mut cells = Vec::with_capacity(total);
        for index in 0..total {
            // Mixed-radix odometer, last axis fastest.
            let mut digits = vec![0usize; axes.len()];
            let mut rem = index;
            for pos in (0..axes.len()).rev() {
                let len = axes[pos].1.values.len();
                digits[pos] = rem % len;
                rem /= len;
            }
            let mut scenario = base.clone();
            let mut keys = Vec::with_capacity(axes.len());
            let mut values = Vec::with_capacity(axes.len());
            let mut id_parts = Vec::with_capacity(axes.len());
            for (pos, (path, axis)) in axes.iter().enumerate() {
                let token = &axis.values[digits[pos]];
                if is_seed_axis(path) {
                    let n: u64 = token.parse().map_err(|_| ScenarioError::InvalidValue {
                        key: format!("axes.{path}"),
                        value: token.clone(),
                        expected: "a non-negative integer".into(),
                    })?;
                    scenario = scenario.with_seed(if *path == "seed" {
                        n
                    } else {
                        derive_seed(base.execution.dag().seed, n)
                    });
                } else {
                    keys.push((*path, token));
                }
                values.push((path.to_string(), token.clone()));
                id_parts.push(format!("{}={}", short_name(path), token));
            }
            // Every other axis is a scenario key, set through the reader
            // a file goes through: whether the base has the key, and
            // what type it holds, is the reader's answer.
            let mut scenario = scenario.set_keys(&keys).map_err(|e| match e {
                ScenarioError::UnknownKey { key } => inapplicable(
                    &key,
                    format!(
                        "the base scenario `{}` has no such key (check the spelling, and \
                         that its mode, dataset and selector have it)",
                        base.name
                    ),
                ),
                ScenarioError::InvalidValue {
                    key,
                    value,
                    expected,
                } => ScenarioError::InvalidValue {
                    key: format!("axes.{key}"),
                    value,
                    expected,
                },
                other => other,
            })?;
            let id = id_parts.join(",");
            scenario.name = format!("{}/{}", self.name, id);
            scenario.validate().map_err(|e| {
                ScenarioError::Invalid(format!("sweep cell `{id}` is invalid: {e}"))
            })?;
            cells.push(SweepCell {
                index,
                id,
                values,
                scenario,
            });
        }
        Ok(cells)
    }

    /// Checks the complete spec by performing a full (quick-scale)
    /// expansion: base resolution, axis typing and compatibility,
    /// duplicate axes, and per-cell scenario validation.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found, naming the offending axis
    /// field path.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.expand_at(Scale::Quick).map(|_| ())
    }

    /// Serializes the sweep as TOML-subset text; the exact inverse of
    /// [`SweepSpec::from_toml`].
    pub fn to_toml(&self) -> String {
        let mut doc = Document::default();
        let mut spec = self.clone();
        write(&mut doc, "", |w| name_key(&mut spec.name, w));
        let mut base = match &self.base {
            SweepBase::Preset(preset) => [Some(preset.clone()), None, None],
            SweepBase::File(path) => [None, Some(path.display().to_string()), None],
            SweepBase::Inline(scenario) => [None, None, Some(scenario.name.clone())],
        };
        write(&mut doc, "sweep", |w| sweep_keys(&mut base, &mut spec, w));
        if let SweepBase::Inline(scenario) = &self.base {
            let base_doc = scenario.to_document();
            for section in SECTIONS {
                if let Some(table) = base_doc.section(section) {
                    *doc.section_mut(section) = table.clone();
                }
            }
        }
        {
            let axes = doc.section_mut("axes");
            for axis in &self.axes {
                axes.set(&axis.field, Value::NumberList(axis.values.clone()));
            }
        }
        doc.to_text()
    }

    /// Parses a sweep from TOML-subset text: a root `name`, a `[sweep]`
    /// section naming the base (`preset`, `scenario` file path, or
    /// `scenario_name` plus inline scenario sections) and an `[axes]`
    /// section mapping field paths to value arrays or integer ranges.
    /// The result is *not* yet validated — call [`SweepSpec::validate`]
    /// (or hand it to [`SweepRunner::new`], which does).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] describing the first problem.
    pub fn from_toml(text: &str) -> Result<Self, ScenarioError> {
        let doc = Document::parse(text)?;
        if let Some(section) = doc
            .section_names()
            .find(|s| !matches!(*s, "sweep" | "axes") && !SECTIONS.contains(s))
        {
            return Err(ScenarioError::UnknownKey {
                key: format!("[{section}]"),
            });
        }
        let mut name = String::new();
        read(&doc, "", |r| name_key(&mut name, r))?;
        if doc.section("sweep").is_none() {
            return Err(ScenarioError::MissingKey {
                key: "[sweep]".into(),
            });
        }
        // The `[sweep]` keys replace the placeholder base.
        let mut spec = SweepSpec::new(name, SweepBase::Preset(String::new()));
        let mut base = [None, None, None];
        read(&doc, "sweep", |r| sweep_keys(&mut base, &mut spec, r))?;
        spec.base = match base {
            [Some(preset), None, None] => SweepBase::Preset(preset),
            [None, Some(path), None] => SweepBase::File(PathBuf::from(path)),
            [None, None, Some(scenario_name)] => {
                let mut base_doc = Document::default();
                base_doc.root.set("name", Value::Str(scenario_name));
                for section in SECTIONS {
                    if let Some(table) = doc.section(section) {
                        *base_doc.section_mut(section) = table.clone();
                    }
                }
                SweepBase::Inline(Box::new(Scenario::from_document(&base_doc)?))
            }
            _ => {
                return Err(ScenarioError::Invalid(
                    "the [sweep] section needs exactly one of `preset`, `scenario` or \
                     `scenario_name` (with inline scenario sections)"
                        .into(),
                ))
            }
        };
        if !matches!(spec.base, SweepBase::Inline(_))
            && SECTIONS.iter().any(|s| doc.section(s).is_some())
        {
            return Err(ScenarioError::Invalid(
                "inline scenario sections are only allowed with `sweep.scenario_name`".into(),
            ));
        }
        let axes_table = doc.section("axes").ok_or(ScenarioError::MissingKey {
            key: "[axes]".into(),
        })?;
        for (key, value) in axes_table.iter() {
            let values = match value {
                Value::NumberList(items) => items.clone(),
                Value::Range(start, end) => SweepAxis::range_tokens(
                    key,
                    start.parse::<u64>().expect("parser checked"),
                    end.parse::<u64>().expect("parser checked"),
                )?,
                other => {
                    return Err(Reader::new("axes", None).invalid(
                        key,
                        other,
                        "an array of numbers or an integer range",
                    ))
                }
            };
            spec.axes.push(SweepAxis {
                field: key.to_string(),
                values,
            });
        }
        Ok(spec)
    }

    /// Reads and parses a sweep file.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] on read failures and parse errors
    /// otherwise.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io(format!("reading {}: {e}", path.display())))?;
        let mut spec = Self::from_toml(&text)?;
        // A relative `scenario = "base.toml"` refers to a sibling of the
        // sweep file, not of the process working directory — anchor it,
        // so file-based sweeps are portable.
        if let SweepBase::File(base) = &mut spec.base {
            if base.is_relative() {
                if let Some(parent) = path.parent() {
                    *base = parent.join(&*base);
                }
            }
        }
        Ok(spec)
    }
}

/// The `[sweep]` section: the base as its three keys (`preset`, the
/// `scenario` file or an inline `scenario_name`, of which a file sets
/// exactly one; resolved once the section is read), then the comparison
/// CSV's name.
fn sweep_keys<V: KeyVisitor>(
    base: &mut [Option<String>; 3],
    spec: &mut SweepSpec,
    v: &mut V,
) -> Result<(), V::Error> {
    let [preset, file, scenario_name] = base;
    v.key(key("preset", Range::Any), Slot::OptStr(preset))?;
    v.key(key("scenario", Range::Any), Slot::OptStr(file))?;
    v.key(
        key("scenario_name", Range::Any),
        Slot::OptStr(scenario_name),
    )?;
    let csv = key("comparison_csv", Range::Any);
    v.key(csv, Slot::OptStr(&mut spec.comparison_csv))
}

// ---------------------------------------------------------------------------
// Expansion and execution
// ---------------------------------------------------------------------------

/// One concrete grid point: a fully resolved, validated scenario plus
/// the axis coordinates that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in the deterministic expansion order.
    pub index: usize,
    /// Human-readable coordinates (`alpha=0.1,seed=42`).
    pub id: String,
    /// `(canonical field path, raw value token)` pairs, in axis order.
    pub values: Vec<(String, String)>,
    /// The cell's scenario (base plus this cell's axis values).
    pub scenario: Scenario,
}

/// One executed cell: its coordinates plus the run's [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCellReport {
    /// Position in the deterministic expansion order.
    pub index: usize,
    /// Human-readable coordinates (`alpha=0.1,seed=42`).
    pub id: String,
    /// `(canonical field path, raw value token)` pairs, in axis order.
    pub values: Vec<(String, String)>,
    /// The cell's full run report.
    pub report: RunReport,
}

/// The aggregate result of a sweep: every cell's report in expansion
/// order plus the cross-cell comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The sweep name.
    pub name: String,
    /// Canonical axis field paths, in sweep order.
    pub axes: Vec<String>,
    /// Per-cell reports, in expansion order (independent of scheduling).
    pub cells: Vec<SweepCellReport>,
    /// Where the comparison CSV was written, if requested.
    pub comparison_csv: Option<PathBuf>,
}

impl SweepReport {
    /// The comparison-table header: `cell`, one column per axis, then
    /// the shared headline metrics (async columns are empty for rounds
    /// cells).
    pub fn comparison_header(&self) -> Vec<String> {
        let mut header = vec!["cell".to_string()];
        header.extend(self.axes.iter().cloned());
        header.extend(
            [
                "mode",
                "progress",
                "recent_accuracy",
                "pureness",
                "modularity",
                "partitions",
                "misclassification",
                "transactions",
                "tips",
                "activation_rate",
                "publish_fraction",
                "stale_fraction",
                "mean_publish_latency",
                "delivered",
                "dropped",
                "duplicated",
                "fresh_evals",
                "cached_evals",
            ]
            .map(String::from),
        );
        // The analysis column group exists only when at least one cell
        // ran with `[analysis]`, so pre-analysis sweep CSVs stay
        // byte-identical.
        if self.has_analysis() {
            header.extend(ANALYSIS_COLUMNS.map(String::from));
        }
        header
    }

    /// Whether any cell carries an analytics snapshot (and the
    /// comparison table therefore its analysis column group).
    pub fn has_analysis(&self) -> bool {
        self.cells.iter().any(|c| c.report.analysis.is_some())
    }

    /// The comparison-table rows, one per cell in expansion order. All
    /// values format deterministically, so the table is byte-identical
    /// for any worker count.
    pub fn comparison_rows(&self) -> Vec<Vec<String>> {
        self.cells
            .iter()
            .map(|cell| {
                let r = &cell.report;
                let mut row = vec![cell.id.clone()];
                for path in &self.axes {
                    let token = cell
                        .values
                        .iter()
                        .find(|(p, _)| p == path)
                        .map(|(_, t)| t.clone())
                        .unwrap_or_default();
                    row.push(token);
                }
                row.push(r.mode.to_string());
                row.push(r.progress.to_string());
                row.push(format!("{:.4}", r.recent_accuracy));
                row.push(format!("{:.4}", r.specialization.approval_pureness));
                row.push(format!("{:.4}", r.specialization.modularity));
                row.push(r.specialization.partitions.to_string());
                row.push(format!("{:.4}", r.specialization.misclassification));
                row.push(r.tangle.transactions.to_string());
                row.push(r.tangle.tips.to_string());
                match &r.async_metrics {
                    Some(m) => {
                        row.push(format!("{:.4}", m.activation_rate()));
                        row.push(format!("{:.4}", m.publish_fraction()));
                        row.push(format!("{:.4}", m.stale_fraction()));
                        row.push(format!("{:.4}", m.mean_publish_latency));
                        row.push(m.delivered.to_string());
                        row.push(m.dropped.to_string());
                        row.push(m.duplicated.to_string());
                    }
                    None => row.extend(std::iter::repeat(String::new()).take(7)),
                }
                row.push(r.fresh_evaluations.to_string());
                row.push(r.cached_evaluations.to_string());
                if self.has_analysis() {
                    row.extend(analysis_cells(r.analysis.as_ref()));
                }
                row
            })
            .collect()
    }

    /// The comparison table as CSV text (what the comparison file
    /// holds).
    pub fn comparison_csv_text(&self) -> String {
        let header = self.comparison_header();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        to_csv_string(&header_refs, &self.comparison_rows())
    }

    /// A multi-line human-readable summary (what `dagfl sweep` prints).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep {}: {} cells over [{}]",
            self.name,
            self.cells.len(),
            self.axes.join(", ")
        );
        for cell in &self.cells {
            let r = &cell.report;
            let _ = write!(
                out,
                "  {:<32} accuracy {:.4} pureness {:.3} ({} {}",
                cell.id,
                r.recent_accuracy,
                r.specialization.approval_pureness,
                r.progress,
                if r.async_metrics.is_some() {
                    "activations"
                } else {
                    "rounds"
                },
            );
            let _ = match &r.async_metrics {
                Some(m) => writeln!(out, ", rate {:.3}/t)", m.activation_rate()),
                None => writeln!(out, ")"),
            };
        }
        if let Some(path) = &self.comparison_csv {
            let _ = writeln!(out, "comparison written to {}", path.display());
        }
        out
    }

    /// Writes the comparison table as `<results dir>/<name>.csv`
    /// (`DAGFL_RESULTS`, default `results/`).
    fn write_comparison_csv(&self, name: &str) -> Result<PathBuf, ScenarioError> {
        let dir = std::env::var("DAGFL_RESULTS")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        let path = dir.join(format!("{name}.csv"));
        let header = self.comparison_header();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        write_csv(&path, &header_refs, &self.comparison_rows())
            .map_err(|e| ScenarioError::Io(format!("writing {}: {e}", path.display())))?;
        Ok(path)
    }
}

/// The analysis column group of the comparison CSV.
const ANALYSIS_COLUMNS: [&str; 7] = [
    "analysis_k",
    "analysis_silhouette",
    "analysis_purity",
    "analysis_ari",
    "analysis_communities",
    "analysis_modularity",
    "analysis_agreement",
];

/// The [`ANALYSIS_COLUMNS`] cells of one snapshot: empty for a cell
/// that ran without `[analysis]`, or for a view it did not request.
fn analysis_cells(snapshot: Option<&AnalysisSnapshot>) -> Vec<String> {
    let Some(s) = snapshot else {
        return vec![String::new(); 7];
    };
    let (k, silhouette, purity, ari) = match &s.parameters {
        Some(p) => (
            p.k.to_string(),
            format!("{:.4}", p.silhouette),
            format!("{:.4}", p.purity),
            format!("{:.4}", p.ari),
        ),
        None => Default::default(),
    };
    let (communities, modularity) = match &s.graph {
        Some(g) => (
            g.community_count.to_string(),
            format!("{:.4}", g.modularity),
        ),
        None => Default::default(),
    };
    let agreement = s
        .agreement_ari
        .map_or_else(String::new, |a| format!("{a:.4}"));
    vec![
        k,
        silhouette,
        purity,
        ari,
        communities,
        modularity,
        agreement,
    ]
}

/// Validates a [`SweepSpec`] and executes its cells through
/// [`dagfl_core::fan_out`], the fan-out a round's clients use.
///
/// `jobs` only controls wall-clock parallelism: every cell is a
/// self-contained deterministic scenario run, results are re-assembled
/// in expansion order, and the resulting [`SweepReport`] (and comparison
/// CSV) is byte-identical for `--jobs 1` and `--jobs N`.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    spec: SweepSpec,
    cells: Vec<SweepCell>,
}

impl SweepRunner {
    /// Validates the spec (at the `DAGFL_FULL` scale), expands the grid
    /// once and wraps both for execution.
    ///
    /// # Errors
    ///
    /// Returns the first [`SweepSpec::validate`]-style inconsistency.
    pub fn new(spec: SweepSpec) -> Result<Self, ScenarioError> {
        Self::at_scale(spec, Scale::from_env())
    }

    /// Validates and expands at an explicit scale. The expansion is
    /// captured here, so later [`SweepRunner::run`] calls execute
    /// exactly the cells that were validated — a file base edited or
    /// deleted in between cannot change (or fail) the run.
    ///
    /// # Errors
    ///
    /// Returns the first expansion inconsistency.
    pub fn at_scale(spec: SweepSpec, scale: Scale) -> Result<Self, ScenarioError> {
        let cells = spec.expand_at(scale)?;
        Ok(Self { spec, cells })
    }

    /// The wrapped spec.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The expanded cells, in deterministic order.
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// Runs every cell on `jobs` worker threads, the calling one
    /// included, and aggregates the reports (clamped to at least 1 and
    /// at most the cell count).
    ///
    /// # Errors
    ///
    /// Propagates the first failing cell (by expansion order), naming
    /// its id.
    pub fn run(&self, jobs: usize) -> Result<SweepReport, ScenarioError> {
        let jobs = jobs.clamp(1, self.cells.len().max(1));
        let cells = fan_out(jobs, &self.cells, |_, cell| {
            let mut scenario = cell.scenario.clone();
            if jobs > 1 {
                // Cell-level workers already saturate the cores;
                // stacking the per-round client fan-out on top
                // would oversubscribe them. Safe to disable: the
                // parallel round path is bit-deterministic
                // against the sequential one (pinned by the
                // RunReport-equality regression test).
                scenario.execution.dag_mut().parallel = false;
            }
            ScenarioRunner::new(scenario)
                .and_then(|runner| runner.run())
                .map(|report| SweepCellReport {
                    index: cell.index,
                    id: cell.id.clone(),
                    values: cell.values.clone(),
                    report,
                })
                .map_err(|e| {
                    ScenarioError::Invalid(format!("sweep cell `{}` failed: {e}", cell.id))
                })
        })?;
        let axes = self
            .spec
            .resolved_axes()
            .expect("spec validated at construction")
            .iter()
            .map(|(path, _)| path.to_string())
            .collect();
        let mut report = SweepReport {
            name: self.spec.name.clone(),
            axes,
            cells,
            comparison_csv: None,
        };
        if let Some(csv) = &self.spec.comparison_csv {
            report.comparison_csv = Some(report.write_comparison_csv(csv)?);
        }
        Ok(report)
    }
}

/// Whether TOML text is a sweep spec (it holds a real `[sweep]`
/// section) rather than a plain scenario, as `dagfl scenarios --check`
/// sorts files. Comments or strings that merely mention `[sweep]` do
/// not count.
pub fn is_sweep_toml(text: &str) -> bool {
    Document::parse(text)
        .map(|doc| doc.section("sweep").is_some())
        .unwrap_or(false)
}

// ---------------------------------------------------------------------------
// The sweep preset registry
// ---------------------------------------------------------------------------

/// Every sweep preset as `(name, description, text)`, in listing
/// order; the text is the checked-in `scenarios/<name>.toml`.
pub const SWEEP_PRESETS: &[(&str, &str, &str)] = &[
    preset_file!(
        "sweep-smoke",
        "2-cell seed sweep over the smoke scenario (CI smoke test, seconds)"
    ),
    preset_file!(
        "sweep-fig05-alpha",
        "Figure 5: alpha in {1, 10, 100} with tracked cluster metrics"
    ),
    preset_file!(
        "sweep-fig06-alpha",
        "Figure 6: alpha in {0.1, 1, 10, 100}, simple normalization"
    ),
    preset_file!(
        "sweep-fig07-alpha",
        "Figure 7: alpha in {0.1, 1, 10, 100}, dynamic normalization"
    ),
    preset_file!(
        "sweep-fig08-alpha",
        "Figure 8: alpha in {0.1, 1, 10, 100} on relaxed clusters"
    ),
    preset_file!(
        "sweep-poisoning-fraction",
        "Figures 12-14: poisoned-client fraction in {0, 0.2, 0.3}"
    ),
    preset_file!(
        "sweep-async-delay",
        "async link delay in {0, 2, 10} at the round-matched budget"
    ),
];

impl SweepSpec {
    /// Resolves a sweep preset by name: its checked-in file.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownPreset`] for unregistered names.
    pub fn preset(name: &str) -> Result<SweepSpec, ScenarioError> {
        let (.., text) = SWEEP_PRESETS
            .iter()
            .find(|(row, ..)| *row == name)
            .ok_or_else(|| ScenarioError::UnknownPreset(name.to_string()))?;
        SweepSpec::from_toml(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetSpec;
    use dagfl_core::{DelayModel, TipSelector};

    fn smoke_scenario() -> Scenario {
        Scenario::preset_at("smoke", Scale::Quick).unwrap()
    }

    fn tiny_sweep() -> SweepSpec {
        SweepSpec::over_scenario("tiny-sweep", smoke_scenario())
            .axis("execution.alpha", ["1", "10"])
            .axis("seed", ["42", "43"])
    }

    /// A sweep over the scenario file at `path`.
    fn over_file(name: &str, path: impl Into<PathBuf>) -> SweepSpec {
        SweepSpec::new(name, SweepBase::File(path.into()))
    }

    /// Writes `text` to `path`, creating its directory.
    fn write_file(path: &Path, text: String) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn expansion_is_a_deterministic_cross_product() {
        let cells = tiny_sweep().expand_at(Scale::Quick).unwrap();
        assert_eq!(cells.len(), 4);
        // Last axis fastest.
        let ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "alpha=1,seed=42",
                "alpha=1,seed=43",
                "alpha=10,seed=42",
                "alpha=10,seed=43"
            ]
        );
        assert_eq!(cells[3].index, 3);
        assert_eq!(cells[3].scenario.dataset.seed(), 43);
        assert_eq!(cells[3].scenario.execution.dag().seed, 43);
        match cells[3].scenario.execution.dag().tip_selector {
            TipSelector::Accuracy { alpha, .. } => assert_eq!(alpha, 10.0),
            ref other => panic!("unexpected selector {other:?}"),
        }
        // Cell names carry the sweep context.
        assert_eq!(cells[0].scenario.name, "tiny-sweep/alpha=1,seed=42");
        // Expansion is pure.
        assert_eq!(cells, tiny_sweep().expand_at(Scale::Quick).unwrap());
    }

    #[test]
    fn replicate_axis_derives_independent_seeds() {
        let cells = SweepSpec::over_scenario("rep", smoke_scenario())
            .axis("replicate", 0..3)
            .expand_at(Scale::Quick)
            .unwrap();
        assert_eq!(cells.len(), 3);
        let base_seed = smoke_scenario().execution.dag().seed;
        for (k, cell) in cells.iter().enumerate() {
            assert_eq!(
                cell.scenario.execution.dag().seed,
                derive_seed(base_seed, k as u64)
            );
            assert_eq!(
                cell.scenario.dataset.seed(),
                derive_seed(base_seed, k as u64)
            );
        }
    }

    #[test]
    fn unknown_and_duplicate_axes_are_rejected_with_the_field_path() {
        let err = SweepSpec::over_scenario("bad", smoke_scenario())
            .axis("warp_factor", ["1"])
            .validate()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnknownKey { ref key } if key == "axes.warp_factor"),
            "{err}"
        );
        // The same field twice, via an alias.
        let err = SweepSpec::over_scenario("bad", smoke_scenario())
            .axis("execution.alpha", ["1"])
            .axis("alpha", ["10"])
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("execution.alpha"), "{err}");
        assert!(err.to_string().contains("duplicate"), "{err}");
        // seed and replicate target the same master seed.
        let err = SweepSpec::over_scenario("bad", smoke_scenario())
            .axis("seed", ["1"])
            .axis("replicate", ["0"])
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        assert!(err.to_string().contains("seed"), "{err}");
    }

    #[test]
    fn inapplicable_axes_are_rejected_with_the_field_path() {
        let mut random = smoke_scenario();
        random.execution.dag_mut().tip_selector = TipSelector::Random;
        let mut author = smoke_scenario();
        author.dataset = DatasetSpec::FmnistAuthor {
            clients: 4,
            samples: 30,
            seed: 42,
        };
        let poets = Scenario::preset_at("table1-poets", Scale::Quick).unwrap();
        let asynchronous = Scenario::preset_at("async-delay2", Scale::Quick).unwrap();
        for (base, axis, path) in [
            // Async keys on a rounds base.
            (smoke_scenario(), "execution.delay", "execution.delay"),
            (smoke_scenario(), "activations", "execution.activations"),
            // Round-scheduling keys on an async base: the reader accepts
            // them there (and ignores them), the sweep does not.
            (asynchronous.clone(), "execution.rounds", "execution.rounds"),
            (
                asynchronous.clone(),
                "clients_per_round",
                "execution.clients_per_round",
            ),
            // A key of another delay model.
            (asynchronous, "execution.jitter", "execution.jitter"),
            // Attack key without an [attack] section.
            (smoke_scenario(), "attack.fraction", "attack.fraction"),
            // Alpha on a random selector.
            (random, "alpha", "execution.alpha"),
            // Relaxation and client count on datasets without them.
            (author, "dataset.relaxation", "dataset.relaxation"),
            (poets, "clients", "dataset.clients"),
            // A misspelt path is a key no base has.
            (smoke_scenario(), "execution.alhpa", "execution.alhpa"),
        ] {
            let err = SweepSpec::over_scenario("bad", base)
                .axis(axis, ["1"])
                .validate()
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("sweep axis `{path}` does not apply")),
                "{axis}: {err}"
            );
        }
        // An axis the base has, whose value a range check rejects, is
        // named by the key the axis spells, not by core's field name.
        let asynchronous = Scenario::preset_at("async-delay2", Scale::Quick).unwrap();
        let err = SweepSpec::over_scenario("bad", asynchronous)
            .axis("execution.interarrival", ["0"])
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("`execution.interarrival`"), "{err}");
        assert!(!err.contains("mean_interarrival"), "{err}");
    }

    #[test]
    fn any_numeric_key_is_an_axis() {
        // No table lists what can be swept: a key path the old typed
        // axes never knew expands through the ordinary path...
        let spec = SweepSpec::over_scenario("dropout", smoke_scenario())
            .axis("execution.publication_dropout", ["0.0", "0.25"])
            .axis("output.recent_window", ["5"]);
        let cells = spec.expand_at(Scale::Quick).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells[1].id,
            "execution.publication_dropout=0.25,output.recent_window=5"
        );
        // ...to the scenario a file holding the same tokens parses to...
        let text = smoke_scenario()
            .to_toml()
            .replace("publication_dropout = 0.0", "publication_dropout = 0.25")
            .replace("recent_window = 30", "recent_window = 5")
            .replace(
                "name = \"smoke\"",
                &format!("name = \"{}\"", cells[1].scenario.name),
            );
        assert_eq!(cells[1].scenario, Scenario::from_toml(&text).unwrap());
        // ...with cells validated like any other.
        let err = spec
            .axis("execution.walk_depth_min", ["99"])
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("walk_depth"), "{err}");
    }

    #[test]
    fn empty_axes_bad_tokens_and_caps_are_rejected() {
        let err = SweepSpec::over_scenario("bad", smoke_scenario())
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("at least one axis"), "{err}");
        let err = SweepSpec::over_scenario("bad", smoke_scenario())
            .axis("alpha", Vec::<String>::new())
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("no values"), "{err}");
        // An integer field rejects float tokens.
        let err = SweepSpec::over_scenario("bad", smoke_scenario())
            .axis("seed", ["1.5"])
            .validate()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::InvalidValue { ref key, .. } if key == "axes.seed"),
            "{err}"
        );
        // The range cap refuses oversized axes.
        let err = SweepSpec::from_toml(
            "name = \"big\"\n[sweep]\npreset = \"smoke\"\n[axes]\nreplicate = 0..10001\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("more than 10000"), "{err}");
    }

    #[test]
    fn invalid_cells_name_their_coordinates() {
        // alpha = 0 fails DagConfig range checks only after application.
        let err = SweepSpec::over_scenario("bad", smoke_scenario())
            .axis("alpha", ["-1"])
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("alpha=-1"), "{err}");
    }

    #[test]
    fn toml_round_trips_every_base_shape() {
        let cases = vec![
            tiny_sweep(),
            SweepSpec {
                comparison_csv: Some("cmp".into()),
                ..SweepSpec::over_preset("over-preset", "smoke").axis("seed", ["1", "2"])
            },
            over_file("over-file", "scenarios/smoke.toml").axis("alpha", ["1"]),
            // An inline base keeps every section it has, [faults] included.
            SweepSpec::over_scenario(
                "over-chaos",
                Scenario::preset_at("chaos-smoke", Scale::Quick).unwrap(),
            )
            .axis("faults.drop", ["0.0", "0.3"]),
        ];
        for spec in cases {
            let text = spec.to_toml();
            let reparsed = SweepSpec::from_toml(&text)
                .unwrap_or_else(|e| panic!("reparsing `{}` failed: {e}\n{text}", spec.name));
            assert_eq!(spec, reparsed, "{text}");
        }
    }

    #[test]
    fn toml_ranges_expand_to_value_lists() {
        let spec = SweepSpec::from_toml(
            "name = \"r\"\n[sweep]\npreset = \"smoke\"\n[axes]\nreplicate = 0..3\n",
        )
        .unwrap();
        assert_eq!(spec.axes[0].values, ["0", "1", "2"]);
        // Builder ranges expand identically, so the round trip stays exact.
        let built = SweepSpec::over_preset("r", "smoke").axis("replicate", 0..3);
        assert_eq!(spec.axes, built.axes);
    }

    #[test]
    fn malformed_sweep_files_are_rejected() {
        // Missing [sweep].
        let err = SweepSpec::from_toml("name = \"x\"\n[axes]\nseed = [1]\n").unwrap_err();
        assert!(
            matches!(err, ScenarioError::MissingKey { ref key } if key == "[sweep]"),
            "{err}"
        );
        // Missing [axes].
        let err = SweepSpec::from_toml("name = \"x\"\n[sweep]\npreset = \"smoke\"\n").unwrap_err();
        assert!(
            matches!(err, ScenarioError::MissingKey { ref key } if key == "[axes]"),
            "{err}"
        );
        // Two bases at once.
        let err = SweepSpec::from_toml(
            "name = \"x\"\n[sweep]\npreset = \"a\"\nscenario = \"b\"\n[axes]\nseed = [1]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
        // Scenario sections without an inline base.
        let err = SweepSpec::from_toml(
            "name = \"x\"\n[sweep]\npreset = \"smoke\"\n[dataset]\nkind = \"fmnist\"\n\
             [axes]\nseed = [1]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("scenario_name"), "{err}");
        // Unknown section and unknown [sweep] key.
        let err = SweepSpec::from_toml(
            "name = \"x\"\n[sweep]\npreset = \"smoke\"\n[axes]\nseed = [1]\n[extra]\nk = 1\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnknownKey { ref key } if key == "[extra]"),
            "{err}"
        );
        let err = SweepSpec::from_toml(
            "name = \"x\"\n[sweep]\npreset = \"smoke\"\npresett = \"y\"\n[axes]\nseed = [1]\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnknownKey { ref key } if key == "sweep.presett"),
            "{err}"
        );
        for (line, key) in [
            ("max_cells = 4", "sweep.max_cells"),
            ("cell_csv = false", "sweep.cell_csv"),
        ] {
            let err = SweepSpec::from_toml(&format!(
                "name = \"x\"\n[sweep]\npreset = \"smoke\"\n{line}\n[axes]\nseed = [1]\n"
            ))
            .unwrap_err();
            assert!(
                matches!(err, ScenarioError::UnknownKey { key: ref k } if k == key),
                "{err}"
            );
        }
        // A non-list axis value.
        let err = SweepSpec::from_toml(
            "name = \"x\"\n[sweep]\npreset = \"smoke\"\n[axes]\nseed = \"many\"\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, ScenarioError::InvalidValue { ref key, .. } if key == "axes.seed"),
            "{err}"
        );
        // An empty range.
        let err = SweepSpec::from_toml(
            "name = \"x\"\n[sweep]\npreset = \"smoke\"\n[axes]\nseed = 5..5\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("dagfl_sweep_io_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/tiny.toml");
        let spec = tiny_sweep();
        write_file(&path, spec.to_toml());
        assert_eq!(SweepSpec::load(&path).unwrap(), spec);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            SweepSpec::load(dir.join("missing.toml")).unwrap_err(),
            ScenarioError::Io(_)
        ));
    }

    #[test]
    fn file_base_resolves_at_expansion_time() {
        let dir = std::env::temp_dir().join("dagfl_sweep_file_base_test");
        let _ = std::fs::remove_dir_all(&dir);
        let base_path = dir.join("base.toml");
        write_file(&base_path, smoke_scenario().to_toml());
        let spec = over_file("file-base", &base_path).axis("seed", ["1", "2"]);
        let cells = spec.expand_at(Scale::Quick).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].scenario.dataset.seed(), 1);
        // A runner captures the expansion at construction, so deleting
        // the base file afterwards neither changes nor fails the run.
        let runner = SweepRunner::at_scale(spec.clone(), Scale::Quick).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            spec.expand_at(Scale::Quick).unwrap_err(),
            ScenarioError::Io(_)
        ));
        assert_eq!(runner.cells().len(), 2);
        assert_eq!(runner.run(1).unwrap().cells.len(), 2);
    }

    #[test]
    fn loaded_relative_file_bases_anchor_to_the_sweep_file() {
        // `scenario = "base.toml"` in a sweep file means a sibling of
        // that file, wherever the process happens to run from.
        let dir = std::env::temp_dir().join("dagfl_sweep_relative_base_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_file(&dir.join("base.toml"), smoke_scenario().to_toml());
        let sweep_path = dir.join("sweep.toml");
        write_file(
            &sweep_path,
            over_file("relative", "base.toml")
                .axis("seed", ["1"])
                .to_toml(),
        );
        let spec = SweepSpec::load(&sweep_path).unwrap();
        assert_eq!(spec.base, SweepBase::File(dir.join("base.toml")));
        assert_eq!(spec.expand_at(Scale::Quick).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn is_sweep_toml_requires_a_real_sweep_section() {
        assert!(is_sweep_toml(
            "name = \"x\"\n[sweep]\npreset = \"smoke\"\n[axes]\nseed = [1]\n"
        ));
        // Mentions in comments or strings do not count.
        assert!(!is_sweep_toml(
            "# migrated from [sweep] format\nname = \"x\"\n"
        ));
        assert!(!is_sweep_toml("name = \"a [sweep] b\"\n"));
        assert!(!is_sweep_toml("not toml at all"));
    }

    #[test]
    fn run_aggregates_cells_in_expansion_order() {
        let spec = SweepSpec::over_scenario("order", smoke_scenario()).axis("seed", ["42", "43"]);
        let report = SweepRunner::at_scale(spec, Scale::Quick)
            .unwrap()
            .run(1)
            .unwrap();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].id, "seed=42");
        assert_eq!(report.cells[1].id, "seed=43");
        assert_eq!(report.axes, ["seed"]);
        // Different seeds actually produced different runs.
        assert_ne!(
            report.cells[0].report.round_accuracy,
            report.cells[1].report.round_accuracy
        );
        assert!(report.summary().contains("seed=43"));
    }

    #[test]
    fn worker_count_does_not_change_the_report_or_the_csv() {
        // The acceptance grid: >= 4 cells, --jobs 1 vs --jobs 2,
        // byte-identical comparison CSVs.
        let runner = SweepRunner::at_scale(tiny_sweep(), Scale::Quick).unwrap();
        let serial = runner.run(1).unwrap();
        let pooled = runner.run(2).unwrap();
        assert_eq!(serial, pooled);
        let a = serial.comparison_csv_text();
        let b = pooled.comparison_csv_text();
        assert_eq!(a.as_bytes(), b.as_bytes());
        // The table has one row per cell plus the header.
        assert_eq!(a.lines().count(), 5);
        assert!(
            a.starts_with("cell,execution.alpha,seed,mode,progress,"),
            "{a}"
        );
    }

    #[test]
    fn oversized_jobs_clamp_to_the_cell_count() {
        let spec = SweepSpec::over_scenario("clamp", smoke_scenario()).axis("seed", ["42"]);
        let report = SweepRunner::at_scale(spec, Scale::Quick)
            .unwrap()
            .run(64)
            .unwrap();
        assert_eq!(report.cells.len(), 1);
    }

    #[test]
    fn zero_activation_async_reports_format_without_nan() {
        // An async run whose horizon elapses before any activation:
        // every AsyncMetrics rate guard returns 0.0, and neither the
        // human summary nor the sweep comparison CSV may leak a NaN.
        use crate::runner::DatasetSummary;
        use dagfl_core::{AsyncMetrics, SpecializationMetrics};
        use dagfl_tangle::TangleStats;
        let metrics = AsyncMetrics {
            activations: 0,
            publications: 0,
            discarded_stale: 0,
            reselections: 0,
            elapsed: 0.0,
            mean_publish_latency: 0.0,
            max_publish_latency: 0.0,
            staleness_histogram: [0; 3],
            mean_confirmation_depth: 0.0,
            tips: 1,
            transactions: 1,
            fresh_evaluations: 0,
            cached_evaluations: 0,
            delivered: 0,
            dropped: 0,
            duplicated: 0,
        };
        assert_eq!(metrics.activation_rate(), 0.0);
        assert_eq!(metrics.publish_fraction(), 0.0);
        assert_eq!(metrics.stale_fraction(), 0.0);
        let report = RunReport {
            scenario: "empty-horizon".into(),
            mode: "async",
            progress: 0,
            recent_accuracy: 0.0,
            round_accuracy: Vec::new(),
            fresh_evaluations: 0,
            cached_evaluations: 0,
            dataset: DatasetSummary {
                name: "fmnist-clustered".into(),
                clients: 4,
                classes: 10,
                clusters: 3,
                base_pureness: 0.33,
            },
            specialization: SpecializationMetrics {
                modularity: 0.0,
                partitions: 1,
                misclassification: 0.0,
                approval_pureness: 1.0,
                partition: vec![0; 4],
            },
            specialization_track: Vec::new(),
            analysis: None,
            analysis_track: Vec::new(),
            footprint: crate::Footprint::Replicas {
                mean_len: 1.0,
                max_len: 1,
                buffered: 0,
            },
            tangle: TangleStats {
                transactions: 1,
                tips: 1,
                edges: 0,
                max_depth: 0,
                mean_parents: 0.0,
                mean_children: 0.0,
            },
            tangle_digest: 0,
            async_metrics: Some(metrics),
            poisoning: None,
        };
        let summary = report.summary();
        assert!(!summary.contains("NaN"), "{summary}");
        let sweep = SweepReport {
            name: "empty".into(),
            axes: vec!["execution.delay".into()],
            cells: vec![SweepCellReport {
                index: 0,
                id: "delay=2.0".into(),
                values: vec![("execution.delay".into(), "2.0".into())],
                report,
            }],
            comparison_csv: None,
        };
        let csv = sweep.comparison_csv_text();
        assert!(!csv.contains("NaN"), "{csv}");
        assert!(csv.contains("0.0000"), "{csv}");
        assert!(!sweep.summary().contains("NaN"));
    }

    #[test]
    fn every_short_name_is_a_key_the_reader_knows() {
        // A short name whose path no preset's reader accepts could never
        // name an axis.
        for (short, path) in SHORT_NAMES {
            let known = crate::PRESETS.iter().any(|(name, ..)| {
                Scenario::preset_at(name, Scale::Quick)
                    .and_then(|scenario| scenario.set_keys(&[(*path, "1")]))
                    .is_ok()
            });
            assert!(known, "`{short}` names `{path}`, which no preset reads");
        }
    }

    #[test]
    fn every_sweep_preset_builds_validates_and_round_trips() {
        for (name, ..) in SWEEP_PRESETS {
            let spec = SweepSpec::preset(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name, *name);
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let reparsed = SweepSpec::from_toml(&spec.to_toml()).unwrap();
            assert_eq!(spec, reparsed, "{name}");
        }
        assert!(matches!(
            SweepSpec::preset("sweep-nothing"),
            Err(ScenarioError::UnknownPreset(_))
        ));
    }

    #[test]
    fn async_delay_preset_sweeps_the_delay_field() {
        let cells = SweepSpec::preset("sweep-async-delay")
            .unwrap()
            .expand_at(Scale::Quick)
            .unwrap();
        assert_eq!(cells.len(), 3);
        let delays: Vec<f64> = cells
            .iter()
            .map(|c| match &c.scenario.execution {
                ExecutionSpec::Async { config, .. } => match config.delay {
                    DelayModel::Constant { delay } => delay,
                    ref other => panic!("unexpected delay model {other:?}"),
                },
                other => panic!("unexpected execution {other:?}"),
            })
            .collect();
        assert_eq!(delays, [0.0, 2.0, 10.0]);
    }

    #[test]
    fn poisoning_preset_sweeps_the_attack_fraction() {
        let cells = SweepSpec::preset("sweep-poisoning-fraction")
            .unwrap()
            .expand_at(Scale::Quick)
            .unwrap();
        let fractions: Vec<f64> = cells
            .iter()
            .map(|c| c.scenario.attack.expect("attack").poison_fraction)
            .collect();
        assert_eq!(fractions, [0.0, 0.2, 0.3]);
    }
}
