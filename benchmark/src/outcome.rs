//! What one workload process hands back: metrics, their sample
//! summaries, the correctness checks and the op counts.

use std::time::{Duration, Instant};

use crate::json::Value;
use crate::metrics::MetricSet;
use crate::stats::{summarize, Summary};

/// Options of one workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// Workload seed, applied to the scenario by the harness.
    pub seed: u64,
    /// How long the measured phase may take.
    pub seconds: f64,
    /// Emit per-layer metrics from a traced run instead of end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
    /// One rep at a tenth of the size; checks still on.
    pub quick: bool,
}

/// A time budget that reps are fitted into.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    started: Instant,
    total: Duration,
}

impl Budget {
    /// Starts a budget of `seconds` now.
    pub fn start(seconds: f64) -> Self {
        Self {
            started: Instant::now(),
            total: Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    /// Seconds spent so far.
    pub fn spent(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Seconds left (0 when overdrawn).
    pub fn left(&self) -> f64 {
        (self.total.as_secs_f64() - self.spent()).max(0.0)
    }
}

/// One executed correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The evidence (values compared).
    pub note: String,
}

/// The correctness checks of a run; each failure is one failed op.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks(Vec<Check>);

impl Checks {
    /// Records one executed check.
    pub fn check(&mut self, name: &'static str, ok: bool, note: impl Into<String>) {
        self.0.push(Check {
            name,
            ok,
            note: note.into(),
        });
    }

    /// All executed checks.
    pub fn items(&self) -> &[Check] {
        &self.0
    }

    /// Number of failed checks.
    pub fn failed(&self) -> usize {
        self.0.iter().filter(|c| !c.ok).count()
    }

    /// As a JSON array for the result file.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.0
                .iter()
                .map(|c| {
                    Value::object()
                        .with("name", c.name)
                        .with("ok", c.ok)
                        .with("note", c.note.as_str())
                })
                .collect(),
        )
    }
}

/// The result of one workload process.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Measured values by name.
    pub metrics: MetricSet,
    /// Sample summaries of the timed metrics (median, quartiles, range,
    /// rep count), reported beside the values.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Executed correctness checks.
    pub checks: Checks,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that returned an error.
    pub errored: u64,
    /// Free-form details for the result file (digests, counters).
    pub detail: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Records `name` as the median of `samples` and keeps their summary.
    pub fn timed(&mut self, name: &'static str, samples: &[f64]) {
        let summary = summarize(samples);
        self.metrics.set(name, summary.median);
        self.summaries.push((name, summary));
    }

    /// Ops that errored plus checks that failed.
    pub fn failed(&self) -> u64 {
        self.errored + self.checks.failed() as u64
    }

    /// Attempted ops plus executed checks.
    pub fn total_attempted(&self) -> u64 {
        (self.attempted + self.checks.items().len() as u64).max(1)
    }
}
