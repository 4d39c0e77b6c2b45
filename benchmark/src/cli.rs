//! Argument parsing and the workload (child) process.

use std::path::PathBuf;

use crate::json::Value;
use crate::metrics::{per_layer, END_TO_END};
use crate::outcome::{Opts, Outcome};
use crate::workload::{self, Workload};
use crate::{net, proc, sim, trace};

/// Seed when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// Measured seconds per workload when none are given: `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Measured seconds per workload under `--quick`.
pub const QUICK_SECONDS: f64 = 1.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload NAME`: run one workload (all when absent).
    pub workload: Option<String>,
    /// `--seed N`.
    pub seed: u64,
    /// `--seconds S`; `None` when not given (a human run, which may re-run
    /// a noisy workload; a time-boxed run may not).
    pub seconds: Option<f64>,
    /// `--trace` / `--trace 1`.
    pub trace: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--aa`: run the suite twice and compare.
    pub aa: bool,
    /// `--child`: this process measures one workload (internal).
    pub child: bool,
    /// `--print-spec`: print `BENCHMARK.json` from the catalogue.
    pub print_spec: bool,
    /// `--out DIR`: where result and trace files go.
    pub out: Option<PathBuf>,
    /// `--spec FILE`: the `BENCHMARK.json` whose bounds `--aa` applies.
    pub spec: Option<PathBuf>,
}

/// The usage text.
pub const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--quick] [--aa]\n\
  workloads: rounds-fmnist rounds-poets async-scale net-gossip (default: all)\n\
  --trace    emit the per-layer cost ladder from a traced run (after the end-to-end run)\n\
  --quick    1 rep at a tenth of the size, checks still on (a smoke of the harness)\n\
  --aa       run the suite twice on one build and compare against the bounds in BENCHMARK.json";

impl Args {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: None,
            trace: false,
            quick: false,
            aa: false,
            child: false,
            print_spec: false,
            out: None,
            spec: None,
        };
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs {what}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    if workload::find(&name).is_none() {
                        return Err(format!("unknown workload {name:?}"));
                    }
                    out.workload = Some(name);
                }
                "--seed" => {
                    out.seed = value("a number")?
                        .parse()
                        .map_err(|_| "--seed needs a non-negative integer".to_string())?;
                }
                "--seconds" => {
                    let seconds: f64 = value("a number")?
                        .parse()
                        .map_err(|_| "--seconds needs a number".to_string())?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".to_string());
                    }
                    out.seconds = Some(seconds);
                }
                // Bare `--trace` (the issue's form) or `--trace 0|1` (the
                // driver's form).
                "--trace" => match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        out.trace = false;
                    }
                    Some("1") => {
                        it.next();
                        out.trace = true;
                    }
                    _ => out.trace = true,
                },
                "--quick" => out.quick = true,
                "--aa" => out.aa = true,
                "--child" => out.child = true,
                "--print-spec" => out.print_spec = true,
                "--out" => out.out = Some(PathBuf::from(value("a directory")?)),
                "--spec" => out.spec = Some(PathBuf::from(value("a file")?)),
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
            }
        }
        Ok(out)
    }

    /// The options a workload process runs with.
    pub fn opts(&self, trace: bool) -> Opts {
        let default = if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        Opts {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(default),
            trace,
            quick: self.quick,
        }
    }
}

/// Measures one workload in this process.
///
/// # Errors
///
/// Returns the first scenario, simulation or socket error as text.
pub fn measure(
    workload: &Workload,
    opts: &Opts,
    out: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let scenario = workload
        .scenario(opts.seed, opts.quick)
        .map_err(|e| e.to_string())?;
    let mut outcome = match (scenario, opts.trace) {
        (Some(_), false) => sim::run_e2e(workload, opts).map_err(|e| e.to_string())?,
        (Some(scenario), true) => {
            trace::run_sim(workload, &scenario, opts, out).map_err(|e| e.to_string())?
        }
        (None, false) => net::run_e2e(workload, opts).map_err(|e| e.to_string())?,
        (None, true) => trace::run_net(workload, opts, out).map_err(|e| e.to_string())?,
    };
    if opts.trace {
        let share = outcome.failed() as f64 / outcome.total_attempted() as f64;
        outcome.metrics.set("quality.failed_ops_share", share);
    } else {
        outcome.metrics.set("peak_rss_mb", proc::peak_rss_mb());
    }
    Ok(outcome)
}

/// `{value, unit}` for every metric of the run's kind, in catalogue order;
/// a metric the run did not measure reads 0 (layer not on its path).
pub fn metrics_json(outcome: &Outcome, trace: bool) -> Value {
    let names: Vec<(&str, &str)> = if trace {
        per_layer().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Value::object();
    for (name, unit) in names {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        metrics.set(
            name,
            Value::object().with("value", value).with("unit", unit),
        );
    }
    metrics
}

/// The child's whole result as one JSON object: the contract's four keys
/// plus what the result file adds.
pub fn child_json(outcome: &Outcome, trace: bool) -> Value {
    let summaries = Value::Obj(
        outcome
            .summaries
            .iter()
            .map(|(name, s)| {
                (
                    (*name).to_string(),
                    Value::object()
                        .with("n", s.n)
                        .with("min", s.min)
                        .with("q1", s.q1)
                        .with("median", s.median)
                        .with("q3", s.q3)
                        .with("max", s.max),
                )
            })
            .collect(),
    );
    let detail = Value::Obj(
        outcome
            .detail
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    );
    let finite = outcome.metrics.iter().all(|(_, v)| v.is_finite());
    Value::object()
        .with("correct", outcome.failed() == 0 && finite)
        .with("attempted", outcome.total_attempted())
        .with("failed", outcome.failed() + u64::from(!finite))
        .with("metrics", metrics_json(outcome, trace))
        .with("samples", summaries)
        .with("checks", outcome.checks.to_json())
        .with("detail", detail)
}
