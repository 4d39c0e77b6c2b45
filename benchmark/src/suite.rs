//! The orchestrating (parent) process: one child process per workload —
//! so `peak_rss_mb` is per workload — with the noise canary timed before
//! and after each, result files, the printed tables, and `--aa`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::canary::{self, Canary};
use crate::cli::{self, Args};
use crate::json::{self, Value};
use crate::metrics::{per_layer, Better, END_TO_END};
use crate::workload::{Workload, WORKLOADS};

/// Canary drift beyond which a measurement is not trusted.
pub const DRIFT_LIMIT: f64 = 0.05;

/// What the machine is, stamped into every result file.
pub fn fingerprint(reference: &Canary) -> Value {
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter_map(|(name, on)| on.then_some(*name))
    .collect();
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Value::object()
        // Reported, never used to size anything: thread counts are fixed
        // numbers in the workload files.
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        )
        .with("arch", std::env::consts::ARCH)
        .with("target_features", features.join(","))
        .with("rustc", env("DAGFL_BENCH_RUSTC"))
        .with("commit", env("DAGFL_BENCH_COMMIT"))
        .with("peak_gflops", reference.peak_gflops())
        .with("mem_gb_s", reference.mem_gb_s())
}

/// One measured workload, as the parent holds it.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The contract's four keys plus samples, checks and detail.
    pub result: Value,
    /// Canary before the workload.
    pub before: Canary,
    /// Canary after the workload.
    pub after: Canary,
    /// Still drifting after the one allowed re-run.
    pub noisy: bool,
}

impl Measured {
    /// `metrics.<name>.value`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

fn spawn_child(workload: &Workload, args: &Args, trace: bool, out: &Path) -> Result<Value, String> {
    let opts = args.opts(trace);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("--child")
        .args(["--workload", workload.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if args.quick {
        command.arg("--quick");
    }
    // `output()` waits for the child and collects its pipe, so no process
    // outlives this call.
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the workload process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "workload {} failed ({})",
            workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("workload {} printed no result", workload.name))?;
    json::parse(line).map_err(|e| format!("workload {} printed a bad result: {e}", workload.name))
}

/// Runs one workload in a child process between two canary readings. When
/// the canary drifts more than [`DRIFT_LIMIT`] and the run is not
/// time-boxed (`--seconds` absent, not `--quick`), the workload is re-run
/// once; if it still drifts the result is marked `noisy` instead of
/// silently published. A time-boxed run cannot afford the re-run and is
/// marked at once.
///
/// # Errors
///
/// Returns a message when the child cannot run or fails.
pub fn measure(
    workload: &Workload,
    args: &Args,
    trace: bool,
    out: &Path,
) -> Result<Measured, String> {
    let mut attempts = if args.seconds.is_some() || args.quick {
        1
    } else {
        2
    };
    loop {
        let before = canary::measure(args.quick);
        let result = spawn_child(workload, args, trace, out)?;
        let after = canary::measure(args.quick);
        attempts -= 1;
        let drifting = before.drift(&after) > DRIFT_LIMIT;
        if drifting && attempts > 0 {
            eprintln!(
                "# {}: canary drifted {:.1} %, re-running once",
                workload.name,
                before.drift(&after) * 100.0
            );
            continue;
        }
        let mut measured = Measured {
            result,
            before,
            after,
            noisy: drifting,
        };
        if let Some(metrics) = measured.result.get_mut("metrics").filter(|_| trace) {
            let ms = (before.total_ms() + after.total_ms()) / 2.0;
            for (name, value, unit) in [
                ("host.canary.ms", ms, "ms"),
                ("host.canary.drift", before.drift(&after), "ratio"),
            ] {
                metrics.set(
                    name,
                    Value::object().with("value", value).with("unit", unit),
                );
            }
        }
        return Ok(measured);
    }
}

fn canary_json(c: &Canary) -> Value {
    Value::object()
        .with("fma_s", c.fma_s)
        .with("copy_s", c.copy_s)
        .with("ms", c.total_ms())
}

/// Writes `out/<workload>.json` (or `<workload>-trace.json`).
fn write_result(workload: &Workload, args: &Args, trace: bool, m: &Measured, out: &Path) {
    let opts = args.opts(trace);
    let mut doc = Value::object()
        .with("workload", workload.name)
        .with("why", workload.why)
        .with("mode", if trace { "trace" } else { "end_to_end" })
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("quick", opts.quick)
        .with("host", fingerprint(&m.before))
        .with(
            "canary",
            Value::object()
                .with("before", canary_json(&m.before))
                .with("after", canary_json(&m.after))
                .with("drift", m.before.drift(&m.after))
                .with("noisy", m.noisy),
        );
    for (key, value) in m.result.fields() {
        doc.set(key, value.clone());
    }
    let suffix = if trace { "-trace" } else { "" };
    let path = out.join(format!("{}{suffix}.json", workload.name));
    if let Err(e) = std::fs::write(&path, doc.to_json() + "\n") {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Prints every metric of one measured workload by name with its unit,
/// its sample summary where there is one, and the checks.
fn print_measured(workload: &Workload, trace: bool, m: &Measured) {
    let mode = if trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!("== {} [{mode}] — {}", workload.name, workload.why);
    let mut layer = "";
    for (name, metric) in m.result.get("metrics").map_or(&[][..], Value::fields) {
        if let Some(def) = per_layer().find(|p| trace && p.name == name && p.layer != layer) {
            layer = def.layer;
            println!("  [{layer}] moves: {}", def.moves);
        }
        let value = metric.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
        let samples = m.result.get("samples").and_then(|s| s.get(name));
        let spread = samples.map_or_else(String::new, |s| {
            let f = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            format!(
                "  (n={} min {:.6} q1 {:.6} q3 {:.6} max {:.6})",
                f("n"),
                f("min"),
                f("q1"),
                f("q3"),
                f("max")
            )
        });
        println!("  {name:<42} {value:>16.6} {unit}{spread}");
    }
    let checks = m.result.get("checks").map_or(&[][..], Value::items);
    for check in checks {
        let ok = check.get("ok").and_then(Value::as_bool).unwrap_or(false);
        println!(
            "  check {:<4} {} — {}",
            if ok { "ok" } else { "FAIL" },
            check.get("name").and_then(Value::as_str).unwrap_or(""),
            check.get("note").and_then(Value::as_str).unwrap_or("")
        );
    }
    let f = |k: &str| m.result.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "  attempted {} failed {} (failed_ops_share {}), canary drift {:.2} %{}",
        f("attempted"),
        f("failed"),
        f("failed") / f("attempted").max(1.0),
        m.before.drift(&m.after) * 100.0,
        if m.noisy { " — NOISY" } else { "" }
    );
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn contract_line(m: &Measured) -> String {
    let mut line = Value::object();
    for key in ["correct", "attempted", "failed", "metrics"] {
        line.set(key, m.result.get(key).cloned().unwrap_or(Value::Null));
    }
    line.to_json()
}

fn out_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn is_correct(m: &Measured) -> bool {
    m.result.get("correct").and_then(Value::as_bool) == Some(true)
}

/// `--workload NAME`: one workload, one mode; the last line printed is the
/// contract's result object.
///
/// # Errors
///
/// Returns a message when the workload cannot be measured.
pub fn run_one(workload: &Workload, args: &Args) -> Result<bool, String> {
    let out = out_dir(args)?;
    let measured = measure(workload, args, args.trace, &out)?;
    write_result(workload, args, args.trace, &measured, &out);
    print_measured(workload, args.trace, &measured);
    println!("{}", contract_line(&measured));
    Ok(is_correct(&measured))
}

/// One pass over all workloads: end-to-end always, traced too on
/// `--trace`. Returns the end-to-end results in workload order.
fn run_pass(args: &Args, out: &Path) -> Result<Vec<Measured>, String> {
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let measured = measure(workload, args, false, out)?;
        write_result(workload, args, false, &measured, out);
        print_measured(workload, false, &measured);
        results.push(measured);
        if args.trace {
            let traced = measure(workload, args, true, out)?;
            write_result(workload, args, true, &traced, out);
            print_measured(workload, true, &traced);
            if !is_correct(&traced) {
                return Err(format!("{}: a traced check failed", workload.name));
            }
        }
    }
    Ok(results)
}

fn print_summary(results: &[Measured]) {
    print!("\n{:<14}", "metric");
    for w in WORKLOADS {
        print!(" {:>15}", w.name);
    }
    println!();
    for metric in END_TO_END {
        print!("{:<14}", format!("{} [{}]", metric.name, metric.unit));
        for m in results {
            print!(" {:>15.6}", m.value(metric.name).unwrap_or(0.0));
        }
        println!();
    }
}

/// The whole suite once.
///
/// # Errors
///
/// Returns a message when any workload cannot be measured.
pub fn run_suite(args: &Args) -> Result<bool, String> {
    let out = out_dir(args)?;
    let results = run_pass(args, &out)?;
    print_summary(&results);
    let noisy: Vec<&str> = WORKLOADS
        .iter()
        .zip(&results)
        .filter_map(|(w, m)| m.noisy.then_some(w.name))
        .collect();
    if !noisy.is_empty() {
        println!(
            "noisy (canary drift > {:.0} %): {}",
            DRIFT_LIMIT * 100.0,
            noisy.join(", ")
        );
    }
    Ok(results.iter().all(is_correct))
}

/// Bounds by end-to-end metric name, read from `BENCHMARK.json`.
fn bounds(args: &Args) -> Result<Vec<(String, Better, f64)>, String> {
    let path = args
        .spec
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    spec.get("end_to_end")
        .map_or(&[][..], Value::items)
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            let better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            match (name, bound) {
                (Some(name), Some(bound)) => Ok((name.to_string(), better, bound)),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

/// `--aa`: the suite twice, back to back, on one build. Prints, per
/// (metric, workload), both medians, their relative difference and
/// PASS/FAIL against the bound; simulated statistics must agree exactly.
///
/// # Errors
///
/// Returns a message when a workload cannot be measured or
/// `BENCHMARK.json` cannot be read.
pub fn run_aa(args: &Args) -> Result<bool, String> {
    let bounds = bounds(args)?;
    let out = out_dir(args)?;
    let mut quiet = args.clone();
    quiet.trace = false;
    let first = run_pass(&quiet, &out)?;
    let second = run_pass(&quiet, &out)?;
    let mut all_pass = first.iter().chain(&second).all(is_correct);
    println!("\nA/A: two runs of the same build, seed {}", args.seed);
    println!(
        "{:<14} {:<14} {:>15} {:>15} {:>9} {:>7}  verdict",
        "workload", "metric", "run A", "run B", "diff", "bound"
    );
    for ((workload, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        for (name, _, bound) in &bounds {
            let (va, vb) = (a.value(name).unwrap_or(0.0), b.value(name).unwrap_or(0.0));
            let diff = if va == 0.0 {
                f64::INFINITY
            } else {
                (vb - va).abs() / va.abs()
            };
            let pass = diff <= *bound;
            all_pass &= pass;
            println!(
                "{:<14} {:<14} {:>15.6} {:>15.6} {:>8.2}% {:>6.0}%  {}",
                workload.name,
                name,
                va,
                vb,
                diff * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        for key in ["tangle_digest", "final_accuracy", "approval_pureness"] {
            let field = |m: &Measured| m.result.get("detail").and_then(|d| d.get(key)).cloned();
            if let (Some(x), Some(y)) = (field(a), field(b)) {
                let pass = x == y;
                all_pass &= pass;
                println!(
                    "{:<14} {:<14} {:>15} {:>15} {:>9} {:>7}  {}",
                    workload.name,
                    key,
                    x.to_json().trim_matches('"'),
                    y.to_json().trim_matches('"'),
                    "exact",
                    "",
                    if pass { "PASS" } else { "FAIL" }
                );
            }
        }
    }
    println!("A/A {}", if all_pass { "PASS" } else { "FAIL" });
    Ok(all_pass)
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn spec_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {},\n", cli::DEFAULT_SECONDS));
    let rows = |items: Vec<Value>| -> String {
        items
            .iter()
            .map(|v| format!("    {}", v.to_json()))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| Value::object().with("name", w.name).with("why", w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                Value::object()
                    .with("name", m.name)
                    .with("unit", m.unit)
                    .with("better", m.better.as_str())
                    .with("bound", m.bound)
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        per_layer()
            .map(|m| {
                Value::object()
                    .with("name", m.name)
                    .with("unit", m.unit)
                    .with("better", m.better.as_str())
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// Entry point of the binary; returns the process exit code.
pub fn main(raw: &[String]) -> i32 {
    let args = match Args::parse(raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return 2;
        }
    };
    if args.print_spec {
        print!("{}", spec_json());
        return 0;
    }
    let workload = args
        .workload
        .as_deref()
        .map(|name| crate::workload::find(name).expect("validated while parsing"));
    if args.child {
        let Some(workload) = workload else {
            eprintln!("--child needs --workload");
            return 2;
        };
        let opts = args.opts(args.trace);
        return match cli::measure(workload, &opts, args.out.as_deref()) {
            Ok(outcome) => {
                println!("{}", cli::child_json(&outcome, opts.trace).to_json());
                0
            }
            Err(message) => {
                eprintln!("error: {}: {message}", workload.name);
                1
            }
        };
    }
    let verdict = match (workload, args.aa) {
        (Some(workload), _) => run_one(workload, &args),
        (None, true) => run_aa(&args),
        (None, false) => run_suite(&args),
    };
    match verdict {
        Ok(true) => 0,
        // Results were printed with `correct: false`; for a single
        // workload that is the contract's way to report it.
        Ok(false) => i32::from(workload.is_none()),
        Err(message) => {
            eprintln!("error: {message}");
            1
        }
    }
}
