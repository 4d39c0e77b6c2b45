//! Harness self-tests: `cargo test` inside `benchmark/` (never part of
//! tier-1, which does not build this package).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use dagfl_benchmark::alloc::{self, CountingAlloc};
use dagfl_benchmark::json::{self, Value};
use dagfl_benchmark::metrics::{per_layer, END_TO_END};
use dagfl_benchmark::sim;
use dagfl_benchmark::suite::spec_json;
use dagfl_benchmark::workload::{self, WORKLOADS};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn spec() -> Value {
    json::parse(&read(&bench_dir().join("../BENCHMARK.json"))).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> BTreeSet<String> {
    spec.get(key)
        .expect("key present")
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// A fresh scratch directory under the build's own temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dagfl-benchmark"))
}

#[test]
fn seed_substitution_changes_the_digest_and_is_reproducible() {
    let workload = workload::find("rounds-fmnist").unwrap();
    let digest = |seed: u64| {
        let scenario = workload.scenario(seed, true).unwrap().unwrap();
        sim::rep(&scenario).unwrap().0.report.digest
    };
    let (a, again, b) = (digest(1), digest(1), digest(2));
    assert_eq!(a, again, "one seed, one digest");
    assert_ne!(a, b, "the seed must reach the scenario");
}

#[test]
fn metric_names_match_benchmark_json_both_ways() {
    let spec = spec();
    let lint = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let listed_e2e = names(&spec, "end_to_end");
    let listed_layers = names(&spec, "per_layer");
    let listed_workloads = names(&spec, "workloads");
    assert!(listed_e2e.iter().chain(&listed_layers).all(|n| lint(n)));
    let own_e2e: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    let own_layers: BTreeSet<String> = per_layer().map(|m| m.name.to_string()).collect();
    let own_workloads: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(listed_e2e, own_e2e);
    assert_eq!(listed_layers, own_layers);
    assert_eq!(listed_workloads, own_workloads);
    // Stronger: the checked-in file is exactly what the catalogue generates
    // (`run.sh --print-spec > BENCHMARK.json` after editing the catalogue).
    assert_eq!(read(&bench_dir().join("../BENCHMARK.json")), spec_json());
    let keys: Vec<&str> = spec.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

/// The `key = value` lines of one TOML table.
fn table(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_equals_the_root_manifests() {
    let own = table(&read(&bench_dir().join("Cargo.toml")), "[profile.release]");
    let root = table(
        &read(&bench_dir().join("../Cargo.toml")),
        "[profile.release]",
    );
    assert!(!root.is_empty(), "root manifest has a release profile");
    assert_eq!(
        own, root,
        "a different profile measures a different program"
    );
}

#[test]
fn the_counting_allocator_counts_only_while_enabled() {
    let before = alloc::snapshot();
    drop(std::hint::black_box(vec![0u8; 4096]));
    assert_eq!(alloc::snapshot(), before, "counting is off by default");
    let (_, count) = alloc::counted(|| drop(std::hint::black_box(vec![0u8; 4096])));
    assert!(count.calls >= 1 && count.bytes >= 4096, "{count:?}");
}

/// Parses the last stdout line of a harness run as the contract's object.
fn last_line(stdout: &[u8]) -> Value {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .expect("a result line");
    json::parse(line).expect("the last line is JSON")
}

#[test]
fn quick_suite_finishes_in_twenty_seconds_with_every_check_passing() {
    let out = scratch("quick-suite");
    let started = Instant::now();
    let run = harness()
        .arg("--quick")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("harness runs");
    let elapsed = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(elapsed < 20.0, "--quick took {elapsed:.1} s");
    assert!(!stdout.contains("check FAIL"), "{stdout}");
    for workload in WORKLOADS {
        let file = json::parse(&read(&out.join(format!("{}.json", workload.name)))).unwrap();
        assert_eq!(file.get("correct").and_then(Value::as_bool), Some(true));
        assert!(file.get("host").and_then(|h| h.get("nproc")).is_some());
        let metrics = file.get("metrics").unwrap();
        for metric in END_TO_END {
            let value = metrics
                .get(metric.name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{}: {} = {value:?}",
                workload.name,
                metric.name
            );
        }
    }
}

#[test]
fn every_workload_emits_exactly_the_catalogue_in_both_modes() {
    let out = scratch("quick-each");
    for workload in WORKLOADS {
        for (trace, expected) in [
            (
                "0",
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
            (
                "1",
                per_layer().map(|m| (m.name, m.unit)).collect::<Vec<_>>(),
            ),
        ] {
            let run = harness()
                .args([
                    "--workload",
                    workload.name,
                    "--seed",
                    "7",
                    "--quick",
                    "--trace",
                    trace,
                ])
                .arg("--out")
                .arg(&out)
                .output()
                .expect("harness runs");
            assert!(
                run.status.success(),
                "{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let result = last_line(&run.stdout);
            let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let got: Vec<(&str, &str)> = result
                .get("metrics")
                .unwrap()
                .fields()
                .iter()
                .map(|(k, v)| (k.as_str(), v.get("unit").and_then(Value::as_str).unwrap()))
                .collect();
            assert_eq!(got, expected, "{} --trace {trace}", workload.name);
        }
        assert!(out.join(format!("trace-{}.jsonl", workload.name)).exists());
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--bogus"][..]] {
        let run = harness().args(args).output().expect("harness runs");
        assert!(!run.status.success());
        assert!(run.stdout.is_empty());
    }
}
