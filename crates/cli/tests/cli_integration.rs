//! Integration tests of the CLI entry points: parsing and dispatch must
//! handle help and malformed invocations gracefully (no panics).

use dagfl_cli::{run_command, Command, ParseError, ParsedArgs};

#[test]
fn help_flag_parses_and_runs() {
    for invocation in [vec!["--help"], vec!["-h"], vec!["help"]] {
        let args = ParsedArgs::parse(invocation.clone()).expect("help parses");
        assert_eq!(args.command(), Command::Help);
        run_command(&args).unwrap_or_else(|e| panic!("help failed for {invocation:?}: {e}"));
    }
}

#[test]
fn unknown_subcommand_is_a_parse_error_not_a_panic() {
    let err = ParsedArgs::parse(["frobnicate"]).expect_err("unknown subcommand must fail");
    assert_eq!(err, ParseError::UnknownCommand("frobnicate".into()));
    // The error formats into a user-facing message naming the culprit.
    assert!(err.to_string().contains("frobnicate"));
}

#[test]
fn missing_subcommand_is_reported() {
    let err = ParsedArgs::parse(Vec::<String>::new()).expect_err("empty args must fail");
    assert_eq!(err, ParseError::MissingCommand);
}

#[test]
fn unknown_dataset_is_an_error_not_a_panic() {
    let args = ParsedArgs::parse(["dag", "--dataset", "no-such-dataset"]).expect("parses");
    let err = run_command(&args).expect_err("unknown dataset must fail");
    assert!(err.to_string().contains("no-such-dataset"));
}

#[test]
fn malformed_flag_value_is_an_error_not_a_panic() {
    let args = ParsedArgs::parse(["dag", "--rounds", "many"]).expect("parses");
    let err = run_command(&args).expect_err("non-numeric rounds must fail");
    assert!(err.to_string().contains("many"));
}

#[test]
fn help_documents_the_async_mode() {
    use dagfl_cli::USAGE;
    for needle in [
        "async",
        "--delay-model",
        "--stale-policy",
        "--train-time",
        "--slowdown",
    ] {
        assert!(USAGE.contains(needle), "usage missing {needle}");
    }
}

#[test]
fn tiny_async_run_succeeds_end_to_end() {
    // The asynchronous mode end-to-end: heterogeneous cohorts, jitter,
    // non-zero training time and a stale-tip policy, driven entirely
    // through CLI flags.
    let args = ParsedArgs::parse([
        "async",
        "--clients",
        "4",
        "--samples",
        "12",
        "--activations",
        "6",
        "--batches",
        "1",
        "--delay-model",
        "cohorts",
        "--delay",
        "0.5",
        "--slow-delay",
        "4",
        "--jitter",
        "0.3",
        "--slowdown",
        "2",
        "--train-time",
        "0.4",
        "--stale-policy",
        "reselect",
    ])
    .expect("parses");
    assert_eq!(args.command(), Command::Async);
    run_command(&args).expect("tiny async run succeeds");
}

#[test]
fn async_rejects_bad_policy_value() {
    let args = ParsedArgs::parse(["async", "--stale-policy", "bogus"]).expect("parses");
    let err = run_command(&args).expect_err("unknown policy must fail");
    assert!(err.to_string().contains("bogus"));
}

#[test]
fn tiny_dag_run_succeeds_end_to_end() {
    // A minimal real dispatch: 1 round on a tiny dataset, exercising the
    // whole dataset -> model -> simulation path behind `run_command`.
    let args = ParsedArgs::parse([
        "dag",
        "--rounds",
        "1",
        "--clients",
        "4",
        "--samples",
        "12",
        "--clients-per-round",
        "2",
        "--batches",
        "1",
    ])
    .expect("parses");
    run_command(&args).expect("tiny dag run succeeds");
}

#[test]
fn scenario_preset_runs_through_the_public_cli_surface() {
    // The declarative path: `dagfl run --preset smoke` resolves, validates
    // and executes a whole scenario through one entry point.
    let args = ParsedArgs::parse(["run", "--preset", "smoke"]).expect("parses");
    assert_eq!(args.command(), Command::Run);
    run_command(&args).expect("smoke preset runs");
}

#[test]
fn scenarios_listing_never_fails() {
    let args = ParsedArgs::parse(["scenarios"]).expect("parses");
    assert_eq!(args.command(), Command::Scenarios);
    run_command(&args).expect("preset listing succeeds");
}

/// Runs the `dagfl` binary and returns its stdout and stderr.
fn dagfl(args: &[&str]) -> (String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dagfl"))
        .args(args)
        .output()
        .expect("the dagfl binary starts");
    assert!(out.status.success(), "dagfl {args:?} failed");
    let text = |bytes| String::from_utf8(bytes).expect("UTF-8 output");
    (text(out.stdout), text(out.stderr))
}

/// The `key=value` fields of the stderr line that starts with `prefix`.
fn fields(stderr: &str, prefix: &str) -> Vec<(String, f64)> {
    let line = stderr
        .lines()
        .find_map(|line| line.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in {stderr}"));
    line.split_whitespace()
        .map(|field| {
            let (key, value) = field.split_once('=').expect("key=value");
            (key.to_owned(), value.parse().expect("a number"))
        })
        .collect()
}

/// The transaction count of the summary's `tangle:` line.
fn transactions(stdout: &str) -> f64 {
    let line = stdout
        .lines()
        .find_map(|line| line.strip_prefix("tangle: "))
        .expect("a tangle line");
    line.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn dagfl_run_reports_what_the_run_still_holds_on_stderr() {
    // Rounds mode: every transaction's payload is held or retired, and
    // a 30-round quick run reaches past the walk window.
    let (stdout, stderr) = dagfl(&["run", "--preset", "table1-fmnist"]);
    let payloads = fields(&stderr, "# payloads ");
    let keys: Vec<&str> = payloads.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["held", "retired"]);
    let (held, retired) = (payloads[0].1, payloads[1].1);
    assert_eq!(held + retired, transactions(&stdout));
    assert!(retired > 0.0, "{stderr}");
    assert!(!stdout.contains("payloads"), "stdout stays as it was");

    // Async mode: replica lengths and the buffered messages.
    let (stdout, stderr) = dagfl(&["run", "--preset", "async-delay2"]);
    let replicas = fields(&stderr, "# replicas ");
    let keys: Vec<&str> = replicas.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["mean_len", "max_len", "buffered"]);
    let (mean, max) = (replicas[0].1, replicas[1].1);
    assert!(
        1.0 <= mean && mean <= max && max <= transactions(&stdout),
        "{stderr}"
    );
    assert!(!stdout.contains("replicas"), "stdout stays as it was");
}
