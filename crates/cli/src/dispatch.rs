//! Turns parsed arguments into a scenario and runs the experiment.

use std::error::Error;
use std::path::Path;

use dagfl_baselines::{FedConfig, FederatedServer, LocalOnly};
use dagfl_core::{AsyncSimulation, DagConfig, Simulation};
use dagfl_scenario::text::{Document, Value};
use dagfl_scenario::{
    AnalysisSpec, ExecutionSpec, Scale, Scenario, ScenarioError, ScenarioRunner, SweepAxis,
    SweepRunner, SweepSpec, PRESETS, SWEEP_PRESETS,
};

use crate::args::{Command, ParseError, ParsedArgs, FLAGS, USAGE};

/// The flag a scenario key is set from: the [`FLAGS`] row, or one of the
/// keys [`scenario_from_flags`] writes itself.
fn flag_for_key(key: &str) -> Option<&'static str> {
    match key {
        "dataset.kind" => Some("dataset"),
        "dataset.clients" | "dataset.clients_per_language" => Some("clients"),
        "execution.slowdown" => Some("slowdown"),
        "execution.slow_fraction" | "execution.compute_slow_fraction" => Some("slow-fraction"),
        _ => FLAGS
            .iter()
            .find(|(_, k, _)| *k == key)
            .map(|(flag, _, _)| *flag),
    }
}

/// Rewrites a scenario-layer error about a key into the CLI's flag-error
/// shape when this command line gave the flag that sets the key;
/// anything else passes through under the key the file would spell.
pub(crate) fn flag_error(args: &ParsedArgs, err: ScenarioError) -> Box<dyn Error> {
    let flag = match &err {
        ScenarioError::InvalidValue { key, .. } | ScenarioError::UnknownKey { key } => {
            flag_for_key(key).filter(|flag| args.get(flag).is_some())
        }
        _ => None,
    };
    match (flag.map(str::to_string), err) {
        (Some(flag), ScenarioError::UnknownKey { key }) => {
            ParseError::Inapplicable { flag, key }.into()
        }
        (Some(flag), ScenarioError::InvalidValue { value, .. }) => {
            ParseError::InvalidValue { flag, value }.into()
        }
        (_, err) => err.into(),
    }
}

/// The validated scenario a flag-driven subcommand (`dag`, `fedavg`,
/// `fedprox`, `local`, `async`, `peer`) describes.
///
/// The flags are *composed* into a scenario document — the dataset and
/// compute words the CLI spells its own way, its own defaults (30
/// rounds, 200 activations, partition split 1, crash peer 0 and, below,
/// `min(6, clients)` per round), then every keyed [`FLAGS`] row that was
/// given — and read by the one scenario reader, so a flag's type,
/// default and range are the key's, and a flag whose key the chosen
/// shape lacks is rejected by name.
pub(crate) fn scenario_from_flags(args: &ParsedArgs) -> Result<Scenario, Box<dyn Error>> {
    let number = |n: usize| Value::Number(n.to_string());
    let mut doc = Document::default();
    doc.root
        .set("name", Value::Str(args.command().word().into()));

    let word = args.get_or("dataset", "fmnist");
    let kind = match word {
        "fmnist" | "fmnist-author" | "poets" | "cifar" => word,
        "fmnist-relaxed" => "fmnist",
        "fedprox-synthetic" => "fedprox",
        _ => {
            return Err(ParseError::InvalidValue {
                flag: "dataset".into(),
                value: word.into(),
            }
            .into())
        }
    };
    let dataset = doc.section_mut("dataset");
    dataset.set("kind", Value::Str(kind.into()));
    if word == "fmnist-relaxed" {
        dataset.set("relaxation", Value::Number("0.18".into()));
    }
    if let Some(raw) = args.get("clients") {
        if kind == "poets" {
            // Poets sizes by language; `--clients` stays the total.
            let clients: usize = args.get_parsed_or("clients", 0)?;
            dataset.set("clients_per_language", number(clients.div_ceil(2)));
        } else {
            dataset.set("clients", Value::from_token(raw));
        }
    }

    let execution = doc.section_mut("execution");
    execution.set("rounds", number(30));
    if args.command() == Command::Async {
        execution.set("mode", Value::Str("async".into()));
        execution.set("activations", number(200));
        // `--slowdown` selects a two-speed compute profile; under cohort
        // delays the network-slow clients are the compute-slow ones, so
        // `--slow-fraction` is then the delay model's key.
        let cohorts = args.get("delay-model") == Some("cohorts");
        if let Some(raw) = args
            .get("slowdown")
            .filter(|raw| raw.parse::<f64>() != Ok(1.0))
        {
            let profile = if cohorts {
                "match-network"
            } else {
                "two-speed"
            };
            execution.set("compute", Value::Str(profile.into()));
            execution.set("slowdown", Value::from_token(raw));
        }
        if let Some(raw) = args.get("slow-fraction") {
            let key = if cohorts {
                "slow_fraction"
            } else {
                "compute_slow_fraction"
            };
            execution.set(key, Value::from_token(raw));
        }
    }
    // The file format wants a fault window whole; the flags default the
    // half that says where it strikes.
    if args.get("partition-start").is_some() {
        doc.section_mut("faults").set("partition_split", number(1));
    }
    if args.get("crash-at").is_some() {
        doc.section_mut("faults").set("crash_peer", number(0));
    }
    for (key, raw) in args.scenario_keys() {
        let (section, key) = key.split_once('.').expect("FLAGS keys are section.key");
        doc.section_mut(section).set(key, Value::from_token(raw));
    }
    let mut scenario = Scenario::from_document(&doc).map_err(|e| flag_error(args, e))?;
    if args.get("clients-per-round").is_none() {
        let clients = scenario.dataset.num_clients();
        scenario = scenario.clients_per_round(clients.min(6));
    }
    scenario.validate().map_err(|e| flag_error(args, e))?;
    Ok(scenario)
}

/// The centralized baselines' configuration: the scenario's
/// hyperparameters plus `--mu` (FedProx only; positive and finite:
/// `μ = 0` is FedAvg) and `--stragglers` (a fraction in `[0, 1]`).
fn fed_config(args: &ParsedArgs, dag: &DagConfig) -> Result<FedConfig, ParseError> {
    let mu: f32 = if args.command() == Command::FedProx {
        args.get_parsed_or("mu", 0.1)?
    } else {
        0.0
    };
    let stragglers: f32 = args.get_parsed_or("stragglers", 0.0)?;
    for (flag, ok) in [
        (
            "mu",
            args.command() != Command::FedProx || mu.is_finite() && mu > 0.0,
        ),
        ("stragglers", (0.0..=1.0).contains(&stragglers)),
    ] {
        if !ok {
            return Err(ParseError::InvalidValue {
                flag: flag.into(),
                value: args.get(flag).unwrap_or_default().into(),
            });
        }
    }
    Ok(FedConfig {
        rounds: dag.rounds,
        clients_per_round: dag.clients_per_round,
        local_epochs: dag.local_epochs,
        local_batches: dag.local_batches,
        batch_size: dag.batch_size,
        learning_rate: dag.learning_rate,
        proximal_mu: mu,
        straggler_fraction: stragglers,
        seed: dag.seed,
    })
}

/// Runs the parsed command, printing a per-round CSV to stdout.
///
/// # Errors
///
/// Returns an error for invalid arguments or failed training.
pub fn run_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    match args.command() {
        Command::Help => {
            println!("{USAGE}");
            return Ok(());
        }
        Command::Run => return run_scenario(args),
        Command::Analyze => return analyze_command(args),
        Command::Sweep => return sweep_command(args),
        Command::Scenarios => return scenarios_command(args),
        Command::Peer => return crate::net::peer_command(args),
        Command::Tracker => return crate::net::tracker_command(args),
        _ => {}
    }
    let scenario = scenario_from_flags(args)?;
    let dag = *scenario.execution.dag();
    // Only the baselines run it; checked before the dataset is built.
    let fed = fed_config(args, &dag)?;
    let dataset = scenario.dataset.build();
    let factory = scenario.build_factory(&dataset);
    eprintln!(
        "# dataset={} clients={} classes={} base_pureness={:.3}",
        dataset.name(),
        dataset.num_clients(),
        dataset.num_classes(),
        dataset.base_pureness()
    );
    match args.command() {
        Command::Dag => {
            let mut sim = Simulation::new(dag, dataset, factory);
            println!("round,published,mean_accuracy,mean_loss,tangle_size");
            for _ in 0..dag.rounds {
                let m = sim.run_round()?;
                println!(
                    "{},{},{:.4},{:.4},{}",
                    m.round + 1,
                    m.published,
                    m.mean_accuracy(),
                    m.mean_loss(),
                    sim.tangle().len()
                );
            }
            let spec = sim.specialization_metrics();
            eprintln!(
                "# pureness={:.3} modularity={:.3} partitions={} misclassification={:.3}",
                spec.approval_pureness, spec.modularity, spec.partitions, spec.misclassification
            );
        }
        Command::FedAvg | Command::FedProx => {
            let mut server = FederatedServer::new(fed, dataset, factory);
            println!("round,mean_accuracy,mean_loss,stragglers");
            for _ in 0..fed.rounds {
                let m = server.run_round()?;
                println!(
                    "{},{:.4},{:.4},{}",
                    m.round + 1,
                    m.mean_accuracy(),
                    m.mean_loss(),
                    m.stragglers
                );
            }
        }
        Command::Local => {
            let mut local = LocalOnly::new(
                dataset,
                factory,
                dag.learning_rate,
                dag.local_batches,
                dag.batch_size,
                dag.seed,
            );
            println!("round,mean_accuracy");
            for round in 0..dag.rounds {
                local.run_round()?;
                println!("{},{:.4}", round + 1, local.mean_accuracy()?);
            }
        }
        Command::Async => {
            let ExecutionSpec::Async { config, .. } = scenario.execution else {
                unreachable!("`async` composes an async-mode scenario")
            };
            let plan = scenario.faults.unwrap_or_default();
            let mut sim = AsyncSimulation::try_new_with_faults(config, dataset, factory, plan)?;
            println!("activation,started,completed,client,accuracy,published,stale_parents");
            for i in 0..config.total_activations {
                let r = sim.step()?;
                println!(
                    "{},{:.2},{:.2},{},{:.4},{},{}",
                    i + 1,
                    r.started,
                    r.completed,
                    r.client,
                    r.accuracy,
                    r.published,
                    r.stale_parents
                );
            }
            let m = sim.metrics();
            eprintln!(
                "# activations={} elapsed={:.2} rate={:.3}/t publish_fraction={:.3}",
                m.activations,
                m.elapsed,
                m.activation_rate(),
                m.publish_fraction()
            );
            eprintln!(
                "# publish_latency mean={:.3} max={:.3} stale_fraction={:.3} \
                 staleness=[{},{},{}] discarded={} reselected={}",
                m.mean_publish_latency,
                m.max_publish_latency,
                m.stale_fraction(),
                m.staleness_histogram[0],
                m.staleness_histogram[1],
                m.staleness_histogram[2],
                m.discarded_stale,
                m.reselections
            );
            eprintln!(
                "# confirmation_depth={:.2} transactions={} tips={} pending={} pureness={:.3}",
                m.mean_confirmation_depth,
                m.transactions,
                m.tips,
                sim.pending_deliveries(),
                sim.approval_pureness()
            );
            let stats = sim.transport_stats();
            if stats.has_faults() {
                eprintln!(
                    "# faults delivered={} dropped={} duplicated={}",
                    stats.delivered, stats.dropped, stats.duplicated
                );
            }
        }
        Command::Help
        | Command::Run
        | Command::Analyze
        | Command::Sweep
        | Command::Scenarios
        | Command::Peer
        | Command::Tracker => {
            unreachable!("handled above")
        }
    }
    Ok(())
}

/// The experiment scale a command runs at: the `--full` flag wins, the
/// `DAGFL_FULL` environment variable is the fallback, so paper-scale
/// runs are reproducible from the command line alone.
fn requested_scale(args: &ParsedArgs) -> Scale {
    if args.flag("full") {
        Scale::Full
    } else {
        Scale::from_env()
    }
}

/// The scenario `run` and `analyze` start from: `--scenario <file>` or
/// `--preset <name>`, exactly one.
fn load_scenario(args: &ParsedArgs) -> Result<Scenario, Box<dyn Error>> {
    match (args.get("scenario"), args.get("preset")) {
        (Some(path), None) => Ok(Scenario::load(path)?),
        (None, Some(name)) => Ok(Scenario::preset_at(name, requested_scale(args))?),
        _ => Err(format!(
            "`dagfl {}` needs exactly one of --scenario <file> or --preset <name>",
            args.command().word()
        )
        .into()),
    }
}

/// `dagfl run --scenario <file>` / `dagfl run --preset <name>`: resolve,
/// validate and execute one declarative scenario, printing the report.
fn run_scenario(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    // `--workers` is the scenario key `execution.workers`: results are
    // byte-identical at any count, so CI runs the same scenario at
    // --workers 1 and --workers N and diffs the digests. A rounds-mode
    // scenario has no such key, and a count of 0 fails validation.
    let scenario = load_scenario(args)?
        .set_keys(&args.scenario_keys())
        .map_err(|e| flag_error(args, e))?;
    let runner = ScenarioRunner::new(scenario).map_err(|e| flag_error(args, e))?;
    eprintln!(
        "# scenario={} mode={}",
        runner.scenario().name,
        runner.scenario().execution.mode()
    );
    let report = runner.run()?;
    eprintln!("# {}", report.footprint);
    print!("{}", report.summary());
    // Opt-in so existing golden outputs stay byte-identical; CI's
    // scale-smoke job diffs this line between worker counts.
    if args.flag("digest") {
        println!("tangle digest {:#018x}", report.tangle_digest);
    }
    Ok(())
}

/// `dagfl analyze --scenario <file>` / `--preset <name>`: run the
/// scenario with analytics force-enabled (flags override the scenario's
/// own `[analysis]` section) and print the cluster assignment table
/// plus the quality metrics.
fn analyze_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let mut scenario = load_scenario(args)?;
    // Start from the scenario's own [analysis] section (or the
    // defaults); the flags are its keys. A fixed `k` and the
    // `k_min`/`k_max` sweep are two shapes of the section, so the shape
    // the flags spell is put in place first (`--k` then overwrites the
    // placeholder count) — spelling both is the reader's error.
    let analysis = scenario.analysis.get_or_insert_with(AnalysisSpec::default);
    if args.get("k-min").or(args.get("k-max")).is_some() {
        analysis.k = None;
    } else if args.get("k").is_some() {
        analysis.k = Some(1);
    }
    let scenario = scenario
        .set_keys(&args.scenario_keys())
        .map_err(|e| flag_error(args, e))?;
    let runner = ScenarioRunner::new(scenario).map_err(|e| flag_error(args, e))?;
    eprintln!(
        "# scenario={} mode={}",
        runner.scenario().name,
        runner.scenario().execution.mode()
    );
    let report = runner.run()?;
    let snapshot = report
        .analysis
        .as_ref()
        .expect("analytics were force-enabled");
    println!(
        "analysis of {} after {} rounds:",
        report.scenario, snapshot.round
    );
    println!();
    // The assignment table: one row per client, ground truth next to
    // the unsupervised views. Rebuilding the dataset is deterministic
    // and cheap next to the training run that just finished.
    let truth = runner.scenario().dataset.build().cluster_labels();
    println!(
        "{:>6}  {:>5}  {:>6}  {:>5}",
        "client", "truth", "params", "graph"
    );
    for (idx, label) in truth.iter().enumerate() {
        let params_cell = snapshot
            .parameters
            .as_ref()
            .map_or_else(|| "-".into(), |p| p.assignments[idx].to_string());
        let graph_cell = snapshot
            .graph
            .as_ref()
            .map_or_else(|| "-".into(), |g| g.communities[idx].to_string());
        println!("{idx:>6}  {label:>5}  {params_cell:>6}  {graph_cell:>5}");
    }
    println!();
    print!("{}", report.summary());
    Ok(())
}

/// Parses the ad-hoc `--axes` value: `;`-separated `field=v1,v2,...`
/// entries (`"alpha=0.1,1,10;replicate=0..3"`). Ranges expand like
/// sweep files.
fn parse_axes_flag(spec: &str) -> Result<Vec<SweepAxis>, Box<dyn Error>> {
    let mut axes = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (field, values) = entry
            .split_once('=')
            .ok_or_else(|| format!("axis `{entry}` is not of the form field=v1,v2,..."))?;
        let values = values.trim();
        let tokens: Vec<String> =
            match values.split_once("..") {
                Some((start, end)) => {
                    let start: u64 = start.trim().parse().map_err(|_| {
                        format!("axis `{field}`: `{values}` is not an integer range")
                    })?;
                    let end: u64 = end.trim().parse().map_err(|_| {
                        format!("axis `{field}`: `{values}` is not an integer range")
                    })?;
                    // Shared with sweep files: empty and oversized
                    // ranges are rejected before anything is allocated.
                    SweepAxis::range_tokens(field.trim(), start, end)?
                }
                None => values
                    .split(',')
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .collect(),
            };
        axes.push(SweepAxis {
            field: field.trim().to_string(),
            values: tokens,
        });
    }
    if axes.is_empty() {
        return Err("--axes needs at least one `field=values` entry".into());
    }
    Ok(axes)
}

/// `dagfl sweep <file|sweep-preset>` / `dagfl sweep --preset-base <name>
/// --axes <spec>`: expand a parameter grid, run the cells on `--jobs`
/// workers (or list them with `--dry-run`), and print the aggregate
/// report.
fn sweep_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let mut spec = match (args.positional(), args.get("preset-base")) {
        (Some(source), None) => {
            let looks_like_path = source.ends_with(".toml") || source.contains(['/', '\\']);
            if looks_like_path || Path::new(source).exists() {
                SweepSpec::load(source)?
            } else {
                // A bare word: try the sweep preset registry.
                SweepSpec::preset(source)?
            }
        }
        (None, Some(base)) => {
            let axes_spec = args
                .get("axes")
                .ok_or("`--preset-base` needs `--axes \"field=v1,v2;...\"`")?;
            let mut spec = SweepSpec::over_preset(format!("sweep-{base}"), base);
            spec.axes = parse_axes_flag(axes_spec)?;
            spec
        }
        _ => {
            return Err(
                "`dagfl sweep` needs a sweep file (or sweep preset name), or --preset-base \
                 <name> with --axes"
                    .into(),
            )
        }
    };
    if let Some(csv) = args.get("csv") {
        spec.comparison_csv = Some(csv.to_string());
    }
    let scale = requested_scale(args);
    let runner = SweepRunner::at_scale(spec, scale)?;
    let cells = runner.cells();
    if args.flag("dry-run") {
        println!(
            "sweep {} expands to {} cells:",
            runner.spec().name,
            cells.len()
        );
        for cell in cells {
            println!("  {:>3}  {}", cell.index, cell.id);
        }
        return Ok(());
    }
    let default_jobs = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let jobs: usize = args.get_parsed_or("jobs", default_jobs)?.max(1);
    eprintln!(
        "# sweep={} cells={} jobs={}",
        runner.spec().name,
        cells.len(),
        jobs.min(cells.len())
    );
    let report = runner.run(jobs)?;
    print!("{}", report.summary());
    Ok(())
}

/// `dagfl scenarios`: list the scenario and sweep preset registries;
/// `--check <dir>` validates every `*.toml` scenario *and* sweep file in
/// a directory (the CI smoke job runs this over `scenarios/`).
fn scenarios_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    if let Some(dir) = args.get("check") {
        return check_scenario_dir(Path::new(dir));
    }
    println!(
        "available presets (quick scale; pass --full or set DAGFL_FULL=1 for the paper's scale):"
    );
    for (name, description, _) in PRESETS {
        println!("  {name:<24} {description}");
    }
    println!("\navailable sweeps (parameter grids; `dagfl sweep <name>`):");
    for (name, description, _) in SWEEP_PRESETS {
        println!("  {name:<24} {description}");
    }
    println!("\nrun one with `dagfl run --preset <name>` (add --full for paper scale);");
    println!("check scenario and sweep files with `dagfl scenarios --check <dir>`.");
    Ok(())
}

fn check_scenario_dir(dir: &Path) -> Result<(), Box<dyn Error>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .toml scenario files found in {}", dir.display()).into());
    }
    let mut failures = Vec::new();
    for path in &paths {
        let outcome = match std::fs::read_to_string(path) {
            // Sweep files go through `SweepSpec::load`, not `from_toml`,
            // so relative file bases anchor to the sweep file's
            // directory exactly as `dagfl sweep <file>` resolves them.
            Ok(text) if dagfl_scenario::is_sweep_toml(&text) => SweepSpec::load(path)
                .and_then(|spec| spec.validate().map(|()| spec))
                .map(|spec| format!("{} (sweep)", spec.name)),
            Ok(text) => Scenario::from_toml(&text)
                .and_then(|s| s.validate().map(|()| s))
                .map(|s| s.name),
            Err(e) => Err(dagfl_scenario::ScenarioError::Io(format!(
                "reading {}: {e}",
                path.display()
            ))),
        };
        match outcome {
            Ok(name) => println!("ok   {} ({name})", path.display()),
            Err(e) => {
                println!("FAIL {}: {e}", path.display());
                failures.push(path.display().to_string());
            }
        }
    }
    if failures.is_empty() {
        println!("{} scenario files valid", paths.len());
        Ok(())
    } else {
        Err(format!("invalid scenario files: {}", failures.join(", ")).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfl_core::{
        AsyncConfig, ComputeProfile, DelayModel, Normalization, StaleTipPolicy, TipSelector,
    };
    use dagfl_core::{CrashWindow, FaultPlan, PartitionWindow};
    use dagfl_scenario::DatasetSpec;

    fn scenario(flags: &[&str]) -> Scenario {
        let args = ParsedArgs::parse(flags).unwrap();
        scenario_from_flags(&args).unwrap_or_else(|e| panic!("{flags:?}: {e}"))
    }

    /// The flag-shaped error a command line is rejected with.
    /// The error a flag-driven command line stops at before any work:
    /// the scenario's, else the baselines' own flags'.
    fn flag_failure(flags: &[&str]) -> ParseError {
        let args = ParsedArgs::parse(flags).unwrap();
        let outcome = match args.command() {
            // `analyze` edits a preset; the others compose a scenario.
            Command::Analyze => run_command(&args),
            _ => scenario_from_flags(&args)
                .and_then(|s| Ok(fed_config(&args, s.execution.dag()).map(drop)?)),
        };
        let err = outcome.expect_err("must be rejected");
        match err.downcast::<ParseError>() {
            Ok(err) => *err,
            Err(other) => panic!("{flags:?}: not a flag error: {other}"),
        }
    }

    fn async_config(flags: &[&str]) -> AsyncConfig {
        match scenario(flags).execution {
            ExecutionSpec::Async { config, .. } => config,
            other => panic!("{flags:?}: unexpected execution {other:?}"),
        }
    }

    #[test]
    fn flags_compose_the_scenario_a_preset_names() {
        let from_flags = scenario(&[
            "dag",
            "--rounds",
            "2",
            "--clients",
            "4",
            "--samples",
            "30",
            "--clients-per-round",
            "2",
            "--batches",
            "2",
        ]);
        let mut smoke = Scenario::preset_at("smoke", Scale::Quick).unwrap();
        smoke.name = "dag".into();
        assert_eq!(from_flags, smoke);
    }

    #[test]
    fn every_flag_row_names_a_key_the_reader_knows() {
        // A row whose key the reader has under no shape would make its
        // flag permanently inapplicable. Try each keyed row, on every
        // subcommand listing it, under each word that gates keys.
        let shapes: [&[&str]; 5] = [
            &[],
            &["--delay-model", "jitter"],
            &["--delay-model", "cohorts"],
            &["--preset", "async-delay2"],
            &["--preset", "fig05-alpha10"],
        ];
        // `None`: the subcommand does not take the shape, or reads the
        // flag itself; otherwise whether the reader had the key.
        let applies = |line: &[&str], key: &str| -> Option<bool> {
            let args = ParsedArgs::parse(line).ok()?;
            args.scenario_keys().iter().find(|(k, _)| *k == key)?;
            let outcome = match args.command() {
                Command::Run | Command::Analyze => load_scenario(&args).and_then(|s| {
                    s.set_keys(&args.scenario_keys())
                        .map_err(|e| flag_error(&args, e))
                }),
                _ => scenario_from_flags(&args),
            };
            Some(!outcome.is_err_and(|e| {
                matches!(
                    e.downcast_ref::<ParseError>(),
                    Some(ParseError::Inapplicable { .. })
                )
            }))
        };
        for &(flag, key, _) in FLAGS.iter().filter(|(_, key, _)| !key.is_empty()) {
            let flag = format!("--{flag}");
            for word in [
                "dag", "fedavg", "fedprox", "local", "async", "peer", "run", "analyze",
            ] {
                let outcomes: Vec<bool> = shapes
                    .iter()
                    .filter_map(|shape| {
                        applies(&[&[word], *shape, &[flag.as_str(), "1"]].concat(), key)
                    })
                    .collect();
                assert!(
                    outcomes.is_empty() || outcomes.contains(&true),
                    "`{word} {flag}`: no shape has `{key}`"
                );
            }
        }
    }

    #[test]
    fn dataset_kinds_parse() {
        for (word, kind) in [
            ("fmnist", "fmnist"),
            ("fmnist-relaxed", "fmnist"),
            ("fmnist-author", "fmnist-author"),
            ("poets", "poets"),
            ("cifar", "cifar"),
            ("fedprox-synthetic", "fedprox"),
        ] {
            assert_eq!(scenario(&["dag", "--dataset", word]).dataset.kind(), kind);
        }
        assert_eq!(
            flag_failure(&["dag", "--dataset", "unknown"]),
            ParseError::InvalidValue {
                flag: "dataset".into(),
                value: "unknown".into()
            }
        );
        // The words the CLI spells its own way, and the one size it
        // reshapes: relaxed clusters, and poets' per-language count.
        assert!(matches!(
            scenario(&["dag", "--dataset", "fmnist-relaxed"]).dataset,
            DatasetSpec::Fmnist { relaxation, .. } if relaxation == 0.18
        ));
        let poets = scenario(&["dag", "--dataset", "poets", "--clients", "5"]);
        assert_eq!(poets.dataset.num_clients(), 6);
        // The model and the sample bounds are the scenario layer's.
        let cifar = scenario(&["dag", "--dataset", "cifar"]);
        assert_eq!(cifar.model, cifar.dataset.default_model());
        assert!(matches!(
            scenario(&["dag", "--dataset", "fedprox-synthetic"]).dataset,
            DatasetSpec::FedProx {
                max_samples: 200,
                ..
            }
        ));
    }

    #[test]
    fn flags_build_a_task_with_a_matching_model() {
        let flagged = scenario(&["dag", "--clients", "6", "--samples", "30"]);
        let dataset = flagged.dataset.build();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let model = flagged.build_factory(&dataset)(&mut rng);
        // The model accepts the dataset's feature width.
        let eval = model
            .evaluate(dataset.clients()[0].test_x(), dataset.clients()[0].test_y())
            .unwrap();
        assert!(eval.total > 0);
    }

    #[test]
    fn dag_config_respects_flags() {
        let flagged = scenario(&[
            "dag",
            "--rounds",
            "7",
            "--alpha",
            "3",
            "--normalization",
            "dynamic",
            "--stop-margin",
            "0.2",
        ]);
        let cfg = flagged.execution.dag();
        assert_eq!(cfg.rounds, 7);
        assert_eq!(cfg.walk_stop_margin, Some(0.2));
        assert_eq!(
            cfg.tip_selector,
            TipSelector::Accuracy {
                alpha: 3.0,
                normalization: Normalization::Dynamic,
            }
        );
        // The CLI's own defaults: 30 rounds, min(6, clients) per round.
        let defaults = *scenario(&["dag"]).execution.dag();
        assert_eq!((defaults.rounds, defaults.clients_per_round), (30, 6));
        let small = scenario(&["dag", "--clients", "4"]);
        assert_eq!(small.execution.dag().clients_per_round, 4);
    }

    #[test]
    fn selector_flag_switches_strategy() {
        assert_eq!(
            scenario(&["dag", "--selector", "random"])
                .execution
                .dag()
                .tip_selector,
            TipSelector::Random
        );
        assert_eq!(
            scenario(&["dag", "--selector", "cumulative", "--alpha", "2"])
                .execution
                .dag()
                .tip_selector,
            TipSelector::CumulativeWeight { alpha: 2.0 }
        );
    }

    #[test]
    fn fed_config_wires_stragglers() {
        let dag = DagConfig::default();
        let args = ParsedArgs::parse(["fedprox", "--stragglers", "0.5"]).unwrap();
        let cfg = fed_config(&args, &dag).unwrap();
        assert_eq!(cfg.straggler_fraction, 0.5);
        assert_eq!(cfg.proximal_mu, 0.1);
        let args = ParsedArgs::parse(["fedavg", "--stragglers", "0.5"]).unwrap();
        let cfg = fed_config(&args, &dag).unwrap();
        assert_eq!(cfg.straggler_fraction, 0.5);
        assert_eq!(cfg.proximal_mu, 0.0, "fedavg drops stragglers");
    }

    #[test]
    fn run_command_help_succeeds() {
        let args = ParsedArgs::parse(["help"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_command_tiny_dag_succeeds() {
        let args = ParsedArgs::parse([
            "dag",
            "--clients",
            "4",
            "--samples",
            "30",
            "--rounds",
            "2",
            "--clients-per-round",
            "2",
            "--batches",
            "2",
        ])
        .unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_command_rejects_bad_dataset() {
        let args = ParsedArgs::parse(["dag", "--dataset", "imagenet"]).unwrap();
        assert!(run_command(&args).is_err());
    }

    #[test]
    fn run_command_tiny_local_succeeds() {
        let args = ParsedArgs::parse([
            "local",
            "--clients",
            "3",
            "--samples",
            "30",
            "--rounds",
            "2",
            "--batches",
            "2",
        ])
        .unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_command_tiny_async_succeeds() {
        let args = ParsedArgs::parse([
            "async",
            "--clients",
            "4",
            "--samples",
            "30",
            "--activations",
            "5",
            "--batches",
            "2",
        ])
        .unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn validation_errors_name_the_flag_the_user_typed() {
        for (flags, flag_name) in [
            (
                vec!["async", "--slowdown", "2", "--slow-fraction", "1.5"],
                "slow-fraction",
            ),
            (vec!["async", "--delay", "-1"], "delay"),
            (vec!["async", "--interarrival", "0"], "interarrival"),
            (vec!["async", "--train-time", "-2"], "train-time"),
            (vec!["async", "--slowdown", "0.5"], "slowdown"),
            (vec!["async", "--drop", "1.5"], "drop"),
            (vec!["async", "--workers", "0"], "workers"),
            (vec!["dag", "--lr", "-1"], "lr"),
            (vec!["dag", "--batches", "0"], "batches"),
            (vec!["dag", "--clients", "many"], "clients"),
            (vec!["dag", "--clients", "0"], "clients"),
            (vec!["dag", "--samples", "5"], "samples"),
            (vec!["analyze", "--preset", "smoke", "--k", "0"], "k"),
            (vec!["dag", "--selector", "cumulativ"], "selector"),
            (vec!["dag", "--normalization", "nope"], "normalization"),
            (vec!["peer", "--stop-margin", "-1"], "stop-margin"),
            (vec!["fedprox", "--mu", "-1"], "mu"),
            (vec!["fedprox", "--mu", "0"], "mu"),
            (vec!["fedprox", "--mu", "inf"], "mu"),
            (vec!["fedprox", "--stragglers", "1.5"], "stragglers"),
            (vec!["fedavg", "--stragglers", "-0.1"], "stragglers"),
            (
                vec![
                    "async",
                    "--clients",
                    "4",
                    "--crash-at",
                    "0",
                    "--crash-peer",
                    "4",
                ],
                "crash-peer",
            ),
            (
                vec![
                    "async",
                    "--clients",
                    "4",
                    "--crash-at",
                    "0",
                    "--crash-peer",
                    "99",
                    "--partition-split",
                    "0",
                    "--partition-start",
                    "0",
                    "--partition-heal",
                    "100",
                ],
                "partition-split",
            ),
        ] {
            match flag_failure(&flags) {
                ParseError::InvalidValue { ref flag, .. } => {
                    assert_eq!(flag, flag_name, "{flags:?}")
                }
                other => panic!("{flags:?}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn datasets_the_generators_reject_are_errors_not_panics() {
        for (line, expected) in [
            (
                &["dag", "--rounds", "1", "--samples", "5"][..],
                "invalid value `5` for flag `samples`",
            ),
            (
                &["async", "--activations", "1", "--clients", "1"],
                "invalid value `1` for flag `clients`",
            ),
        ] {
            let args = ParsedArgs::parse(line).unwrap();
            let err = run_command(&args).unwrap_err().to_string();
            assert_eq!(err, expected, "{line:?}");
        }
    }

    #[test]
    fn flags_the_chosen_shape_lacks_are_rejected_by_name() {
        for (flags, flag_name) in [
            // Not range-checked and dropped: the constant delay model has
            // no jitter, nothing is slow without cohorts or a slowdown.
            (vec!["async", "--jitter", "0.5"], "jitter"),
            (vec!["async", "--slow-fraction", "0.2"], "slow-fraction"),
            (vec!["async", "--slow-delay", "9"], "slow-delay"),
            (vec!["dag", "--selector", "random", "--alpha", "3"], "alpha"),
            (
                vec!["dag", "--dataset", "fedprox-synthetic", "--samples", "9"],
                "samples",
            ),
        ] {
            match flag_failure(&flags) {
                ParseError::Inapplicable { ref flag, .. } => {
                    assert_eq!(flag, flag_name, "{flags:?}")
                }
                other => panic!("{flags:?}: unexpected error {other:?}"),
            }
        }
        // `run --workers` is a scenario key too: rounds mode has none.
        let args = ParsedArgs::parse(["run", "--preset", "smoke", "--workers", "2"]).unwrap();
        let err = run_command(&args).unwrap_err().to_string();
        assert!(
            err.contains("--workers") && err.contains("does not apply"),
            "{err}"
        );
    }

    #[test]
    fn file_errors_name_the_key_not_a_flag_nobody_typed() {
        // A range error in a scenario file is reported under the file's
        // key; only a flag this command line gave renames it.
        let dir = temp_dir("dagfl_cli_file_key_error_test");
        let path = dir.join("bad.toml");
        let text = Scenario::preset_at("async-delay2", Scale::Quick)
            .unwrap()
            .to_toml()
            .replace("interarrival = 1.0", "interarrival = 0.0");
        std::fs::write(&path, text).unwrap();
        let args = ParsedArgs::parse(["run", "--scenario", path.to_str().unwrap()]).unwrap();
        let err = run_command(&args).unwrap_err().to_string();
        assert!(err.contains("`execution.interarrival`"), "{err}");
        assert!(!err.contains("flag"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn run_preset_smoke_succeeds_end_to_end() {
        let args = ParsedArgs::parse(["run", "--preset", "smoke"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_rejects_unknown_preset_and_missing_flags() {
        let args = ParsedArgs::parse(["run", "--preset", "fig99"]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("fig99"));
        let args = ParsedArgs::parse(["run"]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("--scenario"));
        let args = ParsedArgs::parse(["run", "--scenario", "a", "--preset", "b"]).unwrap();
        assert!(run_command(&args).is_err());
    }

    #[test]
    fn run_scenario_file_round_trips_through_the_cli() {
        let dir = temp_dir("dagfl_cli_run_scenario_test");
        let path = dir.join("smoke.toml");
        let text = Scenario::preset_at("smoke", Scale::Quick)
            .unwrap()
            .to_toml();
        std::fs::write(&path, text).unwrap();
        let args = ParsedArgs::parse(["run", "--scenario", path.to_str().unwrap()]).unwrap();
        run_command(&args).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_rejects_missing_and_malformed_scenario_files() {
        let args = ParsedArgs::parse(["run", "--scenario", "/nonexistent/x.toml"]).unwrap();
        assert!(run_command(&args).is_err());
        let dir = temp_dir("dagfl_cli_bad_scenario_test");
        let path = dir.join("bad.toml");
        std::fs::write(&path, "name = \"x\"\n[dataset]\nkind = \"imagenet\"\n").unwrap();
        let args = ParsedArgs::parse(["run", "--scenario", path.to_str().unwrap()]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("imagenet"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenarios_lists_presets() {
        let args = ParsedArgs::parse(["scenarios"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn full_flag_resolves_paper_scale() {
        let args = ParsedArgs::parse(["run", "--preset", "smoke", "--full"]).unwrap();
        assert_eq!(requested_scale(&args), Scale::Full);
        // The smoke preset is scale-independent, so this stays cheap.
        run_command(&args).unwrap();
        let args = ParsedArgs::parse(["run", "--preset", "smoke"]).unwrap();
        assert_eq!(requested_scale(&args), Scale::from_env());
    }

    #[test]
    fn parse_axes_flag_handles_lists_ranges_and_errors() {
        let axes = parse_axes_flag("alpha=0.1,1,10;replicate=0..3").unwrap();
        assert_eq!(axes.len(), 2);
        assert_eq!(axes[0].field, "alpha");
        assert_eq!(axes[0].values, ["0.1", "1", "10"]);
        assert_eq!(axes[1].values, ["0", "1", "2"]);
        assert!(parse_axes_flag("").is_err());
        assert!(parse_axes_flag("alpha").is_err());
        assert!(parse_axes_flag("seed=5..5").is_err());
        assert!(parse_axes_flag("seed=a..b").is_err());
        // Oversized ranges are refused before allocation, like files.
        assert!(parse_axes_flag("replicate=0..9999999999").is_err());
    }

    #[test]
    fn sweep_preset_dry_run_lists_cells() {
        let args = ParsedArgs::parse(["sweep", "sweep-smoke", "--dry-run"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn sweep_ad_hoc_grid_runs_end_to_end() {
        let args = ParsedArgs::parse([
            "sweep",
            "--preset-base",
            "smoke",
            "--axes",
            "seed=42,43",
            "--jobs",
            "2",
        ])
        .unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn sweep_file_round_trips_through_the_cli() {
        let dir = temp_dir("dagfl_cli_sweep_file_test");
        let path = dir.join("sweep-smoke.toml");
        let text = dagfl_scenario::SweepSpec::preset("sweep-smoke")
            .unwrap()
            .to_toml();
        std::fs::write(&path, text).unwrap();
        let args = ParsedArgs::parse(["sweep", path.to_str().unwrap(), "--dry-run"]).unwrap();
        run_command(&args).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_rejects_bad_invocations() {
        // Neither a file nor a preset base.
        let args = ParsedArgs::parse(["sweep"]).unwrap();
        assert!(run_command(&args).is_err());
        // An unknown sweep preset word.
        let args = ParsedArgs::parse(["sweep", "sweep-nothing"]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("sweep-nothing"));
        // A missing sweep file.
        let args = ParsedArgs::parse(["sweep", "/nonexistent/sweep.toml"]).unwrap();
        assert!(run_command(&args).is_err());
        // --preset-base without --axes.
        let args = ParsedArgs::parse(["sweep", "--preset-base", "smoke"]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("--axes"));
        // An axis rejected by the spec, naming the field path.
        let args = ParsedArgs::parse([
            "sweep",
            "--preset-base",
            "smoke",
            "--axes",
            "execution.delay=1.0",
            "--dry-run",
        ])
        .unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("execution.delay"));
    }

    #[test]
    fn scenarios_check_passes_presets_and_fails_broken_files() {
        let dir = temp_dir("dagfl_cli_scenarios_check_test");
        for (name, _, text) in PRESETS.iter().chain(SWEEP_PRESETS) {
            std::fs::write(dir.join(format!("{name}.toml")), text).unwrap();
        }
        let args = ParsedArgs::parse(["scenarios", "--check", dir.to_str().unwrap()]).unwrap();
        run_command(&args).unwrap();
        // One broken file fails the whole check.
        std::fs::write(dir.join("broken.toml"), "not a scenario").unwrap();
        let args = ParsedArgs::parse(["scenarios", "--check", dir.to_str().unwrap()]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("broken"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenarios_check_rejects_empty_or_missing_dirs() {
        let dir = temp_dir("dagfl_cli_scenarios_empty_test");
        let args = ParsedArgs::parse(["scenarios", "--check", dir.to_str().unwrap()]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("no .toml"));
        let args = ParsedArgs::parse(["scenarios", "--check", "/nonexistent-dir"]).unwrap();
        assert!(run_command(&args).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_config_builds_cohort_delay_and_policy() {
        let cfg = async_config(&[
            "async",
            "--delay-model",
            "cohorts",
            "--delay",
            "1.5",
            "--slow-delay",
            "12",
            "--slow-fraction",
            "0.4",
            "--jitter",
            "0.5",
            "--slowdown",
            "4",
            "--train-time",
            "0.8",
            "--stale-policy",
            "reselect",
        ]);
        assert_eq!(
            cfg.delay,
            DelayModel::Cohorts {
                slow_fraction: 0.4,
                fast: 1.5,
                slow: 12.0,
                jitter: 0.5,
            }
        );
        // Under the cohorts delay model the compute slowdown applies to
        // the same (network-slow) clients.
        assert_eq!(
            cfg.compute,
            ComputeProfile::MatchNetworkCohort { slowdown: 4.0 }
        );
        assert_eq!(cfg.stale_policy, StaleTipPolicy::Reselect);
        assert_eq!(cfg.train_time, 0.8);
    }

    #[test]
    fn async_config_uses_independent_cohort_without_cohort_delays() {
        let cfg = async_config(&["async", "--slowdown", "3", "--slow-fraction", "0.2"]);
        assert_eq!(
            cfg.compute,
            ComputeProfile::TwoSpeed {
                slow_fraction: 0.2,
                slowdown: 3.0,
            }
        );
        // A slowdown of 1 is the uniform profile, as documented.
        assert_eq!(
            async_config(&["async", "--slowdown", "1"]).compute,
            ComputeProfile::Uniform
        );
    }

    #[test]
    fn async_config_rejects_out_of_range_values_instead_of_panicking() {
        for flags in [
            vec!["async", "--delay", "-1"],
            vec!["async", "--delay-model", "jitter", "--jitter", "-0.5"],
            vec![
                "async",
                "--delay-model",
                "cohorts",
                "--slow-fraction",
                "1.5",
            ],
            vec!["async", "--slowdown", "0.5"],
            vec!["async", "--interarrival", "0"],
            vec!["async", "--train-time", "-2"],
            vec!["async", "--delay-model", "cohorts", "--slow-delay", "-3"],
            vec!["async", "--partition-start", "5", "--partition-heal", "2"],
        ] {
            assert!(
                matches!(flag_failure(&flags), ParseError::InvalidValue { .. }),
                "expected InvalidValue for {flags:?}"
            );
        }
    }

    #[test]
    fn async_config_defaults_to_constant_delay_uniform_compute() {
        let cfg = async_config(&["async"]);
        assert_eq!(cfg.delay, DelayModel::Constant { delay: 2.0 });
        assert_eq!(cfg.compute, ComputeProfile::Uniform);
        assert_eq!(cfg.stale_policy, StaleTipPolicy::PublishAnyway);
        assert_eq!(cfg.total_activations, 200);
        assert_eq!(scenario(&["async"]).faults, None);
    }

    #[test]
    fn async_config_rejects_unknown_words() {
        for flags in [
            ["async", "--delay-model", "warp"],
            ["async", "--stale-policy", "retry"],
        ] {
            assert!(matches!(
                flag_failure(&flags),
                ParseError::InvalidValue { .. }
            ));
        }
    }

    #[test]
    fn fault_flags_compose_the_faults_section() {
        let faults = scenario(&[
            "async",
            "--drop",
            "0.2",
            "--partition-start",
            "2",
            "--partition-heal",
            "6",
            "--crash-at",
            "3",
        ])
        .faults
        .expect("fault flags make a [faults] section");
        assert_eq!(
            faults,
            FaultPlan {
                drop: 0.2,
                duplicate: 0.0,
                reorder: 0.0,
                extra_delay: 0.0,
                delay_boost: 1.0,
                // The CLI's defaults: split after peer 0, crash peer 0.
                partition: Some(PartitionWindow {
                    start: 2.0,
                    heal: 6.0,
                    split: 1,
                }),
                crash: Some(CrashWindow {
                    peer: 0,
                    at: 3.0,
                    restart: f64::INFINITY,
                }),
            }
        );
        // Half a window is an error, not a silently dropped flag.
        let args = ParsedArgs::parse(["async", "--partition-start", "2"]).unwrap();
        assert!(scenario_from_flags(&args).is_err());
        let args = ParsedArgs::parse(["async", "--crash-restart", "8"]).unwrap();
        assert!(scenario_from_flags(&args).is_err());
    }
}
