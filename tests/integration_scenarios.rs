//! Workspace-level tests of the declarative scenario layer: the three
//! equivalent ways to express an experiment (preset name, TOML file,
//! builder API) produce the same runs, runs are deterministic, and
//! every checked-in `scenarios/*.toml` file is a valid preset.

use dagfl::scenario::{Scale, ScenarioError, PRESETS, SWEEP_PRESETS};
use dagfl::{
    DatasetSpec, ExecutionSpec, PoisoningConfig, RunReport, Scenario, ScenarioRunner, SweepRunner,
    SweepSpec,
};

fn run(scenario: Scenario) -> RunReport {
    ScenarioRunner::new(scenario)
        .expect("scenario validates")
        .run()
        .expect("scenario runs")
}

#[test]
fn preset_file_and_builder_agree() {
    // Preset name.
    let preset = Scenario::preset_at("smoke", Scale::Quick).expect("smoke preset");
    // TOML file (serialize -> reparse simulates the checked-in file).
    let file = Scenario::from_toml(&preset.to_toml()).expect("file parses");
    // Builder API.
    let built = Scenario::new(
        "smoke",
        DatasetSpec::Fmnist {
            clients: 4,
            samples: 30,
            relaxation: 0.0,
            seed: 42,
        },
    )
    .rounds(2)
    .clients_per_round(2)
    .local_batches(2);
    assert_eq!(preset, file);
    assert_eq!(preset, built);
    // All three therefore produce the same report.
    assert_eq!(run(preset), run(built));
}

#[test]
fn preset_runs_are_deterministic() {
    // The satellite guarantee: one preset, same seed, two runs,
    // identical RunReport metrics (field-for-field equality).
    let a = run(Scenario::preset_at("smoke", Scale::Quick).unwrap());
    let b = run(Scenario::preset_at("smoke", Scale::Quick).unwrap());
    assert_eq!(a, b);
    assert_eq!(a.round_accuracy, b.round_accuracy);
    assert_eq!(
        a.specialization.approval_pureness,
        b.specialization.approval_pureness
    );
    assert_eq!(a.tangle, b.tangle);
}

#[test]
fn different_seeds_change_the_report() {
    let a = run(Scenario::preset_at("smoke", Scale::Quick).unwrap());
    let b = run(Scenario::preset_at("smoke", Scale::Quick)
        .unwrap()
        .with_seed(7));
    assert_ne!(a.round_accuracy, b.round_accuracy);
}

#[test]
fn async_preset_runs_deterministically_behind_the_same_api() {
    let shrink = |mut s: Scenario| {
        if let ExecutionSpec::Async { config, .. } = &mut s.execution {
            config.total_activations = 12;
            config.dag.local_batches = 2;
        }
        s
    };
    let a = run(shrink(
        Scenario::preset_at("async-delay2", Scale::Quick).unwrap(),
    ));
    let b = run(shrink(
        Scenario::preset_at("async-delay2", Scale::Quick).unwrap(),
    ));
    assert_eq!(a, b);
    assert_eq!(a.mode, "async");
    assert_eq!(a.progress, 12);
    assert!(a.async_metrics.is_some());
}

#[test]
fn attack_preset_reports_poisoning_deterministically() {
    let shrink = |mut s: Scenario| {
        s.attack = Some(PoisoningConfig {
            clean_rounds: 2,
            attack_rounds: 2,
            measure_every: 2,
            ..s.attack.expect("poisoning preset has an attack")
        });
        if let ExecutionSpec::Rounds(dag) = &mut s.execution {
            dag.local_batches = 2;
        }
        s
    };
    let a = run(shrink(
        Scenario::preset_at("poisoning-p0.3", Scale::Quick).unwrap(),
    ));
    let b = run(shrink(
        Scenario::preset_at("poisoning-p0.3", Scale::Quick).unwrap(),
    ));
    assert_eq!(a, b);
    let poisoning = a.poisoning.expect("poisoning summary");
    assert!(!poisoning.poisoned_clients.is_empty());
}

#[test]
fn every_scenario_file_is_a_registry_row() {
    // A file without a row would be unreachable by `--preset`.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("scenarios/ directory exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().and_then(|ext| ext.to_str()) == Some("toml"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut rows: Vec<String> = PRESETS
        .iter()
        .chain(SWEEP_PRESETS)
        .map(|(name, ..)| name.to_string())
        .collect();
    rows.sort();
    assert_eq!(files, rows);
    for (name, _, text) in PRESETS {
        let scenario = Scenario::from_toml(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(scenario.name, *name);
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("{name} does not validate: {e}"));
        assert_eq!(Scenario::preset_at(name, Scale::Quick).unwrap(), scenario);
        // Every file is its own canonical serialization.
        assert_eq!(scenario.to_toml(), *text, "{name} is not in canonical form");
    }
    for (name, _, text) in SWEEP_PRESETS {
        let spec = SweepSpec::from_toml(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.name, *name);
        spec.validate()
            .unwrap_or_else(|e| panic!("{name} does not validate: {e}"));
        assert_eq!(spec.to_toml(), *text, "{name} is not in canonical form");
    }
}

#[test]
fn every_benchmark_workload_parses_and_validates() {
    // The benchmark reads these files with `Scenario::from_toml` and is
    // built from a frozen checkout, so a format change that breaks one
    // must fail here first.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmark/workloads");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("benchmark/workloads/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|ext| ext.to_str()) != Some("toml") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let scenario =
            Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("{} does not validate: {e}", path.display()));
        checked += 1;
    }
    assert!(
        checked >= 3,
        "only {checked} workload files in {}",
        dir.display()
    );
}

#[test]
fn sweep_grids_are_scheduling_independent_end_to_end() {
    // The acceptance guarantee, exercised through the facade: a >= 4-cell
    // grid run with 1 worker and with 2 workers produces equal reports
    // and byte-identical comparison CSV text.
    let spec = SweepSpec::over_preset("ws-sweep", "smoke")
        .axis("execution.alpha", ["1", "10"])
        .axis("replicate", ["0", "1"]);
    let runner = SweepRunner::at_scale(spec, Scale::Quick).expect("sweep validates");
    assert_eq!(runner.cells().len(), 4);
    let serial = runner.run(1).expect("serial sweep runs");
    let pooled = runner.run(2).expect("pooled sweep runs");
    assert_eq!(serial, pooled);
    assert_eq!(
        serial.comparison_csv_text().as_bytes(),
        pooled.comparison_csv_text().as_bytes()
    );
    // Replicates actually decorrelate the cells.
    assert_ne!(
        serial.cells[0].report.round_accuracy,
        serial.cells[1].report.round_accuracy
    );
}

#[test]
fn malformed_scenarios_are_rejected_end_to_end() {
    // Unknown key.
    assert!(
        Scenario::from_toml("name = \"x\"\n[dataset]\nkind = \"fmnist\"\nclinets = 3\n").is_err()
    );
    // The naive kernels are a test oracle, not a scenario option: a file
    // still carrying the retired key fails by name instead of running tiled.
    let err = Scenario::from_toml(
        "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[execution]\nmatmul_backend = \"naive\"\n",
    )
    .unwrap_err();
    assert!(
        matches!(err, ScenarioError::UnknownKey { ref key } if key == "execution.matmul_backend"),
        "{err}"
    );
    // Out-of-range value parses but fails validation.
    let s = Scenario::from_toml(
        "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[execution]\nlearning_rate = -1.0\n",
    )
    .expect("parses");
    assert!(ScenarioRunner::new(s).is_err());
}

#[test]
fn paper_scale_fmnist_holds_only_the_payloads_a_walk_can_reach() {
    // The benchmark's `rounds-fmnist` at its own seed: walks start 15–25
    // approvals below the tips, so every payload deeper than 25 is
    // retired in the round it falls below. Counted after each round's
    // publications and before its retirement pass, the peak.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../benchmark/workloads/rounds-fmnist.toml");
    let scenario = Scenario::from_toml(&std::fs::read_to_string(path).unwrap()).unwrap();
    let ExecutionSpec::Rounds(dag) = scenario.execution else {
        panic!("rounds-fmnist runs in rounds");
    };
    assert_eq!((dag.seed, dag.walk_depth.1), (42, 25));
    let dataset = scenario.dataset.build();
    let factory = scenario.build_factory(&dataset);
    let mut sim = dagfl::Simulation::new(dag, dataset, factory);
    let mut peak = 0;
    while sim.round() < dag.rounds {
        let (held, _) = sim.payloads();
        peak = peak.max(held + sim.run_round().unwrap().published);
    }
    let (held, retired) = sim.payloads();
    assert_eq!(held + retired, sim.tangle().len());
    assert!(peak <= 300, "{peak} payloads held at once");
    assert!(
        retired >= 680,
        "only {retired} of {} retired",
        sim.tangle().len()
    );
}
