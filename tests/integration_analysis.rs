//! Workspace-level tests of the specialization analytics subsystem:
//! analysis-enabled runs are deterministic and scheduling-independent,
//! the fig05 alpha sweep shows purity rising with the walk temperature,
//! and — crucially — scenarios *without* an `[analysis]` section keep
//! producing byte-identical summaries and CSVs (golden checks pinned to
//! the pre-analysis output).

use dagfl::scenario::Scale;
use dagfl::{RunReport, Scenario, ScenarioRunner, SweepRunner, SweepSpec};

fn run(scenario: Scenario) -> RunReport {
    ScenarioRunner::new(scenario)
        .expect("scenario validates")
        .run()
        .expect("scenario runs")
}

/// `dagfl run --preset smoke` stdout, captured before the analysis
/// subsystem existed. A scenario without `[analysis]` must keep
/// printing exactly this.
const GOLDEN_SMOKE_SUMMARY: &str = "\
scenario smoke (rounds mode): 2 rounds completed
dataset fmnist-clustered (4 clients, 10 classes, 3 clusters, base pureness 0.375)
recent accuracy 0.3333
specialization: pureness 0.500 modularity 0.000 partitions 2 misclassification 0.250
tangle: 5 transactions, 2 tips, max depth 2
";

/// `results/sweep_smoke.csv` from the checked-in `sweep-smoke` grid,
/// captured before the analysis subsystem existed. No cell opts into
/// analysis, so no `analysis_*` columns may appear.
const GOLDEN_SWEEP_SMOKE_CSV: &str = "\
cell,seed,mode,progress,recent_accuracy,pureness,modularity,partitions,misclassification,transactions,tips,activation_rate,publish_fraction,stale_fraction,mean_publish_latency,delivered,dropped,duplicated,fresh_evals,cached_evals
seed=42,42,rounds,2,0.3333,0.5000,0.0000,2,0.2500,5,2,,,,,,,,4,4
seed=43,43,rounds,2,0.5833,0.5000,0.5000,2,0.2500,5,2,,,,,,,,4,4
";

#[test]
fn smoke_summary_is_byte_identical_to_the_pre_analysis_golden() {
    let report = run(Scenario::preset_at("smoke", Scale::Quick).expect("smoke preset"));
    assert!(report.analysis.is_none(), "smoke must not carry analysis");
    assert_eq!(report.summary(), GOLDEN_SMOKE_SUMMARY);
}

#[test]
fn smoke_sweep_csv_is_byte_identical_to_the_pre_analysis_golden() {
    // The same grid as scenarios/sweep-smoke.toml, minus the file write.
    let spec = SweepSpec::over_preset("sweep-smoke", "smoke").axis("seed", [42, 43]);
    let report = SweepRunner::at_scale(spec, Scale::Quick)
        .expect("sweep validates")
        .run(2)
        .expect("sweep runs");
    assert_eq!(report.comparison_csv_text(), GOLDEN_SWEEP_SMOKE_CSV);
}

#[test]
fn analysis_preset_runs_are_deterministic() {
    let a = run(Scenario::preset_at("analysis-smoke", Scale::Quick).expect("analysis preset"));
    let b = run(Scenario::preset_at("analysis-smoke", Scale::Quick).expect("analysis preset"));
    assert_eq!(a, b);
    let snapshot = a.analysis.expect("analysis-smoke produces a snapshot");
    let params = snapshot
        .parameters
        .as_ref()
        .expect("parameter view present");
    let graph = snapshot.graph.as_ref().expect("graph view present");
    assert_eq!(params.assignments.len(), 6);
    assert_eq!(graph.communities.len(), 6);
    assert!((-1.0..=1.0).contains(&params.silhouette));
    assert!((0.0..=1.0).contains(&params.purity));
    // Cadence 2 over 4 rounds: snapshots at rounds 2 and 4, and the
    // final snapshot is the round-4 one (not a re-run that would
    // advance the walk RNG a second time).
    let rounds: Vec<usize> = a.analysis_track.iter().map(|s| s.round).collect();
    assert_eq!(rounds, vec![2, 4]);
    assert_eq!(a.analysis_track.last(), Some(&snapshot));
}

#[test]
fn analysis_graph_view_is_the_specialization_partition() {
    // At quick scale fig05 tracks the §4.3 metrics and takes an analysis
    // snapshot every 3 rounds: on each such round both partition the same
    // client graph with the same seeded Louvain.
    let report = run(Scenario::preset_at("fig05-alpha10", Scale::Quick).expect("fig05 preset"));
    let tracked: Vec<usize> = report.specialization_track.iter().map(|t| t.0).collect();
    let analysed: Vec<usize> = report.analysis_track.iter().map(|s| s.round).collect();
    assert!(!tracked.is_empty());
    assert_eq!(tracked, analysed, "track_every and cadence differ");
    for ((round, spec), snapshot) in report
        .specialization_track
        .iter()
        .zip(&report.analysis_track)
    {
        let graph = snapshot.graph.as_ref().expect("graph view present");
        assert_eq!(graph.communities, spec.partition, "round {round}");
        assert_eq!(
            graph.modularity.to_bits(),
            spec.modularity.to_bits(),
            "round {round}"
        );
        assert_eq!(graph.community_count, spec.partitions, "round {round}");
    }
}

#[test]
fn analysis_sweeps_are_scheduling_independent() {
    let spec = SweepSpec::over_preset("analysis-sweep", "analysis-smoke").axis("seed", [42, 43]);
    let runner = SweepRunner::at_scale(spec, Scale::Quick).expect("sweep validates");
    let serial = runner.run(1).expect("serial sweep runs");
    let pooled = runner.run(2).expect("pooled sweep runs");
    assert_eq!(serial, pooled);
    assert_eq!(
        serial.comparison_csv_text(),
        pooled.comparison_csv_text(),
        "worker count leaked into the comparison table"
    );
    // Analysis cells grow the analysis column group.
    let header = serial.comparison_header().join(",");
    assert!(
        header.ends_with(
            "analysis_k,analysis_silhouette,analysis_purity,analysis_ari,\
             analysis_communities,analysis_modularity,analysis_agreement"
        ),
        "unexpected header: {header}"
    );
}

#[test]
fn fig05_alpha_sweep_shows_purity_rising_with_alpha() {
    // The subsystem's headline claim, at quick scale: the walk
    // temperature controls how visible the ground-truth clusters are in
    // parameter space. Same grid as scenarios/sweep-fig05-alpha.toml.
    let spec = SweepSpec::over_preset("fig05-analysis", "fig05-alpha10")
        .axis("execution.alpha", [1, 10, 100]);
    let report = SweepRunner::at_scale(spec, Scale::Quick)
        .expect("sweep validates")
        .run(3)
        .expect("sweep runs");
    let purity: Vec<f64> = report
        .cells
        .iter()
        .map(|cell| {
            cell.report
                .analysis
                .as_ref()
                .expect("fig05 presets carry analysis")
                .parameters
                .as_ref()
                .expect("parameter view present")
                .purity
        })
        .collect();
    assert_eq!(purity.len(), 3);
    assert!(
        purity.windows(2).all(|w| w[0] <= w[1]),
        "purity not monotone in alpha: {purity:?}"
    );
    assert!(
        purity[2] > purity[0],
        "purity flat across two decades of alpha: {purity:?}"
    );
}
