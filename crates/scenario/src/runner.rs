//! Executes a [`Scenario`] and assembles a structured [`RunReport`].

use std::path::PathBuf;

use dagfl_analysis::AnalysisSnapshot;
use dagfl_core::csv::write_csv;
use dagfl_core::{
    specialization_seed, tangle_digest, AsyncMetrics, AsyncSimulation, ExecutionMode,
    PoisonRoundMetrics, PoisoningConfig, PoisoningScenario, Simulation, SpecializationMetrics,
};
use dagfl_tangle::TangleStats;

use crate::spec::{AnalysisSpec, ExecutionSpec, Scenario, ScenarioError};

/// Dataset facts the report carries so downstream tables (e.g. Table 2)
/// need no second dataset build.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Generator name (e.g. `fmnist-clustered`).
    pub name: String,
    /// Number of clients.
    pub clients: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Number of ground-truth clusters.
    pub clusters: usize,
    /// Pureness a uniformly random approval graph would score.
    pub base_pureness: f64,
}

/// Poisoning results of an attack scenario (Figures 12–14).
#[derive(Debug, Clone, PartialEq)]
pub struct PoisoningSummary {
    /// Per-measurement attack-phase metrics.
    pub measurements: Vec<PoisonRoundMetrics>,
    /// `(community, benign, poisoned)` rows of the final Louvain
    /// partition.
    pub distribution: Vec<(usize, usize, usize)>,
    /// The clients whose labels were flipped.
    pub poisoned_clients: Vec<u32>,
}

/// The structured result of one scenario run.
///
/// Everything is a plain value: two runs of the same scenario with the
/// same seed produce equal reports, which the determinism tests assert.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The scenario name.
    pub scenario: String,
    /// Execution mode (`"rounds"` or `"async"`).
    pub mode: &'static str,
    /// Completed scheduling units (rounds or activations).
    pub progress: usize,
    /// Mean post-training accuracy over the configured recent window.
    pub recent_accuracy: f32,
    /// Mean post-training accuracy per round (rounds mode; empty for
    /// async runs).
    pub round_accuracy: Vec<f32>,
    /// Mean post-training loss per round (rounds mode; empty for async
    /// runs).
    pub round_loss: Vec<f32>,
    /// Fresh (forward-pass) candidate evaluations per round (rounds
    /// mode; empty for async runs).
    pub round_fresh_evals: Vec<usize>,
    /// Cache-served candidate evaluations per round (rounds mode; empty
    /// for async runs).
    pub round_cached_evals: Vec<usize>,
    /// Total fresh candidate evaluations over the whole run (both
    /// modes) — the walk's dominant cost driver.
    pub fresh_evaluations: usize,
    /// Total cache-served candidate evaluations over the whole run.
    pub cached_evaluations: usize,
    /// The dataset the run trained on.
    pub dataset: DatasetSummary,
    /// Final §4.3 specialization metrics.
    pub specialization: SpecializationMetrics,
    /// `(round, metrics)` pairs when `output.track_every > 0`.
    pub specialization_track: Vec<(usize, SpecializationMetrics)>,
    /// Final analytics snapshot when the scenario enables `[analysis]`.
    pub analysis: Option<AnalysisSnapshot>,
    /// Per-round analytics snapshots when `analysis.cadence > 0` (the
    /// final snapshot is repeated in `analysis`).
    pub analysis_track: Vec<AnalysisSnapshot>,
    /// Structural statistics of the final (globally visible) tangle.
    pub tangle: TangleStats,
    /// Order-independent content digest of the final tangle
    /// ([`dagfl_core::tangle_digest`]): two runs agree on approvals,
    /// parameters, issuers and rounds exactly when the digests match,
    /// up to hash collisions, so CI can compare worker counts without
    /// shipping whole reports around.
    pub tangle_digest: u64,
    /// Throughput metrics (async mode only).
    pub async_metrics: Option<AsyncMetrics>,
    /// Poisoning metrics (attack scenarios only).
    pub poisoning: Option<PoisoningSummary>,
    /// Where the CSV series was written, if requested.
    pub csv_path: Option<PathBuf>,
}

impl RunReport {
    /// A multi-line human-readable summary (what `dagfl run` prints).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario {} ({} mode): {} {} completed",
            self.scenario,
            self.mode,
            self.progress,
            if self.async_metrics.is_some() {
                "activations"
            } else {
                "rounds"
            }
        );
        let _ = writeln!(
            out,
            "dataset {} ({} clients, {} classes, {} clusters, base pureness {:.3})",
            self.dataset.name,
            self.dataset.clients,
            self.dataset.classes,
            self.dataset.clusters,
            self.dataset.base_pureness
        );
        let _ = writeln!(out, "recent accuracy {:.4}", self.recent_accuracy);
        let _ = writeln!(
            out,
            "specialization: pureness {:.3} modularity {:.3} partitions {} misclassification {:.3}",
            self.specialization.approval_pureness,
            self.specialization.modularity,
            self.specialization.partitions,
            self.specialization.misclassification
        );
        let _ = writeln!(
            out,
            "tangle: {} transactions, {} tips, max depth {}",
            self.tangle.transactions, self.tangle.tips, self.tangle.max_depth
        );
        if let Some(m) = &self.async_metrics {
            let _ = writeln!(
                out,
                "async: rate {:.3}/t publish_fraction {:.3} latency mean {:.3} \
                 stale_fraction {:.3} confirmation depth {:.2}",
                m.activation_rate(),
                m.publish_fraction(),
                m.mean_publish_latency,
                m.stale_fraction(),
                m.mean_confirmation_depth
            );
            // Only fault-injected runs print this line, so unfaulted
            // golden outputs stay byte-identical.
            if m.dropped > 0 || m.duplicated > 0 {
                let _ = writeln!(
                    out,
                    "faults: delivered {} dropped {} duplicated {}",
                    m.delivered, m.dropped, m.duplicated
                );
            }
        }
        // Only analysis-enabled runs print these lines, so pre-analysis
        // golden outputs stay byte-identical.
        if let Some(a) = &self.analysis {
            if let Some(p) = &a.parameters {
                let _ = writeln!(
                    out,
                    "analysis/parameters: k {} silhouette {:.3} purity {:.3} ari {:.3}",
                    p.k, p.silhouette, p.purity, p.ari
                );
            }
            if let Some(g) = &a.graph {
                let _ = writeln!(
                    out,
                    "analysis/graph: {} communities modularity {:.3} purity {:.3} ari {:.3}",
                    g.community_count, g.modularity, g.purity, g.ari
                );
            }
            if let Some(agreement) = a.agreement_ari {
                let _ = writeln!(out, "analysis/agreement: ari {agreement:.3}");
            }
        }
        if let Some(p) = &self.poisoning {
            let last = p.measurements.last();
            let _ = writeln!(
                out,
                "poisoning: {} clients flipped, final flipped-predictions {:.3}, \
                 final approved-poisoned {:.2}",
                p.poisoned_clients.len(),
                last.map_or(0.0, |m| m.flipped_fraction),
                last.map_or(0.0, |m| m.approved_poisoned)
            );
        }
        if let Some(path) = &self.csv_path {
            let _ = writeln!(out, "series written to {}", path.display());
        }
        out
    }
}

/// Consumes a [`Scenario`], builds the dataset, model factory and the
/// right simulator behind [`ExecutionMode`], runs it to completion and
/// returns a [`RunReport`].
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    scenario: Scenario,
}

impl ScenarioRunner {
    /// Validates the scenario and wraps it for execution.
    ///
    /// # Errors
    ///
    /// Returns the first [`Scenario::validate`] inconsistency.
    pub fn new(scenario: Scenario) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        Ok(Self { scenario })
    }

    /// The wrapped scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs the experiment to completion.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures and CSV write errors.
    pub fn run(&self) -> Result<RunReport, ScenarioError> {
        let dataset = self.scenario.dataset.build();
        let summary = DatasetSummary {
            name: dataset.name().to_string(),
            clients: dataset.num_clients(),
            classes: dataset.num_classes(),
            clusters: dataset.clusters().len(),
            base_pureness: dataset.base_pureness(),
        };
        let factory = self.scenario.build_factory(&dataset);
        let mut report = match (&self.scenario.execution, &self.scenario.attack) {
            (ExecutionSpec::Rounds(dag), Some(attack)) => {
                let config = PoisoningConfig {
                    dag: *dag,
                    clean_rounds: attack.clean_rounds,
                    attack_rounds: attack.attack_rounds,
                    poison_fraction: attack.fraction,
                    class_a: attack.class_a,
                    class_b: attack.class_b,
                    measure_every: attack.measure_every,
                };
                let mut scenario = PoisoningScenario::new(config, dataset, factory);
                let measurements = scenario.run()?;
                let distribution = scenario.poisoned_cluster_distribution();
                let poisoned_clients = scenario
                    .report()
                    .map(|r| r.poisoned_clients.clone())
                    .unwrap_or_default();
                RunReport {
                    poisoning: Some(PoisoningSummary {
                        measurements,
                        distribution,
                        poisoned_clients,
                    }),
                    ..self.rounds_report(scenario.simulation(), summary)
                }
            }
            (ExecutionSpec::Rounds(dag), None) => {
                let analysis_spec = self.scenario.analysis.as_ref().filter(|a| a.enabled);
                let cadence = analysis_spec.map_or(0, |a| a.cadence);
                let mut sim = Simulation::new(*dag, dataset, factory);
                let mut track = Vec::new();
                let mut analysis_track = Vec::new();
                if self.scenario.output.track_every > 0 || cadence > 0 {
                    for round in 0..dag.rounds {
                        sim.run_round()?;
                        if self.scenario.output.track_every > 0
                            && (round + 1) % self.scenario.output.track_every == 0
                        {
                            track.push((round + 1, sim.specialization_metrics()));
                        }
                        if cadence > 0 && (round + 1) % cadence == 0 {
                            let spec = analysis_spec.expect("cadence implies analysis");
                            analysis_track.push(analysis_snapshot(
                                &mut sim,
                                round + 1,
                                spec,
                                dag.seed,
                            )?);
                        }
                    }
                } else {
                    sim.run()?;
                }
                // The final snapshot: reuse the last tracked one when the
                // cadence already landed on the final round, so the walk
                // RNG streams are not advanced a second time.
                let final_round = sim.round();
                let analysis = match analysis_spec {
                    Some(spec) => Some(match analysis_track.last() {
                        Some(last) if last.round == final_round => last.clone(),
                        _ => analysis_snapshot(&mut sim, final_round, spec, dag.seed)?,
                    }),
                    None => None,
                };
                RunReport {
                    specialization_track: track,
                    analysis,
                    analysis_track,
                    ..self.rounds_report(&sim, summary)
                }
            }
            (ExecutionSpec::Async { config, transport }, _) => {
                // The in-process runner can only drive the loopback
                // transport; a tcp scenario is a recipe for separate
                // processes.
                if let crate::TransportSpec::Tcp { tracker, .. } = transport {
                    return Err(ScenarioError::Invalid(format!(
                        "transport = \"tcp\" (tracker {tracker}) cannot run in-process: start a \
                         `dagfl tracker` and one `dagfl peer` per client instead"
                    )));
                }
                let plan = self
                    .scenario
                    .faults
                    .as_ref()
                    .map_or_else(Default::default, crate::FaultSpec::to_plan);
                let mut sim =
                    AsyncSimulation::try_new_with_faults(*config, dataset, factory, plan)?;
                sim.run()?;
                let metrics = sim.metrics();
                RunReport {
                    scenario: self.scenario.name.clone(),
                    mode: self.scenario.execution.mode(),
                    progress: sim.activations(),
                    recent_accuracy: sim.recent_accuracy(self.scenario.output.recent_window),
                    round_accuracy: Vec::new(),
                    round_loss: Vec::new(),
                    round_fresh_evals: Vec::new(),
                    round_cached_evals: Vec::new(),
                    fresh_evaluations: metrics.fresh_evaluations,
                    cached_evaluations: metrics.cached_evaluations,
                    dataset: summary,
                    specialization: sim
                        .specialization_metrics_seeded(specialization_seed(config.dag.seed, 0)),
                    specialization_track: Vec::new(),
                    analysis: None,
                    analysis_track: Vec::new(),
                    tangle: ExecutionMode::tangle_stats(&sim),
                    tangle_digest: tangle_digest(sim.tangle()),
                    async_metrics: Some(metrics),
                    poisoning: None,
                    csv_path: None,
                }
            }
        };
        if let Some(csv) = &self.scenario.output.csv {
            report.csv_path = Some(self.write_csv(csv, &report)?);
        }
        Ok(report)
    }

    /// The report of a rounds-mode run, as far as its simulation's
    /// history and final state tell it.
    fn rounds_report(&self, sim: &Simulation, dataset: DatasetSummary) -> RunReport {
        let history = sim.history();
        RunReport {
            scenario: self.scenario.name.clone(),
            mode: self.scenario.execution.mode(),
            progress: sim.round(),
            recent_accuracy: sim.recent_accuracy(self.scenario.output.recent_window),
            round_accuracy: history.iter().map(|m| m.mean_accuracy()).collect(),
            round_loss: history.iter().map(|m| m.mean_loss()).collect(),
            round_fresh_evals: history.iter().map(|m| m.fresh_evaluations).collect(),
            round_cached_evals: history.iter().map(|m| m.cached_evaluations).collect(),
            fresh_evaluations: history.iter().map(|m| m.fresh_evaluations).sum(),
            cached_evaluations: history.iter().map(|m| m.cached_evaluations).sum(),
            dataset,
            specialization: sim.specialization_metrics(),
            specialization_track: Vec::new(),
            analysis: None,
            analysis_track: Vec::new(),
            tangle: ExecutionMode::tangle_stats(sim),
            tangle_digest: tangle_digest(sim.tangle()),
            async_metrics: None,
            poisoning: None,
            csv_path: None,
        }
    }

    fn write_csv(&self, name: &str, report: &RunReport) -> Result<PathBuf, ScenarioError> {
        let (header, rows): (Vec<&str>, Vec<Vec<String>>) = if let Some(m) = &report.async_metrics {
            (
                vec![
                    "activations",
                    "elapsed",
                    "activation_rate",
                    "publish_fraction",
                    "mean_publish_latency",
                    "stale_fraction",
                    "mean_confirmation_depth",
                    "pureness",
                    "fresh_evals",
                    "cached_evals",
                    "delivered",
                    "dropped",
                    "duplicated",
                ],
                vec![vec![
                    m.activations.to_string(),
                    format!("{:.4}", m.elapsed),
                    format!("{:.4}", m.activation_rate()),
                    format!("{:.4}", m.publish_fraction()),
                    format!("{:.4}", m.mean_publish_latency),
                    format!("{:.4}", m.stale_fraction()),
                    format!("{:.4}", m.mean_confirmation_depth),
                    format!("{:.4}", report.specialization.approval_pureness),
                    m.fresh_evaluations.to_string(),
                    m.cached_evaluations.to_string(),
                    m.delivered.to_string(),
                    m.dropped.to_string(),
                    m.duplicated.to_string(),
                ]],
            )
        } else {
            // The analysis column group exists only for analysis-enabled
            // scenarios, so pre-analysis CSVs stay byte-identical.
            let mut header = vec![
                "round",
                "mean_accuracy",
                "mean_loss",
                "fresh_evals",
                "cached_evals",
            ];
            if report.analysis.is_some() {
                header.extend(ANALYSIS_COLUMNS);
            }
            let rows = report
                .round_accuracy
                .iter()
                .zip(&report.round_loss)
                .zip(
                    report
                        .round_fresh_evals
                        .iter()
                        .zip(&report.round_cached_evals),
                )
                .enumerate()
                .map(|(i, ((acc, loss), (fresh, cached)))| {
                    let mut row = vec![
                        (i + 1).to_string(),
                        format!("{acc:.4}"),
                        format!("{loss:.4}"),
                        fresh.to_string(),
                        cached.to_string(),
                    ];
                    if report.analysis.is_some() {
                        // Rounds between cadence points carry empty cells,
                        // like the async-only columns of sweep CSVs.
                        let snapshot = report
                            .analysis_track
                            .iter()
                            .chain(&report.analysis)
                            .find(|s| s.round == i + 1);
                        row.extend(analysis_cells(snapshot));
                    }
                    row
                })
                .collect();
            (header, rows)
        };
        write_results_csv(name, &header, &rows)
    }
}

/// Writes `<results dir>/<name>.csv` (`DAGFL_RESULTS`, default
/// `results/`), the home of run series and sweep comparisons.
pub(crate) fn write_results_csv(
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> Result<PathBuf, ScenarioError> {
    let dir = std::env::var("DAGFL_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    let path = dir.join(format!("{name}.csv"));
    write_csv(&path, header, rows)
        .map_err(|e| ScenarioError::Io(format!("writing {}: {e}", path.display())))?;
    Ok(path)
}

/// Runs the configured analytics over the simulation's current state:
/// parameter-space k-means over each client's walk-selected reference
/// model and/or community detection over the client approval graph.
///
/// Collecting reference models advances the clients' walk RNG streams
/// (like specialization tracking), deterministically: the same
/// `(seed, scenario)` still produces identical reports.
fn analysis_snapshot(
    sim: &mut Simulation,
    round: usize,
    spec: &AnalysisSpec,
    seed: u64,
) -> Result<AnalysisSnapshot, ScenarioError> {
    let config = spec.to_config(seed);
    let params = if config.source.wants_parameters() {
        Some(sim.reference_parameters().map_err(ScenarioError::Core)?)
    } else {
        None
    };
    let graph = if config.source.wants_approvals() {
        Some(sim.client_graph())
    } else {
        None
    };
    let truth = sim.dataset().cluster_labels();
    Ok(dagfl_analysis::analyze(
        round,
        params.as_deref(),
        graph.as_ref(),
        &truth,
        &config,
    ))
}

/// The analysis column group of run and sweep CSVs.
pub(crate) const ANALYSIS_COLUMNS: [&str; 7] = [
    "analysis_k",
    "analysis_silhouette",
    "analysis_purity",
    "analysis_ari",
    "analysis_communities",
    "analysis_modularity",
    "analysis_agreement",
];

/// The [`ANALYSIS_COLUMNS`] cells of one snapshot: empty when no
/// snapshot landed on that round or a view was not requested.
pub(crate) fn analysis_cells(snapshot: Option<&AnalysisSnapshot>) -> Vec<String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AttackSpec, DatasetSpec, TransportSpec};
    use dagfl_core::{AsyncConfig, DagConfig, DelayModel};

    fn tiny() -> Scenario {
        Scenario::new(
            "tiny",
            DatasetSpec::Fmnist {
                clients: 4,
                samples: 30,
                relaxation: 0.0,
                seed: 42,
            },
        )
        .rounds(2)
        .clients_per_round(2)
        .local_batches(2)
    }

    /// `tiny` over six asynchronous activations.
    fn tiny_async() -> Scenario {
        Scenario {
            execution: ExecutionSpec::Async {
                config: AsyncConfig {
                    dag: DagConfig {
                        local_batches: 2,
                        ..DagConfig::default()
                    },
                    total_activations: 6,
                    delay: DelayModel::constant(1.0),
                    ..AsyncConfig::default()
                },
                transport: TransportSpec::default(),
            },
            ..tiny()
        }
    }

    /// `tiny` writing its series to `<results dir>/<csv>.csv`.
    fn tiny_with_csv(csv: &str) -> Scenario {
        let mut scenario = tiny();
        scenario.output.csv = Some(csv.into());
        scenario
    }

    #[test]
    fn rounds_scenario_produces_a_full_report() {
        let report = ScenarioRunner::new(tiny()).unwrap().run().unwrap();
        assert_eq!(report.mode, "rounds");
        assert_eq!(report.progress, 2);
        assert_eq!(report.round_accuracy.len(), 2);
        assert_eq!(report.dataset.clients, 4);
        assert!(report.tangle.transactions >= 1);
        assert!(report.async_metrics.is_none());
        assert!(report.poisoning.is_none());
        assert!((0.0..=1.0).contains(&report.specialization.approval_pureness));
        assert!(report.summary().contains("rounds"));
    }

    #[test]
    fn reports_carry_evaluation_counts() {
        let report = ScenarioRunner::new(tiny()).unwrap().run().unwrap();
        assert_eq!(report.round_fresh_evals.len(), 2);
        assert_eq!(report.round_cached_evals.len(), 2);
        assert_eq!(
            report.fresh_evaluations,
            report.round_fresh_evals.iter().sum::<usize>()
        );
        assert_eq!(
            report.cached_evaluations,
            report.round_cached_evals.iter().sum::<usize>()
        );
        // Async runs report totals from the simulator's metrics.
        let scenario = tiny_async();
        let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        let metrics = report.async_metrics.as_ref().expect("async metrics");
        assert_eq!(report.fresh_evaluations, metrics.fresh_evaluations);
        assert_eq!(report.cached_evaluations, metrics.cached_evaluations);
        assert!(report.round_fresh_evals.is_empty());
    }

    #[test]
    fn tracking_records_requested_rounds() {
        let mut scenario = tiny().rounds(4);
        scenario.output.track_every = 2;
        let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        assert_eq!(report.specialization_track.len(), 2);
        assert_eq!(report.specialization_track[0].0, 2);
        assert_eq!(report.specialization_track[1].0, 4);
    }

    #[test]
    fn analysis_scenario_reports_snapshots_on_cadence() {
        use crate::spec::AnalysisSpec;
        let scenario = Scenario {
            analysis: Some(AnalysisSpec {
                k: Some(2),
                cadence: 2,
                ..AnalysisSpec::default()
            }),
            ..tiny().rounds(4)
        };
        let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        assert_eq!(report.analysis_track.len(), 2);
        assert_eq!(report.analysis_track[0].round, 2);
        assert_eq!(report.analysis_track[1].round, 4);
        let last = report.analysis.as_ref().expect("final snapshot");
        assert_eq!(last, &report.analysis_track[1]);
        let params = last.parameters.as_ref().expect("parameter view");
        assert_eq!(params.assignments.len(), 4);
        assert_eq!(params.k, 2);
        let graph = last.graph.as_ref().expect("graph view");
        assert_eq!(graph.communities.len(), 4);
        assert!(last.agreement_ari.is_some());
        let summary = report.summary();
        assert!(summary.contains("analysis/parameters:"), "{summary}");
        assert!(summary.contains("analysis/graph:"), "{summary}");
        assert!(summary.contains("analysis/agreement:"), "{summary}");
    }

    #[test]
    fn analysis_columns_appear_only_for_analysis_runs() {
        use crate::spec::AnalysisSpec;
        let plain = tiny_with_csv("runner_csv_no_analysis_test");
        let report = ScenarioRunner::new(plain).unwrap().run().unwrap();
        let path = report.csv_path.expect("csv written");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("round,mean_accuracy,mean_loss,fresh_evals,cached_evals\n"));
        let _ = std::fs::remove_file(&path);

        let analysed = Scenario {
            analysis: Some(AnalysisSpec {
                k: Some(2),
                cadence: 1,
                ..AnalysisSpec::default()
            }),
            ..tiny_with_csv("runner_csv_analysis_test")
        };
        let report = ScenarioRunner::new(analysed).unwrap().run().unwrap();
        let path = report.csv_path.expect("csv written");
        let content = std::fs::read_to_string(&path).unwrap();
        let header = content.lines().next().unwrap();
        assert!(
            header.ends_with(
                "analysis_k,analysis_silhouette,analysis_purity,analysis_ari,\
                 analysis_communities,analysis_modularity,analysis_agreement"
            ),
            "{header}"
        );
        // Cadence 1: every round carries filled analysis cells.
        for line in content.lines().skip(1) {
            assert!(!line.ends_with(','), "{line}");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(path.parent().expect("results dir"));
    }

    #[test]
    fn disabled_analysis_is_inert() {
        use crate::spec::AnalysisSpec;
        let scenario = Scenario {
            analysis: Some(AnalysisSpec {
                enabled: false,
                ..AnalysisSpec::default()
            }),
            ..tiny()
        };
        let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        assert!(report.analysis.is_none());
        assert!(report.analysis_track.is_empty());
        assert!(!report.summary().contains("analysis/"));
    }

    #[test]
    fn async_scenario_reports_throughput_metrics() {
        let scenario = tiny_async();
        let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        assert_eq!(report.mode, "async");
        assert_eq!(report.progress, 6);
        let metrics = report.async_metrics.as_ref().expect("async metrics");
        assert_eq!(metrics.activations, 6);
        assert!(report.round_accuracy.is_empty());
        assert!(report.summary().contains("async"));
    }

    #[test]
    fn attack_scenario_reports_poisoning_summary() {
        let scenario = Scenario {
            attack: Some(AttackSpec {
                fraction: 0.3,
                clean_rounds: 2,
                attack_rounds: 2,
                class_a: 3,
                class_b: 8,
                measure_every: 2,
            }),
            ..Scenario::new(
                "attack",
                DatasetSpec::FmnistAuthor {
                    clients: 6,
                    samples: 40,
                    seed: 42,
                },
            )
            .clients_per_round(3)
            .local_batches(3)
        };
        let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        let poisoning = report.poisoning.expect("poisoning summary");
        assert_eq!(poisoning.poisoned_clients.len(), 2);
        assert_eq!(poisoning.measurements.len(), 1);
        assert_eq!(report.progress, 4);
        let clients: usize = poisoning.distribution.iter().map(|(_, b, p)| b + p).sum();
        assert_eq!(clients, 6);
    }

    #[test]
    fn invalid_scenarios_are_rejected_before_running() {
        let err = ScenarioRunner::new(tiny().clients_per_round(99)).unwrap_err();
        assert!(err.to_string().contains("clients_per_round"), "{err}");
    }

    #[test]
    fn csv_output_lands_in_the_results_dir() {
        // Avoid mutating the process environment: exercise the default
        // relative `results/` directory and clean it up afterwards.
        let scenario = tiny_with_csv("scenario_runner_csv_test");
        let runner = ScenarioRunner::new(scenario).unwrap();
        let report = runner.run().unwrap();
        let path = report.csv_path.expect("csv written");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("round,mean_accuracy,mean_loss,fresh_evals,cached_evals\n"));
        assert_eq!(content.lines().count(), 3);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(path.parent().expect("results dir"));
    }
}
