//! Executes a [`Scenario`] and assembles a structured [`RunReport`].

use dagfl_analysis::AnalysisSnapshot;
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
    /// Propagates simulation failures.
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
        Ok(match (&self.scenario.execution, &self.scenario.attack) {
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
                let analysis_spec = self.scenario.analysis.as_ref();
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
            (ExecutionSpec::Async { config }, _) => {
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
                }
            }
        })
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
        }
    }
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
        Some(ExecutionMode::client_graph(&*sim))
    } else {
        None
    };
    let truth = sim.dataset().cluster_labels();
    Ok(dagfl_analysis::analyze(
        round,
        params.as_deref(),
        graph,
        &truth,
        &config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AttackSpec, DatasetSpec};
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
            },
            ..tiny()
        }
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
        // Rounds runs sum the per-round counters of the history.
        let scenario = tiny();
        let report = ScenarioRunner::new(scenario.clone())
            .unwrap()
            .run()
            .unwrap();
        let ExecutionSpec::Rounds(dag) = scenario.execution else {
            unreachable!("tiny runs in rounds")
        };
        let dataset = scenario.dataset.build();
        let factory = scenario.build_factory(&dataset);
        let mut sim = Simulation::new(dag, dataset, factory);
        sim.run().unwrap();
        let history = sim.history();
        assert!(report.fresh_evaluations > 0);
        assert_eq!(
            report.fresh_evaluations,
            history.iter().map(|m| m.fresh_evaluations).sum::<usize>()
        );
        assert_eq!(
            report.cached_evaluations,
            history.iter().map(|m| m.cached_evaluations).sum::<usize>()
        );
        // Async runs report totals from the simulator's metrics.
        let scenario = tiny_async();
        let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        let metrics = report.async_metrics.as_ref().expect("async metrics");
        assert_eq!(report.fresh_evaluations, metrics.fresh_evaluations);
        assert_eq!(report.cached_evaluations, metrics.cached_evaluations);
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
        use crate::sweep::{SweepCellReport, SweepReport};
        // The comparison table of a one-cell sweep over `scenario`.
        let table = |scenario: Scenario| {
            let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
            let cell = SweepCellReport {
                index: 0,
                id: "only".into(),
                values: Vec::new(),
                report,
            };
            SweepReport {
                name: "t".into(),
                axes: Vec::new(),
                cells: vec![cell],
                comparison_csv: None,
            }
            .comparison_csv_text()
        };
        let plain = table(tiny());
        assert!(!plain.contains("analysis_"), "{plain}");
        let analysed = table(Scenario {
            analysis: Some(AnalysisSpec {
                k: Some(2),
                ..AnalysisSpec::default()
            }),
            ..tiny()
        });
        let mut lines = analysed.lines();
        let header = lines.next().unwrap();
        assert!(
            header.ends_with(
                "analysis_k,analysis_silhouette,analysis_purity,analysis_ari,\
                 analysis_communities,analysis_modularity,analysis_agreement"
            ),
            "{header}"
        );
        // The final snapshot fills every analysis cell.
        for line in lines {
            assert!(!line.ends_with(','), "{line}");
        }
    }

    #[test]
    fn disabled_analysis_is_inert() {
        // No `[analysis]` section: no snapshot, no summary lines.
        let report = ScenarioRunner::new(tiny()).unwrap().run().unwrap();
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
}
