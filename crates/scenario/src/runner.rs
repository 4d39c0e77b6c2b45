//! Executes a [`Scenario`] and assembles a structured [`RunReport`].

use std::fmt;

use dagfl_analysis::AnalysisSnapshot;
use dagfl_core::{
    specialization_seed, tangle_digest, weights_hash, AsyncMetrics, AsyncSimulation, ExecutionMode,
    ModelPayload, PoisonRoundMetrics, PoisoningScenario, Simulation, SpecializationMetrics,
};
use dagfl_tangle::{TangleRead, TangleStats, TxId, DEPTH_CEILING};

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

/// What a run still holds at its end besides the tangle's structure:
/// `dagfl run` prints it as one stderr `#` line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Footprint {
    /// Rounds mode: the payloads the tangle holds, the genesis
    /// included, and those retired once no walk could reach them.
    Payloads {
        /// Payloads held.
        held: usize,
        /// Payloads retired.
        retired: usize,
    },
    /// Async mode: transactions per client replica, and the messages
    /// waiting in the replicas' solidification buffers.
    Replicas {
        /// Mean replica length.
        mean_len: f64,
        /// Longest replica.
        max_len: usize,
        /// Buffered messages, over all replicas.
        buffered: usize,
    },
}

impl Footprint {
    fn of_rounds(sim: &Simulation) -> Self {
        let (held, retired) = sim.payloads();
        Footprint::Payloads { held, retired }
    }

    fn of_async(sim: &AsyncSimulation) -> Self {
        let clients = sim.dataset().num_clients();
        let lens = (0..clients).map(|client| sim.replica(client).len());
        Footprint::Replicas {
            mean_len: lens.clone().sum::<usize>() as f64 / clients.max(1) as f64,
            max_len: lens.max().unwrap_or(0),
            buffered: sim.buffered(),
        }
    }
}

impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Footprint::Payloads { held, retired } => {
                write!(f, "payloads held={held} retired={retired}")
            }
            Footprint::Replicas {
                mean_len,
                max_len,
                buffered,
            } => write!(
                f,
                "replicas mean_len={mean_len:.2} max_len={max_len} buffered={buffered}"
            ),
        }
    }
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
    /// What the run still holds at its end.
    pub footprint: Footprint,
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
                let mut scenario = PoisoningScenario::new(*dag, *attack, dataset, factory);
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
                let plan = self.scenario.faults.clone().unwrap_or_default();
                let mut sim =
                    AsyncSimulation::try_new_with_faults(*config, dataset, factory, plan)?;
                sim.run()?;
                let metrics = sim.metrics();
                let tangle = ExecutionMode::tangle_stats(&sim);
                if cfg!(debug_assertions) {
                    audit_store(sim.tangle(), &tangle, config.dag.walk_depth.1);
                }
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
                    tangle,
                    tangle_digest: tangle_digest(sim.tangle()),
                    footprint: Footprint::of_async(&sim),
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
        let tangle = ExecutionMode::tangle_stats(sim);
        if cfg!(debug_assertions) {
            audit_store(sim.tangle(), &tangle, sim.config().walk_depth.1);
        }
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
            tangle,
            tangle_digest: tangle_digest(sim.tangle()),
            footprint: Footprint::of_rounds(sim),
            async_metrics: None,
            poisoning: None,
        }
    }
}

/// Checks a run's final store against its DAG rules: every parent id
/// is below its child's, `stats` (the store's own counters) equals a
/// recount of transactions, tips, edges and the longest path from the
/// genesis, the tips are exactly the transactions with no children, and
/// the capped depths the store keeps equal recomputed ones. Then its
/// payloads: a live one that keeps a weights hash keeps its weights'
/// hash, the genesis keeps its payload (the model template), and every
/// retired one lies deeper than `walk_top`, the walk-start window's top,
/// where no walk reaches. Two passes over the transactions and their
/// edges, and one hash of every live payload that kept one; it draws no
/// random number and prints nothing. The report helpers run it in
/// builds with debug assertions, so every test run of a scenario audits
/// its store and release builds never pay for it.
///
/// # Panics
///
/// Panics with the first violation.
fn audit_store<T: TangleRead<ModelPayload>>(tangle: &T, stats: &TangleStats, walk_top: u32) {
    let len = tangle.len();
    let mut heights = vec![0u32; len];
    let mut edges = 0;
    let mut tips = Vec::new();
    let mut linked = Vec::new();
    for index in 0..len {
        let id = TxId::from_index(index as u64);
        tangle
            .parents_into(id, &mut linked)
            .unwrap_or_else(|e| panic!("store audit: {e}"));
        for parent in &linked {
            let p = parent.index() as usize;
            assert!(
                p < index,
                "store audit: {id:?} approves {parent:?}, which is not older"
            );
            heights[index] = heights[index].max(heights[p] + 1);
        }
        edges += linked.len();
        tangle
            .children_into(id, &mut linked)
            .unwrap_or_else(|e| panic!("store audit: {e}"));
        if linked.is_empty() {
            tips.push(id);
        }
    }
    let max_height = heights.iter().copied().max().unwrap_or(0);
    assert_eq!(
        (stats.transactions, stats.tips, stats.edges, stats.max_depth),
        (len, tips.len(), edges, max_height),
        "store audit: stats() (transactions, tips, edges, max height) against a recount"
    );
    assert_eq!(
        tangle.tips(),
        tips,
        "store audit: tips against the transactions with no children"
    );
    let depths = tangle.depths_from_tips();
    let kept = tangle.capped_depths();
    assert_eq!(
        kept.len(),
        len,
        "store audit: one capped depth per transaction"
    );
    if let Some(index) = (0..len).find(|&i| kept[i] != depths[i].min(DEPTH_CEILING)) {
        panic!(
            "store audit: tx{index} keeps capped depth {} against its recomputed depth {}",
            kept[index], depths[index]
        );
    }
    for (index, &depth) in depths.iter().enumerate() {
        let id = TxId::from_index(index as u64);
        let payload = tangle
            .payload_of(id)
            .unwrap_or_else(|e| panic!("store audit: {e}"));
        if let (Some(kept), Some(weights)) = (payload.kept_hash(), payload.live()) {
            let hash = weights_hash(weights);
            assert!(
                kept == hash,
                "store audit: {id} keeps weights hash {kept:#018x}, \
                 but its weights hash to {hash:#018x}"
            );
        }
        let retired = payload.is_retired();
        assert!(
            !retired || (index > 0 && depth > walk_top),
            "store audit: the payload of {id} at depth {depth} was retired, \
             but walks reach depth {walk_top} and the genesis"
        );
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
    use crate::spec::DatasetSpec;
    use dagfl_core::{AsyncConfig, DagConfig, DelayModel, PoisoningConfig};

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
            attack: Some(PoisoningConfig {
                poison_fraction: 0.3,
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

    /// A diamond's reads with one lie told.
    struct Lying {
        dag: dagfl_tangle::Tangle<ModelPayload>,
        lie: Lie,
    }

    enum Lie {
        /// The genesis approves a newer transaction.
        ForwardParent,
        /// The genesis is listed among the tips.
        GenesisTip,
        /// The genesis keeps a capped depth one too shallow.
        ShallowDepth,
        /// Transaction 1 reads as this payload, whose kept hash is not
        /// its weights'.
        WrongHash(ModelPayload),
    }

    impl TangleRead<ModelPayload> for Lying {
        fn len(&self) -> usize {
            self.dag.len()
        }

        fn payload_of(&self, id: TxId) -> Result<&ModelPayload, dagfl_tangle::TangleError> {
            match &self.lie {
                Lie::WrongHash(forged) if id.index() == 1 => Ok(forged),
                _ => self.dag.payload_of(id),
            }
        }

        fn issuer_of(&self, id: TxId) -> Result<Option<u32>, dagfl_tangle::TangleError> {
            self.dag.issuer_of(id)
        }

        fn round_of(&self, id: TxId) -> Result<u32, dagfl_tangle::TangleError> {
            self.dag.round_of(id)
        }

        fn parents_into(
            &self,
            id: TxId,
            out: &mut Vec<TxId>,
        ) -> Result<(), dagfl_tangle::TangleError> {
            self.dag.parents_into(id, out)?;
            if matches!(self.lie, Lie::ForwardParent) && id == self.dag.genesis() {
                out.push(TxId::from_index(1));
            }
            Ok(())
        }

        fn children_into(
            &self,
            id: TxId,
            out: &mut Vec<TxId>,
        ) -> Result<(), dagfl_tangle::TangleError> {
            self.dag.children_into(id, out)
        }

        fn is_tip(&self, id: TxId) -> bool {
            self.dag.is_tip(id)
        }

        fn tips(&self) -> Vec<TxId> {
            let mut tips = self.dag.tips();
            if matches!(self.lie, Lie::GenesisTip) {
                tips.insert(0, self.dag.genesis());
            }
            tips
        }

        fn capped_depths(&self) -> Vec<u32> {
            let mut depths = self.dag.capped_depths().to_vec();
            if matches!(self.lie, Lie::ShallowDepth) {
                depths[0] -= 1;
            }
            depths
        }
    }

    /// The message `audit_store` panics with.
    fn audit_failure<T: TangleRead<ModelPayload>>(
        tangle: &T,
        stats: &TangleStats,
        walk_top: u32,
    ) -> String {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            audit_store(tangle, stats, walk_top);
        }))
        .expect_err("the audit must reject the store");
        panic.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    fn payload() -> ModelPayload {
        ModelPayload::new(vec![0.5])
    }

    #[test]
    fn the_store_audit_passes_a_sound_store_and_names_each_violation() {
        let diamond = || {
            let mut dag = dagfl_tangle::Tangle::new(payload());
            let g = dag.genesis();
            let a = dag.attach(payload(), &[g]).unwrap();
            let b = dag.attach(payload(), &[g]).unwrap();
            dag.attach(payload(), &[a, b]).unwrap();
            dag
        };
        let sound = diamond();
        let stats = sound.stats();
        audit_store(&sound, &stats, 25);
        let miscounted = TangleStats {
            edges: stats.edges + 1,
            ..stats.clone()
        };
        let message = audit_failure(&sound, &miscounted, 25);
        assert!(message.contains("against a recount"), "{message}");
        for (lie, violation) in [
            (Lie::ForwardParent, "which is not older"),
            (Lie::GenesisTip, "no children"),
            (
                Lie::ShallowDepth,
                "tx0 keeps capped depth 1 against its recomputed depth 2",
            ),
        ] {
            let lying = Lying {
                dag: diamond(),
                lie,
            };
            let message = audit_failure(&lying, &stats, 25);
            assert!(message.contains(violation), "{message}");
        }
    }

    #[test]
    fn the_store_audit_rejects_a_kept_hash_that_does_not_match_its_weights() {
        let mut dag = dagfl_tangle::Tangle::new(ModelPayload::hashed(vec![0.5]));
        let g = dag.genesis();
        let a = dag.attach(ModelPayload::hashed(vec![0.25]), &[g]).unwrap();
        dag.attach(ModelPayload::hashed(vec![0.75]), &[a]).unwrap();
        let stats = dag.stats();
        audit_store(&dag, &stats, 25);
        let forged = ModelPayload::with_unchecked_hash(vec![0.25], weights_hash(&[0.5]));
        let lying = Lying {
            dag,
            lie: Lie::WrongHash(forged),
        };
        let message = audit_failure(&lying, &stats, 25);
        let expected = format!("tx1 keeps weights hash {:#018x}", weights_hash(&[0.5]));
        assert!(message.contains(&expected), "{message}");
    }

    #[test]
    fn the_store_audit_rejects_a_payload_retired_within_reach() {
        // A chain of 30: transaction i lies at depth 30 - i.
        let chain = || {
            let tangle = dagfl_core::ShardedModelTangle::new(payload());
            let mut last = tangle.genesis();
            for _ in 0..30 {
                last = tangle.attach(payload(), &[last]).unwrap();
            }
            tangle
        };
        let mut tangle = chain();
        let stats = tangle.stats();
        dagfl_core::retire_payloads(&mut tangle, &[TxId::from_index(4)]).unwrap();
        audit_store(&tangle, &stats, 25);
        for (id, walk_top) in [(0, 25), (5, 25), (4, 26)] {
            let mut tangle = chain();
            dagfl_core::retire_payloads(&mut tangle, &[TxId::from_index(id)]).unwrap();
            let message = audit_failure(&tangle, &stats, walk_top);
            let violation = format!("tx{id} at depth {} was retired", 30 - id);
            assert!(message.contains(&violation), "{message}");
        }
    }
}
