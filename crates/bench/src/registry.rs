//! The figure registry: every experiment `reproduce` can run.

use std::collections::BTreeSet;

use dagfl_scenario::{Scale, Scenario, ScenarioRunner, SweepRunner, SweepSpec, SWEEP_PRESETS};

use crate::figures::{ablations, alpha, baselines, modes, tables, tangle};
use crate::{poisoning_suite, Session};

/// One reproducible table or figure.
pub struct Figure {
    /// The name `reproduce` takes; also the stem of the row's main output.
    pub name: &'static str,
    /// What the paper (or, for the additions, this repository) shows.
    pub shows: &'static str,
    /// The scenario and sweep presets the row resolves — validated up
    /// front, and checked against what the row really resolves by
    /// `tests/golden_outputs.rs`.
    pub presets: &'static [&'static str],
    /// Runs the experiment, writing through the session.
    pub run: fn(&Session),
}

/// Every experiment, in execution order. The comment on a row is the
/// shape to compare its output with.
pub const FIGURES: &[Figure] = &[
    // The hyperparameters the simulation configs are built from.
    Figure {
        name: "table1_hyperparams",
        shows: "Table 1: the fixed training hyperparameters per dataset",
        presets: &[],
        run: tables::table1,
    },
    // Paper reference values (100 rounds, α = 10): FMNIST-clustered 1.0
    // (base 0.33), Poets 0.95 (base 0.5), CIFAR-100 0.51 (base 0.05).
    Figure {
        name: "table2_pureness",
        shows: "Table 2: approval pureness in the DAG after training, per dataset",
        presets: &["table1-fmnist", "table1-poets", "table1-cifar"],
        run: tables::table2,
    },
    // Choosing α on FMNIST-clustered — modularity (a), number of partitions
    // (b) and misclassification fraction (c) of `G_clients` over the training
    // rounds, for α ∈ {1, 10, 100}.
    //
    // Paper shape: α = 10 balances best (rising modularity, few partitions,
    // near-zero misclassification); α = 1 degrades modularity and
    // misclassifies heavily; α = 100 keeps modularity high but fragments into
    // too many partitions.
    Figure {
        name: "fig05_alpha_cluster_metrics",
        shows: "Figure 5: client-graph modularity, partitions and misclassification per α",
        presets: &["sweep-fig05-alpha"],
        run: alpha::fig05,
    },
    // Accuracy per round on FMNIST-clustered for α ∈ {0.1, 1, 10, 100} with
    // the *simple* normalization (Eq. 1–2).
    //
    // Paper shape: higher α improves accuracy earlier; all α eventually come
    // close to 1.0 because the task is solvable by a generalised model.
    Figure {
        name: "fig06_alpha_accuracy",
        shows: "Figure 6: accuracy per round per α, simple normalization",
        presets: &["sweep-fig06-alpha"],
        run: |session| alpha::accuracy(session, "fig06_alpha_accuracy", "sweep-fig06-alpha"),
    },
    // Accuracy per round with the *dynamic* normalization (Eq. 3) for
    // α ∈ {0.1, 1, 10, 100} on FMNIST-clustered.
    //
    // Paper shape: dynamic normalization improves α = 1 (its approval
    // pureness rises from 0.40 to 0.51), leaving high-α behaviour unchanged.
    // The emitted series includes the final pureness per α so the comparison
    // against Figure 6 is direct.
    Figure {
        name: "fig07_dynamic_normalization",
        shows: "Figure 7: accuracy per round per α, dynamic normalization",
        presets: &["sweep-fig06-alpha", "sweep-fig07-alpha"],
        run: alpha::fig07,
    },
    // Accuracy per round on the *relaxed* FMNIST-clustered dataset (each
    // cluster holds 15–20 % foreign-cluster data; the base preset
    // `fig08-alpha10` uses 18 %) for α ∈ {0.1, 1, 10, 100}.
    //
    // Paper shape: relaxation helps low-α runs generalise faster while
    // slightly slowing the highly specialized high-α runs — the α ordering
    // remains but the gap narrows compared to Figure 6.
    Figure {
        name: "fig08_relaxed_clusters",
        shows: "Figure 8: accuracy per round per α on relaxed clusters",
        presets: &["sweep-fig08-alpha"],
        run: |session| alpha::accuracy(session, "fig08_relaxed_clusters", "sweep-fig08-alpha"),
    },
    // Per-client accuracy distributions, Specializing DAG vs FedAvg, on all
    // three datasets, grouped over five consecutive rounds (the paper's box
    // plots).
    //
    // Paper shape: the DAG improves faster with a tighter spread on
    // FMNIST-clustered; on Poets and CIFAR-100 both approaches reach similar
    // accuracy — removing the central server costs nothing.
    Figure {
        name: "fig09_fedavg_comparison",
        shows: "Figure 9: per-client accuracy distributions, DAG vs FedAvg",
        presets: &["table1-fmnist", "table1-poets", "table1-cifar"],
        run: baselines::fig09,
    },
    // Average accuracy (Fig. 10) and loss (Fig. 11) per round on the FedProx
    // synthetic(0.5, 0.5) benchmark — Specializing DAG vs FedAvg vs FedProx,
    // 30 clients with 10 active per round.
    //
    // Paper shape: the centralized approaches are steadier early; the DAG is
    // noisier (statistical tip selection) but eventually outperforms FedAvg
    // on both metrics and approaches FedProx on loss.
    Figure {
        name: "fig10_11_fedprox_comparison",
        shows: "Figures 10 & 11: accuracy and loss per round, DAG vs FedAvg vs FedProx",
        presets: &[],
        run: baselines::fig10_11,
    },
    // Flipped predictions of class-3/8 samples under label-flip poisoning,
    // for p ∈ {0.0, 0.2, 0.3} with the accuracy tip selector and p = 0.2
    // with the random tip selector.
    //
    // Paper shape: p = 0.2 stays within the p = 0.0 variance; p = 0.3 is
    // noticeable but below 30 % mispredictions; the random selector with
    // p = 0.2 suffers *more* mispredictions than the accuracy selector with
    // p = 0.3.
    Figure {
        name: "fig12_poisoning_flipped",
        shows: "Figure 12: flipped predictions under label-flip poisoning",
        presets: poisoning_suite::POISONING_PRESETS,
        run: poisoning_suite::fig12,
    },
    // The average number of poisoned transactions (directly or indirectly)
    // approved by clients' reference transactions, per round.
    //
    // Paper shape: the accuracy selector approves *more* poisoned
    // transactions than the random selector at equal p — yet causes fewer
    // mispredictions (Figure 12), because the poison is contained within the
    // attackers' own cluster.
    Figure {
        name: "fig13_poisoned_approvals",
        shows: "Figure 13: poisoned transactions approved by reference transactions",
        presets: poisoning_suite::POISONING_PRESETS,
        run: poisoning_suite::fig13,
    },
    // The distribution of poisoned clients over the Louvain communities
    // inferred from the final client graph, for p = 0.3.
    //
    // Paper shape: most poisoned clients end up in communities where the
    // majority of members are also poisoned — the attack is contained, but
    // hard for the affected clients to detect.
    Figure {
        name: "fig14_poisoned_cluster_distribution",
        shows: "Figure 14: poisoned clients per Louvain community at p = 0.3",
        presets: &["poisoning-p0.3"],
        run: poisoning_suite::fig14,
    },
    // Wall-clock duration of the biased random walk per client, over
    // training rounds, for 5/10/20/40 concurrently active clients.
    //
    // Paper shape: the walk cost is dominated by candidate model evaluation;
    // it spikes early (imbalanced child counts while accuracies differ
    // widely) and levels out, with only marginal differences between
    // concurrency levels — i.e. the approach scales.
    Figure {
        name: "fig15_walk_scalability",
        shows: "Figure 15: walk duration per client over rounds, by concurrency",
        presets: &[],
        run: tangle::fig15,
    },
    // Publish gate, walk-start depth band, tip-selection strategy and the
    // accuracy-cliff guard, one arm each on FMNIST-clustered.
    Figure {
        name: "ablation_design_choices",
        shows: "ablations of the publish gate, walk start, tip selector and cliff guard",
        presets: &["table1-fmnist"],
        run: ablations::design_choices,
    },
    // The random-weight flooding attack (§4.4, argued but not measured in
    // the paper): accuracy-aware vs random tip selection, with and without
    // the accuracy-cliff guard.
    //
    // Expected shape: the random selector lets garbage into references
    // freely; the accuracy selector avoids it; the cliff guard eliminates the
    // remaining *forced* selections (paths whose only continuation is
    // garbage).
    Figure {
        name: "ablation_garbage_attack",
        shows: "the random-weight flooding attack of §4.4, by tip selector",
        presets: &[],
        run: ablations::garbage_attack,
    },
    // Each cluster's consensus model evaluated on every cluster's pooled
    // test data, plus pairwise parameter divergence.
    //
    // A parameter-space companion to Table 2 / Figure 5: implicit
    // specialization should produce a diagonal-dominant accuracy matrix and
    // growing inter-cluster parameter distance.
    Figure {
        name: "specialization_matrix",
        shows: "the cluster specialization matrix and the local-only baseline",
        presets: &["table1-fmnist"],
        run: baselines::specialization_matrix,
    },
    // Figure 2/4 companion: the DAG of a short FMNIST-clustered run as
    // Graphviz DOT, with transactions coloured by their issuer's
    // ground-truth cluster — rendering it shows the cluster formation of
    // Figure 4.
    Figure {
        name: "fig04_dag_dot",
        shows: "Figure 4: the DAG of a short run as Graphviz DOT, coloured by cluster",
        presets: &["table1-fmnist"],
        run: tangle::fig04,
    },
    // Asynchronous operation (§5.3.3): the paper's algorithm needs no
    // rounds — the event-driven simulator against the round-based one on
    // the same dataset and training budget, comparing learning progress and
    // specialization.
    //
    // Expected shape: comparable final accuracy and pureness; larger
    // propagation delays widen the DAG frontier (more tips) without breaking
    // convergence — the asynchrony-tolerance the tangle design buys.
    Figure {
        name: "async_vs_rounds",
        shows: "§5.3.3: the event-driven simulator against the round-based one",
        presets: &["table1-fmnist", "sweep-async-delay"],
        run: modes::async_vs_rounds,
    },
    // Expected shape: comparable accuracy and pureness across modes;
    // heterogeneous links (cohorts) raise publish latency and widen the
    // DAG without breaking convergence; positive training time introduces
    // stale tips, which the re-selection policy absorbs.
    Figure {
        name: "mode_comparison",
        shows: "both modes on an equal logical-time budget, three network models",
        presets: &["table1-fmnist"],
        run: modes::mode_comparison,
    },
    // The related-work discussion (§3.2, Hegedűs et al.) notes that
    // peer-to-peer learning pays more network traffic than a star topology.
    Figure {
        name: "communication_cost",
        shows: "communication cost, DAG vs FedAvg on identical training budgets",
        presets: &["table1-fmnist"],
        run: baselines::communication_cost,
    },
];

/// The rows named by `names`, in registry order (all rows for no names).
///
/// # Errors
///
/// Returns the first name no row carries.
pub fn select(names: &[String]) -> Result<Vec<&'static Figure>, &str> {
    if let Some(unknown) = names
        .iter()
        .find(|name| FIGURES.iter().all(|figure| figure.name != **name))
    {
        return Err(unknown);
    }
    Ok(FIGURES
        .iter()
        .filter(|figure| names.is_empty() || names.iter().any(|name| name == figure.name))
        .collect())
}

/// The registry as text: one `name — what it shows` line per row.
pub fn index() -> String {
    FIGURES
        .iter()
        .map(|figure| format!("  {:<36} {}\n", figure.name, figure.shows))
        .collect()
}

/// Resolves and validates, at `scale`, every preset the given rows
/// declare and every sweep preset of the registry before any experiment
/// burns compute, so a drifted preset fails the suite in milliseconds
/// instead of mid-run. Returns how many presets it checked.
///
/// # Errors
///
/// Returns one line per invalid preset.
pub fn validate(figures: &[&Figure], scale: Scale) -> Result<usize, Vec<String>> {
    let declared = figures.iter().flat_map(|figure| figure.presets);
    let sweeps = SWEEP_PRESETS.iter().map(|(name, ..)| name);
    let presets: BTreeSet<&str> = declared.chain(sweeps).copied().collect();
    let failures: Vec<String> = presets
        .iter()
        .filter_map(|name| {
            let checked = if name.starts_with("sweep-") {
                SweepSpec::preset(name)
                    .and_then(|spec| SweepRunner::at_scale(spec, scale))
                    .err()
            } else {
                Scenario::preset_at(name, scale)
                    .and_then(ScenarioRunner::new)
                    .err()
            };
            checked.map(|e| format!("preset `{name}` is invalid at {scale:?} scale: {e}"))
        })
        .collect();
    if failures.is_empty() {
        Ok(presets.len())
    } else {
        Err(failures)
    }
}
