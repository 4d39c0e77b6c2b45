//! The benchmark's metric catalogue: every name the harness may print,
//! with its unit, direction and — for per-layer metrics — the end-to-end
//! metric and workload it is predicted to move.
//!
//! `BENCHMARK.json` at the repository root lists exactly these names
//! (`tests/selftest.rs` fails on any difference in either direction).

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A single-layer metric, emitted only by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// The layer (or group of small layers) the metric belongs to.
    pub layer: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload this rung is predicted to move,
    /// and where the prediction is *no change*.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload (definitions in
/// `README.md`, "End-to-end metrics").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "report_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.2,
    },
];

const TRAIN: &str = "wall_s@rounds-poets, then rounds-fmnist / not async-scale, net-gossip";
const NN: &str = "wall_s@rounds-poets (>= 60 % share) / <= 5 % on async-scale";
const TANGLE: &str =
    "reads -> wall_s@rounds-fmnist; attach -> wall_s@async-scale (a read win that slows attach shows there)";
const WALK: &str =
    "wall_s@rounds-fmnist (ceiling 42 %) / <= 5 % on rounds-poets for non-eval machinery";
const CLIENT: &str = "explains wall_s@rounds-*; the five shares must sum to >= 0.9";
const SIM: &str = "wall_s@rounds-*";
const ASYNC: &str = "step.* -> wall_s@async-scale; workers_speedup and flipped.* are the workers = 2 re-run (no end-to-end workload: too noisy)";
const REPLICA: &str = "wall_s, peak_rss_mb@async-scale; ops_per_s@net-gossip / not rounds-*";
const TRANSPORT: &str = "wall_s@async-scale / not rounds-*";
const NET: &str = "ops_per_s, wall_s@net-gossip / nothing else";
const DATA: &str = "setup_s@async-scale";
const REPORT: &str = "report_s@async-scale, rounds-fmnist";
const SCENARIO: &str = "none expected; non-zero is a finding";
const PROCESS: &str = "cpu_sys_s + minor_faults explain wall_s spread on async-scale; \
                       cpu_per_wall says how many cores a run kept busy";
const QUALITY: &str =
    "simulated statistic, identical across reps of a seed; a change here is a behaviour change";

macro_rules! layer {
    ($layer:literal, $moves:expr; $( $name:literal $unit:literal $better:ident ),+ $(,)?) => {
        &[ $( PerLayer { name: $name, layer: $layer, unit: $unit, better: $better, moves: $moves } ),+ ]
    };
}

const GROUPS: &[&[PerLayer]] = &[
    layer!("tensor", TRAIN;
        "tensor.matmul_into.gflops" "GFLOP/s" Higher,
        "tensor.matmul_into.eval_gflops" "GFLOP/s" Higher,
        "tensor.matmul_transpose_into.gflops" "GFLOP/s" Higher,
        "tensor.transpose_matmul_into.gflops" "GFLOP/s" Higher,
        "tensor.naive_ratio" "ratio" Higher,
    ),
    layer!("nn", NN;
        "nn.train_batch.us" "us" Lower,
        "nn.train_batch.allocs" "count" Lower,
        "nn.evaluate_flat_params.us" "us" Lower,
        "nn.evaluate_flat_params.allocs" "count" Lower,
        "nn.average_parameters.us" "us" Lower,
        "nn.parameters_copy.us" "us" Lower,
        "nn.train_share" "ratio" Lower,
    ),
    layer!("tangle", TANGLE;
        "tangle.walk_uniform.us" "us" Lower,
        "tangle.walk_uniform.steps" "count" Lower,
        "tangle.sample_walk_start.us" "us" Lower,
        "tangle.sharded.read.ns" "ns" Lower,
        "tangle.sharded.attach.us" "us" Lower,
        "tangle.stats.us" "us" Lower,
        "tangle.snapshot.ms" "ms" Lower,
        "tangle.transactions" "count" Higher,
        "tangle.tips" "count" Lower,
        "tangle.max_depth" "count" Higher,
    ),
    layer!("core.walk / core.evaluator", WALK;
        "core.walk.cold.us" "us" Lower,
        "core.walk.warm.us" "us" Lower,
        "core.walk.steps" "count" Lower,
        "core.walk.fresh_evals" "count" Lower,
        "core.walk.overhead_share" "ratio" Lower,
        "core.evaluator.fresh_evals" "count" Lower,
        "core.evaluator.cached_evals" "count" Higher,
        "core.evaluator.fresh_ratio" "ratio" Lower,
        "core.evaluator.score_cached.ns" "ns" Lower,
    ),
    layer!("core.client", CLIENT;
        "core.client.train_round.p50_us" "us" Lower,
        "core.client.train_round.p99_us" "us" Lower,
        "core.client.share.walk" "ratio" Lower,
        "core.client.share.average" "ratio" Lower,
        "core.client.share.reference_eval" "ratio" Lower,
        "core.client.share.train" "ratio" Higher,
        "core.client.share.post_eval" "ratio" Lower,
        "core.client.walk_share_reported" "ratio" Lower,
    ),
    layer!("core.simulation", SIM;
        "core.simulation.run_round.p50_ms" "ms" Lower,
        "core.simulation.run_round.p99_ms" "ms" Lower,
        "core.simulation.parallel_speedup" "ratio" Higher,
        "core.simulation.published_share" "ratio" Higher,
    ),
    layer!("core.async_sim", ASYNC;
        "core.async_sim.step.p50_us" "us" Lower,
        "core.async_sim.step.p99_us" "us" Lower,
        "core.async_sim.workers_speedup" "ratio" Higher,
        "core.async_sim.reconcile.ms" "ms" Lower,
        "core.async_sim.stale_fraction" "ratio" Lower,
        "core.async_sim.publish_fraction" "ratio" Higher,
        "core.async_sim.flipped.cpu_sys_s" "s" Lower,
        "core.async_sim.flipped.cpu_per_wall" "ratio" Higher,
        "core.async_sim.flipped.minor_faults" "count" Lower,
    ),
    layer!("core.replica", REPLICA;
        "core.replica.insert.us" "us" Lower,
        "core.replica.apply_reordered.us" "us" Lower,
        "core.replica.digest.ms" "ms" Lower,
        "core.replica.snapshot_messages.ms" "ms" Lower,
        "core.registry.records" "count" Lower,
        "core.registry.payload_mb" "MB" Lower,
    ),
    layer!("core.transport", TRANSPORT;
        "core.transport.loopback.broadcast.us" "us" Lower,
        "core.transport.loopback.receive.us" "us" Lower,
        "core.transport.sent" "count" Lower,
        "core.transport.delivered" "count" Higher,
        "core.transport.dropped" "count" Lower,
        "core.transport.duplicated" "count" Lower,
        "core.fault.decorator_ratio" "ratio" Lower,
    ),
    layer!("core.wire / core.net", NET;
        "core.wire.encode.mb_s" "MB/s" Higher,
        "core.wire.decode.mb_s" "MB/s" Higher,
        "core.wire.frame_bytes" "count" Lower,
        "core.net.connect.ms" "ms" Lower,
        "core.net.send_to_conn.us" "us" Lower,
        "core.net.receive_apply.us" "us" Lower,
        "core.net.burst.mb_s" "MB/s" Higher,
        "core.net.deliver.p50_ms" "ms" Lower,
        "core.net.deliver.p99_ms" "ms" Lower,
        "core.net.generator_late.p99_ms" "ms" Lower,
        "core.net.dropped" "count" Lower,
    ),
    layer!("datasets", DATA;
        "datasets.build.ms" "ms" Lower,
        "datasets.train_batches.us" "us" Lower,
        "datasets.mb" "MB" Lower,
    ),
    layer!("graphs / analysis", REPORT;
        "graphs.client_graph.ms" "ms" Lower,
        "graphs.louvain.ms" "ms" Lower,
        "core.approval_pureness.ms" "ms" Lower,
        "core.tangle_digest.ms" "ms" Lower,
        "analysis.analyze.ms" "ms" Lower,
        "analysis.kmeans.ms" "ms" Lower,
    ),
    layer!("scenario", SCENARIO;
        "scenario.from_toml.us" "us" Lower,
        "scenario.runner_overhead_share" "ratio" Lower,
    ),
    layer!("process / trace / host", PROCESS;
        "process.cpu_user_s" "s" Lower,
        "process.cpu_sys_s" "s" Lower,
        "process.cpu_per_wall" "ratio" Higher,
        "process.minor_faults" "count" Lower,
        "process.allocs" "count" Lower,
        "process.alloc_mb" "MB" Lower,
        "trace.overhead_share" "ratio" Lower,
        "host.canary.ms" "ms" Lower,
        "host.canary.drift" "ratio" Lower,
    ),
    layer!("quality", QUALITY;
        "quality.final_accuracy" "ratio" Higher,
        "quality.approval_pureness" "ratio" Higher,
        "quality.failed_ops_share" "ratio" Lower,
    ),
];

/// Every per-layer metric, in catalogue order.
pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    GROUPS.iter().flat_map(|group| group.iter())
}

/// Measured values by metric name. A name missing when results are
/// emitted reads 0: the layer is not on that workload's path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not list — a harness bug the
    /// self-tests catch, since every rung runs in `--quick`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || per_layer().any(|m| m.name == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Recorded `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }

    /// Moves every value of `other` into `self`.
    pub fn merge(&mut self, other: MetricSet) {
        self.0.extend(other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(per_layer().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().count()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_names_are_rejected() {
        MetricSet::default().set("made.up", 1.0);
    }
}
