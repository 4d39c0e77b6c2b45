//! The per-layer cost ladder: every layer timed from outside, through
//! public functions only, on the final state of a finished run.
//!
//! Each rung is warmed up, then run in `BATCHES` batches sized to fill the
//! rung's time budget; the reported value is the median batch. One span
//! per batch goes to the trace. A rung that is not on a workload's path is
//! not run and its metrics read 0.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dagfl::dag::wire::{decode, encode};
use dagfl::dag::{
    approval_pureness_of, client_graph_of, tangle_digest, AccuracyBias, CoreError, DagClient,
    Envelope, ModelFactory, ModelPayload, SegmentRegistry, ShardedModelTangle, WireMessage,
};
use dagfl::datasets::ClientDataset;
use dagfl::graphs::louvain;
use dagfl::nn::{average_parameters, EvalScratch, Evaluation, Model, SgdConfig};
use dagfl::scenario::ExecutionSpec;
use dagfl::tangle::{RandomWalker, TangleRead, TxId, UniformBias};
use dagfl::tensor::Matrix;
use dagfl::{
    AnalysisConfig, AnalysisSource, DagConfig, FaultPlan, FaultyTransport, GossipMessage,
    KMeansConfig, KSelection, LoopbackTransport, MatmulBackendKind, ModelEvaluator, Replica,
    Scenario, Simulation, TipSelector, Transport, TxMessage,
};

use crate::alloc;
use crate::metrics::MetricSet;
use crate::sim::{pattern_matrix, Sim};
use crate::span::Tracer;
use crate::stats::{median, quantile};

/// Batches per rung; the rung's value is the median batch.
const BATCHES: usize = 5;
/// Most transactions replayed by the replica rungs.
pub const REPLICA_MESSAGES: usize = 4_000;
/// Most messages delivered in reverse by the solidification rung (its
/// buffer makes the replay quadratic).
const REORDERED_MESSAGES: usize = 1_000;

/// Why a kernel rung cannot fail.
const SHAPES: &str = "ladder operands are built to conform";

/// The five steps of an activation: `(share metric, span name)`. Their
/// self times must cover the activation, or the ladder is missing a rung.
pub const CLIENT_SHARES: [(&str, &str); 5] = [
    ("core.client.share.walk", "core.client.walk"),
    ("core.client.share.average", "core.client.average"),
    (
        "core.client.share.reference_eval",
        "core.client.reference_eval",
    ),
    ("core.client.share.train", "core.client.train"),
    ("core.client.share.post_eval", "core.client.post_eval"),
];

/// Rung runner: time budget, metrics and the trace.
pub struct Ladder<'a> {
    tracer: &'a mut Tracer,
    /// Values measured so far.
    pub metrics: MetricSet,
    rung_s: f64,
}

impl<'a> Ladder<'a> {
    /// A ladder whose every timed rung gets about `rung_s` seconds.
    pub fn new(tracer: &'a mut Tracer, rung_s: f64) -> Self {
        Self {
            tracer,
            metrics: MetricSet::default(),
            rung_s,
        }
    }

    /// Seconds per call of `f`: one warm-up call sizes the batches, then
    /// the median of `BATCHES` batches. A call that alone overdraws the
    /// rung's budget is sampled just twice more, warm-up included in the
    /// median, so one slow rung cannot eat the whole traced run.
    pub fn time<R>(&mut self, span: &'static str, mut f: impl FnMut() -> R) -> f64 {
        let t = Instant::now();
        black_box(f());
        let once = t.elapsed().as_secs_f64().max(1e-9);
        let slow = once > self.rung_s;
        let batches = if slow { 2 } else { BATCHES };
        let iters = ((self.rung_s / BATCHES as f64 / once) as usize).clamp(1, 1 << 22);
        let mut samples = Vec::with_capacity(batches + 1);
        if slow {
            samples.push(once);
        }
        for batch in 0..batches {
            let id = self.tracer.enter(span, batch as u64);
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(self.tracer.exit(id) as f64 / 1e9 / iters as f64);
        }
        median(&samples)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.set(name, value);
    }
}

/// One fresh (uncached) candidate evaluation, exactly as
/// `ModelEvaluator::score` performs it.
fn fresh_eval(
    model: &mut dyn Model,
    params: &[f32],
    x: &Matrix,
    y: &[usize],
    scratch: &mut EvalScratch,
) -> Evaluation {
    let result = match model.evaluate_flat_params(params, x, y, scratch) {
        Some(result) => result,
        None => model
            .set_parameters(params)
            .and_then(|()| model.evaluate_with_scratch(x, y, scratch)),
    };
    result.expect("the workload's own model evaluates its own parameters")
}

/// One accuracy-biased walk from a sampled start, exactly as
/// `DagClient::select_tips` performs each of its two.
fn walk_once(
    evaluator: &mut ModelEvaluator,
    rng: &mut StdRng,
    tangle: &ShardedModelTangle,
    data: &ClientDataset,
    dag: &DagConfig,
) -> Result<(TxId, usize), CoreError> {
    let start = tangle.sample_walk_start(dag.walk_depth.0, dag.walk_depth.1, rng);
    let TipSelector::Accuracy {
        alpha,
        normalization,
    } = dag.tip_selector
    else {
        return Err(CoreError::Config(
            "the ladder composes accuracy-biased walks only".to_string(),
        ));
    };
    let mut bias = AccuracyBias::new(
        evaluator,
        data.test_x(),
        data.test_y(),
        alpha,
        normalization,
    );
    let result = RandomWalker::new().walk(tangle, start, &mut bias, rng)?;
    Ok((result.tip, result.steps))
}

/// One client activation composed from public pieces, with a span around
/// each of the five steps of `DagClient::train_round`.
fn composed_activation(
    tracer: &mut Tracer,
    op: u64,
    evaluator: &mut ModelEvaluator,
    rng: &mut StdRng,
    tangle: &ShardedModelTangle,
    data: &ClientDataset,
    dag: &DagConfig,
) -> Result<(), CoreError> {
    let activation = tracer.enter("core.client.activation", op);
    let span = tracer.enter("core.client.walk", op);
    let (tip1, _) = walk_once(evaluator, rng, tangle, data, dag)?;
    let (tip2, _) = walk_once(evaluator, rng, tangle, data, dag)?;
    tracer.exit(span);

    let span = tracer.enter("core.client.average", op);
    let p1 = tangle.payload_of(tip1)?.share();
    let p2 = tangle.payload_of(tip2)?.share();
    let averaged = average_parameters(&[&p1, &p2]);
    tracer.exit(span);

    let span = tracer.enter("core.client.reference_eval", op);
    let reference = evaluator.evaluate_params(&averaged, data.test_x(), data.test_y())?;
    tracer.exit(span);

    let span = tracer.enter("core.client.train", op);
    let opt = SgdConfig::new(dag.learning_rate);
    let (model, scratch) = evaluator.model_and_scratch();
    for _ in 0..dag.local_epochs {
        for (x, y) in data.train_batches(dag.batch_size, dag.local_batches, rng) {
            model.train_batch(&x, &y, &opt)?;
        }
    }
    tracer.exit(span);

    let span = tracer.enter("core.client.post_eval", op);
    let trained = model.evaluate_with_scratch(data.test_x(), data.test_y(), scratch)?;
    tracer.exit(span);

    // The publish gate; its parameter copy is the activation's self time.
    if trained.accuracy > reference.accuracy {
        black_box(evaluator.model().parameters());
    }
    tracer.exit(activation);
    Ok(())
}

/// The transactions of `tangle` (without the genesis) as gossip messages
/// with dense network ids, at most `limit` of them. Any prefix of a
/// tangle is closed under parents, so the result replays cleanly.
pub fn messages_of(tangle: &ShardedModelTangle, limit: usize) -> Vec<TxMessage> {
    tangle
        .iter()
        .skip(1)
        .take(limit)
        .map(|tx| TxMessage {
            id: tx.id().index(),
            parents: tx.parents().iter().map(|p| p.index()).collect(),
            params: tx.payload().share(),
            issuer: tx.issuer(),
            round: tx.round(),
        })
        .collect()
}

fn envelope(message: &TxMessage) -> Envelope {
    Envelope {
        at: 0.0,
        message: GossipMessage::Transaction(message.clone()),
    }
}

impl Ladder<'_> {
    /// `tensor`: the three training products on the tiled backend at the
    /// workload model's train-batch shape, the forward product at its
    /// test-set shape, and the naive oracle for the ratio.
    pub fn tensor(&mut self, shapes: [(usize, usize, usize); 2]) {
        let [(m, k, n), (eval_m, _, _)] = shapes;
        let gflops = |rows: usize, secs: f64| (2 * rows * k * n) as f64 / secs / 1e9;
        let (a, b) = (pattern_matrix(m, k, 0), pattern_matrix(k, n, 1));
        // Output gradient of the layer: [batch x cols].
        let g = pattern_matrix(m, n, 3);
        let a_eval = pattern_matrix(eval_m, k, 4);
        let mut out = Matrix::default();
        let mut totals = [0.0f64; 2];
        for (slot, kind) in [MatmulBackendKind::Tiled, MatmulBackendKind::Naive]
            .into_iter()
            .enumerate()
        {
            let backend = kind.as_dyn();
            let tiled = slot == 0;
            let forward = self.time(
                if tiled {
                    "tensor.matmul_into"
                } else {
                    "tensor.naive.matmul_into"
                },
                || backend.matmul_into(&a, &b, &mut out).expect(SHAPES),
            );
            let grad_input = self.time(
                if tiled {
                    "tensor.matmul_transpose_into"
                } else {
                    "tensor.naive.matmul_transpose_into"
                },
                || {
                    backend
                        .matmul_transpose_into(&g, &b, &mut out)
                        .expect(SHAPES)
                },
            );
            let grad_weight = self.time(
                if tiled {
                    "tensor.transpose_matmul_into"
                } else {
                    "tensor.naive.transpose_matmul_into"
                },
                || {
                    backend
                        .transpose_matmul_into(&a, &g, &mut out)
                        .expect(SHAPES)
                },
            );
            totals[slot] = forward + grad_input + grad_weight;
            if tiled {
                self.set("tensor.matmul_into.gflops", gflops(m, forward));
                self.set("tensor.matmul_transpose_into.gflops", gflops(m, grad_input));
                self.set(
                    "tensor.transpose_matmul_into.gflops",
                    gflops(m, grad_weight),
                );
                let eval = self.time("tensor.matmul_into.eval", || {
                    backend.matmul_into(&a_eval, &b, &mut out).expect(SHAPES)
                });
                self.set("tensor.matmul_into.eval_gflops", gflops(eval_m, eval));
            }
        }
        self.set("tensor.naive_ratio", totals[1] / totals[0]);
    }

    /// `nn`: one training step, one fresh evaluation, parent averaging and
    /// the publish copy, with the allocations of the first two.
    pub fn nn(&mut self, factory: &ModelFactory, data: &ClientDataset, dag: &DagConfig, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = factory(&mut rng);
        let params = model.parameters();
        let other = factory(&mut rng).parameters();
        let batches = data.train_batches(dag.batch_size, dag.local_batches.max(1), &mut rng);
        let opt = SgdConfig::new(dag.learning_rate);
        let mut next = 0usize;
        let mut step = |model: &mut dyn Model| {
            let (x, y) = &batches[next % batches.len()];
            next += 1;
            model
                .train_batch(x, y, &opt)
                .expect("a training step on the client's own data")
        };
        let train = self.time("nn.train_batch", || step(model.as_mut()));
        self.set("nn.train_batch.us", train * 1e6);
        let (_, count) = alloc::counted(|| step(model.as_mut()));
        self.set("nn.train_batch.allocs", count.calls as f64);

        let mut scratch = EvalScratch::new();
        let (x, y) = (data.test_x(), data.test_y());
        let eval = self.time("nn.evaluate_flat_params", || {
            fresh_eval(model.as_mut(), &params, x, y, &mut scratch)
        });
        self.set("nn.evaluate_flat_params.us", eval * 1e6);
        let (_, count) = alloc::counted(|| fresh_eval(model.as_mut(), &params, x, y, &mut scratch));
        self.set("nn.evaluate_flat_params.allocs", count.calls as f64);

        let average = self.time("nn.average_parameters", || {
            average_parameters(&[&params, &other])
        });
        self.set("nn.average_parameters.us", average * 1e6);
        let copy = self.time("nn.parameters_copy", || model.parameters());
        self.set("nn.parameters_copy.us", copy * 1e6);
    }

    /// `tangle`: reads, walks, appends and exports of the sharded store at
    /// the size the run left it.
    pub fn tangle(&mut self, tangle: &ShardedModelTangle, dag: &DagConfig, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a6e);
        let (lo, hi) = dag.walk_depth;
        let starts: Vec<TxId> = (0..64)
            .map(|_| tangle.sample_walk_start(lo, hi, &mut rng))
            .collect();
        let (mut walks, mut steps, mut next) = (0usize, 0usize, 0usize);
        let walk = self.time("tangle.walk_uniform", || {
            let start = starts[next % starts.len()];
            next += 1;
            let result = RandomWalker::new()
                .walk(tangle, start, &mut UniformBias, &mut rng)
                .expect("a walk over a well-formed tangle");
            walks += 1;
            steps += result.steps;
        });
        self.set("tangle.walk_uniform.us", walk * 1e6);
        self.set("tangle.walk_uniform.steps", steps as f64 / walks as f64);
        let sample = self.time("tangle.sample_walk_start", || {
            tangle.sample_walk_start(lo, hi, &mut rng)
        });
        self.set("tangle.sample_walk_start.us", sample * 1e6);

        let len = tangle.len() as u64;
        let (mut parents, mut children) = (Vec::new(), Vec::new());
        let read = self.time("tangle.sharded.read", || {
            let id = TxId::from_index(rng.gen_range(0..len));
            let params = tangle.payload_of(id).map_or(0, |p| p.params().len());
            let _ = tangle.parents_into(id, &mut parents);
            let _ = tangle.children_into(id, &mut children);
            (params, tangle.is_tip(id))
        });
        // Four accessor calls per iteration.
        self.set("tangle.sharded.read.ns", read * 1e9 / 4.0);

        let attaches = (tangle.len() - 1).max(1);
        let replay = self.time("tangle.sharded.attach", || {
            let mut txs = tangle.iter();
            let genesis = txs.next().expect("a tangle has a genesis");
            let copy = ShardedModelTangle::new(genesis.payload().clone());
            for tx in txs {
                copy.attach_with_meta(tx.payload().clone(), tx.parents(), tx.issuer(), tx.round())
                    .expect("replaying a tangle in id order");
            }
            copy
        });
        self.set("tangle.sharded.attach.us", replay * 1e6 / attaches as f64);
        let stats = self.time("tangle.stats", || tangle.stats());
        self.set("tangle.stats.us", stats * 1e6);
        let snapshot = self.time("tangle.snapshot", || tangle.snapshot());
        self.set("tangle.snapshot.ms", snapshot * 1e3);
        let stats = tangle.stats();
        self.set("tangle.transactions", stats.transactions as f64);
        self.set("tangle.tips", stats.tips as f64);
        self.set("tangle.max_depth", f64::from(stats.max_depth));
    }

    /// `core.walk` / `core.evaluator`: one accuracy-biased walk with a
    /// cold and a warm cache, and a cache hit.
    pub fn walk(
        &mut self,
        factory: &ModelFactory,
        tangle: &ShardedModelTangle,
        data: &ClientDataset,
        dag: &DagConfig,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3a1c);
        let mut evaluator = ModelEvaluator::new(factory(&mut rng));
        let (mut walks, mut steps) = (0usize, 0usize);
        let before = evaluator.counters();
        let cold = self.time("core.walk.cold", || {
            evaluator.invalidate();
            let (_, n) = walk_once(&mut evaluator, &mut rng, tangle, data, dag)
                .expect("a walk over the run's own tangle");
            walks += 1;
            steps += n;
        });
        let fresh = evaluator.counters().since(before).fresh as f64 / walks as f64;
        self.set("core.walk.cold.us", cold * 1e6);
        self.set("core.walk.steps", steps as f64 / walks as f64);
        self.set("core.walk.fresh_evals", fresh);
        if let Some(eval_us) = self.metrics.get("nn.evaluate_flat_params.us") {
            self.set(
                "core.walk.overhead_share",
                1.0 - fresh * eval_us / (cold * 1e6),
            );
        }
        let mut tip = tangle.genesis();
        let warm = self.time("core.walk.warm", || {
            tip = walk_once(&mut evaluator, &mut rng, tangle, data, dag)
                .expect("a walk over the run's own tangle")
                .0;
        });
        self.set("core.walk.warm.us", warm * 1e6);
        let (x, y) = (data.test_x(), data.test_y());
        evaluator.score(tangle, tip, x, y);
        let hit = self.time("core.evaluator.score_cached", || {
            evaluator.score(tangle, tip, x, y)
        });
        self.set("core.evaluator.score_cached.ns", hit * 1e9);
    }

    /// `core.client`: whole activations through `DagClient::train_round`,
    /// then the same activations composed from public pieces with a span
    /// per step. Each client activates `per_client` times in a row on the
    /// final tangle: the first walk finds a cold cache, the rest a warm
    /// one, so `per_client = 1 / fresh_ratio` of the run gives the ladder's
    /// walks the share of cache hits the run's walks had.
    pub fn client(
        &mut self,
        factory: &ModelFactory,
        sim: &Sim,
        seed: u64,
        per_client: usize,
    ) -> Result<(), CoreError> {
        let (tangle, dag) = (sim.tangle(), *sim.dag());
        let clients = sim.dataset().clients();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc11e);
        let budget_s = self.rung_s * 4.0;

        let (mut rounds, mut reported, mut activations) = (Vec::new(), 0.0f64, 0usize);
        let started = Instant::now();
        for (index, data) in clients.iter().enumerate() {
            let mut client = DagClient::new(
                index as u32,
                factory(&mut rng),
                seed.wrapping_add(index as u64),
            );
            for _ in 0..per_client {
                let id = self
                    .tracer
                    .enter("core.client.train_round", activations as u64);
                let outcome = client.train_round(tangle, data, &dag)?;
                rounds.push(self.tracer.exit(id) as f64 / 1e9);
                reported += outcome.walk_duration.as_secs_f64();
                activations += 1;
            }
            if activations >= 8 && started.elapsed().as_secs_f64() > budget_s {
                break;
            }
        }
        self.set("core.client.train_round.p50_us", median(&rounds) * 1e6);
        self.set(
            "core.client.train_round.p99_us",
            quantile(&rounds, 0.99) * 1e6,
        );
        self.set(
            "core.client.walk_share_reported",
            reported / rounds.iter().sum::<f64>(),
        );

        let first_span = self.tracer.spans().len();
        for (index, data) in clients.iter().enumerate().take(activations / per_client) {
            let mut evaluator = ModelEvaluator::new(factory(&mut rng));
            let mut walk_rng = StdRng::seed_from_u64(seed.wrapping_add(index as u64));
            for turn in 0..per_client {
                let op = (per_client * index + turn) as u64;
                composed_activation(
                    self.tracer,
                    op,
                    &mut evaluator,
                    &mut walk_rng,
                    tangle,
                    data,
                    &dag,
                )?;
            }
        }
        let totals = self.tracer.totals_since(first_span);
        let whole = totals["core.client.activation"].total_ns as f64;
        for (metric, span) in CLIENT_SHARES {
            self.set(metric, totals[span].self_ns as f64 / whole);
        }
        Ok(())
    }

    /// `core.replica` / `core.registry`: in-order inserts, reverse-order
    /// delivery through the solidification buffer, digest and snapshot, on
    /// replicas that share one registry.
    pub fn replica(&mut self, genesis: &ModelPayload, messages: &[TxMessage]) {
        if messages.is_empty() {
            return;
        }
        let registry = SegmentRegistry::new();
        let fill = |registry: &SegmentRegistry| {
            let mut replica = Replica::with_registry(genesis.clone(), registry.clone());
            for message in messages {
                replica
                    .insert(message)
                    .expect("in-order insert of a tangle prefix");
            }
            replica
        };
        let insert = self.time("core.replica.insert", || fill(&SegmentRegistry::new()));
        self.set(
            "core.replica.insert.us",
            insert * 1e6 / messages.len() as f64,
        );

        let reordered = &messages[..messages.len().min(REORDERED_MESSAGES)];
        let apply = self.time("core.replica.apply_reordered", || {
            let mut replica = Replica::new(genesis.clone());
            let attached: usize = reordered
                .iter()
                .rev()
                .map(|message| replica.apply(vec![envelope(message)]))
                .sum();
            assert_eq!(attached, reordered.len(), "the buffer must drain");
            replica
        });
        self.set(
            "core.replica.apply_reordered.us",
            apply * 1e6 / reordered.len() as f64,
        );

        // Two replicas, one registry: the second attach of every record is
        // an `Arc` clone, which `records` makes visible.
        let replica = fill(&registry);
        black_box(fill(&registry));
        let digest = self.time("core.replica.digest", || replica.digest());
        self.set("core.replica.digest.ms", digest * 1e3);
        let nothing = HashSet::new();
        let snapshot = self.time("core.replica.snapshot_messages", || {
            replica.snapshot_messages(&nothing)
        });
        self.set("core.replica.snapshot_messages.ms", snapshot * 1e3);
        self.set("core.registry.records", registry.len() as f64);
        let floats: usize = genesis.len() + messages.iter().map(|m| m.params.len()).sum::<usize>();
        self.set("core.registry.payload_mb", (floats * 4) as f64 / 1e6);
    }

    /// `core.transport`: loopback broadcast and receive at the run's peer
    /// count and fan-out, and the cost of an inert fault decorator.
    pub fn transport(&mut self, scenario: &Scenario, peers: usize, message: &TxMessage, seed: u64) {
        let ExecutionSpec::Async { config, .. } = &scenario.execution else {
            return;
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57);
        let build = || {
            LoopbackTransport::new(config.delay, vec![false; peers])
                .with_fanout(config.gossip_fanout)
        };
        let gossip = GossipMessage::Transaction(message.clone());
        let mut from = 0usize;
        let mut plain = build();
        let broadcast = self.time("core.transport.loopback.broadcast", || {
            from = (from + 1) % peers;
            plain.broadcast(from, 0.0, gossip.clone(), &mut rng)
        });
        self.set("core.transport.loopback.broadcast.us", broadcast * 1e6);
        let mut faulty = FaultyTransport::new(build(), FaultPlan::default(), seed);
        let decorated = self.time("core.fault.decorated_broadcast", || {
            from = (from + 1) % peers;
            faulty.broadcast(from, 0.0, gossip.clone(), &mut rng)
        });
        self.set("core.fault.decorator_ratio", decorated / broadcast);

        // Receive with about three envelopes waiting per inbox, as in the
        // run (publications x fan-out / deliveries). Refills are untimed.
        let mut samples = [0.0f64; BATCHES];
        for (batch, sample) in samples.iter_mut().enumerate() {
            let mut transport = build();
            let fanout = config.gossip_fanout.clamp(1, peers - 1);
            for k in 0..(3 * peers).div_ceil(fanout) {
                transport
                    .broadcast(k % peers, 0.0, gossip.clone(), &mut rng)
                    .expect("loopback broadcast");
            }
            let id = self
                .tracer
                .enter("core.transport.loopback.receive", batch as u64);
            for peer in 0..peers {
                black_box(transport.receive(peer, f64::INFINITY));
            }
            *sample = self.tracer.exit(id) as f64 / 1e9 / peers as f64;
        }
        self.set("core.transport.loopback.receive.us", median(&samples) * 1e6);
    }

    /// `core.wire`: encode and decode of one `Transaction` frame carrying
    /// the workload's model.
    pub fn wire(&mut self, message: &TxMessage) {
        let wire = WireMessage::Transaction(message.clone());
        let frame = encode(&wire);
        let mb = frame.len() as f64 / 1e6;
        let encode_s = self.time("core.wire.encode", || encode(&wire));
        let decode_s = self.time("core.wire.decode", || decode(&frame));
        self.set("core.wire.encode.mb_s", mb / encode_s);
        self.set("core.wire.decode.mb_s", mb / decode_s);
        self.set("core.wire.frame_bytes", frame.len() as f64);
    }

    /// `datasets`: generation, size and mini-batch assembly.
    pub fn datasets(&mut self, scenario: &Scenario, dag: &DagConfig, seed: u64) {
        let build = self.time("datasets.build", || scenario.dataset.build());
        self.set("datasets.build.ms", build * 1e3);
        let dataset = scenario.dataset.build();
        let floats: usize = dataset
            .clients()
            .iter()
            .map(|c| c.train_x().len() + c.test_x().len())
            .sum();
        self.set("datasets.mb", (floats * 4) as f64 / 1e6);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a);
        let data = &dataset.clients()[0];
        let batches = self.time("datasets.train_batches", || {
            data.train_batches(dag.batch_size, dag.local_batches, &mut rng)
        });
        self.set("datasets.train_batches.us", batches * 1e6);
    }

    /// `graphs` / report-side `core`: the pieces of `report_s`.
    pub fn report(&mut self, sim: &Sim, seed: u64) {
        let (tangle, dataset) = (sim.tangle(), sim.dataset());
        let labels = dataset.cluster_labels();
        let clients = dataset.num_clients();
        let graph_s = self.time("graphs.client_graph", || client_graph_of(tangle, clients));
        self.set("graphs.client_graph.ms", graph_s * 1e3);
        let graph = client_graph_of(tangle, clients);
        let louvain_s = self.time("graphs.louvain", || {
            louvain(&graph, &mut StdRng::seed_from_u64(seed))
        });
        self.set("graphs.louvain.ms", louvain_s * 1e3);
        let pureness = self.time("core.approval_pureness", || {
            approval_pureness_of(tangle, &labels)
        });
        self.set("core.approval_pureness.ms", pureness * 1e3);
        let digest = self.time("core.tangle_digest", || tangle_digest(tangle));
        self.set("core.tangle_digest.ms", digest * 1e3);
    }

    /// `analysis`: k-means over every client's reference model and the
    /// full analytics snapshot (rounds mode only: it needs
    /// `Simulation::reference_parameters`).
    pub fn analysis(&mut self, sim: &mut Simulation, seed: u64) -> Result<(), CoreError> {
        let points = sim.reference_parameters()?;
        let graph = sim.client_graph();
        let truth = sim.dataset().cluster_labels();
        let k = sim.dataset().clusters().len().max(2);
        let config = AnalysisConfig {
            k: KSelection::Fixed(k),
            source: AnalysisSource::Both,
            seed,
        };
        let kmeans = self.time("analysis.kmeans", || {
            dagfl::kmeans(
                &points,
                &KMeansConfig {
                    k,
                    seed,
                    ..KMeansConfig::default()
                },
            )
        });
        self.set("analysis.kmeans.ms", kmeans * 1e3);
        let analyze = self.time("analysis.analyze", || {
            dagfl::analyze(sim.round(), Some(&points), Some(&graph), &truth, &config)
        });
        self.set("analysis.analyze.ms", analyze * 1e3);
        Ok(())
    }

    /// `scenario`: parsing a workload file.
    pub fn scenario(&mut self, text: &str) {
        let parse = self.time("scenario.from_toml", || Scenario::from_toml(text));
        self.set("scenario.from_toml.us", parse * 1e6);
    }
}

/// A transaction carrying `params`, approving the genesis.
pub fn sample_message(params: Arc<Vec<f32>>) -> TxMessage {
    TxMessage {
        id: 1,
        parents: vec![0],
        params,
        issuer: Some(0),
        round: 0,
    }
}
