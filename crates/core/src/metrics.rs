//! Per-round and specialization metrics.

use dagfl_tangle::{TangleRead, TxId};
use dagfl_tensor::fan_out;
use std::convert::Infallible;
use std::ops::Range;
use std::time::Duration;

use crate::fanout::machine_workers;
use crate::graph::Graph;
use crate::{CoreError, ModelPayload, ShardedModelTangle};

/// Builds the derived client graph `G_clients` (§4.3) from a tangle: the
/// edge weight between two clients is the number of direct approvals
/// between their transactions, in either direction. Genesis approvals and
/// self-approvals are skipped.
///
/// Generic over the storage backend; for the simulators' hot paths the
/// graph is maintained incrementally (see [`ClientGraphTracker`]) and this
/// full re-scan doubles as the regression oracle.
pub fn client_graph_of<T: TangleRead<ModelPayload>>(tangle: &T, num_clients: usize) -> Graph {
    let mut graph = Graph::new(num_clients);
    let mut parents = Vec::new();
    for index in 0..tangle.len() as u64 {
        let id = TxId::from_index(index);
        let Ok(Some(a)) = tangle.issuer_of(id) else {
            continue;
        };
        if tangle.parents_into(id, &mut parents).is_err() {
            continue;
        }
        for &parent in &parents {
            let Ok(Some(b)) = tangle.issuer_of(parent) else {
                continue;
            };
            if a != b {
                graph.add_edge(a as usize, b as usize, 1.0);
            }
        }
    }
    graph
}

/// The approval pureness (Table 2) of a tangle: the fraction of approval
/// edges whose endpoints were published by clients of the same
/// ground-truth cluster. Returns 1.0 when no qualifying approvals exist.
pub fn approval_pureness_of<T: TangleRead<ModelPayload>>(tangle: &T, clusters: &[usize]) -> f64 {
    let mut total = 0usize;
    let mut pure = 0usize;
    let mut parents = Vec::new();
    for index in 0..tangle.len() as u64 {
        let id = TxId::from_index(index);
        let Ok(Some(a)) = tangle.issuer_of(id) else {
            continue;
        };
        if tangle.parents_into(id, &mut parents).is_err() {
            continue;
        }
        for &parent in &parents {
            let Ok(Some(b)) = tangle.issuer_of(parent) else {
                continue;
            };
            total += 1;
            if clusters[a as usize] == clusters[b as usize] {
                pure += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        pure as f64 / total as f64
    }
}

/// The FNV-1a 64-bit offset basis: the state of a hash over no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over a sequence of little-endian `u64` words.
pub(crate) fn fnv_mix(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h = (*h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
}

/// How many interleaved FNV-1a chains [`weights_hash`] runs: weight `i`
/// goes to lane `i % 8`.
const LANES: usize = 8;

/// The content hash of a weight vector: eight interleaved FNV-1a lanes,
/// each taking a whole weight's bits per step, folded with [`fnv_mix`]
/// after the length.
///
/// Each lane advances by one xor and one multiply per weight, and the
/// eight are independent, so a lone payload hashes at multiply
/// throughput, not latency. Integers only: the value does not depend
/// on the platform, the core count or how payloads are grouped.
pub(crate) fn weights_hash(weights: &[f32]) -> u64 {
    let mut lanes = [FNV_OFFSET; LANES];
    let mut steps = weights.chunks_exact(LANES);
    for step in &mut steps {
        for (lane, w) in lanes.iter_mut().zip(step) {
            *lane = (*lane ^ u64::from(w.to_bits())).wrapping_mul(FNV_PRIME);
        }
    }
    for (lane, w) in lanes.iter_mut().zip(steps.remainder()) {
        *lane = (*lane ^ u64::from(w.to_bits())).wrapping_mul(FNV_PRIME);
    }
    let mut h = FNV_OFFSET;
    fnv_mix(&mut h, weights.len() as u64);
    for lane in lanes {
        fnv_mix(&mut h, lane);
    }
    h
}

/// The fewest weights a fan-out job of [`payload_hashes`] carries. A
/// job takes payloads until it holds at least this many; the last job
/// takes what is left. 2¹⁶ weights are tens of microseconds of hashing
/// on one x86-64 core, above the thread spawn a second worker costs,
/// and small enough that a 100-transaction tangle of 5,000-weight
/// models still splits into several jobs.
const HASH_JOB_WEIGHTS: usize = 1 << 16;

/// The payload ranges of [`payload_hashes`]' jobs, in order: every job
/// but the last holds at least [`HASH_JOB_WEIGHTS`] weights. No payloads
/// make no job.
fn hash_jobs(payloads: &[&ModelPayload]) -> Vec<Range<usize>> {
    let mut jobs = Vec::new();
    let (mut start, mut weights) = (0, 0);
    for (end, payload) in (1..).zip(payloads) {
        weights += payload.len();
        if weights >= HASH_JOB_WEIGHTS {
            jobs.push(start..end);
            (start, weights) = (end, 0);
        }
    }
    if start < payloads.len() {
        jobs.push(start..payloads.len());
    }
    jobs
}

/// [`ModelPayload::weights_hash`] of every payload, in order. The jobs
/// of [`hash_jobs`] fan out over the machine's cores; payloads that
/// fill one job hash inline, with no thread.
pub(crate) fn payload_hashes(payloads: &[&ModelPayload]) -> Vec<u64> {
    let jobs = hash_jobs(payloads)
        .into_iter()
        .map(|range| &payloads[range]);
    let Ok(hashes) = fan_out(machine_workers(), jobs, |_, payloads| {
        Ok::<_, Infallible>(
            payloads
                .iter()
                .map(|p| p.weights_hash())
                .collect::<Vec<_>>(),
        )
    });
    hashes.concat()
}

/// A deterministic digest of a tangle's full contents — parameter bits,
/// issuers, rounds and the approval structure — for cheap equality
/// checks between runs (e.g. `--jobs 1` vs `--jobs N`, or any two
/// worker counts of the async event loop).
///
/// The digest is *content-addressed*: each transaction hashes to an
/// FNV-1a over its own weights hash, issuer and round plus an
/// order-independent combination of its parents' content hashes, and
/// the per-transaction hashes are summed with wrapping addition. Dense
/// ids never enter the hash, so the digest is independent of the
/// storage backend, the iteration order *and the insertion order* — any
/// two dependency-respecting interleavings of the same transactions
/// agree (up to hash collisions).
///
/// The weights go through one word-wise hash, in jobs sized by weight
/// volume: a tangle whose weights fill several jobs hashes on every
/// core, and one that fills a single job hashes inline. A retired
/// payload is not rehashed: it kept its finished weights hash.
pub fn tangle_digest<T: TangleRead<ModelPayload>>(tangle: &T) -> u64 {
    let len = tangle.len();
    // Pass 1: per-transaction content hashes (weights, issuer, round).
    let mut content = vec![FNV_OFFSET; len];
    let (mut present, mut payloads) = (Vec::new(), Vec::new());
    for index in 0..len {
        if let Ok(payload) = tangle.payload_of(TxId::from_index(index as u64)) {
            present.push(index);
            payloads.push(payload);
        }
    }
    for (index, hash) in present.into_iter().zip(payload_hashes(&payloads)) {
        content[index] = hash;
    }
    for (index, h) in content.iter_mut().enumerate() {
        let id = TxId::from_index(index as u64);
        if let Ok(issuer) = tangle.issuer_of(id) {
            fnv_mix(h, issuer.map_or(u64::MAX, u64::from));
        }
        if let Ok(round) = tangle.round_of(id) {
            fnv_mix(h, u64::from(round));
        }
    }
    // Pass 2: fold in the approval structure. Parents always precede
    // children (the `TangleRead` contract), so their content hashes are
    // ready; combining them by wrapping sum keeps the digest independent
    // of parent order within a transaction.
    let mut digest = 0u64;
    let mut parents = Vec::new();
    for index in 0..len as u64 {
        let id = TxId::from_index(index);
        let mut h = content[index as usize];
        if tangle.parents_into(id, &mut parents).is_ok() {
            fnv_mix(&mut h, parents.len() as u64);
            let mut combined = 0u64;
            for parent in &parents {
                combined = combined.wrapping_add(content[parent.index() as usize]);
            }
            fnv_mix(&mut h, combined);
        }
        digest = digest.wrapping_add(h);
    }
    digest
}

/// Newman–Girvan modularity of a partition, in `[-1/2, 1]`.
///
/// Uses the community form `Q = Σ_C [Σ_in(C)/(2m) − (Σ_tot(C)/(2m))²]`,
/// where `Σ_in(C)` counts intra-community adjacency in both directions
/// (self-loops twice), `Σ_tot(C)` is the summed weighted degree and `m` the
/// total edge weight. Each community's sums run over its nodes and their
/// neighbours in ascending id, and the per-community terms are summed in
/// ascending label order, so the same graph and partition give the same
/// bits on every call, for any finite weights.
///
/// Returns `0.0` for an edgeless graph (no structure to measure).
///
/// # Panics
///
/// Panics if `partition.len() != graph.num_nodes()`.
pub fn modularity(graph: &Graph, partition: &[usize]) -> f64 {
    assert_eq!(
        partition.len(),
        graph.num_nodes(),
        "partition must label every node"
    );
    let m = graph.total_weight();
    if m <= 0.0 {
        return 0.0;
    }
    let two_m = 2.0 * m;
    // Labels in ascending order; a node's community is its label's rank.
    let mut labels = partition.to_vec();
    labels.sort_unstable();
    labels.dedup();
    let rank: Vec<usize> = partition
        .iter()
        .map(|label| labels.partition_point(|l| l < label))
        .collect();
    // `Σ_in` and `Σ_tot` per community.
    let mut inner = vec![0.0; labels.len()];
    let mut total = vec![0.0; labels.len()];
    for node in 0..graph.num_nodes() {
        let c = rank[node];
        total[c] += graph.degree(node);
        inner[c] += 2.0 * graph.loop_weight(node);
        for (neighbor, w) in graph.neighbors(node) {
            if rank[neighbor] == c {
                // Each intra edge is visited from both endpoints, which
                // yields the required double counting.
                inner[c] += w;
            }
        }
    }
    inner.iter().zip(&total).fold(0.0, |q, (&inn, &tot)| {
        q + (inn / two_m - (tot / two_m) * (tot / two_m))
    })
}

/// Number of distinct labels in a partition.
pub fn partition_count(partition: &[usize]) -> usize {
    let mut labels: Vec<usize> = partition.to_vec();
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

/// Renumbers partition labels to the dense range `0..k`, preserving the
/// order of first appearance.
pub fn compact_labels(partition: &[usize]) -> Vec<usize> {
    // Labels in ascending order; a label's rank indexes its new id, which
    // is handed out on first appearance.
    let mut labels = partition.to_vec();
    labels.sort_unstable();
    labels.dedup();
    let mut ids = vec![usize::MAX; labels.len()];
    let mut next = 0;
    partition
        .iter()
        .map(|label| {
            let id = &mut ids[labels.partition_point(|l| l < label)];
            if *id == usize::MAX {
                *id = next;
                next += 1;
            }
            *id
        })
        .collect()
}

/// How many members share their group's most common ground-truth label,
/// summed over the groups of `partition`: the correctly classified
/// members of [`misclassification_fraction`] and the credited points of
/// cluster purity.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn majority_count(partition: &[usize], truth: &[usize]) -> usize {
    assert_eq!(
        partition.len(),
        truth.len(),
        "label slices differ in length"
    );
    // Sorted `(group, truth)` pairs: each group is one run, and each of
    // its ground-truth labels a run within it.
    let mut pairs: Vec<(usize, usize)> = partition
        .iter()
        .copied()
        .zip(truth.iter().copied())
        .collect();
    pairs.sort_unstable();
    let (mut total, mut best, mut run) = (0, 0, 0);
    for (i, &pair) in pairs.iter().enumerate() {
        let previous = i.checked_sub(1).map(|j| pairs[j]);
        if previous.map_or(true, |(group, _)| group != pair.0) {
            total += best;
            best = 0;
        }
        run = if previous == Some(pair) { run + 1 } else { 1 };
        best = best.max(run);
    }
    total + best
}

/// The paper's misclassification fraction (§4.3): the fraction of clients
/// that ended up in a partition whose relative majority belongs to a
/// different ground-truth cluster.
///
/// Returns `0.0` for empty input.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn misclassification_fraction(partition: &[usize], truth: &[usize]) -> f64 {
    let n = partition.len();
    if n == 0 {
        return 0.0;
    }
    (n - majority_count(partition, truth)) as f64 / n as f64
}

/// Incrementally-maintained client graph and pureness counters: the
/// adjacency that [`client_graph_of`] and [`approval_pureness_of`] derive
/// by re-scanning the whole tangle, updated in `O(parents)` per published
/// transaction instead.
///
/// Both simulators record every attached transaction here at publish
/// time; the full re-scans stay available as regression oracles.
#[derive(Debug, Clone)]
pub struct ClientGraphTracker {
    graph: Graph,
    clusters: Vec<usize>,
    approvals: usize,
    pure_approvals: usize,
}

impl ClientGraphTracker {
    /// An empty tracker for `clusters.len()` clients with the given
    /// ground-truth cluster labels.
    pub fn new(clusters: Vec<usize>) -> Self {
        Self {
            graph: Graph::new(clusters.len()),
            clusters,
            approvals: 0,
            pure_approvals: 0,
        }
    }

    /// Records transaction `id` of `tangle`, right after its attach: its
    /// issuer approving the issuers of the parents the store kept, so a
    /// duplicate parent counts once, as in a full re-scan. A transaction
    /// or parent without an issuer (the genesis) adds no approval.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tangle`] if `id` or one of its parents is not
    /// in `tangle`.
    pub fn record_attached(
        &mut self,
        tangle: &ShardedModelTangle,
        id: TxId,
    ) -> Result<(), CoreError> {
        let tx = tangle.get(id)?;
        let Some(issuer) = tx.issuer() else {
            return Ok(());
        };
        for &parent in tx.parents() {
            let Some(parent) = tangle.get(parent)?.issuer() else {
                continue;
            };
            self.approvals += 1;
            if self.clusters[issuer as usize] == self.clusters[parent as usize] {
                self.pure_approvals += 1;
            }
            if parent != issuer {
                self.graph.add_edge(issuer as usize, parent as usize, 1.0);
            }
        }
        Ok(())
    }

    /// The derived client graph accumulated so far.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The approval pureness accumulated so far (1.0 when no qualifying
    /// approvals exist, matching [`approval_pureness_of`]).
    pub fn approval_pureness(&self) -> f64 {
        if self.approvals == 0 {
            1.0
        } else {
            self.pure_approvals as f64 / self.approvals as f64
        }
    }
}

/// Aggregated metrics of one simulation round.
#[derive(Debug, Clone)]
pub struct RoundMetrics {
    /// Round index (0-based).
    pub round: usize,
    /// Ids of the clients active in this round.
    pub active_clients: Vec<u32>,
    /// How many of them published a transaction.
    pub published: usize,
    /// Post-training accuracy of each active client on its local test data
    /// (the quantity plotted in Figures 6–10).
    pub accuracies: Vec<f32>,
    /// Post-training loss of each active client.
    pub losses: Vec<f32>,
    /// Reference (averaged-parents) accuracy of each active client before
    /// training.
    pub reference_accuracies: Vec<f32>,
    /// Mean wall-clock duration of tip selection per active client
    /// (Figure 15).
    pub mean_walk_duration: Duration,
    /// Total candidates offered across all active clients' walks (see
    /// [`dagfl_tangle::WalkResult::candidates_evaluated`]).
    pub candidates_evaluated: usize,
    /// Total walk steps across all active clients.
    pub walk_steps: usize,
    /// Candidate evaluations that ran a real forward pass this round
    /// (walks and publish gates of all active clients).
    pub fresh_evaluations: usize,
    /// Candidate evaluations answered from per-client accuracy caches.
    pub cached_evaluations: usize,
}

impl RoundMetrics {
    /// Mean post-training accuracy over the active clients.
    pub fn mean_accuracy(&self) -> f32 {
        mean(&self.accuracies)
    }

    /// Mean post-training loss over the active clients.
    pub fn mean_loss(&self) -> f32 {
        mean(&self.losses)
    }
}

fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f32>() / values.len() as f32
}

/// The §4.3 specialization metrics of the derived client graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecializationMetrics {
    /// Newman modularity of the Louvain partition of `G_clients`.
    pub modularity: f64,
    /// Number of Louvain partitions (Figure 5b).
    pub partitions: usize,
    /// Misclassification fraction against the ground-truth clusters
    /// (Figure 5c).
    pub misclassification: f64,
    /// Approval pureness: fraction of approvals that stay within one
    /// ground-truth cluster (Table 2).
    pub approval_pureness: f64,
    /// The Louvain community label per client (for Figure 14-style
    /// analyses).
    pub partition: Vec<usize>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fanout::tests::with_workers;
    use crate::ShardedModelTangle;

    /// A plain serial reference of [`weights_hash`]: one weight at a
    /// time, into lane `i % 8`.
    pub(crate) fn serial_weights_hash(weights: &[f32]) -> u64 {
        let mut lanes = [FNV_OFFSET; LANES];
        for (i, w) in weights.iter().enumerate() {
            let lane = &mut lanes[i % LANES];
            *lane = (*lane ^ u64::from(w.to_bits())).wrapping_mul(FNV_PRIME);
        }
        let mut h = FNV_OFFSET;
        fnv_mix(&mut h, weights.len() as u64);
        for lane in lanes {
            fnv_mix(&mut h, lane);
        }
        h
    }

    /// The serial two-pass digest: the oracle of [`tangle_digest`].
    fn serial_tangle_digest<T: TangleRead<ModelPayload>>(tangle: &T) -> u64 {
        let len = tangle.len();
        let mut content = vec![0u64; len];
        for index in 0..len as u64 {
            let id = TxId::from_index(index);
            let mut h = FNV_OFFSET;
            if let Ok(payload) = tangle.payload_of(id) {
                h = serial_weights_hash(payload.params());
            }
            if let Ok(issuer) = tangle.issuer_of(id) {
                fnv_mix(&mut h, issuer.map_or(u64::MAX, u64::from));
            }
            if let Ok(round) = tangle.round_of(id) {
                fnv_mix(&mut h, u64::from(round));
            }
            content[index as usize] = h;
        }
        let mut digest = 0u64;
        let mut parents = Vec::new();
        for index in 0..len as u64 {
            let id = TxId::from_index(index);
            let mut h = content[index as usize];
            if tangle.parents_into(id, &mut parents).is_ok() {
                fnv_mix(&mut h, parents.len() as u64);
                let mut combined = 0u64;
                for parent in &parents {
                    combined = combined.wrapping_add(content[parent.index() as usize]);
                }
                fnv_mix(&mut h, combined);
            }
            digest = digest.wrapping_add(h);
        }
        digest
    }

    /// The oracle tests' two payload sets: 300 payloads of 0 to 17
    /// weights, every remainder of the lanes, in one job; and lengths
    /// that fill three and a half jobs, long payloads of a sixteenth of
    /// a job plus three among short ones.
    pub(crate) fn one_and_multi_job_lengths() -> [Vec<usize>; 2] {
        let one = (0..300).map(|i| i % 18).collect();
        let long = HASH_JOB_WEIGHTS / 16 + 3;
        let mut multi = Vec::new();
        let mut total = 0;
        while total < 7 * HASH_JOB_WEIGHTS / 2 {
            let len = [0, 1, 7, 8, 9, long][multi.len() % 6];
            total += len;
            multi.push(len);
        }
        [one, multi]
    }

    /// Asserts that `payloads` make one job, or at least three if
    /// `multi`.
    pub(crate) fn assert_jobs(payloads: &[&ModelPayload], multi: bool) {
        let jobs = hash_jobs(payloads).len();
        assert!(if multi { jobs >= 3 } else { jobs == 1 }, "{jobs} jobs");
    }

    /// `len` weights seeded by `payload`.
    fn weights(payload: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|j| (payload * 1000 + j) as f32 * 0.37 - 11.0)
            .collect()
    }

    /// Asserts that [`payload_hashes`] of `payloads` equals the serial
    /// reference at 1, 2 and 3 workers.
    fn assert_matches_serial(payloads: &[ModelPayload]) {
        let views: Vec<&ModelPayload> = payloads.iter().collect();
        let expected: Vec<u64> = payloads
            .iter()
            .map(|p| serial_weights_hash(p.params()))
            .collect();
        for workers in [1, 2, 3] {
            let hashes = with_workers(workers, || payload_hashes(&views));
            let count = payloads.len();
            assert_eq!(hashes, expected, "{count} payloads, {workers} workers");
        }
    }

    #[test]
    fn payload_hashes_match_the_serial_reference() {
        for (lengths, multi) in one_and_multi_job_lengths().iter().zip([false, true]) {
            let payloads: Vec<ModelPayload> = (0..)
                .zip(lengths)
                .map(|(i, &len)| ModelPayload::new(weights(i, len)))
                .collect();
            assert_jobs(&payloads.iter().collect::<Vec<_>>(), multi);
            assert_matches_serial(&payloads);
        }
        assert!(payload_hashes(&[]).is_empty());
    }

    #[test]
    fn hash_jobs_cut_at_the_first_payload_past_the_volume() {
        // Four payloads fall four weights short, so each job takes five,
        // and the last the one left over.
        let payload = ModelPayload::new(vec![0.0; HASH_JOB_WEIGHTS / 4 - 1]);
        let payloads = vec![&payload; 11];
        assert_eq!(hash_jobs(&payloads), [0..5, 5..10, 10..11]);
        assert!(hash_jobs(&[]).is_empty());
    }

    proptest::proptest! {
        /// Flipping any one bit of any weight changes the hash, and so
        /// does swapping two weights of different bits, in one lane or
        /// in two.
        #[test]
        fn weights_hash_sees_every_bit_and_the_order(
            (bits, at, other, bit) in (
                proptest::collection::vec(proptest::prelude::any::<u32>(), 1..=40),
                proptest::prelude::any::<usize>(),
                proptest::prelude::any::<usize>(),
                0..32u32,
            ),
        ) {
            let mut weights: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let (at, other) = (at % weights.len(), other % weights.len());
            let hash = weights_hash(&weights);
            proptest::prop_assert_eq!(hash, serial_weights_hash(&weights));
            weights[at] = f32::from_bits(bits[at] ^ (1 << bit));
            proptest::prop_assert_ne!(weights_hash(&weights), hash);
            weights[at] = f32::from_bits(bits[at]);
            if bits[at] != bits[other] {
                weights.swap(at, other);
                proptest::prop_assert_ne!(weights_hash(&weights), hash);
            }
        }

        /// The fan-out equals the serial reference over any split: 0 to
        /// 4 jobs' worth of weights, in payloads of one length or of
        /// random lengths up to `max_len`, at 1, 2 and 3 workers.
        #[test]
        fn weights_hashes_match_the_serial_reference_at_every_split(
            (volume, max_len, equal, seed) in (
                0..=4 * HASH_JOB_WEIGHTS,
                0..=HASH_JOB_WEIGHTS / 8,
                proptest::prelude::any::<bool>(),
                proptest::prelude::any::<u64>(),
            ),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mean = if equal { max_len } else { max_len / 2 };
            let payloads: Vec<ModelPayload> = (0..volume / mean.max(1))
                .map(|i| {
                    let len = if equal { max_len } else { rng.gen_range(0..=max_len) };
                    ModelPayload::new(weights(i, len))
                })
                .collect();
            assert_matches_serial(&payloads);
        }
    }

    #[test]
    fn tangle_digest_matches_the_byte_serial_oracle() {
        for (lengths, multi) in one_and_multi_job_lengths().iter().zip([false, true]) {
            let tangle = ShardedModelTangle::new(ModelPayload::new(weights(0, lengths[0])));
            let mut ids = vec![tangle.genesis()];
            for (i, &len) in lengths.iter().enumerate().skip(1) {
                let payload = ModelPayload::new(weights(i, len));
                let parents = [ids[i / 2], ids[i - 1]];
                let id = tangle
                    .attach_with_meta(payload, &parents, Some((i % 5) as u32), i as u32)
                    .expect("parents exist");
                ids.push(id);
            }
            let payloads: Vec<ModelPayload> =
                tangle.iter().map(|tx| tx.payload().clone()).collect();
            assert_jobs(&payloads.iter().collect::<Vec<_>>(), multi);
            let oracle = serial_tangle_digest(&tangle);
            for workers in [1, 2, 3] {
                assert_eq!(
                    with_workers(workers, || tangle_digest(&tangle)),
                    oracle,
                    "{} payloads, {workers} workers",
                    lengths.len()
                );
            }
        }
    }

    fn metrics(accs: Vec<f32>, losses: Vec<f32>) -> RoundMetrics {
        RoundMetrics {
            round: 0,
            active_clients: vec![],
            published: 0,
            accuracies: accs,
            losses,
            reference_accuracies: vec![],
            mean_walk_duration: Duration::ZERO,
            candidates_evaluated: 0,
            walk_steps: 0,
            fresh_evaluations: 0,
            cached_evaluations: 0,
        }
    }

    #[test]
    fn means_are_computed() {
        let m = metrics(vec![0.5, 1.0], vec![2.0, 4.0]);
        assert!((m.mean_accuracy() - 0.75).abs() < 1e-6);
        assert!((m.mean_loss() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_means_are_zero() {
        let m = metrics(vec![], vec![]);
        assert_eq!(m.mean_accuracy(), 0.0);
        assert_eq!(m.mean_loss(), 0.0);
    }

    /// Two disjoint triangles.
    fn two_triangles() -> Graph {
        let mut g = Graph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(a, b, 1.0);
        }
        g
    }

    #[test]
    fn modularity_of_perfect_split_is_half() {
        // Two disconnected communities of equal weight: Q = 1/2.
        let g = two_triangles();
        let q = modularity(&g, &[0, 0, 0, 1, 1, 1]);
        assert!((q - 0.5).abs() < 1e-9, "expected 0.5, got {q}");
    }

    #[test]
    fn modularity_of_single_community_is_zero() {
        let g = two_triangles();
        let q = modularity(&g, &[0; 6]);
        assert!(q.abs() < 1e-9);
    }

    #[test]
    fn modularity_of_singletons_is_negative() {
        let g = two_triangles();
        let q = modularity(&g, &[0, 1, 2, 3, 4, 5]);
        assert!(q < 0.0);
    }

    #[test]
    fn modularity_bounds_hold() {
        let g = two_triangles();
        for partition in [
            vec![0, 0, 0, 1, 1, 1],
            vec![0, 1, 0, 1, 0, 1],
            vec![0, 0, 1, 1, 2, 2],
        ] {
            let q = modularity(&g, &partition);
            assert!((-0.5..=1.0).contains(&q), "q = {q} out of bounds");
        }
    }

    #[test]
    fn modularity_of_edgeless_graph_is_zero() {
        let g = Graph::new(3);
        assert_eq!(modularity(&g, &[0, 1, 2]), 0.0);
    }

    #[test]
    fn modularity_with_self_loop_matches_hand_computation() {
        // One edge (0,1,w=1) and a self-loop at 2 (w=1): m = 2.
        // Partition all separate: k = [1, 1, 2].
        // Q = (0/4 - (1/4)^2) * 2 + (2/4 - (2/4)^2) = -2/16 + 1/4 = 0.125.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 2, 1.0);
        let q = modularity(&g, &[0, 1, 2]);
        assert!((q - 0.125).abs() < 1e-9, "got {q}");
    }

    #[test]
    #[should_panic(expected = "every node")]
    fn modularity_rejects_short_partition() {
        let g = two_triangles();
        modularity(&g, &[0, 0]);
    }

    #[test]
    fn partition_count_counts_distinct() {
        assert_eq!(partition_count(&[3, 3, 7, 1]), 3);
        assert_eq!(partition_count(&[]), 0);
    }

    #[test]
    fn compact_labels_preserves_structure() {
        let compact = compact_labels(&[9, 4, 9, 2]);
        assert_eq!(compact, vec![0, 1, 0, 2]);
    }

    #[test]
    fn majority_labels_finds_relative_majority() {
        // Group 0 = {7, 7, 8} credits its two 7s, group 1 = {9, 9} both.
        assert_eq!(majority_count(&[0, 0, 0, 1, 1], &[7, 7, 8, 9, 9]), 4);
        // A tie credits one side of it.
        assert_eq!(majority_count(&[0, 0], &[1, 2]), 1);
        assert_eq!(majority_count(&[], &[]), 0);
    }

    #[test]
    fn misclassification_fraction_perfect_partition() {
        let partition = [0, 0, 1, 1];
        let truth = [5, 5, 6, 6];
        assert_eq!(misclassification_fraction(&partition, &truth), 0.0);
    }

    #[test]
    fn misclassification_fraction_counts_minority_members() {
        // Group 0 = {A, A, B}: B is misclassified. Group 1 = {B}: fine.
        let partition = [0, 0, 0, 1];
        let truth = [0, 0, 1, 1];
        assert!((misclassification_fraction(&partition, &truth) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn misclassification_fraction_empty_is_zero() {
        assert_eq!(misclassification_fraction(&[], &[]), 0.0);
    }

    #[test]
    fn misclassification_merged_clusters_penalised() {
        // All clients in one partition but two ground-truth clusters of
        // unequal size: the minority cluster is fully misclassified.
        let partition = [0, 0, 0, 0, 0];
        let truth = [1, 1, 1, 2, 2];
        assert!((misclassification_fraction(&partition, &truth) - 0.4).abs() < 1e-9);
    }
}
