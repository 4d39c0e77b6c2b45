//! Per-round and specialization metrics.

use dagfl_tangle::{TangleRead, TxId};
use std::collections::HashMap;
use std::convert::Infallible;
use std::time::Duration;

use crate::fanout::{fan_out, machine_workers};
use crate::graph::Graph;
use crate::ModelPayload;

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

/// Payloads per fan-out job of [`fnv_weights`]: enough weights that a
/// job dwarfs handing it out, few enough that the jobs balance.
const FNV_JOB: usize = 256;

/// Advances each `states[i]` by [`fnv_mix`] of every weight of
/// `payloads[i]`, the weight's bits widened to `u64` — bit for bit what
/// the byte-serial loop computes.
///
/// FNV-1a is one chain of dependent multiplies per payload, so a serial
/// loop waits on multiply latency. Here four payloads' chains advance
/// per step over their common prefix (each tail then runs alone), and
/// jobs of [`FNV_JOB`] payloads fan out over the machine's cores. Every
/// chain still sees the same bytes in the same order, so the states do
/// not depend on the grouping or the worker count.
///
/// # Panics
///
/// Panics if `states` and `payloads` differ in length.
pub(crate) fn fnv_weights(states: &mut [u64], payloads: &[&[f32]]) {
    assert_eq!(states.len(), payloads.len(), "one state per payload");
    let jobs = states.chunks_mut(FNV_JOB).zip(payloads.chunks(FNV_JOB));
    let Ok(_) = fan_out(machine_workers(), jobs, |_, (states, payloads)| {
        let mut quads = states.chunks_exact_mut(4).zip(payloads.chunks_exact(4));
        for (states, payloads) in &mut quads {
            let states: &mut [u64; 4] = states.try_into().expect("chunks of four");
            fnv_four(states, [payloads[0], payloads[1], payloads[2], payloads[3]]);
        }
        let tail = states.len() / 4 * 4;
        for (state, payload) in states[tail..].iter_mut().zip(&payloads[tail..]) {
            fnv_serial(state, payload);
        }
        Ok::<_, Infallible>(())
    });
}

/// Four chains, one weight of each per step, then each chain's tail.
///
/// Kept out of line. Whether LLVM inlines it into [`fnv_weights`] turns
/// on unrelated code in this module, and where it did, `rounds-poets`
/// `report_s` (almost all digest) read 4–6 % slower in 16 alternating
/// benchmark pairs on a 2-vCPU x86-64 VM.
#[inline(never)]
fn fnv_four(states: &mut [u64; 4], payloads: [&[f32]; 4]) {
    let common = payloads.iter().map(|p| p.len()).min().unwrap_or(0);
    let mut h = *states;
    // Indexing each whole payload keeps the four chains scalar. Slicing
    // them to `common` first lets LLVM pack the chains into one AVX2
    // vector, which has no 64-bit multiply: that measured twice as slow.
    for i in 0..common {
        for (h, payload) in h.iter_mut().zip(payloads) {
            fnv_weight(h, payload[i]);
        }
    }
    for ((state, h), payload) in states.iter_mut().zip(h).zip(payloads) {
        *state = h;
        fnv_serial(state, &payload[common..]);
    }
}

fn fnv_serial(state: &mut u64, weights: &[f32]) {
    for &w in weights {
        fnv_weight(state, w);
    }
}

/// [`fnv_mix`] of one weight widened to `u64`. The four high bytes are
/// zero, so their four xor-multiply steps are one multiply by the prime's
/// fourth power — wrapping multiplication is associative, so the state
/// is the same.
#[inline(always)]
fn fnv_weight(h: &mut u64, w: f32) {
    const PRIME_POW4: u64 = FNV_PRIME
        .wrapping_mul(FNV_PRIME)
        .wrapping_mul(FNV_PRIME)
        .wrapping_mul(FNV_PRIME);
    for byte in w.to_bits().to_le_bytes() {
        *h = (*h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    *h = h.wrapping_mul(PRIME_POW4);
}

/// A deterministic digest of a tangle's full contents — parameter bits,
/// issuers, rounds and the approval structure — for cheap equality
/// checks between runs (e.g. `--jobs 1` vs `--jobs N`, or any two
/// worker counts of the async event loop).
///
/// The digest is *content-addressed*: each transaction hashes to an
/// FNV-1a over its own payload/issuer/round plus an order-independent
/// combination of its parents' content hashes, and the per-transaction
/// hashes are summed with wrapping addition. Dense ids never enter the
/// hash, so the digest is independent of the storage backend, the
/// iteration order *and the insertion order* — any two
/// dependency-respecting interleavings of the same transactions agree
/// (up to hash collisions).
///
/// The payloads are hashed four chains at a time, on every core, which
/// yields the same value as byte-serial FNV-1a.
pub fn tangle_digest<T: TangleRead<ModelPayload>>(tangle: &T) -> u64 {
    let len = tangle.len();
    // Pass 1: per-transaction content hashes (payload, issuer, round).
    let payloads: Vec<&[f32]> = (0..len as u64)
        .map(|index| {
            tangle
                .payload_of(TxId::from_index(index))
                .map_or(&[][..], ModelPayload::params)
        })
        .collect();
    let mut content = vec![FNV_OFFSET; len];
    fnv_weights(&mut content, &payloads);
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
    let mut mapping = HashMap::new();
    let mut next = 0;
    partition
        .iter()
        .map(|&label| {
            *mapping.entry(label).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
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
    let mut members: HashMap<(usize, usize), usize> = HashMap::new();
    for (&p, &t) in partition.iter().zip(truth) {
        *members.entry((p, t)).or_default() += 1;
    }
    let mut majority: HashMap<usize, usize> = HashMap::new();
    for ((p, _), count) in members {
        let best = majority.entry(p).or_default();
        *best = (*best).max(count);
    }
    majority.values().sum()
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

    /// Records one published transaction: `issuer` approving the
    /// transactions issued by `parent_issuers` (use `None` for the
    /// genesis, which carries no issuer).
    pub fn record(&mut self, issuer: u32, parent_issuers: &[Option<u32>]) {
        for parent in parent_issuers.iter().flatten() {
            self.approvals += 1;
            if self.clusters[issuer as usize] == self.clusters[*parent as usize] {
                self.pure_approvals += 1;
            }
            if *parent != issuer {
                self.graph.add_edge(issuer as usize, *parent as usize, 1.0);
            }
        }
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

    /// Mean reference accuracy over the active clients.
    pub fn mean_reference_accuracy(&self) -> f32 {
        mean(&self.reference_accuracies)
    }

    /// Fraction of candidate evaluations that were fresh (forward
    /// passes) rather than cache hits; `0.0` when nothing was evaluated.
    pub fn fresh_eval_ratio(&self) -> f64 {
        crate::EvalCounters {
            fresh: self.fresh_evaluations,
            cached: self.cached_evaluations,
        }
        .fresh_ratio()
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
mod tests {
    use super::*;
    use crate::fanout::tests::with_workers;
    use crate::ShardedModelTangle;

    /// The byte-serial two-pass digest [`tangle_digest`] replaced: the
    /// oracle its kernel must match bit for bit.
    fn serial_tangle_digest<T: TangleRead<ModelPayload>>(tangle: &T) -> u64 {
        let len = tangle.len();
        let mut content = vec![0u64; len];
        for index in 0..len as u64 {
            let id = TxId::from_index(index);
            let mut h = FNV_OFFSET;
            if let Ok(payload) = tangle.payload_of(id) {
                for &p in payload.params() {
                    fnv_mix(&mut h, u64::from(p.to_bits()));
                }
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

    /// Payload lengths the kernel tests mix within one group of four:
    /// empty, shorter than, equal to and longer than a group, and long.
    const LENGTHS: [usize; 6] = [0, 1, 3, 4, 5, 257];

    /// `len` weights that differ from every other payload's.
    fn weights(payload: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|j| (payload * 1000 + j) as f32 * 0.37 - 11.0)
            .collect()
    }

    #[test]
    fn fnv_weights_matches_serial_fnv_mix() {
        // 0 to 9 payloads fill one job (groups of four plus a tail);
        // 2 * FNV_JOB + 9 make three jobs for the fan-out to split.
        for count in (0..=9).chain([2 * FNV_JOB + 9]) {
            let payloads: Vec<Vec<f32>> = (0..count)
                .map(|i| weights(i, LENGTHS[(i + count) % LENGTHS.len()]))
                .collect();
            let slices: Vec<&[f32]> = payloads.iter().map(Vec::as_slice).collect();
            let starts: Vec<u64> = (0..count as u64).map(|i| FNV_OFFSET ^ i).collect();
            let expected: Vec<u64> = starts
                .iter()
                .zip(&payloads)
                .map(|(&start, payload)| {
                    let mut h = start;
                    for &w in payload {
                        fnv_mix(&mut h, u64::from(w.to_bits()));
                    }
                    h
                })
                .collect();
            for workers in [1, 2, 3, 7] {
                let mut states = starts.clone();
                with_workers(workers, || fnv_weights(&mut states, &slices));
                assert_eq!(states, expected, "{count} payloads, {workers} workers");
            }
        }
    }

    #[test]
    fn tangle_digest_matches_the_byte_serial_oracle() {
        let tangle = ShardedModelTangle::new(ModelPayload::new(weights(0, 3)));
        let mut ids = vec![tangle.genesis()];
        for i in 1..2 * FNV_JOB + 9 {
            let payload = ModelPayload::new(weights(i, LENGTHS[i % LENGTHS.len()]));
            let parents = [ids[i / 2], ids[i - 1]];
            let id = tangle
                .attach_with_meta(payload, &parents, Some((i % 5) as u32), i as u32)
                .expect("parents exist");
            ids.push(id);
        }
        let oracle = serial_tangle_digest(&tangle);
        for workers in [1, 2, 3, 7] {
            assert_eq!(
                with_workers(workers, || tangle_digest(&tangle)),
                oracle,
                "{workers} workers"
            );
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
        assert_eq!(m.mean_reference_accuracy(), 0.0);
        assert_eq!(m.fresh_eval_ratio(), 0.0);
    }

    #[test]
    fn fresh_eval_ratio_is_a_fraction() {
        let mut m = metrics(vec![], vec![]);
        m.fresh_evaluations = 3;
        m.cached_evaluations = 9;
        assert!((m.fresh_eval_ratio() - 0.25).abs() < 1e-12);
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
