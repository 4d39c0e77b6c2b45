//! Synthetic "FMNIST-clustered": prototype-based digit images.
//!
//! The paper's FMNIST-clustered dataset assigns disjoint class groups
//! {0–3}, {4–6}, {7–9} to three client clusters (§5.1.1). The learning
//! dynamics depend on *which classes a client holds*, not on pixel realism,
//! so we synthesize images from per-class prototype patterns plus
//! per-client style (translation + brightness, standing in for FEMNIST's
//! per-author handwriting) and per-sample Gaussian noise.

use dagfl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pool::{render_each, rendering_threads};
use crate::rand_util::{fill_normals_f32, skip_normals};
use crate::{ClientDataset, FederatedDataset, MIN_SAMPLES};

/// Side length of the synthetic images.
pub const IMAGE_SIDE: usize = 14;
/// Flattened image length.
pub const IMAGE_LEN: usize = IMAGE_SIDE * IMAGE_SIDE;
/// Number of digit classes.
pub const NUM_CLASSES: usize = 10;

/// Standard deviation of the Gaussian noise added to every pixel.
const NOISE_STDDEV: f32 = 0.3;

/// The paper's three class clusters.
pub const CLASS_CLUSTERS: [&[usize]; 3] = [&[0, 1, 2, 3], &[4, 5, 6], &[7, 8, 9]];

/// Configuration for the synthetic FMNIST generators.
#[derive(Debug, Clone, Copy)]
pub struct FmnistConfig {
    /// Total number of clients (spread round-robin over the three clusters
    /// for the clustered variant).
    pub num_clients: usize,
    /// Samples per client before the 90:10 train/test split.
    pub samples_per_client: usize,
    /// Fraction of samples drawn from *other* clusters' classes
    /// (0.0 = the strict dataset; the paper's relaxed variant uses
    /// 0.15–0.20).
    pub relaxation: f32,
    /// Master seed; everything is deterministic given this.
    pub seed: u64,
}

impl Default for FmnistConfig {
    fn default() -> Self {
        Self {
            num_clients: 30,
            samples_per_client: 60,
            relaxation: 0.0,
            seed: 42,
        }
    }
}

/// Deterministic per-class prototype: a smoothed random pattern in
/// `[0, 1]`.
///
/// Classes 3 and 8 are deliberately *correlated* (8 is a perturbation of
/// 3), mirroring their visual similarity in real MNIST — the reason the
/// paper's label-flip attack targets exactly this pair.
fn class_prototype(class: usize, seed: u64) -> Vec<f32> {
    if class == 8 {
        let base = raw_prototype(3, seed);
        let own = raw_prototype(8, seed);
        // Half shared structure, half own: confusable for weak models,
        // separable for trained ones.
        let mixed: Vec<f32> = base
            .iter()
            .zip(&own)
            .map(|(b, o)| 0.5 * b + 0.5 * o)
            .collect();
        return normalize_unit(mixed);
    }
    normalize_unit(raw_prototype(class, seed))
}

/// The un-normalised smoothed random pattern for a class.
fn raw_prototype(class: usize, seed: u64) -> Vec<f32> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(class as u64 + 1)));
    let mut img = vec![0.0f32; IMAGE_LEN];
    fill_normals_f32(&mut rng, 0.0, 1.0, &mut img);
    // Two box-blur passes make the pattern spatially coherent, so small
    // translations (the client "style") stay close to the prototype.
    for _ in 0..2 {
        let mut blurred = vec![0.0f32; IMAGE_LEN];
        for y in 0..IMAGE_SIDE {
            for x in 0..IMAGE_SIDE {
                let mut acc = 0.0;
                let mut count = 0.0;
                for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        let ny = y as i32 + dy;
                        let nx = x as i32 + dx;
                        if (0..IMAGE_SIDE as i32).contains(&ny)
                            && (0..IMAGE_SIDE as i32).contains(&nx)
                        {
                            acc += img[ny as usize * IMAGE_SIDE + nx as usize];
                            count += 1.0;
                        }
                    }
                }
                blurred[y * IMAGE_SIDE + x] = acc / count;
            }
        }
        img = blurred;
    }
    img
}

/// Rescales a pattern into `[0, 1]`.
fn normalize_unit(mut img: Vec<f32>) -> Vec<f32> {
    let min = img.iter().copied().fold(f32::INFINITY, f32::min);
    let max = img.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let range = (max - min).max(1e-6);
    for v in &mut img {
        *v = (*v - min) / range;
    }
    img
}

/// Per-client rendering style: a small translation plus brightness scale,
/// the synthetic analogue of FEMNIST's per-author handwriting.
#[derive(Debug, Clone, Copy)]
struct ClientStyle {
    dx: i32,
    dy: i32,
    brightness: f32,
}

impl ClientStyle {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        Self {
            dx: rng.gen_range(-1..=1),
            dy: rng.gen_range(-1..=1),
            brightness: rng.gen_range(0.85..=1.15),
        }
    }

    /// Renders one noisy sample of `prototype` into `out` (`IMAGE_LEN`
    /// pixels): the shifted, brightness-scaled prototype plus one
    /// `N(0, NOISE_STDDEV²)` normal per pixel, drawn in pixel order by
    /// [`fill_normals_f32`] and clamped to `[-1, 2]`. Returns how many
    /// pixels' normals libm computed.
    fn render<R: Rng>(&self, prototype: &[f32], out: &mut [f32], rng: &mut R) -> usize {
        let fallbacks = fill_normals_f32(rng, 0.0, NOISE_STDDEV as f64, out);
        for y in 0..IMAGE_SIDE {
            for x in 0..IMAGE_SIDE {
                let sy = y as i32 - self.dy;
                let sx = x as i32 - self.dx;
                let base = if (0..IMAGE_SIDE as i32).contains(&sy)
                    && (0..IMAGE_SIDE as i32).contains(&sx)
                {
                    prototype[sy as usize * IMAGE_SIDE + sx as usize]
                } else {
                    0.0
                };
                let pixel = &mut out[y * IMAGE_SIDE + x];
                *pixel = (base * self.brightness + *pixel).clamp(-1.0, 2.0);
            }
        }
        fallbacks
    }
}

/// The ground-truth cluster a class belongs to.
pub fn cluster_of_class(class: usize) -> usize {
    CLASS_CLUSTERS
        .iter()
        .position(|classes| classes.contains(&class))
        .expect("all 10 classes are assigned")
}

/// A class for one sample of a clustered-dataset client: its own
/// cluster's classes, or with probability `relaxation` a foreign one.
fn clustered_class<R: Rng>(cluster: usize, relaxation: f32, rng: &mut R) -> usize {
    let own = CLASS_CLUSTERS[cluster];
    if relaxation > 0.0 && rng.gen::<f32>() < relaxation {
        // A foreign-cluster class.
        loop {
            let class = rng.gen_range(0..NUM_CLASSES);
            if !own.contains(&class) {
                return class;
            }
        }
    } else {
        own[rng.gen_range(0..own.len())]
    }
}

/// What [`build_client`] does with a client's draws.
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// Renders the client.
    Render,
    /// Takes every draw the render takes, in the same order, but skips
    /// the Box–Muller arithmetic: the client comes out zero pixels wide.
    Draw,
}

/// Builds one client from `rng`: its style, then per sample a class
/// (`classes`) and one normal per pixel, then the train/test shuffle.
/// This is the one place that fixes the order of a client's draws; both
/// [`Pass`]es go through it.
fn build_client<R: Rng>(
    id: u32,
    cluster: usize,
    cfg: &FmnistConfig,
    prototypes: &[Vec<f32>],
    classes: impl Fn(&mut R) -> usize,
    rng: &mut R,
    pass: Pass,
) -> ClientDataset {
    let style = ClientStyle::sample(rng);
    let width = match pass {
        Pass::Render => IMAGE_LEN,
        Pass::Draw => 0,
    };
    let mut x = Matrix::zeros(cfg.samples_per_client, width);
    let mut y = Vec::with_capacity(cfg.samples_per_client);
    for s in 0..cfg.samples_per_client {
        let class = classes(rng);
        match pass {
            Pass::Render => {
                style.render(&prototypes[class], x.row_mut(s), rng);
            }
            Pass::Draw => skip_normals(rng, IMAGE_LEN),
        }
        y.push(class);
    }
    ClientDataset::from_split(id, cluster, x, y, 0.1, rng)
}

/// Renders clients `0..count` that share one sequential RNG stream, on
/// `threads` workers, byte for byte as one thread walking `rng` through
/// them in id order would. `client(id, rng, pass)` builds client `id`
/// from `rng` through [`build_client`].
///
/// Pass 1 walks the stream serially through every client in
/// [`Pass::Draw`] and records where each client's draws start. Pass 2
/// renders each client from its recorded start on the fan-out and asserts
/// that its draws end exactly where the next client's start — so a
/// draw-only pass that ever fell out of step with the render panics
/// rather than shifting the data. On one thread the clients are rendered
/// straight off the stream, with no draw-only pass.
fn render_stream(
    count: usize,
    threads: usize,
    mut rng: StdRng,
    client: impl Fn(usize, &mut StdRng, Pass) -> ClientDataset + Sync,
) -> Vec<ClientDataset> {
    if threads == 1 {
        return (0..count)
            .map(|id| client(id, &mut rng, Pass::Render))
            .collect();
    }
    let mut starts = Vec::with_capacity(count + 1);
    for id in 0..count {
        starts.push(rng.clone());
        client(id, &mut rng, Pass::Draw);
    }
    starts.push(rng);
    render_each(count, threads, |id| {
        let mut rng = starts[id].clone();
        let rendered = client(id, &mut rng, Pass::Render);
        assert!(
            rng == starts[id + 1],
            "client {id}'s render drew a different count than its draw-only pass"
        );
        rendered
    })
}

/// The ten class prototypes of `cfg.seed`.
fn class_prototypes(cfg: &FmnistConfig) -> Vec<Vec<f32>> {
    (0..NUM_CLASSES)
        .map(|c| class_prototype(c, cfg.seed))
        .collect()
}

/// Generates the clustered dataset: clients are assigned round-robin to the
/// three class clusters and draw (mostly) from their cluster's classes.
///
/// With `cfg.relaxation == 0.0` this is the strict FMNIST-clustered dataset;
/// with 0.15–0.20 it is the paper's relaxed variant (Figure 8).
///
/// One RNG stream, seeded from `cfg.seed`, runs through every client in
/// id order, so a client's bytes depend on every client before it. The
/// clients are still rendered on every core (a serial draw-only pass
/// finds where each client's stream starts), and the dataset is
/// bit-identical for any core count.
///
/// # Panics
///
/// Panics if `num_clients < 3` or `samples_per_client < 10`.
pub fn fmnist_clustered(cfg: &FmnistConfig) -> FederatedDataset {
    fmnist_clustered_on(cfg, rendering_threads())
}

/// [`fmnist_clustered`] rendered on `threads` workers.
fn fmnist_clustered_on(cfg: &FmnistConfig, threads: usize) -> FederatedDataset {
    assert!(cfg.num_clients >= 3, "need at least one client per cluster");
    assert!(
        cfg.samples_per_client >= MIN_SAMPLES,
        "too few samples per client"
    );
    let prototypes = class_prototypes(cfg);
    let relaxation = cfg.relaxation;
    let clients = render_stream(
        cfg.num_clients,
        threads,
        StdRng::seed_from_u64(cfg.seed),
        |id, rng, pass| {
            let cluster = id % CLASS_CLUSTERS.len();
            let pick = |rng: &mut StdRng| clustered_class(cluster, relaxation, rng);
            build_client(id as u32, cluster, cfg, &prototypes, pick, rng, pass)
        },
    );
    let name = if relaxation > 0.0 {
        "fmnist-relaxed"
    } else {
        "fmnist-clustered"
    };
    FederatedDataset::new(name, NUM_CLASSES, clients)
}

/// Derives the independent RNG stream seed of one client (splitmix64),
/// so every client's data depends only on `(master seed, client id)` —
/// never on how many clients were rendered before it or on which thread
/// rendered it.
fn client_stream_seed(seed: u64, id: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.wrapping_add(1)))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates the clustered dataset from *independent per-client RNG
/// streams*: client `id` is seeded from `(cfg.seed, id)` alone, so its
/// bytes do not depend on any other client and it needs no draw-only
/// pass before rendering — the cheaper way onto every core at the
/// 10k-client scale. The dataset is bit-identical for any core count.
/// The price is a different (but equally deterministic) sample stream
/// than [`fmnist_clustered`], hence the separate dataset name
/// `fmnist-streamed`.
///
/// # Panics
///
/// Panics if `num_clients < 3` or `samples_per_client < 10`.
pub fn fmnist_clustered_streamed(cfg: &FmnistConfig) -> FederatedDataset {
    fmnist_clustered_streamed_on(cfg, rendering_threads())
}

/// [`fmnist_clustered_streamed`] rendered on `threads` workers.
fn fmnist_clustered_streamed_on(cfg: &FmnistConfig, threads: usize) -> FederatedDataset {
    assert!(cfg.num_clients >= 3, "need at least one client per cluster");
    assert!(
        cfg.samples_per_client >= MIN_SAMPLES,
        "too few samples per client"
    );
    let prototypes = class_prototypes(cfg);
    let clients = render_each(cfg.num_clients, threads, |id| {
        let cluster = id % CLASS_CLUSTERS.len();
        let pick = |rng: &mut StdRng| clustered_class(cluster, cfg.relaxation, rng);
        let mut rng = StdRng::seed_from_u64(client_stream_seed(cfg.seed, id as u64));
        build_client(
            id as u32,
            cluster,
            cfg,
            &prototypes,
            pick,
            &mut rng,
            Pass::Render,
        )
    });
    FederatedDataset::new("fmnist-streamed", NUM_CLASSES, clients)
}

/// Generates the by-author dataset used for the poisoning and scalability
/// experiments (§5.3.4–5.3.5): every client holds all ten classes with its
/// own rendering style, mirroring the original author-split FEMNIST.
///
/// All clients share ground-truth cluster 0 (there is no class clustering).
/// Like [`fmnist_clustered`], one RNG stream runs through every client,
/// and the clients are rendered on every core, bit-identical for any
/// core count.
///
/// # Panics
///
/// Panics if `num_clients == 0` or `samples_per_client < 10`.
pub fn fmnist_by_author(cfg: &FmnistConfig) -> FederatedDataset {
    fmnist_by_author_on(cfg, rendering_threads())
}

/// [`fmnist_by_author`] rendered on `threads` workers.
fn fmnist_by_author_on(cfg: &FmnistConfig, threads: usize) -> FederatedDataset {
    assert!(cfg.num_clients > 0, "need at least one client");
    assert!(
        cfg.samples_per_client >= MIN_SAMPLES,
        "too few samples per client"
    );
    let prototypes = class_prototypes(cfg);
    let clients = render_stream(
        cfg.num_clients,
        threads,
        StdRng::seed_from_u64(cfg.seed.wrapping_add(1)),
        |id, rng, pass| {
            let pick = |rng: &mut StdRng| rng.gen_range(0..NUM_CLASSES);
            build_client(id as u32, 0, cfg, &prototypes, pick, rng, pass)
        },
    );
    FederatedDataset::new("fmnist-by-author", NUM_CLASSES, clients)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_util::sample_normal;

    fn proto_distance(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    }

    #[test]
    fn prototypes_are_distinct() {
        let protos: Vec<Vec<f32>> = (0..NUM_CLASSES).map(|c| class_prototype(c, 1)).collect();
        for a in 0..NUM_CLASSES {
            for b in (a + 1)..NUM_CLASSES {
                let dist = proto_distance(&protos[a], &protos[b]);
                // 3 and 8 are correlated by design (MNIST-like
                // confusability); everything else must be well separated.
                if (a, b) == (3, 8) {
                    assert!(dist > 0.3, "3 and 8 degenerated into one class ({dist})");
                } else {
                    assert!(dist > 1.0, "classes {a} and {b} too similar ({dist})");
                }
            }
        }
    }

    #[test]
    fn three_and_eight_are_the_closest_pair() {
        let protos: Vec<Vec<f32>> = (0..NUM_CLASSES).map(|c| class_prototype(c, 1)).collect();
        let target = proto_distance(&protos[3], &protos[8]);
        for a in 0..NUM_CLASSES {
            for b in (a + 1)..NUM_CLASSES {
                if (a, b) != (3, 8) {
                    assert!(
                        proto_distance(&protos[a], &protos[b]) > target,
                        "({a},{b}) closer than the designed 3/8 pair"
                    );
                }
            }
        }
    }

    #[test]
    fn prototypes_are_deterministic() {
        assert_eq!(class_prototype(3, 7), class_prototype(3, 7));
        assert_ne!(class_prototype(3, 7), class_prototype(3, 8));
    }

    #[test]
    fn every_class_has_a_cluster() {
        for class in 0..NUM_CLASSES {
            let cluster = cluster_of_class(class);
            assert!(CLASS_CLUSTERS[cluster].contains(&class));
        }
    }

    #[test]
    fn strict_clients_hold_only_their_clusters_classes() {
        let cfg = FmnistConfig {
            num_clients: 9,
            samples_per_client: 30,
            ..FmnistConfig::default()
        };
        let ds = fmnist_clustered(&cfg);
        for client in ds.clients() {
            for &label in client.train_y().iter().chain(client.test_y()) {
                assert_eq!(
                    cluster_of_class(label),
                    client.cluster(),
                    "client {} holds foreign class {label}",
                    client.id()
                );
            }
        }
    }

    #[test]
    fn clusters_are_balanced_round_robin() {
        let cfg = FmnistConfig {
            num_clients: 9,
            ..FmnistConfig::default()
        };
        let ds = fmnist_clustered(&cfg);
        for cluster in 0..3 {
            let count = ds
                .clients()
                .iter()
                .filter(|c| c.cluster() == cluster)
                .count();
            assert_eq!(count, 3);
        }
    }

    #[test]
    fn relaxed_clients_hold_some_foreign_classes() {
        let cfg = FmnistConfig {
            num_clients: 6,
            samples_per_client: 200,
            relaxation: 0.18,
            ..FmnistConfig::default()
        };
        let ds = fmnist_clustered(&cfg);
        for client in ds.clients() {
            let foreign = client
                .train_y()
                .iter()
                .filter(|&&label| cluster_of_class(label) != client.cluster())
                .count();
            let frac = foreign as f32 / client.num_train() as f32;
            assert!(
                (0.05..0.35).contains(&frac),
                "client {} foreign fraction {frac}",
                client.id()
            );
        }
    }

    #[test]
    fn by_author_clients_hold_all_classes() {
        let cfg = FmnistConfig {
            num_clients: 4,
            samples_per_client: 300,
            ..FmnistConfig::default()
        };
        let ds = fmnist_by_author(&cfg);
        for client in ds.clients() {
            let mut seen = [false; NUM_CLASSES];
            for &label in client.train_y() {
                seen[label] = true;
            }
            assert!(seen.iter().all(|&s| s), "client missing classes");
            assert_eq!(client.cluster(), 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FmnistConfig {
            num_clients: 3,
            samples_per_client: 20,
            ..FmnistConfig::default()
        };
        let a = fmnist_clustered(&cfg);
        let b = fmnist_clustered(&cfg);
        assert_eq!(a.clients()[0].train_y(), b.clients()[0].train_y());
        assert_eq!(
            a.clients()[0].train_x().as_slice(),
            b.clients()[0].train_x().as_slice()
        );
    }

    /// Every client of `a` and `b` holds the same bytes.
    fn assert_same_bytes(a: &FederatedDataset, b: &FederatedDataset, what: &str) {
        assert_eq!(a.name(), b.name(), "{what}");
        assert_eq!(a.clients().len(), b.clients().len(), "{what}");
        for (a, b) in a.clients().iter().zip(b.clients()) {
            let id = a.id();
            assert_eq!(id, b.id(), "{what}");
            assert_eq!(a.cluster(), b.cluster(), "client {id}, {what}");
            assert_eq!(a.train_y(), b.train_y(), "labels, client {id}, {what}");
            assert_eq!(a.test_y(), b.test_y(), "labels, client {id}, {what}");
            for (x, y) in [(a.train_x(), b.train_x()), (a.test_x(), b.test_x())] {
                assert_eq!(x.cols(), y.cols(), "client {id}, {what}");
                let (x, y) = (x.as_slice(), y.as_slice());
                assert!(
                    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()),
                    "pixels, client {id}, {what}"
                );
            }
        }
    }

    /// The single-RNG generator as one serial loop, written out
    /// independently of `build_client`: the oracle the parallel render
    /// must match byte for byte.
    fn single_stream_oracle(
        cfg: &FmnistConfig,
        mut rng: StdRng,
        cluster_of: impl Fn(usize) -> usize,
        pick: impl Fn(usize, &mut StdRng) -> usize,
    ) -> Vec<ClientDataset> {
        let prototypes: Vec<Vec<f32>> = (0..NUM_CLASSES)
            .map(|c| class_prototype(c, cfg.seed))
            .collect();
        (0..cfg.num_clients)
            .map(|id| {
                let cluster = cluster_of(id);
                let dx: i32 = rng.gen_range(-1..=1);
                let dy: i32 = rng.gen_range(-1..=1);
                let brightness: f32 = rng.gen_range(0.85..=1.15);
                let mut x = Matrix::zeros(cfg.samples_per_client, IMAGE_LEN);
                let mut y = Vec::new();
                for s in 0..cfg.samples_per_client {
                    let class = pick(cluster, &mut rng);
                    for (p, out) in x.row_mut(s).iter_mut().enumerate() {
                        let (sy, sx) = ((p / IMAGE_SIDE) as i32 - dy, (p % IMAGE_SIDE) as i32 - dx);
                        let inside = (0..IMAGE_SIDE as i32).contains(&sy)
                            && (0..IMAGE_SIDE as i32).contains(&sx);
                        let base = if inside {
                            prototypes[class][sy as usize * IMAGE_SIDE + sx as usize]
                        } else {
                            0.0
                        };
                        let noise = sample_normal(&mut rng, 0.0, NOISE_STDDEV as f64) as f32;
                        *out = (base * brightness + noise).clamp(-1.0, 2.0);
                    }
                    y.push(class);
                }
                ClientDataset::from_split(id as u32, cluster, x, y, 0.1, &mut rng)
            })
            .collect()
    }

    fn oracle_clustered(cfg: &FmnistConfig) -> Vec<ClientDataset> {
        single_stream_oracle(
            cfg,
            StdRng::seed_from_u64(cfg.seed),
            |id| id % 3,
            |cluster, rng| {
                let own = CLASS_CLUSTERS[cluster];
                if cfg.relaxation > 0.0 && rng.gen::<f32>() < cfg.relaxation {
                    loop {
                        let class = rng.gen_range(0..NUM_CLASSES);
                        if !own.contains(&class) {
                            return class;
                        }
                    }
                }
                own[rng.gen_range(0..own.len())]
            },
        )
    }

    fn oracle_by_author(cfg: &FmnistConfig) -> Vec<ClientDataset> {
        single_stream_oracle(
            cfg,
            StdRng::seed_from_u64(cfg.seed.wrapping_add(1)),
            |_| 0,
            |_, rng| rng.gen_range(0..NUM_CLASSES),
        )
    }

    /// Small enough to render fast; 11 clients so that 7 threads each
    /// get a different share.
    fn sequential_stream_configs() -> impl Iterator<Item = FmnistConfig> {
        [0.0, 0.2].into_iter().map(|relaxation| FmnistConfig {
            num_clients: 11,
            samples_per_client: 20,
            relaxation,
            seed: 7,
        })
    }

    #[test]
    fn single_stream_generators_are_thread_count_invariant() {
        for cfg in sequential_stream_configs() {
            let clustered = fmnist_clustered_on(&cfg, 1);
            let by_author = fmnist_by_author_on(&cfg, 1);
            for threads in [2, 4, 7] {
                let what = format!("{threads} threads, relaxation {}", cfg.relaxation);
                assert_same_bytes(&clustered, &fmnist_clustered_on(&cfg, threads), &what);
                assert_same_bytes(&by_author, &fmnist_by_author_on(&cfg, threads), &what);
            }
        }
    }

    #[test]
    fn single_stream_generators_match_the_serial_oracle() {
        for cfg in sequential_stream_configs() {
            let name = if cfg.relaxation > 0.0 {
                "fmnist-relaxed"
            } else {
                "fmnist-clustered"
            };
            let clustered = FederatedDataset::new(name, NUM_CLASSES, oracle_clustered(&cfg));
            let by_author =
                FederatedDataset::new("fmnist-by-author", NUM_CLASSES, oracle_by_author(&cfg));
            for threads in [1, 2, 4, 7] {
                let what = format!("oracle, {threads} threads, relaxation {}", cfg.relaxation);
                assert_same_bytes(&clustered, &fmnist_clustered_on(&cfg, threads), &what);
                assert_same_bytes(&by_author, &fmnist_by_author_on(&cfg, threads), &what);
            }
        }
    }

    #[test]
    fn the_draw_only_pass_leaves_the_stream_where_the_render_does() {
        let cfg = FmnistConfig {
            num_clients: 3,
            samples_per_client: 20,
            relaxation: 0.2,
            ..FmnistConfig::default()
        };
        let prototypes = class_prototypes(&cfg);
        let mut rendered = StdRng::seed_from_u64(3);
        let mut drawn = rendered.clone();
        let pick = |rng: &mut StdRng| clustered_class(1, cfg.relaxation, rng);
        let full = build_client(4, 1, &cfg, &prototypes, pick, &mut rendered, Pass::Render);
        let bare = build_client(4, 1, &cfg, &prototypes, pick, &mut drawn, Pass::Draw);
        assert_eq!(rendered, drawn);
        assert_eq!(full.train_y(), bare.train_y());
        assert_eq!(full.test_y(), bare.test_y());
        assert_eq!(
            (full.train_x().cols(), bare.train_x().cols()),
            (IMAGE_LEN, 0)
        );
    }

    /// The `async-scale` benchmark workload's dataset draws 11.76 M
    /// noise normals, and the lanes hand few of them to libm. Lanes that
    /// drifted into doubt everywhere would keep every byte and lose the
    /// speed; this count shows it without a timer. It depends on IEEE
    /// arithmetic alone, not on libm, so it is the same on every host.
    #[test]
    fn the_async_scale_render_rarely_falls_back_to_libm() {
        let cfg = FmnistConfig {
            num_clients: 5_000,
            samples_per_client: 12,
            relaxation: 0.0,
            seed: 42,
        };
        let prototypes = class_prototypes(&cfg);
        let mut row = [0.0f32; IMAGE_LEN];
        let mut fallbacks = 0;
        // `fmnist_clustered_streamed`'s draws, up to each client's split.
        for id in 0..cfg.num_clients {
            let mut rng = StdRng::seed_from_u64(client_stream_seed(cfg.seed, id as u64));
            let style = ClientStyle::sample(&mut rng);
            for _ in 0..cfg.samples_per_client {
                let class = clustered_class(id % CLASS_CLUSTERS.len(), cfg.relaxation, &mut rng);
                fallbacks += style.render(&prototypes[class], &mut row, &mut rng);
            }
        }
        let normals = cfg.num_clients * cfg.samples_per_client * IMAGE_LEN;
        assert!(
            fallbacks * 2_000 < normals,
            "{fallbacks} of {normals} normals fell back to libm (ceiling 0.05 %)"
        );
        assert_eq!(fallbacks, 255, "the recorded count moved");
    }

    #[test]
    fn streamed_generation_is_thread_count_invariant() {
        let cfg = FmnistConfig {
            num_clients: 9,
            samples_per_client: 20,
            relaxation: 0.18,
            ..FmnistConfig::default()
        };
        let sequential = fmnist_clustered_streamed_on(&cfg, 1);
        for threads in [2, 4, 7] {
            let parallel = fmnist_clustered_streamed_on(&cfg, threads);
            assert_same_bytes(&sequential, &parallel, &format!("{threads} threads"));
        }
    }

    #[test]
    fn streamed_clients_keep_the_cluster_structure() {
        let cfg = FmnistConfig {
            num_clients: 9,
            samples_per_client: 30,
            ..FmnistConfig::default()
        };
        let ds = fmnist_clustered_streamed_on(&cfg, 3);
        assert_eq!(ds.name(), "fmnist-streamed");
        for client in ds.clients() {
            assert_eq!(client.cluster(), client.id() as usize % 3);
            for &label in client.train_y().iter().chain(client.test_y()) {
                assert_eq!(cluster_of_class(label), client.cluster());
            }
        }
    }

    #[test]
    fn streamed_clients_are_insertion_order_independent() {
        // A client's bytes depend only on (seed, id): the same id in a
        // smaller population renders identically.
        let big = fmnist_clustered_streamed_on(
            &FmnistConfig {
                num_clients: 9,
                samples_per_client: 20,
                ..FmnistConfig::default()
            },
            2,
        );
        let small = fmnist_clustered_streamed_on(
            &FmnistConfig {
                num_clients: 3,
                samples_per_client: 20,
                ..FmnistConfig::default()
            },
            2,
        );
        for id in 0..3 {
            assert_eq!(
                big.clients()[id].train_x().as_slice(),
                small.clients()[id].train_x().as_slice()
            );
        }
    }

    #[test]
    fn train_test_split_is_ninety_ten() {
        let cfg = FmnistConfig {
            num_clients: 3,
            samples_per_client: 100,
            ..FmnistConfig::default()
        };
        let ds = fmnist_clustered(&cfg);
        for client in ds.clients() {
            assert_eq!(client.num_test(), 10);
            assert_eq!(client.num_train(), 90);
        }
    }

    #[test]
    fn a_local_model_can_fit_one_client() {
        use dagfl_nn::{Dense, Model, Relu, Sequential, SgdConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let cfg = FmnistConfig {
            num_clients: 3,
            samples_per_client: 120,
            ..FmnistConfig::default()
        };
        let ds = fmnist_clustered(&cfg);
        let client = &ds.clients()[0];
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new(vec![
            Box::new(Dense::new(&mut rng, IMAGE_LEN, 32)),
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut rng, 32, NUM_CLASSES)),
        ]);
        let opt = SgdConfig::new(0.1);
        let mut batch_rng = StdRng::seed_from_u64(1);
        for _ in 0..30 {
            for (x, y) in client.train_batches(10, 9, &mut batch_rng) {
                model.train_batch(&x, &y, &opt).unwrap();
            }
        }
        let eval = model.evaluate(client.test_x(), client.test_y()).unwrap();
        assert!(
            eval.accuracy > 0.7,
            "local model only reached {}",
            eval.accuracy
        );
    }
}
