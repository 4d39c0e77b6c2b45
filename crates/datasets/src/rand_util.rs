//! Sampling helpers shared by the dataset generators.

use rand::Rng;

/// Raw `u64` draws [`sample_normal`] takes from its generator per call.
const NORMAL_DRAWS: usize = 2;

/// Samples from `N(mean, stddev²)` using Box–Muller, in exactly two raw
/// draws.
pub fn sample_normal<R: Rng>(rng: &mut R, mean: f64, stddev: f64) -> f64 {
    // `u1 ≥ ε` keeps `ln(u1)` finite, so `z` always is.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    debug_assert!(z.is_finite(), "Box–Muller gave {z} for u1 = {u1}");
    mean + stddev * z
}

/// Advances `rng` past the draws of `count` [`sample_normal`] calls
/// without computing them.
pub(crate) fn skip_normals<R: Rng>(rng: &mut R, count: usize) {
    for _ in 0..count * NORMAL_DRAWS {
        rng.next_u64();
    }
}

/// Samples from `Gamma(shape, 1)` using Marsaglia–Tsang, with the standard
/// boost for `shape < 1`.
fn sample_gamma<R: Rng>(rng: &mut R, shape: f64) -> f64 {
    debug_assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Gamma(a) = Gamma(a + 1) * U^(1/a)
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_normal(rng, 0.0, 1.0);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Samples a probability vector from a symmetric Dirichlet distribution
/// with concentration `alpha` over `k` categories.
///
/// # Panics
///
/// Panics if `k == 0` or `alpha <= 0`.
pub fn sample_dirichlet<R: Rng>(rng: &mut R, alpha: f64, k: usize) -> Vec<f64> {
    assert!(k > 0, "dirichlet needs at least one category");
    assert!(alpha > 0.0, "dirichlet concentration must be positive");
    let mut draws: Vec<f64> = (0..k).map(|_| sample_gamma(rng, alpha)).collect();
    let total: f64 = draws.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        // Degenerate draw (numerically possible for tiny alpha): uniform.
        return vec![1.0 / k as f64; k];
    }
    for d in &mut draws {
        *d /= total;
    }
    draws
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn normal_moments_plausible() {
        let mut rng = StdRng::seed_from_u64(0);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| sample_normal(&mut rng, 2.0, 3.0))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    /// Counts the raw draws taken from a real generator.
    struct Counting {
        inner: StdRng,
        draws: usize,
    }

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn normal_takes_exactly_two_draws() {
        let mut rng = Counting {
            inner: StdRng::seed_from_u64(4),
            draws: 0,
        };
        for call in 1..=10_000 {
            sample_normal(&mut rng, 0.0, 1.0);
            assert_eq!(rng.draws, 2 * call, "call {call} drew a different count");
        }
    }

    #[test]
    fn skipping_normals_lands_where_sampling_them_does() {
        let mut sampled = StdRng::seed_from_u64(5);
        let mut skipped = sampled.clone();
        for _ in 0..37 {
            sample_normal(&mut sampled, 1.0, 0.3);
        }
        skip_normals(&mut skipped, 37);
        assert_eq!(sampled, skipped);
        assert_eq!(sampled.next_u64(), skipped.next_u64());
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        for alpha in [0.1, 0.5, 1.0, 10.0] {
            let p = sample_dirichlet(&mut rng, alpha, 7);
            assert_eq!(p.len(), 7);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "alpha {alpha} sum {sum}");
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn small_alpha_concentrates_mass() {
        // With alpha << 1 most draws put nearly all mass on one category.
        // For Dirichlet(0.05) over 5 categories the true P(max > 0.9) is
        // ~0.65, so demand a 55% rate over 400 draws: far above anything a
        // diffuse distribution produces, yet ~4 sigma below the mean —
        // robust to the exact RNG stream.
        let mut rng = StdRng::seed_from_u64(2);
        let mut peaked = 0;
        for _ in 0..400 {
            let p = sample_dirichlet(&mut rng, 0.05, 5);
            let max = p.iter().cloned().fold(0.0, f64::max);
            if max > 0.9 {
                peaked += 1;
            }
        }
        assert!(peaked > 220, "only {peaked}/400 draws were peaked");
    }

    #[test]
    fn large_alpha_is_near_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = sample_dirichlet(&mut rng, 1000.0, 4);
        for v in p {
            assert!((v - 0.25).abs() < 0.05, "component {v} far from uniform");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = sample_dirichlet(&mut StdRng::seed_from_u64(9), 1.0, 5);
        let b = sample_dirichlet(&mut StdRng::seed_from_u64(9), 1.0, 5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn dirichlet_zero_categories_panics() {
        sample_dirichlet(&mut StdRng::seed_from_u64(0), 1.0, 0);
    }
}
