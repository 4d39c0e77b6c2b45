//! Reproducible random weight initialisation.
//!
//! Every initialiser takes an explicit [`rand::Rng`] so that all experiments
//! in the workspace are deterministic for a fixed seed — a requirement for
//! comparing tip-selection strategies on identical model trajectories.

use rand::Rng;

use crate::Matrix;

/// Uniform initialisation in `[-limit, limit]`.
pub fn uniform_init<R: Rng>(rng: &mut R, rows: usize, cols: usize, limit: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
}

/// Normal initialisation with the given standard deviation (Box–Muller).
pub fn normal_init<R: Rng>(rng: &mut R, rows: usize, cols: usize, stddev: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| sample_standard_normal(rng) * stddev)
}

/// Xavier/Glorot uniform initialisation: `limit = sqrt(6 / (fan_in + fan_out))`.
///
/// The canonical choice for tanh/sigmoid-activated layers.
pub fn xavier_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform_init(rng, fan_in, fan_out, limit)
}

/// Xavier/Glorot normal initialisation: `stddev = sqrt(2 / (fan_in + fan_out))`.
pub fn xavier_normal<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let stddev = (2.0 / (fan_in + fan_out) as f32).sqrt();
    normal_init(rng, fan_in, fan_out, stddev)
}

/// He/Kaiming uniform initialisation: `limit = sqrt(6 / fan_in)`.
///
/// The canonical choice for ReLU-activated layers.
pub fn he_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let limit = (6.0 / fan_in.max(1) as f32).sqrt();
    uniform_init(rng, fan_in, fan_out, limit)
}

/// He/Kaiming normal initialisation: `stddev = sqrt(2 / fan_in)`.
pub fn he_normal<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let stddev = (2.0 / fan_in.max(1) as f32).sqrt();
    normal_init(rng, fan_in, fan_out, stddev)
}

/// Samples from the standard normal distribution using Box–Muller, in
/// exactly two raw draws.
fn sample_standard_normal<R: Rng>(rng: &mut R) -> f32 {
    // `u1 ≥ ε` keeps `ln(u1)` finite, so `z` always is.
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
    debug_assert!(z.is_finite(), "Box–Muller gave {z} for u1 = {u1}");
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mean, stddev};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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
    fn standard_normal_takes_exactly_two_draws() {
        let mut rng = Counting {
            inner: StdRng::seed_from_u64(4),
            draws: 0,
        };
        for call in 1..=10_000 {
            sample_standard_normal(&mut rng);
            assert_eq!(rng.draws, 2 * call, "call {call} drew a different count");
        }
    }

    #[test]
    fn uniform_respects_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = uniform_init(&mut rng, 20, 20, 0.5);
        assert!(m.as_slice().iter().all(|&v| (-0.5..=0.5).contains(&v)));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = xavier_uniform(&mut StdRng::seed_from_u64(7), 10, 10);
        let b = xavier_uniform(&mut StdRng::seed_from_u64(7), 10, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_differs() {
        let a = xavier_uniform(&mut StdRng::seed_from_u64(7), 10, 10);
        let b = xavier_uniform(&mut StdRng::seed_from_u64(8), 10, 10);
        assert_ne!(a, b);
    }

    #[test]
    fn normal_init_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = normal_init(&mut rng, 100, 100, 2.0);
        let mu = mean(m.as_slice());
        let sd = stddev(m.as_slice());
        assert!(mu.abs() < 0.1, "mean {mu} too far from 0");
        assert!((sd - 2.0).abs() < 0.1, "stddev {sd} too far from 2");
    }

    #[test]
    fn xavier_uniform_limit_formula() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = xavier_uniform(&mut rng, 50, 100);
        let limit = (6.0_f32 / 150.0).sqrt();
        assert!(m.as_slice().iter().all(|&v| v.abs() <= limit + 1e-6));
    }

    #[test]
    fn he_uniform_limit_formula() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = he_uniform(&mut rng, 32, 64);
        let limit = (6.0_f32 / 32.0).sqrt();
        assert!(m.as_slice().iter().all(|&v| v.abs() <= limit + 1e-6));
    }

    #[test]
    fn he_normal_stddev_is_plausible() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = he_normal(&mut rng, 128, 128);
        let expected = (2.0_f32 / 128.0).sqrt();
        let sd = stddev(m.as_slice());
        assert!((sd - expected).abs() < expected * 0.1);
    }

    #[test]
    fn all_initialisers_produce_finite_values() {
        let mut rng = StdRng::seed_from_u64(5);
        for m in [
            uniform_init(&mut rng, 8, 8, 1.0),
            normal_init(&mut rng, 8, 8, 1.0),
            xavier_uniform(&mut rng, 8, 8),
            xavier_normal(&mut rng, 8, 8),
            he_uniform(&mut rng, 8, 8),
            he_normal(&mut rng, 8, 8),
        ] {
            assert!(m.is_finite());
        }
    }
}
