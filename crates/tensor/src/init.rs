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

/// Xavier/Glorot uniform initialisation: `limit = sqrt(6 / (fan_in + fan_out))`.
///
/// The canonical choice for tanh/sigmoid-activated layers.
pub fn xavier_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform_init(rng, fan_in, fan_out, limit)
}

/// He/Kaiming uniform initialisation: `limit = sqrt(6 / fan_in)`.
///
/// The canonical choice for ReLU-activated layers.
pub fn he_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let limit = (6.0 / fan_in.max(1) as f32).sqrt();
    uniform_init(rng, fan_in, fan_out, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn all_initialisers_produce_finite_values() {
        let mut rng = StdRng::seed_from_u64(5);
        for m in [
            uniform_init(&mut rng, 8, 8, 1.0),
            xavier_uniform(&mut rng, 8, 8),
            he_uniform(&mut rng, 8, 8),
        ] {
            assert!(m.is_finite());
        }
    }
}
