//! Sampling helpers shared by the dataset generators.

use std::f64::consts::{FRAC_2_PI, SQRT_2, TAU};

use rand::{Rng, RngCore};

/// Raw `u64` draws [`sample_normal`] takes from its generator per call.
const NORMAL_DRAWS: usize = 2;

/// Samples from `N(mean, stddev²)` using Box–Muller, in exactly two raw
/// draws: `u1` from the first, `u2` from the second, and
/// `z = sqrt(−2·ln u1)·cos(2π·u2)` through libm.
///
/// This is the reference the crate's batched `fill_normals_f32` matches
/// bit for bit; the `f64` users (gamma, Dirichlet, the FedProx
/// generator) call it.
pub fn sample_normal<R: Rng>(rng: &mut R, mean: f64, stddev: f64) -> f64 {
    let u1 = rng.next_u64();
    let u2 = rng.next_u64();
    mean + stddev * libm_z(u1, u2)
}

/// A generator that returns one fixed word: `u1`/`u2` come out of the
/// same `gen_range` arithmetic whichever path reads the word.
struct Word(u64);

impl RngCore for Word {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// `u1 ∈ [ε, 1)` and `u2 ∈ [0, 1)` of one draw pair. `u1 ≥ ε` keeps
/// `ln(u1)` finite, so `z` always is.
fn uniforms(w1: u64, w2: u64) -> (f64, f64) {
    (
        Word(w1).gen_range(f64::EPSILON..1.0),
        Word(w2).gen_range(0.0..1.0),
    )
}

/// Box–Muller's standard normal of one draw pair, through libm.
fn libm_z(w1: u64, w2: u64) -> f64 {
    let (u1, u2) = uniforms(w1, w2);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    debug_assert!(z.is_finite(), "Box–Muller gave {z} for u1 = {u1}");
    z
}

/// Normals per chunk of [`fill_normals_f32`]: the draw pairs it holds
/// at once.
const LANES: usize = 64;

/// The lanes' half-width of doubt per unit of `r = sqrt(−2·ln u1)`: a
/// lane's `z` lies within `DELTA_PER_R · r` of libm's `z` for the same
/// draws. With `u = 2⁻⁵³` and libm's `ln`/`cos` within 1 ulp:
///
/// - [`ln_lane`] is within 6u of `ln u1` *relatively*, for every `u1`
///   (`f = m − 1` is exact, so no absolute error survives as `u1 → 1`),
///   so its `r` is within 4u of the true `R` relatively, libm's within
///   2u.
/// - [`cos_lane`] is within 3u of `cos x` absolutely, libm's within 2u.
/// - Each side's final product rounds by at most `u·|z| ≤ u·R`.
///
/// So the two `z` differ by at most `(4 + 2 + 3 + 2 + 2)·u·R = 13u·R
/// ≈ 1.4e-15·R`, and `1e-13` leaves a 70× margin over that bound. The
/// worst distance measured over 2²⁹ draws is `4.4e-16·r`, 0.44 % of `δ`
/// (the ignored test `lanes_match_libm_on_2_pow_28_normals_per_sigma`
/// requires under 1 %).
const DELTA_PER_R: f64 = 1e-13;

/// Fills `out` with samples from `N(mean, stddev²)`, bit for bit the
/// `sample_normal(rng, mean, stddev) as f32` of one call per element, in
/// order, taking the same draws. Returns how many elements fell back to
/// libm.
///
/// Each chunk of [`LANES`] draw pairs runs Box–Muller in branch-free
/// `f64` lanes ([`z_lane`]), which vectorise. A lane's value is kept
/// when `mean + stddev·(z ∓ δ)` cast to the same `f32` at both ends of
/// its error interval ([`DELTA_PER_R`]): the cast of `mean + stddev·z`
/// is monotone in `z` (signed zeros ordered, hence the bit compare), so
/// libm's value, which lies inside the interval, casts to it too. Any
/// other lane — about one in 46,000 at `mean = 0` — is evaluated by
/// [`sample_normal`]'s own expression on the same two draws. The result
/// thus holds for any libm whose `ln` and `cos` are within 1 ulp.
pub(crate) fn fill_normals_f32<R: Rng>(
    rng: &mut R,
    mean: f64,
    stddev: f64,
    out: &mut [f32],
) -> usize {
    debug_assert!(stddev > 0.0, "the lanes bound z only for stddev > 0");
    let (mut w1, mut w2) = ([0u64; LANES], [0u64; LANES]);
    let mut hi = [0f32; LANES];
    let mut fallbacks = 0;
    for chunk in out.chunks_mut(LANES) {
        let n = chunk.len();
        let (w1, w2, hi) = (&mut w1[..n], &mut w2[..n], &mut hi[..n]);
        for (a, b) in w1.iter_mut().zip(w2.iter_mut()) {
            *a = rng.next_u64();
            *b = rng.next_u64();
        }
        for i in 0..n {
            let (z, r) = z_lane(w1[i], w2[i]);
            let delta = DELTA_PER_R * r;
            chunk[i] = (mean + stddev * (z - delta)) as f32;
            hi[i] = (mean + stddev * (z + delta)) as f32;
        }
        // A reduction, not an early exit, so that it vectorises too.
        if (0..n).fold(false, |any, i| {
            any | (chunk[i].to_bits() != hi[i].to_bits())
        }) {
            for i in 0..n {
                if chunk[i].to_bits() != hi[i].to_bits() {
                    chunk[i] = (mean + stddev * libm_z(w1[i], w2[i])) as f32;
                    fallbacks += 1;
                }
            }
        }
    }
    fallbacks
}

/// [`uniforms`] with no integer-to-float conversion, which has no vector
/// instruction below AVX-512: `gen`'s `(w >> 11)·2⁻⁵³` is the top 52
/// bits of `w` as the mantissa of a number in `[1, 2)`, less 1, plus
/// its 53rd bit as `2⁻⁵³` — both steps exact.
#[inline(always)]
fn uniforms_lane(w1: u64, w2: u64) -> (f64, f64) {
    let unit = |w: u64| {
        let top = f64::from_bits(1.0f64.to_bits() | (w >> 12)) - 1.0;
        let last = 0u64.wrapping_sub((w >> 11) & 1) & (f64::EPSILON / 2.0).to_bits();
        top + f64::from_bits(last)
    };
    let u1 = f64::EPSILON + unit(w1) * (1.0 - f64::EPSILON);
    let u1 = if u1 >= 1.0 { f64::EPSILON } else { u1 };
    (u1, unit(w2))
}

/// Box–Muller's `z` of one draw pair and its `r = sqrt(−2·ln u1)`, in
/// plain `f64` arithmetic with no branch and no libm call.
#[inline(always)]
fn z_lane(w1: u64, w2: u64) -> (f64, f64) {
    let (u1, u2) = uniforms_lane(w1, w2);
    let r = (-2.0 * ln_lane(u1)).sqrt();
    (r * cos_lane(TAU * u2), r)
}

/// Evaluates `c[0] + x·c[1] + x²·c[2] + …` by Horner's rule.
#[inline(always)]
fn horner(x: f64, c: &[f64]) -> f64 {
    let (last, rest) = c.split_last().expect("a polynomial has a coefficient");
    rest.iter().rev().fold(*last, |acc, &c| acc * x + c)
}

/// `ln u1` for normal `u1 ∈ (0, 1)`, within 6u relatively.
///
/// `u1 = 2^e·m` with `m ∈ (√½, √2]`, so `f = m − 1` is exact (Sterbenz)
/// and `ln u1 = e·ln 2 + 2·atanh(s)` with `s = f/(2 + f)`, `|s| < 0.1716`.
/// `s` carries 2u; `atanh(s)/s = Σ s^2k/(2k+1)` cut after `s¹⁸/19` leaves
/// under `s²⁰/21/(1 − s²) < 2.5e-17 ≈ 0.2u`, and its correction term is
/// under 2 % of `2s`, so `2·atanh(s)` is within 3.5u. `e·ln2_hi` is exact
/// (21 trailing zero bits), and when `e ≠ 0`, `|ln u1| ≥ |2·atanh(s)|`,
/// so the two last sums add at most 2u more.
#[inline(always)]
fn ln_lane(u1: f64) -> f64 {
    // fdlibm's split of ln 2, by its bits.
    let [ln2_hi, ln2_lo] = [0x3fe6_2e42_fee0_0000, 0x3dea_39ef_3579_3c76].map(f64::from_bits);
    const ATANH_TAIL: [f64; 9] = [
        1.0 / 3.0,
        1.0 / 5.0,
        1.0 / 7.0,
        1.0 / 9.0,
        1.0 / 11.0,
        1.0 / 13.0,
        1.0 / 15.0,
        1.0 / 17.0,
        1.0 / 19.0,
    ];
    let bits = u1.to_bits();
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 1.0f64.to_bits());
    // The biased exponent as the low bits of 2⁵²'s mantissa: exact.
    let two52 = (1u64 << 52) as f64;
    let e = f64::from_bits(two52.to_bits() | (bits >> 52)) - (two52 + 1023.0);
    let big = m > SQRT_2;
    let m = if big { 0.5 * m } else { m };
    let e = if big { e + 1.0 } else { e };
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let s2 = s * s;
    let two_atanh = 2.0 * s + 2.0 * s * s2 * horner(s2, &ATANH_TAIL);
    e * ln2_hi + (e * ln2_lo + two_atanh)
}

/// `cos x` for `x ∈ [0, 2π)`, within 3u absolutely.
///
/// `x = k·π/2 + y` with `k = round(x·2/π) ≤ 4`: `k·pio2_hi` is exact
/// (22 trailing zero bits) and so is `x − k·pio2_hi` (Sterbenz), so `y`
/// is within 0.5u. On `|y| ≤ π/4` the Taylor series of `cos` cut after
/// `y¹⁶/16!` leaves under `2e-18`, that of `sin` after `y¹⁵/15!` under
/// `5e-17`; rounding adds about 1.5u. `k mod 4` selects `cos y`,
/// `−sin y`, `−cos y` or `sin y`.
#[inline(always)]
fn cos_lane(x: f64) -> f64 {
    // fdlibm's first two words of π/2, by their bits.
    let [pio2_hi, pio2_lo] = [0x3ff9_21fb_5440_0000, 0x3dd0_b461_1a62_6331].map(f64::from_bits);
    const COS: [f64; 8] = [
        -1.0 / 2.0,
        1.0 / 24.0,
        -1.0 / 720.0,
        1.0 / 40_320.0,
        -1.0 / 3_628_800.0,
        1.0 / 479_001_600.0,
        -1.0 / 87_178_291_200.0,
        1.0 / 20_922_789_888_000.0,
    ];
    const SIN: [f64; 7] = [
        -1.0 / 6.0,
        1.0 / 120.0,
        -1.0 / 5_040.0,
        1.0 / 362_880.0,
        -1.0 / 39_916_800.0,
        1.0 / 6_227_020_800.0,
        -1.0 / 1_307_674_368_000.0,
    ];
    // Adding 1.5·2⁵² rounds to an integer, left in the low mantissa bits.
    let round = 1.5 * (1u64 << 52) as f64;
    let t = x * FRAC_2_PI + round;
    let k = t - round;
    let y = (x - k * pio2_hi) - k * pio2_lo;
    let y2 = y * y;
    let cos = 1.0 + y2 * horner(y2, &COS);
    let sin = y + y * y2 * horner(y2, &SIN);
    let quadrant = t.to_bits();
    let v = if quadrant & 1 == 0 { cos } else { sin };
    // Quadrants 1 and 2 negate.
    f64::from_bits(v.to_bits() ^ (((quadrant + 1) & 2) << 62))
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

    /// `sample_normal(rng, mean, stddev) as f32` once per element: what
    /// [`fill_normals_f32`] must equal.
    fn scalar_normals<R: Rng>(rng: &mut R, mean: f64, stddev: f64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| sample_normal(rng, mean, stddev) as f32)
            .collect()
    }

    fn assert_same_bits(batch: &[f32], scalar: &[f32], what: &str) {
        assert_eq!(batch.len(), scalar.len(), "{what}");
        for (i, (b, s)) in batch.iter().zip(scalar).enumerate() {
            assert_eq!(b.to_bits(), s.to_bits(), "element {i}: {b} vs {s}, {what}");
        }
    }

    /// The `(mean, stddev)` pairs the generators use, and a few others.
    const MOMENTS: [(f64, f64); 6] = [
        (0.0, 0.3f32 as f64),
        (0.0, 1.0),
        (0.0, 3.0),
        (0.0, 1.5),
        (2.5, 0.7),
        (-1.0, 1e-3),
    ];

    #[test]
    fn batch_matches_the_scalar_sampler_bit_for_bit() {
        for seed in 0..6 {
            for (mean, stddev) in MOMENTS {
                for n in [0, 1, 7, 196, 257] {
                    let mut batched = StdRng::seed_from_u64(seed);
                    let mut scalar = batched.clone();
                    let mut out = vec![f32::NAN; n];
                    fill_normals_f32(&mut batched, mean, stddev, &mut out);
                    let what = format!("seed {seed}, N({mean}, {stddev}²), n = {n}");
                    assert_same_bits(&out, &scalar_normals(&mut scalar, mean, stddev, n), &what);
                    assert_eq!(batched, scalar, "{what}");
                }
            }
        }
    }

    /// Replays a fixed list of raw words.
    struct Replay(std::vec::IntoIter<u64>);

    impl RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("replayed past the crafted words")
        }
    }

    /// Draw pairs at the edges of the lanes' arithmetic: `u1` at its `ε`
    /// floor, at `1 − 2⁻⁵³` and at the `√½` switch of [`ln_lane`]'s
    /// reduction; `u2` at 0, its largest value and one ulp either side of
    /// every quadrant edge and zero of `cos`.
    fn crafted_pairs() -> Vec<u64> {
        let ulp = 1u64 << 11;
        let at = |u: f64| ((u * (1u64 << 53) as f64) as u64) << 11;
        let mut u1s = vec![0, ulp, u64::MAX, u64::MAX - ulp, 1 << 63];
        let root_half = at(std::f64::consts::FRAC_1_SQRT_2);
        u1s.extend([root_half - ulp, root_half, root_half + ulp]);
        let mut u2s = vec![0, ulp, u64::MAX];
        for eighth in 1..8u64 {
            let edge = eighth << 61;
            u2s.extend([edge - ulp, edge, edge + ulp]);
        }
        let mut words = Vec::new();
        for &u1 in &u1s {
            for &u2 in &u2s {
                words.extend([u1, u2]);
            }
        }
        assert_eq!(uniforms(0, 0), (f64::EPSILON, 0.0));
        assert_eq!(uniforms(u64::MAX, 0).0, 1.0 - f64::EPSILON / 2.0);
        words
    }

    #[test]
    fn lane_uniforms_are_gen_range_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let random = (0..100_000).map(|_| rng.next_u64());
        for w in crafted_pairs().into_iter().chain(random) {
            let (lane, reference) = (uniforms_lane(w, w), uniforms(w, w));
            assert_eq!(lane.0.to_bits(), reference.0.to_bits(), "u1 of {w:#x}");
            assert_eq!(lane.1.to_bits(), reference.1.to_bits(), "u2 of {w:#x}");
        }
    }

    #[test]
    fn batch_matches_the_scalar_sampler_on_crafted_words() {
        let words = crafted_pairs();
        let n = words.len() / NORMAL_DRAWS;
        // A tiny stddev casts every value to ±0.0; at mean −0.0 the sign
        // is the sign of z, so both zeros occur.
        let moments = MOMENTS.into_iter().chain([(0.0, 1e-300), (-0.0, 1e-300)]);
        for (mean, stddev) in moments {
            let mut out = vec![f32::NAN; n];
            fill_normals_f32(
                &mut Replay(words.clone().into_iter()),
                mean,
                stddev,
                &mut out,
            );
            let scalar = scalar_normals(&mut Replay(words.clone().into_iter()), mean, stddev, n);
            assert_same_bits(&out, &scalar, &format!("N({mean}, {stddev}²)"));
            if mean.to_bits() == (-0.0f64).to_bits() {
                let zeros: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert!(zeros.contains(&0.0f32.to_bits()) && zeros.contains(&(-0.0f32).to_bits()));
                assert!(out.iter().all(|&v| v == 0.0));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn batch_matches_the_scalar_sampler_on_any_stream(
            (seed, mean, log_stddev, n) in
                (proptest::any::<u64>(), -100.0f64..100.0, -8.0f64..4.0, 0usize..300),
        ) {
            let stddev = 10f64.powf(log_stddev);
            let mut batched = StdRng::seed_from_u64(seed);
            let mut scalar = batched.clone();
            let mut out = vec![f32::NAN; n];
            fill_normals_f32(&mut batched, mean, stddev, &mut out);
            let what = format!("seed {seed}, N({mean}, {stddev}²), n = {n}");
            assert_same_bits(&out, &scalar_normals(&mut scalar, mean, stddev, n), &what);
            proptest::prop_assert_eq!(batched, scalar);
        }
    }

    #[test]
    fn batch_takes_exactly_the_scalar_draws() {
        for n in [0, 1, 7, 63, 64, 65, 196, 257] {
            let mut rng = Counting {
                inner: StdRng::seed_from_u64(6),
                draws: 0,
            };
            let mut skipped = rng.inner.clone();
            fill_normals_f32(&mut rng, 0.0, 1.0, &mut vec![0.0; n]);
            assert_eq!(rng.draws, NORMAL_DRAWS * n, "n = {n}");
            skip_normals(&mut skipped, n);
            assert_eq!(rng.inner, skipped, "n = {n}");
        }
    }

    #[test]
    fn a_forced_fallback_is_exact() {
        // A mean that puts `mean + z` on the midpoint between the f32s 1
        // and 1 + 2⁻²³ leaves every lane in doubt.
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..64 {
            let words = vec![rng.next_u64(), rng.next_u64()];
            let mean = (1.0 + 2f64.powi(-24)) - libm_z(words[0], words[1]);
            let mut out = [f32::NAN];
            let fallbacks =
                fill_normals_f32(&mut Replay(words.clone().into_iter()), mean, 1.0, &mut out);
            assert_eq!(fallbacks, 1, "mean {mean}");
            let scalar = scalar_normals(&mut Replay(words.into_iter()), mean, 1.0, 1);
            assert_same_bits(&out, &scalar, &format!("mean {mean}"));
        }
    }

    #[test]
    fn the_split_constants_are_exact_in_their_products() {
        let ln2_hi = f64::from_bits(0x3fe6_2e42_fee0_0000);
        let pio2_hi = f64::from_bits(0x3ff9_21fb_5440_0000);
        // e·ln2_hi is exact for |e| < 2²¹, k·pio2_hi for k ≤ 4.
        assert_eq!(ln2_hi.to_bits().trailing_zeros(), 21);
        assert_eq!(pio2_hi.to_bits().trailing_zeros(), 22);
        assert_eq!(
            ln2_hi + f64::from_bits(0x3dea_39ef_3579_3c76),
            std::f64::consts::LN_2
        );
        assert_eq!(
            pio2_hi + f64::from_bits(0x3dd0_b461_1a62_6331),
            std::f64::consts::FRAC_PI_2
        );
    }

    /// 2²⁸ normals per stddev against `sample_normal`'s libm expression,
    /// bit for bit, and the lanes' worst distance to libm's `z` as a
    /// share of `δ`, which must leave a 100× margin. Run with `cargo test
    /// --release -p dagfl-datasets -- --ignored
    /// lanes_match_libm_on_2_pow_28_normals_per_sigma`.
    #[test]
    #[ignore = "2²⁹ libm normals: about a minute in release"]
    fn lanes_match_libm_on_2_pow_28_normals_per_sigma() {
        const BLOCK: usize = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (index, stddev) in [0.3f32 as f64, 1.0].into_iter().enumerate() {
            let worst = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut rng = StdRng::seed_from_u64((2 * t + index) as u64);
                            let mut out = vec![0.0f32; BLOCK];
                            let mut worst = 0.0f64;
                            let mut block = t;
                            while block < (1 << 28) / BLOCK {
                                let mut words = rng.clone();
                                fill_normals_f32(&mut rng, 0.0, stddev, &mut out);
                                for (i, &v) in out.iter().enumerate() {
                                    let (w1, w2) = (words.next_u64(), words.next_u64());
                                    let z = libm_z(w1, w2);
                                    let want = (stddev * z) as f32;
                                    assert_eq!(
                                        v.to_bits(),
                                        want.to_bits(),
                                        "{v} vs {want}, σ {stddev}, block {block}, element {i}"
                                    );
                                    let (lane, r) = z_lane(w1, w2);
                                    worst = worst.max((lane - z).abs() / (DELTA_PER_R * r));
                                }
                                block += threads;
                            }
                            worst
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("worker panicked"))
                    .fold(0.0, f64::max)
            });
            println!("σ = {stddev}: worst |z_lane − z_libm| = {worst:.3e} of δ");
            assert!(
                worst <= 0.01,
                "the lanes use {worst} of δ: less than 100× margin"
            );
        }
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
