//! The noise canary: two fixed kernels that depend on nothing in the
//! repository, timed before and after every workload. If they drift, the
//! machine changed under the measurement, not the program.
//!
//! The same kernels double as the roofline reference of the host
//! fingerprint (`peak_gflops`, `mem_gb_s`).

use std::hint::black_box;
use std::time::Instant;

/// Accumulators held in registers: 8 AVX2 vectors of 8 `f32` lanes.
const LANES: usize = 64;
/// Multiply-add sweeps over the accumulators per timing.
const SWEEPS: usize = 4_000_000;
/// Bytes moved by the copy kernel (larger than any last-level cache the
/// workspace targets).
const COPY_BYTES: usize = 64 << 20;

/// One canary reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Canary {
    /// Seconds for the register-resident multiply-add loop.
    pub fma_s: f64,
    /// Seconds for one 64 MB copy.
    pub copy_s: f64,
}

impl Canary {
    /// Both kernels, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        (self.fma_s + self.copy_s) * 1e3
    }

    /// Multiply-add throughput of eight dependent vector chains: a floor
    /// under the compute roof one core offers a non-fused Rust kernel
    /// (Rust never contracts `a * b + c`), steady enough to be a reference.
    pub fn peak_gflops(&self) -> f64 {
        (2 * LANES * SWEEPS) as f64 / self.fma_s / 1e9
    }

    /// Copy bandwidth, counting bytes read plus bytes written.
    pub fn mem_gb_s(&self) -> f64 {
        (2 * COPY_BYTES) as f64 / self.copy_s / 1e9
    }

    /// Relative change of the slower-moving of the two kernels between two
    /// readings.
    pub fn drift(&self, later: &Canary) -> f64 {
        let rel = |a: f64, b: f64| ((b - a) / a).abs();
        rel(self.fma_s, later.fma_s).max(rel(self.copy_s, later.copy_s))
    }
}

/// One cache line's alignment for the loop's operands: on a stack that
/// happens to straddle lines (the loader's address randomisation decides)
/// the same loop ran four times slower for the life of the process.
#[repr(align(64))]
#[derive(Clone, Copy)]
struct Operands([f32; LANES]);

/// Seconds for `sweeps` multiply-add sweeps over the accumulators.
fn fma(sweeps: usize) -> f64 {
    let mut acc = Operands([1.0f32; LANES]);
    // Opaque constants: the loop cannot be folded, and every lane's chain
    // stays bounded (x -> 0.999999 x + 1e-7 converges to 0.1).
    let mul = black_box(Operands([0.999_999f32; LANES]));
    let add = black_box(Operands([1e-7f32; LANES]));
    let started = Instant::now();
    for _ in 0..sweeps {
        for i in 0..LANES {
            acc.0[i] = acc.0[i] * mul.0[i] + add.0[i];
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    black_box(acc);
    elapsed
}

fn fma_once() -> f64 {
    fma(SWEEPS)
}

/// Seconds of load before the first timing.
const SPIN_S: f64 = 0.3;
/// Timings per kernel; the reading is the fastest.
const REPEATS: usize = 10;

/// Times both kernels, best of [`REPEATS`] each (the canary asks "how
/// fast can this box go right now", so the minimum is the steadier
/// statistic). `quick` takes three timings without the warm-up spin: a
/// smoke run only needs the canary to exist.
pub fn measure(quick: bool) -> Canary {
    // An idle core boosts its clock for the first moments of load; spin
    // first so a reading taken after idling compares with one taken right
    // after a workload.
    let spin = Instant::now();
    while !quick && spin.elapsed().as_secs_f64() < SPIN_S {
        black_box(fma_once());
    }
    let repeats = if quick { 3 } else { REPEATS };
    let fma_s = (0..repeats)
        .map(|_| fma_once())
        .fold(f64::INFINITY, f64::min);
    let src = vec![0x5au8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    // Touch the destination once so the timed copies do not page-fault.
    dst.copy_from_slice(&src);
    let copy_s = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    Canary { fma_s, copy_s }
}

/// The usual [`parallel_reading`] of the 2-core reference box (its fastest
/// is 0.037): the speed that host-normalised times are stated at.
pub const REFERENCE_PARALLEL_S: f64 = 0.06;

/// Seconds for two threads to run three multiply-add loops each, side by
/// side: how fast the box is *for a program that keeps two cores busy*
/// right now. On a shared host the hypervisor's grant of the second vCPU
/// moves this reading — and the wall time of such programs with it — by
/// 20 % or more for minutes at a time.
pub fn parallel_reading() -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..3 {
                    black_box(fma_once());
                }
            });
        }
    });
    started.elapsed().as_secs_f64()
}

/// The usual [`serial_reading`] of the reference box (its fastest is 0.006).
pub const REFERENCE_SERIAL_S: f64 = 0.008;

/// CPU seconds for the calling thread to run half a multiply-add loop: how
/// fast *one core* of the box is right now. On the shared reference box
/// that changes every few seconds, over a range of nearly two to one (the
/// reading moves between 0.006 and 0.011 s within one 20 s run), and
/// everything serial — a digest, a burst over loopback, the async event
/// loop — takes that much longer with it: over ten runs of one binary the
/// digest of `net-gossip` read 0.033 s four times and 0.041 s six times.
///
/// CPU seconds, not wall: a few milliseconds either contain one of the
/// hypervisor's preemptions or do not.
pub fn serial_reading() -> f64 {
    let started = crate::proc::cpu_time_s();
    black_box(fma(SWEEPS / 2));
    crate::proc::cpu_time_s() - started
}

/// Restates times at the reference box's usual speed:
/// `seconds * reference_s / reading`, where the reading of sample `i` is the
/// mean of `readings[i]` and `readings[i + 1]`, the two taken around it.
///
/// The reading is [`parallel_reading`] for what keeps both cores busy and
/// [`serial_reading`] for what keeps one busy. Measured over ten seeds, raw
/// -> normalised spread (IQR / median): `wall_s` of `rounds-fmnist` 18.7 %
/// -> 7.6 %, of `rounds-poets` 18.7 % -> 4.8 %, of `async-scale` 11.5 % ->
/// 2.1 %, of `net-gossip` 17.8 % -> 4.6 %; `report_s` of `net-gossip` 19.3 %
/// -> 5.6 %, of `async-scale` 17.2 % -> 3.4 %.
pub fn host_normalised(seconds: &[f64], readings: &[f64], reference_s: f64) -> Vec<f64> {
    seconds
        .iter()
        .enumerate()
        .map(|(i, s)| restated(*s, [readings[i], readings[i + 1]], reference_s))
        .collect()
}

/// [`host_normalised`] for one time and the two readings around it.
pub fn restated(seconds: f64, around: [f64; 2], reference_s: f64) -> f64 {
    seconds * reference_s / ((around[0] + around[1]) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_uses_the_readings_around_each_block() {
        let r = REFERENCE_PARALLEL_S;
        let out = host_normalised(&[1.0, 1.0], &[r, 3.0 * r, r], r);
        assert_eq!(out, vec![0.5, 0.5]);
        let out = host_normalised(&[2.0], &[r, r], r);
        assert_eq!(out, vec![2.0]);
    }

    #[test]
    fn drift_is_the_larger_relative_change() {
        let a = Canary {
            fma_s: 0.10,
            copy_s: 0.020,
        };
        let b = Canary {
            fma_s: 0.11,
            copy_s: 0.019,
        };
        assert!((a.drift(&b) - 0.10).abs() < 1e-9);
        assert_eq!(a.drift(&a), 0.0);
        assert!((a.total_ms() - 120.0).abs() < 1e-9);
    }
}
