//! In-run calibration: host times in seconds of a reference-speed host.
//!
//! The sandbox is a small VM on a shared machine whose effective speed
//! swings by tens of percent over tens of seconds (measured while sizing
//! the benchmark: the same `hash-mem` pass took 63–104 ms within five
//! minutes, all of it user time, no steal, no faults). A raw wall-clock
//! median therefore says more about the neighbours than about the code.
//!
//! The benchmark runs a fixed reference kernel between passes — a
//! dependent chain of random read-modify-writes over a 2 MiB table, which
//! is sensitive to the same core- and cache-level contention as the
//! simulator's own loops — and reports every host time multiplied by
//! `NOMINAL_REF_NS ÷ (reference time measured next to it)`: the time the
//! pass would have taken on a host where the reference kernel runs at its
//! nominal speed. In the sizing experiment the reference tracked the pass
//! time with correlation 0.99 across a 56 % swing, and the calibrated time
//! stayed within 14 % (quartile distance 5 %). Of the candidates tried
//! (pure compute, 8 MiB and 32 MiB tables, a 4 MiB copy) the 2 MiB table
//! tracked best.
//!
//! The kernel lives here and uses nothing from the repository, so no
//! change to the simulator can move it. The factor of every run is
//! reported (`bench.calibration_factor`; raw = calibrated ÷ factor).

use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time that counts as speed 1: its median on this
/// repository's 2-core sandbox host when quiet.
pub const NOMINAL_REF_NS: f64 = 1_500_000.0;

const TABLE_WORDS: usize = 1 << 18; // 2 MiB
const ACCESSES: u32 = 300_000;

/// The reference kernel and its most recent timing.
pub struct Calibrator {
    table: Vec<u64>,
    last_ns: u64,
    samples: Vec<u64>,
}

impl Calibrator {
    /// Allocate the table and take a first sample (after one untimed run
    /// that faults the table in).
    pub fn new() -> Self {
        let mut c = Calibrator {
            table: vec![0; TABLE_WORDS],
            last_ns: 0,
            samples: Vec::with_capacity(4096),
        };
        c.kernel();
        c.sample();
        c
    }

    fn kernel(&mut self) -> u64 {
        let mask = TABLE_WORDS - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut acc = 0u64;
        for _ in 0..ACCESSES {
            // xorshift64: each index depends on the previous one.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            self.table[j] = self.table[j].wrapping_add(x);
            acc ^= self.table[j];
        }
        acc
    }

    /// Time the kernel once; returns host ns.
    pub fn sample(&mut self) -> u64 {
        let t = Instant::now();
        black_box(self.kernel());
        self.last_ns = (t.elapsed().as_nanos() as u64).max(1);
        self.samples.push(self.last_ns);
        self.last_ns
    }

    /// Time `f` with a reference sample on either side; returns its
    /// result, its raw host ns, and the mean of the two reference samples.
    /// The "before" sample is the previous call's "after" sample, so
    /// back-to-back calls pay for one sample each.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64, u64) {
        let before = self.last_ns;
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        let after = self.sample();
        (out, ns, (before + after) / 2)
    }

    /// Run-level factor: nominal ÷ the median of every sample so far.
    pub fn factor(&self) -> f64 {
        factor(crate::stats::median(&self.samples))
    }
}

/// Calibration factor for a host time measured next to `ref_ns`.
pub fn factor(ref_ns: u64) -> f64 {
    NOMINAL_REF_NS / ref_ns.max(1) as f64
}
