//! Skew × memory-ratio cliff sweep.
//!
//! The Figure 7 "optimistic" bucket policy runs Hybrid with
//! `floor(|R|/M)` buckets and leans on the overflow machinery to absorb
//! the shortfall. At non-integral ratios the legacy all-or-nothing
//! resolution re-sprays the whole overflow through a full extra pass, so
//! the response-time curve develops a *cliff*: ratio 0.6 (one bucket, 40%
//! short) is far slower than ratio 0.5 (two buckets, nothing short). Data
//! skew on the `normal` attribute sharpens the cliff by overloading single
//! sites. This sweep measures a skew-level × memory-ratio grid twice —
//! legacy machinery vs the robust path (skew-aware split-table refinement
//! plus dynamic spill/restore) — so the cliff and its fix are both
//! regression-gated artifacts.
//!
//! Every point joins `Bprime ⋈ A` on Hybrid under the Optimistic policy
//! and is validated against the oracle. The emitted JSON carries only
//! virtual-time quantities (no wall-clock), so two runs of the same
//! configuration are byte-identical regardless of executor.

use gamma_core::query::{Algorithm, OverflowPolicy};

use crate::sweep::{pooled_map, SweepBuilder, Workload};

/// The three skew levels the sweep crosses with the memory ratios.
///
/// * `uniform` — join on `unique1` (a permutation: one match per tuple).
/// * `nu` — join on `normal` at the generator's scaled default spread
///   (the paper's §4.4 nonuniform attribute).
/// * `sharp` — join on `normal` drawn at `sd = n/500`, Table 3-style data
///   sharp enough to overload single split-table entries.
pub const SKEW_LEVELS: [&str; 3] = ["uniform", "nu", "sharp"];

/// The two machineries each grid cell is measured under.
pub const MODES: [&str; 2] = ["legacy", "robust"];

/// Sweep configuration.
pub struct SkewSweepConfig {
    /// `A` relation cardinality.
    pub a_rows: usize,
    /// `Bprime` (inner) cardinality.
    pub bprime_rows: usize,
    /// Memory ratios to cross with the skew levels.
    pub ratios: Vec<f64>,
}

impl SkewSweepConfig {
    /// The committed-baseline configuration: small enough for CI, large
    /// enough that the optimistic cliff is visible at every skew level.
    pub fn smoke() -> Self {
        SkewSweepConfig {
            a_rows: 4_000,
            bprime_rows: 400,
            ratios: vec![1.0, 0.9, 0.8, 0.7, 0.6, 0.5],
        }
    }

    /// Standard deviation of the `sharp` level's `normal` attribute.
    pub fn sharp_sd(&self) -> f64 {
        self.a_rows as f64 / 500.0
    }
}

/// One measured grid cell.
#[derive(Debug, Clone)]
pub struct SkewPoint {
    /// Skew level (`uniform` / `nu` / `sharp`).
    pub skew: &'static str,
    /// Machinery (`legacy` / `robust`).
    pub mode: &'static str,
    /// Memory / |inner| ratio.
    pub memory_ratio: f64,
    /// Simulated end-to-end response time.
    pub response_virtual_us: u64,
    /// Classic global re-spray passes executed.
    pub overflow_passes: u32,
    /// Pages the dynamic path left spilled (zero under `legacy`).
    pub pages_spilled: u64,
    /// Pages the dynamic path restored into table slack (zero under
    /// `legacy`).
    pub pages_restored: u64,
    /// Hybrid bucket count the optimizer picked.
    pub buckets: usize,
    /// Result cardinality (identity: oracle-checked before reporting).
    pub result_tuples: u64,
    /// Whether the block-nested-loops safety net fired anywhere.
    pub bnl: bool,
}

/// A completed sweep.
pub struct SkewSweep {
    /// All points, in `SKEW_LEVELS` × `MODES` × `ratios` order.
    pub points: Vec<SkewPoint>,
}

impl SkewSweep {
    /// The response-time series of one (skew, mode) row, in the sweep's
    /// ratio order.
    pub fn series(&self, skew: &str, mode: &str) -> Vec<&SkewPoint> {
        self.points
            .iter()
            .filter(|p| p.skew == skew && p.mode == mode)
            .collect()
    }
}

/// Run the full grid. Points are dispatched on the bench pool when one is
/// active; each builds its own machine, so results are byte-identical to a
/// sequential run.
pub fn skew_sweep(cfg: &SkewSweepConfig) -> SkewSweep {
    let base = Workload::scaled(cfg.a_rows, cfg.bprime_rows);
    let sharp = Workload::scaled_nu(cfg.a_rows, cfg.bprime_rows, cfg.sharp_sd());
    let levels: [(&'static str, &Workload, &str); 3] = [
        ("uniform", &base, "unique1"),
        ("nu", &base, "normal"),
        ("sharp", &sharp, "normal"),
    ];
    let mut jobs: Vec<(&'static str, &Workload, &str, &'static str, f64)> = Vec::new();
    for (skew, w, attr) in levels {
        for mode in MODES {
            for &ratio in &cfg.ratios {
                jobs.push((skew, w, attr, mode, ratio));
            }
        }
    }
    let points = pooled_map("skew point", jobs, |(skew, w, attr, mode, ratio)| {
        let mut builder = SweepBuilder::new(w)
            .on(attr, attr)
            .policy(OverflowPolicy::Optimistic);
        if mode == "robust" {
            builder = builder.robust();
        }
        let p = builder.run_one(Algorithm::HybridHash, ratio);
        SkewPoint {
            skew,
            mode,
            memory_ratio: ratio,
            response_virtual_us: p.report.response.as_us(),
            overflow_passes: p.report.overflow_passes,
            pages_spilled: p.report.pages_spilled(),
            pages_restored: p.report.pages_restored(),
            buckets: p.report.buckets,
            result_tuples: p.report.result_tuples,
            bnl: p.report.bnl_fallback,
        }
    });
    SkewSweep { points }
}

/// Render the sweep as the committed `BENCH_skew.json` document: an
/// envelope plus one line-oriented object per point, virtual-time only.
pub fn render_json(cfg: &SkewSweepConfig, sweep: &SkewSweep) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"skew\",\n");
    out.push_str(&format!("  \"a_rows\": {},\n", cfg.a_rows));
    out.push_str(&format!("  \"bprime_rows\": {},\n", cfg.bprime_rows));
    out.push_str("  \"points\": [\n");
    for (i, p) in sweep.points.iter().enumerate() {
        let sep = if i + 1 == sweep.points.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"skew\": \"{}\", \"mode\": \"{}\", \"memory_ratio\": {}, \
             \"response_virtual_us\": {}, \"overflow_passes\": {}, \
             \"pages_spilled\": {}, \"pages_restored\": {}, \"buckets\": {}, \
             \"result_tuples\": {}, \"bnl\": {}}}{sep}\n",
            p.skew,
            p.mode,
            p.memory_ratio,
            p.response_virtual_us,
            p.overflow_passes,
            p.pages_spilled,
            p.pages_restored,
            p.buckets,
            p.result_tuples,
            p.bnl,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_runs_and_renders() {
        let cfg = SkewSweepConfig {
            a_rows: 1_000,
            bprime_rows: 100,
            ratios: vec![1.0, 0.6],
        };
        let sweep = skew_sweep(&cfg);
        assert_eq!(sweep.points.len(), SKEW_LEVELS.len() * MODES.len() * 2);
        for skew in SKEW_LEVELS {
            for mode in MODES {
                assert_eq!(sweep.series(skew, mode).len(), 2);
            }
        }
        // Legacy never exercises the dynamic path.
        for p in sweep.points.iter().filter(|p| p.mode == "legacy") {
            assert_eq!((p.pages_spilled, p.pages_restored), (0, 0), "{p:?}");
        }
        let json = render_json(&cfg, &sweep);
        assert!(json.contains("\"benchmark\": \"skew\""));
        assert_eq!(
            json.matches("\"skew\": ").count(),
            sweep.points.len(),
            "one line per point"
        );
    }
}
