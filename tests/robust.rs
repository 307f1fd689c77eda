//! Cliff-regression tests for the robust dynamic Hybrid path.
//!
//! The Figure 7 "optimistic" policy under-provisions buckets at
//! non-integral memory ratios; the legacy all-or-nothing overflow
//! machinery turns the shortfall into full re-spray passes, and data skew
//! sharpens the resulting response-time cliff. These tests pin the fix:
//! with skew-aware split-table refinement and dynamic spill/restore on,
//! the cliff cells flatten and the global re-spray passes disappear,
//! while the legacy path still reproduces the cliff for A/B comparison.
//!
//! All quantities are virtual-time and the engine is deterministic, so
//! the thresholds below are stable across machines and executors. The
//! grid matches the committed `BENCH_skew.json` baseline (A = 4000,
//! Bprime = 400) restricted to the cliff-side ratios — each point is an
//! independent join, so restricting the ratio list leaves the shared
//! points byte-identical to the full sweep.

use gamma_bench::skew::{skew_sweep, SkewPoint, SkewSweep, SkewSweepConfig};
use gamma_bench::{SweepBuilder, Workload};
use gamma_core::query::{Algorithm, OverflowPolicy};

fn cliff_sweep() -> SkewSweep {
    skew_sweep(&SkewSweepConfig {
        a_rows: 4_000,
        bprime_rows: 400,
        ratios: vec![0.7, 0.6, 0.5],
    })
}

/// Worst adjacent response-time jump along a ratio series, as a factor.
fn max_adjacent_jump(series: &[&SkewPoint]) -> f64 {
    series
        .windows(2)
        .map(|w| w[1].response_virtual_us as f64 / w[0].response_virtual_us as f64)
        .fold(1.0, f64::max)
}

#[test]
fn robust_path_flattens_the_skew_cliff_legacy_still_reproduces_it() {
    let sweep = cliff_sweep();

    // The legacy machinery shows the cliff where it is sharpest: under
    // sharp skew the last halving of memory costs > 30% extra response
    // time and piles up 3 global re-spray passes.
    let legacy_sharp = sweep.series("sharp", "legacy");
    assert!(
        max_adjacent_jump(&legacy_sharp) > 1.30,
        "legacy sharp-skew cliff vanished: {legacy_sharp:?}"
    );
    assert!(
        legacy_sharp.last().unwrap().overflow_passes >= 3,
        "legacy sharp-skew pass pileup vanished: {legacy_sharp:?}"
    );

    // The robust path flattens the same cells. Under sharp skew the
    // worst jump drops below 15%; under moderate (nu) skew both modes
    // still pay the inherent 1 → 2 bucket transition at ratio 0.5, so
    // the claim there is that robust's worst jump is strictly smaller
    // than legacy's. The cliff cell itself runs strictly faster than
    // legacy at every skew level.
    assert!(
        max_adjacent_jump(&sweep.series("sharp", "robust")) < 1.15,
        "sharp/robust still has a cliff: {:?}",
        sweep.series("sharp", "robust")
    );
    for skew in ["nu", "sharp"] {
        let legacy = max_adjacent_jump(&sweep.series(skew, "legacy"));
        let robust = max_adjacent_jump(&sweep.series(skew, "robust"));
        assert!(
            robust < legacy,
            "{skew}: robust worst jump {robust:.3} not below legacy {legacy:.3}"
        );
    }
    for skew in ["uniform", "nu", "sharp"] {
        let legacy = sweep.series(skew, "legacy");
        let robust = sweep.series(skew, "robust");
        assert!(
            robust.last().unwrap().response_virtual_us < legacy.last().unwrap().response_virtual_us,
            "{skew}: robust lost to legacy at the cliff cell"
        );
    }

    // Global re-spray passes all but disappear under the robust path:
    // partition-wise spilled joins absorb the shortfall, so at most one
    // escalation survives across the whole grid.
    let robust_passes: u32 = sweep
        .points
        .iter()
        .filter(|p| p.mode == "robust")
        .map(|p| p.overflow_passes)
        .sum();
    assert!(
        robust_passes <= 1,
        "robust path escalated {robust_passes} times across the grid"
    );

    // Accounting invariants: the legacy path never touches the dynamic
    // counters, the robust path demonstrably spills, and both modes agree
    // on the (oracle-validated) result cardinality point by point. The
    // BNL safety net must not fire anywhere at this scale.
    assert!(sweep
        .points
        .iter()
        .filter(|p| p.mode == "legacy")
        .all(|p| p.pages_spilled == 0 && p.pages_restored == 0));
    assert!(sweep
        .points
        .iter()
        .any(|p| p.mode == "robust" && p.pages_spilled > 0));
    assert!(sweep.points.iter().all(|p| !p.bnl), "BNL fallback fired");
    for p in sweep.points.iter().filter(|p| p.mode == "legacy") {
        let twin = sweep
            .points
            .iter()
            .find(|q| q.mode == "robust" && q.skew == p.skew && q.memory_ratio == p.memory_ratio)
            .unwrap();
        assert_eq!(
            p.result_tuples, twin.result_tuples,
            "{}/{}: modes disagree on cardinality",
            p.skew, p.memory_ratio
        );
    }
}

/// The robust spill/restore and refinement paths ride the batched tuple
/// data plane (spill spools, restore re-admission, split-table rebuilds
/// all move `TupleBatch` arenas). Serial and pooled executors must agree
/// on every field of the report — response, per-phase ledgers, dynamic
/// spill counters — under the robust knobs for all three hash drivers,
/// including the cliff-side ratios where spills actually fire.
#[test]
fn robust_knobs_are_executor_invariant() {
    use gamma_core::{ExecConfig, WorkerPool};
    use std::sync::Arc;

    let w = Workload::scaled_nu(2_000, 200, 4.0);
    let pool = Arc::new(WorkerPool::new(3));
    for alg in [
        Algorithm::SimpleHash,
        Algorithm::GraceHash,
        Algorithm::HybridHash,
    ] {
        for ratio in [0.6, 0.5] {
            let run = |exec: ExecConfig| {
                SweepBuilder::new(&w)
                    .on("normal", "normal")
                    .policy(OverflowPolicy::Optimistic)
                    .robust()
                    .exec(exec)
                    .run_one(alg, ratio)
            };
            let serial = run(ExecConfig::serial());
            let pooled = run(ExecConfig::pooled(Arc::clone(&pool)));
            // JoinReport derives Debug over every nested ledger field, so
            // formatted equality is full byte-identity of the report.
            assert_eq!(
                format!("{:?}", serial.report),
                format!("{:?}", pooled.report),
                "{} r{ratio}: robust-knob report differs between executors",
                alg.name()
            );
        }
    }
}

/// The robust knobs are wired through every hash driver, not just
/// Hybrid: Grace and Simple with refinement + dynamic spill produce the
/// same (oracle-validated) cardinality as their legacy runs.
#[test]
fn grace_and_simple_join_correctly_with_robust_knobs() {
    let w = Workload::scaled_nu(2_000, 200, 4.0);
    for alg in [Algorithm::GraceHash, Algorithm::SimpleHash] {
        let legacy = SweepBuilder::new(&w)
            .on("normal", "normal")
            .policy(OverflowPolicy::Optimistic)
            .run_one(alg, 0.6);
        let robust = SweepBuilder::new(&w)
            .on("normal", "normal")
            .policy(OverflowPolicy::Optimistic)
            .robust()
            .run_one(alg, 0.6);
        assert_eq!(
            legacy.report.result_tuples,
            robust.report.result_tuples,
            "{}: robust knobs changed the result",
            alg.name()
        );
    }
}
