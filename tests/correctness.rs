//! End-to-end correctness: every algorithm, in every configuration the
//! paper exercises, must produce exactly the oracle's result multiset.

use gamma_bench::{SweepBuilder, Workload};
use gamma_core::query::Algorithm;

fn workload() -> Workload {
    Workload::scaled(2_000, 200)
}

/// The full configuration matrix at three memory points. Validation
/// (cardinality + multiset checksum vs. the oracle) happens inside the
/// sweep; reaching the end without a panic is the assertion.
#[test]
fn all_algorithms_all_configs_match_oracle() {
    let w = workload();
    let ratios = [1.0, 0.4, 0.15];
    for attrs in [("unique1", "unique1"), ("unique2", "unique2")] {
        for filter in [false, true] {
            for remote in [false, true] {
                let mut b = SweepBuilder::new(&w).on(attrs.0, attrs.1).filtered(filter);
                if remote {
                    b = b.remote();
                }
                let pts = b.run(&Algorithm::ALL, &ratios);
                assert_eq!(pts.len(), Algorithm::ALL.len() * ratios.len());
                for p in &pts {
                    assert_eq!(p.report.result_tuples, 200, "{} r={}", p.algorithm, p.ratio);
                    assert!(p.seconds > 0.0);
                }
            }
        }
    }
}

/// Severe memory pressure (deep overflow recursion for Simple, many
/// buckets for Grace/Hybrid) must not lose or duplicate tuples.
#[test]
fn extreme_memory_pressure_is_exact() {
    let w = workload();
    for alg in Algorithm::ALL {
        let p = SweepBuilder::new(&w).run_one(alg, 0.05);
        assert_eq!(p.report.result_tuples, 200, "{}", alg.name());
        if alg == Algorithm::SimpleHash {
            assert!(
                p.report.overflow_passes >= 3,
                "simple at 5% memory must recurse repeatedly, saw {}",
                p.report.overflow_passes
            );
        }
    }
}

/// Joins on the skewed attribute (NU / UN / NN) remain exact, including
/// the NN case whose result is far larger than either input.
#[test]
fn skewed_joins_match_oracle() {
    let w = workload();
    for attrs in [
        ("normal", "unique1"),
        ("unique1", "normal"),
        ("normal", "normal"),
    ] {
        let expect = w.expect(attrs.0, attrs.1);
        for alg in Algorithm::ALL {
            let p = SweepBuilder::new(&w)
                .on(attrs.0, attrs.1)
                .range_loaded()
                .run_one(alg, 0.17);
            assert_eq!(
                p.report.result_tuples,
                expect.tuples,
                "{} on {attrs:?}",
                alg.name()
            );
            assert_eq!(p.report.result_checksum, expect.checksum);
        }
    }
}

/// The joinAselB / joinCselAselB variants: selections applied during the
/// scans.
#[test]
fn selection_queries_are_exact() {
    use gamma_core::run_join;
    use gamma_wisconsin::{join_asel_b, join_csel_asel_b, load_hashed, oracle_join, WisconsinGen};

    let gen = WisconsinGen::new(1989);
    let a_rows = gen.relation(2_000, 0);
    let b_rows = gen.relation(2_000, 7);

    for alg in Algorithm::ALL {
        let mut machine = gamma_core::Machine::new(gamma_core::MachineConfig::local_8());
        let a = load_hashed(&mut machine, "A", &a_rows, "unique1");
        let b = load_hashed(&mut machine, "B", &b_rows, "unique1");
        let mem = machine.relation(b).data_bytes / 4;

        let spec = join_asel_b(alg, b, a, 200, mem);
        let report = run_join(&mut machine, &spec);
        let expect = oracle_join(&b_rows, &a_rows, "unique1", "unique1", Some((0, 199)), None);
        assert_eq!(
            report.result_tuples,
            expect.tuples,
            "joinAselB {}",
            alg.name()
        );
        assert_eq!(report.result_checksum, expect.checksum);

        let spec = join_csel_asel_b(alg, b, a, 400, 1_000, mem);
        let report = run_join(&mut machine, &spec);
        let expect = oracle_join(
            &b_rows,
            &a_rows,
            "unique1",
            "unique1",
            Some((0, 399)),
            Some((0, 999)),
        );
        assert_eq!(
            report.result_tuples,
            expect.tuples,
            "joinCselAselB {}",
            alg.name()
        );
        assert_eq!(report.result_checksum, expect.checksum);
    }
}

/// Figure 7's optimistic policy (deliberate overflow) stays exact.
#[test]
fn optimistic_overflow_is_exact() {
    use gamma_core::query::OverflowPolicy;
    let w = workload();
    for ratio in [0.55, 0.65, 0.8] {
        let p = SweepBuilder::new(&w)
            .policy(OverflowPolicy::Optimistic)
            .run_one(Algorithm::HybridHash, ratio);
        assert_eq!(p.report.result_tuples, 200, "ratio {ratio}");
        assert_eq!(p.report.buckets, 1);
    }
}

/// Back-to-back joins on one machine must not leak storage: every temp,
/// bucket, overflow and result file is freed.
#[test]
fn no_storage_leaks_across_runs() {
    use gamma_core::run_join;
    use gamma_wisconsin::{join_abprime, load_hashed, WisconsinGen};

    let gen = WisconsinGen::new(1989);
    let a_rows = gen.relation(1_000, 0);
    let b_rows = gen.sample(&a_rows, 100, 1);
    let mut machine = gamma_core::Machine::new(gamma_core::MachineConfig::local_8());
    let a = load_hashed(&mut machine, "A", &a_rows, "unique1");
    let b = load_hashed(&mut machine, "B", &b_rows, "unique1");
    let baseline: usize = machine
        .nodes
        .iter()
        .filter_map(|n| n.volume.as_ref())
        .map(|v| v.total_pages())
        .sum();
    for alg in Algorithm::ALL {
        for ratio in [1.0, 0.2] {
            let mem = (machine.relation(b).data_bytes as f64 * ratio) as u64;
            let spec = join_abprime(alg, b, a, "unique1", "unique1", mem);
            let _ = run_join(&mut machine, &spec);
            let now: usize = machine
                .nodes
                .iter()
                .filter_map(|n| n.volume.as_ref())
                .map(|v| v.total_pages())
                .sum();
            assert_eq!(now, baseline, "{} at {ratio} leaked pages", alg.name());
        }
    }
}

/// A join whose result nobody reads (`run_join`) stores it as a join whose
/// result is kept (`run_join_materialized`) does: every result page is
/// charged, sealed and counted alike, so the two give the same report and
/// the same per-phase, per-node ledgers (the metrics registry's `ledger_*`
/// series) — for every algorithm, joined on the partitioning attribute
/// (HPJA) and off it, at ratios 1.0 and 0.2. Only the kept result's pages
/// stay on the disks.
#[test]
fn unread_results_are_charged_as_kept_ones() {
    use gamma_bench::sweep::LoadStyle;
    use gamma_core::query::{run_join, run_join_materialized};
    use gamma_core::Machine;
    use gamma_metrics::Registry;
    use gamma_wisconsin::join_abprime;

    fn stored_pages(m: &Machine) -> usize {
        m.nodes
            .iter()
            .filter_map(|n| n.volume.as_ref())
            .map(|v| v.total_pages())
            .sum()
    }

    let w = workload();
    for alg in Algorithm::ALL {
        for attr in ["unique1", "unique2"] {
            for ratio in [1.0, 0.2] {
                let what = format!("{} on {attr} at {ratio}", alg.name());
                let run = |keep: bool| {
                    let (mut m, a, b) = w.machine(false, LoadStyle::HashedUnique1, attr, attr);
                    let memory = (m.relation(b).data_bytes as f64 * ratio).ceil() as u64;
                    let spec = join_abprime(alg, b, a, attr, attr, memory);
                    let before = stored_pages(&m);
                    let prev = gamma_metrics::install(Registry::new());
                    let report = if keep {
                        let (result, report) = run_join_materialized(&mut m, &spec, "result");
                        let fragments = &m.relation(result).fragments;
                        let records: usize = fragments
                            .iter()
                            .enumerate()
                            .map(|(n, &f)| m.nodes[n].vol().file_records(f))
                            .sum();
                        assert_eq!(records as u64, report.result_tuples, "{what}: kept");
                        report
                    } else {
                        run_join(&mut m, &spec)
                    };
                    let registry = gamma_metrics::take().expect("installed above");
                    if let Some(p) = prev {
                        gamma_metrics::install(p);
                    }
                    let ledgers = gamma_metrics::json::render(&registry);
                    (format!("{report:?}"), ledgers, stored_pages(&m) - before)
                };
                let (kept, kept_ledgers, kept_pages) = run(true);
                let (unkept, unkept_ledgers, unkept_pages) = run(false);
                assert_eq!(kept, unkept, "{what}: reports");
                assert!(kept_ledgers.contains("ledger_pages_written"), "{what}");
                assert_eq!(kept_ledgers, unkept_ledgers, "{what}: per-phase ledgers");
                assert!(kept_pages > 0, "{what}: the kept result stays");
                assert_eq!(unkept_pages, 0, "{what}: the unread result is gone");
            }
        }
    }
}

/// The two implemented extensions — bucket-forming filters (§4.2/§5) and
/// Grace bucket tuning [KITS83] — stay exact, separately and together,
/// including under a deliberately misestimated bucket plan.
#[test]
fn extensions_stay_exact() {
    let w = workload();
    for ratio in [0.45, 0.17] {
        let p = SweepBuilder::new(&w)
            .filter_bucket_forming()
            .run_one(Algorithm::GraceHash, ratio);
        assert_eq!(
            p.report.result_tuples, 200,
            "bucket-forming filters, grace, {ratio}"
        );
        let p = SweepBuilder::new(&w)
            .filter_bucket_forming()
            .run_one(Algorithm::HybridHash, ratio);
        assert_eq!(
            p.report.result_tuples, 200,
            "bucket-forming filters, hybrid, {ratio}"
        );
        let p = SweepBuilder::new(&w)
            .bucket_tuning()
            .run_one(Algorithm::GraceHash, ratio);
        assert_eq!(p.report.result_tuples, 200, "bucket tuning, {ratio}");
        let p = SweepBuilder::new(&w)
            .bucket_tuning()
            .filter_bucket_forming()
            .run_one(Algorithm::GraceHash, ratio);
        assert_eq!(p.report.result_tuples, 200, "both extensions, {ratio}");
    }

    // Misestimated plan: one bucket planned, four needed; tuning must
    // still be exact and avoid overflow passes.
    use gamma_core::run_join;
    use gamma_wisconsin::{join_abprime, load_hashed, WisconsinGen};
    let gen = WisconsinGen::new(1989);
    let a_rows = gen.relation(5_000, 0);
    let b_rows = gen.sample(&a_rows, 500, 1);
    let mut machine = gamma_core::Machine::new(gamma_core::MachineConfig::local_8());
    let a = load_hashed(&mut machine, "A", &a_rows, "unique1");
    let b = load_hashed(&mut machine, "B", &b_rows, "unique1");
    let mut spec = join_abprime(
        gamma_core::Algorithm::GraceHash,
        b,
        a,
        "unique1",
        "unique1",
        machine.relation(b).data_bytes / 3,
    );
    spec.buckets_override = Some(1);
    let fixed = run_join(&mut machine, &spec);
    assert_eq!(fixed.result_tuples, 500);
    spec.bucket_tuning = true;
    let tuned = run_join(&mut machine, &spec);
    assert_eq!(tuned.result_tuples, 500);
    // At this tiny scale per-site variance still causes some overflow, but
    // regrouping by measured size must strictly reduce it (at full scale
    // it eliminates it — see the `tuning` ablation).
    assert!(
        tuned.overflow_passes < fixed.overflow_passes,
        "tuned {} !< fixed {}",
        tuned.overflow_passes,
        fixed.overflow_passes
    );
}
