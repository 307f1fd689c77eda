//! Serial vs pooled executor equivalence.
//!
//! A machine whose [`ExecConfig`] carries a worker pool runs each node's
//! executor step on a pool worker — the node is the only parallel grain,
//! so a step's tuples are processed by the same code, in the same order,
//! on either executor. These tests pin one machine to each executor
//! inside one process and assert the two are indistinguishable: identical
//! result cardinality and checksum, identical per-phase virtual-time
//! ledgers and event counts, identical response times, and byte-identical
//! trace exports — for all four algorithms, local and remote join sites,
//! with and without bit filters and selections. Worker panics must
//! surface with the stage and node that raised them.

use std::sync::Arc;

use gamma_bench::sweep::LoadStyle;
use gamma_bench::tracing::trace_join_with;
use gamma_bench::Workload;
use gamma_core::query::{Algorithm, JoinSite};
use gamma_core::{run_join, ExecConfig, JoinReport, WorkerPool};
use gamma_wisconsin::{join_abprime, join_csel_asel_b};

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::SortMerge,
    Algorithm::SimpleHash,
    Algorithm::GraceHash,
    Algorithm::HybridHash,
];

/// Run one join point on a fresh machine pinned to `exec`, with 1/`div`
/// of the inner relation as memory. Ratio 0.5 forces multi-bucket plans
/// for Grace/Hybrid and real overflow handling for Simple. `selected`
/// runs `joinCselAselB` instead of `joinABprime`: both scans apply a
/// selection (half of A's `unique1` domain for the inner, two thirds for
/// the outer).
fn run_cell(
    w: &Workload,
    alg: Algorithm,
    remote: bool,
    filtered: bool,
    selected: bool,
    div: u64,
    exec: ExecConfig,
) -> JoinReport {
    let (mut machine, a, bprime) =
        w.machine(remote, LoadStyle::HashedUnique1, "unique1", "unique1");
    machine.exec = exec;
    let memory = machine.relation(bprime).data_bytes / div;
    let mut spec = if selected {
        let n = w.a_rows.len() as u32;
        join_csel_asel_b(alg, bprime, a, n / 2, n * 2 / 3, memory)
    } else {
        join_abprime(alg, bprime, a, "unique1", "unique1", memory)
    };
    // Sort-merge cannot use diskless nodes (§3.1).
    if remote && alg != Algorithm::SortMerge {
        spec.site = JoinSite::Remote;
    }
    spec.bit_filter = filtered;
    run_join(&mut machine, &spec)
}

fn assert_reports_match(a: &JoinReport, b: &JoinReport, what: &str) {
    assert_eq!(a.result_tuples, b.result_tuples, "{what}: cardinality");
    assert_eq!(a.result_checksum, b.result_checksum, "{what}: checksum");
    assert_eq!(a.response, b.response, "{what}: response time");
    assert_eq!(a.total, b.total, "{what}: aggregate usage/counts");
    assert_eq!(a.phases.len(), b.phases.len(), "{what}: phase count");
    for (pa, pb) in a.phases.iter().zip(&b.phases) {
        assert_eq!(pa.name, pb.name, "{what}: phase name");
        assert_eq!(pa.duration, pb.duration, "{what}/{}: duration", pa.name);
        assert_eq!(pa.total, pb.total, "{what}/{}: phase usage", pa.name);
        assert_eq!(
            pa.sched_overhead, pb.sched_overhead,
            "{what}/{}: sched overhead",
            pa.name
        );
        assert_eq!(
            pa.critical_node, pb.critical_node,
            "{what}/{}: critical node",
            pa.name
        );
    }
}

#[test]
fn pooled_matches_serial_everywhere() {
    let w = Workload::scaled(3_000, 300);
    let pool = Arc::new(WorkerPool::new(3));
    for alg in ALGORITHMS {
        for remote in [false, true] {
            for filtered in [false, true] {
                for selected in [false, true] {
                    let what = format!(
                        "{} {} filters={filtered} selected={selected}",
                        alg.name(),
                        if remote { "remote" } else { "local" },
                    );
                    let run = |exec| run_cell(&w, alg, remote, filtered, selected, 2, exec);
                    let serial = run(ExecConfig::serial());
                    let pooled = run(ExecConfig::pooled(Arc::clone(&pool)));
                    assert!(serial.result_tuples > 0, "{what}: empty result");
                    assert_reports_match(&serial, &pooled, &what);
                }
            }
        }
    }
}

/// A many-to-many join (both sides on the duplicate-heavy `normal`
/// attribute) gives every probe more than two matches on average, each
/// sent on as two references into the site's frozen table and the probing
/// tuple's page; the pooled executor stores exactly what the serial one
/// does.
#[test]
fn pooled_matches_serial_on_many_to_many_probes() {
    let w = Workload::scaled(10_000, 1_000);
    let pool = Arc::new(WorkerPool::new(2));
    for alg in [Algorithm::SimpleHash, Algorithm::HybridHash] {
        for remote in [false, true] {
            let run = |exec: ExecConfig| {
                let (mut machine, a, bprime) =
                    w.machine(remote, LoadStyle::HashedUnique1, "normal", "normal");
                machine.exec = exec;
                let memory = machine.relation(bprime).data_bytes * 4;
                let mut spec = join_abprime(alg, bprime, a, "normal", "normal", memory);
                if remote {
                    spec.site = JoinSite::Remote;
                }
                run_join(&mut machine, &spec)
            };
            let what = format!("{} remote={remote} many-to-many", alg.name());
            let serial = run(ExecConfig::serial());
            let pooled = run(ExecConfig::pooled(Arc::clone(&pool)));
            let counts = &serial.total.counts;
            assert_eq!(serial.overflow_passes, 0, "{what}: one probe wave");
            assert!(
                serial.result_tuples > 2 * counts.hash_probes,
                "{what}: {} results from {} probes",
                serial.result_tuples,
                counts.hash_probes
            );
            assert_reports_match(&serial, &pooled, &what);
        }
    }
}

/// A join result crosses to its store operator as two references — `R` on
/// the site's frozen hash table, `S` on the page its probe was scanned
/// from — and nothing stops the store from draining it after both owners
/// are gone. Here a many-to-many probe wave's results are left in flight
/// while the sites are torn down (`take_overflows`) and the outer relation
/// is dropped; the store then writes exactly `oracle_join`'s multiset, and
/// the serial and the two-lane executor write the same result pages.
#[test]
fn results_outlive_their_site_and_their_outer_file() {
    use gamma_core::algorithms::Resolved;
    use gamma_core::exec::hash::{tag, take_overflows, Consumers, TAG_BUILD, TAG_PROBE};
    use gamma_core::exec::run_step;
    use gamma_core::hash::{hash_u32, JOIN_SEED};
    use gamma_core::machine::Ledgers;
    use gamma_wisconsin::oracle_join;
    use gamma_wiss::FileId;

    let w = Workload::scaled(10_000, 1_000);
    let expect = oracle_join(&w.bprime_rows, &w.a_rows, "normal", "normal", None, None);
    let run = |exec: ExecConfig| {
        let (mut m, a, bprime) = w.machine(false, LoadStyle::HashedUnique1, "normal", "normal");
        m.exec = exec;
        let (inner, outer) = (m.relation(bprime), m.relation(a));
        let (r_attr, s_attr) = (
            inner.schema.int_attr("normal"),
            outer.schema.int_attr("normal"),
        );
        let nodes = m.disk_nodes();
        let rz = Resolved {
            join_nodes: nodes.clone(),
            buckets: 1,
            capacity_per_site: inner.data_bytes,
            r_fragments: inner.fragments.clone(),
            s_fragments: outer.fragments.clone(),
            r_attr,
            s_attr,
            r_tuple_bytes: inner.schema.tuple_bytes() as u64,
            filter_bits: None,
            filter_bucket_forming: false,
            bucket_tuning: false,
            r_pred: None,
            s_pred: None,
            skew_refinement: false,
            dynamic_spill: false,
        };
        // Scan each node's fragment and send every tuple by reference to
        // the site its join attribute hashes to.
        let route =
            |m: &mut gamma_core::Machine, ledgers: &mut Ledgers, files: &[FileId], kind: u32| {
                let mut files = files.to_vec();
                run_step(m, ledgers, "route", &nodes, &mut files, |ctx, &mut file| {
                    let batch = ctx.read_batch(file);
                    let attr = if kind == TAG_BUILD { r_attr } else { s_attr };
                    for rec in batch.recs() {
                        let site = (hash_u32(JOIN_SEED, attr.get(&rec)) % 8) as usize;
                        ctx.send_rec(nodes[site], tag(kind, site), rec);
                    }
                });
            };
        let mut ledgers = m.ledgers();
        let mut consumers = Consumers::new(&mut m);
        let sites = consumers.install_sites(&m, &rz, &nodes, 0, 0);
        route(&mut m, &mut ledgers, &rz.r_fragments, TAG_BUILD);
        consumers.settle(&mut m, &mut ledgers);
        consumers.probe_snapshot(&sites);
        route(&mut m, &mut ledgers, &rz.s_fragments, TAG_PROBE);
        consumers.absorb(&mut m, &mut ledgers);
        assert!(!m.exchange.is_drained(), "the results are still in flight");
        let overflowed = take_overflows(&mut m, &mut ledgers, &mut consumers, &sites);
        assert!(overflowed.is_empty(), "no site overflowed");
        m.drop_relation(a);
        consumers.absorb(&mut m, &mut ledgers);
        assert!(m.exchange.is_drained());
        let info = consumers.finish(&mut m, &mut ledgers);
        assert_eq!(
            (info.tuples, info.checksum),
            (expect.tuples, expect.checksum)
        );
        let pages: Vec<Vec<u8>> = info
            .files
            .iter()
            .enumerate()
            .flat_map(|(n, &f)| {
                let vol = m.nodes[n].vol();
                (0..vol.file_pages(f)).map(move |p| vol.page(f, p).as_bytes().to_vec())
            })
            .collect();
        pages
    };
    assert!(expect.tuples > 2 * w.a_rows.len() as u64, "many-to-many");
    let serial = run(ExecConfig::serial());
    let pooled = run(ExecConfig::pooled(Arc::new(WorkerPool::new(2))));
    assert!(serial == pooled, "serial and pooled result pages differ");
}

/// Sort-merge sends each result as two references into the pages of its
/// sorted runs, one group of equal values at a time. Groups that span page
/// boundaries on both sides (the duplicate-heavy `normal` attribute, then
/// sharp skew), one group holding every tuple, and an empty inner or outer
/// relation, each with filters off and on: the stored result is exactly
/// `oracle_join`'s multiset, and the two-lane executor stores the same
/// result pages as the serial one.
#[test]
fn sort_merge_results_leave_by_reference_from_the_sorted_runs() {
    use gamma_core::query::run_join_materialized;
    use gamma_wisconsin::gen::INT_ATTRS;
    use gamma_wisconsin::oracle_join;

    let normal = INT_ATTRS
        .iter()
        .position(|&a| a == "normal")
        .expect("normal");
    let mut all_equal = Workload::scaled(300, 60);
    for row in all_equal
        .a_rows
        .iter_mut()
        .chain(&mut all_equal.bprime_rows)
    {
        row.ints[normal] = 7;
    }
    let mut no_inner = Workload::scaled(300, 60);
    no_inner.bprime_rows.clear();
    let mut no_outer = Workload::scaled(300, 60);
    no_outer.a_rows.clear();
    let cases = [
        ("normal", Workload::scaled(4_000, 2_000)),
        ("sharp skew", Workload::scaled_nu(2_000, 500, 4.0)),
        ("all equal", all_equal),
        ("empty inner", no_inner),
        ("empty outer", no_outer),
    ];
    let pool = Arc::new(WorkerPool::new(2));
    for (case, w) in &cases {
        let expect = oracle_join(&w.bprime_rows, &w.a_rows, "normal", "normal", None, None);
        let many_to_many = !w.a_rows.is_empty() && !w.bprime_rows.is_empty();
        assert_eq!(
            expect.tuples > w.a_rows.len() as u64,
            many_to_many,
            "{case}: shape"
        );
        for filtered in [false, true] {
            let what = format!("sort-merge {case} filters={filtered}");
            let run = |exec: ExecConfig| {
                let (mut machine, a, bprime) =
                    w.machine(false, LoadStyle::HashedUnique1, "normal", "normal");
                machine.exec = exec;
                // Half the inner relation's bytes: several runs to merge.
                let memory = (machine.relation(bprime).data_bytes / 2).max(8192);
                let mut spec =
                    join_abprime(Algorithm::SortMerge, bprime, a, "normal", "normal", memory);
                spec.bit_filter = filtered;
                let (result, report) = run_join_materialized(&mut machine, &spec, "result");
                let pages: Vec<Vec<u8>> = machine
                    .relation(result)
                    .fragments
                    .iter()
                    .enumerate()
                    .flat_map(|(n, &f)| {
                        let vol = machine.nodes[n].vol();
                        (0..vol.file_pages(f)).map(move |p| vol.page(f, p).as_bytes().to_vec())
                    })
                    .collect();
                (report, pages)
            };
            let (serial, serial_pages) = run(ExecConfig::serial());
            assert_eq!(
                (serial.result_tuples, serial.result_checksum),
                (expect.tuples, expect.checksum),
                "{what}: the oracle's multiset"
            );
            let (pooled, pooled_pages) = run(ExecConfig::pooled(Arc::clone(&pool)));
            assert_reports_match(&serial, &pooled, &what);
            assert!(serial_pages == pooled_pages, "{what}: result pages differ");
        }
    }
}

/// The exchange's message tables live as long as the machine and pass
/// from join to join (emptied, swapped between stream and inbox slot, a
/// few blocks kept). Four different joins back to back on one machine —
/// by-reference partitioning, hash-table evictions, bucket spools and
/// composed results through the same streams — report exactly what each
/// reports on a machine of its own, on either executor.
#[test]
fn warmed_exchange_tables_change_nothing() {
    let w = Workload::scaled(3_000, 300);
    let pool = Arc::new(WorkerPool::new(3));
    for exec in [ExecConfig::serial(), ExecConfig::pooled(pool)] {
        let (mut machine, a, bprime) =
            w.machine(true, LoadStyle::HashedUnique1, "unique1", "unique1");
        machine.exec = exec.clone();
        let memory = machine.relation(bprime).data_bytes / 5;
        for round in 0..2 {
            for alg in ALGORITHMS {
                let mut spec = join_abprime(alg, bprime, a, "unique1", "unique1", memory);
                if alg != Algorithm::SortMerge {
                    spec.site = JoinSite::Remote;
                }
                let fresh = run_cell(&w, alg, true, false, false, 5, exec.clone());
                let warmed = run_join(&mut machine, &spec);
                let what = format!("{} round {round} on a warmed machine", alg.name());
                assert_reports_match(&fresh, &warmed, &what);
            }
        }
    }
}

#[test]
fn pooled_trace_export_is_byte_identical() {
    let w = Workload::scaled(2_000, 200);
    // Every algorithm at ratio 0.5, plus the ratios of the committed
    // `results/trace-*.txt` points (grace 0.2, sort-merge 1.0).
    let mut points: Vec<(Algorithm, f64)> = ALGORITHMS.iter().map(|&alg| (alg, 0.5)).collect();
    points.extend([(Algorithm::GraceHash, 0.2), (Algorithm::SortMerge, 1.0)]);
    let pools: Vec<Arc<WorkerPool>> = [1, 2, 4, 8]
        .into_iter()
        .map(|n| Arc::new(WorkerPool::new(n)))
        .collect();
    for (alg, ratio) in points {
        for filtered in [false, true] {
            let serial = trace_join_with(&w, alg, ratio, filtered, ExecConfig::serial());
            assert!(
                !serial.sink.is_empty(),
                "{}: no events recorded",
                alg.name()
            );
            for pool in &pools {
                let pooled = trace_join_with(
                    &w,
                    alg,
                    ratio,
                    filtered,
                    ExecConfig::pooled(Arc::clone(pool)),
                );
                assert_eq!(
                    serial.perfetto_json(),
                    pooled.perfetto_json(),
                    "{} ratio {ratio} filters={filtered} pool {}: trace export differs \
                     between serial and pooled",
                    alg.name(),
                    pool.size()
                );
            }
        }
    }
}

/// The metrics registry records per-site counters and device histograms
/// fed straight from the batched data plane; serial and pooled runs of
/// the same point must render byte-identical snapshots, and every
/// snapshot must reconcile exactly against its ledger.
#[test]
fn pooled_metrics_snapshot_is_byte_identical() {
    use gamma_bench::metrics::{metrics_join_with, reconcile};

    let w = Workload::scaled(2_000, 200);
    let pool = Arc::new(WorkerPool::new(3));
    for alg in ALGORITHMS {
        for remote in [false, true] {
            // Sort-merge cannot use diskless nodes (§3.1).
            if remote && alg == Algorithm::SortMerge {
                continue;
            }
            let what = format!("{} {}", alg.name(), if remote { "remote" } else { "local" },);
            let serial = metrics_join_with(&w, alg, 0.5, false, remote, ExecConfig::serial());
            let pooled = metrics_join_with(
                &w,
                alg,
                0.5,
                false,
                remote,
                ExecConfig::pooled(Arc::clone(&pool)),
            );
            assert_reports_match(&serial.report, &pooled.report, &what);
            assert_eq!(serial.json(), pooled.json(), "{what}: metrics JSON differs");
            assert_eq!(
                serial.prometheus(),
                pooled.prometheus(),
                "{what}: prometheus export differs"
            );
            let errs = reconcile(&serial.registry, &serial.report);
            assert!(
                errs.is_empty(),
                "{what}: snapshot fails reconciliation:\n{}",
                errs.join("\n")
            );
        }
    }
}

#[test]
#[should_panic(expected = "step `kaboom` panicked at node 3: node 3 exploded")]
fn worker_panics_carry_stage_and_node_context() {
    use gamma_core::exec::run_step;
    use gamma_core::{Machine, MachineConfig, NodeId};

    let mut machine = Machine::new(MachineConfig::local_8())
        .with_exec(ExecConfig::pooled(Arc::new(WorkerPool::new(4))));
    let mut ledgers = machine.ledgers();
    let participants: Vec<NodeId> = (0..8).collect();
    let mut unit = vec![(); 8];
    run_step(
        &mut machine,
        &mut ledgers,
        "kaboom",
        &participants,
        &mut unit,
        |ctx, _| {
            if ctx.node == 3 {
                panic!("node {} exploded", ctx.node);
            }
        },
    );
}
