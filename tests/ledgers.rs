//! Each request log has one owner, the (phase, node) ledger that charged
//! it. A total — a phase's, a report's — is the field-wise sum of the
//! ledgers' scalar fields and carries no log. A machine sizes each log of
//! a join from the last run of the same spec, which changes storage only:
//! a join run again fills every log to exactly its capacity, with the
//! same charges.

use gamma_bench::sweep::LoadStyle;
use gamma_bench::Workload;
use gamma_core::query::{Algorithm, JoinSite, JoinSpec, OverflowPolicy};
use gamma_core::report::PhaseRecord;
use gamma_core::run_join_with_phases;
use gamma_des::Usage;
use gamma_wisconsin::join_abprime;

/// The field-wise sum of `ledgers`' scalar fields, spelled out.
fn scalar_sum<'a>(ledgers: impl IntoIterator<Item = &'a Usage>) -> Usage {
    let mut t = Usage::ZERO;
    for u in ledgers {
        t.cpu += u.cpu;
        t.disk += u.disk;
        t.net += u.net;
        t.ring_bytes += u.ring_bytes;
        t.counts += u.counts;
        t.disk_wait += u.disk_wait;
        t.net_wait += u.net_wait;
    }
    t
}

/// Every join shape the drivers take a distinct path through, as
/// `(label, remote, spec)`: the four algorithms, local and remote, on and
/// off the partitioning attribute, with and without overflow, and the
/// robust resolver. `Workload::machine` loads A and Bprime in the same
/// order on either shape, so one spec fits a fresh machine of its shape.
fn cases(w: &Workload) -> Vec<(String, bool, JoinSpec)> {
    let (m, a, b) = w.machine(false, LoadStyle::HashedUnique1, "unique1", "unique1");
    let inner = m.relation(b).data_bytes as f64;
    let mut out = Vec::new();
    for alg in Algorithm::ALL {
        for remote in [false, true] {
            if remote && alg == Algorithm::SortMerge {
                continue;
            }
            for attr in ["unique1", "unique2"] {
                for ratio in [1.0, 0.2, 0.05] {
                    let memory = (inner * ratio).ceil() as u64;
                    let mut spec = join_abprime(alg, b, a, attr, attr, memory);
                    if remote {
                        spec.site = JoinSite::Remote;
                    }
                    let what = format!("{} remote={remote} {attr} r{ratio}", alg.name());
                    out.push((what, remote, spec));
                }
            }
        }
    }
    for alg in [Algorithm::SimpleHash, Algorithm::HybridHash] {
        let mut spec = join_abprime(alg, b, a, "unique2", "unique2", inner as u64 / 2);
        spec.overflow_policy = OverflowPolicy::Optimistic;
        spec.skew_refinement = true;
        spec.dynamic_spill = true;
        out.push((
            format!("{} robust optimistic r0.5", alg.name()),
            false,
            spec,
        ));
    }
    out
}

#[test]
fn totals_are_scalar_sums_of_the_node_ledgers() {
    let w = Workload::scaled(2_000, 200);
    for (what, remote, spec) in cases(&w) {
        let (mut m, _, _) = w.machine(remote, LoadStyle::HashedUnique1, "unique1", "unique1");
        let (report, phases) = run_join_with_phases(&mut m, &spec);
        assert_eq!(report.phases.len(), phases.len(), "{what}");
        for (summary, record) in report.phases.iter().zip(&phases) {
            let want = scalar_sum(&record.ledgers);
            assert_eq!(record.total(), want, "{what}: {}", record.name);
            assert_eq!(summary.total, want, "{what}: {}", record.name);
        }
        assert!(
            phases
                .iter()
                .flat_map(|p| &p.ledgers)
                .any(|u| !u.reqs.is_empty()),
            "{what}: the node ledgers log requests"
        );
        assert_eq!(
            report.total,
            scalar_sum(phases.iter().flat_map(|p| &p.ledgers)),
            "{what}"
        );
        assert!(report.total.reqs.is_empty(), "{what}");
    }
}

#[test]
fn a_join_run_again_sizes_each_request_log_once() {
    let w = Workload::scaled(2_000, 200);
    for (what, remote, spec) in cases(&w) {
        let (mut m, _, _) = w.machine(remote, LoadStyle::HashedUnique1, "unique1", "unique1");
        let (first, first_phases) = run_join_with_phases(&mut m, &spec);
        let (again, phases) = run_join_with_phases(&mut m, &spec);
        assert_eq!(format!("{first:?}"), format!("{again:?}"), "{what}");
        assert_eq!(phases.len(), first_phases.len(), "{what}");
        for (p, q) in phases.iter().zip(&first_phases) {
            assert_eq!(
                format!("{:?}", p.ledgers),
                format!("{:?}", q.ledgers),
                "{what}"
            );
        }
        assert_sized_once(&phases, &what);
    }
}

/// Every request log of `phases` holds exactly as many requests as it
/// was reserved for.
fn assert_sized_once(phases: &[PhaseRecord], what: &str) {
    for p in phases {
        for (node, u) in p.ledgers.iter().enumerate() {
            let (disk, net) = (&u.reqs.disk, &u.reqs.net);
            assert_eq!(
                (disk.capacity(), net.capacity()),
                (disk.len(), net.len()),
                "{what}: {} node {node}",
                p.name
            );
        }
    }
}

/// Joins that take turns on one machine — as the benchmark's grids do —
/// each reserve from their own last run, not from the join before them.
#[test]
fn joins_taking_turns_each_size_their_logs_once() {
    let w = Workload::scaled(2_000, 200);
    let (mut m, a, b) = w.machine(false, LoadStyle::HashedUnique1, "unique2", "unique2");
    let memory = m.relation(b).data_bytes / 2;
    let legacy = join_abprime(Algorithm::HybridHash, b, a, "unique2", "unique2", memory);
    let robust = JoinSpec {
        skew_refinement: true,
        dynamic_spill: true,
        ..legacy.clone()
    };
    let merge = JoinSpec {
        algorithm: Algorithm::SortMerge,
        ..legacy.clone()
    };
    let specs = [legacy, robust, merge];
    for spec in &specs {
        run_join_with_phases(&mut m, spec);
    }
    for (turn, spec) in specs.iter().enumerate() {
        let (_, phases) = run_join_with_phases(&mut m, spec);
        assert_sized_once(&phases, &format!("turn {turn}"));
    }
}
