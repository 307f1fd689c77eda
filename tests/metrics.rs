//! Metrics subsystem integration tests: deterministic snapshots,
//! serial-vs-pooled equality, and exact reconciliation of every metric
//! family against the engine's own resource ledgers.

use gamma_bench::metrics::{metrics_join, metrics_join_with, reconcile};
use gamma_bench::Workload;
use gamma_core::query::Algorithm;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::SortMerge,
    Algorithm::SimpleHash,
    Algorithm::GraceHash,
    Algorithm::HybridHash,
];

/// Two metered runs of the same point must export byte-identical
/// snapshots — the property that makes `results/metrics-*.json` usable as
/// golden regression files.
#[test]
fn snapshots_are_byte_identical_across_runs() {
    let w = Workload::scaled(2_000, 200);
    for alg in ALGORITHMS {
        let a = metrics_join(&w, alg, 0.5, true, false);
        let b = metrics_join(&w, alg, 0.5, true, false);
        assert!(
            !a.registry.is_empty(),
            "{}: no metrics recorded",
            alg.name()
        );
        assert_eq!(
            a.json(),
            b.json(),
            "{}: JSON snapshot differs across runs",
            alg.name()
        );
        assert_eq!(
            a.prometheus(),
            b.prometheus(),
            "{}: Prometheus export differs across runs",
            alg.name()
        );
    }
}

/// Every metric family must reconcile exactly with the ledgers for every
/// algorithm, locally and on diskless join nodes (remote sort-merge is
/// unsupported, as in the paper), filtered and not: the ledger mirror sums
/// to the report totals, each site-mirrored counter sums to the ledger
/// counter it shadows, and the device histograms account for every charged
/// microsecond.
#[test]
fn all_algorithms_reconcile_with_ledger() {
    let w = Workload::scaled(2_000, 200);
    for filtered in [false, true] {
        for remote in [false, true] {
            for alg in ALGORITHMS {
                if remote && alg == Algorithm::SortMerge {
                    continue;
                }
                let run = metrics_join(&w, alg, 0.5, filtered, remote);
                let errs = reconcile(&run.registry, &run.report);
                assert!(
                    errs.is_empty(),
                    "{} (filtered={filtered}, remote={remote}) failed reconciliation:\n{}",
                    alg.name(),
                    errs.join("\n")
                );
                assert_eq!(
                    run.registry.phases().len(),
                    run.report.phases.len(),
                    "{}: one sealed metrics phase per report phase",
                    alg.name()
                );
            }
        }
    }
}

/// The registry observes the run without perturbing it: response time and
/// result checksum are identical with and without metering.
#[test]
fn metering_never_changes_the_simulation() {
    let w = Workload::scaled(2_000, 200);
    for alg in ALGORITHMS {
        let bare = gamma_bench::SweepBuilder::new(&w).run_one(alg, 0.5);
        let metered = metrics_join(&w, alg, 0.5, false, false);
        assert_eq!(
            bare.report.response,
            metered.report.response,
            "{}: metering changed the simulated response",
            alg.name()
        );
        assert_eq!(
            bare.report.result_checksum,
            metered.report.result_checksum,
            "{}: metering changed the result",
            alg.name()
        );
    }
}

/// With no registry or trace sink installed the emission hooks are inert:
/// nothing is recorded anywhere, a registry installed *after* a run stays
/// empty, and the report is the one an observed run produces.
#[test]
fn emissions_are_inert_without_installed_registry() {
    let w = Workload::scaled(1_000, 100);
    assert!(gamma_metrics::take().is_none(), "no leftover registry");
    assert!(gamma_trace::take().is_none(), "no leftover sink");
    let p = gamma_bench::SweepBuilder::new(&w).run_one(Algorithm::HybridHash, 0.5);
    assert!(p.report.result_tuples > 0);
    assert!(
        gamma_metrics::take().is_none(),
        "un-metered run must not install a registry"
    );
    assert!(
        gamma_trace::take().is_none(),
        "un-traced run must not install a sink"
    );
    gamma_metrics::install(gamma_metrics::Registry::new());
    let reg = gamma_metrics::take().expect("installed above");
    assert!(reg.is_empty(), "fresh registry polluted by previous run");

    let traced = gamma_bench::tracing::trace_join(&w, Algorithm::HybridHash, 0.5, false);
    assert!(
        traced.sink.events().count() > 0,
        "traced run recorded nothing"
    );
    assert_eq!(
        format!("{:?}", p.report),
        format!("{:?}", traced.report),
        "an installed sink changed the report"
    );
}

/// The serial and pooled executors must produce byte-identical snapshots:
/// worker-registry merging is commutative and phase attribution is pinned
/// before a step's bundles are dispatched.
#[test]
fn pooled_executor_produces_identical_snapshots() {
    use std::sync::Arc;

    use gamma_core::{ExecConfig, WorkerPool};

    let w = Workload::scaled(2_000, 200);
    let pool = Arc::new(WorkerPool::new(4));
    for alg in ALGORITHMS {
        let serial = metrics_join_with(&w, alg, 0.5, true, false, ExecConfig::serial());
        let pooled = metrics_join_with(
            &w,
            alg,
            0.5,
            true,
            false,
            ExecConfig::pooled(Arc::clone(&pool)),
        );
        assert_eq!(
            serial.json(),
            pooled.json(),
            "{}: executors disagree on the JSON snapshot",
            alg.name()
        );
        assert_eq!(
            serial.prometheus(),
            pooled.prometheus(),
            "{}: executors disagree on the Prometheus export",
            alg.name()
        );
        let errs = reconcile(&pooled.registry, &pooled.report);
        assert!(
            errs.is_empty(),
            "{} (pooled) failed reconciliation:\n{}",
            alg.name(),
            errs.join("\n")
        );
    }
}
