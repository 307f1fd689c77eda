//! Flight-recorder acceptance properties: the rendered artifacts — the
//! series JSON, the CSV and the merged Perfetto export — must be
//! byte-identical across runs and across executors (serial and pool
//! sizes 1/2/8). The profile is a pure function of the replayed ledgers,
//! so the host executor must be invisible in it.

use std::sync::Arc;

use gamma_bench::prof::{merged_perfetto, render_csv, render_json, solo_profile_with};
use gamma_bench::Workload;
use gamma_core::query::Algorithm;
use gamma_core::{ExecConfig, WorkerPool};

#[test]
fn profiles_are_byte_identical_across_runs_and_pool_sizes() {
    let w = Workload::scaled(2_000, 200);
    let serial = solo_profile_with(&w, Algorithm::GraceHash, 0.2, 10_000, ExecConfig::serial());
    let reference_json = render_json(&serial);
    let reference_csv = render_csv(&serial);
    let merged = |run: &gamma_bench::prof::ProfRun, exec| {
        merged_perfetto(&w, Algorithm::GraceHash, 0.2, &run.profile, exec)
    };
    let reference_perfetto = merged(&serial, ExecConfig::serial());

    // Run-to-run identity on the same executor.
    let again = solo_profile_with(&w, Algorithm::GraceHash, 0.2, 10_000, ExecConfig::serial());
    assert_eq!(reference_json, render_json(&again));
    assert_eq!(reference_csv, render_csv(&again));
    assert_eq!(reference_perfetto, merged(&again, ExecConfig::serial()));

    // Executor invariance: pools of 1, 2 and 8 workers all reproduce the
    // serial artifacts byte for byte.
    for workers in [1usize, 2, 8] {
        let pool = Arc::new(WorkerPool::new(workers));
        let run = solo_profile_with(
            &w,
            Algorithm::GraceHash,
            0.2,
            10_000,
            ExecConfig::pooled(Arc::clone(&pool)),
        );
        assert_eq!(reference_json, render_json(&run), "pool size {workers}");
        assert_eq!(reference_csv, render_csv(&run), "pool size {workers}");
        assert_eq!(
            reference_perfetto,
            merged(&run, ExecConfig::pooled(pool)),
            "pool size {workers}"
        );
    }
}

#[test]
fn both_tracked_algorithms_profile_cleanly() {
    // The two committed artifact points (at test scale): hybrid r50 and
    // grace r20 both produce well-formed, reconciling profiles.
    let w = Workload::scaled(2_000, 200);
    for (alg, ratio) in [(Algorithm::HybridHash, 0.5), (Algorithm::GraceHash, 0.2)] {
        let run = solo_profile_with(&w, alg, ratio, 10_000, ExecConfig::auto());
        let doc = render_json(&run);
        assert!(doc.contains("\"benchmark\": \"prof\""));
        assert!(doc.contains("\"series\": ["));
        let last_tick_of = |name: &str| -> i64 {
            *run.profile
                .series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing series {name}"))
                .values
                .last()
                .unwrap()
        };
        // The solo query drains by the final sampled boundary.
        assert_eq!(last_tick_of("inflight_queries"), 0, "{alg:?}");
        assert_eq!(last_tick_of("admission_backlog"), 0, "{alg:?}");
    }
}
