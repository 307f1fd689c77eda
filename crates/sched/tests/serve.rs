//! End-to-end serving tests over a real (scaled) Wisconsin workload.
//!
//! The load-bearing property: serving N=1 query reproduces the solo
//! `run_join` response *exactly* — the serve engine is a strict
//! generalization of the single-query replay, not an approximation.

use gamma_core::{Algorithm, Machine, MachineConfig};
use gamma_des::SimTime;
use gamma_sched::{serve, ServeConfig};
use gamma_wisconsin::{join_abprime, load_hashed, WisconsinGen};

fn workload() -> (Machine, gamma_core::JoinSpec) {
    let gen = WisconsinGen::new(1989);
    let a_rows = gen.relation(2_000, 0);
    let bprime_rows = gen.sample(&a_rows, 200, 1);
    let mut machine = Machine::new(MachineConfig::local_8());
    let a = load_hashed(&mut machine, "A", &a_rows, "unique1");
    let bprime = load_hashed(&mut machine, "Bprime", &bprime_rows, "unique1");
    let memory = machine.relation(bprime).data_bytes;
    let spec = join_abprime(
        Algorithm::HybridHash,
        bprime,
        a,
        "unique1",
        "unique1",
        memory,
    );
    (machine, spec)
}

fn cfg(queries: u32, mean_ms: u64, budget: usize) -> ServeConfig {
    ServeConfig {
        name: "serve-test".into(),
        case: 0,
        mean_interarrival: SimTime::from_ms(mean_ms),
        queries,
        pool_budget_pages: budget,
        backlog_window: None,
    }
}

#[test]
fn serving_one_query_reproduces_the_solo_response() {
    let (mut machine, spec) = workload();
    let result = serve(&mut machine, &spec, &cfg(1, 1, 10_000));
    assert_eq!(result.plan.solo_response, result.solo.response);
    assert_eq!(
        result.outcome.queries[0].response(),
        Some(result.solo.response),
        "N=1 serving must reproduce the single-query replay exactly"
    );
    assert_eq!(
        result.outcome.queries[0].admission_wait(),
        Some(SimTime::ZERO)
    );
}

#[test]
fn serving_is_deterministic() {
    let (mut m1, s1) = workload();
    let (mut m2, s2) = workload();
    let a = serve(&mut m1, &s1, &cfg(6, 2, 10_000));
    let b = serve(&mut m2, &s2, &cfg(6, 2, 10_000));
    assert_eq!(a.outcome.queries, b.outcome.queries);
    assert_eq!(a.outcome.makespan, b.outcome.makespan);
    assert_eq!(a.total_usage(), b.total_usage());
}

#[test]
fn concurrent_ledgers_reconcile_exactly() {
    let (mut machine, spec) = workload();
    let n = 5u32;
    let result = serve(&mut machine, &spec, &cfg(n, 1, 10_000));
    assert_eq!(result.outcome.completed(), n as usize);
    // Homogeneous stream: the serve total is exactly N times the solo
    // total, as integer ledger equality (physical work is identical and
    // independent of the timing interleave).
    let expected: gamma_des::Usage = std::iter::repeat_n(&result.solo.total, n as usize).sum();
    let got = result.total_usage();
    assert_eq!(got.cpu, expected.cpu);
    assert_eq!(got.disk, expected.disk);
    assert_eq!(got.net, expected.net);
    assert_eq!(got.ring_bytes, expected.ring_bytes);
    assert_eq!(got.counts, expected.counts);
}

#[test]
fn total_usage_is_the_reports_scalar_sum() {
    let (mut machine, spec) = workload();
    let result = serve(&mut machine, &spec, &cfg(3, 1, 10_000));
    let mut want = gamma_des::Usage::ZERO;
    for r in &result.reports {
        let t = &r.total;
        want.cpu += t.cpu;
        want.disk += t.disk;
        want.net += t.net;
        want.ring_bytes += t.ring_bytes;
        want.counts += t.counts;
        want.disk_wait += t.disk_wait;
        want.net_wait += t.net_wait;
    }
    let got = result.total_usage();
    assert!(got.reqs.is_empty(), "a serve total owns no request log");
    assert_eq!(got, want);
    assert!(got.counts.pages_read > 0 && got.disk_wait > gamma_des::SimTime::ZERO);
}

#[test]
fn contention_never_beats_solo_response() {
    let (mut machine, spec) = workload();
    // Arrivals much faster than service: heavy contention.
    let result = serve(&mut machine, &spec, &cfg(8, 1, 10_000));
    let solo = result.solo.response;
    for (i, q) in result.outcome.queries.iter().enumerate() {
        let r = q.response().expect("all queries complete");
        assert!(
            r >= solo,
            "query {i} responded in {r}, faster than solo {solo}"
        );
    }
    // And at least one query actually queued behind another.
    assert!(
        result
            .outcome
            .queries
            .iter()
            .any(|q| q.response().unwrap() > solo),
        "an overloaded open-loop stream must show queueing delay"
    );
}

#[test]
fn tight_page_budget_serializes_admission() {
    let (mut m1, s1) = workload();
    let open = serve(&mut m1, &s1, &cfg(4, 1, 10_000));
    let peak = open.plan.max_peak_pages();
    assert!(peak > 0, "a hybrid join must touch the buffer pool");

    let (mut m2, s2) = workload();
    // Budget fits exactly one query's footprint: MPL = 1.
    let tight = serve(&mut m2, &s2, &cfg(4, 1, peak));
    let total_admission_wait: SimTime = tight
        .outcome
        .queries
        .iter()
        .map(|q| q.admission_wait().unwrap())
        .sum();
    assert!(
        total_admission_wait > SimTime::ZERO,
        "an MPL-1 budget must make later arrivals wait at admission"
    );
    // Admissions are serialized: each query is admitted exactly when its
    // predecessor finishes (or at its own arrival, whichever is later).
    for w in tight.outcome.queries.windows(2) {
        let prev_done = w[0].finished.unwrap();
        let expect = prev_done.max(w[1].arrival);
        assert_eq!(w[1].admitted, Some(expect));
    }
}
