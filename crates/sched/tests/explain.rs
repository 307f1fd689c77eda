//! EXPLAIN reconciliation and flight-recorder observer properties over a
//! real (scaled) Wisconsin workload.
//!
//! The load-bearing acceptance property: for every query in a serve run,
//! `admission_wait + Σ(phase dispatch wait/service + cpu/disk/net
//! service/queue wait)` equals the query's ledger-charged response as
//! integer equalities — across ≥2 algorithms and N≥4 concurrent queries.
//! And the flight recorder must be a pure observer: attaching it changes
//! nothing.

use gamma_core::{Algorithm, Machine, MachineConfig};
use gamma_des::SimTime;
use gamma_sched::{engine, explain, serve, Arrivals, EngineConfig, ServeConfig};
use gamma_wisconsin::{join_abprime, load_hashed, WisconsinGen};

fn workload(alg: Algorithm, memory_ratio_pct: u64) -> (Machine, gamma_core::JoinSpec) {
    let gen = WisconsinGen::new(1989);
    let a_rows = gen.relation(2_000, 0);
    let bprime_rows = gen.sample(&a_rows, 200, 1);
    let mut machine = Machine::new(MachineConfig::local_8());
    let a = load_hashed(&mut machine, "A", &a_rows, "unique1");
    let bprime = load_hashed(&mut machine, "Bprime", &bprime_rows, "unique1");
    let memory = machine.relation(bprime).data_bytes * memory_ratio_pct / 100;
    let spec = join_abprime(alg, bprime, a, "unique1", "unique1", memory);
    (machine, spec)
}

fn cfg(queries: u32, mean_ms: u64) -> ServeConfig {
    ServeConfig {
        name: "explain-test".into(),
        case: 0,
        mean_interarrival: SimTime::from_ms(mean_ms),
        queries,
        pool_budget_pages: 10_000,
        backlog_window: None,
    }
}

#[test]
fn explain_reconciles_every_microsecond_across_algorithms() {
    // Two algorithms, six concurrent queries each, arrivals fast enough
    // to force real contention (dispatch queueing, CPU convoys, shared
    // device backlogs).
    for (alg, ratio) in [(Algorithm::HybridHash, 50), (Algorithm::GraceHash, 20)] {
        let (mut machine, spec) = workload(alg, ratio);
        let result = serve(&mut machine, &spec, &cfg(6, 1));
        assert_eq!(result.outcome.completed(), 6, "{alg:?}");
        assert!(
            result
                .outcome
                .queries
                .iter()
                .any(|q| q.response().unwrap() > result.solo.response),
            "{alg:?}: the stream must exhibit contention for the test to bite"
        );
        for (q, timing) in result.outcome.queries.iter().enumerate() {
            let explain = &result.outcome.explains[q];
            let response = timing.response().expect("completed");
            let admission = timing.admission_wait().expect("admitted");
            // Every phase accounts for its full span…
            assert_eq!(
                explain.phases.len(),
                result.plan.phases.len(),
                "{alg:?} q{q}: one breakdown per plan phase"
            );
            for (p, b) in explain.phases.iter().enumerate() {
                assert_eq!(
                    b.explained(),
                    b.span(),
                    "{alg:?} q{q} phase {p} ({}): explained components must sum to the span",
                    b.name
                );
            }
            // …and the phases telescope to the exact response.
            let explained: SimTime = admission + explain.explained_total();
            assert_eq!(
                explained,
                response,
                "{alg:?} q{q}: admission {admission} + phases {} != response {response}",
                explain.explained_total()
            );
        }
    }
}

#[test]
fn recorder_is_a_pure_observer_and_profile_reconciles() {
    let (mut machine, spec) = workload(Algorithm::HybridHash, 50);
    let c = cfg(5, 1);
    let served = serve(&mut machine, &spec, &c);
    let arrivals = Arrivals::new(&c.name, c.case, c.mean_interarrival).take_times(c.queries);
    let engine_cfg = EngineConfig {
        nodes: machine.nodes(),
        pool_budget_pages: c.pool_budget_pages,
        backlog_window: c.backlog_window,
    };
    let plans = || vec![served.plan.clone(); c.queries as usize];
    let plain = engine::run(plans(), &arrivals, &engine_cfg);
    let (recorded, profile) = engine::run_recorded(plans(), &arrivals, &engine_cfg, Some(10_000));
    let profile = profile.expect("recorder was attached");

    // The engine is what serve ran, and attaching the recorder must not
    // perturb the timeline. The plain run serves each device log in closed
    // form and the recorded run one request at a time, so every field is
    // compared: queue stats with their waits, CPU busy and stall too.
    assert_eq!(plain, served.outcome);
    assert_eq!(plain.queries, recorded.queries);
    assert_eq!(plain.makespan, recorded.makespan);
    assert_eq!(plain.explains, recorded.explains);
    assert_eq!(plain.dispatch, recorded.dispatch);
    assert_eq!(plain.ring, recorded.ring);
    assert_eq!(plain.disk, recorded.disk);
    assert_eq!(plain.net, recorded.net);
    assert_eq!(plain.cpu_busy, recorded.cpu_busy);
    assert_eq!(plain.cpu_stall, recorded.cpu_stall);

    // Busy series integrate to the engine's exact totals (no stall was
    // configured, so CPU busy spans are pure demand).
    let sum = |name: &str| -> u64 {
        profile
            .series
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing series {name}"))
            .values
            .iter()
            .map(|&v| u64::try_from(v).expect("busy values are non-negative"))
            .sum()
    };
    for n in 0..profile.nodes {
        assert_eq!(
            sum(&format!("node{n}.cpu_busy_us")),
            recorded.cpu_busy[n].as_us(),
            "node {n} cpu busy"
        );
        assert_eq!(
            sum(&format!("node{n}.disk_busy_us")),
            recorded.disk[n].service.as_us(),
            "node {n} disk busy"
        );
        assert_eq!(
            sum(&format!("node{n}.net_busy_us")),
            recorded.net[n].service.as_us(),
            "node {n} net busy"
        );
    }
    assert_eq!(sum("dispatch_busy_us"), recorded.dispatch.service.as_us());
    assert_eq!(sum("ring_busy_us"), recorded.ring.service.as_us());

    // Occupancy gauges drain by the end of the run.
    for name in ["inflight_queries", "admission_backlog"] {
        let s = profile.series.iter().find(|s| s.name == name).unwrap();
        assert_eq!(*s.values.last().unwrap(), 0, "{name} must drain");
    }
}

#[test]
fn explain_render_is_deterministic_and_reconciled() {
    let (mut m1, s1) = workload(Algorithm::GraceHash, 20);
    let a = serve(&mut m1, &s1, &cfg(4, 1));
    let (mut m2, s2) = workload(Algorithm::GraceHash, 20);
    let b = serve(&mut m2, &s2, &cfg(4, 1));
    let ra = explain::render(&a.outcome, a.solo.response);
    let rb = explain::render(&b.outcome, b.solo.response);
    assert_eq!(ra, rb, "EXPLAIN text must be byte-identical across runs");
    assert!(ra.starts_with("EXPLAIN serve: 4 queries"));
    assert_eq!(ra.matches("reconciled:").count(), 4);
    assert!(!ra.contains("never completed"));
}
