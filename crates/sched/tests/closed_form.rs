//! The engine serves each device log in closed form
//! (`SharedServer::submit_log`) unless a backlog window or a flight
//! recorder is attached; then it submits one request at a time. The two
//! paths must give the same outcome, field for field.
//!
//! A window of `u64::MAX / 4` µs never binds, so it forces the
//! per-request loop with zero stall: any difference from the window-less
//! run is a difference between the two paths.

use gamma_core::{Algorithm, Machine, MachineConfig};
use gamma_des::{DeviceLog, Request, SimTime};
use gamma_sched::{engine, Arrivals, EngineConfig, NodePlan, PhasePlan, QueryPlan, ServeOutcome};
use gamma_wisconsin::{join_abprime, load_hashed, WisconsinGen};

const NEVER_BINDS: SimTime = SimTime::from_us(u64::MAX / 4);

/// The outcome of `plans` without a window (closed form), after checking
/// that the per-request loop — forced by a window that never binds, and by
/// a flight recorder — gives the same.
fn both_paths(plans: &[QueryPlan], arrivals: &[SimTime], cfg: &EngineConfig) -> ServeOutcome {
    let closed = engine::run(plans.to_vec(), arrivals, cfg);
    let windowed = EngineConfig {
        backlog_window: Some(NEVER_BINDS),
        ..cfg.clone()
    };
    let looped = engine::run(plans.to_vec(), arrivals, &windowed);
    assert_eq!(closed, looped, "closed form differs from the windowed loop");
    let (recorded, _) = engine::run_recorded(plans.to_vec(), arrivals, cfg, Some(1_000));
    assert_eq!(
        closed, recorded,
        "closed form differs from the recorded loop"
    );
    closed
}

/// splitmix64: the seeded stream the random plans draw from.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// An issue-ordered device log whose issues stay within the convoy's CPU
/// demand, as a ledger's do: equal issues, zero services, bursts.
fn random_log(rng: &mut Mix, cpu: u64) -> DeviceLog {
    let mut issues: Vec<u64> = (0..rng.below(12))
        .map(|_| match rng.below(3) {
            0 => 0,
            1 => cpu,
            _ => rng.below(cpu + 1),
        })
        .collect();
    issues.sort_unstable();
    let requests: Vec<Request> = issues
        .into_iter()
        .map(|issue| Request {
            issue: SimTime::from_us(issue),
            service: SimTime::from_us(if rng.below(4) == 0 { 0 } else { rng.below(80) }),
        })
        .collect();
    DeviceLog::new(&requests)
}

fn random_plan(rng: &mut Mix, nodes: usize) -> QueryPlan {
    let mut phases = Vec::new();
    for p in 0..1 + rng.below(3) {
        let mut node_plans = Vec::new();
        for node in (0..nodes).filter(|_| rng.below(4) != 0).collect::<Vec<_>>() {
            let cpu = rng.below(200);
            node_plans.push(NodePlan {
                node,
                cpu: SimTime::from_us(cpu),
                disk: random_log(rng, cpu),
                net: random_log(rng, cpu),
            });
        }
        phases.push(PhasePlan {
            name: format!("p{p}").into(),
            sched_overhead: SimTime::from_us(rng.below(20)),
            ring: SimTime::from_us(if rng.below(2) == 0 { 0 } else { rng.below(150) }),
            nodes: node_plans,
        });
    }
    QueryPlan {
        phases: phases.into(),
        peak_pages: (0..nodes).map(|_| rng.below(4) as usize).collect(),
        solo_response: SimTime::ZERO,
    }
}

#[test]
fn closed_form_equals_the_loop_on_random_plans() {
    let mut rng = Mix(47);
    for case in 0..300 {
        let nodes = 1 + rng.below(4) as usize;
        let queries = 1 + rng.below(12) as usize;
        let plans: Vec<QueryPlan> = (0..queries).map(|_| random_plan(&mut rng, nodes)).collect();
        let mut t = 0;
        let arrivals: Vec<SimTime> = (0..queries)
            .map(|_| {
                t += rng.below(300);
                SimTime::from_us(t)
            })
            .collect();
        let cfg = EngineConfig {
            nodes,
            pool_budget_pages: 3 + rng.below(6) as usize,
            backlog_window: None,
        };
        let out = both_paths(&plans, &arrivals, &cfg);
        assert_eq!(out.completed(), queries, "case {case}");
    }
}

#[test]
fn closed_form_equals_the_loop_on_a_serve_template() {
    let gen = WisconsinGen::new(1989);
    let a_rows = gen.relation(2_000, 0);
    let bprime_rows = gen.sample(&a_rows, 200, 1);
    let mut machine = Machine::new(MachineConfig::local_8());
    let a = load_hashed(&mut machine, "A", &a_rows, "unique1");
    let bprime = load_hashed(&mut machine, "Bprime", &bprime_rows, "unique1");
    let memory = machine.relation(bprime).data_bytes / 2;
    let spec = join_abprime(
        Algorithm::HybridHash,
        bprime,
        a,
        "unique1",
        "unique1",
        memory,
    );
    let (plan, report) = gamma_sched::extract(&mut machine, &spec);
    let bound_qps = 1.0 / report.demand.bottleneck();
    let cfg = EngineConfig {
        nodes: machine.nodes(),
        pool_budget_pages: plan.max_peak_pages() * 3,
        backlog_window: None,
    };
    let queries = 200;
    let plans = vec![plan; queries as usize];
    for load in [0.3, 0.5, 0.7, 0.9, 1.2, 2.0, 3.0] {
        let mean = SimTime::from_us((1e6 / (bound_qps * load)).round().max(1.0) as u64);
        let arrivals = Arrivals::new("closed-form", 0, mean).take_times(queries);
        let out = both_paths(&plans, &arrivals, &cfg);
        assert_eq!(out.completed(), queries as usize, "load {load}");
        if load >= 1.0 {
            assert!(
                out.disk
                    .iter()
                    .chain(&out.net)
                    .any(|s| s.wait > SimTime::ZERO),
                "load {load}: the devices must queue for the check to bite"
            );
        }
    }
}
