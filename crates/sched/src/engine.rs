//! The serve engine: interleave many query plans over one machine's
//! shared device queues.
//!
//! The engine is a discrete-event simulation (on the stock
//! [`gamma_des::Sim`] kernel) whose events are query arrivals, per-query
//! phase launches, and completions. Contention is modelled with the
//! cross-phase [`SharedServer`] queues PR 3's per-phase drains promised:
//!
//! * one **dispatch** server — the Gamma scheduler process serializes
//!   phase launches, each costing that phase's `sched_overhead`;
//! * one **ring** server — a phase's aggregate ring occupancy reserves
//!   the shared interconnect FIFO;
//! * per node, a **CPU convoy clock** (`cpu_free`) — a node runs one
//!   phase's operator processes at a time, non-preemptively, exactly like
//!   the solo queued model;
//! * per node, a **disk** and a **NI** [`SharedServer`] whose backlogs
//!   persist *across phases and queries* — the cross-phase promotion that
//!   closes the ROADMAP limitation.
//!
//! ## Event flow
//!
//! An `Arrival(q)` enqueues the query at admission control: a FIFO with
//! head-of-line blocking that admits when, on every node, reserved pages
//! plus the query's solo buffer-pool peak fit the per-node budget.
//! Admission launches phase 0. A phase launch at time `t` computes the
//! phase's end synchronously: `start = dispatch.submit(t, overhead)`;
//! per participating node `cpu_start = max(start, cpu_free[node])`; each
//! logged device request arrives at `cpu_start + issue` (in issue order,
//! disk winning ties) at its node's shared server; the node finishes at
//! `max(cpu_end, last device completion)`; the phase ends at the max over
//! nodes, floored by `ring.submit(start, ring_occupancy)`. The next phase
//! (or the completion, which releases the admission reservation and
//! re-polls the queue) is scheduled at that end time.
//!
//! ## Back-pressure
//!
//! With `backlog_window = Some(w)`, a device request that waited `wait`
//! in queue stalls its node's CPU by `wait − w` (the operator blocks once
//! the device backlog exceeds the window), shifting every later request
//! of that convoy and extending the convoy's CPU occupancy. `None` (the
//! default) keeps devices fully asynchronous — and keeps an unloaded
//! serve byte-identical to the solo replay.
//!
//! ## Determinism and FIFO safety
//!
//! Everything is integer virtual time on a deterministic kernel, so a
//! serve is reproducible bit-for-bit. [`SharedServer::submit`] requires
//! non-decreasing arrivals; each use site satisfies it structurally:
//! the dispatch server is fed event times (monotone), the ring server is
//! fed dispatch completions (monotone because the dispatch clock only
//! moves forward), and a node's device servers are fed
//! `cpu_start + issue + stall` where `issue ≤ cpu demand` — so every
//! arrival of one convoy is ≤ the node's `cpu_free`, which is ≤ the next
//! convoy's `cpu_start`.

use std::collections::VecDeque;

use gamma_des::{SharedServer, Sim, SimTime};
use gamma_metrics::Histogram;
use gamma_prof::{Device, FlightProfile, FlightRecorder};

use crate::explain::{PhaseBreakdown, QueryExplain};
use crate::plan::QueryPlan;
use crate::report::{QueryTiming, ServeOutcome};

/// Engine knobs (the machine shape comes from the plans).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of nodes (device queues and page budgets are per node).
    pub nodes: usize,
    /// Per-node buffer-pool page budget admission reserves against.
    pub pool_budget_pages: usize,
    /// Mid-phase CPU back-pressure window; `None` = fully asynchronous
    /// devices (solo-equivalent).
    pub backlog_window: Option<SimTime>,
}

struct EngineState {
    plans: Vec<QueryPlan>,
    budget: usize,
    backlog_window: Option<SimTime>,
    dispatch: SharedServer,
    ring: SharedServer,
    cpu_free: Vec<SimTime>,
    cpu_busy: Vec<SimTime>,
    cpu_stall: Vec<SimTime>,
    disk: Vec<SharedServer>,
    net: Vec<SharedServer>,
    reserved: Vec<usize>,
    waiting: VecDeque<usize>,
    records: Vec<QueryTiming>,
    explains: Vec<QueryExplain>,
    disk_wait_hist: Histogram,
    net_wait_hist: Histogram,
    /// Flight recorder (present only under [`run_recorded`]); owned by the
    /// state so event closures stay capture-light.
    rec: Option<FlightRecorder>,
}

fn try_admit(sim: &mut Sim<EngineState>) {
    loop {
        let now = sim.now();
        let st = &mut sim.state;
        let Some(&q) = st.waiting.front() else { return };
        let peaks = &st.plans[q].peak_pages;
        let fits = st
            .reserved
            .iter()
            .enumerate()
            .all(|(n, &r)| r + peaks.get(n).copied().unwrap_or(0) <= st.budget);
        if !fits {
            // Head-of-line blocking: later arrivals wait behind the head
            // even if they would fit, preserving FIFO completion order
            // for homogeneous workloads.
            return;
        }
        st.waiting.pop_front();
        for (n, r) in st.reserved.iter_mut().enumerate() {
            *r += peaks.get(n).copied().unwrap_or(0);
        }
        st.records[q].admitted = Some(now);
        if let Some(rec) = st.rec.as_mut() {
            rec.query_admitted(now);
            for (n, &p) in st.plans[q].peak_pages.iter().enumerate() {
                if p > 0 {
                    rec.pool_pages(n, now, p as i64);
                }
            }
        }
        sim.schedule_at(now, move |s| run_phase(s, q, 0));
    }
}

fn run_phase(sim: &mut Sim<EngineState>, q: usize, p: usize) {
    let now = sim.now();
    if p >= sim.state.plans[q].phases.len() {
        complete(sim, q);
        return;
    }
    let last = p + 1 == sim.state.plans[q].phases.len();
    let st = &mut sim.state;
    // The phase plan's request logs are walked while the shared servers
    // are mutated: disjoint fields of the state, borrowed side by side.
    let ph = &st.plans[q].phases[p];

    let dspan = st.dispatch.submit_span(now, ph.sched_overhead);
    let start = dspan.completion;
    if let Some(rec) = st.rec.as_mut() {
        rec.dispatch(dspan.arrival, dspan.start, dspan.completion);
    }
    let mut end = start;
    // Critical-path attribution for EXPLAIN: whichever determinant last
    // raised `end` (a device completion, a CPU convoy end, or the ring)
    // owns the phase body, split into its service and wait components.
    // Every candidate's components sum exactly to `candidate − start`, so
    // the recorded breakdown always satisfies
    // `end − launch = dispatch_wait + dispatch_service + Σ components`.
    let mut crit_cpu = SimTime::ZERO;
    let mut crit_disk = SimTime::ZERO;
    let mut crit_net = SimTime::ZERO;
    let mut crit_wait = SimTime::ZERO;
    for np in &ph.nodes {
        let cpu_start = start.max(st.cpu_free[np.node]);
        let cpu_head_wait = cpu_start - start;
        let mut stall = SimTime::ZERO;
        let (mut di, mut ni) = (0, 0);
        while di < np.disk.len() || ni < np.net.len() {
            let take_disk = match (np.disk.get(di), np.net.get(ni)) {
                (Some(d), Some(n)) => d.issue <= n.issue,
                (Some(_), None) => true,
                _ => false,
            };
            let r = if take_disk { np.disk[di] } else { np.net[ni] };
            let stall_before = stall;
            let arrival = cpu_start + r.issue + stall_before;
            let server = if take_disk {
                &mut st.disk[np.node]
            } else {
                &mut st.net[np.node]
            };
            let span = server.submit_span(arrival, r.service);
            let done = span.completion;
            let wait = span.wait();
            if let Some(rec) = st.rec.as_mut() {
                let dev = if take_disk { Device::Disk } else { Device::Net };
                rec.device(np.node, dev, span.arrival, span.start, span.completion);
            }
            let hist = if take_disk {
                &mut st.disk_wait_hist
            } else {
                &mut st.net_wait_hist
            };
            hist.observe(wait.as_us());
            if let Some(w) = st.backlog_window {
                if wait > w {
                    stall += wait - w;
                }
            }
            if done > end {
                end = done;
                // done − start = cpu_head_wait + issue + stall_before
                //              + wait + service.
                crit_cpu = r.issue;
                crit_disk = if take_disk { r.service } else { SimTime::ZERO };
                crit_net = if take_disk { SimTime::ZERO } else { r.service };
                crit_wait = cpu_head_wait + stall_before + wait;
            }
            if take_disk {
                di += 1;
            } else {
                ni += 1;
            }
        }
        let cpu_end = cpu_start + np.cpu + stall;
        st.cpu_free[np.node] = cpu_end;
        st.cpu_busy[np.node] += np.cpu;
        st.cpu_stall[np.node] += stall;
        if let Some(rec) = st.rec.as_mut() {
            rec.cpu_busy(np.node, cpu_start, cpu_end);
        }
        if cpu_end > end {
            end = cpu_end;
            // cpu_end − start = cpu_head_wait + cpu + stall.
            crit_cpu = np.cpu;
            crit_disk = SimTime::ZERO;
            crit_net = SimTime::ZERO;
            crit_wait = cpu_head_wait + stall;
        }
    }
    if ph.ring > SimTime::ZERO {
        let rspan = st.ring.submit_span(start, ph.ring);
        if let Some(rec) = st.rec.as_mut() {
            rec.ring(rspan.arrival, rspan.start, rspan.completion);
        }
        if rspan.completion > end {
            end = rspan.completion;
            // completion − start = ring wait + ring occupancy.
            crit_cpu = SimTime::ZERO;
            crit_disk = SimTime::ZERO;
            crit_net = ph.ring;
            crit_wait = rspan.wait();
        }
    }
    let breakdown = PhaseBreakdown {
        name: ph.name.clone(),
        launch: now,
        end,
        dispatch_wait: dspan.wait(),
        dispatch_service: ph.sched_overhead,
        cpu_service: crit_cpu,
        disk_service: crit_disk,
        net_service: crit_net,
        queue_wait: crit_wait,
    };
    debug_assert_eq!(
        breakdown.explained(),
        breakdown.span(),
        "EXPLAIN breakdown must account for every microsecond of {} q{q} p{p}",
        ph.name
    );
    st.explains[q].phases.push(breakdown);

    if last {
        sim.schedule_at(end, move |s| complete(s, q));
    } else {
        sim.schedule_at(end, move |s| run_phase(s, q, p + 1));
    }
}

fn complete(sim: &mut Sim<EngineState>, q: usize) {
    let now = sim.now();
    let st = &mut sim.state;
    st.records[q].finished = Some(now);
    debug_assert_eq!(
        st.records[q]
            .admitted
            .map(|a| a + st.explains[q].explained_total()),
        Some(now),
        "q{q}: explained phase spans must telescope to the completion time"
    );
    let peaks = &st.plans[q].peak_pages;
    for (n, r) in st.reserved.iter_mut().enumerate() {
        let p = peaks.get(n).copied().unwrap_or(0);
        debug_assert!(*r >= p, "admission reservation underflow");
        *r -= p;
    }
    if let Some(rec) = st.rec.as_mut() {
        rec.query_finished(now);
        for (n, &p) in st.plans[q].peak_pages.iter().enumerate() {
            if p > 0 {
                rec.pool_pages(n, now, -(p as i64));
            }
        }
    }
    try_admit(sim);
}

/// Interleave `plans` (query `q` arrives at `arrivals[q]`) over one
/// machine under `cfg`. Arrival times must be non-decreasing; every
/// plan's per-node peak must fit the budget (otherwise the head-of-line
/// queue could never drain).
pub fn run(plans: Vec<QueryPlan>, arrivals: &[SimTime], cfg: &EngineConfig) -> ServeOutcome {
    run_recorded(plans, arrivals, cfg, None).0
}

/// [`run`], plus a gamma-prof flight recorder sampling the run at a fixed
/// virtual-time tick. Returns the profile alongside the outcome; with
/// `tick_us = None` no recorder is attached and the profile is `None`.
///
/// The recorder only observes quantities the engine already computes from
/// [`SharedServer`] submissions — attaching it cannot perturb the
/// timeline, so the outcome is identical to [`run`]'s (the serve tests
/// pin this).
pub fn run_recorded(
    plans: Vec<QueryPlan>,
    arrivals: &[SimTime],
    cfg: &EngineConfig,
    tick_us: Option<u64>,
) -> (ServeOutcome, Option<FlightProfile>) {
    assert_eq!(plans.len(), arrivals.len(), "one arrival time per plan");
    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrival times must be non-decreasing"
    );
    for (q, plan) in plans.iter().enumerate() {
        assert!(
            plan.max_peak_pages() <= cfg.pool_budget_pages,
            "query {q} needs {} pages on some node but the budget is {}",
            plan.max_peak_pages(),
            cfg.pool_budget_pages
        );
    }

    let records = arrivals
        .iter()
        .map(|&t| QueryTiming {
            arrival: t,
            admitted: None,
            finished: None,
        })
        .collect();
    let explains = vec![QueryExplain::default(); arrivals.len()];
    let state = EngineState {
        plans,
        budget: cfg.pool_budget_pages,
        backlog_window: cfg.backlog_window,
        dispatch: SharedServer::new(),
        ring: SharedServer::new(),
        cpu_free: vec![SimTime::ZERO; cfg.nodes],
        cpu_busy: vec![SimTime::ZERO; cfg.nodes],
        cpu_stall: vec![SimTime::ZERO; cfg.nodes],
        disk: vec![SharedServer::new(); cfg.nodes],
        net: vec![SharedServer::new(); cfg.nodes],
        reserved: vec![0; cfg.nodes],
        waiting: VecDeque::new(),
        records,
        explains,
        disk_wait_hist: Histogram::default(),
        net_wait_hist: Histogram::default(),
        rec: tick_us.map(|t| FlightRecorder::new(cfg.nodes, t)),
    };

    let mut sim = Sim::untraced(state);
    for (q, &t) in arrivals.iter().enumerate() {
        sim.schedule_at(t, move |s| {
            let now = s.now();
            s.state.waiting.push_back(q);
            if let Some(rec) = s.state.rec.as_mut() {
                rec.query_arrival(now);
            }
            try_admit(s);
        });
    }
    let makespan = sim.run_until_idle();

    let st = sim.state;
    let profile = st.rec.map(|rec| rec.profile(makespan));
    let outcome = ServeOutcome {
        queries: st.records,
        makespan,
        dispatch: st.dispatch.stats(),
        ring: st.ring.stats(),
        disk: st.disk.iter().map(SharedServer::stats).collect(),
        net: st.net.iter().map(SharedServer::stats).collect(),
        cpu_busy: st.cpu_busy,
        cpu_stall: st.cpu_stall,
        disk_wait_hist: st.disk_wait_hist,
        net_wait_hist: st.net_wait_hist,
        explains: st.explains,
    };
    (outcome, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::plan::{NodePlan, PhasePlan, QueryPlan};
    use gamma_des::Request;

    fn req(issue: u64, service: u64) -> Request {
        Request {
            issue: SimTime::from_us(issue),
            service: SimTime::from_us(service),
        }
    }

    fn one_phase_plan() -> QueryPlan {
        QueryPlan {
            phases: Arc::new([PhasePlan {
                name: "scan".into(),
                sched_overhead: SimTime::from_us(10),
                ring: SimTime::from_us(40),
                nodes: vec![NodePlan {
                    node: 0,
                    cpu: SimTime::from_us(100),
                    disk: vec![req(0, 30), req(50, 30)],
                    net: vec![req(20, 5)],
                }],
            }]),
            peak_pages: Arc::new([4]),
            solo_response: SimTime::from_us(110),
        }
    }

    fn cfg(nodes: usize, budget: usize) -> EngineConfig {
        EngineConfig {
            nodes,
            pool_budget_pages: budget,
            backlog_window: None,
        }
    }

    #[test]
    fn solo_query_matches_hand_computation() {
        // start = 0+10; disk: [10..40], [60+? issue 50 -> arr 60, done 90];
        // net: arr 30, done 35; cpu_end = 110; ring floor = 10+40 = 50.
        // end = max(110, 90, 35, 50) = 110; response = 110 - 0.
        let out = run(vec![one_phase_plan()], &[SimTime::ZERO], &cfg(1, 8));
        assert_eq!(out.queries[0].response(), Some(SimTime::from_us(110)));
        assert_eq!(out.queries[0].admission_wait(), Some(SimTime::ZERO));
        assert_eq!(out.makespan, SimTime::from_us(110));
        // No contention: every device request started at its arrival.
        assert_eq!(out.disk[0].wait, SimTime::ZERO);
        assert_eq!(out.net[0].wait, SimTime::ZERO);
    }

    #[test]
    fn admission_blocks_until_pages_free() {
        // Budget fits one query at a time; the second waits for the first
        // to complete even though it arrives earlier.
        let plans = vec![one_phase_plan(), one_phase_plan()];
        let out = run(plans, &[SimTime::ZERO, SimTime::from_us(5)], &cfg(1, 4));
        assert_eq!(out.queries[0].admitted, Some(SimTime::ZERO));
        // Admitted exactly when query 0 completes.
        assert_eq!(out.queries[1].admitted, out.queries[0].finished);
        assert_eq!(out.queries[1].admission_wait(), Some(SimTime::from_us(105)));
    }

    #[test]
    fn shared_devices_carry_backlog_between_queries() {
        // Two queries admitted together (budget 8): the dispatch server
        // serializes launches, the CPU convoys serialize on node 0, and
        // the disk backlog from query 0 delays query 1's first request.
        let plans = vec![one_phase_plan(), one_phase_plan()];
        let out = run(plans, &[SimTime::ZERO, SimTime::ZERO], &cfg(1, 8));
        // q0 as solo, but dispatch pushed q1's start to 20 and node 0's
        // CPU convoy to 110: cpu_start=110, disk reqs arrive 110,160 on a
        // disk free at 90 -> no disk wait, cpu_end = 210.
        assert_eq!(out.queries[0].finished, Some(SimTime::from_us(110)));
        assert_eq!(out.queries[1].finished, Some(SimTime::from_us(210)));
        // Ring saw both phases' occupancy back to back.
        assert_eq!(out.ring.service, SimTime::from_us(80));
        assert_eq!(out.dispatch.requests, 2);
    }

    #[test]
    fn backlog_window_stalls_the_convoy() {
        // One node, disk requests dense enough to queue: with a zero
        // window every microsecond of device wait stalls the CPU.
        let plan = QueryPlan {
            phases: Arc::new([PhasePlan {
                name: "x".into(),
                sched_overhead: SimTime::ZERO,
                ring: SimTime::ZERO,
                nodes: vec![NodePlan {
                    node: 0,
                    cpu: SimTime::from_us(10),
                    disk: vec![req(0, 20), req(5, 20)],
                    net: vec![],
                }],
            }]),
            peak_pages: Arc::new([1]),
            solo_response: SimTime::ZERO,
        };
        let free = run(
            vec![plan.clone()],
            &[SimTime::ZERO],
            &EngineConfig {
                nodes: 1,
                pool_budget_pages: 4,
                backlog_window: None,
            },
        );
        // req1 arrives at 5, disk free at 20 -> wait 15, done 40;
        // cpu_end = 10; end = 40.
        assert_eq!(free.makespan, SimTime::from_us(40));
        assert_eq!(free.cpu_stall[0], SimTime::ZERO);

        let pressed = run(
            vec![plan],
            &[SimTime::ZERO],
            &EngineConfig {
                nodes: 1,
                pool_budget_pages: 4,
                backlog_window: Some(SimTime::ZERO),
            },
        );
        // Same device timeline, but the 15 µs wait stalls the CPU:
        // cpu_end = 10 + 15 = 25; end still 40, stall recorded.
        assert_eq!(pressed.cpu_stall[0], SimTime::from_us(15));
        assert_eq!(pressed.makespan, SimTime::from_us(40));
    }

    #[test]
    fn fifo_admission_is_head_of_line() {
        // Query 1 is small and would fit while query 0's big sibling
        // runs, but FIFO admission holds it behind the head.
        let big = QueryPlan {
            peak_pages: Arc::new([4]),
            ..one_phase_plan()
        };
        let small = QueryPlan {
            peak_pages: Arc::new([1]),
            ..one_phase_plan()
        };
        let out = run(
            vec![big.clone(), big, small],
            &[SimTime::ZERO, SimTime::from_us(1), SimTime::from_us(2)],
            &cfg(1, 4),
        );
        let a1 = out.queries[1].admitted.unwrap();
        let a2 = out.queries[2].admitted.unwrap();
        assert!(a2 >= a1, "small query must not jump the FIFO: {a2} < {a1}");
    }

    #[test]
    #[should_panic(expected = "needs 5 pages")]
    fn oversized_query_is_rejected_up_front() {
        let plan = QueryPlan {
            peak_pages: Arc::new([5]),
            ..one_phase_plan()
        };
        run(vec![plan], &[SimTime::ZERO], &cfg(1, 4));
    }
}
