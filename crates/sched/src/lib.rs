//! # gamma-sched — concurrent query serving over one Gamma machine
//!
//! Schneider & DeWitt measured their four join algorithms one query at a
//! time; their §2.4 scheduler, however, existed precisely to run *many*
//! queries against one machine. This crate closes that gap: it admits,
//! interleaves and completes many [`run_join`](gamma_core::run_join)-shaped queries over one
//! simulated machine, deterministically, and measures what the
//! single-query `throughput` bounds only predict — the saturation knee.
//!
//! The design keeps the repo's *work first, time later* split intact:
//!
//! 1. **Work.** Every query instance is *physically executed* on the real
//!    machine with [`gamma_core::run_join_with_phases`], one instance
//!    after another; each leaves the exchange drained, so the serve
//!    run's resource totals are exact integer sums of per-query totals.
//! 2. **Time.** The first instance's phase ledgers become a
//!    [`plan::QueryPlan`]; the [`engine`] interleaves one plan per query
//!    over shared cross-phase FIFO device queues
//!    ([`gamma_des::SharedServer`]), a serialized dispatch server, a
//!    shared ring reservation and per-node CPU convoys, under FIFO
//!    admission control budgeted on buffer-pool page peaks.
//!
//! With one query in flight the engine's timeline collapses to the solo
//! replay — `serve` of N=1 reproduces `run_join`'s response exactly,
//! which the tests pin down.

pub mod arrivals;
pub mod engine;
pub mod explain;
pub mod plan;
pub mod report;

pub use arrivals::Arrivals;
pub use engine::EngineConfig;
pub use explain::{PhaseBreakdown, QueryExplain};
pub use plan::{extract, NodePlan, PhasePlan, QueryPlan};
pub use report::{exact_percentile, QueryTiming, ServeOutcome};

use gamma_core::machine::Machine;
use gamma_core::{run_join_with_phases, JoinReport, JoinSpec};
use gamma_des::SimTime;

/// One serve experiment: a homogeneous open-loop stream of `queries`
/// instances of one join spec.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Experiment name; seeds the arrival stream (FNV-1a fold).
    pub name: String,
    /// Rate-point index within a sweep; perturbs the arrival seed.
    pub case: u64,
    /// Mean inter-arrival time of the open-loop Poisson process.
    pub mean_interarrival: SimTime,
    /// Number of query instances to serve.
    pub queries: u32,
    /// Per-node buffer-pool page budget for admission control.
    pub pool_budget_pages: usize,
    /// Mid-phase CPU back-pressure window (`None` = asynchronous devices).
    pub backlog_window: Option<SimTime>,
}

/// Everything one serve run produced.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// The solo report of the first (template) instance.
    pub solo: JoinReport,
    /// The timing skeleton all instances share.
    pub plan: QueryPlan,
    /// Per-instance physical-execution reports, in admission order.
    pub reports: Vec<JoinReport>,
    /// The engine's interleaved timing outcome.
    pub outcome: ServeOutcome,
}

impl ServeResult {
    /// Integer sum of all instances' resource totals — the left-hand side
    /// of the serve-level ledger reconciliation. Like each report's total,
    /// it carries no request log.
    pub fn total_usage(&self) -> gamma_des::Usage {
        self.reports.iter().map(|r| &r.total).sum()
    }
}

/// Serve `cfg.queries` instances of `spec` over `machine`.
///
/// Instances are physically executed up front, one after another, in
/// admission order (FIFO admission of a homogeneous stream preserves
/// arrival order); each `run_join` leaves the exchange drained.
/// Execution is deterministic, so every instance must reproduce the
/// template's result checksum and solo response — asserted here.
pub fn serve(machine: &mut Machine, spec: &JoinSpec, cfg: &ServeConfig) -> ServeResult {
    assert!(cfg.queries > 0, "serving zero queries is vacuous");

    let mut reports: Vec<JoinReport> = Vec::with_capacity(cfg.queries as usize);
    let mut plan: Option<QueryPlan> = None;
    for _ in 0..cfg.queries {
        let (report, phases) = run_join_with_phases(machine, spec);
        if plan.is_none() {
            let peaks = machine.pool_peaks();
            let bw = machine.cfg.cost.ring.bandwidth_bytes_per_sec;
            plan = Some(QueryPlan::from_phases(&phases, peaks, report.response, bw));
        }
        reports.push(report);
    }

    let plan = plan.expect("at least one instance ran");
    let solo = reports[0].clone();
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            r.result_checksum, solo.result_checksum,
            "instance {i} diverged from the template checksum"
        );
        assert_eq!(
            r.response, solo.response,
            "instance {i} diverged from the template response"
        );
    }

    let arrival_times =
        Arrivals::new(&cfg.name, cfg.case, cfg.mean_interarrival).take_times(cfg.queries);
    let engine_cfg = EngineConfig {
        nodes: machine.nodes(),
        pool_budget_pages: cfg.pool_budget_pages,
        backlog_window: cfg.backlog_window,
    };
    let plans = vec![plan.clone(); cfg.queries as usize];
    let outcome = engine::run(plans, &arrival_times, &engine_cfg);

    ServeResult {
        solo,
        plan,
        reports,
        outcome,
    }
}
