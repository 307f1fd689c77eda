//! Arrival-rate sweeps over the concurrent serve engine.
//!
//! The experiment the `throughput` module only *predicts*: sweep the
//! offered load of an open-loop query stream across fractions of the
//! analytical bound `1 / D_max`, serve each rate point with
//! `gamma_sched::serve`, and measure where completed-query throughput
//! stops following the offered rate — the saturation knee. The baseline
//! workload is the non-HPJA hybrid join (`unique2 ⋈ unique2` over
//! `joinABprime`), the paper's general-case query.
//!
//! Everything is virtual time over deterministic arrivals, so a sweep is
//! byte-reproducible. The smoke sweep is the committed `BENCH_serve.json`
//! (`regress` Gate 3), and one rate point's [`explain_doc`] is the
//! committed `results/explain-serve.txt` (Gate 7): `regress --write`
//! renders both.

use gamma_core::query::Algorithm;
use gamma_core::JoinReport;
use gamma_des::SimTime;
use gamma_sched::{explain, serve, QueryPlan, ServeConfig, ServeResult};
use std::fmt::Write as _;

use crate::sweep::{pooled_map, SweepBuilder, Workload};

/// Offered-load fractions of the analytical bound swept by default: well
/// below the knee, around it, and into overload.
pub const DEFAULT_LOAD_FRACTIONS: [f64; 6] = [0.2, 0.4, 0.6, 0.8, 1.0, 1.4];

/// Ratio of the per-node page budget to one query's peak footprint —
/// i.e. the admission multiprogramming level. Three concurrent queries
/// keep the bottleneck device saturated through phase transitions
/// without collapsing response times; the committed `BENCH_serve.json`
/// locks the resulting knee.
pub const DEFAULT_BUDGET_MULTIPLIER: usize = 3;

/// Calibrated mid-phase back-pressure window, µs (see
/// [`calibrate_backlog_window`]).
///
/// Method (grid recorded in `EXPERIMENTS.md`): at the smoke scale, serve
/// the knee (1.0×) and overload (1.4×) rate points over identical
/// arrival streams once per candidate window in
/// `BACKLOG_WINDOW_CANDIDATES_US` plus fully-asynchronous `None`, and
/// pick the tightest window whose cells are indistinguishable from the
/// asynchronous ceiling. In this engine stalling the CPU behind a
/// backlogged device only *extends* convoys — every tighter window costs
/// both throughput (−1.2% at the knee for `0`) and tail response (+9%
/// p99) — so the window is a backlog-*bounding* knob, not a latency
/// optimisation: `160_000` µs never engages at smoke-scale loads (its
/// cells match `None` exactly) yet still converts any pathological
/// device wait beyond it into CPU stall instead of unbounded queue
/// growth.
///
/// `ServeSweepConfig::smoke()` deliberately stays `None`: the committed
/// `BENCH_serve.json` baseline and the solo-equivalence property (an
/// unloaded serve byte-identical to the solo replay) are defined for
/// fully-asynchronous devices, and `None` must remain reachable for
/// both. Opt into the calibrated bound with
/// `backlog_window: Some(SimTime::from_us(DEFAULT_BACKLOG_WINDOW_US))`.
pub const DEFAULT_BACKLOG_WINDOW_US: u64 = 160_000;

/// Candidate windows swept by [`calibrate_backlog_window`], µs.
pub const BACKLOG_WINDOW_CANDIDATES_US: [u64; 4] = [0, 10_000, 40_000, 160_000];

/// One serve experiment configuration.
#[derive(Debug, Clone)]
pub struct ServeSweepConfig {
    /// `A` cardinality (`Bprime` is a 10% sample).
    pub a_rows: usize,
    /// Queries per rate point.
    pub queries: u32,
    /// Offered load as fractions of the analytical throughput bound.
    pub load_fractions: Vec<f64>,
    /// Admission budget = multiplier × one query's peak page footprint.
    pub budget_multiplier: usize,
    /// Mid-phase CPU back-pressure window for the engine.
    pub backlog_window: Option<SimTime>,
}

impl ServeSweepConfig {
    /// The smoke-scale default used by tests, CI and the committed
    /// baseline.
    pub fn smoke() -> Self {
        ServeSweepConfig {
            a_rows: 4_000,
            queries: 24,
            load_fractions: DEFAULT_LOAD_FRACTIONS.to_vec(),
            budget_multiplier: DEFAULT_BUDGET_MULTIPLIER,
            backlog_window: None,
        }
    }
}

/// One measured rate point.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Index within the sweep (also the arrival-stream case seed).
    pub rate_index: usize,
    /// Offered load as a fraction of the analytical bound.
    pub load_fraction: f64,
    /// Mean inter-arrival time fed to the generator.
    pub mean_interarrival_us: u64,
    /// Offered rate in queries/second (1e6 / mean inter-arrival µs).
    pub offered_qps: f64,
    /// Queries completed (always all of them — open loop, run to drain).
    pub completed: u64,
    /// Virtual time of the last completion.
    pub makespan_us: u64,
    /// Completed-query throughput in queries/second.
    pub throughput_qps: f64,
    /// Exact nearest-rank response percentiles, µs.
    pub response_p50_us: u64,
    /// 99th percentile response, µs.
    pub response_p99_us: u64,
    /// 99.9th percentile response, µs.
    pub response_p999_us: u64,
    /// Mean response, µs.
    pub mean_response_us: f64,
    /// Total time queries spent queued at admission control, µs.
    pub admission_wait_total_us: u64,
    /// Highest per-device utilisation over the run (busy / makespan).
    pub peak_utilisation: f64,
}

/// A full sweep: the solo profile, the analytical bound, every measured
/// rate point and the knee they locate.
#[derive(Debug)]
pub struct ServeSweep {
    /// Solo (single-user) response of the template query, µs.
    pub solo_response_us: u64,
    /// Analytical throughput bound `1 / D_max`, queries/second.
    pub bound_qps: f64,
    /// Measured saturation knee: the best throughput any rate point
    /// sustained.
    pub knee_qps: f64,
    /// Per-node admission budget used, in pool pages.
    pub budget_pages: usize,
    /// One query's peak per-node page footprint.
    pub peak_pages: usize,
    /// The measured points, one per load fraction.
    pub points: Vec<ServePoint>,
}

/// Build the non-HPJA hybrid baseline for one rate point.
fn builder(workload: &Workload) -> SweepBuilder<'_> {
    SweepBuilder::new(workload).on("unique2", "unique2")
}

/// Profile the template query once: plan (footprint), report (demand).
pub fn profile(workload: &Workload) -> (QueryPlan, JoinReport) {
    let (mut machine, spec) = builder(workload).prepare(Algorithm::HybridHash, 1.0);
    let (plan, report) = gamma_sched::extract(&mut machine, &spec);
    let expect = workload.expect("unique2", "unique2");
    assert_eq!(report.result_tuples, expect.tuples, "serve template wrong");
    assert_eq!(
        report.result_checksum, expect.checksum,
        "serve template wrong"
    );
    (plan, report)
}

/// Serve one rate point on a freshly loaded machine.
///
/// The whole point (all physical instance runs) is captured in one
/// metrics registry and audited against the integer sum of the
/// per-instance ledgers — the concurrent generalization of the
/// single-query reconciliation.
pub fn serve_point(workload: &Workload, cfg: &ServeConfig) -> ServeResult {
    let (mut machine, spec) = builder(workload).prepare(Algorithm::HybridHash, 1.0);
    let prev = gamma_metrics::install(gamma_metrics::Registry::new());
    let result = serve(&mut machine, &spec, cfg);
    let registry = gamma_metrics::take().expect("registry installed above");
    if let Some(p) = prev {
        gamma_metrics::install(p);
    }
    // The audit reuses the single-query reconciliation against a
    // report whose aggregate ledger is the integer sum over instances.
    let mut aggregate = result.solo.clone();
    aggregate.total = result.total_usage();
    let errs = crate::metrics::reconcile(&registry, &aggregate);
    assert!(
        errs.is_empty(),
        "serve-point metrics failed ledger reconciliation:\n{}",
        errs.join("\n")
    );
    result
}

/// Run a full arrival-rate sweep.
pub fn serve_sweep(cfg: &ServeSweepConfig) -> ServeSweep {
    let workload = Workload::scaled(cfg.a_rows, cfg.a_rows / 10);
    let (plan, report) = profile(&workload);
    let peak_pages = plan.max_peak_pages();
    let budget_pages = peak_pages * cfg.budget_multiplier.max(1);
    let bound_qps = 1.0 / report.demand.bottleneck();

    // Each rate point serves its own freshly loaded machine, so the
    // points are independent; the pool (when active) runs them
    // concurrently and `pooled_map` gathers them in rate order.
    let cases: Vec<(usize, f64)> = cfg.load_fractions.iter().copied().enumerate().collect();
    let points = pooled_map("serve point", cases, |(rate_index, load_fraction)| {
        let offered = bound_qps * load_fraction;
        let mean_interarrival_us = (1e6 / offered).round().max(1.0) as u64;
        let result = serve_point(
            &workload,
            &ServeConfig {
                name: "serve".into(),
                case: rate_index as u64,
                mean_interarrival: SimTime::from_us(mean_interarrival_us),
                queries: cfg.queries,
                pool_budget_pages: budget_pages,
                backlog_window: cfg.backlog_window,
            },
        );
        let out = &result.outcome;
        let admission_wait_total_us = out
            .queries
            .iter()
            .map(|q| q.admission_wait().unwrap_or(SimTime::ZERO).as_us())
            .sum();
        ServePoint {
            rate_index,
            load_fraction,
            mean_interarrival_us,
            offered_qps: 1e6 / mean_interarrival_us as f64,
            completed: out.completed() as u64,
            makespan_us: out.makespan.as_us(),
            throughput_qps: out.throughput_qps(),
            response_p50_us: out.response_percentile(1, 2).unwrap_or(0),
            response_p99_us: out.response_percentile(99, 100).unwrap_or(0),
            response_p999_us: out.response_percentile(999, 1000).unwrap_or(0),
            mean_response_us: out.mean_response_us().unwrap_or(0.0),
            admission_wait_total_us,
            peak_utilisation: out.peak_device_utilisation(),
        }
    });

    let knee_qps = points.iter().map(|p| p.throughput_qps).fold(0.0, f64::max);
    ServeSweep {
        solo_response_us: report.response.as_us(),
        bound_qps,
        knee_qps,
        budget_pages,
        peak_pages,
        points,
    }
}

/// One measured calibration cell: a (window, load) pair served once.
#[derive(Debug, Clone)]
pub struct BacklogCalPoint {
    /// Back-pressure window, µs (`None` = fully asynchronous).
    pub window_us: Option<u64>,
    /// Offered load as a fraction of the analytical bound.
    pub load_fraction: f64,
    /// Completed-query throughput, queries/second.
    pub throughput_qps: f64,
    /// Median response, µs.
    pub response_p50_us: u64,
    /// 99th percentile response, µs.
    pub response_p99_us: u64,
    /// Mean response, µs.
    pub mean_response_us: f64,
}

/// The calibration behind [`DEFAULT_BACKLOG_WINDOW_US`]: serve the knee
/// and overload rate points once per candidate window (plus `None`) and
/// report throughput and response so the trade-off is visible. Cells are
/// dispatched on the bench pool when one is active; the grid is
/// deterministic, so reruns reproduce `EXPERIMENTS.md` exactly.
pub fn calibrate_backlog_window(cfg: &ServeSweepConfig) -> Vec<BacklogCalPoint> {
    let workload = Workload::scaled(cfg.a_rows, cfg.a_rows / 10);
    let (plan, report) = profile(&workload);
    let budget_pages = plan.max_peak_pages() * cfg.budget_multiplier.max(1);
    let bound_qps = 1.0 / report.demand.bottleneck();

    let mut windows: Vec<Option<u64>> = vec![None];
    windows.extend(BACKLOG_WINDOW_CANDIDATES_US.iter().copied().map(Some));
    // Cells at the same load share an arrival-stream seed, so the window
    // comparison is over identical offered traffic.
    let mut cells: Vec<(usize, Option<u64>, f64)> = Vec::new();
    for w in windows {
        for (li, &load) in [1.0, 1.4].iter().enumerate() {
            cells.push((li, w, load));
        }
    }
    pooled_map("backlog cell", cells, |(case, window_us, load_fraction)| {
        let mean_interarrival_us = (1e6 / (bound_qps * load_fraction)).round().max(1.0) as u64;
        let result = serve_point(
            &workload,
            &ServeConfig {
                name: "backlog-cal".into(),
                case: case as u64,
                mean_interarrival: SimTime::from_us(mean_interarrival_us),
                queries: cfg.queries,
                pool_budget_pages: budget_pages,
                backlog_window: window_us.map(SimTime::from_us),
            },
        );
        let out = &result.outcome;
        BacklogCalPoint {
            window_us,
            load_fraction,
            throughput_qps: out.throughput_qps(),
            response_p50_us: out.response_percentile(1, 2).unwrap_or(0),
            response_p99_us: out.response_percentile(99, 100).unwrap_or(0),
            mean_response_us: out.mean_response_us().unwrap_or(0.0),
        }
    })
}

/// Render a sweep as the hand-rolled line-oriented `BENCH_serve.json`
/// document (one point object per line; no wall-clock fields, so two
/// identical sweeps produce byte-identical files).
pub fn render_json(cfg: &ServeSweepConfig, sweep: &ServeSweep) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json,
        "  \"benchmark\": \"serve\",\n  \"a_rows\": {},\n  \"queries\": {},\n  \"budget_multiplier\": {},\n  \"budget_pages\": {},\n  \"peak_pages\": {},\n  \"solo_response_us\": {},\n  \"bound_qps\": {:.6},\n  \"knee_qps\": {:.6},",
        cfg.a_rows,
        cfg.queries,
        cfg.budget_multiplier,
        sweep.budget_pages,
        sweep.peak_pages,
        sweep.solo_response_us,
        sweep.bound_qps,
        sweep.knee_qps,
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in sweep.points.iter().enumerate() {
        let _ = writeln!(json,
            "    {{\"rate_index\": {}, \"load_fraction\": {}, \"mean_interarrival_us\": {}, \"offered_qps\": {:.6}, \"completed\": {}, \"makespan_us\": {}, \"throughput_qps\": {:.6}, \"response_p50_us\": {}, \"response_p99_us\": {}, \"response_p999_us\": {}, \"mean_response_us\": {:.3}, \"admission_wait_total_us\": {}, \"peak_utilisation\": {:.6}}}{}",
            p.rate_index,
            p.load_fraction,
            p.mean_interarrival_us,
            p.offered_qps,
            p.completed,
            p.makespan_us,
            p.throughput_qps,
            p.response_p50_us,
            p.response_p99_us,
            p.response_p999_us,
            p.mean_response_us,
            p.admission_wait_total_us,
            p.peak_utilisation,
            if i + 1 < sweep.points.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    json
}

/// Serve one rate point at `load_fraction` of the analytical bound and
/// render its per-query EXPLAIN report: admission wait plus per-phase
/// scheduling, cpu, disk, net and queue-wait components, each reconciling
/// exactly to the query's response.
pub fn explain_doc(cfg: &ServeSweepConfig, load_fraction: f64) -> String {
    assert!(load_fraction > 0.0, "load-fraction must be positive");
    let workload = Workload::scaled(cfg.a_rows, cfg.a_rows / 10);
    let (plan, report) = profile(&workload);
    let budget_pages = plan.max_peak_pages() * cfg.budget_multiplier.max(1);
    let bound_qps = 1.0 / report.demand.bottleneck();
    let mean_interarrival_us = (1e6 / (bound_qps * load_fraction)).round().max(1.0) as u64;
    let result = serve_point(
        &workload,
        &ServeConfig {
            name: "serve".into(),
            case: 0,
            mean_interarrival: SimTime::from_us(mean_interarrival_us),
            queries: cfg.queries,
            pool_budget_pages: budget_pages,
            backlog_window: cfg.backlog_window,
        },
    );
    explain::render(&result.outcome, result.solo.response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_finds_a_knee_under_the_bound() {
        let mut cfg = ServeSweepConfig::smoke();
        cfg.a_rows = 2_000; // keep the test quick
        cfg.queries = 12;
        let sweep = serve_sweep(&cfg);
        assert_eq!(sweep.points.len(), cfg.load_fractions.len());
        for p in &sweep.points {
            assert_eq!(p.completed, u64::from(cfg.queries));
            assert!(p.response_p50_us >= sweep.solo_response_us);
            assert!(p.response_p99_us >= p.response_p50_us);
            assert!(p.response_p999_us >= p.response_p99_us);
        }
        // The knee honours the operational bound and sits near it: the
        // acceptance band for the non-HPJA hybrid baseline.
        assert!(
            sweep.knee_qps <= sweep.bound_qps * (1.0 + 1e-9),
            "knee {} exceeds analytical bound {}",
            sweep.knee_qps,
            sweep.bound_qps
        );
        assert!(
            sweep.knee_qps >= 0.75 * sweep.bound_qps,
            "knee {} is below 75% of the analytical bound {}",
            sweep.knee_qps,
            sweep.bound_qps
        );
        // Below the knee the stream keeps up: throughput tracks the
        // offered rate at the lightest load.
        let light = &sweep.points[0];
        assert!(light.throughput_qps > 0.0);
        // Overload shows up as admission queueing at the heaviest point.
        let heavy = sweep.points.last().unwrap();
        assert!(
            heavy.admission_wait_total_us > 0,
            "past the bound, admission control must be queueing"
        );
    }

    #[test]
    fn sweeps_are_byte_deterministic() {
        let mut cfg = ServeSweepConfig::smoke();
        cfg.a_rows = 1_000;
        cfg.queries = 6;
        cfg.load_fractions = vec![0.5, 1.2];
        let a = render_json(&cfg, &serve_sweep(&cfg));
        let b = render_json(&cfg, &serve_sweep(&cfg));
        assert_eq!(a, b);
    }
}
