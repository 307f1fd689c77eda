//! Flight-recorder profiling of solo join runs.
//!
//! Bridges the harness to `gamma-prof`: one `joinABprime` point is
//! extracted into a timing plan (`gamma_sched::extract`) and replayed
//! through the serve engine with N=1 and the flight recorder attached.
//! An unloaded serve reproduces the solo response exactly (pinned by the
//! sched tests and re-asserted here), so the recorded time series
//! describe the same run the `trace` and `metrics` snapshots under
//! `results/` do. Everything is virtual time sampled on a fixed tick —
//! two runs of the same point are byte-identical, across executors, so
//! the committed `results/prof-*.json` documents ([`render_json`]) double
//! as regression baselines (Gate 6 of the `regress` binary).

use gamma_core::query::Algorithm;
use gamma_core::{ExecConfig, JoinReport};
use gamma_des::SimTime;
use gamma_prof::{export, FlightProfile, DEFAULT_TICK_US};
use gamma_sched::EngineConfig;

use crate::sweep::{SweepBuilder, Workload};

/// One profiled solo run.
pub struct ProfRun {
    /// Algorithm name as printed by the report.
    pub algorithm: String,
    /// Memory / |inner relation| ratio.
    pub ratio: f64,
    /// `A`-relation cardinality of the workload.
    pub a_rows: usize,
    /// The solo join report (validated against the oracle).
    pub report: JoinReport,
    /// Per-node exchange inbox high-water marks from the physical run.
    pub peak_inbox: Vec<usize>,
    /// The recorded time series.
    pub profile: FlightProfile,
}

/// Profile one `joinABprime` point on the default executor.
pub fn solo_profile(workload: &Workload, alg: Algorithm, ratio: f64, tick_us: u64) -> ProfRun {
    solo_profile_with(workload, alg, ratio, tick_us, ExecConfig::auto())
}

/// [`solo_profile`] on an explicit executor. The profile derives solely
/// from ledger replay, so any executor produces byte-identical output —
/// the `prof` integration tests compare pool sizes 1/2/8 against serial.
pub fn solo_profile_with(
    workload: &Workload,
    alg: Algorithm,
    ratio: f64,
    tick_us: u64,
    exec: ExecConfig,
) -> ProfRun {
    let builder = SweepBuilder::new(workload).exec(exec);
    let (mut machine, spec) = builder.prepare(alg, ratio);
    let (plan, report) = gamma_sched::extract(&mut machine, &spec);
    let expect = workload.expect("unique1", "unique1");
    assert_eq!(report.result_tuples, expect.tuples, "prof template wrong");
    assert_eq!(
        report.result_checksum, expect.checksum,
        "prof template wrong"
    );

    let cfg = EngineConfig {
        nodes: machine.nodes(),
        pool_budget_pages: plan.max_peak_pages(),
        backlog_window: None,
    };
    let (outcome, profile) =
        gamma_sched::engine::run_recorded(vec![plan], &[SimTime::ZERO], &cfg, Some(tick_us));
    let profile = profile.expect("recorder was attached");
    // N=1 serve collapses to the solo replay; anything else means the
    // profile describes a different run than the trace/metrics snapshots.
    assert_eq!(
        outcome.queries[0].response(),
        Some(report.response),
        "unloaded replay must reproduce the solo response"
    );

    ProfRun {
        algorithm: report.algorithm.clone(),
        ratio,
        a_rows: workload.a_rows.len(),
        report,
        peak_inbox: machine.exchange.peak_inbox_packets().to_vec(),
        profile,
    }
}

/// Render a profiled run as the line-oriented `prof-*.json` document.
pub fn render_json(run: &ProfRun) -> String {
    let peak_inbox = format!(
        "[{}]",
        run.peak_inbox
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let envelope = [
        ("algorithm", export::json_str(&run.algorithm)),
        ("memory_ratio", format!("{}", run.ratio)),
        ("a_rows", format!("{}", run.a_rows)),
        (
            "solo_response_us",
            format!("{}", run.report.response.as_us()),
        ),
        ("peak_inbox_packets", peak_inbox),
    ];
    export::render_json(&run.profile, &envelope)
}

/// Render a profiled run as CSV (one row per tick).
pub fn render_csv(run: &ProfRun) -> String {
    export::render_csv(&run.profile)
}

/// The committed-artifact path stem for one point: `prof-<alg>-r<pct>`.
pub fn artifact_stem(alg: Algorithm, ratio: f64) -> String {
    format!("prof-{}-r{:02}", alg.name(), (ratio * 100.0) as u32)
}

/// Map a flight profile onto Perfetto counter tracks: per-node series
/// attach to their node's process, machine-wide series to the scheduler
/// process. Merge into a trace export with
/// `gamma_trace::perfetto::to_json_with_counters`.
pub fn perfetto_counters(profile: &FlightProfile) -> Vec<gamma_trace::perfetto::CounterSeries> {
    use gamma_trace::perfetto::{CounterSeries, SCHEDULER_PID};
    profile
        .series
        .iter()
        .map(|s| CounterSeries {
            name: s.name.clone(),
            pid: s.node().map_or(SCHEDULER_PID, |n| n as u32),
            points: s
                .values
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u64 * profile.tick_us, v))
                .collect(),
        })
        .collect()
}

/// Trace the same point the profile replays on `exec` and merge the
/// profile's counter tracks into the Perfetto export. Both sides are
/// deterministic replays of the same ledgers, so the counters line up
/// with the spans.
pub fn merged_perfetto(
    workload: &Workload,
    alg: Algorithm,
    ratio: f64,
    profile: &FlightProfile,
    exec: ExecConfig,
) -> String {
    let traced = crate::tracing::trace_join_with(workload, alg, ratio, false, exec);
    gamma_trace::perfetto::to_json_with_counters(&traced.sink, &perfetto_counters(profile))
}

/// Default tick re-exported so binaries don't need a direct gamma-prof
/// dependency edge for the one constant.
pub const TICK_US: u64 = DEFAULT_TICK_US;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_profile_reconciles_and_renders_deterministically() {
        let w = Workload::scaled(2_000, 200);
        let a = solo_profile(&w, Algorithm::HybridHash, 0.5, 10_000);
        let b = solo_profile(&w, Algorithm::HybridHash, 0.5, 10_000);
        assert_eq!(render_json(&a), render_json(&b));
        assert_eq!(render_csv(&a), render_csv(&b));
        assert_eq!(a.profile.nodes, 8);
        assert!(a.profile.ticks() > 1);
        // The run's CPU busy integrates to the ledger total.
        let cpu: u64 = a
            .profile
            .series
            .iter()
            .filter(|s| s.short_name() == "cpu_busy_us")
            .flat_map(|s| s.values.iter())
            .map(|&v| v as u64)
            .sum();
        assert_eq!(cpu, a.report.total.cpu.as_us());
        assert!(a.peak_inbox.iter().any(|&p| p > 0), "exchange saw traffic");
    }

    #[test]
    fn artifact_stems_match_the_committed_layout() {
        assert_eq!(artifact_stem(Algorithm::HybridHash, 0.5), "prof-hybrid-r50");
        assert_eq!(artifact_stem(Algorithm::GraceHash, 0.2), "prof-grace-r20");
        assert_eq!(
            artifact_stem(Algorithm::SortMerge, 1.0),
            "prof-sort-merge-r100"
        );
    }

    #[test]
    fn merged_perfetto_carries_counter_tracks() {
        let w = Workload::scaled(2_000, 200);
        let run = solo_profile(&w, Algorithm::HybridHash, 0.5, 10_000);
        let doc = merged_perfetto(
            &w,
            Algorithm::HybridHash,
            0.5,
            &run.profile,
            ExecConfig::auto(),
        );
        assert!(gamma_trace::perfetto::looks_like_trace_json(&doc));
        assert!(doc.contains("\"name\":\"node0.cpu_busy_us\""));
        assert!(doc.contains("\"name\":\"inflight_queries\""));
    }
}
