//! Plan extraction: turn one executed join into the timing skeleton the
//! serve engine interleaves.
//!
//! The simulator is *work first, time later*: `run_join_with_phases`
//! executes the join for real and hands back per-phase, per-node [`Usage`](gamma_des::Usage)
//! ledgers whose request logs record when (on the node's CPU-progress
//! clock) each disk/NI request was issued and how long it needs. A
//! [`QueryPlan`] is exactly that information, reshaped for the engine:
//!
//! * per phase, the serialized scheduler dispatch overhead;
//! * per participating node, the CPU demand and the *materialized* device
//!   request logs, through the same `gamma_des::with_requests` rule the
//!   single-query replay drains (an empty log with a nonzero service total
//!   is one request at issue 0), so the engine and the replay agree
//!   exactly. Each is a [`DeviceLog`], summarised once here so the engine
//!   can serve it in closed form;
//! * the phase's shared-ring occupancy, from the same
//!   `gamma_des::ring_time` that `gamma_des::compose` bounds a phase by.
//!
//! The plan also captures the query's per-node buffer-pool peak (its
//! memory footprint, which admission control budgets against) and the
//! solo response time the single-query replay produced — the N=1
//! equivalence baseline.

use std::sync::Arc;

use gamma_core::machine::Machine;
use gamma_core::{run_join_with_phases, JoinReport, JoinSpec, PhaseRecord};
use gamma_des::{ring_time, with_requests, DeviceLog, SimTime};

/// One node's work within one phase.
#[derive(Debug, Clone)]
pub struct NodePlan {
    /// Node id.
    pub node: usize,
    /// CPU demand for the phase (one non-preemptive convoy).
    pub cpu: SimTime,
    /// Disk-arm requests in issue order (synthetic fallback materialized).
    pub disk: DeviceLog,
    /// NI requests in issue order (synthetic fallback materialized).
    pub net: DeviceLog,
}

/// One phase of a query, as the engine schedules it.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// Phase name (for diagnostics), shared with every
    /// [`PhaseBreakdown`](crate::explain::PhaseBreakdown) of the phase.
    pub name: Arc<str>,
    /// Serialized scheduler dispatch time preceding the phase.
    pub sched_overhead: SimTime,
    /// Shared-ring occupancy for the whole phase (µs of exclusive ring
    /// use; zero when no bytes crossed the ring).
    pub ring: SimTime,
    /// Participating nodes (any node with CPU or device work), ascending.
    pub nodes: Vec<NodePlan>,
}

/// The timing skeleton of one query: everything the serve engine needs to
/// re-time the query's phases under cross-query contention. Immutable once
/// built, so a clone — one per served instance of a template — shares the
/// phases and peaks instead of copying every request log.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Ordered phases.
    pub phases: Arc<[PhasePlan]>,
    /// Per-node buffer-pool peak page counts for one solo execution — the
    /// query's memory footprint, which admission control reserves.
    pub peak_pages: Arc<[usize]>,
    /// Solo (single-user) response time from the standard replay.
    pub solo_response: SimTime,
}

impl PhasePlan {
    /// Build one phase's plan from its sealed record.
    pub fn from_record(record: &PhaseRecord, ring_bandwidth_bytes_per_sec: u64) -> Self {
        let nodes = record
            .ledgers
            .iter()
            .enumerate()
            .filter_map(|(node, u)| {
                let disk = with_requests(&u.reqs.disk, u.disk, DeviceLog::new);
                let net = with_requests(&u.reqs.net, u.net, DeviceLog::new);
                if u.cpu == SimTime::ZERO && disk.is_empty() && net.is_empty() {
                    return None;
                }
                Some(NodePlan {
                    node,
                    cpu: u.cpu,
                    disk,
                    net,
                })
            })
            .collect();
        PhasePlan {
            name: record.name.as_str().into(),
            sched_overhead: record.sched_overhead,
            ring: ring_time(
                record.ledgers.iter().map(|u| u.ring_bytes).sum(),
                ring_bandwidth_bytes_per_sec,
            ),
            nodes,
        }
    }
}

impl QueryPlan {
    /// Build a plan from an executed join's phase records.
    pub fn from_phases(
        records: &[PhaseRecord],
        peak_pages: Vec<usize>,
        solo_response: SimTime,
        ring_bandwidth_bytes_per_sec: u64,
    ) -> Self {
        QueryPlan {
            phases: records
                .iter()
                .map(|r| PhasePlan::from_record(r, ring_bandwidth_bytes_per_sec))
                .collect(),
            peak_pages: peak_pages.into(),
            solo_response,
        }
    }

    /// The plan's worst per-node page footprint (admission needs at least
    /// this much budget per node to ever admit the query).
    pub fn max_peak_pages(&self) -> usize {
        self.peak_pages.iter().copied().max().unwrap_or(0)
    }
}

/// Execute `spec` once on `machine` and extract its plan alongside the
/// standard report. The buffer pools are cleared by `run_join` at entry,
/// so the post-run pool peaks are exactly this query's footprint.
pub fn extract(machine: &mut Machine, spec: &JoinSpec) -> (QueryPlan, JoinReport) {
    let (report, phases) = run_join_with_phases(machine, spec);
    let peaks = machine.pool_peaks();
    let bw = machine.cfg.cost.ring.bandwidth_bytes_per_sec;
    let plan = QueryPlan::from_phases(&phases, peaks, report.response, bw);
    (plan, report)
}
