//! Phase records and join reports.
//!
//! Every algorithm driver produces an ordered list of [`PhaseRecord`]s —
//! the per-node ledgers of real work done in each phase plus the
//! scheduler's serialized dispatch overhead for starting the phase's
//! operators. The query replay (see `query`) turns that list into a
//! response time through the DES; the resulting [`JoinReport`] keeps the
//! full per-phase breakdown so the benchmark harness (and the tests) can
//! explain every curve.

use gamma_des::{compose, PhaseTiming, SimTime, TimingModel, Usage};

use crate::exec::hash::ResultInfo;
use crate::machine::Ledgers;

/// One phase of a join's execution.
pub struct PhaseRecord {
    /// Human-readable phase name (e.g. `"partition R / build bucket 1"`).
    pub name: String,
    /// Per-node resource ledgers for the phase.
    pub ledgers: Ledgers,
    /// Serialized scheduler time spent dispatching this phase's operators
    /// (control-message builds and sends happen one at a time at the
    /// scheduler process).
    pub sched_overhead: SimTime,
}

impl PhaseRecord {
    /// Bundle a phase. Each node's disk/NI request log is drained through
    /// its FIFO device queues here, recording per-resource queue waits on
    /// the ledgers so the report and trace layers can attribute queueing
    /// delay per (node, phase). With tracing active, this is also the
    /// phase-seal point: every trace event emitted since the previous seal
    /// is attributed to this phase, along with the per-node resource splits
    /// the exporters use to place events on the timeline.
    pub fn new(name: impl Into<String>, mut ledgers: Ledgers, sched_overhead: SimTime) -> Self {
        let name = name.into();
        let timings: Vec<_> = ledgers
            .iter_mut()
            .map(|u| u.annotate_queue_waits())
            .collect();
        gamma_trace::with(|sink| {
            let per_node = ledgers
                .iter()
                .zip(&timings)
                .map(|(u, q)| gamma_trace::NodeUsage {
                    cpu_us: u.cpu.as_us(),
                    disk_us: u.disk.as_us(),
                    net_us: u.net.as_us(),
                    disk_wait_us: q.disk.wait.as_us(),
                    net_wait_us: q.net.wait.as_us(),
                    disk_done_us: q.disk.completion.as_us(),
                    net_done_us: q.net.completion.as_us(),
                })
                .collect();
            sink.seal_phase(&name, per_node);
        });
        // Seal the metrics phase so subsequent emissions attribute to the
        // next one. The per-phase `ledger_*` mirror is NOT emitted here:
        // some drivers charge the result store's final page flush to the
        // last phase's ledgers after sealing it, so ledgers are only
        // mirrored once they are final — at replay (see `query`).
        gamma_metrics::seal_phase(&name);
        PhaseRecord {
            name,
            ledgers,
            sched_overhead,
        }
    }

    /// Aggregate usage over all nodes: the sum of their scalar fields. The
    /// request logs stay with their nodes' ledgers, so the total's are
    /// empty.
    pub fn total(&self) -> Usage {
        self.ledgers.iter().sum()
    }

    /// The phase's queued duration and flat bound ([`compose`]).
    pub fn timing(&self, ring_bandwidth: u64) -> PhaseTiming {
        compose(&self.ledgers, ring_bandwidth, TimingModel::Queued)
    }
}

/// A timed phase, as it appears in the final report.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    /// Phase name.
    pub name: String,
    /// Scheduler dispatch overhead preceding the phase.
    pub sched_overhead: SimTime,
    /// Parallel execution time of the phase.
    pub duration: SimTime,
    /// The phase's flat `max(cpu, Σ disk, Σ net)` bound over nodes and the
    /// ring ([`PhaseTiming::flat`]), never above `duration`.
    pub flat: SimTime,
    /// Aggregate usage across nodes, without request logs
    /// ([`PhaseRecord::total`]).
    pub total: Usage,
    /// Index of the slowest node; `None` when no node did any work.
    pub critical_node: Option<usize>,
    /// Total time disk requests spent queued, summed over nodes.
    pub disk_wait: SimTime,
    /// Total time NI requests spent queued, summed over nodes.
    pub net_wait: SimTime,
}

impl PhaseSummary {
    /// Pages the dynamic spill/restore path re-wrote to overflow spools in
    /// this phase (zero on the legacy all-or-nothing path).
    pub fn pages_spilled(&self) -> u64 {
        self.total.counts.pages_spilled
    }

    /// Pages the dynamic spill/restore path read back and re-admitted to
    /// hash tables in this phase.
    pub fn pages_restored(&self) -> u64 {
        self.total.counts.pages_restored
    }
}

/// Everything measured about one join execution.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// Algorithm name.
    pub algorithm: String,
    /// End-to-end response time (the paper's y-axis).
    pub response: SimTime,
    /// Ordered timed phases.
    pub phases: Vec<PhaseSummary>,
    /// Result cardinality.
    pub result_tuples: u64,
    /// Order-independent checksum of the result multiset (compared against
    /// the oracle join by tests).
    pub result_checksum: u64,
    /// Buckets used (1 for Simple and Sort-Merge).
    pub buckets: usize,
    /// Simple-hash overflow passes executed anywhere in the join.
    pub overflow_passes: u32,
    /// Whether the block-nested-loops safety net fired.
    pub bnl_fallback: bool,
    /// Mean CPU utilisation of the disk nodes over the response time.
    pub disk_node_cpu_utilization: f64,
    /// Mean CPU utilisation of the join (diskless, if any) nodes.
    pub join_node_cpu_utilization: f64,
    /// Aggregate usage over all phases and nodes: a scalar sum, without
    /// request logs (each log stays with its phase's node ledger).
    pub total: Usage,
    /// Per-node service demands for multiuser extrapolation
    /// (see [`crate::throughput`]).
    pub demand: crate::throughput::DemandProfile,
}

impl JoinReport {
    /// Total page I/Os.
    pub fn page_ios(&self) -> u64 {
        self.total.counts.page_ios()
    }

    /// Total packets placed on the ring.
    pub fn packets(&self) -> u64 {
        self.total.counts.packets_sent
    }

    /// Total short-circuited messages.
    pub fn shortcircuits(&self) -> u64 {
        self.total.counts.msgs_shortcircuit
    }

    /// The response under the flat bound: Σ over phases of the dispatch
    /// overhead plus [`PhaseSummary::flat`]. Never above `response`; the
    /// gap is what the FIFO device queues add to the flat bound: waits
    /// behind a burst, and the service a device still owes once its
    /// node's CPU is done.
    pub fn flat_response(&self) -> SimTime {
        self.phases.iter().map(|p| p.sched_overhead + p.flat).sum()
    }

    /// Response time in (fractional) seconds — the unit the paper plots.
    pub fn seconds(&self) -> f64 {
        self.response.as_secs()
    }

    /// Total pages the dynamic spill/restore path re-wrote to overflow
    /// spools (zero on the legacy all-or-nothing path).
    pub fn pages_spilled(&self) -> u64 {
        self.total.counts.pages_spilled
    }

    /// Total pages the dynamic spill/restore path read back and re-admitted
    /// to hash tables.
    pub fn pages_restored(&self) -> u64 {
        self.total.counts.pages_restored
    }
}

/// Carrier for the pieces a driver returns to the replay.
pub struct DriverOutput {
    /// Ordered phases.
    pub phases: Vec<PhaseRecord>,
    /// Result description.
    pub result: ResultInfo,
    /// Buckets used.
    pub buckets: usize,
    /// Overflow passes executed.
    pub overflow_passes: u32,
    /// BNL fallback fired.
    pub bnl_fallback: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_total_sums_nodes() {
        let mut a = Usage::ZERO;
        a.cpu(SimTime::from_us(10));
        let mut b = Usage::ZERO;
        b.cpu(SimTime::from_us(5));
        b.counts.pages_read = 2;
        let p = PhaseRecord::new("x", vec![a, b], SimTime::ZERO);
        let t = p.total();
        assert_eq!(t.cpu, SimTime::from_us(15));
        assert_eq!(t.counts.pages_read, 2);
    }

    #[test]
    fn phase_timing_reports_duration_and_flat_bound() {
        let mut a = Usage::ZERO;
        a.cpu(SimTime::from_us(10));
        let mut b = Usage::ZERO;
        b.disk(SimTime::from_us(99));
        let p = PhaseRecord::new("x", vec![a, b], SimTime::ZERO);
        let t = p.timing(10_000_000);
        assert_eq!(t.flat, SimTime::from_us(99));
        assert_eq!(t.critical_node, Some(1));
        // A lone request issued at cpu=0 queues for nothing, so the queued
        // duration equals the flat bound here.
        assert_eq!(t.duration, SimTime::from_us(99));
        assert_eq!(t.disk_wait, SimTime::ZERO);
    }

    #[test]
    fn sealing_annotates_queue_waits() {
        let mut a = Usage::ZERO;
        for _ in 0..3 {
            a.disk(SimTime::from_us(10)); // burst at cpu=0: waits 0+10+20
        }
        let p = PhaseRecord::new("x", vec![a], SimTime::ZERO);
        assert_eq!(p.ledgers[0].disk_wait, SimTime::from_us(30));
    }
}
