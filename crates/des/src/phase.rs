//! Phase-timing composition.
//!
//! A Gamma query executes as a sequence of *phases* (e.g. "partition R /
//! build bucket 1", "join bucket i"). Within a phase each participating node
//! accumulates a [`Usage`] ledger; [`compose`] turns those ledgers into a
//! phase completion time:
//!
//! * a node's resources (CPU, disk, NI) overlap → node time is its CPU
//!   overlapped against each device's FIFO-queued completion (see
//!   [`crate::queue`]);
//! * nodes run in parallel → phase time is the max over nodes;
//! * the token ring is shared → phase time is additionally bounded below by
//!   `total ring bytes / ring bandwidth`.
//!
//! The same pass reports the phase's flat bound, [`PhaseTiming::flat`]:
//! the slowest node's `max(cpu, Σ disk, Σ net)` under the same ring bound,
//! which treats each device as if it absorbed its whole demand with no
//! queueing. It is a number beside the duration, never above it, so every
//! replay carries both from one execution.

use crate::ledger::Usage;
use crate::time::SimTime;

/// How per-node ledgers become phase times. There is one model, per-node
/// FIFO request queues for the disk arm and the NI: node time is
/// `max(cpu, queued disk completion, queued NI completion)`. The type and
/// [`compose`]'s parameter stay only because the benchmark harness calls
/// `compose(&ledgers, bw, cost.timing)`; [`compose`] destructures the one
/// variant, so a second model cannot be added without touching it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TimingModel {
    /// FIFO-queued devices: never below the flat bound, above it when
    /// requests bunch up on a loaded device (convoy effects).
    #[default]
    Queued,
}

/// Result of composing one phase's per-node ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTiming {
    /// When the phase completes, relative to its start.
    pub duration: SimTime,
    /// The per-node maximum busy time (before the ring bound was applied).
    pub max_node_busy: SimTime,
    /// The flat bound: the slowest node's `max(cpu, Σ disk, Σ net)`
    /// ([`Usage::busy_time`]), bounded below by the ring. Never above
    /// `duration`.
    pub flat: SimTime,
    /// The shared-ring lower bound for this phase.
    pub ring_bound: SimTime,
    /// Index of the critical (slowest) node; `None` when no node did any
    /// work (an empty or all-zero phase has no critical node).
    pub critical_node: Option<usize>,
    /// Total time disk requests spent queued, summed over nodes.
    pub disk_wait: SimTime,
    /// Total time NI requests spent queued, summed over nodes.
    pub net_wait: SimTime,
}

/// How long the shared ring is occupied carrying `ring_bytes` at
/// `bandwidth_bytes_per_sec`, in µs rounded up, so a non-empty transfer is
/// never free. The product is computed in u128: `bytes * 1_000_000`
/// overflows u64 beyond ~18 TB per phase, and a saturating product would
/// silently *underestimate* the bound.
///
/// # Panics
/// Panics on a zero bandwidth.
pub fn ring_time(ring_bytes: u64, bandwidth_bytes_per_sec: u64) -> SimTime {
    assert!(
        bandwidth_bytes_per_sec > 0,
        "ring bandwidth must be positive"
    );
    if ring_bytes == 0 {
        return SimTime::ZERO;
    }
    let us = (u128::from(ring_bytes) * 1_000_000).div_ceil(u128::from(bandwidth_bytes_per_sec));
    SimTime::from_us(u64::try_from(us).unwrap_or(u64::MAX).max(1))
}

/// Compose a phase from per-node ledgers: its queued duration and, in the
/// same pass, its flat bound.
///
/// `ring_bandwidth_bytes_per_sec` is the capacity of the shared token ring
/// (80 Mbit/s = 10,000,000 bytes/s in the paper's hardware).
pub fn compose(
    per_node: &[Usage],
    ring_bandwidth_bytes_per_sec: u64,
    model: TimingModel,
) -> PhaseTiming {
    let mut max_node_busy = SimTime::ZERO;
    let mut max_flat = SimTime::ZERO;
    let mut critical_node = None;
    let mut ring_bytes: u64 = 0;
    let mut disk_wait = SimTime::ZERO;
    let mut net_wait = SimTime::ZERO;
    let TimingModel::Queued = model;
    for (i, u) in per_node.iter().enumerate() {
        max_flat = max_flat.max(u.busy_time());
        let q = u.queue_timing();
        disk_wait += q.disk.wait;
        net_wait += q.net.wait;
        let busy = u
            .cpu
            .max(q.disk.completion.max(u.disk))
            .max(q.net.completion.max(u.net));
        if busy > max_node_busy {
            max_node_busy = busy;
            critical_node = Some(i);
        }
        ring_bytes += u.ring_bytes;
    }
    let ring_bound = ring_time(ring_bytes, ring_bandwidth_bytes_per_sec);
    PhaseTiming {
        duration: max_node_busy.max(ring_bound),
        max_node_busy,
        flat: max_flat.max(ring_bound),
        ring_bound,
        critical_node,
        disk_wait,
        net_wait,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(per_node: &[Usage], ring_bandwidth_bytes_per_sec: u64) -> PhaseTiming {
        compose(per_node, ring_bandwidth_bytes_per_sec, TimingModel::Queued)
    }

    fn usage(cpu: u64, disk: u64, net: u64, ring: u64) -> Usage {
        let mut u = Usage::ZERO;
        u.cpu(SimTime::from_us(cpu));
        u.disk(SimTime::from_us(disk));
        u.net(SimTime::from_us(net), ring);
        u
    }

    #[test]
    fn phase_is_max_over_nodes() {
        // Each node issues its device requests once its CPU work is done.
        let nodes = vec![
            usage(100, 50, 10, 0),
            usage(30, 200, 5, 0),
            usage(80, 90, 0, 0),
        ];
        let t = timed(&nodes, 10_000_000);
        assert_eq!(t.flat, SimTime::from_us(200));
        assert_eq!(t.duration, SimTime::from_us(230));
        assert_eq!(t.critical_node, Some(1));
        assert_eq!(t.ring_bound, SimTime::ZERO);
    }

    #[test]
    fn ring_bound_applies_when_binding() {
        // 2 nodes each put 10 MB on the ring; at 10 MB/s that is 2 s even
        // though each node's NI time is tiny.
        let nodes = vec![
            usage(1000, 0, 10, 10_000_000),
            usage(1000, 0, 10, 10_000_000),
        ];
        let t = timed(&nodes, 10_000_000);
        assert_eq!(t.ring_bound, SimTime::from_secs(2));
        assert_eq!(t.duration, SimTime::from_secs(2));
        assert_eq!(t.flat, SimTime::from_secs(2));
        assert_eq!(t.max_node_busy, SimTime::from_us(1010));
    }

    #[test]
    fn ring_bound_rounds_up_nonzero_transfers() {
        let nodes = vec![usage(0, 0, 0, 1)];
        let t = timed(&nodes, 10_000_000);
        assert_eq!(t.ring_bound, SimTime::from_us(1));
    }

    #[test]
    fn ring_bound_survives_u64_overflow() {
        // 100 TB on the ring at 10 MB/s is 1e13 µs. The old
        // `saturating_mul(1_000_000)` clamped the numerator to u64::MAX and
        // reported ~1.8e12 µs — a 5× underestimate.
        let nodes = vec![usage(0, 0, 0, 100_000_000_000_000)];
        let t = timed(&nodes, 10_000_000);
        assert_eq!(t.ring_bound, SimTime::from_us(10_000_000_000_000));
    }

    #[test]
    fn empty_phase_is_zero_with_no_critical_node() {
        let t = timed(&[], 10_000_000);
        assert_eq!((t.duration, t.flat), (SimTime::ZERO, SimTime::ZERO));
        assert_eq!(t.critical_node, None);
        let t = timed(&[Usage::ZERO, Usage::ZERO], 10_000_000);
        assert_eq!((t.duration, t.flat), (SimTime::ZERO, SimTime::ZERO));
        assert_eq!(t.critical_node, None);
    }

    #[test]
    fn duration_never_below_flat() {
        let nodes = vec![usage(100, 50, 10, 0), usage(30, 200, 5, 0)];
        let t = timed(&nodes, 10_000_000);
        assert!(t.duration >= t.flat);
    }

    #[test]
    fn queued_duration_counts_convoy_waits() {
        // One node issues its whole disk demand as a burst after a CPU
        // lead-in: the flat bound hides the serialisation, the queue does
        // not.
        let mut u = Usage::ZERO;
        u.cpu(SimTime::from_us(700));
        for _ in 0..30 {
            u.disk(SimTime::from_us(30)); // 900 µs of service, all issued at 700
        }
        let t = timed(&[u], 10_000_000);
        assert_eq!(t.flat, SimTime::from_us(900));
        assert_eq!(t.duration, SimTime::from_us(1600)); // 700 + 900
        assert!(t.disk_wait > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "ring bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        timed(&[], 0);
    }
}
