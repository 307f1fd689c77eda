//! Resource ledgers.
//!
//! Every operator in the join engine executes its work *for real* on real
//! tuples, and charges the mechanical cost of each step (hashing a tuple,
//! reading a page, sending a packet, …) to a [`Usage`] ledger belonging to
//! one (node, phase) pair. The ledger is therefore both the *clock input*
//! (how long did this node spend in this phase) and the *instrumentation
//! output* (how many page I/Os, packets, probes, … happened), which is how
//! the benchmark harness explains every curve it reproduces.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

use crate::queue::{self, QueueStats, Request, RequestLog};
use crate::time::SimTime;

/// Pure event counters. These do not contribute to time directly — the
/// [`Usage`] time fields do — but they are what the paper's analysis talks
/// about (number of I/Os, short-circuited messages, probe chain lengths…)
/// and the tests assert on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// 8 KB pages read from a simulated disk volume.
    pub pages_read: u64,
    /// 8 KB pages written to a simulated disk volume.
    pub pages_written: u64,
    /// Network packets placed on the token ring by this node.
    pub packets_sent: u64,
    /// Network packets received from the token ring by this node.
    pub packets_recv: u64,
    /// Messages short-circuited because sender and receiver share a node.
    pub msgs_shortcircuit: u64,
    /// Tuples consumed by the node's operator(s) in this phase.
    pub tuples_in: u64,
    /// Tuples emitted by the node's operator(s) in this phase.
    pub tuples_out: u64,
    /// Hash-table insertions.
    pub hash_inserts: u64,
    /// Hash-table probe operations.
    pub hash_probes: u64,
    /// Key comparisons (probe chains, sort comparisons, merge comparisons).
    pub comparisons: u64,
    /// Tuples eliminated by a bit-vector filter.
    pub filter_drops: u64,
    /// Scheduler control messages processed.
    pub control_msgs: u64,
    /// Tuples evicted to an overflow file by the Simple-hash heuristic.
    pub overflow_evictions: u64,
    /// 8 KB pages of build input re-written to an overflow spool by the
    /// dynamic spill/restore path (the residue that stayed spilled).
    pub pages_spilled: u64,
    /// 8 KB pages of spilled build input read back and re-admitted to the
    /// in-memory hash table by the dynamic spill/restore path.
    pub pages_restored: u64,
}

impl Counts {
    /// Ledger with all counters zero.
    pub const ZERO: Counts = Counts {
        pages_read: 0,
        pages_written: 0,
        packets_sent: 0,
        packets_recv: 0,
        msgs_shortcircuit: 0,
        tuples_in: 0,
        tuples_out: 0,
        hash_inserts: 0,
        hash_probes: 0,
        comparisons: 0,
        filter_drops: 0,
        control_msgs: 0,
        overflow_evictions: 0,
        pages_spilled: 0,
        pages_restored: 0,
    };

    /// Total disk page operations.
    pub fn page_ios(&self) -> u64 {
        self.pages_read + self.pages_written
    }
}

impl Add for Counts {
    type Output = Counts;
    fn add(self, r: Counts) -> Counts {
        Counts {
            pages_read: self.pages_read + r.pages_read,
            pages_written: self.pages_written + r.pages_written,
            packets_sent: self.packets_sent + r.packets_sent,
            packets_recv: self.packets_recv + r.packets_recv,
            msgs_shortcircuit: self.msgs_shortcircuit + r.msgs_shortcircuit,
            tuples_in: self.tuples_in + r.tuples_in,
            tuples_out: self.tuples_out + r.tuples_out,
            hash_inserts: self.hash_inserts + r.hash_inserts,
            hash_probes: self.hash_probes + r.hash_probes,
            comparisons: self.comparisons + r.comparisons,
            filter_drops: self.filter_drops + r.filter_drops,
            control_msgs: self.control_msgs + r.control_msgs,
            overflow_evictions: self.overflow_evictions + r.overflow_evictions,
            pages_spilled: self.pages_spilled + r.pages_spilled,
            pages_restored: self.pages_restored + r.pages_restored,
        }
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, r: Counts) {
        *self = *self + r;
    }
}

/// Resource demand accumulated by one node during one phase.
///
/// The three time fields model the node's three (overlappable) resources:
/// its CPU, its disk arm, and its network interface. Gamma overlapped disk
/// I/O with computation via read-ahead and overlapped network DMA with
/// computation, so a node's phase time is *not* the sum of the three. Under
/// the legacy model it is their maximum ([`Usage::busy_time`]); under the
/// queued model each disk/NI charge is also logged as a request (issued at
/// the node's CPU progress) and the devices are real FIFO servers — see
/// [`Usage::queue_timing`] and [`crate::queue`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Usage {
    /// CPU demand.
    pub cpu: SimTime,
    /// Disk service demand (arm + transfer).
    pub disk: SimTime,
    /// Network-interface service demand (per-packet wire occupancy at the
    /// NI; protocol *CPU* cost is charged to `cpu`).
    pub net: SimTime,
    /// Bytes this node placed on the shared ring (for the shared-bandwidth
    /// bound computed at the phase level).
    pub ring_bytes: u64,
    /// Event counters, charged through [`Usage::record`].
    pub counts: Counts,
    /// Per-device request logs (issue offset + service time per charge),
    /// the input to the queued timing model. Empty on a total (see
    /// `impl Sum<&Usage>`).
    pub reqs: RequestLog,
    /// Time disk requests spent queued before service. Filled in by
    /// [`Usage::annotate_queue_waits`] when a phase is sealed; zero until
    /// then (and always zero under the legacy model).
    pub disk_wait: SimTime,
    /// Time NI requests spent queued before service (see [`Usage::disk_wait`]).
    pub net_wait: SimTime,
}

/// Queue-model completion times for one node's phase: the drained
/// [`QueueStats`] for each device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeQueueTiming {
    /// Disk-arm queue result.
    pub disk: QueueStats,
    /// Network-interface queue result.
    pub net: QueueStats,
}

impl Usage {
    /// Ledger with zero demand.
    pub const ZERO: Usage = Usage {
        cpu: SimTime::ZERO,
        disk: SimTime::ZERO,
        net: SimTime::ZERO,
        ring_bytes: 0,
        counts: Counts::ZERO,
        reqs: RequestLog::EMPTY,
        disk_wait: SimTime::ZERO,
        net_wait: SimTime::ZERO,
    };

    /// Charge CPU time.
    #[inline]
    pub fn cpu(&mut self, t: SimTime) {
        self.cpu += t;
    }

    /// Charge disk service time. The charge is also logged as a disk
    /// request issued at the node's current CPU progress — the read-ahead /
    /// write-behind process hands the request to the arm and computation
    /// continues.
    #[inline]
    pub fn disk(&mut self, t: SimTime) {
        self.reqs.disk.push(Request {
            issue: self.cpu,
            service: t,
        });
        self.disk += t;
    }

    /// Charge network-interface time and ring occupancy; logged as an NI
    /// request issued at the node's current CPU progress (DMA overlaps with
    /// computation).
    #[inline]
    pub fn net(&mut self, t: SimTime, bytes: u64) {
        self.reqs.net.push(Request {
            issue: self.cpu,
            service: t,
        });
        self.net += t;
        self.ring_bytes += bytes;
    }

    /// The node's completion time for this phase under the legacy
    /// overlapped-resources model: the slowest of its three resources.
    /// A device at 95 % load costs exactly what one at 5 % does, so no
    /// convoy effects — [`Usage::queued_busy_time`] fixes that.
    ///
    /// The paper observes local joins run the CPUs at 100% utilisation —
    /// i.e. `cpu` is the max — while remote configurations drop the disk
    /// nodes to ~60%, which this model reproduces.
    #[inline]
    pub fn busy_time(&self) -> SimTime {
        self.cpu.max(self.disk).max(self.net)
    }

    /// Drain this node's request logs through per-device FIFO queues
    /// (see [`crate::queue`]; an unlogged service total counts as one
    /// request at time zero, [`queue::with_requests`]).
    pub fn queue_timing(&self) -> NodeQueueTiming {
        NodeQueueTiming {
            disk: queue::with_requests(&self.reqs.disk, self.disk, queue::fifo_drain),
            net: queue::with_requests(&self.reqs.net, self.net, queue::fifo_drain),
        }
    }

    /// The node's completion time under the queued model: CPU overlapped
    /// against each device's *queued* completion instead of its bare
    /// service total. Never below [`Usage::busy_time`].
    pub fn queued_busy_time(&self) -> SimTime {
        let q = self.queue_timing();
        self.cpu
            .max(q.disk.completion.max(self.disk))
            .max(q.net.completion.max(self.net))
    }

    /// Record the per-device queue waits on the ledger (for the report and
    /// trace layers to attribute queueing delay per node and phase) and
    /// return the drained timing.
    pub fn annotate_queue_waits(&mut self) -> NodeQueueTiming {
        let q = self.queue_timing();
        self.disk_wait = q.disk.wait;
        self.net_wait = q.net.wait;
        q
    }

    /// Sum of the resource demands (used by utilisation reporting only).
    #[inline]
    pub fn total_demand(&self) -> SimTime {
        self.cpu + self.disk + self.net
    }

    /// Emit per-request disk/NI wait and service histograms for this
    /// ledger into `reg`, attributed to `(node, phase)`. Replays the same
    /// FIFO discipline per request via [`queue::fold_waits`], over the same
    /// requests as [`Usage::queue_timing`] ([`queue::with_requests`]), so
    /// each device's `*_service_us` histogram sums exactly to the ledger's
    /// service total and `*_wait_us` sums exactly to the annotated wait —
    /// every charged microsecond stays attributable.
    pub fn meter_device_requests(&self, reg: &mut gamma_metrics::Registry, node: u16, phase: u32) {
        let mut meter = |log: &[Request], total: SimTime, wait: &'static str, svc: &'static str| {
            queue::with_requests(log, total, |log| {
                queue::fold_waits(log, |w, s| {
                    reg.observe_at(wait, phase, node, "", w.as_us());
                    reg.observe_at(svc, phase, node, "", s.as_us());
                })
            });
        };
        meter(
            &self.reqs.disk,
            self.disk,
            "disk_request_wait_us",
            "disk_request_service_us",
        );
        meter(
            &self.reqs.net,
            self.net,
            "net_request_wait_us",
            "net_request_service_us",
        );
    }
}

/// A total: the field-wise sum of the scalar fields — demand, ring bytes,
/// counts and waits — of every ledger summed. Each request log has one
/// owner, the (node, phase) ledger that charged it, so a total's `reqs` is
/// empty: logs from different ledgers target different servers, and their
/// concatenation would be no queue input.
impl<'a> Sum<&'a Usage> for Usage {
    fn sum<I: Iterator<Item = &'a Usage>>(iter: I) -> Usage {
        iter.fold(Usage::ZERO, |mut t, u| {
            t.cpu += u.cpu;
            t.disk += u.disk;
            t.net += u.net;
            t.ring_bytes += u.ring_bytes;
            t.counts += u.counts;
            t.disk_wait += u.disk_wait;
            t.net_wait += u.net_wait;
            t
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_is_resource_max() {
        let mut u = Usage::ZERO;
        u.cpu(SimTime::from_us(300));
        u.disk(SimTime::from_us(500));
        u.net(SimTime::from_us(100), 2048);
        assert_eq!(u.busy_time(), SimTime::from_us(500));
        assert_eq!(u.ring_bytes, 2048);
        assert_eq!(u.total_demand(), SimTime::from_us(900));
    }

    #[test]
    fn sum_accumulates_every_scalar_and_no_log() {
        let mut a = Usage::ZERO;
        a.cpu(SimTime::from_us(10));
        a.disk(SimTime::from_us(4));
        a.counts.pages_read = 3;
        a.disk_wait = SimTime::from_us(2);
        let mut b = Usage::ZERO;
        b.cpu(SimTime::from_us(5));
        b.net(SimTime::from_us(7), 64);
        b.counts.pages_read = 2;
        b.counts.packets_sent = 1;
        b.net_wait = SimTime::from_us(1);
        let c: Usage = [&a, &b].into_iter().sum();
        assert_eq!(c.cpu, SimTime::from_us(15));
        assert_eq!(c.disk, SimTime::from_us(4));
        assert_eq!(c.net, SimTime::from_us(7));
        assert_eq!(c.ring_bytes, 64);
        assert_eq!(c.counts.pages_read, 5);
        assert_eq!(c.counts.packets_sent, 1);
        assert_eq!(c.disk_wait, SimTime::from_us(2));
        assert_eq!(c.net_wait, SimTime::from_us(1));
        assert!(c.reqs.is_empty(), "a total owns no request log");
        assert_eq!((a.reqs.disk.len(), b.reqs.net.len()), (1, 1));
    }

    #[test]
    fn charges_log_requests_at_cpu_progress() {
        let mut u = Usage::ZERO;
        u.cpu(SimTime::from_us(100));
        u.disk(SimTime::from_us(20));
        u.cpu(SimTime::from_us(50));
        u.net(SimTime::from_us(5), 128);
        assert_eq!(
            u.reqs.disk,
            vec![Request {
                issue: SimTime::from_us(100),
                service: SimTime::from_us(20),
            }]
        );
        assert_eq!(u.reqs.net[0].issue, SimTime::from_us(150));
    }

    #[test]
    fn queued_busy_never_below_legacy() {
        let mut u = Usage::ZERO;
        for _ in 0..10 {
            u.cpu(SimTime::from_us(10));
            u.disk(SimTime::from_us(9));
        }
        assert!(u.queued_busy_time() >= u.busy_time());
    }

    #[test]
    fn unlogged_totals_fall_back_to_legacy_bound() {
        // A hand-assembled ledger with service totals but no request log
        // behaves like one request issued at time zero.
        let u = Usage {
            cpu: SimTime::from_us(40),
            disk: SimTime::from_us(70),
            ..Usage::ZERO
        };
        let q = u.queue_timing();
        assert_eq!(q.disk.completion, SimTime::from_us(70));
        assert_eq!(q.disk.wait, SimTime::ZERO);
        assert_eq!(u.queued_busy_time(), u.busy_time());
    }

    #[test]
    fn annotate_records_waits() {
        let mut u = Usage::ZERO;
        // Three disk requests issued back-to-back at cpu=0: 2nd waits 10,
        // 3rd waits 20.
        for _ in 0..3 {
            u.disk(SimTime::from_us(10));
        }
        let q = u.annotate_queue_waits();
        assert_eq!(u.disk_wait, SimTime::from_us(30));
        assert_eq!(q.disk.completion, SimTime::from_us(30));
        assert_eq!(u.net_wait, SimTime::ZERO);
    }

    #[test]
    fn counts_page_ios() {
        let c = Counts {
            pages_read: 4,
            pages_written: 6,
            ..Counts::ZERO
        };
        assert_eq!(c.page_ios(), 10);
    }

    #[test]
    fn sum_of_nothing_is_zero_and_a_lone_ledger_sums_to_its_scalars() {
        assert_eq!(std::iter::empty::<&Usage>().sum::<Usage>(), Usage::ZERO);
        let mut u = Usage::ZERO;
        u.disk(SimTime::from_ms(2));
        u.counts.hash_probes = 9;
        let t: Usage = std::iter::once(&u).sum();
        assert_eq!(
            t,
            Usage {
                reqs: RequestLog::EMPTY,
                ..u
            }
        );
    }
}
