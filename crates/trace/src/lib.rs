//! # gamma-trace — deterministic structured event tracing
//!
//! An event recorder for the Gamma simulator. Operators, the exchange,
//! the scheduler's control plane, the buffer pool, and the phase replay
//! emit typed [`EventKind`]s into a thread-local [`TraceSink`]; with no
//! sink installed every hook is one thread-local load and a branch.
//! Because the simulator itself is single-threaded and deterministic,
//! the recorded stream — and every exported artifact — is byte-identical
//! across runs, making traces usable as golden regression files.
//!
//! ## Recording model
//!
//! The simulator executes *work first, time later*: operators run over
//! real tuples while charging per-node `Usage` ledgers (`gamma-des`), and
//! absolute times only exist once `replay_phases` schedules the sealed
//! phases on the virtual clock. The sink mirrors that two-step structure:
//!
//! 1. During operator execution, emitters call [`emit`] with the node id
//!    and the node's *demand offset* (its `Usage::total_demand()` in µs
//!    at the moment of the event). Events accumulate as pending.
//! 2. When a driver seals a phase (`PhaseRecord::new`), it calls
//!    [`TraceSink::seal_phase`] with the phase name and per-node resource splits;
//!    pending events are attached to that phase.
//! 3. When `replay_phases` assigns the phase an absolute start and
//!    duration, it calls [`TraceSink::phase_replayed_next`]. Export then maps each
//!    event's demand offset into absolute µs by scaling with the node's
//!    busy/demand ratio (resources overlap, so busy ≤ demand).
//!
//! All arithmetic is integer (u64, u128 past its range); no floats touch
//! timestamps.

use std::cell::RefCell;
use std::collections::VecDeque;

pub mod perfetto;
pub mod summary;

/// Default ring capacity: enough for every event of a paper-scale join
/// while bounding memory for adversarial workloads.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// A typed trace event. Numeric payloads are kept small and fixed-width
/// so the ring buffer stays compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A page read charged to the buffer pool (file id, page no).
    DiskRead { file: u32, page: u32 },
    /// A page write charged to the buffer pool (file id, page no).
    DiskWrite { file: u32, page: u32 },
    /// A network packet placed on the ring toward `dst`.
    PacketSend { dst: u16, bytes: u32 },
    /// A network packet delivered from `src`.
    PacketRecv { src: u16, bytes: u32 },
    /// A message short-circuited because src == dst (never hits the ring).
    ShortCircuit { bytes: u32 },
    /// A control message hop (scheduler/operator coordination).
    Control { dst: u16, bytes: u32 },
    /// A tuple inserted into an in-memory hash table.
    HashInsert,
    /// A probe against an in-memory hash table.
    HashProbe { matched: bool },
    /// A hash-bucket (partition) became the active in-memory bucket.
    BucketOpen { bucket: u16 },
    /// The active bucket was sealed (built + probed or flushed).
    BucketClose { bucket: u16 },
    /// A bucket overflowed memory and spilled to disk.
    BucketSpill { bucket: u16 },
    /// An operator-level span opened (name is a static label).
    SpanBegin { name: &'static str },
    /// The most recent operator span on this node closed.
    SpanEnd { name: &'static str },
    /// A simulation step: one replayed phase's end (absolute time, not
    /// offset).
    SimStep,
}

impl EventKind {
    /// Short stable label used by exporters.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::DiskRead { .. } => "disk_read",
            EventKind::DiskWrite { .. } => "disk_write",
            EventKind::PacketSend { .. } => "packet_send",
            EventKind::PacketRecv { .. } => "packet_recv",
            EventKind::ShortCircuit { .. } => "short_circuit",
            EventKind::Control { .. } => "control",
            EventKind::HashInsert => "hash_insert",
            EventKind::HashProbe { .. } => "hash_probe",
            EventKind::BucketOpen { .. } => "bucket_open",
            EventKind::BucketClose { .. } => "bucket_close",
            EventKind::BucketSpill { .. } => "bucket_spill",
            EventKind::SpanBegin { .. } => "span_begin",
            EventKind::SpanEnd { .. } => "span_end",
            EventKind::SimStep => "sim_step",
        }
    }
}

/// One recorded event: where it happened and how far into the node's
/// demand it fell. `phase` is assigned at seal time (`u32::MAX` while
/// pending; [`SCHEDULER_PHASE`] for DES kernel events, whose
/// `offset_us` is already absolute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub node: u16,
    pub phase: u32,
    pub offset_us: u64,
    pub kind: EventKind,
}

/// Phase index marking DES kernel events (absolute timestamps).
pub const SCHEDULER_PHASE: u32 = u32::MAX - 1;
const PENDING_PHASE: u32 = u32::MAX;

/// Per-node resource split for one sealed phase, in simulated µs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeUsage {
    pub cpu_us: u64,
    pub disk_us: u64,
    pub net_us: u64,
    /// Time disk requests spent queued at this node's arm.
    pub disk_wait_us: u64,
    /// Time NI requests spent queued at this node's interface.
    pub net_wait_us: u64,
    /// When the disk finished its last request, phase-relative (zero when
    /// unknown; never below `disk_us` once set).
    pub disk_done_us: u64,
    /// When the NI finished its last request, phase-relative.
    pub net_done_us: u64,
}

impl NodeUsage {
    /// Busy time: the max of the three resources, with each device's
    /// *queued* completion (when known) substituted for its bare service
    /// total.
    pub fn busy_us(&self) -> u64 {
        self.cpu_us
            .max(self.disk_us.max(self.disk_done_us))
            .max(self.net_us.max(self.net_done_us))
    }

    /// Total demand: the sum of the three resources.
    pub fn demand_us(&self) -> u64 {
        self.cpu_us + self.disk_us + self.net_us
    }

    /// The resource that dominates this node's busy time.
    pub fn dominant(&self) -> &'static str {
        if self.cpu_us >= self.disk_us && self.cpu_us >= self.net_us {
            "cpu"
        } else if self.disk_us >= self.net_us {
            "disk"
        } else {
            "net"
        }
    }
}

/// A sealed phase: name, per-node usage, and (after replay) its
/// absolute placement on the virtual clock.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    pub per_node: Vec<NodeUsage>,
    /// Absolute start in µs; `None` until `phase_replayed`.
    pub start_us: Option<u64>,
    /// Wall duration in µs (max node busy, ring-bandwidth bounded).
    pub dur_us: Option<u64>,
}

impl Phase {
    /// The node whose busy time sets this phase's duration.
    pub fn critical_node(&self) -> Option<usize> {
        self.per_node
            .iter()
            .enumerate()
            .max_by_key(|(i, u)| (u.busy_us(), usize::MAX - i))
            .map(|(i, _)| i)
    }
}

/// Monotonic totals for every event class, counted even when the ring
/// evicts — these reconcile against the `Counts` ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventTotals {
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub packets_sent: u64,
    pub packets_recv: u64,
    pub short_circuits: u64,
    pub control_msgs: u64,
    pub hash_inserts: u64,
    pub hash_probes: u64,
    pub bucket_opens: u64,
    pub bucket_closes: u64,
    pub bucket_spills: u64,
    pub spans: u64,
    pub sim_steps: u64,
}

impl EventTotals {
    fn record(&mut self, kind: &EventKind) {
        match kind {
            EventKind::DiskRead { .. } => self.disk_reads += 1,
            EventKind::DiskWrite { .. } => self.disk_writes += 1,
            EventKind::PacketSend { .. } => self.packets_sent += 1,
            EventKind::PacketRecv { .. } => self.packets_recv += 1,
            EventKind::ShortCircuit { .. } => self.short_circuits += 1,
            EventKind::Control { .. } => self.control_msgs += 1,
            EventKind::HashInsert => self.hash_inserts += 1,
            EventKind::HashProbe { .. } => self.hash_probes += 1,
            EventKind::BucketOpen { .. } => self.bucket_opens += 1,
            EventKind::BucketClose { .. } => self.bucket_closes += 1,
            EventKind::BucketSpill { .. } => self.bucket_spills += 1,
            EventKind::SpanBegin { .. } => self.spans += 1,
            EventKind::SpanEnd { .. } => {}
            EventKind::SimStep => self.sim_steps += 1,
        }
    }
}

/// Ring-buffered deterministic event recorder.
#[derive(Debug)]
pub struct TraceSink {
    ring: VecDeque<Event>,
    capacity: usize,
    /// Events evicted from the ring (totals still count them).
    pub dropped: u64,
    pub totals: EventTotals,
    pub phases: Vec<Phase>,
    /// Next phase index awaiting `phase_replayed_next`.
    replay_cursor: usize,
    /// Events pushed since the last seal, the ring's newest: only these
    /// can still be pending.
    unsealed: usize,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

impl TraceSink {
    /// A sink whose ring holds at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceSink {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            totals: EventTotals::default(),
            phases: Vec::new(),
            replay_cursor: 0,
            unsealed: 0,
        }
    }

    /// A sink that never evicts. Used by per-node worker threads, whose
    /// events are re-emitted into the main sink in deterministic node
    /// order at the end of each parallel step — eviction inside a worker
    /// would silently change what the merge sees.
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Record one event at the node's current demand offset.
    pub fn emit(&mut self, node: u16, offset_us: u64, kind: EventKind) {
        self.push(Event {
            node,
            phase: PENDING_PHASE,
            offset_us,
            kind,
        });
    }

    /// Record a simulation step (a replayed phase's end) at an absolute
    /// simulated time.
    pub fn emit_sim_step(&mut self, at_us: u64) {
        self.push(Event {
            node: 0,
            phase: SCHEDULER_PHASE,
            offset_us: at_us,
            kind: EventKind::SimStep,
        });
    }

    fn push(&mut self, ev: Event) {
        self.totals.record(&ev.kind);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
        self.unsealed = (self.unsealed + 1).min(self.ring.len());
    }

    /// Seal all pending events into a new named phase and return its index.
    pub fn seal_phase(&mut self, name: &str, per_node: Vec<NodeUsage>) -> u32 {
        let idx = self.phases.len() as u32;
        let sealed = self.ring.len() - std::mem::take(&mut self.unsealed);
        for ev in self.ring.range_mut(sealed..) {
            if ev.phase == PENDING_PHASE {
                ev.phase = idx;
            }
        }
        self.phases.push(Phase {
            name: name.to_string(),
            per_node,
            start_us: None,
            dur_us: None,
        });
        idx
    }

    /// Record the absolute placement `replay_phases` computed for a phase.
    /// Phases are replayed in seal order, so `idx` counts up from 0.
    pub fn phase_replayed(&mut self, idx: usize, start_us: u64, dur_us: u64) {
        if let Some(ph) = self.phases.get_mut(idx) {
            ph.start_us = Some(start_us);
            ph.dur_us = Some(dur_us);
        }
        self.replay_cursor = self.replay_cursor.max(idx + 1);
    }

    /// Record placement for the next not-yet-replayed phase. The replay
    /// walks phases in seal order, so a cursor keeps the attribution
    /// correct even when several joins share one sink.
    pub fn phase_replayed_next(&mut self, start_us: u64, dur_us: u64) {
        let idx = self.replay_cursor;
        self.phase_replayed(idx, start_us, dur_us);
    }

    /// Events still in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Absolute timestamp for an event, once its phase has been replayed.
    ///
    /// The event's demand offset (µs of `total_demand` accumulated on its
    /// node when it fired) is clamped to the phase window by scaling with
    /// the node's busy/demand ratio: resources overlap, so a node that
    /// demanded 3s of work across cpu+disk+net may only occupy 1.2s of
    /// wall time. Pure integer math keeps the mapping deterministic.
    pub fn absolute_ts(&self, ev: &Event) -> Option<u64> {
        if ev.phase == SCHEDULER_PHASE {
            return Some(ev.offset_us);
        }
        let ph = self.phases.get(ev.phase as usize)?;
        let start = ph.start_us?;
        let usage = ph.per_node.get(ev.node as usize)?;
        let demand = usage.demand_us();
        if demand == 0 {
            return Some(start);
        }
        let (offset, busy) = (ev.offset_us.min(demand), usage.busy_us());
        // The product fits a u64 in every real trace; u128 only past it.
        let scaled = match offset.checked_mul(busy) {
            Some(product) => product / demand,
            None => (u128::from(offset) * u128::from(busy) / u128::from(demand)) as u64,
        };
        Some(start + scaled)
    }

    /// End of the last replayed phase — the simulated response time.
    pub fn response_us(&self) -> u64 {
        self.phases
            .iter()
            .filter_map(|p| Some(p.start_us? + p.dur_us?))
            .max()
            .unwrap_or(0)
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<TraceSink>> = const { RefCell::new(None) };
}

/// Install a sink for the current thread, replacing (and returning) any
/// previous one. The simulator is single-threaded, so thread-local
/// scoping is exactly machine-local scoping.
pub fn install(sink: TraceSink) -> Option<TraceSink> {
    ACTIVE.with(|a| a.borrow_mut().replace(sink))
}

/// Remove and return the current thread's sink.
pub fn take() -> Option<TraceSink> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// True when a sink is installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Run `f` against the installed sink; a no-op when tracing is off.
/// This is the single indirection every instrumentation hook uses, so
/// the disabled-at-runtime cost is one thread-local load and branch.
pub fn with<F: FnOnce(&mut TraceSink)>(f: F) {
    ACTIVE.with(|a| {
        if let Some(sink) = a.borrow_mut().as_mut() {
            f(sink);
        }
    });
}

/// Emit one event against the installed sink; no-op when tracing is off.
pub fn emit(node: u16, offset_us: u64, kind: EventKind) {
    with(|s| s.emit(node, offset_us, kind));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(cpu: u64, disk: u64, net: u64) -> NodeUsage {
        NodeUsage {
            cpu_us: cpu,
            disk_us: disk,
            net_us: net,
            ..Default::default()
        }
    }

    #[test]
    fn ring_evicts_but_totals_count() {
        let mut sink = TraceSink::new(2);
        for _ in 0..5 {
            sink.emit(0, 0, EventKind::HashInsert);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped, 3);
        assert_eq!(sink.totals.hash_inserts, 5);
    }

    #[test]
    fn seal_assigns_phase_indices() {
        let mut sink = TraceSink::new(16);
        sink.emit(0, 10, EventKind::HashInsert);
        let p0 = sink.seal_phase("build", vec![usage(100, 0, 0)]);
        sink.emit(0, 20, EventKind::HashProbe { matched: true });
        let p1 = sink.seal_phase("probe", vec![usage(50, 0, 0)]);
        let phases: Vec<u32> = sink.events().map(|e| e.phase).collect();
        assert_eq!(phases, vec![p0, p1]);
        assert_eq!(sink.phases.len(), 2);
    }

    #[test]
    fn seal_reaches_every_pending_event_after_eviction() {
        let mut sink = TraceSink::new(3);
        sink.emit(0, 1, EventKind::HashInsert);
        sink.seal_phase("a", vec![usage(1, 0, 0)]);
        sink.emit(0, 2, EventKind::HashInsert);
        sink.emit_sim_step(5);
        for offset in 3..6 {
            sink.emit(0, offset, EventKind::HashInsert);
        }
        sink.seal_phase("b", vec![usage(1, 0, 0)]);
        sink.emit(0, 9, EventKind::HashInsert);
        sink.seal_phase("c", vec![usage(1, 0, 0)]);
        let phases: Vec<u32> = sink.events().map(|e| e.phase).collect();
        assert_eq!(phases, vec![1, 1, 2]);
        assert_eq!(sink.dropped, 4);
    }

    #[test]
    fn absolute_ts_scales_offset_by_overlap() {
        let mut sink = TraceSink::new(16);
        // demand = 300 (cpu 100 + disk 200), busy = 200.
        sink.emit(0, 150, EventKind::DiskRead { file: 1, page: 2 });
        sink.seal_phase("scan", vec![usage(100, 200, 0)]);
        sink.phase_replayed(0, 1_000, 200);
        let ev = *sink.events().next().unwrap();
        // 150/300 of demand -> 100/200 of busy -> start + 100.
        assert_eq!(sink.absolute_ts(&ev), Some(1_100));
    }

    #[test]
    fn scheduler_events_are_absolute() {
        let mut sink = TraceSink::new(16);
        sink.emit_sim_step(777);
        let ev = *sink.events().next().unwrap();
        assert_eq!(sink.absolute_ts(&ev), Some(777));
        assert_eq!(sink.totals.sim_steps, 1);
    }

    #[test]
    fn thread_local_install_take() {
        assert!(!is_active());
        install(TraceSink::new(8));
        assert!(is_active());
        emit(3, 42, EventKind::HashInsert);
        let sink = take().unwrap();
        assert_eq!(sink.totals.hash_inserts, 1);
        assert!(!is_active());
    }

    #[test]
    fn response_is_last_phase_end() {
        let mut sink = TraceSink::new(4);
        sink.seal_phase("a", vec![usage(10, 0, 0)]);
        sink.seal_phase("b", vec![usage(10, 0, 0)]);
        sink.phase_replayed(0, 0, 400);
        sink.phase_replayed(1, 400, 250);
        assert_eq!(sink.response_us(), 650);
    }
}
