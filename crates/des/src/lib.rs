//! # gamma-des — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the Gamma machine simulator used to
//! reproduce Schneider & DeWitt's 1989 evaluation of four parallel join
//! algorithms. It provides:
//!
//! * [`SimTime`] — a virtual clock in microseconds,
//! * [`Sim`] — an event queue over the caller's own event type (typically
//!   an enum, popped in a `match` loop with the caller's state beside the
//!   queue), stored by value, with deterministic FIFO tie-breaking,
//! * [`Usage`] / [`Counts`] — per-(node, phase) resource ledgers that higher
//!   layers charge CPU, disk and network demand to,
//! * [`queue`] — single-server FIFO request queues for each node's disk arm
//!   and network interface: one per-request step
//!   ([`SharedServer::submit_span`]) and its closed form over a whole log
//!   ([`SharedServer::submit_log`]),
//! * [`phase`] — [`compose`], which turns per-node ledgers into a phase
//!   completion time: each node's CPU overlapped against each device's
//!   FIFO-queued completion, so loaded devices produce convoy effects; the
//!   phase completes at the max over nodes, bounded below by shared ring
//!   bandwidth. The same pass reports the flat
//!   *overlapped-resources, balanced-pipeline* bound (a node's time is
//!   `max(cpu, disk, net)`) beside it, [`PhaseTiming::flat`],
//! * [`Usage::record`] — the one call that charges a counted [`Event`] to
//!   the ledger, the metrics registry and the trace sink.
//!
//! The kernel is intentionally small and fully deterministic: two events at
//! the same virtual time fire in the order they were scheduled, so a whole
//! query simulation is reproducible bit-for-bit, which the test suite relies
//! on heavily.

pub mod ledger;
pub mod phase;
pub mod queue;
mod record;
pub mod sim;
pub mod time;

pub use ledger::{Counts, NodeQueueTiming, Usage};
pub use phase::{compose, ring_time, PhaseTiming, TimingModel};
pub use queue::{
    fifo_drain, with_requests, DeviceLog, QueueStats, Request, RequestLog, ServiceSpan,
    SharedServer,
};
pub use record::Event;
pub use sim::Sim;
pub use time::SimTime;
