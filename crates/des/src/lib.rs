//! # gamma-des — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the Gamma machine simulator used to
//! reproduce Schneider & DeWitt's 1989 evaluation of four parallel join
//! algorithms. It provides:
//!
//! * [`SimTime`] — a virtual clock in microseconds,
//! * [`Sim`] — an event queue with deterministic FIFO tie-breaking and a
//!   user-supplied state type,
//! * [`Usage`] / [`Counts`] — per-(node, phase) resource ledgers that higher
//!   layers charge CPU, disk and network demand to,
//! * [`queue`] — single-server FIFO request queues for each node's disk arm
//!   and network interface, drained by a closed-form fold,
//! * [`phase`] — helpers that turn per-node ledgers into phase completion
//!   times under a selectable [`TimingModel`]: the legacy
//!   *overlapped-resources, balanced-pipeline* bound (a node's phase time is
//!   `max(cpu, disk, net)`) or the queued model (CPU overlapped against each
//!   device's FIFO-queued completion, so loaded devices produce convoy
//!   effects). Either way a phase completes at the max over nodes and is
//!   bounded below by shared ring bandwidth.
//!
//! The kernel is intentionally small and fully deterministic: two events at
//! the same virtual time fire in the order they were scheduled, so a whole
//! query simulation is reproducible bit-for-bit, which the test suite relies
//! on heavily.

pub mod ledger;
pub mod phase;
pub mod queue;
pub mod sim;
pub mod time;

pub use ledger::{Counts, NodeQueueTiming, Usage};
pub use phase::{compose, ring_time, PhaseTiming, TimingModel};
pub use queue::{
    fifo_drain, fold_waits, with_requests, QueueStats, Request, RequestLog, ServiceSpan,
    SharedServer,
};
pub use sim::Sim;
pub use time::SimTime;
