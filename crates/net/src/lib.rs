//! # gamma-net — token-ring interconnect model
//!
//! Models the 80 Mbit/s token ring that connects Gamma's VAX 11/750 nodes:
//!
//! * tuples travelling to the same destination are **batched into 2 KB
//!   packets** (Gamma's network packet size — the reason split tables larger
//!   than 2 KB must be sent in pieces, visible as the extra rise at the low
//!   end of the paper's memory sweeps),
//! * messages between processes on the **same node are short-circuited** by
//!   the communications software: no ring traffic and a far cheaper CPU
//!   path (this is what makes HPJA joins fast),
//! * per-packet protocol CPU cost dominates per-byte cost, as it did on the
//!   real hardware's sliding-window datagram protocol,
//! * the ring is a **shared medium**: `gamma_des::compose` applies
//!   the aggregate-bytes/bandwidth lower bound from the `ring_bytes` this
//!   crate charges.
//!
//! The [`Exchange`] is the one packet path: it carries every inter-node
//! tuple from a producer's [`Outbox`] to a consumer's [`Inbox`] and makes
//! every packet charge on the way, the send half to the producer's
//! [`gamma_des::Usage`] ledger as packets seal, the receive half to the
//! consumer's as it drains them. Scheduler control messages do not travel
//! here; the join engine charges them where it sends them.

pub mod config;
pub mod exchange;

pub use config::RingConfig;
pub use exchange::{Drained, Exchange, Image, Inbox, Msg, Outbox, Part};
