//! The four parallel join algorithms.
//!
//! Each driver executes its algorithm for real over the machine's stored
//! relations and returns the ordered phase ledgers plus the result
//! description; [`common`] carries the resolved plan.
//!
//! The three hash joins are one family, as §3.2–3.4 present them, and
//! [`family`] is that family written once:
//!
//! * one **partition step** — scan, hash, route through a partitioning
//!   split table whose `Spool` entries feed bucket files and whose `Join`
//!   entries feed the join sites' build and probe stages;
//! * one **build/probe pass** around it — install sites, partition the
//!   inner input, settle, (restore), dispatch; broadcast filters,
//!   partition the outer input, settle, collect overflow, dispatch —
//!   parameterised by a `Pass` value that says only what differs between
//!   callers;
//! * one **resolve** for what overflowed — localized in-place rounds first
//!   under the robust policy, then the classic respray loop with its
//!   block-nested-loops guard, every round and respray being the pass
//!   again.
//!
//! [`simple`] is the bare pass (Hybrid's split table at one bucket) plus
//! resolve; [`hybrid`] is the pass through the Hybrid table, resolve for
//! bucket 1, and one bucket join — Simple's pass over bucket files — per
//! spooled bucket; [`grace`] is the pass through a table with no join
//! entries (so no sites: pure bucket forming) and one bucket join per
//! bucket or tuned group. [`sort_merge`] stands alone.

pub mod common;
pub mod family;
pub mod grace;
pub mod hybrid;
pub mod simple;
pub mod sort_merge;

pub use common::Resolved;
