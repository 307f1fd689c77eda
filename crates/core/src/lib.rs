//! # gamma-core — four parallel join algorithms on a simulated Gamma machine
//!
//! This crate is the reproduction's primary contribution: parallel versions
//! of the **Sort-Merge**, **Simple hash**, **Grace hash** and **Hybrid
//! hash** join algorithms, implemented exactly as Schneider & DeWitt
//! describe them running inside the Gamma database machine (SIGMOD 1989),
//! executing on real tuples over the `gamma-wiss` storage substrate and the
//! `gamma-net` interconnect, with response times produced by the
//! `gamma-des` virtual-time model.
//!
//! Layout:
//!
//! * [`mod@tuple`] — schemas and fixed-width tuple accessors,
//! * [`hash`] — the seeded randomizing hash function used for declustering,
//!   split-table routing, overflow resolution and bit filters,
//! * [`cost`] — the calibrated VAX-11/750-era cost model,
//! * [`checksum`] — the order-independent result-multiset checksum every
//!   engine run is validated through,
//! * [`machine`] — machine configuration (disk/diskless nodes), volumes,
//!   buffer pools, fabric and the relation catalog,
//! * [`split`] — partitioning/joining split tables built per Appendix A and
//!   the optimizer *bucket analyzer*,
//! * [`bitfilter`] — packet-sized bit-vector filters \[BABB79, VALD84\],
//! * [`hash_table`] — the memory-capped join hash table with the
//!   histogram-guided 10 % clearing heuristic of Section 4.1,
//! * [`exec`] — the per-node executor (serial, or thread-parallel on a
//!   worker pool) and the shared stage library: `Scan`,
//!   split/build/probe consumers, overflow spooling and resolution,
//!   bucket forming, scheduler dispatch and filter broadcast,
//! * [`algorithms`] — the four join drivers, each a short composition of
//!   executor stages,
//! * [`query`] — [`query::JoinSpec`] / [`query::run_join`], the public
//!   entry point, plus the DES replay that turns phase ledgers into a
//!   response time,
//! * [`report`] — per-phase and per-query instrumentation,
//! * [`throughput`] — operational-analysis bounds on multiuser throughput
//!   from a single measured query. The multiuser regime itself is no
//!   longer left to future work: the `gamma-sched` crate serves many
//!   concurrent joins over one machine (admission control, shared device
//!   queues) and measures the saturation knee these bounds predict.

pub mod algorithms;
pub mod batch;
pub mod bitfilter;
pub mod checksum;
pub mod cost;
pub mod exec;
pub mod hash;
pub mod hash_table;
pub mod machine;
pub mod query;
pub mod report;
pub mod split;
pub mod throughput;
pub mod tuple;

pub use batch::TupleBatch;
pub use cost::CostModel;
pub use exec::{pool::WorkerPool, ExecConfig};
pub use machine::{Machine, MachineConfig, NodeId, RelationId, StoredRelation};
pub use query::{run_join, run_join_with_phases, Algorithm, JoinSite, JoinSpec, OverflowPolicy};
pub use report::{JoinReport, PhaseRecord};
pub use tuple::{Attr, Schema};
