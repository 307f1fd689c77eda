//! # gamma-wiss — a WiSS-like storage substrate
//!
//! Gamma's file services came from the Wisconsin Storage System (WiSS):
//! structured sequential files, B+ indices, a sort utility, and a scan
//! mechanism with one-page readahead. The four joins use three of them —
//! temporary and bucket files, the sort utility and sequential scans with
//! readahead — and this crate rebuilds exactly those on top of simulated
//! per-node disk volumes:
//!
//! * [`page`] — 8 KB slotted pages (variable-length records), stored and
//!   shared in segments of eight,
//! * [`disk`] — per-node [`disk::Volume`]s holding files of pages, plus the
//!   [`disk::DiskConfig`] service-time model (sequential vs. random) for an
//!   8-inch Fujitsu-class drive,
//! * [`pool`] — a per-node LRU buffer pool; all I/O charging flows through
//!   it so cached re-reads are free, exactly once, and the disk-arm model
//!   can distinguish sequential from random access (the one-page readahead
//!   of WiSS is captured by the engine's overlapped CPU/disk timing model),
//! * [`heap`] — heap-file writers and scans used for base relations, bucket
//!   files and overflow files,
//! * [`sort`] — the external merge sort utility (run formation + multi-pass
//!   merge) that drives the parallel sort-merge join; its pass count is what
//!   produces the "upward steps" in the paper's sort-merge curves.
//!
//! Everything executes for real on real bytes; the simulation aspect is the
//! *cost accounting* charged to [`gamma_des::Usage`] ledgers.

pub mod disk;
pub mod heap;
pub mod page;
pub mod pool;
pub mod sort;

pub use disk::{DiskConfig, FileId, Volume};
pub use heap::{HeapScan, HeapWriter};
pub use page::Page;
pub use pool::BufferPool;
pub use sort::{external_sort, SortConfig, SortCost, SortStats};
