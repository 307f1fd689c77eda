//! # gamma-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section.
//! Each experiment builds the Wisconsin workload, loads it the way the
//! paper did (hash-declustered on `unique1`, or range-partitioned on the
//! join attribute for the skew experiments), sweeps memory availability,
//! and prints the same series the paper plots. Every join run is validated
//! against the oracle before its time is reported.
//!
//! Run `cargo run --release -p gamma-bench --bin figures -- all` to
//! regenerate everything (see `EXPERIMENTS.md` for the recorded output).

pub mod alloc;
pub mod experiments;
pub mod metrics;
pub mod plot;
pub mod prof;
pub mod regress;
pub mod serve;
pub mod skew;
pub mod sweep;
pub mod tracing;

pub use sweep::{bench_pool, pooled_map, pooled_map_on, ExperimentPoint, SweepBuilder, Workload};
