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
//! Every committed artifact is one row of [`regress::artifacts`]; `regress`
//! gates them and `regress --write` is the only writer of any of them.

pub mod ablations;
pub mod alloc;
pub mod experiments;
pub mod joinabprime;
pub mod metrics;
pub mod plot;
pub mod prof;
pub mod regress;
pub mod serve;
pub mod skew;
pub mod sweep;
pub mod tracing;

pub use sweep::{bench_pool, pooled_map, pooled_map_on, ExperimentPoint, SweepBuilder, Workload};

/// Write a binary's document to `out` when given, else print it to
/// stdout. No binary writes a tracked file on its own: the committed
/// copies are rendered by `regress --write`.
pub fn emit(out: Option<&str>, doc: &str) {
    match out {
        Some(path) => {
            std::fs::write(path, doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("wrote {path}");
        }
        None => print!("{doc}"),
    }
}
