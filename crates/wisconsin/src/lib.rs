//! # gamma-wisconsin — the benchmark workload
//!
//! Generates the Wisconsin benchmark relations the paper evaluates with
//! (\[BITT83\] as scaled up by the Gamma project): 208-byte tuples of
//! thirteen 4-byte integers and three 52-byte strings, including the
//! normally distributed attribute (mean 50,000, σ 750) used by the §4.4
//! skew experiments. Also provides:
//!
//! * loaders for the three declustering strategies (hashed on `unique1` is
//!   the paper's default; range partitioning on the join attribute is used
//!   for the skew experiments to keep scans balanced),
//! * the benchmark join queries (`joinABprime`, `joinAselB`,
//!   `joinCselAselB`) as [`gamma_core::JoinSpec`] builders,
//! * a reference **oracle join** that computes the expected result
//!   cardinality and multiset checksum, against which every engine run is
//!   validated.

pub mod gen;
pub mod load;
pub mod oracle;
pub mod queries;

pub use gen::{WisconsinGen, WisconsinRow};
pub use load::{load_hashed, load_range, load_round_robin, range_cuts};
pub use oracle::{oracle_join, OracleExpect};
pub use queries::{join_abprime, join_asel_b, join_csel_asel_b};
