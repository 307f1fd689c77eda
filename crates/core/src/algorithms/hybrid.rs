//! Parallel Hybrid hash-join (§3.4).
//!
//! Like Grace, the relations are split into `N` buckets through the
//! Appendix A partitioning split table — but bucket 1 never touches disk:
//! its entries route straight to the join processes, so partitioning R
//! overlaps with building the first hash table and partitioning S overlaps
//! with probing it. Buckets 2..N are spooled to disk exactly like Grace's
//! and joined consecutively afterwards. When the optimizer runs the
//! algorithm "optimistically" (fewer buckets than the memory ratio
//! requires, Figure 7), bucket 1 overflows and the Simple-hash machinery
//! resolves it.
//!
//! In the family ([`super::family`]) this is one pass through the Hybrid
//! split table with both kinds of entry live, resolve for bucket 1, then
//! one bucket join per spooled bucket.

use crate::hash::JOIN_SEED;
use crate::machine::Machine;
use crate::report::DriverOutput;
use crate::split::PartitioningSplitTable;

use super::common::Resolved;
use super::family::{bucket_filters, HashJoin, Input, Pass};

/// Filter-salt namespace for Hybrid.
const HYBRID_SALT: u64 = 0x4B;

/// Execute a Hybrid hash-join.
pub fn run(machine: &mut Machine, rz: &Resolved) -> DriverOutput {
    let buckets = rz.buckets;
    let disk_nodes = machine.disk_nodes();
    let part = PartitioningSplitTable::hybrid(&rz.join_nodes, &disk_nodes, buckets);
    // Per-bucket filters for the spooled buckets when the §4.2/§5
    // bucket-forming extension is on (bucket 1 is covered by the join
    // sites' own filters).
    let form = rz
        .filter_bucket_forming
        .then(|| bucket_filters(machine, buckets, HYBRID_SALT));
    let mut join = HashJoin::new(machine, rz);

    // Phases 1+2: partition R overlapped with building bucket 1's hash
    // tables, then partition S overlapped with probing them.
    let (pairs, spooled) = join.pass(Pass {
        route: Some((&part, JOIN_SEED)),
        sites: &rz.join_nodes,
        filter_salt: HYBRID_SALT,
        inner: Input::fragments(&disk_nodes, &rz.r_fragments, rz.r_pred),
        outer: Input::fragments(&disk_nodes, &rz.s_fragments, rz.s_pred),
        refine: rz.skew_refinement,
        form,
        build_phase: Some("partition R / build bucket 1".into()),
        probe_phase: "partition S / probe bucket 1".into(),
        bucket: Some(1),
        ..Pass::default()
    });
    // Bucket 1 overflow (the Figure 7 "optimistic" path).
    join.resolve(pairs, HYBRID_SALT.wrapping_add(0x99), "bucket 1 ");

    // Buckets 2..N, joined exactly like Grace buckets.
    for b in 2..=buckets {
        join.join_buckets(&spooled, b..=b, HYBRID_SALT.wrapping_add(b as u64));
    }
    join.finish(buckets)
}
