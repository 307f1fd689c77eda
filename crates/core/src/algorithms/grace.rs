//! Parallel Grace hash-join (§3.3).
//!
//! Bucket-forming is completely separated from bucket-joining: both source
//! relations are hashed into `N` logical buckets, each bucket horizontally
//! partitioned across every disk node through the bucket-major partitioning
//! split table of Appendix A. Both relations are therefore written back to
//! disk in full before any joining starts — the reason Grace's curve is
//! nearly flat in memory and why extra buckets cost only scheduling
//! overhead. Each bucket is then joined Grace-style: build hash tables at
//! the join sites, probe, with per-bucket bit filters.
//!
//! In the family ([`super::family`]) bucket-forming is the pass through a
//! split table with no join entries — so no join sites, nothing resident,
//! nothing to resolve — followed by one bucket join per bucket (group).

use crate::hash::JOIN_SEED;
use crate::machine::Machine;
use crate::report::DriverOutput;
use crate::split::PartitioningSplitTable;

use super::common::Resolved;
use super::family::{bucket_filters, Buckets, HashJoin, Input, Pass};

/// Filter-salt namespace for Grace.
const GRACE_SALT: u64 = 0x6A;

/// Bucket tuning \[KITS83\]: combine consecutive small buckets into groups
/// whose *measured* inner size fits the aggregate join memory. Returns the
/// groups as inclusive ranges of 1-based bucket numbers.
fn tune_buckets(
    machine: &Machine,
    rz: &Resolved,
    spooled: &Buckets,
    buckets: usize,
) -> Vec<(usize, usize)> {
    // Pack to ~80% of the aggregate table capacity: hash-distribution
    // variance across sites must still fit each site's table.
    let aggregate = rz.capacity_per_site as u128 * rz.join_nodes.len() as u128;
    let memory = u64::try_from(aggregate * 80 / 100).unwrap_or(u64::MAX);
    // Measured R bytes per bucket across all fragments.
    let size_of = |b: usize| -> u64 {
        (0..machine.cfg.disk_nodes)
            .map(|n| {
                machine.nodes[n].vol().file_records(spooled.r[n][b - 1]) as u64 * rz.r_tuple_bytes
            })
            .sum()
    };
    let mut groups = Vec::new();
    let mut first = 1;
    let mut bytes = 0u64;
    for b in 1..=buckets {
        let sz = size_of(b);
        if b > first && bytes + sz > memory {
            groups.push((first, b - 1));
            first = b;
            bytes = 0;
        }
        bytes += sz;
    }
    groups.push((first, buckets));
    groups
}

/// Execute a Grace hash-join.
pub fn run(machine: &mut Machine, rz: &Resolved) -> DriverOutput {
    let buckets = rz.buckets;
    let disk_nodes = machine.disk_ids();
    let part = PartitioningSplitTable::grace(&disk_nodes, buckets);
    // With the §4.2/§5 extension on, per-bucket filters built from R kill
    // non-joining S tuples before they are ever spooled.
    let form = rz
        .filter_bucket_forming
        .then(|| bucket_filters(machine, buckets, GRACE_SALT));
    let mut join = HashJoin::new(machine, rz);

    // Phases 1+2: bucket-form both relations (everything goes to disk).
    // Refinement samples only the inner relation's distribution; the S
    // half then routes through the same (possibly refined) table so
    // matching tuples stay co-located.
    let (_, spooled) = join.pass(Pass {
        route: Some((&part, JOIN_SEED)),
        filter_salt: GRACE_SALT,
        inner: Input::fragments(&disk_nodes, &rz.r_fragments, rz.r_pred),
        outer: Input::fragments(&disk_nodes, &rz.s_fragments, rz.s_pred),
        refine: rz.skew_refinement,
        form,
        build_phase: Some("bucket-form R".into()),
        probe_phase: "bucket-form S".into(),
        ..Pass::default()
    });

    // Phase 3: join the buckets consecutively — grouped by measured size
    // when bucket tuning is on, one bucket per round otherwise.
    let groups = if rz.bucket_tuning {
        tune_buckets(join.machine, rz, &spooled, buckets)
    } else {
        (1..=buckets).map(|b| (b, b)).collect()
    };
    for (lo, hi) in groups {
        join.join_buckets(&spooled, lo..=hi, GRACE_SALT.wrapping_add(lo as u64));
    }
    join.finish(buckets)
}
