//! Shared driver plumbing: the resolved execution plan.

use gamma_wiss::FileId;

use crate::machine::NodeId;
use crate::tuple::Attr;

/// An inclusive range predicate on an integer attribute — the selection
/// shape of the Wisconsin benchmark queries (`joinAselB` etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePred {
    /// Attribute the predicate applies to.
    pub attr: Attr,
    /// Lower bound, inclusive.
    pub lo: u32,
    /// Upper bound, inclusive.
    pub hi: u32,
}

impl RangePred {
    /// Evaluate against a tuple.
    #[inline]
    pub fn eval(&self, tuple: &[u8]) -> bool {
        let v = self.attr.get(tuple);
        self.lo <= v && v <= self.hi
    }
}

/// Everything a driver needs, resolved from the user-facing `JoinSpec` by
/// `query::run_join`.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// Join processors (disk nodes for "local", diskless for "remote").
    pub join_nodes: Vec<NodeId>,
    /// Bucket count for Grace/Hybrid (1 for Simple/Sort-Merge).
    pub buckets: usize,
    /// Hash-table bytes per join site (sort/merge bytes per node for
    /// sort-merge).
    pub capacity_per_site: u64,
    /// Inner-relation fragments, indexed by disk node.
    pub r_fragments: Vec<FileId>,
    /// Outer-relation fragments, indexed by disk node.
    pub s_fragments: Vec<FileId>,
    /// Inner join attribute.
    pub r_attr: Attr,
    /// Outer join attribute.
    pub s_attr: Attr,
    /// Inner tuple width in bytes.
    pub r_tuple_bytes: u64,
    /// Bits per site when bit filtering is on.
    pub filter_bits: Option<u64>,
    /// Extend filtering to the Grace/Hybrid bucket-forming phases — the
    /// improvement §4.2/§5 propose but Gamma had not implemented: one
    /// packet-sized filter per bucket is built while R is bucket-formed
    /// and applied while S is, so filtered tuples are never spooled.
    pub filter_bucket_forming: bool,
    /// Grace bucket tuning: `buckets` counts the small buckets; the driver
    /// combines them into memory-sized join rounds by measured size.
    pub bucket_tuning: bool,
    /// Optional selection on the inner relation, applied during its scan.
    pub r_pred: Option<RangePred>,
    /// Optional selection on the outer relation.
    pub s_pred: Option<RangePred>,
    /// Skew-aware split-table refinement: sample the inner relation's hash
    /// distribution during partitioning and split overloaded split-table
    /// entries across sites before any tuple moves.
    pub skew_refinement: bool,
    /// Robust dynamic overflow handling: restore spilled build tuples into
    /// table slack after the build settles, and join residual spill pairs
    /// locally instead of re-spraying the whole overflow globally.
    pub dynamic_spill: bool,
}

#[cfg(test)]
impl Resolved {
    /// A one-bucket plan joining on `attr` at `join_nodes` with every
    /// option off and no input fragments — unit tests fill in what they
    /// exercise.
    pub(crate) fn for_test(
        join_nodes: Vec<NodeId>,
        capacity_per_site: u64,
        attr: Attr,
        tuple_bytes: u64,
    ) -> Self {
        Resolved {
            join_nodes,
            buckets: 1,
            capacity_per_site,
            r_fragments: Vec::new(),
            s_fragments: Vec::new(),
            r_attr: attr,
            s_attr: attr,
            r_tuple_bytes: tuple_bytes,
            filter_bits: None,
            filter_bucket_forming: false,
            bucket_tuning: false,
            r_pred: None,
            s_pred: None,
            skew_refinement: false,
            dynamic_spill: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Field, Schema};

    #[test]
    fn range_pred_is_inclusive() {
        let s = Schema::new(vec![Field::Int("k".into())]);
        let attr = s.int_attr("k");
        let p = RangePred {
            attr,
            lo: 5,
            hi: 10,
        };
        let mk = |v: u32| v.to_le_bytes().to_vec();
        assert!(!p.eval(&mk(4)));
        assert!(p.eval(&mk(5)));
        assert!(p.eval(&mk(10)));
        assert!(!p.eval(&mk(11)));
    }
}
