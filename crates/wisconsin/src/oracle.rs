//! Reference join oracle.
//!
//! A plain single-threaded hash join over the generated rows, producing the
//! result cardinality and the same order-independent multiset checksum the
//! engine's [`gamma_core::exec::hash::Consumers::finish`] computes. Every integration
//! test and every harness run validates the parallel algorithms against
//! this.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use gamma_core::checksum::checksum_concat;

use crate::gen::{WisconsinGen, WisconsinRow};

/// Expected join result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleExpect {
    /// Result cardinality.
    pub tuples: u64,
    /// Multiset checksum of the composed `inner ‖ outer` result tuples.
    pub checksum: u64,
}

/// Join `inner` and `outer` on the named attributes, applying optional
/// range selections `[lo, hi]` first (mirroring the engine's predicates).
pub fn oracle_join(
    inner: &[WisconsinRow],
    outer: &[WisconsinRow],
    inner_attr: &str,
    outer_attr: &str,
    inner_sel: Option<(u32, u32)>,
    outer_sel: Option<(u32, u32)>,
) -> OracleExpect {
    let schema = WisconsinGen::schema();
    let keep = |r: &WisconsinRow, attr: &str, sel: Option<(u32, u32)>| {
        sel.is_none_or(|(lo, hi)| {
            let v = r.get(attr);
            lo <= v && v <= hi
        })
    };
    // Keyed the same in every process, so the join allocates alike run to run.
    let mut table: HashMap<u32, Vec<Vec<u8>>, BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    for r in inner {
        if keep(r, inner_attr, inner_sel) {
            table
                .entry(r.get(inner_attr))
                .or_default()
                .push(r.to_bytes(&schema));
        }
    }
    let mut tuples = 0u64;
    let mut checksum = 0u64;
    for s in outer {
        if !keep(s, outer_attr, outer_sel) {
            continue;
        }
        if let Some(matches) = table.get(&s.get(outer_attr)) {
            let s_bytes = s.to_bytes(&schema);
            for m in matches {
                tuples += 1;
                checksum = checksum_concat(checksum, m, &s_bytes);
            }
        }
    }
    OracleExpect { tuples, checksum }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_to_one_join_on_unique_attrs() {
        let g = WisconsinGen::new(11);
        let a = g.relation(1_000, 0);
        let bprime = g.sample(&a, 100, 1);
        let e = oracle_join(&bprime, &a, "unique1", "unique1", None, None);
        assert_eq!(
            e.tuples, 100,
            "each Bprime tuple matches exactly one A tuple"
        );
    }

    #[test]
    fn selection_limits_matches() {
        let g = WisconsinGen::new(11);
        let a = g.relation(1_000, 0);
        let e = oracle_join(&a, &a, "unique1", "unique1", Some((0, 99)), None);
        assert_eq!(e.tuples, 100);
    }

    #[test]
    fn nn_join_explodes() {
        // Both sides on the skewed attribute: result much larger than
        // either input (the paper's NN case produced 368,474 tuples from
        // 10K x 100K).
        let g = WisconsinGen::new(11);
        let a = g.relation(10_000, 0);
        let b = g.sample(&a, 1_000, 1);
        let e = oracle_join(&b, &a, "normal", "normal", None, None);
        assert!(
            e.tuples > 3_000,
            "skew-skew join should fan out, got {}",
            e.tuples
        );
    }

    #[test]
    fn checksum_detects_differences() {
        let g = WisconsinGen::new(11);
        let a = g.relation(200, 0);
        let b1 = g.sample(&a, 50, 1);
        let b2 = g.sample(&a, 50, 2);
        let e1 = oracle_join(&b1, &a, "unique1", "unique1", None, None);
        let e2 = oracle_join(&b2, &a, "unique1", "unique1", None, None);
        assert_eq!(e1.tuples, e2.tuples, "both 1:1");
        assert_ne!(
            e1.checksum, e2.checksum,
            "different samples give different result contents"
        );
    }
}
