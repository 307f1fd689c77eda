//! Loading Wisconsin relations into a machine.

use gamma_core::machine::Declustering;
use gamma_core::{Machine, RelationId};

use crate::gen::{to_tuple_batch, WisconsinGen, WisconsinRow};

/// Load hashed on an attribute (the paper's default is `unique1`).
pub fn load_hashed(
    machine: &mut Machine,
    name: &str,
    rows: &[WisconsinRow],
    attr_name: &str,
) -> RelationId {
    let schema = WisconsinGen::schema();
    let attr = schema.int_attr(attr_name);
    machine.load_relation(
        name,
        schema,
        Declustering::Hashed { attr },
        to_tuple_batch(rows).iter(),
    )
}

/// Load round-robin.
pub fn load_round_robin(machine: &mut Machine, name: &str, rows: &[WisconsinRow]) -> RelationId {
    let schema = WisconsinGen::schema();
    machine.load_relation(
        name,
        schema,
        Declustering::RoundRobin,
        to_tuple_batch(rows).iter(),
    )
}

/// Equal-depth range cuts for `attr` over `rows`: `D-1` ascending cut
/// points placing the same number of tuples on every disk (the §4.4
/// loading strategy: "we distributed each of the relations on their join
/// attribute by using the range partitioning strategy... resulted in an
/// equal number of tuples on each of the eight disks").
pub fn range_cuts(rows: &[WisconsinRow], attr_name: &str, disks: usize) -> Vec<u32> {
    assert!(disks >= 1 && !rows.is_empty());
    let mut vals: Vec<u32> = rows.iter().map(|r| r.get(attr_name)).collect();
    vals.sort_unstable();
    (1..disks).map(|i| vals[i * vals.len() / disks]).collect()
}

/// Load range-partitioned on an attribute with equal-depth cuts.
pub fn load_range(
    machine: &mut Machine,
    name: &str,
    rows: &[WisconsinRow],
    attr_name: &str,
) -> RelationId {
    let schema = WisconsinGen::schema();
    let attr = schema.int_attr(attr_name);
    let cuts = range_cuts(rows, attr_name, machine.cfg.disk_nodes);
    machine.load_relation(
        name,
        schema,
        Declustering::Range { attr, cuts },
        to_tuple_batch(rows).iter(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamma_core::MachineConfig;

    #[test]
    fn range_load_balances_skewed_attribute() {
        let g = WisconsinGen::new(3);
        let rows = g.relation(8_000, 0);
        let mut m = Machine::new(MachineConfig::local_8());
        let id = load_range(&mut m, "a", &rows, "normal");
        let rel = m.relation(id);
        for n in 0..8 {
            let cnt = m.nodes[n].vol().file_records(rel.fragments[n]);
            assert!(
                (900..=1100).contains(&cnt),
                "node {n} holds {cnt} of 8000 — range cuts failed to balance"
            );
        }
    }

    #[test]
    fn hashed_load_roughly_balances() {
        let g = WisconsinGen::new(3);
        let rows = g.relation(8_000, 0);
        let mut m = Machine::new(MachineConfig::local_8());
        let id = load_hashed(&mut m, "a", &rows, "unique1");
        let rel = m.relation(id);
        for n in 0..8 {
            let cnt = m.nodes[n].vol().file_records(rel.fragments[n]);
            assert!((800..=1200).contains(&cnt), "node {n}: {cnt}");
        }
        assert_eq!(rel.data_bytes, 8_000 * 208);
    }

    #[test]
    fn cuts_are_ascending() {
        let g = WisconsinGen::new(3);
        let rows = g.relation(1_000, 0);
        let cuts = range_cuts(&rows, "unique1", 8);
        assert_eq!(cuts.len(), 7);
        for w in cuts.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
