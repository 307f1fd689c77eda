//! Parallel Simple hash-join (§3.2).
//!
//! The inner relation streams through a joining split table straight into
//! in-memory hash tables at the join sites; overflow is handled by the
//! histogram clearing heuristic, with overflow partitions joined by
//! recursive passes under fresh hash functions. Until recently this was
//! the only join algorithm Gamma employed.
//!
//! In the family ([`super::family`]) this is the bare pass — Hybrid at one
//! bucket — followed by resolve; the first pass uses the load-time hash
//! function, so HPJA tuples short-circuit.

use crate::hash::JOIN_SEED;
use crate::machine::Machine;
use crate::report::DriverOutput;

use super::common::Resolved;
use super::family::{joining, HashJoin, Input, Pass};

/// Filter-salt namespace for Simple hash-join.
const SIMPLE_SALT: u64 = 0x51;

/// Execute a Simple hash-join.
pub fn run(machine: &mut Machine, rz: &Resolved) -> DriverOutput {
    let disk_nodes = machine.disk_nodes();
    let table = joining(&rz.join_nodes);
    let mut join = HashJoin::new(machine, rz);
    let (pairs, _) = join.pass(Pass {
        route: Some((&table, JOIN_SEED)),
        sites: &rz.join_nodes,
        filter_salt: SIMPLE_SALT,
        inner: Input::fragments(&disk_nodes, &rz.r_fragments, rz.r_pred),
        outer: Input::fragments(&disk_nodes, &rz.s_fragments, rz.s_pred),
        build_phase: Some("build R".into()),
        probe_phase: "probe S".into(),
        ..Pass::default()
    });
    join.resolve(pairs, SIMPLE_SALT, "simple ");
    join.finish(1)
}
