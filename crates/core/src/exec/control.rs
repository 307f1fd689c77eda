//! Control-plane stages: scheduler dispatch and bit-filter broadcast.
//!
//! These stay on the main thread and keep using the [`Fabric`] — they model
//! the Gamma scheduler process talking to operator processes, which is
//! serialized by construction (the paper charges dispatch time to the
//! query's response serially, Section 2.2).
//!
//! [`Fabric`]: gamma_net::Fabric

use gamma_des::SimTime;

use crate::exec::hash::JoinSites;
use crate::machine::{Ledgers, Machine, NodeId};

/// Charge operator-start control messages for a phase: the scheduler sends
/// each participant one message carrying `table_bytes` of split table.
/// Returns the scheduler's serialized dispatch time (added to response).
pub fn dispatch_overhead(
    machine: &mut Machine,
    ledgers: &mut Ledgers,
    participants: &[NodeId],
    table_bytes: u64,
) -> SimTime {
    let cost = machine.cfg.cost.clone();
    let mut t = SimTime::ZERO;
    for &n in participants {
        let bytes = cost.operator_start_bytes + table_bytes;
        machine.fabric.scheduler_control(&mut ledgers[n], n, bytes);
        t += machine
            .fabric
            .scheduler_dispatch_cost(SimTime::from_us(cost.scheduler_dispatch_us), bytes);
    }
    t
}

/// Broadcast the sites' bit filters to every disk (scanning) node: Gamma
/// shipped the aggregate packet-sized filter back to the producers so
/// non-joining outer tuples die at the source. No-op when filtering is off
/// or there are no sites (Grace's bucket-forming pass).
pub fn broadcast_filters(machine: &mut Machine, ledgers: &mut Ledgers, sites: &JoinSites) {
    if !sites.filters_on() {
        return;
    }
    let bytes = machine.cfg.cost.filter_packet_bytes;
    let send_cpu = machine.cfg.cost.ring.send_cpu_per_packet;
    // Each site contributes its slice of the aggregate filter packet...
    for &node in sites.nodes() {
        ledgers[node].cpu(send_cpu);
        ledgers[node].counts.packets_sent += 1;
        gamma_metrics::counter_add("packets_sent", node as u16, "filter", 1);
        gamma_trace::emit(
            node as u16,
            ledgers[node].total_demand().as_us(),
            gamma_trace::EventKind::PacketSend {
                dst: u16::MAX, // aggregate broadcast to the scanning nodes
                bytes: bytes as u32,
            },
        );
    }
    // ...and each disk node receives the aggregate packet.
    for n in machine.disk_nodes() {
        machine.fabric.scheduler_control(&mut ledgers[n], n, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    #[test]
    fn dispatch_overhead_grows_with_split_table() {
        let mut m = Machine::new(MachineConfig::local_8());
        let nodes = m.disk_nodes();
        let mut l1 = m.ledgers();
        let small = dispatch_overhead(&mut m, &mut l1, &nodes, 512);
        let mut l2 = m.ledgers();
        let big = dispatch_overhead(&mut m, &mut l2, &nodes, 5_000);
        assert!(
            big > small,
            "multi-packet split tables cost more to dispatch"
        );
        assert_eq!(l1[0].counts.control_msgs, 1);
    }
}
