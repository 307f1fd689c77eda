//! The control plane: every message the scheduler sends an operator
//! process — operator starts, split tables, bit-filter packets — is charged
//! here and nowhere else.
//!
//! Control messages do not travel through the exchange. They model one
//! Gamma scheduler process talking to operator processes, serialized by
//! construction (the paper charges dispatch time to the query's response
//! serially, Section 2.2). [`broadcast`] charges each receiving node; what
//! the scheduler itself spends is returned to the caller, which adds it to
//! the phase's serial dispatch time.

use gamma_des::{Event, SimTime, Usage};
use gamma_net::RingConfig;

use crate::exec::hash::JoinSites;
use crate::machine::{Ledgers, Machine, NodeId};

/// Send one control message of `bytes` from the off-node scheduler to each
/// of `nodes`. Each receiver pays, per packet of the message, the receive
/// protocol CPU and the ring occupancy of its bytes, then the CPU to
/// process one control message. The scheduler's side is the caller's to
/// charge.
pub fn broadcast(machine: &Machine, ledgers: &mut Ledgers, nodes: &[NodeId], bytes: u64) {
    let cfg = &machine.cfg.cost.ring;
    for &n in nodes {
        receive(cfg, &mut ledgers[n], n, bytes);
    }
}

/// The receiving `node`'s side of one scheduler control message.
fn receive(cfg: &RingConfig, usage: &mut Usage, node: NodeId, bytes: u64) {
    let bytes = bytes.max(1);
    let mut remaining = bytes;
    for _ in 0..cfg.packets_for(bytes) {
        let chunk = remaining.min(cfg.packet_bytes);
        remaining -= chunk;
        usage.cpu(cfg.recv_cpu_per_packet);
        usage.net(cfg.wire_time(chunk), chunk);
        let ev = Event::PacketRecv {
            src: u16::MAX, // the off-node scheduler process
            bytes: chunk,
            wire: true,
        };
        usage.record(node as u16, "sched", ev);
    }
    usage.cpu(cfg.control_cpu_per_msg);
    usage.record(node as u16, "sched", Event::ControlMsg { bytes });
}

/// Charge operator-start control messages for a phase: the scheduler sends
/// each participant one message carrying `table_bytes` of split table.
/// Returns the scheduler's serialized dispatch time (added to response):
/// per message, the CPU to build it plus the send protocol CPU of each of
/// its packets.
pub fn dispatch_overhead(
    machine: &Machine,
    ledgers: &mut Ledgers,
    participants: &[NodeId],
    table_bytes: u64,
) -> SimTime {
    let cost = &machine.cfg.cost;
    let bytes = cost.operator_start_bytes + table_bytes;
    broadcast(machine, ledgers, participants, bytes);
    let packets = cost.ring.packets_for(bytes.max(1));
    let each = SimTime::from_us(cost.scheduler_dispatch_us)
        + cost.ring.send_cpu_per_packet.scaled(packets);
    each.scaled(participants.len() as u64)
}

/// Broadcast the sites' bit filters to every disk (scanning) node: Gamma
/// shipped the aggregate packet-sized filter back to the producers so
/// non-joining outer tuples die at the source. No-op when filtering is off
/// or there are no sites (Grace's bucket-forming pass).
pub fn broadcast_filters(machine: &Machine, ledgers: &mut Ledgers, sites: &JoinSites) {
    if !sites.filters_on() {
        return;
    }
    let bytes = machine.cfg.cost.filter_packet_bytes;
    let send_cpu = machine.cfg.cost.ring.send_cpu_per_packet;
    // Each site contributes its slice of the aggregate filter packet...
    for &node in sites.nodes() {
        ledgers[node].cpu(send_cpu);
        let ev = Event::PacketSent {
            dst: u16::MAX, // aggregate broadcast to the scanning nodes
            bytes,
            wire: false,
        };
        ledgers[node].record(node as u16, "filter", ev);
    }
    // ...and each disk node receives the aggregate packet.
    broadcast(machine, ledgers, &machine.disk_ids(), bytes);
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
        let small = dispatch_overhead(&m, &mut l1, &nodes, 512);
        let mut l2 = m.ledgers();
        let big = dispatch_overhead(&m, &mut l2, &nodes, 5_000);
        assert!(
            big > small,
            "multi-packet split tables cost more to dispatch"
        );
        assert_eq!(l1[0].counts.control_msgs, 1);
    }
}
