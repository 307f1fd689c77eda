//! [`Usage::record`]: the one call that charges a counted [`Event`] to the
//! ledger, the thread-local metrics registry and the thread-local trace
//! sink, so the three cannot disagree. Series and trace events that mirror
//! no ledger count (pool hits, spans, bucket lifecycle) stay direct calls.

use gamma_metrics::Column;
use gamma_trace::EventKind as Kind;

use crate::ledger::Usage;

/// The series `record` adds, each a column of the registry's row for the
/// event's (phase, node, op).
mod series {
    use super::Column as C;

    pub const PAGES_READ: C = C::new("pages_read", 0);
    pub const PAGES_WRITTEN: C = C::new("pages_written", 1);
    pub const PACKETS_SENT: C = C::new("packets_sent", 2);
    pub const PACKETS_RECV: C = C::new("packets_recv", 3);
    pub const MSGS_SHORTCIRCUIT: C = C::new("msgs_shortcircuit", 4);
    pub const CONTROL_MSGS: C = C::new("control_msgs", 5);
    pub const HASH_INSERTS: C = C::new("hash_inserts", 6);
    pub const HASH_PROBES: C = C::new("hash_probes", 7);
    pub const OP_TUPLES_OUT: C = C::new("op_tuples_out", 8);
    pub const OP_TUPLES_IN: C = C::new("op_tuples_in", 9);
    pub const FILTER_DROPS: C = C::new("filter_drops", 10);
    pub const OVERFLOW_EVICTIONS: C = C::new("overflow_evictions", 11);
    pub const COMPARISONS: C = C::new("comparisons", 12);
    pub const PAGES_RESTORED: C = C::new("pages_restored", 13);
    pub const PAGES_SPILLED: C = C::new("pages_spilled", 14);
    pub const WIRE_BYTES: C = C::new("wire_bytes", 15);
    pub const PACKET_BYTES: C = C::new("packet_bytes", 16);
    pub const SHORTCIRCUIT_BYTES: C = C::new("shortcircuit_bytes", 17);
    pub const PROBE_CHAIN_COMPARES: C = C::new("probe_chain_compares", 18);
}

/// One counted fact, as the operator that caused it charges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A buffer-pool miss read a page from disk.
    PageRead { file: u32, page: u32 },
    /// A page was written to disk.
    PageWritten { file: u32, page: u32 },
    /// A packet left for `dst`. `wire` when this ledger was also charged
    /// its ring occupancy ([`Usage::net`]): the `wire_bytes` and
    /// `packet_bytes` series then carry it too.
    PacketSent { dst: u16, bytes: u64, wire: bool },
    /// A packet from `src` was received; `wire` as for `PacketSent`.
    PacketRecv { src: u16, bytes: u64, wire: bool },
    /// A message was handed over on the node instead of the ring.
    ShortCircuit { bytes: u64 },
    /// One scheduler control message was processed.
    ControlMsg { bytes: u64 },
    /// One input tuple was inserted into a hash table.
    HashInsert,
    /// One input tuple probed a hash chain, comparing `compares` entries.
    HashProbe { compares: u64, matched: bool },
    /// One result tuple was produced.
    TupleOut,
    /// `n` input tuples were scanned.
    TuplesIn(u64),
    /// A bit-vector filter eliminated one tuple.
    FilterDrop,
    /// The Simple-hash heuristic evicted one tuple to an overflow file.
    OverflowEviction,
    /// A merge made `n` key comparisons.
    Comparisons(u64),
    /// `n` spilled build pages were restored to memory.
    PagesRestored(u64),
    /// `n` build pages stayed spilled.
    PagesSpilled(u64),
}

impl Usage {
    /// Charge one counted event at `node` for operator `op`: bump the
    /// ledger, add the series that mirror it under `op` when a registry is
    /// installed, and emit its trace event (if it has one) at this ledger's
    /// demand when a sink is installed. Call it after the event's time
    /// charges, so the trace offset includes them.
    pub fn record(&mut self, node: u16, op: &'static str, ev: Event) {
        use series as S;
        use Event as E;
        let c = &mut self.counts;
        // Every event bumps one count, mirrored by one counter series.
        let (count, column, n) = match ev {
            E::PageRead { .. } => (&mut c.pages_read, S::PAGES_READ, 1),
            E::PageWritten { .. } => (&mut c.pages_written, S::PAGES_WRITTEN, 1),
            E::PacketSent { .. } => (&mut c.packets_sent, S::PACKETS_SENT, 1),
            E::PacketRecv { .. } => (&mut c.packets_recv, S::PACKETS_RECV, 1),
            E::ShortCircuit { .. } => (&mut c.msgs_shortcircuit, S::MSGS_SHORTCIRCUIT, 1),
            E::ControlMsg { .. } => (&mut c.control_msgs, S::CONTROL_MSGS, 1),
            E::HashInsert => (&mut c.hash_inserts, S::HASH_INSERTS, 1),
            E::HashProbe { .. } => (&mut c.hash_probes, S::HASH_PROBES, 1),
            E::TupleOut => (&mut c.tuples_out, S::OP_TUPLES_OUT, 1),
            E::TuplesIn(n) => (&mut c.tuples_in, S::OP_TUPLES_IN, n),
            E::FilterDrop => (&mut c.filter_drops, S::FILTER_DROPS, 1),
            E::OverflowEviction => (&mut c.overflow_evictions, S::OVERFLOW_EVICTIONS, 1),
            E::Comparisons(n) => (&mut c.comparisons, S::COMPARISONS, n),
            E::PagesRestored(n) => (&mut c.pages_restored, S::PAGES_RESTORED, n),
            E::PagesSpilled(n) => (&mut c.pages_spilled, S::PAGES_SPILLED, n),
        };
        *count += n;
        // A hash operation also consumes its input tuple, and a probe
        // walks its chain.
        if let E::HashInsert | E::HashProbe { .. } = ev {
            c.tuples_in += 1;
        }
        if let E::HashProbe { compares, .. } = ev {
            c.comparisons += compares;
        }
        gamma_metrics::with(|r| {
            // One (phase, node, op) row holds every series this event adds.
            let mut row = r.row(node, op);
            row.counter_add(column, n);
            match ev {
                E::PacketSent { bytes, wire, .. } | E::PacketRecv { bytes, wire, .. } if wire => {
                    row.counter_add(S::WIRE_BYTES, bytes);
                    row.observe(S::PACKET_BYTES, bytes);
                }
                E::ShortCircuit { bytes } => row.counter_add(S::SHORTCIRCUIT_BYTES, bytes),
                E::HashInsert => row.counter_add(S::OP_TUPLES_IN, 1),
                E::HashProbe { compares, .. } => {
                    row.counter_add(S::OP_TUPLES_IN, 1);
                    row.counter_add(S::COMPARISONS, compares);
                    row.observe(S::PROBE_CHAIN_COMPARES, compares);
                }
                _ => {}
            }
        });
        let kind = match ev {
            E::PageRead { file, page } => Kind::DiskRead { file, page },
            E::PageWritten { file, page } => Kind::DiskWrite { file, page },
            E::PacketSent { dst, bytes, .. } => Kind::PacketSend {
                dst,
                bytes: trace_bytes(bytes),
            },
            E::PacketRecv { src, bytes, .. } => Kind::PacketRecv {
                src,
                bytes: trace_bytes(bytes),
            },
            E::ShortCircuit { bytes } => Kind::ShortCircuit {
                bytes: trace_bytes(bytes),
            },
            E::ControlMsg { bytes } => Kind::Control {
                dst: node,
                bytes: trace_bytes(bytes),
            },
            E::HashInsert => Kind::HashInsert,
            E::HashProbe { matched, .. } => Kind::HashProbe { matched },
            // The other events have no trace kind and leave the sink alone.
            _ => return,
        };
        gamma_trace::with(|s| s.emit(node, self.total_demand().as_us(), kind));
    }
}

/// Narrow a payload size to the `u32` byte field of a trace event. Every
/// real payload is batched into 2 KB packets, so a size past `u32` is a
/// charging bug: fail loudly instead of recording a wrapped size.
fn trace_bytes(bytes: u64) -> u32 {
    u32::try_from(bytes).expect("payload byte count exceeds the u32 trace field")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counts, SimTime};
    use gamma_metrics::Value;

    const NODE: u16 = 3;
    const OP: &str = "op";

    /// What one recorded event must leave behind.
    struct Case {
        ev: Event,
        /// The ledger after recording into an empty one.
        counts: Counts,
        /// Every series the registry holds afterwards, all at `(NODE, OP)`,
        /// with its counter value or histogram sum.
        series: &'static [(&'static str, u64)],
        kind: Option<Kind>,
    }

    fn counts(set: impl FnOnce(&mut Counts)) -> Counts {
        let mut c = Counts::ZERO;
        set(&mut c);
        c
    }

    fn cases() -> Vec<Case> {
        let packet = |dst, bytes, wire| Event::PacketSent { dst, bytes, wire };
        let from = |src, bytes, wire| Event::PacketRecv { src, bytes, wire };
        let probe = |compares, matched| Event::HashProbe { compares, matched };
        vec![
            Case {
                ev: Event::PageRead { file: 7, page: 9 },
                counts: counts(|c| c.pages_read = 1),
                series: &[("pages_read", 1)],
                kind: Some(Kind::DiskRead { file: 7, page: 9 }),
            },
            Case {
                ev: Event::PageWritten { file: 7, page: 9 },
                counts: counts(|c| c.pages_written = 1),
                series: &[("pages_written", 1)],
                kind: Some(Kind::DiskWrite { file: 7, page: 9 }),
            },
            Case {
                ev: packet(5, 2048, true),
                counts: counts(|c| c.packets_sent = 1),
                series: &[
                    ("packet_bytes", 2048),
                    ("packets_sent", 1),
                    ("wire_bytes", 2048),
                ],
                kind: Some(Kind::PacketSend {
                    dst: 5,
                    bytes: 2048,
                }),
            },
            Case {
                ev: packet(u16::MAX, 2048, false),
                counts: counts(|c| c.packets_sent = 1),
                series: &[("packets_sent", 1)],
                kind: Some(Kind::PacketSend {
                    dst: u16::MAX,
                    bytes: 2048,
                }),
            },
            Case {
                ev: from(1, 100, false),
                counts: counts(|c| c.packets_recv = 1),
                series: &[("packets_recv", 1)],
                kind: Some(Kind::PacketRecv { src: 1, bytes: 100 }),
            },
            Case {
                ev: from(u16::MAX, 100, true),
                counts: counts(|c| c.packets_recv = 1),
                series: &[
                    ("packet_bytes", 100),
                    ("packets_recv", 1),
                    ("wire_bytes", 100),
                ],
                kind: Some(Kind::PacketRecv {
                    src: u16::MAX,
                    bytes: 100,
                }),
            },
            Case {
                ev: Event::ShortCircuit { bytes: 64 },
                counts: counts(|c| c.msgs_shortcircuit = 1),
                series: &[("msgs_shortcircuit", 1), ("shortcircuit_bytes", 64)],
                kind: Some(Kind::ShortCircuit { bytes: 64 }),
            },
            Case {
                ev: Event::ControlMsg { bytes: 80 },
                counts: counts(|c| c.control_msgs = 1),
                series: &[("control_msgs", 1)],
                kind: Some(Kind::Control {
                    dst: NODE,
                    bytes: 80,
                }),
            },
            Case {
                ev: Event::HashInsert,
                counts: counts(|c| (c.tuples_in, c.hash_inserts) = (1, 1)),
                series: &[("hash_inserts", 1), ("op_tuples_in", 1)],
                kind: Some(Kind::HashInsert),
            },
            // A probe of an empty chain still creates its zero-delta
            // `comparisons` series.
            Case {
                ev: probe(0, false),
                counts: counts(|c| (c.tuples_in, c.hash_probes) = (1, 1)),
                series: &[
                    ("comparisons", 0),
                    ("hash_probes", 1),
                    ("op_tuples_in", 1),
                    ("probe_chain_compares", 0),
                ],
                kind: Some(Kind::HashProbe { matched: false }),
            },
            Case {
                ev: probe(5, true),
                counts: counts(|c| (c.tuples_in, c.hash_probes, c.comparisons) = (1, 1, 5)),
                series: &[
                    ("comparisons", 5),
                    ("hash_probes", 1),
                    ("op_tuples_in", 1),
                    ("probe_chain_compares", 5),
                ],
                kind: Some(Kind::HashProbe { matched: true }),
            },
            Case {
                ev: Event::TupleOut,
                counts: counts(|c| c.tuples_out = 1),
                series: &[("op_tuples_out", 1)],
                kind: None,
            },
            Case {
                ev: Event::TuplesIn(12),
                counts: counts(|c| c.tuples_in = 12),
                series: &[("op_tuples_in", 12)],
                kind: None,
            },
            Case {
                ev: Event::FilterDrop,
                counts: counts(|c| c.filter_drops = 1),
                series: &[("filter_drops", 1)],
                kind: None,
            },
            Case {
                ev: Event::OverflowEviction,
                counts: counts(|c| c.overflow_evictions = 1),
                series: &[("overflow_evictions", 1)],
                kind: None,
            },
            Case {
                ev: Event::Comparisons(6),
                counts: counts(|c| c.comparisons = 6),
                series: &[("comparisons", 6)],
                kind: None,
            },
            // Zero pages restored still creates the series.
            Case {
                ev: Event::PagesRestored(0),
                counts: Counts::ZERO,
                series: &[("pages_restored", 0)],
                kind: None,
            },
            Case {
                ev: Event::PagesSpilled(2),
                counts: counts(|c| c.pages_spilled = 2),
                series: &[("pages_spilled", 2)],
                kind: None,
            },
        ]
    }

    #[test]
    fn each_event_charges_ledger_registry_and_sink() {
        for case in cases() {
            gamma_metrics::install(gamma_metrics::Registry::new());
            gamma_trace::install(gamma_trace::TraceSink::new(16));
            let mut u = Usage::ZERO;
            u.cpu(SimTime::from_us(40));
            u.disk(SimTime::from_us(2));
            u.record(NODE, OP, case.ev);
            let reg = gamma_metrics::take().unwrap();
            let sink = gamma_trace::take().unwrap();

            assert_eq!(u.counts, case.counts, "{:?}: ledger", case.ev);
            assert_eq!(u.total_demand(), SimTime::from_us(42), "{:?}", case.ev);
            let series: Vec<_> = reg
                .iter()
                .map(|(k, v)| {
                    let v = match v {
                        Value::Counter(n) => *n,
                        Value::Histogram(h) => h.sum,
                        Value::Gauge(_) => unreachable!("record adds no gauge"),
                    };
                    (k.name, k.node, k.op, v)
                })
                .collect();
            let want: Vec<_> = case.series.iter().map(|&(n, v)| (n, NODE, OP, v)).collect();
            assert_eq!(series, want, "{:?}: series", case.ev);
            let events: Vec<_> = sink
                .events()
                .map(|e| (e.node, e.offset_us, e.kind))
                .collect();
            let want: Vec<_> = case.kind.map(|k| (NODE, 42, k)).into_iter().collect();
            assert_eq!(events, want, "{:?}: trace", case.ev);
        }
    }

    #[test]
    fn nothing_installed_moves_only_the_ledger() {
        assert!(!gamma_metrics::is_active() && !gamma_trace::is_active());
        for case in cases() {
            let mut u = Usage::ZERO;
            u.record(NODE, OP, case.ev);
            assert_eq!(u.counts, case.counts, "{:?}", case.ev);
            assert_eq!(u.total_demand(), SimTime::ZERO);
        }
        assert!(!gamma_metrics::is_active() && !gamma_trace::is_active());
    }

    #[test]
    fn trace_bytes_roundtrips_at_boundary() {
        assert_eq!(trace_bytes(u32::MAX as u64), u32::MAX);
        assert_eq!(trace_bytes(2048), 2048);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 trace field")]
    fn trace_bytes_rejects_wrapping() {
        trace_bytes(u32::MAX as u64 + 1);
    }
}
