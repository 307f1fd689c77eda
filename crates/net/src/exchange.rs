//! Mailbox-style tuple exchange between per-node operator instances.
//!
//! [`Fabric`](crate::Fabric) charges both ends of a stream at the moment a
//! packet fills, which forces the caller to hold every node's ledger at
//! once — fine for a sequential driver loop, fatal for per-node workers.
//! `Exchange` splits the same accounting in two:
//!
//! * a producer owns an [`Outbox`] and pays the send side (marshalling,
//!   per-packet protocol CPU, ring occupancy) as packets fill, exactly as
//!   `Fabric::send_tuple` would charge the source node;
//! * packets carry their payloads to a per-node [`Inbox`], and the consumer
//!   pays the receive side (per-packet protocol CPU, per-tuple
//!   unmarshalling) when it drains them.
//!
//! Same-node messages are short-circuited just like the fabric's: they are
//! batched identically, the producer pays the cheap hand-off, and the
//! consumer pays nothing at drain time (the communications software hands
//! the buffer over by reference).
//!
//! Packet boundaries, byte counts, and per-node charge totals are identical
//! to routing the same tuple stream through `Fabric` — only the receiver's
//! charges move from "when the packet filled" to "when the consumer drained
//! it", which is also where they belong in a message-passing execution.
//!
//! Ordering is deterministic: [`Exchange::route`] moves sealed packets into
//! inboxes source-major, so a consumer sees source 0's tuples (in emission
//! order), then source 1's, regardless of how producers were scheduled.
//!
//! ## Host representation
//!
//! A packet is one contiguous frame buffer (`[tag:u32][len:u32][payload]`
//! per message) rather than a `Vec` of per-tuple `Vec<u8>`s: a producer
//! copies payload bytes straight into the current packet's buffer
//! ([`Outbox::send`] takes `&[u8]`), and a consumer gets borrowed
//! [`Msg`] views out of a [`Drained`] batch — one heap allocation per
//! *packet* on each side instead of one per *tuple*. The modeled `bytes`
//! of a packet remain the sum of payload lengths (frame headers are
//! unmodeled metadata, like `tag` always was), so every virtual charge,
//! packet boundary, and counter is unchanged.

use std::sync::{Arc, Mutex};

use gamma_des::{SimTime, Usage};

use crate::config::RingConfig;

/// Bytes of unmodeled frame metadata per message (`tag` + payload length).
const FRAME_HEADER: usize = 8;

/// Recycled packet frame buffers. Sealing a packet hands its buffer to the
/// consumer inside the [`Drained`] batch; when the batch drops, the buffers
/// come back here and the next packet starts at full capacity instead of
/// regrowing from empty (which costs ~4 reallocations per 2 KB packet).
/// Host-side only: buffer reuse cannot change a packet boundary or charge.
static FREE_BUFS: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// Most buffers the free list retains; beyond this, dropped buffers are
/// simply freed (bounds host memory across machines of any size).
const FREE_BUFS_MAX: usize = 1024;

fn take_buf() -> Vec<u8> {
    match FREE_BUFS.try_lock() {
        Ok(mut l) => l.pop().unwrap_or_default(),
        Err(_) => Vec::new(),
    }
}

fn recycle_buf(mut buf: Vec<u8>) {
    if buf.capacity() == 0 {
        return;
    }
    buf.clear();
    if let Ok(mut l) = FREE_BUFS.try_lock() {
        if l.len() < FREE_BUFS_MAX {
            l.push(buf);
        }
    }
}

/// One delivered message: the sending node, the caller-defined stream tag,
/// the query it belongs to (0 outside the scheduler), and a borrowed view
/// of the payload bytes (owned by the [`Drained`] batch it came from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg<'a> {
    pub src: usize,
    pub tag: u32,
    /// Query the message belongs to. 0 for plain single-query runs; the
    /// scheduler stamps each admitted query's id so interleaved plan
    /// instances multiplex over one exchange without mixing streams.
    pub query: u32,
    pub payload: &'a [u8],
}

/// A sealed packet travelling from one producer to one consumer.
#[derive(Debug, Clone)]
struct Packet {
    /// Modeled wire bytes (payload sizes as charged, not serialized size).
    bytes: u64,
    /// True when src == dst: short-circuited, free for the receiver.
    local: bool,
    /// Query whose tuples fill this packet (packets never mix queries:
    /// a packet is sealed within one query's execution step).
    query: u32,
    /// Messages framed in `buf`.
    count: u32,
    /// Contiguous `[tag][len][payload]` frames.
    buf: Vec<u8>,
}

/// Per-destination stream state inside an [`Outbox`].
#[derive(Debug, Clone, Default)]
struct Stream {
    pending_bytes: u64,
    pending_count: u32,
    pending: Vec<u8>,
    sealed: Vec<Packet>,
}

impl Stream {
    fn push_frame(&mut self, packet_bytes: u64, tag: u32, a: &[u8], b: &[u8]) {
        let len = a.len() + b.len();
        if self.pending.capacity() == 0 {
            // One allocation per fresh buffer, sized for what the packet
            // this tuple starts can hold once sealed: at most
            // `packet_bytes` of payload — or this one tuple, if it alone
            // is larger — plus a frame header per tuple, counted as if
            // the rest are this tuple's size (a stream's tuples are).
            let packet = packet_bytes as usize;
            let frames = (packet / len.max(1)).max(1);
            self.pending
                .reserve_exact(packet.max(len) + frames * FRAME_HEADER);
        }
        self.pending.extend_from_slice(&tag.to_le_bytes());
        self.pending.extend_from_slice(&(len as u32).to_le_bytes());
        self.pending.extend_from_slice(a);
        self.pending.extend_from_slice(b);
        self.pending_count += 1;
    }

    fn seal_pending(&mut self, local: bool, query: u32) -> Packet {
        let p = Packet {
            bytes: self.pending_bytes,
            local,
            query,
            count: self.pending_count,
            buf: std::mem::replace(&mut self.pending, take_buf()),
        };
        self.pending_bytes = 0;
        self.pending_count = 0;
        p
    }
}

/// The sending half of one node's exchange endpoint. Owns the packet
/// batching state for every destination; charges only the producer's
/// ledger.
#[derive(Debug, Clone)]
pub struct Outbox {
    src: usize,
    /// Shared with every other outbox and the exchange (never cloned per
    /// endpoint — the config is immutable for the machine's lifetime).
    cfg: Arc<RingConfig>,
    query: u32,
    streams: Vec<Stream>,
}

impl Outbox {
    fn new(src: usize, cfg: Arc<RingConfig>, nodes: usize) -> Self {
        Outbox {
            src,
            cfg,
            query: 0,
            streams: vec![Stream::default(); nodes],
        }
    }

    /// The node this outbox belongs to.
    pub fn node(&self) -> usize {
        self.src
    }

    /// Stamp subsequently sent tuples with `query` (0 is the single-query
    /// default). Must only change while the outbox is drained — a packet
    /// never mixes queries.
    pub fn set_query(&mut self, query: u32) {
        debug_assert!(
            self.streams
                .iter()
                .all(|s| s.pending.is_empty() && s.sealed.is_empty()),
            "query changed mid-packet"
        );
        self.query = query;
    }

    /// Send one tuple to `dst` on stream `tag`, batching into packets and
    /// charging the producer ledger exactly as [`Fabric::send_tuple`]
    /// charges the source node. The payload bytes are copied into the
    /// current packet's frame buffer — no per-tuple allocation.
    ///
    /// [`Fabric::send_tuple`]: crate::Fabric::send_tuple
    pub fn send(&mut self, usage: &mut Usage, dst: usize, tag: u32, payload: &[u8]) {
        self.send2(usage, dst, tag, payload, &[]);
    }

    /// Send one logical tuple whose payload is the concatenation `a ++ b`
    /// (e.g. a composed join result), framed as a single message without
    /// materializing the concatenation anywhere else.
    pub fn send2(&mut self, usage: &mut Usage, dst: usize, tag: u32, a: &[u8], b: &[u8]) {
        let bytes = (a.len() + b.len()) as u64;
        let packet = self.cfg.packet_bytes;
        if self.src == dst {
            usage.cpu(self.cfg.shortcircuit_cpu_per_tuple);
        } else {
            usage.cpu(self.cfg.marshal_cpu_per_tuple);
        }
        let src = self.src;
        let local = src == dst;
        let query = self.query;
        let s = &mut self.streams[dst];
        if s.pending_bytes + bytes > packet && s.pending_bytes > 0 {
            // Tuple does not fit in the current packet: seal it, then start
            // a new packet with this tuple (tuples are never split).
            let full = s.seal_pending(local, query);
            s.pending_bytes = bytes;
            s.push_frame(packet, tag, a, b);
            let fb = full.bytes;
            s.sealed.push(full);
            Self::charge_emit(&self.cfg, usage, src, dst, fb);
        } else {
            s.pending_bytes += bytes;
            s.push_frame(packet, tag, a, b);
            if s.pending_bytes >= packet {
                let full = s.seal_pending(local, query);
                let fb = full.bytes;
                s.sealed.push(full);
                Self::charge_emit(&self.cfg, usage, src, dst, fb);
            }
        }
    }

    /// Producer-side charge for one completed packet (mirrors the source
    /// half of `Fabric::emit`).
    fn charge_emit(cfg: &RingConfig, usage: &mut Usage, src: usize, dst: usize, bytes: u64) {
        if src == dst {
            usage.cpu(cfg.shortcircuit_cpu_per_msg);
            usage.counts.msgs_shortcircuit += 1;
            gamma_metrics::counter_add("msgs_shortcircuit", src as u16, "exchange", 1);
            gamma_metrics::counter_add("shortcircuit_bytes", src as u16, "exchange", bytes);
            gamma_trace::emit(
                src as u16,
                usage.total_demand().as_us(),
                gamma_trace::EventKind::ShortCircuit {
                    bytes: crate::trace_bytes(bytes),
                },
            );
        } else {
            usage.cpu(cfg.send_cpu_per_packet);
            usage.net(cfg.wire_time(bytes), bytes);
            usage.counts.packets_sent += 1;
            gamma_metrics::counter_add("packets_sent", src as u16, "exchange", 1);
            gamma_metrics::counter_add("wire_bytes", src as u16, "exchange", bytes);
            gamma_metrics::observe("packet_bytes", src as u16, "exchange", bytes);
            gamma_trace::emit(
                src as u16,
                usage.total_demand().as_us(),
                gamma_trace::EventKind::PacketSend {
                    dst: dst as u16,
                    bytes: crate::trace_bytes(bytes),
                },
            );
        }
    }

    /// Seal every partially filled packet (end of the producer's output
    /// streams for this step). Destinations flush in ascending order, like
    /// `Fabric::flush` walks its destination-inner loop for one source.
    pub fn seal(&mut self, usage: &mut Usage) {
        let src = self.src;
        let query = self.query;
        let cfg = Arc::clone(&self.cfg);
        for (dst, s) in self.streams.iter_mut().enumerate() {
            if s.pending_bytes > 0 {
                let p = s.seal_pending(src == dst, query);
                let bytes = p.bytes;
                s.sealed.push(p);
                Self::charge_emit(&cfg, usage, src, dst, bytes);
            }
        }
    }

    /// True when no stream holds pending or sealed-but-unrouted data.
    pub fn is_drained(&self) -> bool {
        self.streams
            .iter()
            .all(|s| s.pending_bytes == 0 && s.pending.is_empty() && s.sealed.is_empty())
    }
}

/// The receiving half of one node's exchange endpoint: packets delivered by
/// [`Exchange::route`], in source-major order.
#[derive(Debug, Default)]
pub struct Inbox {
    node: usize,
    packets: Vec<(usize, Packet)>,
}

impl Inbox {
    /// The node this inbox belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// True when no undelivered packets remain.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Drain every delivered packet, charging the consumer's ledger for the
    /// receive side of each remote packet (per-packet protocol CPU plus
    /// per-tuple unmarshalling — the receiver half of `Fabric::emit`).
    /// Short-circuited packets cost nothing here. Messages come back in
    /// (source ascending, emission order) — the order a sequential
    /// source-major driver loop would have produced them. The returned
    /// [`Drained`] batch owns the packet buffers; iterate it for borrowed
    /// [`Msg`] views.
    pub fn drain(&mut self, usage: &mut Usage, cfg: &RingConfig) -> Drained {
        let packets = std::mem::take(&mut self.packets);
        for (src, p) in &packets {
            if !p.local {
                usage.cpu(cfg.recv_cpu_per_packet);
                usage.cpu(SimTime::from_us(
                    cfg.unmarshal_cpu_per_tuple.as_us() * p.count as u64,
                ));
                usage.counts.packets_recv += 1;
                gamma_metrics::counter_add("packets_recv", self.node as u16, "exchange", 1);
                gamma_trace::emit(
                    self.node as u16,
                    usage.total_demand().as_us(),
                    gamma_trace::EventKind::PacketRecv {
                        src: *src as u16,
                        bytes: crate::trace_bytes(p.bytes),
                    },
                );
            }
        }
        Drained { packets }
    }
}

/// A batch of drained packets; owns the frame buffers so [`Msg`] views can
/// be borrowed from it while the consumer's context stays mutable. Dropping
/// the batch recycles the buffers for future packets.
#[derive(Debug, Default)]
pub struct Drained {
    packets: Vec<(usize, Packet)>,
}

impl Drop for Drained {
    fn drop(&mut self) {
        for (_, p) in self.packets.drain(..) {
            recycle_buf(p.buf);
        }
    }
}

impl Drained {
    /// Total number of messages across every packet.
    pub fn len(&self) -> usize {
        self.packets.iter().map(|(_, p)| p.count as usize).sum()
    }

    /// True when no packets were delivered.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Iterate the messages in delivery order (source-major, emission
    /// order within a source).
    pub fn iter(&self) -> impl Iterator<Item = Msg<'_>> + '_ {
        self.packets.iter().flat_map(|(src, p)| {
            let mut pos = 0usize;
            std::iter::from_fn(move || {
                if pos >= p.buf.len() {
                    return None;
                }
                let tag = u32::from_le_bytes(p.buf[pos..pos + 4].try_into().unwrap());
                let len = u32::from_le_bytes(p.buf[pos + 4..pos + FRAME_HEADER].try_into().unwrap())
                    as usize;
                let payload = &p.buf[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
                pos += FRAME_HEADER + len;
                Some(Msg {
                    src: *src,
                    tag,
                    query: p.query,
                    payload,
                })
            })
        })
    }

    /// Collect borrowed message views (one Vec per drain, sized up front,
    /// not one allocation per tuple).
    pub fn msgs(&self) -> Vec<Msg<'_>> {
        let mut msgs = Vec::with_capacity(self.len());
        msgs.extend(self.iter());
        msgs
    }
}

/// The machine-wide exchange: one [`Outbox`] per node plus the undelivered
/// packets for each destination node.
#[derive(Debug)]
pub struct Exchange {
    outboxes: Vec<Outbox>,
    inboxes: Vec<Vec<(usize, Packet)>>,
    /// High-water mark of each inbox's undelivered packet count, observed
    /// at every `route()`. Deterministic across executors because routing
    /// replays sends in source-major input order.
    peak_inbox: Vec<usize>,
}

impl Exchange {
    /// An exchange connecting `nodes` processors.
    pub fn new(cfg: RingConfig, nodes: usize) -> Self {
        assert!(nodes > 0, "a machine needs at least one node");
        let cfg = Arc::new(cfg);
        Exchange {
            outboxes: (0..nodes)
                .map(|n| Outbox::new(n, Arc::clone(&cfg), nodes))
                .collect(),
            inboxes: (0..nodes).map(|_| Vec::new()).collect(),
            peak_inbox: vec![0; nodes],
        }
    }

    /// Number of nodes connected.
    pub fn nodes(&self) -> usize {
        self.outboxes.len()
    }

    /// Disjoint mutable access to the outboxes (one per node), for handing
    /// each worker its own sending endpoint.
    pub fn outboxes_mut(&mut self) -> &mut [Outbox] {
        &mut self.outboxes
    }

    /// Stamp every node's subsequently sent tuples with `query`. The
    /// scheduler brackets each admitted query's execution steps with this;
    /// plain single-query runs never call it and stay stamped 0.
    pub fn set_query(&mut self, query: u32) {
        for ob in self.outboxes.iter_mut() {
            ob.set_query(query);
        }
    }

    /// Move every sealed packet into its destination inbox, source-major:
    /// all of node 0's sealed packets (in emission order), then node 1's…
    /// Deterministic regardless of producer scheduling.
    pub fn route(&mut self) {
        for src in 0..self.outboxes.len() {
            let ob = &mut self.outboxes[src];
            for dst in 0..ob.streams.len() {
                for p in ob.streams[dst].sealed.drain(..) {
                    self.inboxes[dst].push((src, p));
                }
            }
        }
        for (n, inbox) in self.inboxes.iter().enumerate() {
            self.peak_inbox[n] = self.peak_inbox[n].max(inbox.len());
        }
    }

    /// Per-node high-water marks of undelivered inbox packets, the
    /// exchange's contribution to the flight-recorder envelope.
    pub fn peak_inbox_packets(&self) -> &[usize] {
        &self.peak_inbox
    }

    /// Take node `n`'s inbox (undelivered packets), leaving it empty.
    pub fn take_inbox(&mut self, n: usize) -> Inbox {
        Inbox {
            node: n,
            packets: std::mem::take(&mut self.inboxes[n]),
        }
    }

    /// Put an inbox's remaining state back (after a consumer step asserts
    /// it drained everything, this is a no-op but keeps ownership simple).
    pub fn return_inbox(&mut self, inbox: Inbox) {
        debug_assert!(self.inboxes[inbox.node].is_empty());
        self.inboxes[inbox.node] = inbox.packets;
    }

    /// True when no pending bytes, sealed packets, or undelivered inbox
    /// packets remain anywhere — the phase-boundary invariant.
    pub fn is_drained(&self) -> bool {
        self.outboxes.iter().all(|o| o.is_drained()) && self.inboxes.iter().all(|i| i.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(n: usize) -> (Exchange, Vec<Usage>) {
        (
            Exchange::new(RingConfig::gamma_1989(), n),
            vec![Usage::ZERO; n],
        )
    }

    fn send_n(ex: &mut Exchange, u: &mut [Usage], src: usize, dst: usize, bytes: usize, n: usize) {
        for i in 0..n {
            ex.outboxes_mut()[src].send(&mut u[src], dst, i as u32, &vec![0u8; bytes]);
        }
    }

    #[test]
    fn remote_tuples_batch_into_packets() {
        let (mut ex, mut u) = exchange(2);
        send_n(&mut ex, &mut u, 0, 1, 208, 9);
        assert_eq!(
            u[0].counts.packets_sent, 0,
            "9*208=1872 < 2048, still pending"
        );
        send_n(&mut ex, &mut u, 0, 1, 208, 1);
        assert_eq!(u[0].counts.packets_sent, 1, "10th tuple seals the packet");
        ex.outboxes_mut()[0].seal(&mut u[0]);
        assert_eq!(u[0].counts.packets_sent, 2, "seal emits the partial packet");
        ex.route();
        let mut inbox = ex.take_inbox(1);
        let drained = inbox.drain(&mut u[1], &RingConfig::gamma_1989());
        ex.return_inbox(inbox);
        assert_eq!(drained.len(), 10);
        assert_eq!(drained.iter().count(), 10);
        assert_eq!(u[1].counts.packets_recv, 2);
        assert!(ex.is_drained());
    }

    #[test]
    fn charges_match_fabric_exactly() {
        // The producer+consumer totals must equal what Fabric charges for
        // the identical tuple stream — packet boundaries and all.
        let cfg = RingConfig::gamma_1989();
        let sizes = [208u64, 100, 2048, 2040, 16, 208, 208, 1000, 3000, 5];
        let mut fab = crate::Fabric::new(cfg.clone(), 3);
        let mut fu = vec![Usage::ZERO; 3];
        for (i, &b) in sizes.iter().enumerate() {
            let dst = if i % 3 == 0 { 0 } else { 2 };
            fab.send_tuple(&mut fu, 0, dst, b);
        }
        fab.flush(&mut fu);

        let (mut ex, mut u) = exchange(3);
        for (i, &b) in sizes.iter().enumerate() {
            let dst = if i % 3 == 0 { 0 } else { 2 };
            ex.outboxes_mut()[0].send(&mut u[0], dst, 7, &vec![0u8; b as usize]);
        }
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
        for n in [0usize, 2] {
            let mut inbox = ex.take_inbox(n);
            inbox.drain(&mut u[n], &cfg);
            ex.return_inbox(inbox);
        }
        assert!(ex.is_drained());
        for n in 0..3 {
            assert_eq!(u[n].cpu, fu[n].cpu, "node {n} cpu");
            assert_eq!(u[n].net, fu[n].net, "node {n} net");
            assert_eq!(u[n].ring_bytes, fu[n].ring_bytes, "node {n} ring bytes");
            assert_eq!(
                u[n].counts.packets_sent, fu[n].counts.packets_sent,
                "node {n} packets sent"
            );
            assert_eq!(
                u[n].counts.packets_recv, fu[n].counts.packets_recv,
                "node {n} packets recv"
            );
            assert_eq!(
                u[n].counts.msgs_shortcircuit, fu[n].counts.msgs_shortcircuit,
                "node {n} short circuits"
            );
        }
    }

    #[test]
    fn right_sized_frames_roundtrip_small_and_oversize_tuples() {
        // The two ends of the frame sizing: a packet of 16-byte tuples is a
        // third frame headers (128 of them), and one tuple larger than a
        // packet travels alone. Both come back byte for byte, with exactly
        // the charges Fabric makes for the same stream.
        let cfg = RingConfig::gamma_1989();
        let packet = cfg.packet_bytes as usize;
        let mut sent: Vec<Vec<u8>> = (0..2 * packet / 16)
            .map(|i| (0..16).map(|b| (i * 16 + b) as u8).collect())
            .collect();
        sent.push((0..packet + 952).map(|i| i as u8).collect());
        sent.push(vec![7u8; 16]);

        let mut fab = crate::Fabric::new(cfg.clone(), 2);
        let mut fu = vec![Usage::ZERO; 2];
        let (mut ex, mut u) = exchange(2);
        for (i, t) in sent.iter().enumerate() {
            fab.send_tuple(&mut fu, 0, 1, t.len() as u64);
            ex.outboxes_mut()[0].send(&mut u[0], 1, i as u32, t);
        }
        fab.flush(&mut fu);
        ex.outboxes_mut()[0].seal(&mut u[0]);
        assert_eq!(
            u[0].counts.packets_sent, 4,
            "two full, the oversize, the tail"
        );
        ex.route();
        let mut inbox = ex.take_inbox(1);
        let drained = inbox.drain(&mut u[1], &cfg);
        ex.return_inbox(inbox);
        assert_eq!(drained.len(), sent.len());
        for (i, (m, want)) in drained.iter().zip(&sent).enumerate() {
            assert_eq!((m.tag, m.payload), (i as u32, want.as_slice()));
        }
        for n in 0..2 {
            assert_eq!(u[n].cpu, fu[n].cpu, "node {n} cpu");
            assert_eq!(u[n].net, fu[n].net, "node {n} net");
            assert_eq!(u[n].ring_bytes, fu[n].ring_bytes, "node {n} ring bytes");
            assert_eq!(u[n].counts, fu[n].counts, "node {n} counts");
        }
    }

    #[test]
    fn split_payload_sends_charge_like_single_payload_sends() {
        // send2(a, b) must be indistinguishable — charges, boundaries,
        // delivered bytes — from send(a ++ b).
        let cfg = RingConfig::gamma_1989();
        let (mut ex, mut u) = exchange(2);
        let (mut ex2, mut u2) = exchange(2);
        let pairs: [(usize, usize); 5] = [(100, 108), (0, 208), (2040, 8), (1, 1), (208, 0)];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let left = vec![i as u8; a];
            let right = vec![!(i as u8); b];
            ex.outboxes_mut()[0].send2(&mut u[0], 1, i as u32, &left, &right);
            let mut whole = left.clone();
            whole.extend_from_slice(&right);
            ex2.outboxes_mut()[0].send(&mut u2[0], 1, i as u32, &whole);
        }
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex2.outboxes_mut()[0].seal(&mut u2[0]);
        assert_eq!(u[0], u2[0]);
        ex.route();
        ex2.route();
        let mut i1 = ex.take_inbox(1);
        let mut i2 = ex2.take_inbox(1);
        let d1 = i1.drain(&mut u[1], &cfg);
        let d2 = i2.drain(&mut u2[1], &cfg);
        assert_eq!(u[1], u2[1]);
        let m1: Vec<(u32, Vec<u8>)> = d1.iter().map(|m| (m.tag, m.payload.to_vec())).collect();
        let m2: Vec<(u32, Vec<u8>)> = d2.iter().map(|m| (m.tag, m.payload.to_vec())).collect();
        assert_eq!(m1, m2);
        ex.return_inbox(i1);
        ex2.return_inbox(i2);
    }

    #[test]
    fn local_sends_shortcircuit_and_cost_nothing_to_drain() {
        let (mut ex, mut u) = exchange(2);
        send_n(&mut ex, &mut u, 1, 1, 208, 10);
        ex.outboxes_mut()[1].seal(&mut u[1]);
        assert_eq!(u[1].counts.packets_sent, 0);
        assert_eq!(
            u[1].counts.msgs_shortcircuit, 2,
            "one full + one partial message"
        );
        assert_eq!(u[1].ring_bytes, 0);
        ex.route();
        let before = u[1].clone();
        let mut inbox = ex.take_inbox(1);
        let drained = inbox.drain(&mut u[1], &RingConfig::gamma_1989());
        ex.return_inbox(inbox);
        assert_eq!(drained.len(), 10);
        assert_eq!(u[1], before, "short-circuited drain is free");
    }

    #[test]
    fn route_orders_source_major() {
        let (mut ex, mut u) = exchange(3);
        // Producers send interleaved; the consumer still sees src 0 first.
        ex.outboxes_mut()[2].send(&mut u[2], 1, 9, &[2u8; 8]);
        ex.outboxes_mut()[0].send(&mut u[0], 1, 9, &[0u8; 8]);
        ex.outboxes_mut()[2].send(&mut u[2], 1, 9, &[3u8; 8]);
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.outboxes_mut()[2].seal(&mut u[2]);
        ex.route();
        let mut inbox = ex.take_inbox(1);
        let drained = inbox.drain(&mut u[1], &RingConfig::gamma_1989());
        let msgs = drained.msgs();
        let srcs: Vec<usize> = msgs.iter().map(|m| m.src).collect();
        assert_eq!(srcs, vec![0, 2, 2]);
        assert_eq!(msgs[1].payload, vec![2u8; 8]);
        assert_eq!(msgs[2].payload, vec![3u8; 8]);
        ex.return_inbox(inbox);
    }

    #[test]
    fn peak_inbox_tracks_the_route_high_water_mark() {
        let (mut ex, mut u) = exchange(3);
        assert_eq!(ex.peak_inbox_packets(), &[0, 0, 0]);
        ex.outboxes_mut()[0].send(&mut u[0], 1, 9, &[0u8; 8]);
        ex.outboxes_mut()[2].send(&mut u[2], 1, 9, &[2u8; 8]);
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.outboxes_mut()[2].seal(&mut u[2]);
        ex.route();
        assert_eq!(ex.peak_inbox_packets(), &[0, 2, 0]);
        let mut inbox = ex.take_inbox(1);
        inbox.drain(&mut u[1], &RingConfig::gamma_1989());
        ex.return_inbox(inbox);
        // A later, smaller burst does not lower the recorded peak.
        ex.outboxes_mut()[0].send(&mut u[0], 1, 9, &[0u8; 8]);
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
        assert_eq!(ex.peak_inbox_packets(), &[0, 2, 0]);
    }

    #[test]
    fn oversized_tuple_gets_own_packets() {
        let (mut ex, mut u) = exchange(2);
        send_n(&mut ex, &mut u, 0, 1, 100, 1);
        send_n(&mut ex, &mut u, 0, 1, 2040, 1);
        assert_eq!(u[0].counts.packets_sent, 1, "first packet sealed early");
        ex.outboxes_mut()[0].seal(&mut u[0]);
        assert_eq!(u[0].counts.packets_sent, 2);
    }

    #[test]
    fn tags_and_payloads_survive_transit() {
        let (mut ex, mut u) = exchange(2);
        ex.outboxes_mut()[0].send(&mut u[0], 1, 0xAB00_0001, &[1, 2, 3]);
        ex.outboxes_mut()[0].send(&mut u[0], 1, 0xCD00_0002, &[4, 5]);
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
        let mut inbox = ex.take_inbox(1);
        let drained = inbox.drain(&mut u[1], &RingConfig::gamma_1989());
        let msgs = drained.msgs();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].tag, 0xAB00_0001);
        assert_eq!(msgs[0].payload, vec![1, 2, 3]);
        assert_eq!(msgs[1].tag, 0xCD00_0002);
        assert_eq!(msgs[1].payload, vec![4, 5]);
        ex.return_inbox(inbox);
    }

    #[test]
    fn query_ids_survive_transit() {
        let (mut ex, mut u) = exchange(2);
        ex.set_query(3);
        ex.outboxes_mut()[0].send(&mut u[0], 1, 7, &[1, 2, 3]);
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
        ex.set_query(4);
        ex.outboxes_mut()[0].send(&mut u[0], 1, 7, &[4, 5]);
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
        let mut inbox = ex.take_inbox(1);
        let drained = inbox.drain(&mut u[1], &RingConfig::gamma_1989());
        let queries: Vec<u32> = drained.iter().map(|m| m.query).collect();
        assert_eq!(queries, vec![3, 4]);
        ex.return_inbox(inbox);
    }

    #[test]
    fn undrained_exchange_is_detected() {
        let (mut ex, mut u) = exchange(2);
        send_n(&mut ex, &mut u, 0, 1, 208, 1);
        assert!(!ex.is_drained(), "pending bytes");
        ex.outboxes_mut()[0].seal(&mut u[0]);
        assert!(!ex.is_drained(), "sealed but unrouted");
        ex.route();
        assert!(!ex.is_drained(), "routed but undrained");
        let mut inbox = ex.take_inbox(1);
        inbox.drain(&mut u[1], &RingConfig::gamma_1989());
        ex.return_inbox(inbox);
        assert!(ex.is_drained());
    }
}
