//! Mailbox-style tuple exchange between per-node operator instances: the
//! one place inter-node tuples travel and are charged.
//!
//! Tuples to one destination are batched into packets of at most
//! [`RingConfig::packet_bytes`]. A tuple that does not fit in the packet
//! being filled seals it and starts the next (tuples are never split), a
//! packet that reaches the size exactly seals at once, and a producer seals
//! what is left of each packet when its step ends. Each half of a stream
//! pays its own side, so a producer and a consumer never need each
//! other's ledgers:
//!
//! * a producer owns an [`Outbox`] and pays the send side as packets
//!   fill — marshalling per tuple, and per remote packet the protocol CPU
//!   and the ring occupancy of its bytes;
//! * packets carry their payloads to a per-node [`Inbox`], and the consumer
//!   pays the receive side — per remote packet the protocol CPU plus
//!   unmarshalling per tuple — when it drains them.
//!
//! Same-node messages are short-circuited: they are batched identically,
//! the producer pays the cheap per-tuple and per-message hand-off, never
//! touches the ring, and the consumer pays nothing at drain time (the
//! communications software hands the buffer over by reference).
//!
//! Ordering is deterministic: [`Exchange::route`] moves sealed packets into
//! inboxes source-major, so a consumer sees source 0's tuples (in emission
//! order), then source 1's, regardless of how producers were scheduled.
//!
//! ## Host representation
//!
//! The model charges per tuple and per packet; the host frames neither.
//! Each `(src, dst)` stream fills one **message table**: a 16-byte entry
//! `(tag, location, len)` per message part, in send order. A message is
//! sent as one [`Part`] or two — `a ‖ b`, a composed `R ‖ S` result whose
//! halves lie in two different places — and each part's bytes lie in one
//! of two places:
//!
//! * **on a shared image the sender already holds** ([`Part::shared`]) —
//!   the WiSS segment of pages a record was scanned from, or a join site's
//!   hash-table arena, frozen by moving it behind a reference count
//!   ([`Image`]). The table keeps one handle per distinct image — one for
//!   all the pages of a segment — so the bytes stay readable
//!   and unchanged whatever happens to their source before the consumer
//!   runs, and nothing is copied;
//! * **in the table's own arena**, for bytes with no shared owner — a
//!   hash-table eviction, any plain `&[u8]` ([`Outbox::send`], or a part
//!   made with `Part::from`) — copied once. A message none of whose parts
//!   is shared is copied whole, as one part.
//!
//! A two-part message takes two consecutive entries, the first flagged;
//! [`Msg::payload`] is its first part and [`Msg::tail`] its second, and
//! [`Msg::part`] hands a payload on by reference (a probe's `S`). Parts
//! change nothing the model sees: a message is admitted, batched and
//! charged by its total length, whatever it is made of.
//!
//! A *packet* is a `(bytes, count, local)` record over a run of
//! messages, sealed where the batching rule above closes a packet, so
//! charges, counters, trace events and [`Exchange::peak_inbox_packets`] are
//! those of a machine that really framed 2 KB buffers. Ring and
//! short-circuited streams share this one representation; they differ only
//! in what `charge_emit` and [`Inbox::drain`] charge.
//!
//! Tables belong to the exchange and circulate: [`Exchange::route`] swaps a
//! stream's sealed table into its inbox slot and hands the stream the
//! table the consumer drained and emptied a step earlier
//! ([`Inbox::release`], [`Exchange::return_inbox`]). Entries and arena
//! bytes are stored in 4 KB blocks, so growing a table never copies it,
//! and an emptied table keeps a few blocks of each kind: a warmed machine
//! allocates nothing per packet or per message — a block per 256 entries
//! or 4 KB of owned bytes beyond what its streams kept — and no storage is
//! shared between two machines or two nodes' workers.

use std::ops::{Deref, Range};
use std::sync::Arc;

use gamma_des::{SimTime, Usage};

use crate::config::RingConfig;

/// Set in [`Entry::seg`] when it indexes [`Table::arena`], not
/// [`Table::pages`].
const ARENA: u32 = 1 << 31;
/// Set in [`Entry::seg`] of a two-part message's first entry: the next
/// entry is its second part.
const FIRST_OF_TWO: u32 = 1 << 30;
/// The index bits of [`Entry::seg`].
const INDEX: u32 = FIRST_OF_TWO - 1;

/// Entries in a block of a table, bytes in a block of its arena: 4 KB
/// either way.
const ENTRY_BLOCK: usize = 256;
const ARENA_BLOCK: usize = 4096;

/// Blocks of each kind a drained table keeps for its next fill: enough
/// that a small join's streams never allocate again, while a stream that
/// carried a burst once — a relation's worth of messages, the results of a
/// whole join — does not pin that much for the machine's lifetime.
const KEEP_BLOCKS: usize = 4;

/// A reference-counted byte image message parts can lie on, borrowed
/// from its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Image<'a> {
    /// A WiSS segment: the images of up to eight consecutive pages of one
    /// file, one allocation, the bytes inline.
    Page(&'a Arc<[u8]>),
    /// A buffer shared whole where it was filled — a join site's frozen
    /// hash-table arena, shared without a copy.
    Buffer(&'a Arc<Vec<u8>>),
}

impl<'a> Image<'a> {
    /// The image's bytes.
    #[inline]
    pub fn bytes(self) -> &'a [u8] {
        match self {
            Image::Page(page) => page,
            Image::Buffer(buffer) => buffer,
        }
    }
}

impl<'a> From<&'a Arc<[u8]>> for Image<'a> {
    fn from(page: &'a Arc<[u8]>) -> Self {
        Image::Page(page)
    }
}

impl<'a> From<&'a Arc<Vec<u8>>> for Image<'a> {
    fn from(buffer: &'a Arc<Vec<u8>>) -> Self {
        Image::Buffer(buffer)
    }
}

/// A table's own handle on an [`Image`].
#[derive(Debug, PartialEq, Eq)]
enum Handle {
    Page(Arc<[u8]>),
    Buffer(Arc<Vec<u8>>),
}

impl Handle {
    #[inline]
    fn image(&self) -> Image<'_> {
        match self {
            Handle::Page(page) => Image::Page(page),
            Handle::Buffer(buffer) => Image::Buffer(buffer),
        }
    }

    /// Whether this is a handle on `image`.
    #[inline]
    fn holds(&self, image: Image<'_>) -> bool {
        match (self, image) {
            (Handle::Page(held), Image::Page(page)) => Arc::ptr_eq(held, page),
            (Handle::Buffer(held), Image::Buffer(buffer)) => Arc::ptr_eq(held, buffer),
            _ => false,
        }
    }
}

impl From<Image<'_>> for Handle {
    fn from(image: Image<'_>) -> Self {
        match image {
            Image::Page(page) => Handle::Page(Arc::clone(page)),
            Image::Buffer(buffer) => Handle::Buffer(Arc::clone(buffer)),
        }
    }
}

/// Bytes a sender hands the exchange, with the shared image they lie on
/// when they have one: such a part travels by reference — the stream keeps
/// a handle on the image — and any other is copied into the stream's arena.
/// It derefs to its bytes; `Part::from(&[u8])` has no image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Part<'a> {
    bytes: &'a [u8],
    /// The image the bytes lie on and their offset there.
    home: Option<(Image<'a>, usize)>,
}

impl<'a> Part<'a> {
    /// `image[at]`, to be sent by reference.
    ///
    /// # Panics
    /// Panics if `at` reaches outside `image`.
    #[inline]
    pub fn shared(image: impl Into<Image<'a>>, at: Range<usize>) -> Self {
        let image = image.into();
        Part {
            bytes: &image.bytes()[at.clone()],
            home: Some((image, at.start)),
        }
    }

    /// The bytes, borrowed for as long as their owner lives.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The shared image the bytes lie on and their offset there; `None`
    /// for bytes that are copied when sent.
    pub fn home(&self) -> Option<(Image<'a>, usize)> {
        self.home
    }
}

impl<'a> From<&'a [u8]> for Part<'a> {
    fn from(bytes: &'a [u8]) -> Self {
        Part { bytes, home: None }
    }
}

impl Deref for Part<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes
    }
}

/// One delivered message: the sending node, the caller-defined stream tag,
/// and borrowed views of its bytes (owned by the [`Drained`] batch it came
/// from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg<'a> {
    pub src: usize,
    pub tag: u32,
    /// The message's bytes — of a two-part message, its first part.
    pub payload: &'a [u8],
    /// A two-part message's second part (the tuple is `payload ‖ tail`);
    /// empty for every single-part message.
    pub tail: &'a [u8],
    /// The handle on the shared image `payload` lies on, if it does.
    handle: Option<&'a Handle>,
}

impl<'a> Msg<'a> {
    /// `payload` as a part to send on: by reference when it lies on a
    /// shared image, otherwise to be copied.
    pub fn part(&self) -> Part<'a> {
        let home = self.handle.map(|handle| {
            let image = handle.image();
            let at = self.payload.as_ptr() as usize - image.bytes().as_ptr() as usize;
            (image, at)
        });
        Part {
            bytes: self.payload,
            home,
        }
    }
}

/// One message part of a table: its tag and where its bytes lie.
#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u32,
    /// Index into [`Table::pages`] or, with [`ARENA`] set, of the arena
    /// block; [`FIRST_OF_TWO`] set when the next entry is the second part.
    seg: u32,
    /// Offset of the bytes within their page or arena block.
    start: u32,
    len: u32,
}

/// A sealed packet: accounting over the next `count` messages of its table.
#[derive(Debug, Clone, Copy)]
struct Packet {
    /// Modeled wire bytes (payload sizes as charged).
    bytes: u64,
    /// Messages in the packet.
    count: u32,
    /// True when src == dst: short-circuited, free for the receiver.
    local: bool,
}

fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("an exchange table addresses at most 4 GiB")
}

/// The [`Entry::seg`] index of page handle or arena block `i`.
fn index(i: usize) -> u32 {
    let i = offset(i);
    assert_eq!(i & !INDEX, 0, "an exchange table holds too many segments");
    i
}

/// Append-only storage in equal blocks: growing never copies what is
/// stored, the allocator can place a block anywhere, and an emptied block
/// serves the next fill as it is.
#[derive(Debug)]
struct Blocks<T> {
    /// `blocks[..used]` hold items; the rest are kept, empty.
    blocks: Vec<Vec<T>>,
    used: usize,
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Blocks {
            blocks: Vec::new(),
            used: 0,
        }
    }
}

impl<T> Blocks<T> {
    /// The block being filled if it has room for `need` more items, else
    /// the next: a kept one, or a new one of `cap` items (of `need`, for
    /// one message larger than a block).
    fn room(&mut self, cap: usize, need: usize) -> &mut Vec<T> {
        let fits = |b: &Vec<T>| b.capacity() - b.len() >= need;
        if !self.blocks[..self.used].last().is_some_and(fits) {
            if !self.blocks.get(self.used).is_some_and(fits) {
                self.blocks
                    .insert(self.used, Vec::with_capacity(need.max(cap)));
            }
            self.used += 1;
        }
        &mut self.blocks[self.used - 1]
    }

    /// Empty every block, keeping [`KEEP_BLOCKS`] of the standard size
    /// `cap`.
    fn clear(&mut self, cap: usize) {
        self.blocks.retain(|b| b.capacity() == cap);
        self.blocks.truncate(KEEP_BLOCKS);
        self.blocks.iter_mut().for_each(Vec::clear);
        self.used = 0;
    }
}

/// The messages of one `(src, dst)` stream, in send order.
#[derive(Debug, Default)]
struct Table {
    /// Entry `i` is `entries.blocks[i / ENTRY_BLOCK][i % ENTRY_BLOCK]`.
    entries: Blocks<Entry>,
    /// Messages held (a two-part one fills two entries).
    len: usize,
    /// Shared images the by-reference entries point into.
    pages: Vec<Handle>,
    /// The handle each part position (first, second) used last.
    recent: [u32; 2],
    /// Owned payloads, back to back within [`ARENA_BLOCK`] blocks.
    arena: Blocks<u8>,
    /// Sealed packets, covering the first messages.
    packets: Vec<Packet>,
}

impl Table {
    #[inline]
    fn push_entry(&mut self, tag: u32, (seg, start, len): (u32, usize, usize)) {
        self.entries.room(ENTRY_BLOCK, 1).push(Entry {
            tag,
            seg,
            start: offset(start),
            len: offset(len),
        });
    }

    /// Add the message `a ‖ b`: a shared part by handle, the other copied;
    /// a message with no shared part copied whole, as one part.
    #[inline]
    fn push(&mut self, tag: u32, a: Part<'_>, b: Part<'_>) {
        if b.is_empty() {
            self.push_one(tag, a, 0);
        } else if a.is_empty() {
            self.push_one(tag, b, 1);
        } else if a.home.is_none() && b.home.is_none() {
            let at = self.copy(a.bytes, b.bytes);
            self.push_entry(tag, at);
            self.len += 1;
        } else {
            let (seg, start, len) = self.place(a, 0);
            let second = self.place(b, 1);
            self.push_entry(tag, (seg | FIRST_OF_TWO, start, len));
            self.push_entry(tag, second);
            self.len += 1;
        }
    }

    /// Add a single-part message, its bytes being part `position` of a
    /// sender's tuple.
    #[inline]
    fn push_one(&mut self, tag: u32, p: Part<'_>, position: usize) {
        let at = self.place(p, position);
        self.push_entry(tag, at);
        self.len += 1;
    }

    /// Where one part's bytes go: its image's handle, or a copy.
    #[inline]
    fn place(&mut self, p: Part<'_>, position: usize) -> (u32, usize, usize) {
        match p.home {
            Some((image, at)) => (self.page(image, position), at, p.len()),
            None => self.copy(p.bytes, &[]),
        }
    }

    /// Copy `a ‖ b` into the arena.
    fn copy(&mut self, a: &[u8], b: &[u8]) -> (u32, usize, usize) {
        let len = a.len() + b.len();
        let block = self.arena.room(ARENA_BLOCK, len);
        let start = block.len();
        block.extend_from_slice(a);
        block.extend_from_slice(b);
        (ARENA | index(self.arena.used - 1), start, len)
    }

    /// The handle of `image`, taken if new. A scan sends a segment's
    /// records one after another, and a result's parts come from one frozen table
    /// and a run of probe pages, so comparing with the handle each part
    /// position used last keeps one handle per distinct image.
    #[inline]
    fn page(&mut self, image: Image<'_>, position: usize) -> u32 {
        for seg in self.recent {
            if self.pages.get(seg as usize).is_some_and(|h| h.holds(image)) {
                return seg;
            }
        }
        self.pages.push(Handle::from(image));
        let seg = index(self.pages.len() - 1);
        self.recent[position] = seg;
        seg
    }

    /// Push `from`'s message starting at entry `i` — shared parts by
    /// handle, owned ones by copy — and return the entry after it.
    fn push_from(&mut self, from: &Table, i: usize) -> usize {
        let e = from.entry(i);
        if e.seg & FIRST_OF_TWO == 0 {
            self.push(e.tag, from.part(e), Part::default());
            i + 1
        } else {
            self.push(e.tag, from.part(e), from.part(from.entry(i + 1)));
            i + 2
        }
    }

    #[inline]
    fn entry(&self, i: usize) -> &Entry {
        &self.entries.blocks[i / ENTRY_BLOCK][i % ENTRY_BLOCK]
    }

    /// An entry's bytes and, when they lie on a shared image, the handle
    /// on it.
    #[inline]
    fn locate(&self, e: &Entry) -> (&[u8], Option<&Handle>) {
        let i = (e.seg & INDEX) as usize;
        let (whole, handle) = if e.seg & ARENA == 0 {
            let handle = &self.pages[i];
            (handle.image().bytes(), Some(handle))
        } else {
            (&self.arena.blocks[i][..], None)
        };
        (&whole[e.start as usize..][..e.len as usize], handle)
    }

    #[inline]
    fn payload(&self, e: &Entry) -> &[u8] {
        self.locate(e).0
    }

    /// An entry's bytes, with the shared image they lie on.
    fn part(&self, e: &Entry) -> Part<'_> {
        let (bytes, handle) = self.locate(e);
        Part {
            bytes,
            home: handle.map(|h| (h.image(), e.start as usize)),
        }
    }

    /// Forget every message and page handle; [`KEEP_BLOCKS`] blocks of
    /// each kind stay allocated.
    fn clear(&mut self) {
        self.entries.clear(ENTRY_BLOCK);
        self.len = 0;
        self.pages.clear();
        self.recent = [0; 2];
        self.arena.clear(ARENA_BLOCK);
        self.packets.clear();
    }

    /// The messages of the sealed packets, in send order.
    fn msgs(&self, src: usize) -> Msgs<'_> {
        Msgs {
            table: self,
            src,
            next: 0,
            warmed: 0,
            packets: self.packets.iter(),
            left: 0,
        }
    }

    /// Move `from`'s sealed packets and their messages behind this table's.
    /// The path of a slot not drained since the last route, or of a stream
    /// routed while a packet still fills — neither happens at a step
    /// boundary — so message by message, and what `from` keeps is rebuilt.
    fn append_sealed(&mut self, from: &mut Table) {
        let sealed: usize = from.packets.iter().map(|p| p.count as usize).sum();
        let mut at = 0;
        for _ in 0..sealed {
            at = self.push_from(from, at);
        }
        self.packets.append(&mut from.packets);
        let mut pending = Table::default();
        for _ in sealed..from.len {
            at = pending.push_from(from, at);
        }
        from.clear();
        if pending.len > 0 {
            *from = pending;
        }
    }
}

/// Entries [`Msgs`] touches ahead of the one it hands out; a divisor of
/// [`ENTRY_BLOCK`], so one block holds them.
const WARM_AHEAD: usize = 64;
const _: () = assert!(ENTRY_BLOCK.is_multiple_of(WARM_AHEAD));

/// Iterator over one table's delivered messages.
struct Msgs<'a> {
    table: &'a Table,
    src: usize,
    /// Entry of the message handed out next.
    next: usize,
    /// Entries before this one were touched.
    warmed: usize,
    /// Packets not yet entered; the current one has `left` messages to go.
    packets: std::slice::Iter<'a, Packet>,
    left: u32,
}

impl<'a> Iterator for Msgs<'a> {
    type Item = Msg<'a>;

    // Kept out of line: inlined into the consumer's absorb loop (its only
    // caller), it made `hash-mem` read 6–7 % slower on a 2-core x86-64 host.
    #[inline(never)]
    fn next(&mut self) -> Option<Msg<'a>> {
        let table = self.table;
        while self.left == 0 {
            let p = self.packets.next()?;
            self.left = p.count;
        }
        self.left -= 1;
        let e = table.entry(self.next);
        let entries = if e.seg & FIRST_OF_TWO == 0 { 1 } else { 2 };
        while self.warmed < self.next + entries {
            // A relation repartitioned on another attribute deals each of
            // its pages over every consumer, so by-reference payloads are
            // cold lines scattered over pages this consumer mostly skips,
            // and meeting them one by one waits out each miss in turn.
            // Touch the next few parts first: independent loads, whose
            // misses overlap.
            let ahead = &table.entries.blocks[self.warmed / ENTRY_BLOCK];
            let ahead = &ahead[self.warmed % ENTRY_BLOCK..];
            let ahead = &ahead[..ahead.len().min(WARM_AHEAD)];
            let touched = ahead
                .iter()
                .fold(0, |t, e| t ^ table.payload(e).first().copied().unwrap_or(0));
            std::hint::black_box(touched);
            self.warmed += ahead.len();
        }
        let (payload, handle) = table.locate(e);
        let tail = match entries {
            1 => &[][..],
            _ => table.payload(table.entry(self.next + 1)),
        };
        self.next += entries;
        Some(Msg {
            src: self.src,
            tag: e.tag,
            payload,
            tail,
            handle,
        })
    }
}

/// Per-destination stream state inside an [`Outbox`].
#[derive(Debug, Default)]
struct Stream {
    /// Modeled bytes and messages of the packet being filled: the last
    /// `pending_count` entries of `table`.
    pending_bytes: u64,
    pending_count: u32,
    table: Table,
}

impl Stream {
    /// Close the packet being filled; returns its modeled bytes.
    fn seal_pending(&mut self, local: bool) -> u64 {
        let bytes = std::mem::take(&mut self.pending_bytes);
        self.table.packets.push(Packet {
            bytes,
            count: std::mem::take(&mut self.pending_count),
            local,
        });
        bytes
    }
}

/// The sending half of one node's exchange endpoint. Owns the packet
/// batching state for every destination; charges only the producer's
/// ledger.
#[derive(Debug)]
pub struct Outbox {
    src: usize,
    /// Shared with every other outbox and the exchange (never cloned per
    /// endpoint — the config is immutable for the machine's lifetime).
    cfg: Arc<RingConfig>,
    streams: Vec<Stream>,
}

impl Outbox {
    fn new(src: usize, cfg: Arc<RingConfig>, nodes: usize) -> Self {
        Outbox {
            src,
            cfg,
            streams: (0..nodes).map(|_| Stream::default()).collect(),
        }
    }

    /// The node this outbox belongs to.
    pub fn node(&self) -> usize {
        self.src
    }

    /// Send one tuple to `dst` on stream `tag`, batching it into packets
    /// and charging the producer ledger its send side (see `admit`).
    /// The payload bytes are copied into the stream's arena — no per-tuple
    /// allocation.
    pub fn send(&mut self, usage: &mut Usage, dst: usize, tag: u32, payload: &[u8]) {
        self.send_parts(usage, dst, tag, payload.into(), Part::default());
    }

    /// Send the tuple `a ‖ b` — one part when the other is empty — charged
    /// and batched exactly like [`Outbox::send`] of its bytes, to a local
    /// or a ring destination alike. A part on a shared image travels by
    /// reference; when neither is, the tuple is copied whole. A composed
    /// join result goes this way: `R` on its site's frozen table, `S` on
    /// the page its probe was scanned from.
    pub fn send_parts(
        &mut self,
        usage: &mut Usage,
        dst: usize,
        tag: u32,
        a: Part<'_>,
        b: Part<'_>,
    ) {
        self.admit(usage, dst, a.len() + b.len()).push(tag, a, b);
    }

    /// Account one `len`-byte tuple to `dst`'s stream and return the table
    /// the caller adds the message to. The tuple costs the producer its
    /// marshalling CPU (the short-circuit hand-off when `dst` is this
    /// node). If it does not fit in the packet being filled, that packet is
    /// sealed first and the tuple starts the next; a packet that reaches
    /// `packet_bytes` is sealed at once. Each sealed packet is charged by
    /// [`Outbox::charge_emit`].
    fn admit(&mut self, usage: &mut Usage, dst: usize, len: usize) -> &mut Table {
        let bytes = len as u64;
        let packet = self.cfg.packet_bytes;
        let src = self.src;
        let local = src == dst;
        if local {
            usage.cpu(self.cfg.shortcircuit_cpu_per_tuple);
        } else {
            usage.cpu(self.cfg.marshal_cpu_per_tuple);
        }
        let s = &mut self.streams[dst];
        if s.pending_bytes + bytes > packet && s.pending_bytes > 0 {
            // Tuple does not fit in the current packet: seal it, then start
            // a new packet with this tuple (tuples are never split).
            let full = s.seal_pending(local);
            s.pending_bytes = bytes;
            s.pending_count = 1;
            Self::charge_emit(&self.cfg, usage, src, dst, full);
        } else {
            s.pending_bytes += bytes;
            s.pending_count += 1;
            if s.pending_bytes >= packet {
                let full = s.seal_pending(local);
                Self::charge_emit(&self.cfg, usage, src, dst, full);
            }
        }
        &mut s.table
    }

    /// Producer-side charge for one sealed packet of `bytes`: a
    /// short-circuited one costs the hand-off CPU per message; a remote one
    /// costs the send protocol CPU and `bytes` of ring occupancy.
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
    /// streams for this step) and charge each by `charge_emit`,
    /// destinations in ascending order.
    pub fn seal(&mut self, usage: &mut Usage) {
        let src = self.src;
        for (dst, s) in self.streams.iter_mut().enumerate() {
            if s.pending_bytes > 0 {
                let bytes = s.seal_pending(src == dst);
                Self::charge_emit(&self.cfg, usage, src, dst, bytes);
            }
        }
    }

    /// True when no stream holds pending or sealed-but-unrouted data.
    pub fn is_drained(&self) -> bool {
        self.streams.iter().all(|s| s.table.len == 0)
    }
}

/// The receiving half of one node's exchange endpoint: the packets
/// [`Exchange::route`] delivered, one table per source.
#[derive(Debug)]
pub struct Inbox {
    node: usize,
    /// The exchange's config, shared with its outboxes.
    cfg: Arc<RingConfig>,
    /// `tables[src]`, shared with the [`Drained`] batch once drained.
    tables: Arc<Vec<Table>>,
    drained: bool,
}

impl Inbox {
    /// The node this inbox belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// True when no undelivered packets remain.
    pub fn is_empty(&self) -> bool {
        self.drained || self.tables.iter().all(|t| t.packets.is_empty())
    }

    /// Empty what was drained — page handles dropped, a few blocks kept —
    /// as soon as its [`Drained`] batch is gone: a consumer that does so
    /// when *its* step ends (and not when every node's has) frees what it
    /// consumed for the next node to allocate. Does nothing while the
    /// batch is alive or nothing was drained; [`Exchange::return_inbox`]
    /// settles either case.
    pub fn release(&mut self) {
        if self.drained {
            if let Some(tables) = Arc::get_mut(&mut self.tables) {
                tables.iter_mut().for_each(Table::clear);
                self.drained = false;
            }
        }
    }

    /// Drain every delivered packet, charging the consumer's ledger the
    /// receive side of each remote packet: the receive protocol CPU plus
    /// unmarshalling CPU per tuple, by the exchange's own [`RingConfig`].
    /// Short-circuited packets cost nothing here. Messages come back in
    /// (source ascending, emission order) — the order a sequential
    /// source-major driver loop would have produced them. The returned
    /// [`Drained`] batch shares the tables; iterate it for borrowed
    /// [`Msg`] views, and drop it before the inbox goes back
    /// ([`Exchange::return_inbox`]) so the tables are reused.
    pub fn drain(&mut self, usage: &mut Usage) -> Drained {
        if self.is_empty() {
            return Drained::default();
        }
        self.drained = true;
        let cfg = &self.cfg;
        for (src, table) in self.tables.iter().enumerate() {
            for p in table.packets.iter().filter(|p| !p.local) {
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
                        src: src as u16,
                        bytes: crate::trace_bytes(p.bytes),
                    },
                );
            }
        }
        Drained {
            tables: Some(Arc::clone(&self.tables)),
        }
    }
}

/// A batch of drained packets; shares the inbox's tables so [`Msg`] views
/// can be borrowed from it while the consumer's context stays mutable.
#[derive(Debug, Default)]
pub struct Drained {
    /// `tables[src]`; `None` when nothing was delivered.
    tables: Option<Arc<Vec<Table>>>,
}

impl Drained {
    fn tables(&self) -> &[Table] {
        self.tables.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Total number of messages across every packet.
    pub fn len(&self) -> usize {
        self.tables().iter().map(|t| t.len).sum()
    }

    /// True when no packets were delivered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_none()
    }

    /// Iterate the messages in delivery order (source-major, emission
    /// order within a source).
    pub fn iter(&self) -> impl Iterator<Item = Msg<'_>> + '_ {
        self.tables()
            .iter()
            .enumerate()
            .flat_map(|(src, table)| table.msgs(src))
    }
}

/// The machine-wide exchange: one [`Outbox`] per node plus the undelivered
/// packets for each destination node.
#[derive(Debug)]
pub struct Exchange {
    /// Shared with every outbox and every inbox taken.
    cfg: Arc<RingConfig>,
    outboxes: Vec<Outbox>,
    /// `inboxes[dst]` holds one table per source; `None` while a consumer
    /// step has it ([`Exchange::take_inbox`]).
    inboxes: Vec<Option<Arc<Vec<Table>>>>,
    /// High-water mark of each inbox's undelivered packet count, observed
    /// at every `route()`. Deterministic across executors because routing
    /// replays sends in source-major input order.
    peak_inbox: Vec<usize>,
}

fn empty_tables(nodes: usize) -> Arc<Vec<Table>> {
    Arc::new((0..nodes).map(|_| Table::default()).collect())
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
            cfg,
            inboxes: (0..nodes).map(|_| Some(empty_tables(nodes))).collect(),
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

    /// Move every sealed packet into its destination inbox, where a
    /// consumer finds them source-major: all of node 0's (in emission
    /// order), then node 1's… Deterministic regardless of producer
    /// scheduling. A stream whose inbox slot was drained swaps tables with
    /// it — the sealed one in, the emptied one back — and copies nothing.
    ///
    /// # Panics
    /// Panics if a packet is bound for an inbox that is still taken.
    pub fn route(&mut self) {
        for (dst, (inbox, peak)) in self
            .inboxes
            .iter_mut()
            .zip(&mut self.peak_inbox)
            .enumerate()
        {
            let mut slots = inbox.as_mut().map(|tables| {
                Arc::get_mut(tables).expect("returned inboxes share their tables with no one")
            });
            for (src, ob) in self.outboxes.iter_mut().enumerate() {
                let s = &mut ob.streams[dst];
                if s.table.packets.is_empty() {
                    continue;
                }
                let Some(slots) = slots.as_deref_mut() else {
                    panic!("packets routed to node {dst} while its inbox is taken")
                };
                if s.pending_count == 0 && slots[src].packets.is_empty() {
                    std::mem::swap(&mut slots[src], &mut s.table);
                } else {
                    slots[src].append_sealed(&mut s.table);
                }
            }
            if let Some(slots) = slots {
                *peak = (*peak).max(slots.iter().map(|t| t.packets.len()).sum());
            }
        }
    }

    /// Per-node high-water marks of undelivered inbox packets, the
    /// exchange's contribution to the flight-recorder envelope.
    pub fn peak_inbox_packets(&self) -> &[usize] {
        &self.peak_inbox
    }

    /// Take node `n`'s inbox (undelivered packets) for a consumer step;
    /// [`Exchange::return_inbox`] brings it back.
    ///
    /// # Panics
    /// Panics if the inbox is already taken.
    pub fn take_inbox(&mut self, n: usize) -> Inbox {
        let tables = self.inboxes[n].take();
        Inbox {
            node: n,
            cfg: Arc::clone(&self.cfg),
            tables: tables.unwrap_or_else(|| panic!("node {n}'s inbox is already taken")),
            drained: false,
        }
    }

    /// Put an inbox back after its consumer step: what was not drained
    /// stays delivered, what was is emptied for the streams to fill again
    /// (a [`Drained`] batch still alive keeps its tables; the slot starts
    /// over with new ones).
    ///
    /// # Panics
    /// Panics if the node's inbox is not out — the slot's packets would be
    /// overwritten.
    pub fn return_inbox(&mut self, mut inbox: Inbox) {
        let slot = &mut self.inboxes[inbox.node];
        assert!(slot.is_none(), "node {}'s inbox was not taken", inbox.node);
        inbox.release();
        if inbox.drained {
            inbox.tables = empty_tables(self.outboxes.len());
        }
        *slot = Some(inbox.tables);
    }

    /// True when no pending bytes, sealed packets, or undelivered inbox
    /// packets remain anywhere — the phase-boundary invariant.
    pub fn is_drained(&self) -> bool {
        self.outboxes.iter().all(|o| o.is_drained())
            && self
                .inboxes
                .iter()
                .flatten()
                .all(|tables| tables.iter().all(|t| t.packets.is_empty()))
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
        let drained = inbox.drain(&mut u[1]);
        ex.return_inbox(inbox);
        assert_eq!(drained.len(), 10);
        assert_eq!(drained.iter().count(), 10);
        assert_eq!(u[1].counts.packets_recv, 2);
        assert!(ex.is_drained());
        // The receiver pays per packet and per tuple, and no ring bytes.
        let cfg = RingConfig::gamma_1989();
        let recv = cfg.recv_cpu_per_packet.scaled(2) + cfg.unmarshal_cpu_per_tuple.scaled(10);
        assert_eq!(u[1].cpu, recv);
        assert_eq!((u[0].ring_bytes, u[1].ring_bytes), (10 * 208, 0));
    }

    #[test]
    fn charges_match_the_packet_model_exactly() {
        // The producer+consumer totals must equal what the packet model
        // charges for the identical tuple stream — packet boundaries and
        // all.
        let sizes = [208usize, 100, 2048, 2040, 16, 208, 208, 1000, 3000, 5];
        let dst = |i: usize| if i.is_multiple_of(3) { 0 } else { 2 };
        let (mut ex, mut u) = exchange(3);
        for (i, &b) in sizes.iter().enumerate() {
            ex.outboxes_mut()[0].send(&mut u[0], dst(i), 7, &vec![0u8; b]);
        }
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
        for n in [0usize, 2] {
            let mut inbox = ex.take_inbox(n);
            inbox.drain(&mut u[n]);
            ex.return_inbox(inbox);
        }
        assert!(ex.is_drained());
        let sends: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &b)| (0, dst(i), b))
            .collect();
        assert_charged_like_model(&u, &model_charges(3, &sends), "");
    }

    #[test]
    fn right_sized_frames_roundtrip_small_and_oversize_tuples() {
        // The two ends of the frame sizing: a packet of 16-byte tuples is a
        // third frame headers (128 of them), and one tuple larger than a
        // packet travels alone. Both come back byte for byte, with exactly
        // the charges the packet model makes for the same stream.
        let packet = RingConfig::gamma_1989().packet_bytes as usize;
        let mut sent: Vec<Vec<u8>> = (0..2 * packet / 16)
            .map(|i| (0..16).map(|b| (i * 16 + b) as u8).collect())
            .collect();
        sent.push((0..packet + 952).map(|i| i as u8).collect());
        sent.push(vec![7u8; 16]);

        let (mut ex, mut u) = exchange(2);
        for (i, t) in sent.iter().enumerate() {
            ex.outboxes_mut()[0].send(&mut u[0], 1, i as u32, t);
        }
        ex.outboxes_mut()[0].seal(&mut u[0]);
        assert_eq!(
            u[0].counts.packets_sent, 4,
            "two full, the oversize, the tail"
        );
        ex.route();
        let mut inbox = ex.take_inbox(1);
        let drained = inbox.drain(&mut u[1]);
        ex.return_inbox(inbox);
        assert_eq!(drained.len(), sent.len());
        for (i, (m, want)) in drained.iter().zip(&sent).enumerate() {
            assert_eq!((m.tag, m.payload), (i as u32, want.as_slice()));
        }
        let sends: Vec<_> = sent.iter().map(|t| (0, 1, t.len())).collect();
        assert_charged_like_model(&u, &model_charges(2, &sends), "");
    }

    #[test]
    fn split_payload_sends_charge_like_single_payload_sends() {
        // Two unshared parts a, b must be indistinguishable — charges,
        // boundaries, delivered bytes — from send(a ++ b).
        let (mut ex, mut u) = exchange(2);
        let (mut ex2, mut u2) = exchange(2);
        let pairs: [(usize, usize); 5] = [(100, 108), (0, 208), (2040, 8), (1, 1), (208, 0)];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let left = vec![i as u8; a];
            let right = vec![!(i as u8); b];
            let (a, b) = (Part::from(&left[..]), Part::from(&right[..]));
            ex.outboxes_mut()[0].send_parts(&mut u[0], 1, i as u32, a, b);
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
        let d1 = i1.drain(&mut u[1]);
        let d2 = i2.drain(&mut u2[1]);
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
        let drained = inbox.drain(&mut u[1]);
        ex.return_inbox(inbox);
        assert_eq!(drained.len(), 10);
        assert_eq!(u[1], before, "short-circuited drain is free");
        // Short-circuiting is much cheaper than the same tuples on the ring.
        let (mut remote, mut ru) = exchange(2);
        send_n(&mut remote, &mut ru, 0, 1, 208, 10);
        remote.outboxes_mut()[0].seal(&mut ru[0]);
        remote.route();
        let mut inbox = remote.take_inbox(1);
        inbox.drain(&mut ru[1]);
        remote.return_inbox(inbox);
        assert!(u[1].cpu.as_us() * 2 < (ru[0].cpu + ru[1].cpu).as_us());
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
        let drained = inbox.drain(&mut u[1]);
        let msgs: Vec<_> = drained.iter().collect();
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
        inbox.drain(&mut u[1]);
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
        send_n(&mut ex, &mut u, 0, 1, 2048, 1);
        assert_eq!(u[0].counts.packets_sent, 3, "an exact fill seals at once");
        ex.outboxes_mut()[0].seal(&mut u[0]);
        assert_eq!(u[0].counts.packets_sent, 3, "nothing was left to seal");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_exchange_rejected() {
        Exchange::new(RingConfig::gamma_1989(), 0);
    }

    #[test]
    fn tags_and_payloads_survive_transit() {
        let (mut ex, mut u) = exchange(2);
        ex.outboxes_mut()[0].send(&mut u[0], 1, 0xAB00_0001, &[1, 2, 3]);
        ex.outboxes_mut()[0].send(&mut u[0], 1, 0xCD00_0002, &[4, 5]);
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
        let mut inbox = ex.take_inbox(1);
        let drained = inbox.drain(&mut u[1]);
        let msgs: Vec<_> = drained.iter().collect();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].tag, 0xAB00_0001);
        assert_eq!(msgs[0].payload, vec![1, 2, 3]);
        assert_eq!(msgs[1].tag, 0xCD00_0002);
        assert_eq!(msgs[1].payload, vec![4, 5]);
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
        inbox.drain(&mut u[1]);
        ex.return_inbox(inbox);
        assert!(ex.is_drained());
    }

    #[test]
    #[should_panic(expected = "inbox was not taken")]
    fn returning_an_inbox_over_routed_packets_is_refused() {
        // The slot a stray inbox would overwrite holds routed packets.
        let (mut ex, mut u) = exchange(2);
        let stray = exchange(2).0.take_inbox(1);
        send_n(&mut ex, &mut u, 0, 1, 208, 1);
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
        ex.return_inbox(stray);
    }

    #[test]
    #[should_panic(expected = "while its inbox is taken")]
    fn routing_to_a_taken_inbox_is_refused() {
        let (mut ex, mut u) = exchange(2);
        let _out = ex.take_inbox(1);
        send_n(&mut ex, &mut u, 0, 1, 208, 1);
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
    }

    #[test]
    fn drained_tables_go_back_to_their_streams() {
        // After a warm-up round trip in each direction of the swap, the
        // same stream sends the same messages into the same allocations.
        let (mut ex, mut u) = exchange(2);
        let image: Arc<[u8]> = (0..=255u8).collect();
        let mut seen = Vec::new();
        for round in 0..6 {
            for i in 0..40usize {
                let part = Part::shared(&image, i..i + 100);
                ex.outboxes_mut()[0].send_parts(&mut u[0], 1, 1, part, Part::default());
                ex.outboxes_mut()[0].send(&mut u[0], 1, 2, &[round as u8; 300]);
            }
            ex.outboxes_mut()[0].seal(&mut u[0]);
            ex.route();
            let mut inbox = ex.take_inbox(1);
            let drained = inbox.drain(&mut u[1]);
            assert_eq!(drained.len(), 80);
            let table = &drained.tables()[0];
            assert_eq!(table.pages.len(), 1, "one handle per distinct page");
            seen.push((
                table.entries.blocks[0].as_ptr(),
                table.arena.blocks[2].as_ptr(),
            ));
            drop(drained);
            ex.return_inbox(inbox);
            assert_eq!(
                Arc::strong_count(&image),
                1,
                "handles dropped with the step"
            );
        }
        assert_eq!(
            seen[2..4],
            seen[4..6],
            "two tables alternate, nothing regrows"
        );
    }

    #[test]
    fn two_part_messages_keep_one_handle_per_image() {
        // Results as a probe sends them: R on one frozen table image, S on
        // a run of probe pages, each page probed several times over; even
        // pages' results go to node 0, odd pages' to node 1. Each stream
        // holds one handle per image, nothing is copied, and each message
        // reads back as R ‖ S.
        let (mut ex, mut u) = exchange(2);
        let table: Arc<Vec<u8>> = Arc::new((0..=255u8).rev().collect());
        let pages: Vec<Arc<[u8]>> = (0..5u8)
            .map(|p| (0..200).map(|i| p ^ i).collect())
            .collect();
        let mut want = [Vec::new(), Vec::new()];
        for (p, page) in pages.iter().enumerate() {
            for i in 0..12usize {
                let (r, s) = (i * 7..i * 7 + 30, i * 9..i * 9 + 50);
                want[p % 2].push((table[r.clone()].to_vec(), page[s.clone()].to_vec()));
                let (r, s) = (Part::shared(&table, r), Part::shared(page, s));
                ex.outboxes_mut()[0].send_parts(&mut u[0], p % 2, 5, r, s);
            }
        }
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
        for (dst, handles) in [(0, 1 + 3), (1, 1 + 2)] {
            let mut inbox = ex.take_inbox(dst);
            let drained = inbox.drain(&mut u[dst]);
            let held = &drained.tables()[0];
            assert_eq!(
                held.pages.len(),
                handles,
                "node {dst}: one handle per image"
            );
            assert_eq!(held.arena.used, 0, "node {dst}: nothing copied");
            let got: Vec<_> = drained
                .iter()
                .map(|m| (m.payload.to_vec(), m.tail.to_vec()))
                .collect();
            assert_eq!(got, want[dst], "node {dst}");
            drop(drained);
            ex.return_inbox(inbox);
        }
        assert_eq!(
            Arc::strong_count(&table),
            1,
            "handles dropped with the step"
        );
    }

    #[test]
    fn pages_of_one_segment_share_one_handle() {
        // A scan of eight pages published as one segment sends every
        // record by reference: each stream holds one handle on the
        // segment, whatever page a record lies on, and copies nothing.
        let (mut ex, mut u) = exchange(2);
        let segment: Arc<[u8]> = (0..8 * 512).map(|i| (i * 7 % 251) as u8).collect();
        let mut want = [Vec::new(), Vec::new()];
        for page in 0..8usize {
            for rec in 0..10usize {
                let at = page * 512 + 4 + rec * 50;
                let dst = (page + rec) % 2;
                want[dst].push(segment[at..at + 50].to_vec());
                let part = Part::shared(&segment, at..at + 50);
                ex.outboxes_mut()[0].send_parts(&mut u[0], dst, 3, part, Part::default());
            }
        }
        ex.outboxes_mut()[0].seal(&mut u[0]);
        ex.route();
        assert_eq!(Arc::strong_count(&segment), 3, "one handle per stream");
        for (dst, want) in want.iter().enumerate() {
            let mut inbox = ex.take_inbox(dst);
            let drained = inbox.drain(&mut u[dst]);
            let held = &drained.tables()[0];
            assert_eq!(held.pages.len(), 1, "node {dst}: one handle per segment");
            assert_eq!(held.arena.used, 0, "node {dst}: nothing copied");
            let got: Vec<Vec<u8>> = drained.iter().map(|m| m.payload.to_vec()).collect();
            assert_eq!(&got, want, "node {dst}");
            drop(drained);
            ex.return_inbox(inbox);
        }
        assert_eq!(
            Arc::strong_count(&segment),
            1,
            "handles dropped with the step"
        );
    }

    /// What the owned model keeps of one message.
    type Sent = (usize, u32, Vec<u8>);

    /// The packet rule, restated over owned messages: which of a stream's
    /// messages are in sealed packets, and what each packet costs by
    /// [`RingConfig`]'s rule. It charges both ends of a packet when it
    /// seals, so its ledgers agree with the exchange's in every field but
    /// the request logs (the exchange bills a receiver when it drains).
    #[derive(Default)]
    struct ModelStream {
        pending: Vec<Sent>,
        pending_bytes: u64,
        sealed: Vec<Sent>,
    }

    impl ModelStream {
        /// Add message `m` from `m.0` to `dst`, charging `u` the tuple and
        /// any packet it seals.
        fn send(&mut self, m: Sent, dst: usize, cfg: &RingConfig, u: &mut [Usage]) {
            let (src, bytes) = (m.0, m.2.len() as u64);
            u[src].cpu(match src == dst {
                true => cfg.shortcircuit_cpu_per_tuple,
                false => cfg.marshal_cpu_per_tuple,
            });
            if self.pending_bytes + bytes > cfg.packet_bytes && self.pending_bytes > 0 {
                self.seal(dst, cfg, u);
            }
            self.pending_bytes += bytes;
            self.pending.push(m);
            if self.pending_bytes >= cfg.packet_bytes {
                self.seal(dst, cfg, u);
            }
        }

        /// Seal the packet being filled, if it holds any bytes, and charge
        /// it: the hand-off when local; else the send protocol and the
        /// ring bytes to the sender, the receive protocol and per-tuple
        /// unmarshalling to `dst`.
        fn seal(&mut self, dst: usize, cfg: &RingConfig, u: &mut [Usage]) {
            if self.pending_bytes == 0 {
                return;
            }
            let (src, tuples) = (self.pending[0].0, self.pending.len() as u64);
            let bytes = std::mem::take(&mut self.pending_bytes);
            if src == dst {
                u[src].cpu(cfg.shortcircuit_cpu_per_msg);
                u[src].counts.msgs_shortcircuit += 1;
            } else {
                u[src].cpu(cfg.send_cpu_per_packet);
                u[src].net(cfg.wire_time(bytes), bytes);
                u[src].counts.packets_sent += 1;
                u[dst].cpu(cfg.recv_cpu_per_packet + cfg.unmarshal_cpu_per_tuple.scaled(tuples));
                u[dst].counts.packets_recv += 1;
            }
            self.sealed.append(&mut self.pending);
        }
    }

    /// What the packet model charges an `n`-node machine for `sends` of
    /// `(src, dst, len)`, every stream sealed at the end.
    fn model_charges(n: usize, sends: &[(usize, usize, usize)]) -> Vec<Usage> {
        let cfg = RingConfig::gamma_1989();
        let mut u = vec![Usage::ZERO; n];
        let mut model: Vec<ModelStream> = (0..n * n).map(|_| ModelStream::default()).collect();
        for &(src, dst, len) in sends {
            model[src * n + dst].send((src, 0, vec![0; len]), dst, &cfg, &mut u);
        }
        for (s, m) in model.iter_mut().enumerate() {
            m.seal(s % n, &cfg, &mut u);
        }
        u
    }

    /// Every ledger field but the request logs agrees with the model's.
    fn assert_charged_like_model(u: &[Usage], model: &[Usage], case: &str) {
        for (n, (x, m)) in u.iter().zip(model).enumerate() {
            assert_eq!(
                (x.cpu, x.disk, x.net, x.ring_bytes, x.disk_wait, x.net_wait),
                (m.cpu, m.disk, m.net, m.ring_bytes, m.disk_wait, m.net_wait),
                "{case} node {n}"
            );
            assert_eq!(x.counts, m.counts, "{case} node {n} counts");
        }
    }

    /// Any interleaving of owned, split, by-reference and two-part sends
    /// (each part shared or copied) — 1 B to more than a packet, local and
    /// remote, routed mid-packet and several
    /// times between drains, some inboxes left undrained for rounds —
    /// delivers exactly what an owned model
    /// says, charges every node exactly what the same stream costs when
    /// every message is sent owned (the whole `Usage`, request logs
    /// included), and totals what the model charges (every field but the
    /// request logs: the model bills a receiver when the packet seals, the
    /// exchange when it is drained, so issue offsets differ by design).
    #[test]
    fn mixed_sends_match_an_owned_model() {
        use rand::{Rng, RngCore, SeedableRng, StdRng};
        const N: usize = 3;
        let cfg = RingConfig::gamma_1989();
        let sizes = [1usize, 2, 16, 208, 416, 1000, 2047, 2048, 2049, 3000];
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Two page images and two buffers (what a frozen table shares).
            let mut random = || {
                let mut bytes = vec![0u8; 8192];
                rng.fill_bytes(&mut bytes);
                bytes
            };
            let pages: Vec<Arc<[u8]>> = (0..2).map(|_| Arc::from(random())).collect();
            let buffers: Vec<Arc<Vec<u8>>> = (0..2).map(|_| Arc::new(random())).collect();
            let images: Vec<Image<'_>> = pages
                .iter()
                .map(Image::from)
                .chain(buffers.iter().map(Image::from))
                .collect();
            let (mut ex, mut u) = exchange(N);
            let (mut owned, mut ou) = exchange(N);
            let mut mu = vec![Usage::ZERO; N];
            let mut model: Vec<ModelStream> = (0..N * N).map(|_| ModelStream::default()).collect();
            // Routed, undrained messages per (dst, src); delivered per dst.
            let mut routed: Vec<Vec<Sent>> = vec![Vec::new(); N * N];
            let mut want: Vec<Vec<Sent>> = vec![Vec::new(); N];
            let mut got: Vec<Vec<Sent>> = vec![Vec::new(); N];
            let mut got_owned: Vec<Vec<Sent>> = vec![Vec::new(); N];

            let rounds = rng.gen_range(1..6usize);
            for round in 0..rounds {
                for _ in 0..rng.gen_range(0..60usize) {
                    let (src, dst) = (rng.gen_range(0..N), rng.gen_range(0..N));
                    let tag = rng.next_u32();
                    let len = sizes[rng.gen_range(0..sizes.len())];
                    // Bytes somewhere on one of the images.
                    let pick = |rng: &mut StdRng, len: usize| {
                        let image = images[rng.gen_range(0..images.len())];
                        let at = rng.gen_range(0..=image.bytes().len() - len);
                        (image, at..at + len)
                    };
                    let ob = &mut ex.outboxes_mut()[src];
                    let payload = match rng.gen_range(0..4u32) {
                        0 => {
                            let (image, at) = pick(&mut rng, len);
                            let bytes = &image.bytes()[at];
                            ob.send(&mut u[src], dst, tag, bytes);
                            bytes.to_vec()
                        }
                        1 => {
                            let (image, at) = pick(&mut rng, len);
                            let (a, b) = image.bytes()[at].split_at(rng.gen_range(0..=len));
                            ob.send_parts(&mut u[src], dst, tag, a.into(), b.into());
                            [a, b].concat()
                        }
                        2 => {
                            let (image, at) = pick(&mut rng, len);
                            let whole = Part::shared(image, at);
                            ob.send_parts(&mut u[src], dst, tag, whole, Part::default());
                            whole.to_vec()
                        }
                        _ => {
                            // Two parts, each on its own image, each sent
                            // by reference or copied: shared/shared,
                            // shared/owned, owned/shared, owned/owned.
                            let cut = rng.gen_range(0..=len);
                            let mut part = |len: usize| {
                                let (image, at) = pick(&mut rng, len);
                                match rng.gen_bool(0.5) {
                                    true => Part::shared(image, at),
                                    false => Part::from(&image.bytes()[at]),
                                }
                            };
                            let (a, b) = (part(cut), part(len - cut));
                            ob.send_parts(&mut u[src], dst, tag, a, b);
                            [&a[..], &b[..]].concat()
                        }
                    };
                    let payload = &payload[..];
                    owned.outboxes_mut()[src].send(&mut ou[src], dst, tag, payload);
                    let m = (src, tag, payload.to_vec());
                    model[src * N + dst].send(m, dst, &cfg, &mut mu);
                    if rng.gen_bool(0.05) {
                        // Route mid-packet: only what is sealed travels.
                        ex.route();
                        owned.route();
                        for (s, m) in model.iter_mut().enumerate() {
                            routed[(s % N) * N + s / N].append(&mut m.sealed);
                        }
                    }
                }
                for n in 0..N {
                    ex.outboxes_mut()[n].seal(&mut u[n]);
                    owned.outboxes_mut()[n].seal(&mut ou[n]);
                }
                ex.route();
                owned.route();
                for (s, m) in model.iter_mut().enumerate() {
                    m.seal(s % N, &cfg, &mut mu);
                    routed[(s % N) * N + s / N].append(&mut m.sealed);
                }
                for dst in 0..N {
                    // Leave some inboxes for a later round's route to add to.
                    if round + 1 < rounds && rng.gen_bool(0.4) {
                        continue;
                    }
                    for src in 0..N {
                        want[dst].append(&mut routed[dst * N + src]);
                    }
                    for (ex, u, got) in [
                        (&mut ex, &mut u, &mut got),
                        (&mut owned, &mut ou, &mut got_owned),
                    ] {
                        let mut inbox = ex.take_inbox(dst);
                        let drained = inbox.drain(&mut u[dst]);
                        assert!(inbox.is_empty());
                        let before = got[dst].len();
                        for m in drained.iter() {
                            let part = m.part();
                            assert_eq!(part.bytes(), m.payload);
                            if let Some((image, at)) = part.home() {
                                assert_eq!(&image.bytes()[at..][..m.payload.len()], m.payload);
                            }
                            got[dst].push((m.src, m.tag, [m.payload, m.tail].concat()));
                        }
                        assert_eq!(drained.len(), got[dst].len() - before, "seed {seed}");
                        drop(drained);
                        ex.return_inbox(inbox);
                    }
                }
            }
            assert!(ex.is_drained() && owned.is_drained(), "seed {seed}");
            assert_eq!(got, want, "seed {seed}: delivered sequence");
            assert_eq!(got_owned, want, "seed {seed}: owned-only sequence");
            assert_eq!(u, ou, "seed {seed}: whole ledgers, mixed == owned-only");
            assert_eq!(ex.peak_inbox_packets(), owned.peak_inbox_packets());
            assert_charged_like_model(&u, &mu, &format!("seed {seed}"));
        }
    }
}
