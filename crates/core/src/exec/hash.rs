//! Consumer side of every join, and the query's result store.
//!
//! Every join funnels through one [`Consumers`]: a set of per-node
//! [`JoinNode`] consumer states driven by the executor, built when the join
//! starts and closed by [`Consumers::finish`] when it ends. A node may run
//! one [`JoinHashTable`] per join process (the `Build`/`Probe` stages),
//! overflow spools, bucket-forming writers (which also store sort-merge's
//! redistributed relations, building its filters where they land), and —
//! at a disk node, for the whole join — the result store operator
//! (§2.2: the operators at the root of the query distribute result tuples
//! to a store operator at each disk site). Producers route tuples to these
//! consumers as tagged exchange messages; an *absorb* step drains each
//! node's inbox and applies the messages.
//!
//! This module is consumer state only — the stream tags ([`RESULT_TAG`]
//! included), [`JoinNode`], [`Consumers`], [`JoinSites`], the
//! [`ProbeSnapshot`] producers consult, the [`ResultRoute`] producers deal
//! results by, the overflow files a round leaves behind
//! ([`take_overflows`]) and the finished result ([`ResultInfo`]). It runs
//! no producer step: the one partition step, the one build/probe pass and
//! the one overflow `resolve` that drive these consumers live in
//! [`crate::algorithms::family`].
//!
//! Key behaviours implemented exactly as the paper describes:
//!
//! * overflow files `R'_i` / `S'_i` of join site *i* live **whole on one
//!   disk** (the disk paired with the site), different sites on different
//!   disks;
//! * the *outer* relation's tuples destined for an overflowed range are
//!   diverted at the **source** (the split table is augmented with the `h'`
//!   cutoffs via [`ProbeSnapshot`]) and spooled directly to `S'`, never
//!   visiting the join site;
//! * bit filters are applied only to tuples that will actually probe this
//!   pass — overflow-bound tuples are filtered by the next pass's filters,
//!   preserving the no-false-negative guarantee.

use std::collections::BTreeMap;
use std::sync::Arc;

use gamma_des::Event;
use gamma_net::Msg;
use gamma_wiss::{FileId, HeapWriter};

use crate::algorithms::common::Resolved;
use crate::batch::Rec;
use crate::bitfilter::BitFilter;
use crate::checksum::checksum_concat;
use crate::exec::{self, run_step, StepCtx};
use crate::hash::{hash_u32, overflow_seed};
use crate::hash_table::{JoinHashTable, Offer};
use crate::machine::{Ledgers, Machine, NodeId};
use crate::tuple::Attr;

/// Stream tag of inner tuples headed for a join site's build stage; the low
/// bits carry the site index.
pub const TAG_BUILD: u32 = 0x42 << 24;
/// Outer tuples headed for a join site's probe stage.
pub const TAG_PROBE: u32 = 0x50 << 24;
/// Inner tuples spooled to a site's `R'` overflow file.
pub const TAG_SPOOL_R: u32 = 0x72 << 24;
/// Outer tuples diverted at the source to a site's `S'` overflow file.
pub const TAG_SPOOL_S: u32 = 0x73 << 24;
/// Tuples headed for a Grace/Hybrid bucket-forming writer; the low bits
/// carry the 1-based bucket number.
pub const TAG_BUCKET: u32 = 0x62 << 24;

/// Result tuples headed for a disk node's store operator.
pub const RESULT_TAG: u32 = 0x52 << 24;

/// Mask selecting a tag's kind byte.
pub const TAG_KIND: u32 = 0xFF00_0000;
/// Mask selecting a tag's 24-bit argument payload (site or bucket index).
pub const TAG_ARG: u32 = 0x00FF_FFFF;

/// Compose a stream tag from a kind constant and its site/bucket argument.
/// Panics with context when the argument would overflow the 24-bit payload
/// (an unchecked `TAG_X | arg as u32` would silently corrupt the kind byte
/// and misroute the stream).
#[inline]
pub fn tag(kind: u32, arg: usize) -> u32 {
    assert_eq!(
        kind & TAG_ARG,
        0,
        "tag kind {kind:#010x} has payload bits set"
    );
    assert!(
        arg as u64 <= TAG_ARG as u64,
        "tag argument {arg} (kind {:#04x}) overflows the 24-bit payload",
        kind >> 24
    );
    kind | arg as u32
}

#[inline]
fn tag_arg(tag: u32) -> usize {
    (tag & TAG_ARG) as usize
}

/// Per-producer round-robin destination chooser for result tuples. Each
/// producing operator instance deals its matches to the store operators
/// independently (starting at its own offset so producers do not gang up
/// on store node 0), which keeps the assignment deterministic without any
/// cross-worker coordination.
#[derive(Debug, Clone, Copy)]
pub struct ResultRoute {
    disk_nodes: usize,
    next: usize,
}

impl ResultRoute {
    /// A route for the producer on node `src`.
    pub fn new(src: NodeId, disk_nodes: usize) -> Self {
        ResultRoute {
            disk_nodes,
            next: src % disk_nodes,
        }
    }

    /// Next store node in rotation: an increment and a wrap, no division
    /// per result tuple.
    pub fn advance(&mut self) -> NodeId {
        let dst = self.next;
        self.next += 1;
        if self.next == self.disk_nodes {
            self.next = 0;
        }
        dst
    }
}

/// The query's result relation, as [`Consumers::finish`] closes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultInfo {
    /// Result heap files, one per disk node.
    pub files: Vec<FileId>,
    /// Result cardinality.
    pub tuples: u64,
    /// Order-independent checksum of the result multiset.
    pub checksum: u64,
}

/// An overflow spool under construction at one node.
struct SpoolFile {
    writer: HeapWriter,
    count: u64,
}

/// One join process: the site's hash table, bit filter, overflow home and
/// the route its probe results take to the stores.
struct SiteCore {
    index: usize,
    table: JoinHashTable,
    filter: Option<BitFilter>,
    overflow_home: NodeId,
    route: ResultRoute,
    r_attr: Attr,
    s_attr: Attr,
}

/// Everything one node's consumer side may be running: at most one join
/// site, overflow spools it is home to, bucket-forming writers and the
/// filter they build, and — at a disk node — the result store operator
/// with what it has stored so far.
pub struct JoinNode {
    site: Option<SiteCore>,
    spools: BTreeMap<u32, SpoolFile>,
    buckets: BTreeMap<u32, HeapWriter>,
    /// The bit filter the bucket writers set on the attribute as tuples
    /// arrive ([`Consumers::build_filters`]).
    built: Option<(BitFilter, Attr)>,
    store: Option<HeapWriter>,
    stored: u64,
    check: u64,
}

impl JoinNode {
    /// Drain this node's inbox and apply every delivered message as it is
    /// read, in arrival order. Every payload is a borrowed slice — of the
    /// page it was scanned from, for a tuple sent by reference — so
    /// consuming a message copies only where the tuple genuinely moves
    /// somewhere (a table arena, a heap page, an outgoing stream's arena).
    fn absorb_step(&mut self, ctx: &mut StepCtx<'_>) {
        let drained = ctx.drain();
        for m in drained.iter() {
            self.apply(ctx, m);
        }
    }

    fn apply(&mut self, ctx: &mut StepCtx<'_>, m: Msg<'_>) {
        debug_assert!(
            m.tail.is_empty() || m.tag == RESULT_TAG,
            "only result tuples travel in two parts"
        );
        match m.tag & TAG_KIND {
            TAG_BUILD => self.on_build(ctx, tag_arg(m.tag), m.part()),
            TAG_PROBE => self.on_probe(ctx, tag_arg(m.tag), m.part()),
            TAG_SPOOL_R | TAG_SPOOL_S => self.on_spool(ctx, m.tag, m.payload),
            TAG_BUCKET => self.on_bucket(ctx, m.tag, m.payload),
            RESULT_TAG => self.on_result(ctx, m.payload, m.tail),
            other => panic!("node {} got unknown stream tag {other:#x}", ctx.node),
        }
    }

    /// Build stage: insert one inner tuple, handling hash-table overflow —
    /// evictions and diversions are spooled to `R'_i` at the site's home.
    /// A diverted tuple travels on by reference to the page it arrived on;
    /// an evicted one is copied out of the table.
    fn on_build(&mut self, ctx: &mut StepCtx<'_>, i: usize, tuple: Rec<'_>) {
        let site = self.site.as_mut().expect("build tuple at a join site");
        debug_assert_eq!(site.index, i, "build tuple routed to the wrong site");
        let val = site.r_attr.get(&tuple);
        ctx.charge(ctx.cost.build_insert_us + ctx.cost.histogram_update_us);
        if let Some(f) = &mut site.filter {
            ctx.charge(ctx.cost.filter_set_us);
            f.set(val);
        }
        ctx.ledger
            .record(ctx.node as u16, "build", Event::HashInsert);
        let home = site.overflow_home;
        let spool_tag = tag(TAG_SPOOL_R, i);
        match site.table.offer(val, &tuple, ctx.cost.overflow_clear_pct) {
            Offer::Stored => {}
            Offer::Diverted => ctx.send_rec(home, spool_tag, tuple),
            Offer::Overflowed { diverted, scanned } => {
                // The heuristic examines every resident tuple to find the
                // ones above the new cutoff (§4.1).
                ctx.charge(ctx.cost.clear_scan_us * scanned);
                gamma_trace::emit(
                    ctx.node as u16,
                    ctx.ledger.total_demand().as_us(),
                    gamma_trace::EventKind::BucketSpill { bucket: i as u16 },
                );
                for &(_, range) in site.table.evicted() {
                    ctx.charge(ctx.cost.evict_tuple_us);
                    ctx.ledger
                        .record(ctx.node as u16, "build", Event::OverflowEviction);
                    ctx.send(home, spool_tag, site.table.slice(range));
                }
                if diverted {
                    ctx.send_rec(home, spool_tag, tuple);
                }
            }
        }
    }

    /// Probe stage: each match is dealt to a store operator as the result
    /// `R ‖ S` in two parts — `R` on the site's frozen table, `S` on the
    /// page the probing tuple was scanned from — composed only when the
    /// store writes it ([`StepCtx::send_parts`]); neither it nor the match
    /// list is ever materialized on the heap.
    fn on_probe(&mut self, ctx: &mut StepCtx<'_>, i: usize, tuple: Rec<'_>) {
        let site = self.site.as_mut().expect("probe tuple at a join site");
        debug_assert_eq!(site.index, i, "probe tuple routed to the wrong site");
        let (matches, compares) = site.table.probe_ranges(site.s_attr.get(&tuple));
        ctx.charge(ctx.cost.probe_us + ctx.cost.chain_compare_us * compares);
        let ev = Event::HashProbe {
            compares,
            matched: !matches.is_empty(),
        };
        ctx.ledger.record(ctx.node as u16, "probe", ev);
        for range in matches.iter() {
            ctx.charge(ctx.cost.compose_us);
            ctx.ledger.record(ctx.node as u16, "probe", Event::TupleOut);
            let dst = site.route.advance();
            ctx.send_parts(dst, RESULT_TAG, site.table.shared(range), tuple);
        }
    }

    /// Overflow-spool store: append to this home's `R'`/`S'` file for the
    /// sending site (created on first arrival).
    fn on_spool(&mut self, ctx: &mut StepCtx<'_>, tag: u32, rec: &[u8]) {
        let page = ctx.cost.disk.page_bytes;
        let sf = self.spools.entry(tag).or_insert_with(|| SpoolFile {
            writer: HeapWriter::create(ctx.state.vol_mut(), page),
            count: 0,
        });
        ctx.charge(ctx.cost.store_tuple_us);
        let (vol, pool) = ctx.state.vp();
        sf.writer.push(vol, pool, ctx.ledger, rec);
        sf.count += 1;
    }

    /// Bucket-forming store: set the node's filter bit when it builds one,
    /// append to this node's writer for the bucket.
    fn on_bucket(&mut self, ctx: &mut StepCtx<'_>, tag: u32, rec: &[u8]) {
        let writer = self
            .buckets
            .get_mut(&tag)
            .expect("bucket writer open at this node");
        if let Some((f, attr)) = &mut self.built {
            ctx.charge(ctx.cost.filter_set_us);
            f.set(attr.get(rec));
        }
        ctx.charge(ctx.cost.store_tuple_us);
        let (vol, pool) = ctx.state.vp();
        writer.push(vol, pool, ctx.ledger, rec);
    }

    /// Result store operator: append one delivered result tuple `r ‖ s`
    /// at this disk node — the store's CPU plus the heap append, both
    /// halves written straight into the page being filled — and tally it
    /// for [`Consumers::finish`].
    fn on_result(&mut self, ctx: &mut StepCtx<'_>, r: &[u8], s: &[u8]) {
        let w = self.store.as_mut().expect("store operator open");
        ctx.charge(ctx.cost.store_tuple_us);
        let (vol, pool) = ctx.state.vp();
        w.push_concat(vol, pool, ctx.ledger, r, s);
        self.check = self.check.wrapping_add(checksum_concat(0, r, s));
        self.stored += 1;
    }
}

/// Main-thread description of one build/probe round's sites: which nodes
/// run join processes, each site's overflow home, and whether bit filters
/// are on. The per-site state itself lives in the [`Consumers`]. The
/// default is no sites, as when a pass only spools.
#[derive(Default)]
pub struct JoinSites {
    nodes: Arc<[NodeId]>,
    homes: Vec<NodeId>,
    filters_on: bool,
}

impl JoinSites {
    /// Join processors, in site-index order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no sites are installed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Disk node hosting site `i`'s overflow files.
    pub fn home(&self, i: usize) -> NodeId {
        self.homes[i]
    }

    /// Whether the sites build bit filters.
    pub fn filters_on(&self) -> bool {
        self.filters_on
    }
}

/// Producer-side snapshot of the sites after the build round: the `h'`
/// cutoffs augmenting the split table and a copy of each site's filter.
/// Scanning workers consult it without touching any site's state.
pub struct ProbeSnapshot {
    cutoffs: Vec<Option<u64>>,
    seeds: Vec<u64>,
    filters: Vec<Option<BitFilter>>,
}

impl ProbeSnapshot {
    /// Does site `i`'s augmented split-table entry divert this outer value
    /// to the overflow file?
    pub fn outer_diverts(&self, i: usize, val: u32) -> bool {
        match self.cutoffs[i] {
            Some(c) => hash_u32(self.seeds[i], val) >= c,
            None => false,
        }
    }

    /// Would site `i`'s bit filter drop this outer value? Charges the test
    /// at the scanning node.
    pub fn filter_drops(&self, ctx: &mut StepCtx<'_>, i: usize, val: u32) -> bool {
        match &self.filters[i] {
            Some(f) => {
                ctx.charge(ctx.cost.filter_test_us);
                if f.test(val) {
                    false
                } else {
                    ctx.ledger
                        .record(ctx.node as u16, "probe", Event::FilterDrop);
                    true
                }
            }
            None => false,
        }
    }
}

/// The consumer states of every node for one join, driven by absorb
/// steps.
pub struct Consumers {
    nodes: Vec<JoinNode>,
    all: Vec<NodeId>,
}

impl Consumers {
    /// The join's consumer side: no sites and no spools or buckets yet,
    /// and one result store operator opened per disk node. The stores keep
    /// the result's pages when `keep_result` is set; otherwise they charge
    /// and count every page alike and drop its bytes
    /// ([`HeapWriter::create_unkept`]).
    pub fn new(machine: &mut Machine, keep_result: bool) -> Self {
        let page = machine.cfg.cost.disk.page_bytes;
        let open = if keep_result {
            HeapWriter::create
        } else {
            HeapWriter::create_unkept
        };
        let nodes = machine
            .nodes
            .iter_mut()
            .map(|state| JoinNode {
                site: None,
                spools: BTreeMap::new(),
                buckets: BTreeMap::new(),
                built: None,
                store: state.volume.as_mut().map(|v| open(v, page)),
                stored: 0,
                check: 0,
            })
            .collect();
        Consumers {
            nodes,
            all: (0..machine.nodes()).collect(),
        }
    }

    /// Install one join process per `join_nodes` entry, sized and keyed by
    /// the plan: a hash table of `rz.capacity_per_site` bytes whose `h'`
    /// is seeded for `pass`, a bit filter salted by `filter_salt` when the
    /// plan filters, an overflow home on a disk node, and a result route
    /// starting at its own node.
    ///
    /// # Panics
    /// If a node still holds an overflow spool or a bucket writer: the
    /// pass before must have closed them, or this pass would append to
    /// them.
    pub fn install_sites(
        &mut self,
        machine: &Machine,
        rz: &Resolved,
        join_nodes: &Arc<[NodeId]>,
        pass: u32,
        filter_salt: u64,
    ) -> JoinSites {
        for (n, jn) in self.nodes.iter().enumerate() {
            assert!(
                jn.spools.is_empty() && jn.buckets.is_empty(),
                "node {n} still holds an open spool or bucket writer"
            );
        }
        let disk = machine.cfg.disk_nodes;
        let mut homes = Vec::with_capacity(join_nodes.len());
        for (i, &node) in join_nodes.iter().enumerate() {
            let home = if node < disk { node } else { i % disk };
            homes.push(home);
            let prev = self.nodes[node].site.replace(SiteCore {
                index: i,
                table: JoinHashTable::new(
                    rz.capacity_per_site,
                    rz.r_tuple_bytes,
                    overflow_seed(pass, i),
                ),
                filter: rz
                    .filter_bits
                    .map(|b| BitFilter::new(b, filter_salt.wrapping_add(i as u64))),
                overflow_home: home,
                route: ResultRoute::new(node, disk),
                r_attr: rz.r_attr,
                s_attr: rz.s_attr,
            });
            assert!(prev.is_none(), "node {node} already runs a join site");
        }
        JoinSites {
            nodes: Arc::clone(join_nodes),
            homes,
            filters_on: rz.filter_bits.is_some() && !join_nodes.is_empty(),
        }
    }

    /// Snapshot the sites' overflow cutoffs and filters for the probing
    /// producers, and freeze the sites' tables: the build is over, and
    /// probe results reference the tables' stored bytes from here on.
    pub fn probe_snapshot(&mut self, sites: &JoinSites) -> ProbeSnapshot {
        let mut cutoffs = Vec::with_capacity(sites.len());
        let mut seeds = Vec::with_capacity(sites.len());
        let mut filters = Vec::with_capacity(sites.len());
        for &node in sites.nodes() {
            let site = self.nodes[node].site.as_mut().expect("site installed");
            site.table.freeze();
            cutoffs.push(site.table.cutoff());
            seeds.push(site.table.hprime_seed());
            // Filter saturation in parts-per-thousand: the build side is
            // complete here, so this is the selectivity the probe side will
            // see (paper §4.2's bit-vector filtering effectiveness).
            if let Some(f) = &site.filter {
                gamma_metrics::gauge_max(
                    "filter_saturation_pm",
                    node as u16,
                    "probe",
                    (f.saturation() * 1000.0) as u64,
                );
            }
            filters.push(site.filter.clone());
        }
        ProbeSnapshot {
            cutoffs,
            seeds,
            filters,
        }
    }

    /// Open one bucket-forming writer per (disk node, bucket) for buckets
    /// `first..=last`.
    pub fn open_buckets(&mut self, machine: &mut Machine, first: usize, last: usize) {
        let page = machine.cfg.cost.disk.page_bytes;
        for n in 0..machine.cfg.disk_nodes {
            for b in first..=last {
                let w = HeapWriter::create(machine.nodes[n].vol_mut(), page);
                let prev = self.nodes[n].buckets.insert(tag(TAG_BUCKET, b), w);
                assert!(prev.is_none(), "bucket {b} already forming at node {n}");
            }
        }
    }

    /// Close every bucket-forming writer, returning `files[disk_node]` in
    /// ascending bucket order (empty buckets still yield a file, as the
    /// drivers expect) — or nothing at all when no writer is open.
    pub fn close_buckets(
        &mut self,
        machine: &mut Machine,
        ledgers: &mut Ledgers,
    ) -> Vec<Vec<FileId>> {
        if self.nodes.iter().all(|jn| jn.buckets.is_empty()) {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(machine.cfg.disk_nodes);
        for (n, ledger) in ledgers.iter_mut().enumerate().take(machine.cfg.disk_nodes) {
            let buckets = std::mem::take(&mut self.nodes[n].buckets);
            let mut files = Vec::with_capacity(buckets.len());
            for (_, w) in buckets {
                let (vol, pool) = machine.nodes[n].vp();
                files.push(w.finish(vol, pool, ledger));
            }
            out.push(files);
        }
        out
    }

    /// Have disk node `n`'s bucket writers set `filters[n]` on `attr` as
    /// tuples arrive, charged where they are stored — sort-merge's inner
    /// side builds its sites' filters so (§3.1). The filters move in; take
    /// them back with [`Consumers::take_filters`].
    pub fn build_filters(&mut self, filters: &mut [Option<BitFilter>], attr: Attr) {
        for (jn, f) in self.nodes.iter_mut().zip(filters) {
            jn.built = f.take().map(|f| (f, attr));
        }
    }

    /// Move the filters [`Consumers::build_filters`] handed out back into
    /// `filters`.
    pub fn take_filters(&mut self, filters: &mut [Option<BitFilter>]) {
        for (jn, f) in self.nodes.iter_mut().zip(filters) {
            *f = jn.built.take().map(|(f, _)| f);
        }
    }

    /// One absorb step: run every node's consumer over its drained inbox.
    pub fn absorb(&mut self, machine: &mut Machine, ledgers: &mut Ledgers) {
        run_step(
            machine,
            ledgers,
            "absorb",
            &self.all,
            &mut self.nodes,
            |ctx, jn| jn.absorb_step(ctx),
        );
    }

    /// Absorb until the exchange is quiet: two steps suffice, because the
    /// only messages an absorb step *sends* are overflow spools and result
    /// tuples, and the consumers of those send nothing.
    pub fn settle(&mut self, machine: &mut Machine, ledgers: &mut Ledgers) {
        self.absorb(machine, ledgers);
        self.absorb(machine, ledgers);
        debug_assert!(
            machine.exchange.is_drained(),
            "phase sealed with in-flight exchange traffic"
        );
    }

    /// Close the result store operators, charging their last page
    /// flushes to `ledgers`, and describe the stored result.
    pub fn finish(self, machine: &mut Machine, ledgers: &mut Ledgers) -> ResultInfo {
        let mut info = ResultInfo {
            files: Vec::with_capacity(machine.cfg.disk_nodes),
            tuples: 0,
            checksum: 0,
        };
        for (n, jn) in self.nodes.into_iter().enumerate() {
            info.tuples += jn.stored;
            info.checksum = info.checksum.wrapping_add(jn.check);
            if let Some(w) = jn.store {
                let (vol, pool) = machine.nodes[n].vp();
                info.files.push(w.finish(vol, pool, &mut ledgers[n]));
            }
        }
        info
    }
}

/// Overflow partition pair a join site left behind: both files live whole
/// on the site's home disk node.
#[derive(Debug, Clone)]
pub struct OverflowPair {
    /// Disk node holding both files.
    pub home: NodeId,
    /// The `R'` fragment.
    pub r: FileId,
    /// The `S'` fragment.
    pub s: FileId,
    /// Inner tuples in `R'` (the progress measure of overflow resolution).
    pub r_tuples: u64,
}

/// Tear down the sites and close their spool files, returning the overflow
/// pairs that need a recursive pass. Sites that never overflowed return
/// nothing; a missing half becomes an empty file.
pub fn take_overflows(
    machine: &mut Machine,
    ledgers: &mut Ledgers,
    consumers: &mut Consumers,
    sites: &JoinSites,
) -> Vec<OverflowPair> {
    fn fin(
        machine: &mut Machine,
        ledgers: &mut Ledgers,
        home: NodeId,
        sf: Option<SpoolFile>,
    ) -> (FileId, u64) {
        match sf {
            Some(sf) => {
                let (vol, pool) = machine.nodes[home].vp();
                (sf.writer.finish(vol, pool, &mut ledgers[home]), sf.count)
            }
            None => (exec::empty_file(machine, ledgers, home), 0),
        }
    }
    let mut pairs = Vec::new();
    for i in 0..sites.len() {
        consumers.nodes[sites.nodes[i]].site = None;
        let home = sites.homes[i];
        let r = consumers.nodes[home].spools.remove(&tag(TAG_SPOOL_R, i));
        let s = consumers.nodes[home].spools.remove(&tag(TAG_SPOOL_S, i));
        if r.is_none() && s.is_none() {
            continue;
        }
        let (r, r_tuples) = fin(machine, ledgers, home, r);
        let (s, _) = fin(machine, ledgers, home, s);
        pairs.push(OverflowPair {
            home,
            r,
            s,
            r_tuples,
        });
    }
    pairs
}

/// One overflowed site's spilled `R'` and the room its table has left —
/// what the dynamic restore step needs to plan a re-admission.
pub(crate) struct Spilled {
    /// Site index.
    pub site: usize,
    /// The closed `R'` spool at the site's home.
    pub file: FileId,
    /// Free bytes in the site's table.
    pub slack: u64,
    /// `h'` cell of the table's current cutoff.
    pub floor_cell: usize,
    /// The table's `h'` seed.
    pub seed: u64,
    /// Per-entry table overhead on top of the tuple bytes.
    pub overhead: u64,
}

impl Consumers {
    /// Close the `R'` spool of every site that overflowed during the build
    /// and describe it, grouped by home node (sites in index order within
    /// a home). The spools are consumed: the restore step re-admits or
    /// re-spools every tuple in them.
    pub(crate) fn take_spilled(
        &mut self,
        machine: &mut Machine,
        ledgers: &mut Ledgers,
        sites: &JoinSites,
    ) -> BTreeMap<NodeId, Vec<Spilled>> {
        let mut by_home: BTreeMap<NodeId, Vec<Spilled>> = BTreeMap::new();
        for i in 0..sites.len() {
            let home = sites.homes[i];
            let Some(sf) = self.nodes[home].spools.remove(&tag(TAG_SPOOL_R, i)) else {
                continue;
            };
            let table = &self.nodes[sites.nodes[i]]
                .site
                .as_ref()
                .expect("site")
                .table;
            let (vol, pool) = machine.nodes[home].vp();
            by_home.entry(home).or_default().push(Spilled {
                site: i,
                file: sf.writer.finish(vol, pool, &mut ledgers[home]),
                slack: table.slack_bytes(),
                floor_cell: table
                    .cutoff_cell()
                    .expect("a spooled site must have a cutoff"),
                seed: table.hprime_seed(),
                overhead: table.entry_footprint(0),
            });
        }
        by_home
    }

    /// Raise site `i`'s overflow cutoff (`None` = nothing is cut off any
    /// more), so re-sent build tuples below it are admitted.
    pub(crate) fn raise_cutoff(&mut self, sites: &JoinSites, i: usize, cutoff: Option<u64>) {
        let site = self.nodes[sites.nodes[i]].site.as_mut().expect("site");
        site.table.raise_cutoff(cutoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::JOIN_SEED;
    use crate::machine::{multiset_checksum, MachineConfig};
    use crate::tuple::{Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![Field::Int("k".into()), Field::Str("pad".into(), 44)])
    }

    fn mk(schema: &Schema, k: u32) -> Vec<u8> {
        let mut t = vec![0u8; schema.tuple_bytes()];
        schema.int_attr("k").put(&mut t, k);
        t
    }

    #[test]
    fn filters_never_lose_results() {
        let mut m = Machine::new(MachineConfig::local_8());
        let attr = schema().int_attr("k");
        let mut rz = Resolved::for_test(m.disk_ids(), 1 << 20, attr, 48);
        rz.filter_bits = Some(1973);
        let join_nodes = &rz.join_nodes;
        let mut consumers = Consumers::new(&mut m, true);
        let sites = consumers.install_sites(&m, &rz, join_nodes, 0, 42);
        let mut ledgers = m.ledgers();
        let participants = [0usize];
        run_step(
            &mut m,
            &mut ledgers,
            "build",
            &participants,
            &mut [()],
            |ctx, _| {
                for k in 0..300u32 {
                    let rec = mk(&schema(), k);
                    let i = (hash_u32(JOIN_SEED, k) % 8) as usize;
                    ctx.send(join_nodes[i], tag(TAG_BUILD, i), &rec);
                }
            },
        );
        consumers.settle(&mut m, &mut ledgers);
        let snap = consumers.probe_snapshot(&sites);
        let (kept, dropped) = {
            let snap = &snap;
            run_step(
                &mut m,
                &mut ledgers,
                "probe",
                &participants,
                &mut [()],
                |ctx, _| {
                    let mut kept = 0u32;
                    let mut dropped = 0u32;
                    for k in 0..3000u32 {
                        let rec = mk(&schema(), k);
                        let i = (hash_u32(JOIN_SEED, k) % 8) as usize;
                        if snap.filter_drops(ctx, i, k) {
                            dropped += 1;
                            assert!(k >= 300, "a joining tuple was filtered!");
                        } else {
                            kept += 1;
                            ctx.send(join_nodes[i], tag(TAG_PROBE, i), &rec);
                        }
                    }
                    (kept, dropped)
                },
            )[0]
        };
        consumers.settle(&mut m, &mut ledgers);
        assert!(dropped > 1500, "filter should drop most non-joining tuples");
        assert!(kept >= 300);
        let info = consumers.finish(&mut m, &mut ledgers);
        assert_eq!(info.tuples, 300, "all real matches survive filtering");
    }

    #[test]
    fn tag_round_trips_its_argument() {
        assert_eq!(tag(TAG_BUILD, 0), TAG_BUILD);
        assert_eq!(tag_arg(tag(TAG_BUCKET, 413)), 413);
        assert_eq!(tag(TAG_SPOOL_S, TAG_ARG as usize) & TAG_KIND, TAG_SPOOL_S);
    }

    #[test]
    #[should_panic(expected = "overflows the 24-bit payload")]
    fn tag_argument_overflow_panics() {
        let _ = tag(TAG_BUCKET, 1 << 24);
    }

    #[test]
    fn remote_sites_spool_overflow_to_disk_nodes() {
        let mut m = Machine::new(MachineConfig::remote_8_plus_8());
        let attr = schema().int_attr("k");
        let rz = Resolved::for_test(m.diskless_ids(), 1024, attr, 48);
        let mut consumers = Consumers::new(&mut m, true);
        let sites = consumers.install_sites(&m, &rz, &rz.join_nodes, 0, 0);
        for i in 0..sites.len() {
            assert!(sites.home(i) < 8, "overflow must live on a disk node");
        }
    }

    #[test]
    fn no_sites_means_no_filters_to_broadcast() {
        // Grace forms buckets through the family's pass with no join
        // sites; the filter broadcast must then charge nothing.
        let mut m = Machine::new(MachineConfig::local_8());
        let attr = schema().int_attr("k");
        let mut rz = Resolved::for_test(m.disk_ids(), 1024, attr, 48);
        rz.filter_bits = Some(1973);
        let mut consumers = Consumers::new(&mut m, true);
        assert!(!consumers
            .install_sites(&m, &rz, &Arc::default(), 0, 0)
            .filters_on());
        assert!(consumers
            .install_sites(&m, &rz, &rz.join_nodes, 0, 0)
            .filters_on());
    }

    #[test]
    fn result_route_deals_round_robin_from_its_offset() {
        for disk_nodes in 1..=9 {
            for src in 0..20 {
                let mut route = ResultRoute::new(src, disk_nodes);
                for i in 0..30 {
                    assert_eq!(
                        route.advance(),
                        (src + i) % disk_nodes,
                        "{src}/{disk_nodes}"
                    );
                }
            }
        }
    }

    #[test]
    fn result_store_round_robins_and_checksums() {
        let mut m = Machine::new(MachineConfig::local_8());
        let mut ledgers = m.ledgers();
        let mut consumers = Consumers::new(&mut m, true);
        run_step(
            &mut m,
            &mut ledgers,
            "produce",
            &[0],
            &mut [()],
            |ctx, _| {
                let mut route = ResultRoute::new(0, 8);
                for i in 0..16u32 {
                    // Sent in two parts, stored and checksummed as one record.
                    let bytes = i.to_le_bytes();
                    let (r, s) = bytes.split_at(1);
                    ctx.ledger.record(0, "result", Event::TupleOut);
                    ctx.send_parts(route.advance(), RESULT_TAG, r.into(), s.into());
                }
            },
        );
        consumers.absorb(&mut m, &mut ledgers);
        assert!(m.exchange.is_drained());
        let info = consumers.finish(&mut m, &mut ledgers);
        assert_eq!(info.tuples, 16);
        let whole = (0..16u32).fold(0, |acc, i| multiset_checksum(acc, &i.to_le_bytes()));
        assert_eq!(info.checksum, whole);
        for (n, f) in info.files.iter().enumerate() {
            let vol = m.nodes[n].vol();
            let stored: Vec<&[u8]> = vol.page(*f, 0).records().collect();
            let want: Vec<[u8; 4]> = [n as u32, n as u32 + 8].map(u32::to_le_bytes).to_vec();
            assert_eq!(stored, want.iter().map(|w| &w[..]).collect::<Vec<_>>());
        }
        assert_eq!(ledgers[0].counts.tuples_out, 16);
        // Checksum is order independent.
        let a = multiset_checksum(multiset_checksum(0, b"x"), b"y");
        let b = multiset_checksum(multiset_checksum(0, b"y"), b"x");
        assert_eq!(a, b);
        assert_ne!(a, multiset_checksum(0, b"x"));
    }

    #[test]
    #[should_panic(expected = "still holds an open spool or bucket writer")]
    fn a_pass_over_a_spool_left_open_panics() {
        // A build that overflows a 1 KB site spools to its home; the pass
        // ends without collecting the spools, so the next pass's
        // install_sites must refuse to start on top of them.
        let mut m = Machine::new(MachineConfig::local_8());
        let attr = schema().int_attr("k");
        let rz = Resolved::for_test(m.disk_ids(), 1024, attr, 48);
        let mut consumers = Consumers::new(&mut m, true);
        consumers.install_sites(&m, &rz, &rz.join_nodes, 0, 0);
        let mut ledgers = m.ledgers();
        run_step(&mut m, &mut ledgers, "build", &[0], &mut [()], |ctx, _| {
            for k in 0..400u32 {
                let i = (hash_u32(JOIN_SEED, k) % 8) as usize;
                ctx.send(rz.join_nodes[i], tag(TAG_BUILD, i), &mk(&schema(), k));
            }
        });
        consumers.settle(&mut m, &mut ledgers);
        assert!(consumers.nodes.iter().any(|jn| !jn.spools.is_empty()));
        consumers.install_sites(&m, &rz, &Arc::default(), 1, 0);
    }
}
