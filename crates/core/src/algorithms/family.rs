//! The hash-join family: one partition step, one build/probe pass, one
//! overflow resolve.
//!
//! Schneider & DeWitt present Simple, Grace and Hybrid hash as one family
//! (§3.2–3.4): Simple hash is the pass Grace runs per bucket and the
//! overflow mechanism of all three, and Hybrid is Grace with bucket 1 kept
//! in memory. This module is that family, written once; the three drivers
//! are compositions of it.
//!
//! * **The partition step** (`partition`) is the only producer: scan,
//!   hash, route through a [`PartitioningSplitTable`] with both [`Route`]
//!   arms live. A `Spool` entry sets (inner side) or tests (outer side) the
//!   bucket-forming filter and sends the tuple to its bucket file; a `Join`
//!   entry sends an inner tuple to its site's build stage and runs an outer
//!   tuple through the `h'`-augmented probe routing (`Side`). With skew
//!   refinement the inner side first samples, refines the table and
//!   re-broadcasts it. Sort-merge redistributes both relations through
//!   this step too, over a table whose entries all spool
//!   ([`super::sort_merge`]).
//! * **The pass** (`HashJoin::pass`) is the only build/probe skeleton:
//!   install sites → partition the inner input → settle → restore →
//!   dispatch → phase; broadcast filters → snapshot → partition the outer
//!   input → settle → collect overflow → dispatch → phase. A `Pass` says
//!   what genuinely differs between its callers.
//! * **Resolve** (`HashJoin::resolve`) joins what overflowed: localized
//!   in-place rounds first under the robust policy, then the classic
//!   respray loop with its block-nested-loops guard — each round and each
//!   respray being the same pass again.
//!
//! The per-tuple code is monomorphised over the `Side`s; nothing in a
//! tuple loop dispatches on configuration.

use std::collections::btree_map::{BTreeMap, Entry};

use gamma_des::{Event, SimTime};
use gamma_wiss::FileId;

use crate::batch::{Rec, TupleBatch};
use crate::bitfilter::BitFilter;
use crate::exec::control::{broadcast, broadcast_filters, dispatch_overhead};
use crate::exec::hash::{
    tag, take_overflows, Consumers, JoinSites, OverflowPair, ProbeSnapshot, ResultRoute, Spilled,
    RESULT_TAG, TAG_BUCKET, TAG_BUILD, TAG_PROBE, TAG_SPOOL_R, TAG_SPOOL_S,
};
use crate::exec::{self, run_step, scan, StepCtx};
use crate::hash::{hash_u32, respread_seed, JOIN_SEED};
use crate::hash_table::{hprime_cell_of, JoinHashTable};
use crate::machine::{Ledgers, Machine, NodeId};
use crate::report::{DriverOutput, PhaseRecord};
use crate::split::{PartitioningSplitTable, RefineCfg, Route};
use crate::tuple::Attr;

use super::common::{RangePred, Resolved};

/// Classic respray passes one `resolve` may run before it stops hashing
/// and joins what is left by block-nested-loops. Every pass strictly
/// shrinks `R'` (or takes the same exit), so this bounds the phase count of
/// a starved join, not its termination.
pub(super) const MAX_RESPRAY_PASSES: u32 = 63;

/// How a producer reads its files.
#[derive(Clone, Copy, Default)]
pub(super) enum Scan {
    /// A raw overflow spool: `scan_tuple_us` is charged per tuple together
    /// with its routing.
    #[default]
    Spool,
    /// A stored fragment or bucket file, through the `Scan` stage
    /// ([`scan::scan_fragment`] charges the per-tuple scan CPU and applies
    /// the selection).
    Stored(Option<RangePred>),
}

/// One side of a pass: which nodes produce, and what each reads.
#[derive(Default)]
pub(super) struct Input<'a> {
    /// Producing nodes, ascending.
    pub nodes: &'a [NodeId],
    /// `files[k]` are read, in order, by `nodes[k]`.
    pub files: Vec<&'a [FileId]>,
    /// How they are read.
    pub scan: Scan,
}

impl<'a> Input<'a> {
    /// A declustered relation: one stored fragment per disk node.
    pub fn fragments(
        nodes: &'a [NodeId],
        fragments: &'a [FileId],
        pred: Option<RangePred>,
    ) -> Self {
        Input {
            nodes,
            files: fragments.iter().map(std::slice::from_ref).collect(),
            scan: Scan::Stored(pred),
        }
    }

    /// Raw overflow spools, `files[k]` at `nodes[k]`.
    fn spools(nodes: &'a [NodeId], files: Vec<&'a [FileId]>) -> Self {
        Input {
            nodes,
            files,
            scan: Scan::Spool,
        }
    }

    /// Spooled bucket files: entries `at` of each disk node's list.
    fn buckets(
        nodes: &'a [NodeId],
        files: &'a [Vec<FileId>],
        at: &std::ops::RangeInclusive<usize>,
    ) -> Self {
        Input {
            nodes,
            files: files.iter().map(|f| &f[at.clone()]).collect(),
            scan: Scan::Stored(None),
        }
    }
}

/// What differs between the callers of [`HashJoin::pass`].
#[derive(Default)]
pub(super) struct Pass<'a> {
    /// The split table producers route through and the seed they hash
    /// under: a Grace or Hybrid table, or Hybrid's table at one bucket —
    /// the joining split table, `h mod J` ([`joining`]). `None` routes
    /// nowhere: the tuple joins in place, at the site on the node that
    /// holds it, and nothing is hashed or charged for routing (robust
    /// spill-join rounds).
    pub route: Option<(&'a PartitioningSplitTable, u64)>,
    /// Join processes, in site order (none while Grace forms buckets).
    pub sites: &'a [NodeId],
    /// Pass number seeding the sites' `h'` functions.
    pub hprime: u32,
    /// Salt of the sites' bit filters.
    pub filter_salt: u64,
    /// Inner (building) input.
    pub inner: Input<'a>,
    /// Outer (probing) input.
    pub outer: Input<'a>,
    /// Sample the inner input and refine the split table before routing.
    pub refine: bool,
    /// Per-bucket filters built while the inner input is bucket-formed and
    /// tested while the outer is (the §4.2/§5 extension).
    pub form: Option<Vec<BitFilter>>,
    /// Name of the build half's phase; `None` runs both halves as one
    /// phase.
    pub build_phase: Option<String>,
    /// Name of the probe half's (or the only) phase.
    pub probe_phase: String,
    /// Bucket number for the trace's open/close events.
    pub bucket: Option<u16>,
}

/// The bucket files a pass spooled: `r[n][b - first]` is bucket `b`'s inner
/// fragment at disk node `n`, `s` likewise for the outer relation.
pub(super) struct Buckets {
    /// Number of the first spooled bucket (1 for Grace, 2 for Hybrid).
    pub first: usize,
    /// Inner bucket fragments.
    pub r: Vec<Vec<FileId>>,
    /// Outer bucket fragments.
    pub s: Vec<Vec<FileId>>,
}

/// The joining split table over `sites`: Hybrid's table at one bucket.
pub(super) fn joining(sites: &[NodeId]) -> PartitioningSplitTable {
    PartitioningSplitTable::hybrid(sites, &[], 1)
}

/// One packet-sized filter per bucket (indices `0..buckets` map buckets
/// `1..=buckets`) for [`Pass::form`].
pub(super) fn bucket_filters(machine: &Machine, buckets: usize, salt: u64) -> Vec<BitFilter> {
    let bits = machine.cfg.cost.filter_packet_bytes * 8;
    (0..buckets)
        .map(|b| BitFilter::new(bits, salt.wrapping_add(0xBF00 + b as u64)))
        .collect()
}

/// What the partition step does with a routed tuple on one side of the
/// join. Statically dispatched: [`Inner`] and `Outer` here, and sort-merge's
/// outer side, whose filter is tested per destination site.
pub(super) trait Side: Sync {
    /// The inner side reads [`Pass::inner`] on the inner attribute, and is
    /// the one that samples and builds bucket-forming filters.
    const INNER: bool;

    /// The tuple's split-table entry is join site `site`.
    fn join(&self, ctx: &mut StepCtx<'_>, site: usize, val: u32, rec: Rec<'_>);

    /// The tuple's entry spools it to `bucket` at disk node `node`; `false`
    /// drops it instead.
    fn spool(
        &self,
        ctx: &mut StepCtx<'_>,
        shard: &mut Option<Vec<BitFilter>>,
        node: NodeId,
        bucket: usize,
        val: u32,
    ) -> bool;
}

/// The building side: `Join` feeds the site's build stage, `Spool` sets
/// the bucket's filter bit in this producer's private shard.
pub(super) struct Inner<'a> {
    pub sites: &'a JoinSites,
}

impl Side for Inner<'_> {
    const INNER: bool = true;

    #[inline]
    fn join(&self, ctx: &mut StepCtx<'_>, site: usize, _val: u32, rec: Rec<'_>) {
        ctx.send_rec(self.sites.nodes()[site], tag(TAG_BUILD, site), rec);
    }

    #[inline]
    fn spool(
        &self,
        ctx: &mut StepCtx<'_>,
        shard: &mut Option<Vec<BitFilter>>,
        _node: NodeId,
        bucket: usize,
        val: u32,
    ) -> bool {
        if let Some(shard) = shard {
            ctx.charge(ctx.cost.filter_set_us);
            shard[bucket - 1].set(val);
        }
        true
    }
}

/// The probing side: `Join` is the `h'`-augmented split-table entry,
/// `Spool` tests the bucket's filter.
struct Outer<'a> {
    sites: &'a JoinSites,
    snap: &'a ProbeSnapshot,
    form: Option<&'a [BitFilter]>,
}

impl Side for Outer<'_> {
    const INNER: bool = false;

    /// Drop, divert to `S'`, or probe. The filter is tested before the
    /// overflow check: the site's filter covers every inner tuple that
    /// arrived there (bits are set on arrival, before residency is
    /// decided), so eliminating an overflow-bound outer tuple here is safe
    /// and saves its spool I/O and every later re-read (§4.2).
    #[inline]
    fn join(&self, ctx: &mut StepCtx<'_>, site: usize, val: u32, rec: Rec<'_>) {
        if self.snap.filter_drops(ctx, site, val) {
            // dropped at the source
        } else if self.snap.outer_diverts(site, val) {
            ctx.send_rec(self.sites.home(site), tag(TAG_SPOOL_S, site), rec);
        } else {
            ctx.send_rec(self.sites.nodes()[site], tag(TAG_PROBE, site), rec);
        }
    }

    #[inline]
    fn spool(
        &self,
        ctx: &mut StepCtx<'_>,
        _shard: &mut Option<Vec<BitFilter>>,
        _node: NodeId,
        bucket: usize,
        val: u32,
    ) -> bool {
        let Some(filters) = self.form else {
            return true;
        };
        ctx.charge(ctx.cost.filter_test_us);
        if filters[bucket - 1].test(val) {
            return true;
        }
        ctx.ledger
            .record(ctx.node as u16, "forming", Event::FilterDrop);
        false
    }
}

/// One node's producer state for a partition step.
struct Producer<'a> {
    /// Position among the producers: the site this node joins at when the
    /// pass joins in place.
    k: usize,
    files: &'a [FileId],
    /// This producer's private shard of the bucket-forming filters; the
    /// shards are OR-folded afterwards (commutative, so worker scheduling
    /// cannot matter).
    shard: Option<Vec<BitFilter>>,
    /// Sampled tuples and their `(value, hash)` pairs, held on the scan
    /// node so they route without a second disk pass.
    held: Vec<(TupleBatch, Vec<(u32, u64)>)>,
    /// Sampled tuples per split-table entry.
    hist: Vec<u64>,
}

fn read(ctx: &mut StepCtx<'_>, file: FileId, scan: Scan) -> TupleBatch {
    match scan {
        Scan::Stored(pred) => scan::scan_fragment(ctx, file, pred),
        Scan::Spool => ctx.read_batch(file),
    }
}

/// Read one file and hash every tuple once, in record order; the routing
/// pass reuses each `(value, hash)` pair.
fn hash_file(
    ctx: &mut StepCtx<'_>,
    file: FileId,
    scan: Scan,
    attr: Attr,
    seed: u64,
) -> (TupleBatch, Vec<(u32, u64)>) {
    let recs = read(ctx, file, scan);
    let hashed = recs
        .iter()
        .map(|rec| {
            let val = attr.get(rec);
            (val, hash_u32(seed, val))
        })
        .collect();
    (recs, hashed)
}

/// Route hashed tuples through the table, charging `us` per tuple; every
/// charge, filter update and send happens in record order.
#[inline]
fn route_batch<S: Side>(
    ctx: &mut StepCtx<'_>,
    side: &S,
    table: &PartitioningSplitTable,
    us: u64,
    recs: &TupleBatch,
    hashed: &[(u32, u64)],
    shard: &mut Option<Vec<BitFilter>>,
) {
    for (rec, &(val, h)) in recs.recs().zip(hashed) {
        ctx.charge(us);
        match table.route(h) {
            Route::Join { site, .. } => side.join(ctx, site, val, rec),
            Route::Spool { node, bucket } => {
                if side.spool(ctx, shard, node, bucket, val) {
                    ctx.send_rec(node, tag(TAG_BUCKET, bucket), rec);
                }
            }
        }
    }
}

/// The partition step: every producer of one side reads its files and
/// routes each tuple — through `route`'s split table under its seed, or in
/// place when there is none. When the inner side refines, a first wave
/// samples (scan, hash, histogram per split-table entry) and holds the
/// tuples; the refined table, if any entry was hot, is re-broadcast to the
/// producers and returned, and a second wave routes the held tuples
/// through it. `form` is the inner side's bucket-forming filters to build.
pub(super) fn partition<S: Side>(
    machine: &mut Machine,
    ledgers: &mut Ledgers,
    rz: &Resolved,
    p: &Pass<'_>,
    route: Option<(&PartitioningSplitTable, u64)>,
    form: Option<&mut Vec<BitFilter>>,
    side: &S,
) -> Option<PartitioningSplitTable> {
    let (input, attr) = if S::INNER {
        (&p.inner, rz.r_attr)
    } else {
        (&p.outer, rz.s_attr)
    };
    let scan = input.scan;
    let cost = &machine.cfg.cost;
    let scan_us = match scan {
        Scan::Spool => cost.scan_tuple_us,
        Scan::Stored(_) => 0,
    };
    let (hash_us, route_us, hist_us) = (cost.hash_us, cost.route_us, cost.histogram_update_us);
    let mut producers: Vec<Producer<'_>> = input
        .files
        .iter()
        .enumerate()
        .map(|(k, &files)| Producer {
            k,
            files,
            shard: form.as_deref().cloned(),
            held: Vec::new(),
            hist: Vec::new(),
        })
        .collect();

    let Some((table, seed)) = route else {
        run_step(
            machine,
            ledgers,
            "join in place",
            input.nodes,
            &mut producers,
            |ctx, pr| {
                for &file in pr.files {
                    let recs = read(ctx, file, scan);
                    for rec in recs.recs() {
                        ctx.charge(scan_us);
                        side.join(ctx, pr.k, attr.get(&rec), rec);
                    }
                }
            },
        );
        return None;
    };

    let sampled = S::INNER && p.refine;
    let mut refined = None;
    if sampled {
        let e = table.entries();
        run_step(
            machine,
            ledgers,
            "sample",
            input.nodes,
            &mut producers,
            |ctx, pr| {
                pr.hist = vec![0u64; e];
                for &file in pr.files {
                    let (recs, hashed) = hash_file(ctx, file, scan, attr, seed);
                    for &(_, h) in &hashed {
                        ctx.charge(scan_us + hash_us + hist_us);
                        pr.hist[(h % e as u64) as usize] += 1;
                    }
                    pr.held.push((recs, hashed));
                }
            },
        );
        let mut hist = vec![0u64; e];
        for pr in &producers {
            for (m, v) in hist.iter_mut().zip(&pr.hist) {
                *m += v;
            }
        }
        refined = table.refine(&hist, &RefineCfg::default());
        if let Some(refined) = &refined {
            // The scheduler re-broadcasts the larger refined table to every
            // producer before any tuple moves.
            let bytes = machine.cfg.cost.split_table_bytes(refined.entries());
            broadcast(machine, ledgers, input.nodes, bytes);
        }
    }
    let table = refined.as_ref().unwrap_or(table);
    run_step(
        machine,
        ledgers,
        "partition",
        input.nodes,
        &mut producers,
        |ctx, pr| {
            if sampled {
                // Hashes were computed while sampling.
                for (recs, hashed) in std::mem::take(&mut pr.held) {
                    route_batch(ctx, side, table, route_us, &recs, &hashed, &mut pr.shard);
                }
            } else {
                let us = scan_us + hash_us + route_us;
                for &file in pr.files {
                    let (recs, hashed) = hash_file(ctx, file, scan, attr, seed);
                    route_batch(ctx, side, table, us, &recs, &hashed, &mut pr.shard);
                }
            }
        },
    );
    if let Some(form) = form {
        for pr in &producers {
            for (m, s) in form.iter_mut().zip(pr.shard.as_ref().expect("build shard")) {
                m.or_with(s);
            }
        }
    }
    refined
}

/// Record each bucket fragment's size: the distribution the bucket
/// analyzer's uniformity assumption is about.
fn observe_buckets(machine: &Machine, files: &[Vec<FileId>]) {
    if !gamma_metrics::is_active() {
        return;
    }
    for (n, files) in files.iter().enumerate() {
        for &f in files {
            let tuples = machine.nodes[n].vol().file_records(f) as u64;
            gamma_metrics::observe("bucket_tuples", n as u16, "forming", tuples);
        }
    }
}

/// Incremental restore (the dynamic spill/restore path): after the build
/// side settles, each overflowed site's `R'` spool is read back at its
/// home, a per-`h'`-cell byte histogram is taken, and the cutoff is raised
/// cell-by-cell as far as the site's remaining slack allows — re-admitting
/// that range to the table and rewriting only the residue to a fresh spool.
/// The all-or-nothing alternative (the legacy policy) leaves the whole
/// spilled range for a full recursive respray even when the clearing
/// heuristic overshot by one histogram cell; this step makes the spilled
/// fraction track actual memory pressure, which is what removes the
/// memory-ratio cliff.
///
/// Runs after the build side has fully settled and before the probe
/// snapshot is taken, so the raised cutoffs divert strictly fewer outer
/// tuples. The resident-set invariant (residents = offered tuples with
/// `h' <` cutoff) is preserved because every spilled tuple in the raised
/// range is re-sent through the normal build stage before the raise is
/// observable by any producer.
fn restore_spills(
    machine: &mut Machine,
    ledgers: &mut Ledgers,
    rz: &Resolved,
    consumers: &mut Consumers,
    sites: &JoinSites,
) {
    let by_home = consumers.take_spilled(machine, ledgers, sites);
    if by_home.is_empty() {
        return;
    }
    let homes: Vec<NodeId> = by_home.keys().copied().collect();
    type Raised = (usize, Option<u64>);
    let mut states: Vec<(Vec<Spilled>, Vec<Raised>)> = by_home
        .into_values()
        .map(|jobs| (jobs, Vec::new()))
        .collect();
    let r_attr = rz.r_attr;
    run_step(
        machine,
        ledgers,
        "restore spills",
        &homes,
        &mut states,
        |ctx, (jobs, raised)| {
            for job in jobs.iter() {
                let recs = ctx.read_batch(job.file);
                let cells: Vec<usize> = recs
                    .iter()
                    .map(|rec| hprime_cell_of(job.seed, r_attr.get(rec)))
                    .collect();
                // Plan: spilled bytes per h' cell, then raise the cutoff
                // cell-by-cell while the restored range fits the slack.
                let mut per_cell = vec![0u64; JoinHashTable::CELLS];
                for (rec, &cell) in recs.iter().zip(&cells) {
                    ctx.charge(ctx.cost.hash_us + ctx.cost.histogram_update_us);
                    per_cell[cell] += rec.len() as u64 + job.overhead;
                }
                let mut cell = job.floor_cell;
                let mut budget = job.slack;
                while cell < JoinHashTable::CELLS && per_cell[cell] <= budget {
                    budget -= per_cell[cell];
                    cell += 1;
                }
                let (mut restored_b, mut respooled_b) = (0u64, 0u64);
                for (rec, c) in recs.recs().zip(cells) {
                    ctx.charge(ctx.cost.route_us);
                    if c < cell {
                        restored_b += rec.len() as u64;
                        ctx.send_rec(sites.nodes()[job.site], tag(TAG_BUILD, job.site), rec);
                    } else {
                        respooled_b += rec.len() as u64;
                        ctx.send_rec(ctx.node, tag(TAG_SPOOL_R, job.site), rec);
                    }
                }
                let page = ctx.cost.disk.page_bytes as u64;
                let pr = restored_b.div_ceil(page);
                let ps = respooled_b.div_ceil(page);
                ctx.ledger
                    .record(ctx.node as u16, "restore", Event::PagesRestored(pr));
                ctx.ledger
                    .record(ctx.node as u16, "restore", Event::PagesSpilled(ps));
                let cutoff =
                    (cell < JoinHashTable::CELLS).then(|| JoinHashTable::cell_cutoff(cell));
                raised.push((job.site, cutoff));
            }
        },
    );
    // Raise the cutoffs before absorbing: the re-sent build tuples must be
    // admitted (they fit the slack by construction).
    for (jobs, raised) in &states {
        for &(site, cutoff) in raised {
            consumers.raise_cutoff(sites, site, cutoff);
        }
        for job in jobs {
            exec::delete_file(machine, sites.home(job.site), job.file);
        }
    }
    consumers.settle(machine, ledgers);
}

/// Block-nested-loops fallback: one step over the pairs' homes, where each
/// home joins its `(R', S')` pairs in order by staging `R'` in memory-sized
/// blocks and scanning `S'` once per block, dealing the matches to the
/// store operators.
fn block_nested_loops(
    machine: &mut Machine,
    ledgers: &mut Ledgers,
    rz: &Resolved,
    pairs: &[OverflowPair],
) {
    let disk = machine.cfg.disk_nodes;
    let block_bytes = rz.capacity_per_site.max(rz.r_tuple_bytes);
    let block_tuples = (block_bytes / rz.r_tuple_bytes.max(1)).max(1) as usize;
    let (homes, r_files, s_files) = by_home(pairs);
    let mut states: Vec<_> = r_files.into_iter().zip(s_files).collect();
    run_step(
        machine,
        ledgers,
        "block nested loops",
        &homes,
        &mut states,
        |ctx, (r_files, s_files)| {
            for (&r, &s) in r_files.iter().zip(s_files.iter()) {
                let mut route = ResultRoute::new(ctx.node, disk);
                let r_recs = ctx.read_batch(r);
                for block in r_recs.ranges().chunks(block_tuples) {
                    let s_recs = ctx.read_batch(s);
                    for s_rec in s_recs.recs() {
                        ctx.charge(ctx.cost.scan_tuple_us);
                        let sv = rz.s_attr.get(&s_rec);
                        for &rr in block {
                            let r_rec = r_recs.rec(rr);
                            ctx.charge(ctx.cost.chain_compare_us);
                            if rz.r_attr.get(&r_rec) == sv {
                                // Both halves by reference to their pages.
                                ctx.charge(ctx.cost.compose_us);
                                ctx.ledger
                                    .record(ctx.node as u16, "result", Event::TupleOut);
                                ctx.send_parts(route.advance(), RESULT_TAG, r_rec, s_rec);
                            }
                        }
                    }
                }
            }
        },
    );
}

/// Group overflow pairs by home node: the homes (ascending) and, per home,
/// its `R'` and its `S'` files in pair order.
fn by_home(pairs: &[OverflowPair]) -> (Vec<NodeId>, Vec<Vec<FileId>>, Vec<Vec<FileId>>) {
    let mut map: BTreeMap<NodeId, (Vec<FileId>, Vec<FileId>)> = BTreeMap::new();
    for p in pairs {
        let (r, s) = map.entry(p.home).or_default();
        r.push(p.r);
        s.push(p.s);
    }
    let homes = map.keys().copied().collect();
    let (r, s) = map.into_values().unzip();
    (homes, r, s)
}

/// One hash join in progress: the machine, the resolved plan, and what the
/// family's steps accumulate.
pub(super) struct HashJoin<'a> {
    /// The machine the join runs on.
    pub machine: &'a mut Machine,
    rz: &'a Resolved,
    consumers: Consumers,
    phases: Vec<PhaseRecord>,
    overflow_passes: u32,
    bnl_fallback: bool,
}

impl<'a> HashJoin<'a> {
    /// Open the join's consumer side, result store included, and start
    /// with no phases.
    pub fn new(machine: &'a mut Machine, rz: &'a Resolved) -> Self {
        let consumers = Consumers::new(machine);
        HashJoin {
            machine,
            rz,
            consumers,
            phases: Vec::new(),
            overflow_passes: 0,
            bnl_fallback: false,
        }
    }

    /// One build/probe pass.
    ///
    /// A pass over stored files is started by the scheduler shipping the
    /// split table to the scanning nodes and, for the build half, to the
    /// join sites; an overflow pass only restarts its join sites. Restore
    /// runs after the build of a pass over stored files, under the robust
    /// policy — overflow passes never restore.
    pub fn pass(&mut self, mut p: Pass<'_>) -> (Vec<OverflowPair>, Buckets) {
        let (machine, rz, consumers) = (&mut *self.machine, self.rz, &mut self.consumers);
        let stored = matches!(p.inner.scan, Scan::Stored(_));
        // Buckets that spool: all of Grace's, Hybrid's 2..N, none otherwise.
        let first = if p.sites.is_empty() { 1 } else { 2 };
        let last = p.route.map_or(0, |(table, _)| table.buckets());
        let mut form = p.form.take();
        let sites = consumers.install_sites(machine, rz, p.sites, p.hprime, p.filter_salt);

        // ---- build half: route the inner input into the sites' hash
        // tables and the spooled buckets' files. ----
        let mut ledgers = machine.ledgers();
        if let Some(bucket) = p.bucket {
            let kind = gamma_trace::EventKind::BucketOpen { bucket };
            gamma_trace::emit(p.sites[0] as u16, 0, kind);
        }
        consumers.open_buckets(machine, first, last);
        let inner = Inner { sites: &sites };
        let refined = partition(
            machine,
            &mut ledgers,
            rz,
            &p,
            p.route,
            form.as_mut(),
            &inner,
        );
        let route = p
            .route
            .map(|(table, seed)| (refined.as_ref().unwrap_or(table), seed));
        consumers.settle(machine, &mut ledgers);
        if stored && rz.dynamic_spill {
            restore_spills(machine, &mut ledgers, rz, consumers, &sites);
        }
        let r = consumers.close_buckets(machine, &mut ledgers);
        observe_buckets(machine, &r);
        let table_bytes = match route {
            Some((table, _)) if stored => machine.cfg.cost.split_table_bytes(table.entries()),
            _ => 0,
        };
        if let Some(name) = p.build_phase.take() {
            let mut sched = SimTime::ZERO;
            if stored {
                sched += dispatch_overhead(machine, &mut ledgers, p.inner.nodes, table_bytes);
            }
            sched += dispatch_overhead(machine, &mut ledgers, p.sites, table_bytes);
            self.phases.push(PhaseRecord::new(name, ledgers, sched));
            ledgers = machine.ledgers();
        }

        // ---- probe half: route the outer input; probe, divert to the
        // overflow files via the h'-augmented split table, or spool. ----
        broadcast_filters(machine, &mut ledgers, &sites);
        if let Some(form) = &form {
            // Broadcast the per-bucket filter packets to the scanning nodes.
            let bytes = machine.cfg.cost.filter_packet_bytes * form.len() as u64;
            broadcast(machine, &mut ledgers, p.outer.nodes, bytes);
        }
        consumers.open_buckets(machine, first, last);
        let snap = consumers.probe_snapshot(&sites);
        let outer = Outer {
            sites: &sites,
            snap: &snap,
            form: form.as_deref(),
        };
        partition(machine, &mut ledgers, rz, &p, route, None, &outer);
        consumers.settle(machine, &mut ledgers);
        let s = consumers.close_buckets(machine, &mut ledgers);
        observe_buckets(machine, &s);
        let pairs = take_overflows(machine, &mut ledgers, consumers, &sites);
        let starters = if stored { p.outer.nodes } else { p.sites };
        let sched = dispatch_overhead(machine, &mut ledgers, starters, table_bytes);
        if let Some(bucket) = p.bucket {
            let kind = gamma_trace::EventKind::BucketClose { bucket };
            let at = ledgers[p.sites[0]].total_demand().as_us();
            gamma_trace::emit(p.sites[0] as u16, at, kind);
        }
        self.phases
            .push(PhaseRecord::new(p.probe_phase, ledgers, sched));
        (pairs, Buckets { first, r, s })
    }

    /// Join the overflow pairs a pass left behind, exactly as §3.2
    /// describes: read the aggregate `R'`, re-split it across all join
    /// sites with a fresh hash function, build; read `S'`, re-split, probe;
    /// repeat until no site overflows. `salt` is the sub-join's filter
    /// namespace and `prefix` its phase-name prefix.
    ///
    /// Under the robust policy each pair is first joined **in place** at
    /// its home node: after a restore the spilled residue is a narrow `h'`
    /// sub-range that usually fits one full-capacity site table, so the
    /// pair joins locally with zero repartitioning traffic, and only pairs
    /// whose `R'` still overflows escalate to the respray loop. A localized
    /// round is not a respray and is not counted in `overflow_passes` (the
    /// Figure 7 "optimistic" pass counter). Pairs sharing a home take
    /// successive rounds, one site per node per round.
    ///
    /// The loop stops hashing — joining what is left by block-nested-loops
    /// — when a pass fails to shrink `R'` (e.g. one value dominates) or
    /// after [`MAX_RESPRAY_PASSES`].
    pub fn resolve(&mut self, mut pairs: Vec<OverflowPair>, salt: u64, prefix: &str) {
        let rz = self.rz;
        if rz.dynamic_spill {
            let mut escalated = Vec::new();
            let mut round = 0u32;
            while !pairs.is_empty() {
                // One pair per home node this round; the rest wait their turn.
                let mut here: BTreeMap<NodeId, OverflowPair> = BTreeMap::new();
                for p in std::mem::take(&mut pairs) {
                    if let Entry::Vacant(free) = here.entry(p.home) {
                        free.insert(p);
                    } else {
                        pairs.push(p);
                    }
                }
                let homes: Vec<NodeId> = here.keys().copied().collect();
                let (again, _) = self.pass(Pass {
                    sites: &homes,
                    hprime: 0x4000 + round,
                    filter_salt: salt.wrapping_add(0x2000 + round as u64),
                    inner: Input::spools(
                        &homes,
                        here.values().map(|p| std::slice::from_ref(&p.r)).collect(),
                    ),
                    outer: Input::spools(
                        &homes,
                        here.values().map(|p| std::slice::from_ref(&p.s)).collect(),
                    ),
                    probe_phase: format!("{prefix}spill-join r{round}"),
                    ..Pass::default()
                });
                escalated.extend(again);
                self.delete(here.values());
                round += 1;
            }
            pairs = escalated;
        }
        if pairs.is_empty() {
            return;
        }
        let table = joining(&rz.join_nodes);
        let mut pass = 1u32;
        while !pairs.is_empty() {
            let input_r: u64 = pairs.iter().map(|p| p.r_tuples).sum();
            self.overflow_passes += 1;
            let (homes, r_files, s_files) = by_home(&pairs);
            let (next, _) = self.pass(Pass {
                route: Some((&table, respread_seed(pass))),
                sites: &rz.join_nodes,
                hprime: pass,
                filter_salt: salt.wrapping_add(0x1000 + pass as u64),
                inner: Input::spools(&homes, r_files.iter().map(Vec::as_slice).collect()),
                outer: Input::spools(&homes, s_files.iter().map(Vec::as_slice).collect()),
                build_phase: Some(format!("{prefix}overflow-build p{pass}")),
                probe_phase: format!("{prefix}overflow-probe p{pass}"),
                ..Pass::default()
            });
            self.delete(&pairs);
            let next_r: u64 = next.iter().map(|p| p.r_tuples).sum();
            if !next.is_empty() && (next_r >= input_r || pass >= MAX_RESPRAY_PASSES) {
                self.bnl_fallback = true;
                let mut ledgers = self.machine.ledgers();
                block_nested_loops(self.machine, &mut ledgers, rz, &next);
                self.consumers.absorb(self.machine, &mut ledgers);
                self.delete(&next);
                self.phases.push(PhaseRecord::new(
                    format!("{prefix}overflow-bnl p{pass}"),
                    ledgers,
                    SimTime::ZERO,
                ));
                return;
            }
            pairs = next;
            pass += 1;
        }
    }

    /// Free consumed overflow files.
    fn delete<'p>(&mut self, pairs: impl IntoIterator<Item = &'p OverflowPair>) {
        for p in pairs {
            exec::delete_file(self.machine, p.home, p.r);
            exec::delete_file(self.machine, p.home, p.s);
        }
    }

    /// Join buckets `group` (consecutive bucket numbers; bucket tuning
    /// combines several small buckets into one memory-sized round) of
    /// `spooled` — the pass Simple hash runs over a whole relation, over
    /// the group's bucket files — resolve its overflow, and free the files.
    pub fn join_buckets(
        &mut self,
        spooled: &Buckets,
        group: std::ops::RangeInclusive<usize>,
        salt: u64,
    ) {
        let (lo, hi) = (*group.start(), *group.end());
        let label = if lo == hi {
            lo.to_string()
        } else {
            format!("{lo}..{hi}")
        };
        let at = lo - spooled.first..=hi - spooled.first;
        let disk_nodes = self.machine.disk_nodes();
        let table = joining(&self.rz.join_nodes);
        let (pairs, _) = self.pass(Pass {
            route: Some((&table, JOIN_SEED)),
            sites: &self.rz.join_nodes,
            filter_salt: salt,
            inner: Input::buckets(&disk_nodes, &spooled.r, &at),
            outer: Input::buckets(&disk_nodes, &spooled.s, &at),
            build_phase: Some(format!("build bucket {label}")),
            probe_phase: format!("probe bucket {label}"),
            // The leading bucket number stands for the group in the trace.
            bucket: Some(u16::try_from(lo).unwrap_or(0)),
            ..Pass::default()
        });
        // Overflow is possible under skew; Grace normally sizes buckets to
        // avoid it.
        self.resolve(pairs, salt.wrapping_add(0x77), &format!("bucket {label} "));
        for (&node, (r, s)) in disk_nodes.iter().zip(spooled.r.iter().zip(&spooled.s)) {
            for &f in r[at.clone()].iter().chain(&s[at.clone()]) {
                exec::delete_file(self.machine, node, f);
            }
        }
    }

    /// Close the result store and hand the phases to the replay.
    pub fn finish(mut self, buckets: usize) -> DriverOutput {
        let last = self.phases.last_mut().expect("a join has phases");
        let result = self.consumers.finish(self.machine, &mut last.ledgers);
        // The store's final page flushes landed after the phase sealed;
        // refresh the queue-wait annotation so the recorded waits cover the
        // final request log (replay drains the same log when timing the
        // phase).
        for u in last.ledgers.iter_mut() {
            u.annotate_queue_waits();
        }
        DriverOutput {
            phases: self.phases,
            result,
            buckets,
            overflow_passes: self.overflow_passes,
            bnl_fallback: self.bnl_fallback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::simple;
    use crate::machine::{Declustering, MachineConfig};
    use crate::tuple::{Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![Field::Int("k".into()), Field::Str("pad".into(), 44)])
    }

    fn mk(schema: &Schema, k: u32) -> Vec<u8> {
        let mut t = vec![0u8; schema.tuple_bytes()];
        schema.int_attr("k").put(&mut t, k);
        t
    }

    /// Run the shipping Simple hash driver — the bare pass plus resolve —
    /// over `n_r` inner and `n_s` outer tuples on eight local sites of
    /// `capacity_per_site` bytes, under the legacy or the robust policy.
    fn run_simple_mode(
        n_r: u32,
        n_s: u32,
        capacity_per_site: u64,
        skew_all_same: bool,
        robust: bool,
    ) -> DriverOutput {
        let mut m = Machine::new(MachineConfig::local_8());
        let s = schema();
        let r: Vec<Vec<u8>> = (0..n_r)
            .map(|k| mk(&s, if skew_all_same { 7 } else { k }))
            .collect();
        let sout: Vec<Vec<u8>> = (0..n_s).map(|k| mk(&s, k % n_r.max(1))).collect();
        let rid = m.load_relation("r", s.clone(), Declustering::RoundRobin, r);
        let sid = m.load_relation("s", s.clone(), Declustering::RoundRobin, sout);
        let mut rz = Resolved::for_test(m.disk_nodes(), capacity_per_site, s.int_attr("k"), 48);
        rz.r_fragments = m.relation(rid).fragments.clone();
        rz.s_fragments = m.relation(sid).fragments.clone();
        rz.dynamic_spill = robust;
        simple::run(&mut m, &rz)
    }

    fn run_simple(n_r: u32, n_s: u32, capacity_per_site: u64, skew: bool) -> DriverOutput {
        run_simple_mode(n_r, n_s, capacity_per_site, skew, false)
    }

    #[test]
    fn in_memory_join_is_exact() {
        // Everything fits: every S tuple finds exactly one R match.
        let out = run_simple(500, 2000, 1 << 20, false);
        assert_eq!(out.result.tuples, 2000);
        assert_eq!(out.overflow_passes, 0);
    }

    #[test]
    fn overflow_join_is_still_exact() {
        // Tiny tables force multiple overflow passes; result unchanged.
        let full = run_simple(500, 2000, 1 << 20, false);
        let tight = run_simple(500, 2000, 1_500, false);
        assert_eq!(tight.result.tuples, 2000);
        assert_eq!(
            tight.result.checksum, full.result.checksum,
            "same result multiset"
        );
        assert!(tight.overflow_passes >= 1, "must have recursed");
        assert!(!tight.bnl_fallback);
    }

    #[test]
    fn pathological_skew_falls_back_to_bnl() {
        // Every R tuple has value 7; hashing cannot separate them.
        let out = run_simple(400, 400, 3_000, true);
        // S values are k % 400; only k = 7 matches, × 400 R duplicates.
        assert_eq!(out.result.tuples, 400);
        assert!(out.bnl_fallback);
    }

    #[test]
    fn dynamic_restore_and_local_spill_join_is_exact() {
        let full = run_simple_mode(500, 2000, 1 << 20, false, true);
        assert_eq!(full.result.tuples, 2000);
        // Moderate pressure (~15 % short): restore claws most of the spill
        // back and the residue joins locally — no classic respray pass.
        let tight = run_simple_mode(500, 2000, 3_000, false, true);
        assert_eq!(
            tight.result.tuples, 2000,
            "robust path must not lose matches"
        );
        assert_eq!(
            tight.result.checksum, full.result.checksum,
            "same result multiset"
        );
        let restored: u64 = tight
            .phases
            .iter()
            .map(|ph| ph.total().counts.pages_restored)
            .sum();
        assert!(restored > 0, "restore must re-admit part of the spill");
        assert!(
            tight
                .phases
                .iter()
                .any(|ph| ph.name == "simple spill-join r0"),
            "the residue must join in a localized round"
        );
        assert_eq!(tight.overflow_passes, 0, "no classic pass should be needed");
        assert!(!tight.bnl_fallback);
        // Extreme pressure (capacity below one site's share): localized
        // joins escalate as needed but the result is still exact.
        let tiny = run_simple_mode(500, 2000, 1_500, false, true);
        assert_eq!(tiny.result.tuples, 2000);
        assert_eq!(tiny.result.checksum, full.result.checksum);
    }

    #[test]
    fn robust_path_matches_legacy_result_on_pathological_skew() {
        let legacy = run_simple_mode(400, 400, 3_000, true, false);
        let robust = run_simple_mode(400, 400, 3_000, true, true);
        assert!(legacy.bnl_fallback);
        assert_eq!(robust.result.tuples, legacy.result.tuples);
        assert_eq!(robust.result.checksum, legacy.result.checksum);
        // One dominating value cannot be separated by any partitioning: the
        // robust path must escalate and end in the same BNL fallback.
        assert!(robust.bnl_fallback);
    }
}
