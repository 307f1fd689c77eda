//! Parallel sort-merge join (§3.1).
//!
//! Both relations are redistributed across the disk nodes through the same
//! D-entry split table (so only co-located fragments can join), each local
//! fragment is sorted with the WiSS external sort, and a local merge join
//! computes the result in parallel at every disk site. Join processors are
//! always the processors with disks — the paper's implementation cannot
//! use diskless nodes (duplicate outer values force the inner scan to back
//! up, which needs the sorted file local).
//!
//! The redistribution is the hash-join family's partition step
//! (`family::partition`) over the one-bucket Grace table: `h mod D`, every
//! entry a spool to a disk site's temp file. Bit filters are built at each
//! disk site while the inner relation is stored into its temp file, then
//! applied at the *source* while the outer relation is partitioned: a
//! filtered tuple is never transmitted, stored, sorted or merged — which is
//! why sort-merge gains the most from filtering (Table 4).
//!
//! As in the paper's implementation ("each of the local files is sorted in
//! parallel… a local merge join performed in parallel across the disk sites
//! will fully compute the join"), each relation is sorted to completion
//! before the merge join starts. The merge join itself scans the two
//! sorted runs lazily, one [`Cursor`] each, so a highly skewed inner
//! relation ends the merge early without reading the tail of the outer
//! relation's *sorted* file (§4.4's NU anomaly) — the sorting cost,
//! however, is fully paid. A sorted run is an order over its temp file's
//! pages, charged as written to a file of its own ([`sort_order`]), so no
//! record is copied on the host. Each result `R ‖ S` then leaves the site
//! as two references ([`Run::records`]), `R` and `S` each on the
//! temp-file page it arrived on, and is composed only in the result page
//! that stores it.

use std::cmp::Ordering;

use gamma_des::{Event, SimTime, Usage};
use gamma_wiss::sort::{sort_order, Cursor, Run};
use gamma_wiss::{BufferPool, FileId, Page, SortConfig};

use crate::batch::Rec;
use crate::bitfilter::BitFilter;
use crate::exec::control::{broadcast, dispatch_overhead};
use crate::exec::hash::{Consumers, JoinSites, ResultRoute, RESULT_TAG};
use crate::exec::{self, run_step, StepCtx};
use crate::hash::JOIN_SEED;
use crate::machine::{Machine, NodeId};
use crate::report::{DriverOutput, PhaseRecord};
use crate::split::PartitioningSplitTable;

use super::common::Resolved;
use super::family::{self, Inner, Input, Pass, Side};

/// Filter-salt namespace for sort-merge.
const SM_SALT: u64 = 0x53;

/// Sort-merge's outer side of the partition step: its table only spools,
/// and a tuple bound for disk site `node` is first tested against that
/// site's filter, built where the inner relation was stored.
struct Outer<'a> {
    filters: &'a [Option<BitFilter>],
}

impl Side for Outer<'_> {
    const INNER: bool = false;

    fn join(&self, _: &mut StepCtx<'_>, _: usize, _: u32, _: Rec<'_>) {
        unreachable!("sort-merge's split table has no join entries")
    }

    #[inline]
    fn spool(
        &self,
        ctx: &mut StepCtx<'_>,
        _shard: &mut Option<Vec<BitFilter>>,
        node: NodeId,
        _bucket: usize,
        val: u32,
    ) -> bool {
        let Some(f) = &self.filters[node] else {
            return true;
        };
        ctx.charge(ctx.cost.filter_test_us);
        if f.test(val) {
            return true;
        }
        ctx.ledger
            .record(ctx.node as u16, "sortmerge", Event::FilterDrop);
        false
    }
}

/// Redistribute one relation — the inner when `inner`, else the outer —
/// into one temp file per disk node (phase 1 / 3). The inner side builds
/// `filters[n]` at disk site `n` as its tuples are stored; the outer side
/// tests them at the source.
fn redistribute(
    machine: &mut Machine,
    phases: &mut Vec<PhaseRecord>,
    consumers: &mut Consumers,
    rz: &Resolved,
    filters: &mut [Option<BitFilter>],
    inner: bool,
) -> Vec<FileId> {
    let disk_nodes = machine.disk_ids();
    let table = PartitioningSplitTable::grace(&disk_nodes, 1);
    let p = Pass {
        route: Some((&table, JOIN_SEED)),
        inner: Input::fragments(&disk_nodes, &rz.r_fragments, rz.r_pred),
        outer: Input::fragments(&disk_nodes, &rz.s_fragments, rz.s_pred),
        ..Pass::default()
    };
    consumers.open_buckets(machine, 1, 1);
    let mut ledgers = machine.ledgers();
    if inner {
        consumers.build_filters(filters, rz.r_attr);
        let side = Inner {
            sites: &JoinSites::default(),
        };
        family::partition(machine, &mut ledgers, rz, &p, p.route, None, &side);
    } else {
        let side = Outer { filters };
        family::partition(machine, &mut ledgers, rz, &p, p.route, None, &side);
    }
    consumers.settle(machine, &mut ledgers);
    let files = consumers.close_buckets(machine, &mut ledgers);
    if inner {
        consumers.take_filters(filters);
    }
    let table_bytes = machine.cfg.cost.split_table_bytes(table.entries());
    let mut sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, table_bytes);
    if !inner && filters.iter().any(Option::is_some) {
        // The aggregate filter packet was broadcast to the scanning nodes
        // before the outer partitioning began.
        let bytes = machine.cfg.cost.filter_packet_bytes;
        broadcast(machine, &mut ledgers, &disk_nodes, bytes);
        sched += SimTime::from_us(machine.cfg.cost.scheduler_dispatch_us);
    }
    let label = if inner { "partition R" } else { "partition S" };
    phases.push(PhaseRecord::new(label, ledgers, sched));
    files.into_iter().map(|bucket| bucket[0]).collect()
}

/// One disk node's sorted fragment: its run, an order over the pages
/// taken from its temp file, and those pages.
type Sorted = (Run<u32>, Vec<Page>);

/// Fully sort every node's temp fragment (run formation plus however many
/// merge passes the memory budget requires — the source of the "upward
/// steps" in the paper's sort-merge curves). Each node's sort is
/// independent, so on a pooled executor the whole phase runs as one wave
/// of node-local workers.
fn sort_phase(
    machine: &mut Machine,
    phases: &mut Vec<PhaseRecord>,
    temp: &[FileId],
    attr: crate::tuple::Attr,
    mem_per_node: u64,
    label: &str,
) -> Vec<Sorted> {
    let cfg = SortConfig {
        mem_bytes: mem_per_node.max(machine.cfg.cost.disk.page_bytes as u64 * 2),
        page_bytes: machine.cfg.cost.disk.page_bytes,
    };
    let disk_nodes = machine.disk_ids();
    let mut ledgers = machine.ledgers();
    let key = move |rec: &[u8]| attr.get(rec);
    let mut states: Vec<FileId> = disk_nodes.iter().map(|&n| temp[n]).collect();
    let runs = {
        let key = &key;
        run_step(
            machine,
            &mut ledgers,
            "sort",
            &disk_nodes,
            &mut states,
            |ctx, f| {
                gamma_trace::emit(
                    ctx.node as u16,
                    ctx.ledger.total_demand().as_us(),
                    gamma_trace::EventKind::SpanBegin { name: "sort" },
                );
                let (vol, pool) = ctx.state.vp();
                let (run, pages, _stats) =
                    sort_order(vol, pool, *f, key, cfg, &ctx.cost.sort, ctx.ledger);
                gamma_trace::emit(
                    ctx.node as u16,
                    ctx.ledger.total_demand().as_us(),
                    gamma_trace::EventKind::SpanEnd { name: "sort" },
                );
                (run, pages)
            },
        )
    };
    // Free the temp files: their pages live on in the sorted runs' orders.
    for &node in disk_nodes.iter() {
        exec::delete_file(machine, node, temp[node]);
    }
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    phases.push(PhaseRecord::new(label, ledgers, sched));
    runs
}

/// A run of equal join values the merge found: `r` records of the sorted
/// `R` run from place `r_at` of its order on, each joined with each of `s`
/// records of the sorted `S` run from `s_at` on.
struct Group {
    r_at: usize,
    s_at: usize,
    r: u32,
    s: u32,
}

/// Merge-join one node's sorted runs through a cursor each, reading their
/// pages as the merge reaches them; returns the groups of equal values in
/// merge order and the comparisons made.
fn merge_groups(
    pool: &mut BufferPool,
    ledger: &mut Usage,
    r_run: &Run<u32>,
    s_run: &Run<u32>,
) -> (Vec<Group>, u64) {
    let mut groups = Vec::new();
    let mut compares = 0u64;
    // Open R and take from it, then open S and take from it: each cursor
    // reads a record ahead, so this is the order the runs' first pages are
    // charged in. `r_cur` and `s_cur` are the keys last taken, each at
    // place `taken() - 1` of its run.
    let mut rc = Cursor::open(r_run, pool, ledger);
    let mut r_cur = rc.next(pool, ledger);
    let mut sc = Cursor::open(s_run, pool, ledger);
    let mut s_cur = sc.next(pool, ledger);
    while let (Some(r), Some(s)) = (r_cur, s_cur) {
        compares += 1;
        match r.cmp(s) {
            Ordering::Less => r_cur = rc.next(pool, ledger),
            Ordering::Greater => s_cur = sc.next(pool, ledger),
            Ordering::Equal => {
                // Every inner tuple of the value, then every outer tuple of
                // it (this is the "backup" that keeps sort-merge on the disk
                // nodes); each outer tuple costs one more comparison.
                let mut g = Group {
                    r_at: rc.taken() - 1,
                    s_at: sc.taken() - 1,
                    r: 1,
                    s: 0,
                };
                loop {
                    r_cur = rc.next(pool, ledger);
                    match r_cur {
                        Some(r2) if r2 == r => g.r += 1,
                        _ => break,
                    }
                }
                while s_cur == Some(r) {
                    compares += 1;
                    g.s += 1;
                    s_cur = sc.next(pool, ledger);
                }
                groups.push(g);
            }
        }
    }
    // Taking a record costs a comparison, as a one-run heap merge's pop.
    compares += (rc.taken() + sc.taken()) as u64;
    (groups, compares)
}

/// Execute a parallel sort-merge join.
pub fn run(machine: &mut Machine, rz: &Resolved) -> DriverOutput {
    let disk_nodes = machine.disk_ids();
    let d = disk_nodes.len();
    let mem_per_node = rz.capacity_per_site; // resolver set this to M / D
    let mut phases = Vec::new();
    let mut consumers = Consumers::new(machine, rz.keep_result);

    let mut filters: Vec<Option<BitFilter>> = (0..d)
        .map(|i| {
            rz.filter_bits
                .map(|b| BitFilter::new(b, SM_SALT.wrapping_add(i as u64)))
        })
        .collect();

    // Phase 1: redistribute R (building filters at the destinations).
    let r_temp = redistribute(machine, &mut phases, &mut consumers, rz, &mut filters, true);
    // Phase 2: sort R locally.
    let r_runs = sort_phase(
        machine,
        &mut phases,
        &r_temp,
        rz.r_attr,
        mem_per_node,
        "sort R",
    );

    // Phase 3: redistribute S, filtering at the sources.
    let s_temp = redistribute(
        machine,
        &mut phases,
        &mut consumers,
        rz,
        &mut filters,
        false,
    );
    // Phase 4: sort S locally.
    let s_runs = sort_phase(
        machine,
        &mut phases,
        &s_temp,
        rz.s_attr,
        mem_per_node,
        "sort S",
    );

    // Phase 5: local merge join in parallel at every disk site.
    let mut ledgers = machine.ledgers();
    let files: Vec<(FileId, FileId)> = r_runs
        .iter()
        .zip(&s_runs)
        .map(|((r, _), (s, _))| (r.file(), s.file()))
        .collect();
    let mut states: Vec<(Sorted, Sorted)> = r_runs.into_iter().zip(s_runs).collect();
    run_step(
        machine,
        &mut ledgers,
        "merge join",
        &disk_nodes,
        &mut states,
        |ctx, ((r_run, r_pages), (s_run, s_pages))| {
            gamma_trace::emit(
                ctx.node as u16,
                ctx.ledger.total_demand().as_us(),
                gamma_trace::EventKind::SpanBegin { name: "merge" },
            );
            // The results below are sent by reference to the temp-file
            // pages the runs' orders point into; the runs' empty files are
            // deleted after.
            let (_, pool) = ctx.state.vp();
            let (groups, compares) = merge_groups(pool, ctx.ledger, r_run, s_run);
            ctx.charge(ctx.cost.merge_compare_us * compares);
            ctx.ledger
                .record(ctx.node as u16, "merge", Event::Comparisons(compares));
            let mut route = ResultRoute::new(ctx.node, d);
            for g in &groups {
                for (s_page, s) in s_run.records(s_pages, g.s_at).take(g.s as usize) {
                    for (r_page, r) in r_run.records(r_pages, g.r_at).take(g.r as usize) {
                        ctx.charge(ctx.cost.compose_us);
                        ctx.ledger.record(ctx.node as u16, "merge", Event::TupleOut);
                        let (r, s) = (Rec::shared(r_page, r), Rec::shared(s_page, s.clone()));
                        ctx.send_parts(route.advance(), RESULT_TAG, r, s);
                    }
                }
            }
            gamma_trace::emit(
                ctx.node as u16,
                ctx.ledger.total_demand().as_us(),
                gamma_trace::EventKind::SpanEnd { name: "merge" },
            );
        },
    );
    // The orders go now; the pages live on only in the results sent.
    drop(states);
    consumers.absorb(machine, &mut ledgers);
    for (&node, &(r_file, s_file)) in disk_nodes.iter().zip(&files) {
        exec::delete_file(machine, node, r_file);
        exec::delete_file(machine, node, s_file);
    }
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    let result = consumers.finish(machine, &mut ledgers);
    phases.push(PhaseRecord::new("merge join", ledgers, sched));

    DriverOutput {
        phases,
        result,
        buckets: 1,
        overflow_passes: 0,
        bnl_fallback: false,
    }
}
