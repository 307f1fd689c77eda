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
//! before the merge join starts. The merge join itself streams the two
//! sorted files lazily, so a highly skewed inner relation ends the merge
//! early without reading the tail of the outer relation's *sorted* file
//! (§4.4's NU anomaly) — the sorting cost, however, is fully paid. Each
//! result `R ‖ S` then leaves the site as two references, `R` on its
//! sorted-`R` page and `S` on its sorted-`S` page, and is composed only in
//! the result page that stores it.

use std::cmp::Ordering;

use gamma_des::{Event, SimTime, Usage};
use gamma_wiss::sort::{external_sort, RunMerger};
use gamma_wiss::{BufferPool, FileId, SortConfig};

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
    let disk_nodes = machine.disk_nodes();
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
) -> Vec<FileId> {
    let cfg = SortConfig {
        mem_bytes: mem_per_node.max(machine.cfg.cost.disk.page_bytes as u64 * 2),
        page_bytes: machine.cfg.cost.disk.page_bytes,
    };
    let disk_nodes = machine.disk_nodes();
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
                let (sorted, _stats) =
                    external_sort(vol, pool, *f, key, cfg, &ctx.cost.sort, ctx.ledger);
                gamma_trace::emit(
                    ctx.node as u16,
                    ctx.ledger.total_demand().as_us(),
                    gamma_trace::EventKind::SpanEnd { name: "sort" },
                );
                sorted
            },
        )
    };
    // Free the unsorted temp files.
    for &node in &disk_nodes {
        exec::delete_file(machine, node, temp[node]);
    }
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    phases.push(PhaseRecord::new(label, ledgers, sched));
    runs
}

/// A run of equal join values the merge found: `r` records of the sorted
/// `R` run from place `r_at` on, each joined with each of `s` records of
/// the sorted `S` run from `s_at` on.
struct Group {
    r_at: (u32, u32),
    s_at: (u32, u32),
    r: u32,
    s: u32,
}

/// Merge-join one node's sorted runs, reading their pages as the merge
/// reaches them; returns the groups of equal values in merge order and the
/// comparisons made.
fn merge_groups(
    pool: &mut BufferPool,
    ledger: &mut Usage,
    rm: &mut RunMerger<'_, u32>,
    sm: &mut RunMerger<'_, u32>,
) -> (Vec<Group>, u64) {
    let mut groups = Vec::new();
    let mut compares = 0u64;
    let mut r_next = rm.next(pool, ledger);
    let mut s_cur = sm.next(pool, ledger);
    while let (Some(r), Some(s)) = (r_next, s_cur) {
        compares += 1;
        match r.key.cmp(&s.key) {
            Ordering::Less => r_next = rm.next(pool, ledger),
            Ordering::Greater => s_cur = sm.next(pool, ledger),
            Ordering::Equal => {
                // Every inner tuple of the value, then every outer tuple of
                // it (this is the "backup" that keeps sort-merge on the disk
                // nodes); each outer tuple costs one more comparison.
                let mut g = Group {
                    r_at: r.at,
                    s_at: s.at,
                    r: 1,
                    s: 0,
                };
                loop {
                    r_next = rm.next(pool, ledger);
                    match r_next {
                        Some(r2) if r2.key == r.key => g.r += 1,
                        _ => break,
                    }
                }
                while s_cur.is_some_and(|s2| s2.key == r.key) {
                    compares += 1;
                    g.s += 1;
                    s_cur = sm.next(pool, ledger);
                }
                groups.push(g);
            }
        }
    }
    compares += rm.comparisons() + sm.comparisons();
    (groups, compares)
}

/// Execute a parallel sort-merge join.
pub fn run(machine: &mut Machine, rz: &Resolved) -> DriverOutput {
    let disk_nodes = machine.disk_nodes();
    let d = disk_nodes.len();
    let mem_per_node = rz.capacity_per_site; // resolver set this to M / D
    let mut phases = Vec::new();
    let mut consumers = Consumers::new(machine);

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
    let mut states: Vec<(FileId, FileId)> = disk_nodes
        .iter()
        .enumerate()
        .map(|(i, _)| (r_runs[i], s_runs[i]))
        .collect();
    let (r_attr, s_attr) = (rz.r_attr, rz.s_attr);
    let r_key = move |rec: &[u8]| r_attr.get(rec);
    let s_key = move |rec: &[u8]| s_attr.get(rec);
    run_step(
        machine,
        &mut ledgers,
        "merge join",
        &disk_nodes,
        &mut states,
        |ctx, &mut (rr, sr)| {
            gamma_trace::emit(
                ctx.node as u16,
                ctx.ledger.total_demand().as_us(),
                gamma_trace::EventKind::SpanBegin { name: "merge" },
            );
            // The mergers take the runs' pages, which the results below are
            // sent by reference to; the emptied files are deleted after.
            let (vol, pool) = ctx.state.vp();
            let mut rm = RunMerger::open(vol, &[rr], &r_key);
            let mut sm = RunMerger::open(vol, &[sr], &s_key);
            let (groups, compares) = merge_groups(pool, ctx.ledger, &mut rm, &mut sm);
            ctx.charge(ctx.cost.merge_compare_us * compares);
            ctx.ledger
                .record(ctx.node as u16, "merge", Event::Comparisons(compares));
            let mut route = ResultRoute::new(ctx.node, d);
            for g in &groups {
                for (s_page, s) in sm.walk(0, g.s_at).take(g.s as usize) {
                    for (r_page, r) in rm.walk(0, g.r_at).take(g.r as usize) {
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
    consumers.absorb(machine, &mut ledgers);
    for (i, &node) in disk_nodes.iter().enumerate() {
        exec::delete_file(machine, node, r_runs[i]);
        exec::delete_file(machine, node, s_runs[i]);
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
