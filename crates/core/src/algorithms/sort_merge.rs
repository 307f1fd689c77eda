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
//! Bit filters are built at each disk site while the inner relation is
//! partitioned into its temp file, then applied at the *source* while the
//! outer relation is partitioned: a filtered tuple is never transmitted,
//! stored, sorted or merged — which is why sort-merge gains the most from
//! filtering (Table 4).
//!
//! As in the paper's implementation ("each of the local files is sorted in
//! parallel… a local merge join performed in parallel across the disk sites
//! will fully compute the join"), each relation is sorted to completion
//! before the merge join starts. The merge join itself streams the two
//! sorted files lazily, so a highly skewed inner relation ends the merge
//! early without reading the tail of the outer relation's *sorted* file
//! (§4.4's NU anomaly) — the sorting cost, however, is fully paid.

use gamma_des::{SimTime, Usage};
use gamma_wiss::sort::{external_sort, RunMerger};
use gamma_wiss::{BufferPool, FileId, SortConfig, Volume};

use crate::batch::TupleBatch;
use crate::bitfilter::BitFilter;
use crate::exec::control::dispatch_overhead;
use crate::exec::hash::{Consumers, TAG_PART};
use crate::exec::{self, run_step, scan};
use crate::hash::{hash_u32, JOIN_SEED};
use crate::machine::{Machine, ResultRoute, ResultSink, RESULT_TAG};
use crate::report::{DriverOutput, PhaseRecord};
use crate::split::JoiningSplitTable;

use super::common::{RangePred, Resolved};

/// Filter-salt namespace for sort-merge.
const SM_SALT: u64 = 0x53;

/// Redistribute one relation into per-node temp files (phase 1 / 3).
#[allow(clippy::too_many_arguments)]
fn partition(
    machine: &mut Machine,
    phases: &mut Vec<PhaseRecord>,
    sink: &mut ResultSink,
    fragments: &[FileId],
    attr: crate::tuple::Attr,
    pred: Option<RangePred>,
    filters: &mut [Option<BitFilter>],
    build_filters: bool,
    label: &str,
) -> Vec<FileId> {
    let disk_nodes = machine.disk_nodes();
    let d = disk_nodes.len();
    let jt = JoiningSplitTable::new(disk_nodes.clone());
    let mut consumers = Consumers::new(machine);
    if build_filters {
        // Inner partitioning: each destination site builds its own filter
        // while it stores arriving tuples.
        let taken: Vec<Option<BitFilter>> = filters.iter_mut().map(Option::take).collect();
        consumers.open_parts(machine, taken, attr);
    } else {
        consumers.open_parts(machine, vec![None; d], attr);
    }
    let mut ledgers = machine.ledgers();
    let mut states: Vec<FileId> = disk_nodes.iter().map(|&n| fragments[n]).collect();
    {
        let jt = &jt;
        let test_filters: Option<&[Option<BitFilter>]> = (!build_filters).then_some(&*filters);
        run_step(
            machine,
            &mut ledgers,
            "partition",
            &disk_nodes,
            &mut states,
            |ctx, f| {
                let recs = scan::scan_fragment(ctx, *f, pred);
                // Pure per-tuple routing, chunked on the pool; charges, filter
                // tests and sends replay in record order below.
                let routed = ctx.par_map_batch(&recs, |rec| {
                    let val = attr.get(rec);
                    (val, jt.site_index(hash_u32(JOIN_SEED, val)))
                });
                for (rec, (val, i)) in recs.recs().zip(routed) {
                    ctx.charge(ctx.cost.hash_us + ctx.cost.route_us);
                    if let Some(filters) = test_filters {
                        // Outer partitioning: test the destination site's
                        // filter at the source before spending network/disk on
                        // the tuple.
                        if let Some(f) = &filters[i] {
                            ctx.charge(ctx.cost.filter_test_us);
                            if !f.test(val) {
                                ctx.ledger.counts.filter_drops += 1;
                                gamma_metrics::counter_add(
                                    "filter_drops",
                                    ctx.node as u16,
                                    "sortmerge",
                                    1,
                                );
                                continue;
                            }
                        }
                    }
                    ctx.send_rec(disk_nodes[i], TAG_PART, rec);
                }
            },
        );
    }
    consumers.settle(machine, &mut ledgers, sink);
    let (files, back) = consumers.close_parts(machine, &mut ledgers);
    if build_filters {
        for (slot, f) in filters.iter_mut().zip(back) {
            *slot = f;
        }
    }
    let table_bytes = machine.cfg.cost.split_table_bytes(jt.entries());
    let mut sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, table_bytes);
    if !build_filters {
        // The aggregate filter packet was broadcast to the scanning nodes
        // before the outer partitioning began.
        if filters.iter().any(Option::is_some) {
            let bytes = machine.cfg.cost.filter_packet_bytes;
            for &n in &disk_nodes {
                machine.fabric.scheduler_control(&mut ledgers[n], n, bytes);
            }
            sched += SimTime::from_us(machine.cfg.cost.scheduler_dispatch_us);
        }
    }
    phases.push(PhaseRecord::new(label, ledgers, sched));
    files
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

/// Stream a merge join over one node's sorted runs, collecting outputs.
/// Returns `(result tuples, merge comparisons)`.
fn merge_streams(
    vol: &Volume,
    pool: &mut BufferPool,
    ledger: &mut Usage,
    r_sorted: FileId,
    s_sorted: FileId,
    r_attr: crate::tuple::Attr,
    s_attr: crate::tuple::Attr,
) -> (TupleBatch, u64) {
    let mut out = TupleBatch::new();
    let mut compares = 0u64;
    let r_key = move |rec: &[u8]| r_attr.get(rec);
    let s_key = move |rec: &[u8]| s_attr.get(rec);
    let mut rm = RunMerger::open(vol, vec![r_sorted], &r_key);
    let mut sm = RunMerger::open(vol, vec![s_sorted], &s_key);

    let mut group: Vec<&[u8]> = Vec::new();
    let mut r_next = rm.next_ref(pool, ledger);
    let mut s_cur = sm.next_ref(pool, ledger);
    while let (Some(r), Some(s)) = (r_next, s_cur) {
        let rk = r_attr.get(r);
        let sk = s_attr.get(s);
        compares += 1;
        if rk < sk {
            r_next = rm.next_ref(pool, ledger);
        } else if rk > sk {
            s_cur = sm.next_ref(pool, ledger);
        } else {
            // Collect the group of equal inner keys, then emit the cross
            // product with every matching outer tuple (this is the
            // "backup" that keeps sort-merge on the disk nodes).
            group.clear();
            group.push(r);
            loop {
                r_next = rm.next_ref(pool, ledger);
                match r_next {
                    Some(r2) if r_attr.get(r2) == rk => group.push(r2),
                    _ => break,
                }
            }
            while let Some(s2) = s_cur {
                if s_attr.get(s2) != rk {
                    break;
                }
                compares += 1;
                for g in &group {
                    out.push_concat(g, s2);
                }
                s_cur = sm.next_ref(pool, ledger);
            }
        }
    }
    compares += rm.comparisons() + sm.comparisons();
    (out, compares)
}

/// Execute a parallel sort-merge join.
pub fn run(machine: &mut Machine, rz: &Resolved) -> DriverOutput {
    let disk_nodes = machine.disk_nodes();
    let d = disk_nodes.len();
    let mem_per_node = rz.capacity_per_site; // resolver set this to M / D
    let mut phases = Vec::new();
    let mut sink = ResultSink::new(machine);

    let mut filters: Vec<Option<BitFilter>> = (0..d)
        .map(|i| {
            rz.filter_bits
                .map(|b| BitFilter::new(b, SM_SALT.wrapping_add(i as u64)))
        })
        .collect();

    // Phase 1: redistribute R (building filters at the destinations).
    let r_temp = partition(
        machine,
        &mut phases,
        &mut sink,
        &rz.r_fragments,
        rz.r_attr,
        rz.r_pred,
        &mut filters,
        true,
        "partition R",
    );
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
    let s_temp = partition(
        machine,
        &mut phases,
        &mut sink,
        &rz.s_fragments,
        rz.s_attr,
        rz.s_pred,
        &mut filters,
        false,
        "partition S",
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
            let (outputs, compares) = {
                let (vol, pool) = ctx.state.vp();
                merge_streams(vol, pool, ctx.ledger, rr, sr, rz.r_attr, rz.s_attr)
            };
            ctx.charge(ctx.cost.merge_compare_us * compares);
            ctx.ledger.counts.comparisons += compares;
            gamma_metrics::counter_add("comparisons", ctx.node as u16, "merge", compares);
            let mut route = ResultRoute::new(ctx.node, d);
            for rec in outputs.recs() {
                ctx.charge(ctx.cost.compose_us);
                ctx.ledger.counts.tuples_out += 1;
                gamma_metrics::counter_add("op_tuples_out", ctx.node as u16, "merge", 1);
                ctx.send_rec(route.advance(), RESULT_TAG, rec);
            }
            gamma_trace::emit(
                ctx.node as u16,
                ctx.ledger.total_demand().as_us(),
                gamma_trace::EventKind::SpanEnd { name: "merge" },
            );
        },
    );
    sink.flush(machine, &mut ledgers);
    for (i, &node) in disk_nodes.iter().enumerate() {
        exec::delete_file(machine, node, r_runs[i]);
        exec::delete_file(machine, node, s_runs[i]);
    }
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    let result = sink.finish(machine, &mut ledgers);
    phases.push(PhaseRecord::new("merge join", ledgers, sched));

    DriverOutput {
        phases,
        result,
        buckets: 1,
        overflow_passes: 0,
        bnl_fallback: false,
    }
}
