//! Parallel Grace hash-join (§3.3).
//!
//! Bucket-forming is completely separated from bucket-joining: both source
//! relations are hashed into `N` logical buckets, each bucket horizontally
//! partitioned across every disk node through the bucket-major partitioning
//! split table of Appendix A. Both relations are therefore written back to
//! disk in full before any joining starts — the reason Grace's curve is
//! nearly flat in memory and why extra buckets cost only scheduling
//! overhead. Each bucket is then joined Grace-style: build hash tables at
//! the join sites, probe, with per-bucket bit filters.

use gamma_wiss::FileId;

use crate::batch::TupleBatch;
use crate::bitfilter::BitFilter;
use crate::exec::control::{broadcast_filters, dispatch_overhead};
use crate::exec::hash::{
    resolve_overflows, resolve_overflows_robust, restore_spills, tag, take_overflows, Consumers,
    OverflowEnv, TAG_BUCKET, TAG_BUILD, TAG_PROBE, TAG_SPOOL_S,
};
use crate::exec::{self, run_step, scan};
use crate::hash::{hash_u32, JOIN_SEED};
use crate::machine::{Machine, ResultSink};
use crate::report::{DriverOutput, PhaseRecord};
use crate::split::{JoiningSplitTable, PartitioningSplitTable, RefineCfg, Route};

use super::common::Resolved;

/// Filter-salt namespace for Grace.
const GRACE_SALT: u64 = 0x6A;

/// Per-bucket filters used when filtering extends to bucket-forming (the
/// §4.2/§5 proposal): `Build` sets a bit for every spooled inner tuple,
/// `Test` drops outer tuples whose bucket filter misses — before any spool
/// I/O is spent on them.
pub(super) enum FormFilters<'a> {
    /// Bucket-forming filters off.
    Off,
    /// Building from the inner relation.
    Build(&'a mut [BitFilter]),
    /// Testing the outer relation.
    Test(&'a [BitFilter]),
}

/// One packet-sized filter per bucket (indices 0..buckets map buckets
/// 1..=buckets).
pub(super) fn bucket_filters(machine: &Machine, buckets: usize, salt: u64) -> Vec<BitFilter> {
    let bits = machine.cfg.cost.filter_packet_bytes * 8;
    (0..buckets)
        .map(|b| BitFilter::new(bits, salt.wrapping_add(0xBF00 + b as u64)))
        .collect()
}

/// Bucket-form one relation (phase 1 for R, phase 2 for S). Returns the
/// bucket fragment files, `files[disk_node][bucket-1]`.
#[allow(clippy::too_many_arguments)]
fn bucket_form(
    machine: &mut Machine,
    phases: &mut Vec<PhaseRecord>,
    sink: &mut ResultSink,
    part: &mut PartitioningSplitTable,
    fragments: &[FileId],
    attr: crate::tuple::Attr,
    pred: Option<super::common::RangePred>,
    buckets: usize,
    label: &str,
    mut form_filters: FormFilters<'_>,
    refine: bool,
) -> Vec<Vec<FileId>> {
    let disk_nodes = machine.disk_nodes();
    let mut consumers = Consumers::new(machine);
    consumers.open_buckets(machine, 1, buckets);
    let mut ledgers = machine.ledgers();
    let test_filters: Option<&[BitFilter]> = match &form_filters {
        FormFilters::Test(f) => Some(f),
        _ => None,
    };
    if let Some(filters) = test_filters {
        // The per-bucket filter packets were broadcast to the scanning
        // nodes after the inner relation's bucket-forming completed.
        let bytes = machine.cfg.cost.filter_packet_bytes * filters.len() as u64;
        for &n in &disk_nodes {
            machine.fabric.scheduler_control(&mut ledgers[n], n, bytes);
        }
    }
    // Building producers each fill a private filter shard; the shards are
    // OR-folded below (commutative, so worker scheduling cannot matter).
    let shard_proto: Option<Vec<BitFilter>> = match &form_filters {
        FormFilters::Build(f) => Some(f.to_vec()),
        _ => None,
    };
    if refine {
        // ---- Wave A: sample. Scan and hash every tuple, build a
        // per-split-table-entry histogram, and hold the records on the scan
        // node so wave B can route them without a second disk pass. ----
        let e = part.entries();
        type SampleState = (FileId, TupleBatch, Vec<(u32, u64)>, Vec<u64>);
        // Held tuples + their (value, hash) pairs + this node's filter shards.
        type RouteState = (TupleBatch, Vec<(u32, u64)>, Option<Vec<BitFilter>>);
        let mut sample_states: Vec<SampleState> = disk_nodes
            .iter()
            .map(|&n| (fragments[n], TupleBatch::new(), Vec::new(), vec![0u64; e]))
            .collect();
        run_step(
            machine,
            &mut ledgers,
            "sample",
            &disk_nodes,
            &mut sample_states,
            |ctx, (file, recs, hashed, hist)| {
                *recs = scan::scan_fragment(ctx, *file, pred);
                *hashed = ctx.par_map_batch(recs, |rec| {
                    let val = attr.get(rec);
                    (val, hash_u32(JOIN_SEED, val))
                });
                for (_, h) in hashed.iter() {
                    ctx.charge(ctx.cost.hash_us + ctx.cost.histogram_update_us);
                    hist[(*h % e as u64) as usize] += 1;
                }
            },
        );
        let mut hist = vec![0u64; e];
        for (_, _, _, local) in &sample_states {
            for (m, v) in hist.iter_mut().zip(local) {
                *m += v;
            }
        }
        if let Some(refined) = part.refine(&hist, &RefineCfg::default()) {
            // The scheduler re-broadcasts the larger refined table to every
            // producer before any tuple moves.
            let bytes = machine.cfg.cost.split_table_bytes(refined.entries());
            for &n in &disk_nodes {
                machine.fabric.scheduler_control(&mut ledgers[n], n, bytes);
            }
            *part = refined;
        }
        // ---- Wave B: route the held records through the (possibly
        // refined) table. Hashes were computed in wave A. ----
        let mut route_states: Vec<RouteState> = sample_states
            .into_iter()
            .map(|(_, recs, hashed, _)| (recs, hashed, shard_proto.clone()))
            .collect();
        {
            let part = &*part;
            run_step(
                machine,
                &mut ledgers,
                "bucket-form",
                &disk_nodes,
                &mut route_states,
                |ctx, (recs, hashed, shard)| {
                    let batch = std::mem::take(recs);
                    for (rec, (val, h)) in batch.iter().zip(hashed.iter()) {
                        ctx.charge(ctx.cost.route_us);
                        match part.route(*h) {
                            Route::Spool { node: dst, bucket } => {
                                if let Some(shard) = shard {
                                    ctx.charge(ctx.cost.filter_set_us);
                                    shard[bucket - 1].set(*val);
                                } else if let Some(filters) = test_filters {
                                    ctx.charge(ctx.cost.filter_test_us);
                                    if !filters[bucket - 1].test(*val) {
                                        ctx.ledger.counts.filter_drops += 1;
                                        gamma_metrics::counter_add(
                                            "filter_drops",
                                            ctx.node as u16,
                                            "forming",
                                            1,
                                        );
                                        continue;
                                    }
                                }
                                ctx.send(dst, tag(TAG_BUCKET, bucket), rec);
                            }
                            Route::Join { .. } => {
                                unreachable!("grace tables never route to join")
                            }
                        }
                    }
                },
            );
        }
        if let FormFilters::Build(main) = &mut form_filters {
            for (_, _, shard) in &route_states {
                for (m, s) in main.iter_mut().zip(shard.as_ref().expect("build shard")) {
                    m.or_with(s);
                }
            }
        }
    } else {
        let mut states: Vec<(FileId, Option<Vec<BitFilter>>)> = disk_nodes
            .iter()
            .map(|&n| (fragments[n], shard_proto.clone()))
            .collect();
        {
            let part = &*part;
            run_step(
                machine,
                &mut ledgers,
                "bucket-form",
                &disk_nodes,
                &mut states,
                |ctx, (file, shard)| {
                    let recs = scan::scan_fragment(ctx, *file, pred);
                    // Pure per-tuple routing, chunked on the pool; charges,
                    // filter updates and sends replay in record order below.
                    let routed = ctx.par_map_batch(&recs, |rec| {
                        let val = attr.get(rec);
                        (val, part.route(hash_u32(JOIN_SEED, val)))
                    });
                    for (rec, (val, route)) in recs.iter().zip(routed) {
                        ctx.charge(ctx.cost.hash_us + ctx.cost.route_us);
                        match route {
                            Route::Spool { node: dst, bucket } => {
                                if let Some(shard) = shard {
                                    ctx.charge(ctx.cost.filter_set_us);
                                    shard[bucket - 1].set(val);
                                } else if let Some(filters) = test_filters {
                                    ctx.charge(ctx.cost.filter_test_us);
                                    if !filters[bucket - 1].test(val) {
                                        ctx.ledger.counts.filter_drops += 1;
                                        gamma_metrics::counter_add(
                                            "filter_drops",
                                            ctx.node as u16,
                                            "forming",
                                            1,
                                        );
                                        continue;
                                    }
                                }
                                ctx.send(dst, tag(TAG_BUCKET, bucket), rec);
                            }
                            Route::Join { .. } => {
                                unreachable!("grace tables never route to join")
                            }
                        }
                    }
                },
            );
        }
        if let FormFilters::Build(main) = &mut form_filters {
            for (_, shard) in &states {
                for (m, s) in main.iter_mut().zip(shard.as_ref().expect("build shard")) {
                    m.or_with(s);
                }
            }
        }
    }
    consumers.settle(machine, &mut ledgers, sink);
    let out = consumers.close_buckets(machine, &mut ledgers);
    let table_bytes = machine.cfg.cost.split_table_bytes(part.entries());
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, table_bytes);
    phases.push(PhaseRecord::new(label, ledgers, sched));
    out
}

/// Join bucket `b` (1-based): build from the R fragments, probe with the S
/// fragments, resolve any overflow, free the bucket files. Shared with the
/// Hybrid driver for its buckets 2..N.
#[allow(clippy::too_many_arguments)]
pub(super) fn join_bucket(
    machine: &mut Machine,
    rz: &Resolved,
    phases: &mut Vec<PhaseRecord>,
    sink: &mut ResultSink,
    r_files: &[FileId],
    s_files: &[FileId],
    b: usize,
    salt: u64,
) -> (u32, bool) {
    let r_group: Vec<Vec<FileId>> = r_files.iter().map(|&f| vec![f]).collect();
    let s_group: Vec<Vec<FileId>> = s_files.iter().map(|&f| vec![f]).collect();
    join_bucket_group(
        machine,
        rz,
        phases,
        sink,
        &r_group,
        &s_group,
        &b.to_string(),
        salt.wrapping_add(b as u64),
    )
}

/// Join one *group* of buckets (bucket tuning combines several small
/// buckets into a memory-sized round): `r_group[node]` lists the R bucket
/// fragments at that node, likewise `s_group`.
#[allow(clippy::too_many_arguments)]
pub(super) fn join_bucket_group(
    machine: &mut Machine,
    rz: &Resolved,
    phases: &mut Vec<PhaseRecord>,
    sink: &mut ResultSink,
    r_group: &[Vec<FileId>],
    s_group: &[Vec<FileId>],
    label: &str,
    salt: u64,
) -> (u32, bool) {
    let jt = JoiningSplitTable::new(rz.join_nodes.clone());
    let table_bytes = machine.cfg.cost.split_table_bytes(jt.entries());
    let disk_nodes = machine.disk_nodes();
    let mut consumers = Consumers::new(machine);
    let sites = consumers.install_sites(
        machine,
        &rz.join_nodes,
        rz.capacity_per_site,
        rz.r_tuple_bytes,
        0,
        rz.filter_bits,
        salt,
        rz.r_attr,
        rz.s_attr,
    );

    // A group label is "3" or "1..4"; the leading bucket number stands for
    // the group in trace events.
    let bucket_no: u16 = label
        .split("..")
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);

    // ---- build ----
    let mut ledgers = machine.ledgers();
    gamma_trace::emit(
        rz.join_nodes[0] as u16,
        0,
        gamma_trace::EventKind::BucketOpen { bucket: bucket_no },
    );
    let mut r_states: Vec<Vec<FileId>> = disk_nodes.iter().map(|&n| r_group[n].clone()).collect();
    {
        let jt = &jt;
        run_step(
            machine,
            &mut ledgers,
            "build bucket",
            &disk_nodes,
            &mut r_states,
            |ctx, files| {
                for &file in files.iter() {
                    let recs = scan::scan_fragment(ctx, file, None);
                    let routed = ctx.par_map_batch(&recs, |rec| {
                        jt.site_index(hash_u32(JOIN_SEED, rz.r_attr.get(rec)))
                    });
                    for (rec, i) in recs.iter().zip(routed) {
                        ctx.charge(ctx.cost.hash_us + ctx.cost.route_us);
                        ctx.send(rz.join_nodes[i], tag(TAG_BUILD, i), rec);
                    }
                }
            },
        );
    }
    consumers.settle(machine, &mut ledgers, sink);
    if rz.dynamic_spill {
        // The build side has settled: read each overflowed site's R' spool
        // back, raise its table cutoff as far as the freed slack allows,
        // and re-admit the restorable band. Only the residue stays spilled.
        restore_spills(machine, &mut ledgers, &mut consumers, &sites, sink);
    }
    let mut sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, table_bytes);
    sched += dispatch_overhead(machine, &mut ledgers, &rz.join_nodes, table_bytes);
    phases.push(PhaseRecord::new(
        format!("build bucket {label}"),
        ledgers,
        sched,
    ));

    // ---- probe ----
    let mut ledgers = machine.ledgers();
    broadcast_filters(machine, &mut ledgers, &sites);
    let snap = consumers.probe_snapshot(&sites);
    let mut s_states: Vec<Vec<FileId>> = disk_nodes.iter().map(|&n| s_group[n].clone()).collect();
    {
        let jt = &jt;
        let sites = &sites;
        let snap = &snap;
        run_step(
            machine,
            &mut ledgers,
            "probe bucket",
            &disk_nodes,
            &mut s_states,
            |ctx, files| {
                for &file in files.iter() {
                    let recs = scan::scan_fragment(ctx, file, None);
                    let routed = ctx.par_map_batch(&recs, |rec| {
                        let val = rz.s_attr.get(rec);
                        (val, jt.site_index(hash_u32(JOIN_SEED, val)))
                    });
                    for (rec, (val, i)) in recs.iter().zip(routed) {
                        ctx.charge(ctx.cost.hash_us + ctx.cost.route_us);
                        // Filter before the overflow check: the site's filter
                        // covers every inner tuple that arrived there (bits
                        // are set on arrival, before residency is decided), so
                        // eliminating an overflow-bound outer tuple here is
                        // safe and saves its spool I/O and every later re-read
                        // (§4.2).
                        if snap.filter_drops(ctx, i, val) {
                            // dropped at the source
                        } else if snap.outer_diverts(i, val) {
                            ctx.send(sites.home(i), tag(TAG_SPOOL_S, i), rec);
                        } else {
                            ctx.send(rz.join_nodes[i], tag(TAG_PROBE, i), rec);
                        }
                    }
                }
            },
        );
    }
    consumers.settle(machine, &mut ledgers, sink);
    let pairs = take_overflows(machine, &mut ledgers, &mut consumers, &sites);
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, table_bytes);
    gamma_trace::emit(
        rz.join_nodes[0] as u16,
        ledgers[rz.join_nodes[0]].total_demand().as_us(),
        gamma_trace::EventKind::BucketClose { bucket: bucket_no },
    );
    phases.push(PhaseRecord::new(
        format!("probe bucket {label}"),
        ledgers,
        sched,
    ));

    // ---- overflow (possible under skew; Grace normally sizes buckets to
    // avoid it) ----
    let env = OverflowEnv {
        join_nodes: &rz.join_nodes,
        capacity_per_site: rz.capacity_per_site,
        tuple_bytes: rz.r_tuple_bytes,
        r_attr: rz.r_attr,
        s_attr: rz.s_attr,
        filter_bits: rz.filter_bits,
        filter_salt: salt.wrapping_add(0x77),
    };
    let stats = if rz.dynamic_spill {
        resolve_overflows_robust(
            machine,
            &env,
            pairs,
            sink,
            phases,
            &format!("bucket {label} "),
        )
    } else {
        resolve_overflows(
            machine,
            &env,
            pairs,
            1,
            sink,
            phases,
            &format!("bucket {label} "),
        )
    };

    for &node in &disk_nodes {
        for &f in &r_group[node] {
            exec::delete_file(machine, node, f);
        }
        for &f in &s_group[node] {
            exec::delete_file(machine, node, f);
        }
    }
    (stats.passes, stats.bnl_fallback)
}

/// Bucket tuning \[KITS83\]: combine consecutive small buckets into groups
/// whose *measured* inner size fits the aggregate join memory. Returns the
/// groups as lists of 1-based bucket numbers.
pub(super) fn tune_buckets(
    machine: &Machine,
    rz: &Resolved,
    r_files: &[Vec<FileId>],
    buckets: usize,
) -> Vec<Vec<usize>> {
    // Pack to ~80% of the aggregate table capacity: hash-distribution
    // variance across sites must still fit each site's table.
    let memory = rz.capacity_per_site * rz.join_nodes.len() as u64 * 80 / 100;
    // Measured R bytes per bucket across all fragments.
    let size_of = |b: usize| -> u64 {
        (0..machine.cfg.disk_nodes)
            .map(|n| {
                machine.nodes[n].vol().file_records(r_files[n][b - 1]) as u64 * rz.r_tuple_bytes
            })
            .sum()
    };
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut cur_bytes = 0u64;
    for b in 1..=buckets {
        let sz = size_of(b);
        if !cur.is_empty() && cur_bytes + sz > memory {
            groups.push(std::mem::take(&mut cur));
            cur_bytes = 0;
        }
        cur.push(b);
        cur_bytes += sz;
    }
    if !cur.is_empty() {
        groups.push(cur);
    }
    groups
}

/// Execute a Grace hash-join.
pub fn run(machine: &mut Machine, rz: &Resolved) -> DriverOutput {
    let buckets = rz.buckets;
    let disk_nodes = machine.disk_nodes();
    let mut part = PartitioningSplitTable::grace(&disk_nodes, buckets);
    let mut phases = Vec::new();
    let mut sink = ResultSink::new(machine);

    // Phases 1+2: bucket-form both relations (everything goes to disk).
    // With the §4.2/§5 extension on, per-bucket filters built from R kill
    // non-joining S tuples before they are ever spooled.
    let mut form = rz
        .filter_bucket_forming
        .then(|| bucket_filters(machine, buckets, GRACE_SALT));
    // Refinement samples only the inner relation's distribution; the S
    // pass then routes through the same (possibly refined) table so
    // matching tuples stay co-located.
    let r_files = bucket_form(
        machine,
        &mut phases,
        &mut sink,
        &mut part,
        &rz.r_fragments,
        rz.r_attr,
        rz.r_pred,
        buckets,
        "bucket-form R",
        match &mut form {
            Some(f) => FormFilters::Build(f),
            None => FormFilters::Off,
        },
        rz.skew_refinement,
    );
    let s_files = bucket_form(
        machine,
        &mut phases,
        &mut sink,
        &mut part,
        &rz.s_fragments,
        rz.s_attr,
        rz.s_pred,
        buckets,
        "bucket-form S",
        match &form {
            Some(f) => FormFilters::Test(f),
            None => FormFilters::Off,
        },
        false,
    );

    // Phase 3: join the buckets consecutively — grouped by measured size
    // when bucket tuning is on, one bucket per round otherwise.
    let groups: Vec<Vec<usize>> = if rz.bucket_tuning {
        tune_buckets(machine, rz, &r_files, buckets)
    } else {
        (1..=buckets).map(|b| vec![b]).collect()
    };
    let mut overflow_passes = 0;
    let mut bnl = false;
    for group in &groups {
        let r_g: Vec<Vec<FileId>> = (0..disk_nodes.len())
            .map(|n| group.iter().map(|&b| r_files[n][b - 1]).collect())
            .collect();
        let s_g: Vec<Vec<FileId>> = (0..disk_nodes.len())
            .map(|n| group.iter().map(|&b| s_files[n][b - 1]).collect())
            .collect();
        let label = if group.len() == 1 {
            group[0].to_string()
        } else {
            format!("{}..{}", group[0], group[group.len() - 1])
        };
        let (p, f) = join_bucket_group(
            machine,
            rz,
            &mut phases,
            &mut sink,
            &r_g,
            &s_g,
            &label,
            GRACE_SALT.wrapping_add(group[0] as u64),
        );
        overflow_passes += p;
        bnl |= f;
    }

    let last = phases.last_mut().expect("phases exist");
    let result = sink.finish(machine, &mut last.ledgers);
    // The store's final page flushes landed after the phase sealed;
    // refresh the queue-wait annotation so the recorded waits cover the
    // final request log (replay drains the same log when timing the phase).
    for u in last.ledgers.iter_mut() {
        u.annotate_queue_waits();
    }
    DriverOutput {
        phases,
        result,
        buckets,
        overflow_passes,
        bnl_fallback: bnl,
    }
}
