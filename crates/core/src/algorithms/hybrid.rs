//! Parallel Hybrid hash-join (§3.4).
//!
//! Like Grace, the relations are split into `N` buckets through the
//! Appendix A partitioning split table — but bucket 1 never touches disk:
//! its entries route straight to the join processes, so partitioning R
//! overlaps with building the first hash table and partitioning S overlaps
//! with probing it. Buckets 2..N are spooled to disk exactly like Grace's
//! and joined consecutively afterwards. When the optimizer runs the
//! algorithm "optimistically" (fewer buckets than the memory ratio
//! requires, Figure 7), bucket 1 overflows and the Simple-hash machinery
//! resolves it.

use gamma_wiss::FileId;

use crate::batch::TupleBatch;
use crate::bitfilter::BitFilter;
use crate::exec::control::{broadcast_filters, dispatch_overhead};
use crate::exec::hash::{
    resolve_overflows, resolve_overflows_robust, restore_spills, tag, take_overflows, Consumers,
    OverflowEnv, TAG_BUCKET, TAG_BUILD, TAG_PROBE, TAG_SPOOL_S,
};
use crate::exec::{run_step, scan};
use crate::hash::{hash_u32, JOIN_SEED};
use crate::machine::{Machine, ResultSink};
use crate::report::{DriverOutput, PhaseRecord};
use crate::split::{PartitioningSplitTable, RefineCfg, Route};

use super::common::Resolved;
use super::grace::{bucket_filters, join_bucket};

/// Filter-salt namespace for Hybrid.
const HYBRID_SALT: u64 = 0x4B;

/// Execute a Hybrid hash-join.
pub fn run(machine: &mut Machine, rz: &Resolved) -> DriverOutput {
    let buckets = rz.buckets;
    let disk_nodes = machine.disk_nodes();
    let mut part = PartitioningSplitTable::hybrid(&rz.join_nodes, &disk_nodes, buckets);
    let mut phases = Vec::new();
    let mut sink = ResultSink::new(machine);

    let mut consumers = Consumers::new(machine);
    let sites = consumers.install_sites(
        machine,
        &rz.join_nodes,
        rz.capacity_per_site,
        rz.r_tuple_bytes,
        0,
        rz.filter_bits,
        HYBRID_SALT,
        rz.r_attr,
        rz.s_attr,
    );

    // Per-bucket filters for the spooled buckets when the §4.2/§5
    // bucket-forming extension is on (bucket 1 is covered by the join
    // sites' own filters).
    let mut form_filters = rz
        .filter_bucket_forming
        .then(|| bucket_filters(machine, buckets, HYBRID_SALT));

    // ---- Phase 1: partition R into buckets, overlapped with building
    // bucket 1's hash tables. ----
    let mut ledgers = machine.ledgers();
    gamma_trace::emit(
        rz.join_nodes[0] as u16,
        0,
        gamma_trace::EventKind::BucketOpen { bucket: 1 },
    );
    consumers.open_buckets(machine, 2, buckets);
    // Building producers each fill a private filter shard; the shards are
    // OR-folded below (commutative, so worker scheduling cannot matter).
    let shard_proto: Option<Vec<BitFilter>> = form_filters.clone();
    if rz.skew_refinement {
        // ---- Wave A: sample. Scan each fragment, hash every tuple, and
        // build a per-split-table-entry histogram. The scanned records stay
        // resident on the scan node so wave B can route them without a
        // second disk pass; the extra cost is one histogram update per
        // tuple plus the refined-table re-broadcast. ----
        let e = part.entries();
        type SampleState = (FileId, TupleBatch, Vec<(u32, u64)>, Vec<u64>);
        // Held tuples + their (value, hash) pairs + this node's filter shards.
        type RouteState = (TupleBatch, Vec<(u32, u64)>, Option<Vec<BitFilter>>);
        let mut sample_states: Vec<SampleState> = disk_nodes
            .iter()
            .map(|&n| {
                (
                    rz.r_fragments[n],
                    TupleBatch::new(),
                    Vec::new(),
                    vec![0u64; e],
                )
            })
            .collect();
        run_step(
            machine,
            &mut ledgers,
            "sample R",
            &disk_nodes,
            &mut sample_states,
            |ctx, (file, recs, hashed, hist)| {
                *recs = scan::scan_fragment(ctx, *file, rz.r_pred);
                *hashed = ctx.par_map_batch(recs, |rec| {
                    let val = rz.r_attr.get(rec);
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
            part = refined;
        }
        // ---- Wave B: route the held records through the (possibly
        // refined) table. Hashes were computed in wave A. ----
        let mut route_states: Vec<RouteState> = sample_states
            .into_iter()
            .map(|(_, recs, hashed, _)| (recs, hashed, shard_proto.clone()))
            .collect();
        {
            let part = &part;
            run_step(
                machine,
                &mut ledgers,
                "partition R",
                &disk_nodes,
                &mut route_states,
                |ctx, (recs, hashed, shard)| {
                    let batch = std::mem::take(recs);
                    for (rec, (val, h)) in batch.iter().zip(hashed.iter()) {
                        ctx.charge(ctx.cost.route_us);
                        match part.route(*h) {
                            Route::Join { node: dst } => {
                                let i = part.join_site_index(*h);
                                ctx.send(dst, tag(TAG_BUILD, i), rec);
                            }
                            Route::Spool { node: dst, bucket } => {
                                if let Some(shard) = shard {
                                    ctx.charge(ctx.cost.filter_set_us);
                                    shard[bucket - 1].set(*val);
                                }
                                ctx.send(dst, tag(TAG_BUCKET, bucket), rec);
                            }
                        }
                    }
                },
            );
        }
        if let Some(main) = &mut form_filters {
            for (_, _, shard) in &route_states {
                for (m, s) in main.iter_mut().zip(shard.as_ref().expect("build shard")) {
                    m.or_with(s);
                }
            }
        }
    } else {
        let mut r_states: Vec<(FileId, Option<Vec<BitFilter>>)> = disk_nodes
            .iter()
            .map(|&n| (rz.r_fragments[n], shard_proto.clone()))
            .collect();
        {
            let part = &part;
            run_step(
                machine,
                &mut ledgers,
                "partition R",
                &disk_nodes,
                &mut r_states,
                |ctx, (file, shard)| {
                    let recs = scan::scan_fragment(ctx, *file, rz.r_pred);
                    // Pure per-tuple hashing, chunked on the pool; charges,
                    // filter updates and sends replay in record order below.
                    let routed = ctx.par_map_batch(&recs, |rec| {
                        let val = rz.r_attr.get(rec);
                        (val, hash_u32(JOIN_SEED, val))
                    });
                    for (rec, (val, h)) in recs.iter().zip(routed) {
                        ctx.charge(ctx.cost.hash_us + ctx.cost.route_us);
                        match part.route(h) {
                            Route::Join { node: dst } => {
                                let i = part.join_site_index(h);
                                ctx.send(dst, tag(TAG_BUILD, i), rec);
                            }
                            Route::Spool { node: dst, bucket } => {
                                if let Some(shard) = shard {
                                    ctx.charge(ctx.cost.filter_set_us);
                                    shard[bucket - 1].set(val);
                                }
                                ctx.send(dst, tag(TAG_BUCKET, bucket), rec);
                            }
                        }
                    }
                },
            );
        }
        if let Some(main) = &mut form_filters {
            for (_, shard) in &r_states {
                for (m, s) in main.iter_mut().zip(shard.as_ref().expect("build shard")) {
                    m.or_with(s);
                }
            }
        }
    }
    consumers.settle(machine, &mut ledgers, &mut sink);
    if rz.dynamic_spill {
        // The build side has settled: read each overflowed site's R' spool
        // back, raise its table cutoff as far as the freed slack allows,
        // and re-admit the restorable band. Only the residue stays spilled.
        restore_spills(machine, &mut ledgers, &mut consumers, &sites, &mut sink);
    }
    let r_files = consumers.close_buckets(machine, &mut ledgers);
    let table_bytes = machine.cfg.cost.split_table_bytes(part.entries());
    let mut sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, table_bytes);
    sched += dispatch_overhead(machine, &mut ledgers, &rz.join_nodes, table_bytes);
    phases.push(PhaseRecord::new(
        "partition R / build bucket 1",
        ledgers,
        sched,
    ));

    // ---- Phase 2: partition S, overlapped with probing bucket 1. ----
    let mut ledgers = machine.ledgers();
    broadcast_filters(machine, &mut ledgers, &sites);
    if let Some(filters) = &form_filters {
        // Broadcast the per-bucket filter packets to the scanning nodes.
        let bytes = machine.cfg.cost.filter_packet_bytes * filters.len() as u64;
        for &n in &disk_nodes {
            machine.fabric.scheduler_control(&mut ledgers[n], n, bytes);
        }
    }
    consumers.open_buckets(machine, 2, buckets);
    let snap = consumers.probe_snapshot(&sites);
    let mut s_states: Vec<FileId> = disk_nodes.iter().map(|&n| rz.s_fragments[n]).collect();
    {
        let part = &part;
        let sites = &sites;
        let snap = &snap;
        let form_filters = form_filters.as_deref();
        run_step(
            machine,
            &mut ledgers,
            "partition S",
            &disk_nodes,
            &mut s_states,
            |ctx, f| {
                let recs = scan::scan_fragment(ctx, *f, rz.s_pred);
                let routed = ctx.par_map_batch(&recs, |rec| {
                    let val = rz.s_attr.get(rec);
                    (val, hash_u32(JOIN_SEED, val))
                });
                for (rec, (val, h)) in recs.iter().zip(routed) {
                    ctx.charge(ctx.cost.hash_us + ctx.cost.route_us);
                    match part.route(h) {
                        Route::Join { node: dst } => {
                            let i = part.join_site_index(h);
                            // Filter before the overflow check — safe because
                            // filter bits are set for every arriving inner
                            // tuple.
                            if snap.filter_drops(ctx, i, val) {
                                // dropped at the source
                            } else if snap.outer_diverts(i, val) {
                                ctx.send(sites.home(i), tag(TAG_SPOOL_S, i), rec);
                            } else {
                                ctx.send(dst, tag(TAG_PROBE, i), rec);
                            }
                        }
                        Route::Spool { node: dst, bucket } => {
                            if let Some(filters) = form_filters {
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
                    }
                }
            },
        );
    }
    consumers.settle(machine, &mut ledgers, &mut sink);
    let s_files = consumers.close_buckets(machine, &mut ledgers);
    let pairs = take_overflows(machine, &mut ledgers, &mut consumers, &sites);
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, table_bytes);
    gamma_trace::emit(
        rz.join_nodes[0] as u16,
        ledgers[rz.join_nodes[0]].total_demand().as_us(),
        gamma_trace::EventKind::BucketClose { bucket: 1 },
    );
    phases.push(PhaseRecord::new(
        "partition S / probe bucket 1",
        ledgers,
        sched,
    ));

    // ---- Bucket 1 overflow (the Figure 7 "optimistic" path). ----
    let env = OverflowEnv {
        join_nodes: &rz.join_nodes,
        capacity_per_site: rz.capacity_per_site,
        tuple_bytes: rz.r_tuple_bytes,
        r_attr: rz.r_attr,
        s_attr: rz.s_attr,
        filter_bits: rz.filter_bits,
        filter_salt: HYBRID_SALT.wrapping_add(0x99),
    };
    let stats = if rz.dynamic_spill {
        resolve_overflows_robust(machine, &env, pairs, &mut sink, &mut phases, "bucket 1 ")
    } else {
        resolve_overflows(machine, &env, pairs, 1, &mut sink, &mut phases, "bucket 1 ")
    };
    let mut overflow_passes = stats.passes;
    let mut bnl = stats.bnl_fallback;

    // ---- Buckets 2..N, joined exactly like Grace buckets. ----
    for b in 2..=buckets {
        let r_b: Vec<FileId> = (0..disk_nodes.len()).map(|n| r_files[n][b - 2]).collect();
        let s_b: Vec<FileId> = (0..disk_nodes.len()).map(|n| s_files[n][b - 2]).collect();
        let (p, f) = join_bucket(
            machine,
            rz,
            &mut phases,
            &mut sink,
            &r_b,
            &s_b,
            b,
            HYBRID_SALT,
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
