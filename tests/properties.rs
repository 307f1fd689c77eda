//! Property-based tests over the whole stack.
//!
//! These use hand-rolled deterministic case generators (the offline
//! `rand` stub, fixed seeds) instead of proptest, which cannot be
//! fetched in this environment. Each property runs a fixed number of
//! randomized cases plus targeted edge cases; failures print the case
//! seed so a case can be replayed in isolation.

use rand::prelude::*;

use gamma_core::checksum::{checksum_concat, multiset_checksum};
use gamma_core::hash::{hash_u32, JOIN_SEED};
use gamma_core::machine::{Declustering, MachineConfig};
use gamma_core::query::{Algorithm, JoinSpec, OverflowPolicy};
use gamma_core::tuple::Field;
use gamma_core::{run_join, Machine, Schema};
use gamma_des::{fifo_drain, Request, SharedServer, SimTime, Usage};
use gamma_wiss::{
    external_sort, BufferPool, DiskConfig, HeapScan, HeapWriter, SortConfig, SortCost, Volume,
};

/// Deterministic per-property case stream: property name -> base seed,
/// case index -> derived rng.
fn case_rng(property: &str, case: u64) -> StdRng {
    let mut seed = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
    for b in property.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn vec_u32(rng: &mut StdRng, max_len: usize, hi: u32) -> Vec<u32> {
    let len = rng.gen_range(0..max_len + 1);
    (0..len).map(|_| rng.gen_range(0..hi)).collect()
}

fn pad_schema() -> Schema {
    Schema::new(vec![Field::Int("k".into()), Field::Str("pad".into(), 28)])
}

fn mk_tuple(k: u32) -> Vec<u8> {
    let mut t = vec![0u8; 32];
    t[0..4].copy_from_slice(&k.to_le_bytes());
    t
}

/// Reference join over raw key multisets, with the engine's composition
/// convention (inner ‖ outer) and checksum.
fn model_join(inner: &[u32], outer: &[u32]) -> (u64, u64) {
    let mut tuples = 0u64;
    let mut checksum = 0u64;
    for &s in outer {
        for &r in inner {
            if r == s {
                tuples += 1;
                checksum = checksum_concat(checksum, &mk_tuple(r), &mk_tuple(s));
            }
        }
    }
    (tuples, checksum)
}

/// The flagship property: any of the four parallel algorithms, on any
/// random multiset of keys (duplicates included), at any memory
/// pressure, local or remote, filtered or not, produces exactly the
/// model join's result multiset.
#[test]
fn parallel_joins_equal_model_join() {
    for case in 0..24u64 {
        let mut rng = case_rng("parallel_joins_equal_model_join", case);
        let inner = vec_u32(&mut rng, 400, 500);
        let outer = vec_u32(&mut rng, 800, 500);
        let algorithm = Algorithm::ALL[rng.gen_range(0usize..4)];
        let mem_div = rng.gen_range(1u64..30);
        let remote = rng.gen_bool(0.5);
        let filter = rng.gen_bool(0.5);
        let optimistic = rng.gen_bool(0.5);

        let cfg = if remote && algorithm != Algorithm::SortMerge {
            MachineConfig::remote_8_plus_8()
        } else {
            MachineConfig::local_8()
        };
        let mut machine = Machine::new(cfg);
        let schema = pad_schema();
        let attr = schema.int_attr("k");
        let r = machine.load_relation(
            "r",
            schema.clone(),
            Declustering::Hashed { attr },
            inner.iter().map(|&k| mk_tuple(k)).collect::<Vec<_>>(),
        );
        let s = machine.load_relation(
            "s",
            schema.clone(),
            Declustering::Hashed { attr },
            outer.iter().map(|&k| mk_tuple(k)).collect::<Vec<_>>(),
        );
        let inner_bytes = machine.relation(r).data_bytes.max(32);
        let mut spec = JoinSpec::new(algorithm, r, s, attr, attr, (inner_bytes / mem_div).max(1));
        if remote && algorithm != Algorithm::SortMerge {
            spec.site = gamma_core::JoinSite::Remote;
        }
        spec.bit_filter = filter;
        if optimistic {
            spec.overflow_policy = OverflowPolicy::Optimistic;
        }
        let report = run_join(&mut machine, &spec);
        let (tuples, checksum) = model_join(&inner, &outer);
        assert_eq!(report.result_tuples, tuples, "case {case}: cardinality");
        assert_eq!(report.result_checksum, checksum, "case {case}: contents");
    }
}

/// The result checksum, on random records of every length: the same
/// wherever a record is split in two (the oracle and [`model_join`] hash
/// `r ‖ s` as two slices, the engine's store path as one), changed by any
/// changed, moved, added or removed byte, and independent of record order.
#[test]
fn checksum_is_split_invariant_content_sensitive_and_order_free() {
    let hash = |rec: &[u8]| multiset_checksum(0, rec);
    let mut seen = std::collections::HashSet::new();
    for case in 0..200u64 {
        let mut rng = case_rng("checksum_properties", case);
        let len = rng.gen_range(0usize..600);
        let rec: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let whole = hash(&rec);
        assert!(
            seen.insert(whole),
            "case {case}: collides with an earlier record"
        );
        let split = rng.gen_range(0..len + 1);
        assert_eq!(
            checksum_concat(0, &rec[..split], &rec[split..]),
            whole,
            "case {case}: split at {split} of {len}"
        );
        let mut longer = rec.clone();
        longer.push(0);
        assert_ne!(hash(&longer), whole, "case {case}: appended zero");
        if len == 0 {
            continue;
        }
        assert_ne!(hash(&rec[1..]), whole, "case {case}: dropped first byte");
        let i = rng.gen_range(0..len);
        let mut changed = rec.clone();
        changed[i] ^= 1 << rng.gen_range(0u32..8);
        assert_ne!(hash(&changed), whole, "case {case}: bit flip in byte {i}");
        let j = rng.gen_range(0..len);
        if rec[i] != rec[j] {
            let mut moved = rec.clone();
            moved.swap(i, j);
            assert_ne!(
                hash(&moved),
                whole,
                "case {case}: bytes {i} and {j} swapped"
            );
        }
    }
    let tuples: Vec<Vec<u8>> = (0..300).map(mk_tuple).collect();
    let forward = tuples.iter().fold(0, |acc, t| multiset_checksum(acc, t));
    let backward = tuples
        .iter()
        .rev()
        .fold(0, |acc, t| multiset_checksum(acc, t));
    assert_eq!(forward, backward);
    let one_missing = tuples[1..]
        .iter()
        .fold(0, |acc, t| multiset_checksum(acc, t));
    assert_ne!(one_missing, forward);
}

/// External sort returns a sorted permutation of its input for any
/// record multiset and any (tiny) memory budget.
#[test]
fn external_sort_sorts_permutations() {
    for case in 0..24u64 {
        let mut rng = case_rng("external_sort_sorts_permutations", case);
        let keys = vec_u32(&mut rng, 600, 10_000);
        let mem_kb = rng.gen_range(1u64..64);

        let mut vol = Volume::new();
        let mut pool = BufferPool::new(DiskConfig::fujitsu_8inch(), 4);
        let mut u = Usage::ZERO;
        let mut w = HeapWriter::create(&mut vol, 8192);
        for &k in &keys {
            w.push(&mut vol, &mut pool, &mut u, &mk_tuple(k));
        }
        let input = w.finish(&mut vol, &mut pool, &mut u);
        let cfg = SortConfig {
            mem_bytes: mem_kb * 1024,
            page_bytes: 8192,
        };
        let key = |rec: &[u8]| u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let (out, stats) = external_sort(
            &mut vol,
            &mut pool,
            input,
            &key,
            cfg,
            &SortCost::default(),
            &mut u,
        );
        let got: Vec<u32> = HeapScan::open(&vol, out)
            .collect_all(&mut pool, &mut u)
            .iter()
            .map(|r| key(r))
            .collect();
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}: not a sorted permutation");
        assert_eq!(stats.records as usize, keys.len(), "case {case}");
    }
}

/// Appendix A alignment law: for any disk count and bucket count, a
/// tuple whose home node is `h mod D` is routed back to its home node
/// by the Grace partitioning split table.
#[test]
fn grace_split_tables_preserve_locality() {
    use gamma_core::split::{PartitioningSplitTable, Route};
    for case in 0..200u64 {
        let mut rng = case_rng("grace_split_tables_preserve_locality", case);
        let disks = rng.gen_range(1usize..12);
        let buckets = rng.gen_range(1usize..12);
        let h = rng.next_u64();
        let nodes: Vec<usize> = (0..disks).collect();
        let t = PartitioningSplitTable::grace(&nodes, buckets);
        match t.route(h) {
            Route::Spool { node, .. } => {
                assert_eq!(node, (h % disks as u64) as usize, "case {case}")
            }
            Route::Join { .. } => panic!("case {case}: grace tables never route to join"),
        }
    }
}

/// The bucket analyzer always terminates with a bucket count whose
/// split table lets every bucket reach every join node.
#[test]
fn bucket_analyzer_guarantees_coverage() {
    use gamma_core::split::{bucket_analyzer, JoiningSplitTable, PartitioningSplitTable, Route};
    for case in 0..48u64 {
        let mut rng = case_rng("bucket_analyzer_guarantees_coverage", case);
        let disks = rng.gen_range(1usize..7);
        let joins = rng.gen_range(1usize..9);
        let min_buckets = rng.gen_range(1usize..6);
        let grace = rng.gen_bool(0.5);

        let n = bucket_analyzer(grace, disks, joins, min_buckets);
        assert!(n >= min_buckets, "case {case}");
        let disk_nodes: Vec<usize> = (0..disks).collect();
        let join_nodes: Vec<usize> = (100..100 + joins).collect();
        let part = if grace {
            PartitioningSplitTable::grace(&disk_nodes, n)
        } else {
            PartitioningSplitTable::hybrid(&join_nodes, &disk_nodes, n)
        };
        let jt = JoiningSplitTable::new(join_nodes.clone());
        // Per-bucket join-node coverage under re-splitting.
        let mut cov: std::collections::HashMap<usize, std::collections::HashSet<usize>> =
            Default::default();
        for h in 0..20_000u64 {
            if let Route::Spool { bucket, .. } = part.route(h) {
                cov.entry(bucket).or_default().insert(jt.route(h));
            }
        }
        // Single bucket with disks <= joins is the analyzer's fast path; it
        // has no spooled buckets for hybrid.
        for (bucket, reached) in cov {
            assert_eq!(
                reached.len(),
                joins,
                "case {case}: bucket {bucket} starves with N={n} D={disks} J={joins} grace={grace}"
            );
        }
    }
}

/// Skew-aware refinement partitions the full hash range exactly once:
/// the refined table owns every residue class `mod entries × expand`
/// through exactly one entry, cold base classes keep their destination
/// bit-for-bit, and hot classes are only dealt across destinations the
/// base table already used (so no tuple can reach a node the query never
/// scheduled).
#[test]
fn refined_split_tables_cover_the_hash_range_exactly_once() {
    use gamma_core::split::{PartitioningSplitTable, RefineCfg};
    for case in 0..120u64 {
        let mut rng = case_rng(
            "refined_split_tables_cover_the_hash_range_exactly_once",
            case,
        );
        let disks = rng.gen_range(1usize..8);
        let joins = rng.gen_range(1usize..8);
        let buckets = rng.gen_range(1usize..6);
        let grace = rng.gen_bool(0.5);
        let disk_nodes: Vec<usize> = (0..disks).collect();
        let join_nodes: Vec<usize> = (100..100 + joins).collect();
        let base = if grace {
            PartitioningSplitTable::grace(&disk_nodes, buckets)
        } else {
            PartitioningSplitTable::hybrid(&join_nodes, &disk_nodes, buckets)
        };
        let e = base.entries();

        // A uniform histogram must not refine: the common case pays for
        // nothing.
        let cfg = RefineCfg::default();
        assert!(
            base.refine(&vec![10u64; e], &cfg).is_none(),
            "case {case}: uniform histogram refined"
        );

        // Now overload a random cell against light random noise. Tables
        // with fewer than three entries can never refine under the 2×
        // default threshold: one entry is always exactly the mean, and
        // of two entries even the one holding *everything* is exactly
        // twice the mean, never strictly above.
        let mut hist: Vec<u64> = (0..e).map(|_| rng.gen_range(0..4u64)).collect();
        let hot_cell = rng.gen_range(0..e);
        hist[hot_cell] += 64 * e as u64;
        if e < 3 {
            assert!(base.refine(&hist, &cfg).is_none(), "case {case}");
            continue;
        }
        let refined = base
            .refine(&hist, &cfg)
            .expect("a cell 64× the mean is hot");
        let m = refined.entries();
        assert_eq!(m, e * cfg.expand, "case {case}: refined size");

        // Destination pools of the base table, for legality checks.
        let join_pool: std::collections::HashSet<_> = base
            .raw()
            .iter()
            .zip(base.raw_join_sites())
            .filter(|(_, js)| js.is_some())
            .map(|(en, js)| (en.node, js.unwrap()))
            .collect();
        let spool_pool: std::collections::HashSet<_> = base
            .raw()
            .iter()
            .zip(base.raw_join_sites())
            .filter(|(_, js)| js.is_none())
            .map(|(en, _)| (en.node, en.bucket))
            .collect();

        // Walk the refined entries in residue order: every residue class
        // `mod m` is owned by exactly one entry (the table *is* the
        // partition), cold classes are bit-for-bit the base entry, and
        // hot sub-ranges stay inside the base destination pools.
        assert_eq!(refined.raw().len(), m, "case {case}");
        assert_eq!(refined.raw_join_sites().len(), m, "case {case}");
        for (j, (&en, &js)) in refined
            .raw()
            .iter()
            .zip(refined.raw_join_sites())
            .enumerate()
        {
            let c = j % e;
            if c != hot_cell {
                assert_eq!(en, base.raw()[c], "case {case}: cold entry {j}");
                assert_eq!(js, base.raw_join_sites()[c], "case {case}: cold site {j}");
            } else if let Some(site) = js {
                assert!(
                    join_pool.contains(&(en.node, site)),
                    "case {case}: hot entry {j} routed outside the join pool"
                );
            } else {
                assert!(
                    spool_pool.contains(&(en.node, en.bucket)),
                    "case {case}: hot entry {j} routed outside the spool pool"
                );
            }
        }

        // The partition extends to the whole 64-bit hash range: any h is
        // routed exactly as its residue class, and equal hashes (equal
        // keys) always land together — the co-location hash join needs.
        for _ in 0..64 {
            let h = rng.next_u64();
            assert_eq!(refined.route(h), refined.route(h % m as u64), "case {case}");
        }
    }
}

/// Bit filters never produce false negatives.
#[test]
fn bit_filter_no_false_negatives() {
    use gamma_core::bitfilter::BitFilter;
    for case in 0..48u64 {
        let mut rng = case_rng("bit_filter_no_false_negatives", case);
        let len = rng.gen_range(0usize..300);
        let members: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
        let bits = rng.gen_range(64u64..4096);
        let salt = rng.next_u64();
        let mut f = BitFilter::new(bits, salt);
        for &m in &members {
            f.set(m);
        }
        for &m in &members {
            assert!(f.test(m), "case {case}: false negative for {m}");
        }
    }
}

/// Fabric conservation: every packet sent is received exactly once,
/// and short-circuited messages never touch the ring.
#[test]
fn fabric_conserves_packets() {
    use gamma_net::{Fabric, RingConfig};
    for case in 0..48u64 {
        let mut rng = case_rng("fabric_conserves_packets", case);
        let len = rng.gen_range(0usize..300);
        let sends: Vec<(usize, usize, u64)> = (0..len)
            .map(|_| {
                (
                    rng.gen_range(0usize..4),
                    rng.gen_range(0usize..4),
                    rng.gen_range(1u64..2048),
                )
            })
            .collect();
        let mut f = Fabric::new(RingConfig::gamma_1989(), 4);
        let mut u = vec![Usage::ZERO; 4];
        for &(src, dst, bytes) in &sends {
            f.send_tuple(&mut u, src, dst, bytes);
        }
        f.flush(&mut u);
        assert!(f.is_drained(), "case {case}");
        let sent: u64 = u.iter().map(|x| x.counts.packets_sent).sum();
        let recv: u64 = u.iter().map(|x| x.counts.packets_recv).sum();
        assert_eq!(sent, recv, "case {case}: packet conservation");
        let local_bytes: u64 = u.iter().map(|x| x.ring_bytes).sum();
        let remote_payload: u64 = sends
            .iter()
            .filter(|(s, d, _)| s != d)
            .map(|&(_, _, b)| b)
            .sum();
        assert_eq!(local_bytes, remote_payload, "case {case}: ring bytes");
    }
}

/// Heap files round-trip any batch of variable-length records.
#[test]
fn heap_file_roundtrip() {
    for case in 0..24u64 {
        let mut rng = case_rng("heap_file_roundtrip", case);
        let n = rng.gen_range(0usize..200);
        let recs: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = rng.gen_range(1usize..300);
                (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
            })
            .collect();
        let mut vol = Volume::new();
        let mut pool = BufferPool::new(DiskConfig::fujitsu_8inch(), 4);
        let mut u = Usage::ZERO;
        let mut w = HeapWriter::create(&mut vol, 8192);
        for r in &recs {
            w.push(&mut vol, &mut pool, &mut u, r);
        }
        let f = w.finish(&mut vol, &mut pool, &mut u);
        let got = HeapScan::open(&vol, f).collect_all(&mut pool, &mut u);
        assert_eq!(got, recs, "case {case}");
    }
}

/// Random issue-ordered device request log, mimicking what a ledger
/// produces: issue offsets are the node's monotone CPU progress.
fn random_request_log(rng: &mut StdRng, max_len: usize) -> Vec<Request> {
    let len = rng.gen_range(0..max_len + 1);
    let mut issue = 0u64;
    (0..len)
        .map(|_| {
            issue += rng.gen_range(0u64..30);
            Request {
                issue: SimTime::from_us(issue),
                service: SimTime::from_us(rng.gen_range(1u64..25)),
            }
        })
        .collect()
}

/// The event-kernel FIFO drain agrees with the analytic single-server
/// recurrence on any issue-ordered log, serves strictly in order, never
/// idles while a request is pending, and is work-conserving (busy + idle
/// exactly partitions `[0, completion]`).
#[test]
fn fifo_queue_is_work_conserving_and_never_idles_with_backlog() {
    for case in 0..64u64 {
        let mut rng = case_rng(
            "fifo_queue_is_work_conserving_and_never_idles_with_backlog",
            case,
        );
        let log = random_request_log(&mut rng, 48);
        let drained = fifo_drain(&log);

        // Reference recurrence: start = max(issue, previous completion).
        let mut prev = SimTime::ZERO;
        let mut wait = SimTime::ZERO;
        let mut max_wait = SimTime::ZERO;
        let mut service = SimTime::ZERO;
        let mut idle = SimTime::ZERO;
        for r in &log {
            let start = prev.max(r.issue);
            if start > prev {
                // The server went idle — legal only because nothing was
                // pending (the next request had not been issued yet).
                assert!(r.issue > prev, "case {case}: idled with a pending request");
                idle += start - prev;
            }
            wait += start - r.issue;
            max_wait = max_wait.max(start - r.issue);
            service += r.service;
            prev = start + r.service;
        }
        assert_eq!(drained.completion, prev, "case {case}: completion");
        assert_eq!(drained.wait, wait, "case {case}: total wait");
        assert_eq!(drained.max_wait, max_wait, "case {case}: max wait");
        assert_eq!(drained.service, service, "case {case}: service sum");
        assert_eq!(drained.requests, log.len() as u64, "case {case}: count");
        // Work conservation: every instant up to completion is either
        // service or a provably-empty-queue idle gap.
        assert_eq!(
            drained.completion,
            service + idle,
            "case {case}: work conservation"
        );

        // A fresh SharedServer fed the same log at its issue offsets is the
        // same queue, and FIFO completions come back in submission order.
        let mut server = SharedServer::new();
        let mut last_done = SimTime::ZERO;
        for r in &log {
            let done = server.submit(r.issue, r.service);
            assert!(done >= last_done, "case {case}: completions out of order");
            last_done = done;
        }
        assert_eq!(server.stats(), drained, "case {case}: shared vs drain");
        assert_eq!(server.free_at(), drained.completion, "case {case}: free_at");
    }
}

/// A `SharedServer` fed several phases' logs at absolute arrival times is
/// exactly one FIFO drain of the merged log — and the backlog it carries
/// across phase boundaries can only add waiting relative to draining each
/// phase on a fresh (idle-at-phase-start) server.
#[test]
fn shared_server_drains_multi_phase_logs_like_one_merged_log() {
    for case in 0..64u64 {
        let mut rng = case_rng(
            "shared_server_drains_multi_phase_logs_like_one_merged_log",
            case,
        );
        let phases = rng.gen_range(1usize..6);
        let mut server = SharedServer::new();
        let mut merged: Vec<Request> = Vec::new();
        let mut isolated_wait = SimTime::ZERO;
        let mut clock = 0u64; // last absolute arrival submitted
        for _ in 0..phases {
            let phase_start = clock + rng.gen_range(0u64..80);
            let log = random_request_log(&mut rng, 16);
            isolated_wait += fifo_drain(&log).wait;
            for r in &log {
                let arrival = phase_start + r.issue.as_us();
                merged.push(Request {
                    issue: SimTime::from_us(arrival),
                    service: r.service,
                });
                server.submit(SimTime::from_us(arrival), r.service);
                clock = arrival;
            }
        }
        let drained = fifo_drain(&merged);
        assert_eq!(
            server.stats(),
            drained,
            "case {case}: shared vs merged drain"
        );
        assert_eq!(server.free_at(), drained.completion, "case {case}: free_at");
        // Cross-phase backlog is monotone: a server that may still be busy
        // at a phase boundary waits at least as long as per-phase drains
        // that start idle.
        assert!(
            server.stats().wait >= isolated_wait,
            "case {case}: carried backlog reduced waiting ({} < {isolated_wait})",
            server.stats().wait
        );
    }
}

/// The randomizing hash is stable across moduli as Appendix A requires:
/// `(h mod k·d) mod d == h mod d` for all tuples and table sizes.
#[test]
fn hash_mod_alignment() {
    for case in 0..500u64 {
        let mut rng = case_rng("hash_mod_alignment", case);
        let v = rng.next_u32();
        let d = rng.gen_range(1u64..16);
        let k = rng.gen_range(1u64..16);
        let h = hash_u32(JOIN_SEED, v);
        assert_eq!((h % (k * d)) % d, h % d, "case {case}");
    }
}
