//! Kernel drives: host nanoseconds per item of each layer's inner loop,
//! called directly at the workload's own cardinalities, join attribute and
//! per-site memory.
//!
//! Outside spans stop at `run_join`; until the drivers carry spans of
//! their own, these drives are how the benchmark sees inside it. Each
//! kernel is timed [`REPS`] times and reports its median. Beside the
//! per-item time a kernel reports how many *ledger units* (pages, packets,
//! …) the drive charged, so `core.run_join.kernel_coverage` can price a
//! pass's ledger counts with them: the share of `run_join`'s host time the
//! kernels account for, whose complement the in-program spans of a later
//! change must explain.

use std::hint::black_box;
use std::time::Instant;

use gamma_core::bitfilter::BitFilter;
use gamma_core::exec::scan::scan_fragment;
use gamma_core::exec::{run_step, StepCtx};
use gamma_core::hash::{hash_u32, overflow_seed, FILTER_SEED, JOIN_SEED};
use gamma_core::hash_table::JoinHashTable;
use gamma_core::machine::Ledgers;
use gamma_core::split::JoiningSplitTable;
use gamma_core::{run_join_with_phases, Machine, TupleBatch, WorkerPool};
use gamma_des::{compose, fifo_drain, Request, SharedServer, Usage};
use gamma_wiss::{
    external_sort, BufferPool, FileId, HeapScan, HeapWriter, SortConfig, SortStats, Volume,
};

use crate::stats::median_f64;
use crate::workloads::Setup;

/// Timed repetitions per kernel.
const REPS: usize = 5;
/// Stream tag of the exchange drive (drained by the drive itself).
const DRIVE_TAG: u32 = 0x7B << 24;

/// One kernel's result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernel {
    /// Median raw host ns of one drive (the traced run calibrates it).
    pub ns: f64,
    /// Items one drive processes (tuples, requests, phases, jobs).
    pub items: u64,
    /// Ledger units one drive charges (pages, packets); 0 where the item
    /// is itself the ledger unit.
    pub units: u64,
}

impl Kernel {
    /// Host ns per item.
    pub fn ns_per_item(&self) -> f64 {
        self.ns / self.items.max(1) as f64
    }

    /// Host ns per ledger unit.
    pub fn ns_per_unit(&self) -> f64 {
        self.ns / self.units.max(1) as f64
    }
}

/// Every kernel drive of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    pub scan: Kernel,
    pub route: Kernel,
    pub build: Kernel,
    pub probe: Kernel,
    pub probe_matches: u64,
    pub bitfilter: Kernel,
    pub exchange_remote: Kernel,
    pub exchange_local: Kernel,
    pub heap_write: Kernel,
    pub heap_scan: Kernel,
    pub sort: Kernel,
    pub sort_comparisons: u64,
    pub sort_merge_passes: u64,
    /// Pages the sort drive read and wrote (its I/O share, for pricing).
    pub sort_pages: (u64, u64),
    pub fifo: Kernel,
    pub shared: Kernel,
    pub compose: Kernel,
}

/// Time `f` [`REPS`] times; `f` returns `(items, units)`, which repeat.
fn drive(mut f: impl FnMut() -> (u64, u64)) -> Kernel {
    let mut ns = Vec::with_capacity(REPS);
    let mut shape = (0, 0);
    for _ in 0..REPS {
        let t = Instant::now();
        shape = black_box(f());
        ns.push(t.elapsed().as_nanos() as f64);
    }
    Kernel {
        ns: median_f64(&ns),
        items: shape.0,
        units: shape.1,
    }
}

fn total(ledgers: &Ledgers, f: impl Fn(&Usage) -> u64) -> u64 {
    ledgers.iter().map(f).sum()
}

/// Scan every fragment of a relation on its disk node, cold pools.
fn scan_all(machine: &mut Machine, frags: &[FileId]) -> (Vec<TupleBatch>, Ledgers) {
    machine.clear_pools();
    let nodes = machine.disk_nodes();
    let mut ledgers = machine.ledgers();
    let mut files: Vec<FileId> = nodes.iter().map(|&n| frags[n]).collect();
    let batches = run_step(
        machine,
        &mut ledgers,
        "benchmark scan",
        &nodes,
        &mut files,
        |ctx: &mut StepCtx<'_>, f: &mut FileId| scan_fragment(ctx, *f, None),
    );
    (batches, ledgers)
}

/// Send every node's batch through the exchange to `dst(node)` and drain
/// it there: frame + route + deliver. Returns `(tuples, packets)`.
fn exchange(
    machine: &mut Machine,
    batches: &mut [TupleBatch],
    dst: impl Fn(usize) -> usize + Sync,
) -> (u64, u64) {
    let nodes = machine.disk_nodes();
    let mut ledgers = machine.ledgers();
    run_step(
        machine,
        &mut ledgers,
        "benchmark send",
        &nodes,
        batches,
        |ctx: &mut StepCtx<'_>, b: &mut TupleBatch| {
            let to = dst(ctx.node);
            for rec in b.iter() {
                ctx.send(to, DRIVE_TAG, rec);
            }
        },
    );
    let mut sinks = vec![0u64; nodes.len()];
    let got = run_step(
        machine,
        &mut ledgers,
        "benchmark drain",
        &nodes,
        &mut sinks,
        |ctx: &mut StepCtx<'_>, bytes: &mut u64| {
            let drained = ctx.drain();
            for m in drained.iter() {
                *bytes += m.payload.len() as u64;
            }
            drained.len() as u64
        },
    );
    assert!(machine.exchange.is_drained(), "exchange drive left packets");
    black_box(sinks);
    let packets = total(&ledgers, |u| {
        u.counts.packets_sent + u.counts.msgs_shortcircuit
    });
    (got.iter().sum(), packets)
}

/// Run every kernel at `setup`'s first point.
pub fn run(setup: &mut Setup) -> Kernels {
    let spec = setup.points[0].spec.clone();
    let machine = &mut setup.machines[0];
    let cost = machine.cfg.cost.clone();
    let nodes = machine.disk_nodes();
    let r_frags = machine.relation(spec.inner).fragments.clone();
    let s_frags = machine.relation(spec.outer).fragments.clone();
    let tuple_bytes = machine.relation(spec.inner).schema.tuple_bytes() as u64;
    let (r_attr, s_attr) = (spec.inner_attr, spec.outer_attr);
    let headroom = 100 + cost.table_headroom_pct;
    let capacity_per_site = (spec.memory_bytes * headroom / 100 / nodes.len() as u64).max(1);

    // ---- core.scan: the outer relation, all fragments ----
    let scan = drive(|| {
        let (batches, ledgers) = scan_all(machine, &s_frags);
        let tuples = batches.iter().map(|b| b.len() as u64).sum();
        (tuples, total(&ledgers, |u| u.counts.pages_read))
    });
    let (r_batches, _) = scan_all(machine, &r_frags);
    let (mut s_batches, _) = scan_all(machine, &s_frags);

    // ---- core.split: attribute → hash → joining split table ----
    let table = JoiningSplitTable::new(nodes.clone());
    let route = drive(|| {
        let mut hist = vec![0u64; machine.nodes()];
        let mut n = 0;
        for rec in s_batches.iter().flat_map(|b| b.iter()) {
            hist[table.route(hash_u32(JOIN_SEED, s_attr.get(rec)))] += 1;
            n += 1;
        }
        black_box(hist);
        (n, 0)
    });

    // Site 0's share of both relations under that split table.
    let share = |batches: &[TupleBatch], attr: gamma_core::Attr| {
        let mut out = TupleBatch::new();
        for rec in batches.iter().flat_map(|b| b.iter()) {
            if table.route(hash_u32(JOIN_SEED, attr.get(rec))) == nodes[0] {
                out.push(rec);
            }
        }
        out
    };
    let (r0, s0) = (share(&r_batches, r_attr), share(&s_batches, s_attr));

    // ---- core.hash_table: build with this workload's per-site memory
    //      (so a spilling workload drives the clearing heuristic), probe ----
    let build_table = || {
        let mut t = JoinHashTable::new(capacity_per_site, tuple_bytes, overflow_seed(0, 0));
        for rec in r0.iter() {
            black_box(t.offer(r_attr.get(rec), rec, cost.overflow_clear_pct));
        }
        t
    };
    let build = drive(|| {
        black_box(build_table().len());
        (r0.len() as u64, 0)
    });
    let built = build_table();
    let mut probe_matches = 0;
    let probe = drive(|| {
        let mut matches = 0u64;
        for rec in s0.iter() {
            matches += built.probe_ranges(s_attr.get(rec)).0.len() as u64;
        }
        probe_matches = matches;
        (s0.len() as u64, 0)
    });

    // ---- core.bitfilter: set per inner tuple, test per outer tuple ----
    let bits = cost.filter_bits_per_site(nodes.len());
    let bitfilter = drive(|| {
        let mut f = BitFilter::new(bits, FILTER_SEED);
        for rec in r0.iter() {
            f.set(r_attr.get(rec));
        }
        let mut pass = 0u64;
        for rec in s0.iter() {
            pass += u64::from(f.test(s_attr.get(rec)));
        }
        black_box(pass);
        ((r0.len() + s0.len()) as u64, 0)
    });

    // ---- net.exchange: outer relation to the next node / to itself ----
    let n_nodes = nodes.len();
    let exchange_remote = drive(|| exchange(machine, &mut s_batches, |n| (n + 1) % n_nodes));
    let exchange_local = drive(|| exchange(machine, &mut s_batches, |n| n));

    // ---- wiss.heap / wiss.sort: one node's outer fragment ----
    let page_bytes = cost.disk.page_bytes;
    let frag = &s_batches[0];
    let write = |vol: &mut Volume, pool: &mut BufferPool, u: &mut Usage| {
        let mut w = HeapWriter::create(vol, page_bytes);
        for rec in frag.iter() {
            w.push(vol, pool, u, rec);
        }
        w.finish(vol, pool, u)
    };
    let heap_write = drive(|| {
        let mut vol = Volume::new();
        let mut pool = BufferPool::new(cost.disk, cost.pool_frames);
        let mut u = Usage::ZERO;
        black_box(write(&mut vol, &mut pool, &mut u));
        (frag.len() as u64, u.counts.pages_written)
    });
    let mut vol = Volume::new();
    let mut pool = BufferPool::new(cost.disk, cost.pool_frames);
    let mut unmetered = Usage::ZERO;
    let file = write(&mut vol, &mut pool, &mut unmetered);
    let heap_scan = drive(|| {
        pool.clear();
        let mut u = Usage::ZERO;
        let mut scan = HeapScan::open(&vol, file);
        let mut n = 0u64;
        while let Some(rec) = scan.next_ref(&mut pool, &mut u) {
            black_box(rec);
            n += 1;
        }
        (n, u.counts.pages_read)
    });
    let sort_cfg = SortConfig {
        // Sort-merge's own floor: at least two pages of sort space.
        mem_bytes: capacity_per_site.max(page_bytes as u64 * 2),
        page_bytes,
    };
    let key = |rec: &[u8]| s_attr.get(rec);
    let mut sort_stats = SortStats::default();
    let mut sort_pages = (0, 0);
    let sort = drive(|| {
        pool.clear();
        let mut u = Usage::ZERO;
        let (sorted, stats) = external_sort(
            &mut vol, &mut pool, file, &key, sort_cfg, &cost.sort, &mut u,
        );
        vol.delete_file(sorted);
        sort_stats = stats;
        sort_pages = (u.counts.pages_read, u.counts.pages_written);
        (stats.records, 0)
    });

    // ---- des: the first point's own request logs and phases ----
    let (_, phases) = run_join_with_phases(machine, &spec);
    let logs: Vec<&[Request]> = phases
        .iter()
        .flat_map(|p| &p.ledgers)
        .flat_map(|u| [u.reqs.disk.as_slice(), u.reqs.net.as_slice()])
        .filter(|l| !l.is_empty())
        .collect();
    let requests: u64 = logs.iter().map(|l| l.len() as u64).sum();
    let fifo = drive(|| {
        for log in &logs {
            black_box(fifo_drain(log));
        }
        (requests, 0)
    });
    let shared = drive(|| {
        for log in &logs {
            let mut server = SharedServer::new();
            for r in log.iter() {
                black_box(server.submit(r.issue, r.service));
            }
        }
        (requests, 0)
    });
    let bw = cost.ring.bandwidth_bytes_per_sec;
    let compose = drive(|| {
        for p in &phases {
            black_box(compose(&p.ledgers, bw, cost.timing));
        }
        (phases.len() as u64, 0)
    });
    Kernels {
        scan,
        route,
        build,
        probe,
        probe_matches,
        bitfilter,
        exchange_remote,
        exchange_local,
        heap_write,
        heap_scan,
        sort,
        sort_comparisons: sort_stats.comparisons,
        sort_merge_passes: sort_stats.merge_passes,
        sort_pages,
        fifo,
        shared,
        compose,
    }
}

/// `pool2` only: dispatch cost of one trivial job on `pool`.
pub fn pool_dispatch(pool: &WorkerPool) -> Kernel {
    const JOBS: u64 = 4_096;
    drive(|| {
        let out = pool.run_ordered("benchmark dispatch", (0..JOBS).collect(), |_, j| j + 1);
        black_box(out);
        (JOBS, 0)
    })
}
