//! External merge sort — the WiSS sort utility.
//!
//! [`external_sort`] fully materialises a sorted file; the parallel
//! sort-merge join sorts each node's two temporary files with it and then
//! streams the merge join over the sorted files through single-run
//! [`RunMerger`]s.
//!
//! Run formation reads the input sequentially, fills the sort workspace
//! (`mem_bytes`), quicksorts it and writes a run. Merging proceeds in passes
//! of fan-in `mem_bytes / page_bytes − 1` (one page per input run plus one
//! output page, as on the real system). Every comparison actually performed
//! is charged to the ledger — the paper's "upward steps" in the sort-merge
//! curves are precisely these extra merge passes appearing as memory
//! shrinks.
//!
//! On the host, records are copied once per pass, page to page: run
//! formation sorts an index of `(key, page, slot)` over the input's pages
//! and a merge records only the order in which it consumed its runs, and
//! both then write the output straight from the source pages, which are
//! detached from the volume for the duration (the writer needs the volume
//! mutably). The ledger sees the same charges in the same order either
//! way: all input page reads, the comparisons, the run writes, the moves.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gamma_des::{SimTime, Usage};

use crate::disk::{FileId, Volume};
use crate::heap::{HeapScan, HeapWriter};
use crate::page::Page;
use crate::pool::BufferPool;

/// Sort workspace shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortConfig {
    /// Bytes of memory available for sorting/merging at this node.
    pub mem_bytes: u64,
    /// Page size (determines merge fan-in).
    pub page_bytes: usize,
}

impl SortConfig {
    /// Maximum number of runs merged at once: one buffer page per input run
    /// plus one for output, minimum 2.
    pub fn fan_in(&self) -> usize {
        ((self.mem_bytes as usize / self.page_bytes).saturating_sub(1)).max(2)
    }
}

/// CPU cost knobs for sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortCost {
    /// CPU per key comparison, µs.
    pub compare_us: u64,
    /// CPU per record moved (into the workspace or out to a run), µs.
    pub move_us: u64,
}

impl Default for SortCost {
    fn default() -> Self {
        // VAX 11/750 scale: a comparison plus loop overhead is tens of
        // instructions; a 208-byte record move a few hundred.
        SortCost {
            compare_us: 60,
            move_us: 180,
        }
    }
}

/// What a sort did (asserted on by tests, reported by the harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Records sorted.
    pub records: u64,
    /// Runs produced by run formation.
    pub initial_runs: u64,
    /// Full merge passes over the data (0 when one run suffices).
    pub merge_passes: u64,
    /// Key comparisons performed.
    pub comparisons: u64,
}

fn charge_compares(usage: &mut Usage, cost: &SortCost, n: u64, stats: &mut SortStats) {
    usage.cpu(SimTime::from_us(cost.compare_us * n));
    usage.counts.comparisons += n;
    stats.comparisons += n;
}

fn charge_moves(usage: &mut Usage, cost: &SortCost, n: u64) {
    usage.cpu(SimTime::from_us(cost.move_us * n));
}

/// Sort workspace entry: a record's key and its `(page, slot)` in the
/// detached input.
type Indexed<K> = (K, (u32, u32));

/// Sort the workspace, write it out as one run and empty it.
#[allow(clippy::too_many_arguments)]
fn write_run<K: Ord>(
    vol: &mut Volume,
    pool: &mut BufferPool,
    input: &[Page],
    workspace: &mut Vec<Indexed<K>>,
    cfg: SortConfig,
    cost: &SortCost,
    usage: &mut Usage,
    stats: &mut SortStats,
) -> FileId {
    let mut compares = 0u64;
    workspace.sort_by(|a, b| {
        compares += 1;
        a.0.cmp(&b.0)
    });
    charge_compares(usage, cost, compares, stats);
    let mut w = HeapWriter::create(vol, cfg.page_bytes);
    for &(_, (page, slot)) in workspace.iter() {
        let rec = input[page as usize]
            .get(slot as usize)
            .expect("indexed slot");
        w.push(vol, pool, usage, rec);
    }
    charge_moves(usage, cost, workspace.len() as u64);
    stats.initial_runs += 1;
    workspace.clear();
    w.finish(vol, pool, usage)
}

/// Form sorted runs from `input`.
#[allow(clippy::too_many_arguments)]
fn form_runs<K: Ord>(
    vol: &mut Volume,
    pool: &mut BufferPool,
    input: FileId,
    key: &dyn Fn(&[u8]) -> K,
    cfg: SortConfig,
    cost: &SortCost,
    usage: &mut Usage,
    stats: &mut SortStats,
) -> Vec<FileId> {
    // The sequential read of the whole input comes first on the ledger; on
    // the real system the records were then copied into the sort workspace,
    // which `move_us` charges per record below.
    for page in 0..vol.file_pages(input) {
        pool.charge_read(input, page, usage);
    }
    let pages = vol.detach_pages(input);
    let mut runs = Vec::new();
    let mut workspace: Vec<Indexed<K>> = Vec::new();
    let mut ws_bytes = 0u64;
    for (p, page) in pages.iter().enumerate() {
        for (slot, rec) in page.records().enumerate() {
            stats.records += 1;
            ws_bytes += rec.len() as u64;
            charge_moves(usage, cost, 1);
            workspace.push((key(rec), (p as u32, slot as u32)));
            if ws_bytes >= cfg.mem_bytes {
                runs.push(write_run(
                    vol,
                    pool,
                    &pages,
                    &mut workspace,
                    cfg,
                    cost,
                    usage,
                    stats,
                ));
                ws_bytes = 0;
            }
        }
    }
    if !workspace.is_empty() {
        runs.push(write_run(
            vol,
            pool,
            &pages,
            &mut workspace,
            cfg,
            cost,
            usage,
            stats,
        ));
    }
    vol.attach_pages(input, pages);
    runs
}

/// Merge a group of runs into one new run, charging all I/O and compares.
#[allow(clippy::too_many_arguments)]
fn merge_group<K: Ord + Clone>(
    vol: &mut Volume,
    pool: &mut BufferPool,
    group: &[FileId],
    key: &dyn Fn(&[u8]) -> K,
    cfg: SortConfig,
    cost: &SortCost,
    usage: &mut Usage,
    stats: &mut SortStats,
) -> FileId {
    // An actual k-way heap merge decides the order; only which run each
    // output record came from is kept (the merger borrows the volume, so
    // the writer below cannot run concurrently with it).
    let mut order: Vec<u16> = Vec::new();
    {
        let mut merger = RunMerger::open(vol, group.to_vec(), key);
        while let Some((run, _)) = merger.next_entry(pool, usage) {
            order.push(u16::try_from(run).expect("merge fan-in fits u16"));
        }
        charge_compares(usage, cost, merger.comparisons(), stats);
    }
    // Replay that order page to page from the runs, which are deleted
    // below and so can give up their pages now.
    let runs: Vec<Vec<Page>> = group.iter().map(|&r| vol.detach_pages(r)).collect();
    let mut cursors = vec![(0usize, 0usize); runs.len()];
    let mut w = HeapWriter::create(vol, cfg.page_bytes);
    for &run in &order {
        let (page, slot) = &mut cursors[run as usize];
        let rec = loop {
            match runs[run as usize][*page].get(*slot) {
                Some(rec) => break rec,
                None => (*page, *slot) = (*page + 1, 0),
            }
        };
        *slot += 1;
        w.push(vol, pool, usage, rec);
    }
    charge_moves(usage, cost, order.len() as u64);
    let out = w.finish(vol, pool, usage);
    for &r in group {
        pool.evict_file(r);
        vol.delete_file(r);
    }
    out
}

/// Merge `runs` down to one, in passes of the configured fan-in.
#[allow(clippy::too_many_arguments)]
fn merge_to_one<K: Ord + Clone>(
    vol: &mut Volume,
    pool: &mut BufferPool,
    mut runs: Vec<FileId>,
    key: &dyn Fn(&[u8]) -> K,
    cfg: SortConfig,
    cost: &SortCost,
    usage: &mut Usage,
    stats: &mut SortStats,
) -> Vec<FileId> {
    let fan_in = cfg.fan_in();
    while runs.len() > 1 {
        let mut next: Vec<FileId> = Vec::new();
        for group in runs.chunks(fan_in) {
            if group.len() == 1 {
                next.push(group[0]);
            } else {
                next.push(merge_group(vol, pool, group, key, cfg, cost, usage, stats));
            }
        }
        stats.merge_passes += 1;
        runs = next;
    }
    runs
}

/// Fully sort `input` into a new file. The input file is left intact.
///
/// ```
/// use gamma_des::Usage;
/// use gamma_wiss::{external_sort, BufferPool, DiskConfig, HeapScan, HeapWriter, SortConfig, SortCost, Volume};
///
/// let mut vol = Volume::new();
/// let mut pool = BufferPool::new(DiskConfig::fujitsu_8inch(), 8);
/// let mut io = Usage::ZERO;
/// let mut w = HeapWriter::create(&mut vol, 8192);
/// for k in [5u32, 3, 9, 1, 7] {
///     w.push(&mut vol, &mut pool, &mut io, &k.to_le_bytes());
/// }
/// let input = w.finish(&mut vol, &mut pool, &mut io);
/// let key = |r: &[u8]| u32::from_le_bytes(r.try_into().unwrap());
/// let cfg = SortConfig { mem_bytes: 1 << 20, page_bytes: 8192 };
/// let (sorted, stats) =
///     external_sort(&mut vol, &mut pool, input, &key, cfg, &SortCost::default(), &mut io);
/// let got: Vec<u32> = HeapScan::open(&vol, sorted)
///     .collect_all(&mut pool, &mut io)
///     .iter()
///     .map(|r| key(r))
///     .collect();
/// assert_eq!(got, [1, 3, 5, 7, 9]);
/// assert_eq!(stats.records, 5);
/// ```
pub fn external_sort<K: Ord + Clone>(
    vol: &mut Volume,
    pool: &mut BufferPool,
    input: FileId,
    key: &dyn Fn(&[u8]) -> K,
    cfg: SortConfig,
    cost: &SortCost,
    usage: &mut Usage,
) -> (FileId, SortStats) {
    let mut stats = SortStats::default();
    let runs = form_runs(vol, pool, input, key, cfg, cost, usage, &mut stats);
    let runs = merge_to_one(vol, pool, runs, key, cfg, cost, usage, &mut stats);
    let out = match runs.len() {
        0 => vol.create_file(),
        1 => runs[0],
        _ => unreachable!("merge_to_one left multiple runs"),
    };
    (out, stats)
}

/// Entry in the merge heap (min-heap by key, then run index for
/// stability). Records stay borrowed from the volume — the merge never
/// copies a tuple.
struct HeapEntry<'a, K: Ord> {
    key: K,
    run: usize,
    rec: &'a [u8],
}

impl<K: Ord> PartialEq for HeapEntry<'_, K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.run == other.run
    }
}
impl<K: Ord> Eq for HeapEntry<'_, K> {}
impl<K: Ord> PartialOrd for HeapEntry<'_, K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord> Ord for HeapEntry<'_, K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap.
        (&other.key, other.run).cmp(&(&self.key, self.run))
    }
}

/// Streaming k-way merge over sorted run files.
pub struct RunMerger<'a, K: Ord> {
    vol: &'a Volume,
    key: &'a dyn Fn(&[u8]) -> K,
    scans: Vec<HeapScan<'a>>,
    heap: BinaryHeap<HeapEntry<'a, K>>,
    primed: bool,
    comparisons: u64,
    log2_k: u64,
}

impl<'a, K: Ord + Clone> RunMerger<'a, K> {
    /// Open a merger over `runs` (each must be internally sorted by `key`).
    pub fn open(vol: &'a Volume, runs: Vec<FileId>, key: &'a dyn Fn(&[u8]) -> K) -> Self {
        let k = runs.len().max(1) as u64;
        let scans = runs.iter().map(|&r| HeapScan::open(vol, r)).collect();
        RunMerger {
            vol,
            key,
            scans,
            heap: BinaryHeap::new(),
            primed: false,
            comparisons: 0,
            log2_k: 64 - (k.saturating_sub(1)).leading_zeros() as u64,
        }
    }

    fn prime(&mut self, pool: &mut BufferPool, usage: &mut Usage) {
        let _ = self.vol;
        for run in 0..self.scans.len() {
            if let Some(rec) = self.scans[run].next_ref(pool, usage) {
                self.heap.push(HeapEntry {
                    key: (self.key)(rec),
                    run,
                    rec,
                });
            }
        }
        self.primed = true;
    }

    /// Next record in globally sorted order, borrowed from the volume.
    pub fn next_ref(&mut self, pool: &mut BufferPool, usage: &mut Usage) -> Option<&'a [u8]> {
        self.next_entry(pool, usage).map(|(_, rec)| rec)
    }

    /// [`RunMerger::next_ref`] together with the index (into the `runs`
    /// given to [`RunMerger::open`]) of the run the record came from.
    pub fn next_entry(
        &mut self,
        pool: &mut BufferPool,
        usage: &mut Usage,
    ) -> Option<(usize, &'a [u8])> {
        if !self.primed {
            self.prime(pool, usage);
        }
        let top = self.heap.pop()?;
        // A heap pop/refill costs ~log2(k) comparisons.
        self.comparisons += self.log2_k.max(1);
        if let Some(rec) = self.scans[top.run].next_ref(pool, usage) {
            self.heap.push(HeapEntry {
                key: (self.key)(rec),
                run: top.run,
                rec,
            });
        }
        Some((top.run, top.rec))
    }

    /// Comparisons attributed to the merge so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;

    fn setup() -> (Volume, BufferPool, Usage) {
        (
            Volume::new(),
            BufferPool::new(DiskConfig::fujitsu_8inch(), 4),
            Usage::ZERO,
        )
    }

    fn key_u32(rec: &[u8]) -> u32 {
        u32::from_le_bytes(rec[0..4].try_into().unwrap())
    }

    fn write_input(vol: &mut Volume, pool: &mut BufferPool, u: &mut Usage, vals: &[u32]) -> FileId {
        let mut w = HeapWriter::create(vol, 8192);
        for &v in vals {
            let mut rec = v.to_le_bytes().to_vec();
            rec.extend_from_slice(&[0xAB; 60]); // payload
            w.push(vol, pool, u, &rec);
        }
        w.finish(vol, pool, u)
    }

    #[test]
    fn sorts_a_permutation() {
        let (mut vol, mut pool, mut u) = setup();
        let vals: Vec<u32> = (0..5000)
            .map(|i| (i * 2654435761u64 % 5000) as u32)
            .collect();
        let input = write_input(&mut vol, &mut pool, &mut u, &vals);
        let cfg = SortConfig {
            mem_bytes: 16 * 1024,
            page_bytes: 8192,
        };
        let (out, stats) = external_sort(
            &mut vol,
            &mut pool,
            input,
            &key_u32,
            cfg,
            &SortCost::default(),
            &mut u,
        );
        assert_eq!(stats.records, 5000);
        assert!(stats.initial_runs > 1);
        let mut got = Vec::new();
        let mut scan = HeapScan::open(&vol, out);
        while let Some(r) = scan.next_ref(&mut pool, &mut u) {
            got.push(key_u32(r));
        }
        let mut want = vals.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(stats.comparisons > 0);
    }

    #[test]
    fn small_input_single_run_no_merge() {
        let (mut vol, mut pool, mut u) = setup();
        let input = write_input(&mut vol, &mut pool, &mut u, &[5, 3, 1, 4, 2]);
        let cfg = SortConfig {
            mem_bytes: 1 << 20,
            page_bytes: 8192,
        };
        let (out, stats) = external_sort(
            &mut vol,
            &mut pool,
            input,
            &key_u32,
            cfg,
            &SortCost::default(),
            &mut u,
        );
        assert_eq!(stats.initial_runs, 1);
        assert_eq!(stats.merge_passes, 0);
        assert_eq!(vol.file_records(out), 5);
    }

    #[test]
    fn empty_input() {
        let (mut vol, mut pool, mut u) = setup();
        let input = write_input(&mut vol, &mut pool, &mut u, &[]);
        let cfg = SortConfig {
            mem_bytes: 1024,
            page_bytes: 8192,
        };
        let (out, stats) = external_sort(
            &mut vol,
            &mut pool,
            input,
            &key_u32,
            cfg,
            &SortCost::default(),
            &mut u,
        );
        assert_eq!(stats.records, 0);
        assert_eq!(vol.file_pages(out), 0);
    }

    #[test]
    fn merge_passes_increase_as_memory_shrinks() {
        let passes_for = |mem: u64| {
            let (mut vol, mut pool, mut u) = setup();
            let vals: Vec<u32> = (0..8000).rev().collect();
            let input = write_input(&mut vol, &mut pool, &mut u, &vals);
            let cfg = SortConfig {
                mem_bytes: mem,
                page_bytes: 8192,
            };
            let (_, stats) = external_sort(
                &mut vol,
                &mut pool,
                input,
                &key_u32,
                cfg,
                &SortCost::default(),
                &mut u,
            );
            stats.merge_passes
        };
        let big = passes_for(512 * 1024);
        let small = passes_for(24 * 1024);
        assert!(
            small > big,
            "less memory must mean more passes ({small} vs {big})"
        );
    }

    #[test]
    fn duplicates_survive_sorting() {
        let (mut vol, mut pool, mut u) = setup();
        let vals = vec![7u32; 500];
        let input = write_input(&mut vol, &mut pool, &mut u, &vals);
        let cfg = SortConfig {
            mem_bytes: 8 * 1024,
            page_bytes: 8192,
        };
        let (out, stats) = external_sort(
            &mut vol,
            &mut pool,
            input,
            &key_u32,
            cfg,
            &SortCost::default(),
            &mut u,
        );
        assert_eq!(stats.records, 500);
        assert_eq!(vol.file_records(out), 500);
    }

    #[test]
    fn input_file_left_intact() {
        let (mut vol, mut pool, mut u) = setup();
        let input = write_input(&mut vol, &mut pool, &mut u, &[3, 1, 2]);
        let cfg = SortConfig {
            mem_bytes: 1024,
            page_bytes: 8192,
        };
        let before = vol.file_records(input);
        let _ = external_sort(
            &mut vol,
            &mut pool,
            input,
            &key_u32,
            cfg,
            &SortCost::default(),
            &mut u,
        );
        assert_eq!(vol.file_records(input), before);
    }

    #[test]
    fn fan_in_floor_is_two() {
        let cfg = SortConfig {
            mem_bytes: 100,
            page_bytes: 8192,
        };
        assert_eq!(cfg.fan_in(), 2);
        let cfg = SortConfig {
            mem_bytes: 10 * 8192,
            page_bytes: 8192,
        };
        assert_eq!(cfg.fan_in(), 9);
    }
}
