//! External merge sort — the WiSS sort utility.
//!
//! [`external_sort`] fully materialises a sorted file; the parallel
//! sort-merge join sorts each node's two temporary files with it and then
//! merge-joins the sorted files through single-run [`RunMerger`]s.
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
//! mutably). A [`RunMerger`] holds the pages of the runs it merges and
//! yields each record's place on them, never its bytes, so the merge join
//! can send its results by reference to those pages. The ledger sees the
//! same charges in the same order either way: all input page reads, the
//! comparisons, the run writes, the moves.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

use gamma_des::{SimTime, Usage};

use crate::disk::{FileId, Volume};
use crate::heap::HeapWriter;
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

/// Sort workspace entry: a record's key and its `(page, slot)` in the
/// detached input. Its size decides how many comparator calls `sort_by`
/// makes, and so what the sort is charged.
type Indexed<K> = (K, (u32, u32));

/// One sort in progress: the node's volume and buffer pool, the ledger it
/// charges, the key and shape it sorts by, and what it has done so far.
struct Sorter<'a, K> {
    vol: &'a mut Volume,
    pool: &'a mut BufferPool,
    usage: &'a mut Usage,
    key: &'a dyn Fn(&[u8]) -> K,
    cfg: SortConfig,
    cost: &'a SortCost,
    stats: SortStats,
}

impl<K: Ord> Sorter<'_, K> {
    fn charge_compares(&mut self, n: u64) {
        self.usage.cpu(SimTime::from_us(self.cost.compare_us * n));
        self.usage.counts.comparisons += n;
        self.stats.comparisons += n;
    }

    fn charge_moves(&mut self, n: u64) {
        self.usage.cpu(SimTime::from_us(self.cost.move_us * n));
    }

    /// Sort the workspace, write it out as one run and empty it.
    fn write_run(&mut self, input: &[Page], workspace: &mut Vec<Indexed<K>>) -> FileId {
        let mut compares = 0u64;
        workspace.sort_by(|a, b| {
            compares += 1;
            a.0.cmp(&b.0)
        });
        self.charge_compares(compares);
        let mut w = HeapWriter::create(self.vol, self.cfg.page_bytes);
        for &(_, (page, slot)) in workspace.iter() {
            let rec = input[page as usize]
                .get(slot as usize)
                .expect("indexed slot");
            w.push(self.vol, self.pool, self.usage, rec);
        }
        self.charge_moves(workspace.len() as u64);
        self.stats.initial_runs += 1;
        workspace.clear();
        w.finish(self.vol, self.pool, self.usage)
    }

    /// Form sorted runs from `input`.
    fn form_runs(&mut self, input: FileId) -> Vec<FileId> {
        // The sequential read of the whole input comes first on the ledger;
        // on the real system the records were then copied into the sort
        // workspace, which `move_us` charges per record below.
        for page in 0..self.vol.file_pages(input) {
            self.pool.charge_read(input, page, self.usage);
        }
        let pages = self.vol.detach_pages(input);
        let mut runs = Vec::new();
        let mut workspace: Vec<Indexed<K>> = Vec::new();
        let mut ws_bytes = 0u64;
        for (p, page) in pages.iter().enumerate() {
            for (slot, rec) in page.records().enumerate() {
                self.stats.records += 1;
                ws_bytes += rec.len() as u64;
                self.charge_moves(1);
                workspace.push(((self.key)(rec), (p as u32, slot as u32)));
                if ws_bytes >= self.cfg.mem_bytes {
                    runs.push(self.write_run(&pages, &mut workspace));
                    ws_bytes = 0;
                }
            }
        }
        if !workspace.is_empty() {
            runs.push(self.write_run(&pages, &mut workspace));
        }
        self.vol.attach_pages(input, pages);
        runs
    }

    /// Merge a group of runs into one new run and delete them, charging all
    /// I/O and compares.
    fn merge_group(&mut self, group: &[FileId]) -> FileId {
        // An actual k-way heap merge decides the order, reading every input
        // page; only which run each output record came from is kept, and the
        // writer replays that order from the runs' pages once the
        // comparisons are charged.
        let mut merger = RunMerger::open(self.vol, group, self.key);
        let mut order: Vec<u16> = Vec::new();
        while let Some(m) = merger.next(self.pool, self.usage) {
            order.push(u16::try_from(m.run).expect("merge fan-in fits u16"));
        }
        self.charge_compares(merger.comparisons());
        let mut runs: Vec<_> = (0..group.len()).map(|r| merger.walk(r, (0, 0))).collect();
        let mut w = HeapWriter::create(self.vol, self.cfg.page_bytes);
        for &run in &order {
            let (image, at) = runs[run as usize].next().expect("merged record");
            w.push(self.vol, self.pool, self.usage, &image[at]);
        }
        self.charge_moves(order.len() as u64);
        let out = w.finish(self.vol, self.pool, self.usage);
        for &r in group {
            self.pool.evict_file(r);
            self.vol.delete_file(r);
        }
        out
    }

    /// Merge `runs` down to one, in passes of the configured fan-in; `None`
    /// when there were none.
    fn merge_to_one(&mut self, mut runs: Vec<FileId>) -> Option<FileId> {
        let fan_in = self.cfg.fan_in();
        while runs.len() > 1 {
            let mut next: Vec<FileId> = Vec::new();
            for group in runs.chunks(fan_in) {
                next.push(match group {
                    [run] => *run,
                    _ => self.merge_group(group),
                });
            }
            self.stats.merge_passes += 1;
            runs = next;
        }
        runs.pop()
    }
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
    let mut sort = Sorter {
        vol,
        pool,
        usage,
        key,
        cfg,
        cost,
        stats: SortStats::default(),
    };
    let runs = sort.form_runs(input);
    let out = match sort.merge_to_one(runs) {
        Some(run) => run,
        None => sort.vol.create_file(),
    };
    (out, sort.stats)
}

/// One record out of a [`RunMerger`].
#[derive(Debug, Clone, Copy)]
pub struct Merged<K> {
    /// The record's key.
    pub key: K,
    /// The run it came from: an index into the runs given to
    /// [`RunMerger::open`].
    pub run: usize,
    /// Its page and slot in that run.
    pub at: (u32, u32),
}

/// Entry in the merge heap: a run's next record (min-heap by key, then run
/// index for stability).
struct HeapEntry<K>(Merged<K>);

impl<K: Ord> PartialEq for HeapEntry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key && self.0.run == other.0.run
    }
}
impl<K: Ord> Eq for HeapEntry<K> {}
impl<K: Ord> PartialOrd for HeapEntry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord> Ord for HeapEntry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap.
        (&other.0.key, other.0.run).cmp(&(&self.0.key, self.0.run))
    }
}

/// One run being merged: its file, which its page reads are charged to,
/// its pages, and the place of the record it reads next.
struct Run {
    file: FileId,
    pages: Vec<Page>,
    page: usize,
    slot: usize,
}

impl Run {
    /// The place of the run's next record, charging each page's read as the
    /// run enters it — where [`HeapScan::next_ref`](crate::HeapScan::next_ref)
    /// charges it.
    fn advance(&mut self, pool: &mut BufferPool, usage: &mut Usage) -> Option<(u32, u32)> {
        loop {
            let page = self.pages.get(self.page)?;
            if self.slot == 0 {
                pool.charge_read(self.file, self.page, usage);
            }
            if self.slot < page.len() {
                self.slot += 1;
                return Some((self.page as u32, self.slot as u32 - 1));
            }
            (self.page, self.slot) = (self.page + 1, 0);
        }
    }
}

/// Streaming k-way merge over sorted run files. It takes the runs' pages
/// off the volume when it opens — their files stay, empty, for the caller
/// to delete — and yields each record's place on them
/// ([`RunMerger::next`]); [`RunMerger::walk`] hands out the records
/// themselves as a page image and a range of it, so they can be sent by
/// reference.
pub struct RunMerger<'k, K> {
    key: &'k dyn Fn(&[u8]) -> K,
    runs: Vec<Run>,
    heap: BinaryHeap<HeapEntry<K>>,
    primed: bool,
    comparisons: u64,
    log2_k: u64,
}

impl<'k, K: Ord> RunMerger<'k, K> {
    /// Open a merger over `runs` (each must be internally sorted by `key`),
    /// detaching their pages from `vol`.
    pub fn open(vol: &mut Volume, runs: &[FileId], key: &'k dyn Fn(&[u8]) -> K) -> Self {
        let k = runs.len().max(1) as u64;
        RunMerger {
            key,
            runs: runs
                .iter()
                .map(|&file| Run {
                    file,
                    pages: vol.detach_pages(file),
                    page: 0,
                    slot: 0,
                })
                .collect(),
            heap: BinaryHeap::new(),
            primed: false,
            comparisons: 0,
            log2_k: 64 - (k.saturating_sub(1)).leading_zeros() as u64,
        }
    }

    /// Read run `run`'s next record into the heap.
    fn refill(&mut self, run: usize, pool: &mut BufferPool, usage: &mut Usage) {
        let r = &mut self.runs[run];
        if let Some(at) = r.advance(pool, usage) {
            let (page, slot) = (at.0 as usize, at.1 as usize);
            let key = (self.key)(r.pages[page].get(slot).expect("slot in range"));
            self.heap.push(HeapEntry(Merged { key, run, at }));
        }
    }

    /// The next record in globally sorted order.
    pub fn next(&mut self, pool: &mut BufferPool, usage: &mut Usage) -> Option<Merged<K>> {
        if !self.primed {
            for run in 0..self.runs.len() {
                self.refill(run, pool, usage);
            }
            self.primed = true;
        }
        let HeapEntry(top) = self.heap.pop()?;
        // A heap pop/refill costs ~log2(k) comparisons.
        self.comparisons += self.log2_k.max(1);
        self.refill(top.run, pool, usage);
        Some(top)
    }

    /// Run `run`'s records from place `at` on, in run order, each as the
    /// image of the page it lies on and its range there. Reads nothing from
    /// the volume and charges nothing.
    pub fn walk(
        &self,
        run: usize,
        (page, slot): (u32, u32),
    ) -> impl Iterator<Item = (&Arc<[u8]>, Range<usize>)> + '_ {
        let firsts = std::iter::once(slot as usize).chain(std::iter::repeat(0));
        self.runs[run].pages[page as usize..]
            .iter()
            .zip(firsts)
            .flat_map(|(p, first)| (first..p.len()).map(move |s| (p.image(), p.range(s))))
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
    use crate::heap::HeapScan;

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

    /// The merge as it was written over [`HeapScan`]s: prime every run in
    /// order, then repeatedly take the smallest `(key, run)` head and read
    /// that run's next record.
    fn heap_scan_merge(
        vol: &Volume,
        pool: &mut BufferPool,
        u: &mut Usage,
        runs: &[FileId],
    ) -> Vec<(usize, Vec<u8>)> {
        let mut scans: Vec<HeapScan<'_>> = runs.iter().map(|&r| HeapScan::open(vol, r)).collect();
        let mut heads: Vec<Option<&[u8]>> = scans.iter_mut().map(|s| s.next_ref(pool, u)).collect();
        let mut out = Vec::new();
        while let Some((run, rec)) = heads
            .iter()
            .enumerate()
            .filter_map(|(run, head)| head.map(|rec| (run, rec)))
            .min_by_key(|&(run, rec)| (key_u32(rec), run))
        {
            out.push((run, rec.to_vec()));
            heads[run] = scans[run].next_ref(pool, u);
        }
        out
    }

    #[test]
    fn merger_places_records_and_charges_reads_as_heap_scans_do() {
        // Four sorted runs of 7-record pages with shared keys, merged through
        // a 3-frame pool: every place the merger yields walks, across page
        // boundaries, over exactly the records a scan of its run reads from
        // there on; the merge order is the scan-based merge's; and the page
        // reads charge the same ledger and the same pool hits and misses.
        let (mut vol, mut u) = (Volume::new(), Usage::ZERO);
        let mut pool = BufferPool::new(DiskConfig::fujitsu_8inch(), 3);
        let runs: Vec<FileId> = (0..4u32)
            .map(|r| {
                let mut w = HeapWriter::create(&mut vol, 512);
                for i in 0..(10 + 13 * r) {
                    let mut rec = (i * 3 / (r + 1)).to_le_bytes().to_vec();
                    rec.extend_from_slice(&[r as u8; 30]);
                    rec.extend_from_slice(&i.to_le_bytes());
                    rec.extend_from_slice(&[0xAB; 26]);
                    w.push(&mut vol, &mut pool, &mut u, &rec);
                }
                w.finish(&mut vol, &mut pool, &mut u)
            })
            .collect();
        assert!(runs.iter().all(|&r| vol.file_pages(r) >= 2));
        let scanned: Vec<Vec<Vec<u8>>> = {
            let mut p = pool.clone();
            let mut io = Usage::ZERO;
            runs.iter()
                .map(|&r| HeapScan::open(&vol, r).collect_all(&mut p, &mut io))
                .collect()
        };
        let (mut want_pool, mut want_u) = (pool.clone(), u.clone());
        let want = heap_scan_merge(&vol, &mut want_pool, &mut want_u, &runs);

        let mut merger = RunMerger::open(&mut vol, &runs, &key_u32);
        assert!(runs.iter().all(|&r| vol.file_pages(r) == 0), "pages taken");
        let mut got = Vec::new();
        let mut read = vec![0usize; runs.len()];
        while let Some(m) = merger.next(&mut pool, &mut u) {
            let rest = &scanned[m.run][read[m.run]..];
            let walked: Vec<&[u8]> = merger
                .walk(m.run, m.at)
                .map(|(image, at)| &image[at])
                .collect();
            assert!(walked.iter().copied().eq(rest.iter().map(Vec::as_slice)));
            assert_eq!(m.key, key_u32(walked[0]));
            got.push((m.run, walked[0].to_vec()));
            read[m.run] += 1;
        }
        assert_eq!(got, want, "merge order");
        assert_eq!(u, want_u, "page-read charges");
        assert_eq!(pool.stats(), want_pool.stats(), "pool hits and misses");
        assert_eq!(
            merger.comparisons(),
            want.len() as u64 * 2,
            "log2(4) per record"
        );
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
