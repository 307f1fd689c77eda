//! External merge sort — the WiSS sort utility.
//!
//! [`external_sort`] fully materialises a sorted file. The parallel
//! sort-merge join sorts each node's two temporary files with
//! [`sort_order`] instead, which charges the same sort and ends in a
//! [`Run`] rather than a file, and merge-joins the two sorted runs through
//! one [`Cursor`] each.
//!
//! Run formation reads the input sequentially, fills the sort workspace
//! (`mem_bytes`), sorts it with std's stable `sort_by` and writes a run.
//! Merging proceeds in passes of fan-in `mem_bytes / page_bytes − 1` (one
//! page per input run plus one output page, as on the real system). Every
//! comparison actually performed is charged to the ledger — the paper's
//! "upward steps" in the sort-merge curves are precisely these extra merge
//! passes appearing as memory shrinks.
//!
//! On the host a run is an *order*, not a file of copied records: the
//! sorted `(key, (page, slot))` entries over the input's pages, which stay
//! detached from the volume for the whole sort, and where each of the
//! run's pages starts in that order. Each run is still written to a file
//! of its own, by an unkept [`HeapWriter`] that lays the pages out by the
//! records' lengths and charges every one. A [`Cursor`] is the one reader
//! of a run: it charges the read of each of the run's pages as it enters
//! it and hands out each record's key and place in the order, never its
//! bytes; [`Run::records`] hands out the records on the input pages, so
//! the merge join can send its results by reference to them. A merge reads
//! its runs through cursors and writes the merged order the same way. Only
//! `external_sort`'s result is copied: once the sort is done, the last
//! run's records are copied from the input pages into the run's file. The
//! ledger sees the charges a sort over kept files makes, in the same
//! order: all input page reads; per run the comparisons, the page writes
//! and the moves; per merge the reads, then the deletes of the runs it
//! merged.

use std::cmp::Reverse;
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

/// A sorted run as an order over the input's pages. Its file was charged
/// as written, page by page, and holds no bytes.
#[derive(Debug)]
pub struct Run<K> {
    /// The file the run was charged to: its page reads are charged there
    /// too.
    file: FileId,
    /// Every record's key and place on the input's pages, in sorted order.
    order: Vec<Indexed<K>>,
    /// The run's page shape: where in `order` each of its pages starts.
    starts: Vec<u32>,
}

impl<K> Run<K> {
    /// The file the run was charged to, empty: the caller deletes it.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// The run's records from place `at` of its order on, in order, each
    /// as the image of the page of `input` it lies on and its range there.
    /// Reads nothing from the volume and charges nothing.
    pub fn records<'r>(
        &'r self,
        input: &'r [Page],
        at: usize,
    ) -> impl Iterator<Item = (&'r Arc<[u8]>, Range<usize>)> + 'r {
        self.order[at..].iter().map(move |&(_, (page, slot))| {
            let page = &input[page as usize];
            (page.image(), page.range(slot as usize))
        })
    }
}

/// A reader of one [`Run`], in order, that holds its next record already
/// read. Opening it reads the run's first record, and taking a record
/// reads the one after it; each of the run's pages is charged as read when
/// its first record is — where a scan of a kept copy of the run, a record
/// ahead, charges it.
#[derive(Debug)]
pub struct Cursor<'a, K> {
    run: &'a Run<K>,
    /// Records taken: the place in the run's order of the one held.
    taken: usize,
    /// The next of the run's pages to enter.
    page: usize,
}

impl<'a, K> Cursor<'a, K> {
    /// Open a cursor on `run`, reading its first record.
    pub fn open(run: &'a Run<K>, pool: &mut BufferPool, usage: &mut Usage) -> Self {
        let mut cursor = Cursor {
            run,
            taken: 0,
            page: 0,
        };
        cursor.read(pool, usage);
        cursor
    }

    /// Read the held record, charging its page's read if it starts one.
    fn read(&mut self, pool: &mut BufferPool, usage: &mut Usage) {
        if self.run.starts.get(self.page) == Some(&(self.taken as u32)) {
            pool.charge_read(self.run.file, self.page, usage);
            self.page += 1;
        }
    }

    /// The held record's key; `None` once every record is taken.
    pub fn peek(&self) -> Option<&'a K> {
        self.run.order.get(self.taken).map(|(key, _)| key)
    }

    /// Take the held record, returning its key, and read the next one.
    pub fn next(&mut self, pool: &mut BufferPool, usage: &mut Usage) -> Option<&'a K> {
        let key = self.peek()?;
        self.taken += 1;
        self.read(pool, usage);
        Some(key)
    }

    /// Records taken so far: the place of the held record.
    pub fn taken(&self) -> usize {
        self.taken
    }
}

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

impl<K: Ord + Clone> Sorter<'_, K> {
    fn charge_compares(&mut self, n: u64) {
        self.usage.cpu(SimTime::from_us(self.cost.compare_us * n));
        // The one ledger count not charged through `Usage::record`: the
        // sort kernel knows no node, and its comparisons have no metric
        // series or trace event to mirror.
        self.usage.counts.comparisons += n;
        self.stats.comparisons += n;
    }

    fn charge_moves(&mut self, n: u64) {
        self.usage.cpu(SimTime::from_us(self.cost.move_us * n));
    }

    /// Write `order` as one run, charging its pages, laid out by the
    /// lengths of its records on `input`, and its moves.
    fn write(&mut self, input: &[Page], order: Vec<Indexed<K>>) -> Run<K> {
        let page_bytes = self.cfg.page_bytes;
        let mut w = HeapWriter::create_unkept(self.vol, page_bytes);
        let record = |(page, slot): (u32, u32)| {
            input[page as usize]
                .get(slot as usize)
                .expect("indexed slot")
        };
        // A run's records are alike: the pages its first record's length
        // fills hold them all.
        let pages = order.first().map_or(0, |&(_, at)| {
            let per_page = Page::capacity_for(page_bytes, record(at).len());
            order.len().div_ceil(per_page.max(1))
        });
        let mut starts = Vec::with_capacity(pages);
        for (i, &(_, at)) in order.iter().enumerate() {
            w.push(self.vol, self.pool, self.usage, record(at));
            if w.pages() == starts.len() {
                starts.push(i as u32);
            }
        }
        self.charge_moves(order.len() as u64);
        let file = w.finish(self.vol, self.pool, self.usage);
        Run {
            file,
            order,
            starts,
        }
    }

    /// Sort one workspace of records and write it as a run.
    fn write_run(&mut self, input: &[Page], mut order: Vec<Indexed<K>>) -> Run<K> {
        let mut compares = 0u64;
        order.sort_by(|a, b| {
            compares += 1;
            a.0.cmp(&b.0)
        });
        self.charge_compares(compares);
        self.stats.initial_runs += 1;
        self.write(input, order)
    }

    /// Form sorted runs from `input`, whose pages it detaches and returns.
    fn form_runs(&mut self, input: FileId) -> (Vec<Page>, Vec<Run<K>>) {
        // The sequential read of the whole input comes first on the ledger;
        // on the real system the records were then copied into the sort
        // workspace, which `move_us` charges per record below.
        for page in 0..self.vol.file_pages(input) {
            self.pool.charge_read(input, page, self.usage);
        }
        let pages = self.vol.detach_pages(input);
        let records: u64 = pages.iter().map(|p| p.len() as u64).sum();
        // A full workspace holds what `mem_bytes` holds of records like the
        // first one.
        let first = pages.first().and_then(|p| p.get(0)).map_or(1, <[u8]>::len);
        let per_run = records.min(self.cfg.mem_bytes / first as u64 + 1);
        let mut runs = Vec::new();
        let mut workspace: Vec<Indexed<K>> = Vec::with_capacity(per_run as usize);
        let mut ws_bytes = 0u64;
        for (p, page) in pages.iter().enumerate() {
            for (slot, rec) in page.records().enumerate() {
                self.stats.records += 1;
                ws_bytes += rec.len() as u64;
                self.charge_moves(1);
                workspace.push(((self.key)(rec), (p as u32, slot as u32)));
                if ws_bytes >= self.cfg.mem_bytes {
                    let rest = records - self.stats.records;
                    let next = Vec::with_capacity(rest.min(per_run) as usize);
                    let order = std::mem::replace(&mut workspace, next);
                    runs.push(self.write_run(&pages, order));
                    ws_bytes = 0;
                }
            }
        }
        if !workspace.is_empty() {
            runs.push(self.write_run(&pages, workspace));
        }
        (pages, runs)
    }

    /// Merge a group of runs into one new run and delete their files,
    /// charging all I/O and compares.
    fn merge_group(&mut self, input: &[Page], group: &[Run<K>]) -> Run<K> {
        // A k-way heap merge over the runs' cursors decides the order,
        // reading every page of the group's runs; ties go to the earlier
        // run. The merged order is written once the comparisons are
        // charged.
        let mut cursors: Vec<Cursor<'_, K>> = group
            .iter()
            .map(|run| Cursor::open(run, self.pool, self.usage))
            .collect();
        let mut heap = BinaryHeap::with_capacity(group.len());
        for (i, c) in cursors.iter().enumerate() {
            heap.extend(c.peek().map(|key| Reverse((key, i))));
        }
        let mut order = Vec::with_capacity(group.iter().map(|r| r.order.len()).sum());
        while let Some(Reverse((_, i))) = heap.pop() {
            let c = &mut cursors[i];
            order.push(group[i].order[c.taken()].clone());
            c.next(self.pool, self.usage);
            heap.extend(c.peek().map(|key| Reverse((key, i))));
        }
        // A heap pop and refill costs ~log2(k) comparisons.
        let log2_k = u64::from(usize::BITS - (group.len() - 1).leading_zeros());
        self.charge_compares(order.len() as u64 * log2_k.max(1));
        let out = self.write(input, order);
        for r in group {
            self.pool.evict_file(r.file);
            self.vol.delete_file(r.file);
        }
        out
    }

    /// Merge `runs` down to one, in passes of the configured fan-in; `None`
    /// when there were none.
    fn merge_to_one(&mut self, input: &[Page], mut runs: Vec<Run<K>>) -> Option<Run<K>> {
        let fan_in = self.cfg.fan_in();
        while runs.len() > 1 {
            // A run alone in the last group goes on to the next pass as it is.
            let alone = if runs.len() % fan_in == 1 {
                runs.pop()
            } else {
                None
            };
            let mut next: Vec<Run<K>> = runs
                .chunks(fan_in)
                .map(|group| self.merge_group(input, group))
                .collect();
            next.extend(alone);
            self.stats.merge_passes += 1;
            runs = next;
        }
        runs.pop()
    }

    /// Sort `input` to one run. Returns the run, the input's pages,
    /// detached from its file, and what the sort did.
    fn sort(mut self, input: FileId) -> (Run<K>, Vec<Page>, SortStats) {
        let (pages, runs) = self.form_runs(input);
        let run = self.merge_to_one(&pages, runs).unwrap_or_else(|| Run {
            file: self.vol.create_file(),
            order: Vec::new(),
            starts: Vec::new(),
        });
        (run, pages, self.stats)
    }
}

/// Fully sort `input` into a new file. The input file is left intact.
/// The sort is [`sort_order`]'s; its run's records are then copied into
/// the run's file, which charges nothing more.
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
    let (run, pages, stats) = sort_order(vol, pool, input, key, cfg, cost, usage);
    // The sort's one copy of its records: the run's, from the input pages
    // into the run's file, page by page along the shape it was charged as.
    let mut sorted: Vec<Page> = Vec::with_capacity(run.starts.len());
    for (i, (image, at)) in run.records(&pages, 0).enumerate() {
        if run.starts.get(sorted.len()) == Some(&(i as u32)) {
            sorted.push(Page::new(cfg.page_bytes));
        }
        let page = sorted.last_mut().expect("a run starts with a page");
        page.insert(&image[at])
            .expect("the run's page shape fits it");
    }
    vol.attach_pages(run.file, sorted);
    vol.attach_pages(input, pages);
    (run.file, stats)
}

/// Sort `input`, charging every page read and write, comparison and move
/// of the sort, but copy no record: the sorted run is an order over the
/// input's pages, which are taken from its file — it stays, empty, for the
/// caller to delete. Returns the run (its file stays, empty, too), the
/// input's pages and what the sort did. [`external_sort`] is this sort
/// and one copy of its result.
pub fn sort_order<K: Ord + Clone>(
    vol: &mut Volume,
    pool: &mut BufferPool,
    input: FileId,
    key: &dyn Fn(&[u8]) -> K,
    cfg: SortConfig,
    cost: &SortCost,
    usage: &mut Usage,
) -> (Run<K>, Vec<Page>, SortStats) {
    let sorter = Sorter {
        vol,
        pool,
        usage,
        key,
        cfg,
        cost,
        stats: SortStats::default(),
    };
    sorter.sort(input)
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

    /// The reference sort, every run a kept file: run formation copies
    /// each sorted workspace into a file, and each merge reads its runs
    /// through [`HeapScan`]s ([`heap_scan_merge`]) and writes the merged
    /// file. It charges what every sort must charge, in order.
    struct Reference<'a> {
        vol: &'a mut Volume,
        pool: &'a mut BufferPool,
        u: &'a mut Usage,
        cfg: SortConfig,
        cost: SortCost,
        stats: SortStats,
    }

    impl<'a> Reference<'a> {
        /// A reference sort in `cfg` at the default cost.
        fn new(
            vol: &'a mut Volume,
            pool: &'a mut BufferPool,
            u: &'a mut Usage,
            cfg: SortConfig,
        ) -> Self {
            let (cost, stats) = (SortCost::default(), SortStats::default());
            Reference {
                vol,
                pool,
                u,
                cfg,
                cost,
                stats,
            }
        }

        fn compares(&mut self, n: u64) {
            self.u.cpu(SimTime::from_us(self.cost.compare_us * n));
            self.u.counts.comparisons += n;
            self.stats.comparisons += n;
        }

        fn moves(&mut self, n: u64) {
            self.u.cpu(SimTime::from_us(self.cost.move_us * n));
        }

        /// Copy `recs` into a new kept file, charging the moves before the
        /// last page's write.
        fn write(&mut self, recs: Vec<Vec<u8>>) -> FileId {
            let mut w = HeapWriter::create(self.vol, self.cfg.page_bytes);
            for rec in &recs {
                w.push(self.vol, self.pool, self.u, rec);
            }
            self.moves(recs.len() as u64);
            w.finish(self.vol, self.pool, self.u)
        }

        fn sort(mut self, input: FileId) -> (FileId, SortStats) {
            let pages = self.vol.file_pages(input);
            for page in 0..pages {
                self.pool.charge_read(input, page, self.u);
            }
            let recs: Vec<Vec<Vec<u8>>> = (0..pages)
                .map(|p| {
                    self.vol
                        .page(input, p)
                        .records()
                        .map(<[u8]>::to_vec)
                        .collect()
                })
                .collect();
            let mut runs = Vec::new();
            let mut workspace: Vec<Indexed<u32>> = Vec::new();
            let mut ws_bytes = 0;
            let mut form = |this: &mut Self, workspace: &mut Vec<Indexed<u32>>| {
                let mut compares = 0;
                workspace.sort_by(|a, b| {
                    compares += 1;
                    a.0.cmp(&b.0)
                });
                this.compares(compares);
                let run = workspace
                    .drain(..)
                    .map(|(_, (p, s))| recs[p as usize][s as usize].clone())
                    .collect();
                this.stats.initial_runs += 1;
                runs.push(this.write(run));
            };
            for (p, page) in recs.iter().enumerate() {
                for (s, rec) in page.iter().enumerate() {
                    self.stats.records += 1;
                    ws_bytes += rec.len() as u64;
                    self.moves(1);
                    workspace.push((key_u32(rec), (p as u32, s as u32)));
                    if ws_bytes >= self.cfg.mem_bytes {
                        form(&mut self, &mut workspace);
                        ws_bytes = 0;
                    }
                }
            }
            if !workspace.is_empty() {
                form(&mut self, &mut workspace);
            }
            while runs.len() > 1 {
                let mut next = Vec::new();
                for group in runs.chunks(self.cfg.fan_in()) {
                    if let [run] = group {
                        next.push(*run);
                        continue;
                    }
                    let merged = heap_scan_merge(self.vol, self.pool, self.u, group);
                    let k = group.len() as u64;
                    let log2_k = (64 - (k - 1).leading_zeros() as u64).max(1);
                    self.compares(merged.len() as u64 * log2_k);
                    next.push(self.write(merged.into_iter().map(|(_, rec)| rec).collect()));
                    for &r in group {
                        self.pool.evict_file(r);
                        self.vol.delete_file(r);
                    }
                }
                self.stats.merge_passes += 1;
                runs = next;
            }
            let out = runs.pop().unwrap_or_else(|| self.vol.create_file());
            (out, self.stats)
        }
    }

    /// Sort cases: page size, sort space, records, merge passes they take,
    /// and each record's key and length.
    type Case = (usize, u64, u32, u64, fn(u32) -> u32, fn(u32) -> usize);

    fn cases() -> Vec<Case> {
        let perm: fn(u32) -> u32 = |i| (i as u64 * 2654435761 % 4999) as u32;
        let equal: fn(u32) -> u32 = |_| 7;
        let wide: fn(u32) -> usize = |i| 40 + (i as usize * 7) % 50;
        let narrow: fn(u32) -> usize = |i| 4 + (i as usize * 13) % 90;
        let fixed: fn(u32) -> usize = |_| 100;
        vec![
            (8192, 1 << 20, 3000, 0, perm, wide),
            (8192, 64 * 1024, 3000, 1, perm, wide),
            (8192, 16 * 1024, 3000, 4, perm, wide),
            (8192, 16 * 1024, 3000, 4, equal, wide),
            (8192, 16 * 1024, 0, 0, perm, wide),
            (512, 1 << 16, 600, 0, perm, narrow),
            (512, 8192, 600, 1, perm, narrow),
            (512, 1024, 600, 5, perm, narrow),
            (512, 1024, 600, 5, equal, narrow),
            (512, 2048, 600, 4, perm, fixed),
            (512, 1024, 0, 0, perm, narrow),
        ]
    }

    /// A volume holding one input file written from `case`, its pool of
    /// four frames and the ledger that wrote it; the input; and its records
    /// in the order a stable sort by key gives.
    fn case_input(case: &Case) -> ((Volume, BufferPool, Usage), FileId, Vec<Vec<u8>>) {
        let &(page_bytes, _, n, _, key, len) = case;
        let (mut vol, mut pool, mut u) = setup();
        let recs: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut rec = key(i).to_le_bytes().to_vec();
                rec.resize(len(i), i as u8);
                rec
            })
            .collect();
        let mut w = HeapWriter::create(&mut vol, page_bytes);
        for rec in &recs {
            w.push(&mut vol, &mut pool, &mut u, rec);
        }
        let input = w.finish(&mut vol, &mut pool, &mut u);
        let mut sorted = recs;
        sorted.sort_by_key(|r| key_u32(r));
        ((vol, pool, u), input, sorted)
    }

    /// Where each page of `file` starts among the file's records.
    fn page_starts(vol: &Volume, file: FileId) -> Vec<u32> {
        let mut at = 0;
        (0..vol.file_pages(file))
            .map(|p| {
                let start = at;
                at += vol.page(file, p).len() as u32;
                start
            })
            .collect()
    }

    fn file_records(vol: &Volume, file: FileId) -> Vec<Vec<u8>> {
        (0..vol.file_pages(file))
            .flat_map(|p| vol.page(file, p).records().map(<[u8]>::to_vec))
            .collect()
    }

    #[test]
    fn external_sort_charges_and_writes_what_the_kept_file_reference_does() {
        for case in cases() {
            let (page_bytes, mem_bytes, n, passes, ..) = case;
            let what = format!("{page_bytes}-byte pages, {mem_bytes} bytes, {n} records");
            let cfg = SortConfig {
                mem_bytes,
                page_bytes,
            };
            let cost = SortCost::default();
            let ((mut vol, mut pool, mut u), input, sorted) = case_input(&case);
            let (mut ref_vol, mut ref_pool, mut ref_u) = (vol.clone(), pool.clone(), u.clone());
            let (want, want_stats) =
                Reference::new(&mut ref_vol, &mut ref_pool, &mut ref_u, cfg).sort(input);
            assert_eq!(want_stats.merge_passes, passes, "{what}");
            assert_eq!(want_stats.records, n as u64);
            assert_eq!(file_records(&ref_vol, want), sorted, "{what}");

            let (got, stats) =
                external_sort(&mut vol, &mut pool, input, &key_u32, cfg, &cost, &mut u);
            assert_eq!(stats, want_stats, "{what}");
            assert_eq!(u, ref_u, "{what}: ledger and disk request log");
            assert_eq!(pool.stats(), ref_pool.stats(), "{what}: pool hits, misses");
            assert_eq!(pool.peak_pages(), ref_pool.peak_pages(), "{what}");
            assert_eq!(got, want, "{what}: file id");
            assert_eq!(vol.file_pages(got), ref_vol.file_pages(want), "{what}");
            for p in 0..vol.file_pages(got) {
                assert_eq!(vol.page(got, p), ref_vol.page(want, p), "{what}: page {p}");
            }
            assert_eq!(file_records(&vol, input), file_records(&ref_vol, input));
            assert_eq!(vol.total_pages(), ref_vol.total_pages(), "{what}");
        }
    }

    #[test]
    fn sort_order_charges_what_the_kept_file_reference_does() {
        for case in cases() {
            let (page_bytes, mem_bytes, n, ..) = case;
            let what = format!("{page_bytes}-byte pages, {mem_bytes} bytes, {n} records");
            let cfg = SortConfig {
                mem_bytes,
                page_bytes,
            };
            let cost = SortCost::default();
            let ((mut vol, mut pool, mut u), input, sorted) = case_input(&case);
            let (mut ref_vol, mut ref_pool, mut ref_u) = (vol.clone(), pool.clone(), u.clone());
            let (want, want_stats) =
                Reference::new(&mut ref_vol, &mut ref_pool, &mut ref_u, cfg).sort(input);

            let (run, pages, stats) =
                sort_order(&mut vol, &mut pool, input, &key_u32, cfg, &cost, &mut u);
            assert_eq!(stats, want_stats, "{what}");
            assert_eq!(u, ref_u, "{what}: ledger and disk request log");
            assert_eq!(pool.stats(), ref_pool.stats(), "{what}: pool hits, misses");
            assert_eq!(pool.peak_pages(), ref_pool.peak_pages(), "{what}");
            assert_eq!(run.file, want, "{what}: file id");
            assert_eq!(
                vol.file_pages(run.file),
                0,
                "{what}: the run holds no bytes"
            );
            assert_eq!(
                vol.file_pages(input),
                0,
                "{what}: the input's pages are taken"
            );
            assert_eq!(vol.total_pages(), 0, "{what}: no other file is left");
            let recs: Vec<&[u8]> = run
                .order
                .iter()
                .map(|&(_, (p, s))| pages[p as usize].get(s as usize).unwrap())
                .collect();
            assert!(
                recs.iter().copied().eq(sorted.iter().map(Vec::as_slice)),
                "{what}"
            );
            assert!(run
                .order
                .iter()
                .zip(&recs)
                .all(|(e, rec)| e.0 == key_u32(rec)));
            let shape = page_starts(&ref_vol, want);
            assert_eq!(run.starts, shape, "{what}: the kept file's page shape");
        }
    }

    #[test]
    fn cursors_place_records_and_charge_reads_as_heap_scans_do() {
        // Four sorted runs of 7-record pages with shared keys, their records
        // interleaved on the input's pages, read through a 3-frame pool.
        // From every place, a run's records are exactly what a scan of its
        // kept copy reads from there on; a cursor reads each run as that
        // scan does behind a one-record buffer; and the k-way merge of the
        // runs merges as the scan-based merge of the kept copies does. Both
        // charge the same ledger and the same pool hits and misses.
        let (mut vol, mut u) = (Volume::new(), Usage::ZERO);
        let mut pool = BufferPool::new(DiskConfig::fujitsu_8inch(), 3);
        let mut w = HeapWriter::create(&mut vol, 512);
        for i in 0..49u32 {
            for r in (0..4u32).filter(|&r| i < 10 + 13 * r) {
                let mut rec = (i * 3 / (r + 1)).to_le_bytes().to_vec();
                rec.extend_from_slice(&[r as u8; 30]);
                rec.extend_from_slice(&i.to_le_bytes());
                rec.extend_from_slice(&[0xAB; 26]);
                w.push(&mut vol, &mut pool, &mut u, &rec);
            }
        }
        let input = w.finish(&mut vol, &mut pool, &mut u);
        let pages = vol.detach_pages(input);
        let record = |(p, s): (u32, u32)| pages[p as usize].get(s as usize).unwrap();
        let orders: Vec<Vec<Indexed<u32>>> = (0..4u8)
            .map(|r| {
                let places = pages
                    .iter()
                    .enumerate()
                    .flat_map(|(p, page)| (0..page.len()).map(move |s| (p as u32, s as u32)));
                places
                    .filter(|&at| record(at)[4] == r)
                    .map(|at| (key_u32(record(at)), at))
                    .collect()
            })
            .collect();
        let (mut kept_vol, mut kept_pool, mut kept_u) = (vol.clone(), pool.clone(), u.clone());
        let cfg = SortConfig {
            mem_bytes: 1024,
            page_bytes: 512,
        };
        fn sorter<'a>(
            vol: &'a mut Volume,
            pool: &'a mut BufferPool,
            usage: &'a mut Usage,
            cfg: SortConfig,
            cost: &'a SortCost,
        ) -> Sorter<'a, u32> {
            let key = &key_u32;
            let stats = SortStats::default();
            Sorter {
                vol,
                pool,
                usage,
                key,
                cfg,
                cost,
                stats,
            }
        }
        let cost = SortCost::default();
        let runs: Vec<Run<u32>> = {
            let mut sorter = sorter(&mut vol, &mut pool, &mut u, cfg, &cost);
            orders
                .iter()
                .map(|o| sorter.write(&pages, o.clone()))
                .collect()
        };
        let files: Vec<FileId> = {
            let mut reference = Reference::new(&mut kept_vol, &mut kept_pool, &mut kept_u, cfg);
            let copy =
                |o: &Vec<Indexed<u32>>| o.iter().map(|&(_, at)| record(at).to_vec()).collect();
            orders.iter().map(|o| reference.write(copy(o))).collect()
        };
        assert_eq!(u, kept_u, "unkept runs charge what kept ones do");
        assert!(runs.iter().all(|r| r.starts.len() >= 2));
        let scanned: Vec<Vec<Vec<u8>>> =
            files.iter().map(|&f| file_records(&kept_vol, f)).collect();
        for ((run, &file), scanned) in runs.iter().zip(&files).zip(&scanned) {
            assert_eq!(run.file, file);
            assert_eq!(vol.file_pages(run.file), 0, "no bytes kept");
            let shape = page_starts(&kept_vol, file);
            assert_eq!(run.starts, shape, "the kept file's page shape");
            for at in 0..=scanned.len() {
                let rest = run.records(&pages, at).map(|(image, r)| &image[r]);
                assert!(rest.eq(scanned[at..].iter().map(Vec::as_slice)));
            }
        }

        let (mut c_pool, mut c_u) = (pool.clone(), u.clone());
        let (mut s_pool, mut s_u) = (kept_pool.clone(), kept_u.clone());
        for (run, &file) in runs.iter().zip(&files) {
            let mut cursor = Cursor::open(run, &mut c_pool, &mut c_u);
            let mut scan = HeapScan::open(&kept_vol, file);
            let mut held = scan.next_ref(&mut s_pool, &mut s_u);
            assert_eq!(c_u, s_u, "the first page's read");
            loop {
                let taken = cursor.taken();
                assert_eq!(cursor.peek().copied(), held.map(key_u32));
                let got = cursor.next(&mut c_pool, &mut c_u).copied();
                let want = held.take().map(key_u32);
                if want.is_some() {
                    held = scan.next_ref(&mut s_pool, &mut s_u);
                }
                assert_eq!(got, want);
                assert_eq!(c_u, s_u, "page-read charges at place {taken}");
                assert_eq!(c_pool.stats(), s_pool.stats(), "pool hits and misses");
                if got.is_none() {
                    assert_eq!(cursor.taken(), taken);
                    break;
                }
                assert_eq!(cursor.taken(), taken + 1);
            }
        }

        let (merged, stats) = {
            let mut sorter = sorter(&mut vol, &mut pool, &mut u, cfg, &cost);
            (sorter.merge_group(&pages, &runs), sorter.stats)
        };
        let want = heap_scan_merge(&kept_vol, &mut kept_pool, &mut kept_u, &files);
        let want_file = {
            let mut reference = Reference::new(&mut kept_vol, &mut kept_pool, &mut kept_u, cfg);
            reference.compares(want.len() as u64 * 2);
            let file = reference.write(want.iter().map(|(_, rec)| rec.clone()).collect());
            for &f in &files {
                reference.pool.evict_file(f);
                reference.vol.delete_file(f);
            }
            file
        };
        let got: Vec<(usize, Vec<u8>)> = merged
            .order
            .iter()
            .map(|&(_, at)| (record(at)[4] as usize, record(at).to_vec()))
            .collect();
        assert_eq!(got, want, "merge order");
        assert_eq!(u, kept_u, "page-read, compare, write and move charges");
        assert_eq!(pool.stats(), kept_pool.stats(), "pool hits and misses");
        assert_eq!(
            stats.comparisons,
            want.len() as u64 * 2,
            "log2(4) per record"
        );
        assert_eq!(merged.file, want_file);
        assert_eq!(merged.starts, page_starts(&kept_vol, want_file));
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
