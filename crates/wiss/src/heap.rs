//! Heap files: structured sequential files of records.
//!
//! [`HeapWriter`] fills its pages in place, in a staging run of
//! [`SEGMENT_PAGES`](crate::page::SEGMENT_PAGES) pages it takes from the
//! volume, and charges each page's write when the page is full (and the
//! last, partial one at `finish`), in page order. The pages become visible
//! in the file a run at a time — one shared segment each — when the run is
//! full and at `finish`; nothing reads a file while its writer is open.
//! A writer opened with [`HeapWriter::create_unkept`] is for a file nothing
//! will read: it lays its pages out by record length alone, and charges,
//! seals and counts every page as a kept writer does, at the same records.
//! It takes no staging run and copies no record bytes, so its file stays
//! empty.
//! [`HeapScan`] reads a file back in sequence (charging reads through the
//! pool). These are the WiSS services used for base relations, Grace/Hybrid
//! bucket files, Simple-hash overflow files, sort runs and result
//! relations.

use gamma_des::Usage;

use crate::disk::{FileId, Volume};
use crate::page::{Layout, Staging};
use crate::pool::BufferPool;

/// Buffered appender for one heap file.
#[derive(Debug)]
pub struct HeapWriter {
    file: FileId,
    fill: Fill,
    /// Pages sealed so far: the index of the page being filled.
    pages: usize,
    records: u64,
}

/// Where a writer fills the page it is on.
#[derive(Debug)]
enum Fill {
    /// In a staging run whose full runs are published into the file.
    Kept(Staging),
    /// By record length alone: the file nothing reads stays empty.
    Unkept(Layout),
}

impl Fill {
    /// Place a `len`-byte record on the page being filled, writing its
    /// bytes with `write` when they are kept: its slot, or `None` if it
    /// does not fit.
    fn insert(
        &mut self,
        len: usize,
        write: impl FnOnce(&mut Staging) -> Option<usize>,
    ) -> Option<usize> {
        match self {
            Fill::Kept(run) => write(run),
            Fill::Unkept(page) => page.insert(len),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Fill::Kept(run) => run.is_empty(),
            Fill::Unkept(page) => page.is_empty(),
        }
    }
}

impl HeapWriter {
    /// Start writing to a freshly created file on `vol`, in a staging run
    /// of `vol`'s.
    pub fn create(vol: &mut Volume, page_bytes: usize) -> Self {
        let file = vol.create_file();
        Self::open(file, Fill::Kept(vol.take_run(page_bytes)))
    }

    /// Start writing a file that nothing will read — a query result no
    /// caller keeps, a sort run read only through its order. Every page is
    /// charged and counted as [`Self::create`]'s writer charges it, on the
    /// same file id and pool frames, but no record byte is written: the
    /// file stays empty.
    pub fn create_unkept(vol: &mut Volume, page_bytes: usize) -> Self {
        Self::open(vol.create_file(), Fill::Unkept(Layout::new(page_bytes)))
    }

    fn open(file: FileId, fill: Fill) -> Self {
        HeapWriter {
            file,
            fill,
            pages: 0,
            records: 0,
        }
    }

    /// The file being written.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Pages sealed so far: the index of the page the last record went to.
    pub(crate) fn pages(&self) -> usize {
        self.pages
    }

    /// Append one record, sealing the page being filled when full.
    ///
    /// # Panics
    /// Panics if the record cannot fit even in an empty page.
    pub fn push(&mut self, vol: &mut Volume, pool: &mut BufferPool, usage: &mut Usage, rec: &[u8]) {
        self.append(vol, pool, usage, rec.len(), |run| run.insert(rec));
    }

    /// Append the record `a ‖ b` — a composed join result, its two halves
    /// wherever they lie — written straight into the page being filled.
    ///
    /// # Panics
    /// Panics if the record cannot fit even in an empty page.
    pub fn push_concat(
        &mut self,
        vol: &mut Volume,
        pool: &mut BufferPool,
        usage: &mut Usage,
        a: &[u8],
        b: &[u8],
    ) {
        let len = a.len() + b.len();
        self.append(vol, pool, usage, len, |run| run.insert_concat(a, b));
    }

    /// Place a `len`-byte record, sealing the page being filled first when
    /// it does not fit there; `write` writes its bytes into a kept run.
    fn append(
        &mut self,
        vol: &mut Volume,
        pool: &mut BufferPool,
        usage: &mut Usage,
        len: usize,
        write: impl Fn(&mut Staging) -> Option<usize>,
    ) {
        if self.fill.insert(len, &write).is_none() {
            assert!(
                !self.fill.is_empty(),
                "record of {len} bytes exceeds page capacity"
            );
            self.seal(vol, pool, usage);
            self.fill
                .insert(len, &write)
                .unwrap_or_else(|| panic!("record of {len} bytes exceeds page capacity"));
        }
        self.records += 1;
    }

    /// Charge the write of the page being filled and close it, publishing
    /// a kept run when that filled it.
    fn seal(&mut self, vol: &mut Volume, pool: &mut BufferPool, usage: &mut Usage) {
        pool.charge_write(self.file, self.pages, usage);
        self.pages += 1;
        match &mut self.fill {
            Fill::Kept(run) => {
                if run.seal() {
                    vol.append_pages(self.file, run.publish());
                }
            }
            Fill::Unkept(page) => page.seal(),
        }
    }

    /// Write the final partial page, publish what a kept run holds and
    /// give the run back to `vol`, and return the file id.
    pub fn finish(mut self, vol: &mut Volume, pool: &mut BufferPool, usage: &mut Usage) -> FileId {
        if !self.fill.is_empty() {
            self.seal(vol, pool, usage);
        }
        if let Fill::Kept(mut run) = self.fill {
            if run.sealed() > 0 {
                vol.append_pages(self.file, run.publish());
            }
            vol.return_run(run);
        }
        self.file
    }
}

/// Sequential scan over a heap file, charging reads as pages are entered.
///
/// [`HeapScan::next_ref`] yields records as slices borrowed from the
/// volume, so the volume stays borrowed for as long as a record is in
/// use: it serves readers that consume each record at once (tests, the
/// benchmark's scan kernel). A sort run, whose file holds no bytes, is
/// read by a [`Cursor`](crate::sort::Cursor), which charges the same read
/// per page. The engine's fragment scans instead clone the
/// file's [`Page`](crate::Page) handles into a tuple batch (`gamma_core::exec`),
/// charging the same read per page in the same order, and keep reading
/// the records while they write to the volume.
pub struct HeapScan<'a> {
    vol: &'a Volume,
    file: FileId,
    page_idx: usize,
    slot: usize,
    pages: usize,
}

impl<'a> HeapScan<'a> {
    /// Open a scan on `file`.
    pub fn open(vol: &'a Volume, file: FileId) -> Self {
        let pages = vol.file_pages(file);
        HeapScan {
            vol,
            file,
            page_idx: 0,
            slot: 0,
            pages,
        }
    }

    /// Fetch the next record as a slice borrowed from the volume (no
    /// copy), charging page reads to `usage` via `pool`.
    pub fn next_ref(&mut self, pool: &mut BufferPool, usage: &mut Usage) -> Option<&'a [u8]> {
        loop {
            if self.page_idx >= self.pages {
                return None;
            }
            if self.slot == 0 {
                pool.charge_read(self.file, self.page_idx, usage);
            }
            let page = self.vol.page(self.file, self.page_idx);
            match page.get(self.slot) {
                Some(rec) => {
                    self.slot += 1;
                    return Some(rec);
                }
                None => {
                    self.page_idx += 1;
                    self.slot = 0;
                }
            }
        }
    }

    /// Drain the scan into a vector (test/convenience helper).
    pub fn collect_all(mut self, pool: &mut BufferPool, usage: &mut Usage) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(r) = self.next_ref(pool, usage) {
            out.push(r.to_vec());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::disk::DiskConfig;
    use crate::page::SEGMENT_PAGES;

    fn setup() -> (Volume, BufferPool, Usage) {
        (
            Volume::new(),
            BufferPool::new(DiskConfig::fujitsu_8inch(), 8),
            Usage::ZERO,
        )
    }

    #[test]
    fn write_then_scan_roundtrips() {
        let (mut vol, mut pool, mut u) = setup();
        let mut w = HeapWriter::create(&mut vol, 8192);
        for i in 0..1000u32 {
            w.push(&mut vol, &mut pool, &mut u, &i.to_le_bytes());
        }
        assert_eq!(w.records(), 1000);
        let f = w.finish(&mut vol, &mut pool, &mut u);
        pool.clear();
        let got = HeapScan::open(&vol, f).collect_all(&mut pool, &mut u);
        assert_eq!(got.len(), 1000);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.as_slice(), &(i as u32).to_le_bytes());
        }
    }

    #[test]
    fn page_count_matches_capacity() {
        let (mut vol, mut pool, mut u) = setup();
        let mut w = HeapWriter::create(&mut vol, 8192);
        let rec = [9u8; 208];
        for _ in 0..100 {
            w.push(&mut vol, &mut pool, &mut u, &rec);
        }
        let f = w.finish(&mut vol, &mut pool, &mut u);
        // 38 per page -> 100 records = 3 pages.
        assert_eq!(vol.file_pages(f), 3);
        assert_eq!(u.counts.pages_written, 3);
        assert_eq!(vol.file_records(f), 100);
    }

    #[test]
    fn scan_charges_one_read_per_page() {
        let (mut vol, mut pool, mut u) = setup();
        let mut w = HeapWriter::create(&mut vol, 8192);
        for _ in 0..76 {
            w.push(&mut vol, &mut pool, &mut u, &[1u8; 208]);
        }
        let f = w.finish(&mut vol, &mut pool, &mut u);
        pool.clear();
        let mut ru = Usage::ZERO;
        let _ = HeapScan::open(&vol, f).collect_all(&mut pool, &mut ru);
        assert_eq!(ru.counts.pages_read, 2);
    }

    #[test]
    fn cloned_pages_keep_the_bytes_they_were_taken_from() {
        let (mut vol, mut pool, mut u) = setup();
        let mut w = HeapWriter::create(&mut vol, 8192);
        let f = w.file();
        let mut push = |w: &mut HeapWriter, vol: &mut Volume, i: u32| {
            w.push(vol, &mut pool, &mut u, &[i as u8; 208]);
            u.counts.pages_written
        };
        // 38 records a page: the 305th seals the eighth page.
        for i in 0..304 {
            push(&mut w, &mut vol, i);
        }
        assert_eq!(
            push(&mut w, &mut vol, 304),
            8,
            "each page charged as it fills"
        );
        assert_eq!(vol.file_pages(f), 8, "a full run is published at once");
        let held = vol.page(f, 0).clone();
        let before: Vec<Vec<u8>> = held.records().map(<[u8]>::to_vec).collect();

        // Sealed pages of the next run wait for it; `finish` publishes them
        // and the partial last page; the held page is as it was.
        for i in 305..400 {
            push(&mut w, &mut vol, i);
        }
        assert_eq!(u.counts.pages_written, 10);
        assert_eq!(vol.file_pages(f), 8, "not visible while the writer is open");
        w.finish(&mut vol, &mut pool, &mut u);
        assert_eq!((vol.file_pages(f), u.counts.pages_written), (11, 11));
        assert_eq!(vol.file_records(f), 400);
        assert_eq!(vol.page(f, 0), &held);

        // Deleting the file does not take the bytes from under the handle.
        vol.delete_file(f);
        assert!(!vol.exists(f));
        assert!(held.records().eq(before.iter().map(Vec::as_slice)));
    }

    #[test]
    fn a_writer_publishes_one_segment_per_run() {
        for n in [1usize, 7, 8, 9, 16, 17, 40] {
            let (mut vol, mut pool, mut u) = setup();
            let mut w = HeapWriter::create(&mut vol, 512);
            // A 500-byte record fills a 512-byte page.
            for i in 0..n {
                w.push(&mut vol, &mut pool, &mut u, &[i as u8; 500]);
            }
            let f = w.finish(&mut vol, &mut pool, &mut u);
            assert_eq!((vol.file_pages(f), u.counts.pages_written), (n, n as u64));
            let mut images: Vec<&Arc<[u8]>> = Vec::new();
            for p in 0..n {
                let image = vol.page(f, p).image();
                if !images.iter().any(|i| Arc::ptr_eq(i, image)) {
                    images.push(image);
                }
            }
            assert_eq!(images.len(), n.div_ceil(SEGMENT_PAGES), "{n} pages");
        }
    }

    #[test]
    fn writers_take_the_run_given_back_last() {
        let (mut vol, mut pool, mut u) = setup();
        let a = HeapWriter::create(&mut vol, 8192);
        let mut b = HeapWriter::create(&mut vol, 8192);
        let run = |w: &HeapWriter| match &w.fill {
            Fill::Kept(run) => run.as_ptr(),
            Fill::Unkept(_) => panic!("a kept writer stages in a run"),
        };
        let (run_a, run_b) = (run(&a), run(&b));
        assert_ne!(run_a, run_b, "open writers hold a run each");
        b.push(&mut vol, &mut pool, &mut u, &[1; 208]);
        a.finish(&mut vol, &mut pool, &mut u);
        b.finish(&mut vol, &mut pool, &mut u);
        let c = HeapWriter::create(&mut vol, 8192);
        let other = HeapWriter::create(&mut vol, 512);
        let d = HeapWriter::create(&mut vol, 8192);
        assert_eq!(run(&c), run_b, "the run given back last");
        assert_eq!(run(&d), run_a);
        assert!(
            ![run_a, run_b].contains(&run(&other)),
            "runs keep their page size"
        );
        for w in [c, other, d] {
            w.finish(&mut vol, &mut pool, &mut u);
        }
    }

    #[test]
    fn an_unkept_writer_charges_what_a_kept_one_does() {
        // 38 records a page: 400 records are ten full pages, across one
        // run boundary, and a partial last page.
        let recs: Vec<[u8; 208]> = (0..400u32).map(|i| [i as u8; 208]).collect();
        let write = |create: fn(&mut Volume, usize) -> HeapWriter, keep: bool| {
            let (mut vol, mut pool, mut u) = setup();
            let mut w = create(&mut vol, 8192);
            assert_eq!(matches!(w.fill, Fill::Kept(_)), keep, "stages in a run");
            for (i, r) in recs.iter().enumerate() {
                match i % 2 {
                    0 => w.push(&mut vol, &mut pool, &mut u, r),
                    _ => w.push_concat(&mut vol, &mut pool, &mut u, &r[..100], &r[100..]),
                }
            }
            assert_eq!(w.records(), 400);
            let f = w.finish(&mut vol, &mut pool, &mut u);
            assert_eq!(
                vol.idle_runs(),
                usize::from(keep),
                "a kept writer gives its run back; an unkept one takes none"
            );
            // Which of the file's pages the pool holds: a read of a
            // resident page is a hit.
            let resident: Vec<bool> = (0..12)
                .map(|p| pool.clone().charge_read(f, p, &mut Usage::default()))
                .collect();
            (vol, f, u, resident, pool.peak_pages())
        };
        let (kept, kf, ku, k_frames, k_peak) = write(HeapWriter::create, true);
        let (unkept, uf, uu, u_frames, u_peak) = write(HeapWriter::create_unkept, false);
        assert_eq!(kf, uf, "same file id");
        assert_eq!(ku.counts.pages_written, 11);
        assert_eq!(ku, uu, "same pages written, disk time and events");
        assert_eq!(k_frames, u_frames, "same pool frames");
        assert_eq!(k_frames.iter().filter(|&&r| r).count(), 8);
        assert_eq!(k_peak, u_peak);
        assert_eq!((kept.file_pages(kf), kept.file_records(kf)), (11, 400));
        assert_eq!((unkept.file_pages(uf), unkept.total_pages()), (0, 0));
    }

    #[test]
    fn empty_file_scan_yields_nothing() {
        let (mut vol, mut pool, mut u) = setup();
        let w = HeapWriter::create(&mut vol, 8192);
        let f = w.finish(&mut vol, &mut pool, &mut u);
        assert_eq!(vol.file_pages(f), 0);
        assert!(HeapScan::open(&vol, f)
            .collect_all(&mut pool, &mut u)
            .is_empty());
    }

    #[test]
    fn variable_length_records() {
        let (mut vol, mut pool, mut u) = setup();
        let mut w = HeapWriter::create(&mut vol, 512);
        let recs: Vec<Vec<u8>> = (1..60usize).map(|n| vec![n as u8; n]).collect();
        for r in &recs {
            w.push(&mut vol, &mut pool, &mut u, r);
        }
        let f = w.finish(&mut vol, &mut pool, &mut u);
        pool.clear();
        let got = HeapScan::open(&vol, f).collect_all(&mut pool, &mut u);
        assert_eq!(got, recs);
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_record_panics() {
        let (mut vol, mut pool, mut u) = setup();
        let mut w = HeapWriter::create(&mut vol, 128);
        w.push(&mut vol, &mut pool, &mut u, &[0u8; 500]);
    }

    #[test]
    #[should_panic(expected = "record of 500 bytes exceeds page capacity")]
    fn oversized_record_panics_unkept_too() {
        // After a page that holds a record: the page is sealed first, and
        // the record fits the empty page no better.
        let (mut vol, mut pool, mut u) = setup();
        let mut w = HeapWriter::create_unkept(&mut vol, 128);
        w.push(&mut vol, &mut pool, &mut u, &[0u8; 8]);
        w.push_concat(&mut vol, &mut pool, &mut u, &[0u8; 250], &[0u8; 250]);
    }
}
