//! Heap files: structured sequential files of records.
//!
//! [`HeapWriter`] buffers one page in memory and writes it to the volume
//! when full (charging the write I/O); [`HeapScan`] reads a file back in
//! sequence (charging reads through the pool). These are the WiSS services
//! used for base relations, Grace/Hybrid bucket files, Simple-hash overflow
//! files, sort runs and result relations.

use gamma_des::Usage;

use crate::disk::{FileId, Volume};
use crate::page::PageBuilder;
use crate::pool::BufferPool;

/// Buffered appender for one heap file.
#[derive(Debug)]
pub struct HeapWriter {
    file: FileId,
    cur: PageBuilder,
    records: u64,
}

impl HeapWriter {
    /// Start writing to a freshly created file on `vol`.
    pub fn create(vol: &mut Volume, page_bytes: usize) -> Self {
        let file = vol.create_file();
        HeapWriter {
            file,
            cur: PageBuilder::new(page_bytes),
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

    /// Append one record, spilling the buffered page when full.
    ///
    /// # Panics
    /// Panics if the record cannot fit even in an empty page.
    pub fn push(&mut self, vol: &mut Volume, pool: &mut BufferPool, usage: &mut Usage, rec: &[u8]) {
        if self.cur.insert(rec).is_none() {
            assert!(
                !self.cur.is_empty(),
                "record of {} bytes exceeds page capacity",
                rec.len()
            );
            self.spill(vol, pool, usage);
            self.cur
                .insert(rec)
                .unwrap_or_else(|| panic!("record of {} bytes exceeds page capacity", rec.len()));
        }
        self.records += 1;
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
        if self.cur.insert_concat(a, b).is_none() {
            let len = a.len() + b.len();
            assert!(
                !self.cur.is_empty(),
                "record of {len} bytes exceeds page capacity"
            );
            self.spill(vol, pool, usage);
            self.cur
                .insert_concat(a, b)
                .unwrap_or_else(|| panic!("record of {len} bytes exceeds page capacity"));
        }
        self.records += 1;
    }

    fn spill(&mut self, vol: &mut Volume, pool: &mut BufferPool, usage: &mut Usage) {
        let idx = vol.append_page(self.file, self.cur.seal());
        pool.charge_write(self.file, idx, usage);
    }

    /// Flush the final partial page and return the file id.
    pub fn finish(mut self, vol: &mut Volume, pool: &mut BufferPool, usage: &mut Usage) -> FileId {
        if !self.cur.is_empty() {
            self.spill(vol, pool, usage);
        }
        self.file
    }
}

/// Sequential scan over a heap file, charging reads as pages are entered.
///
/// [`HeapScan::next_ref`] yields records as slices borrowed from the
/// volume, so the volume stays borrowed for as long as a record is in
/// use: it serves readers that consume each record at once (the sort's
/// run merger, tests). The engine's fragment scans instead clone the
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
    use super::*;
    use crate::disk::DiskConfig;

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
        for i in 0..40u8 {
            w.push(&mut vol, &mut pool, &mut u, &[i; 208]);
        }
        let f = w.file();
        assert_eq!(vol.file_pages(f), 1, "38 records spilled, 2 buffered");
        let held = vol.page(f, 0).clone();
        let before: Vec<Vec<u8>> = held.records().map(<[u8]>::to_vec).collect();

        // More appends to the same file add pages; the held one is as it was.
        for i in 40..80u8 {
            w.push(&mut vol, &mut pool, &mut u, &[i; 208]);
        }
        w.finish(&mut vol, &mut pool, &mut u);
        assert_eq!(vol.file_pages(f), 3);
        assert_eq!(vol.page(f, 0), &held);

        // Deleting the file does not take the bytes from under the handle.
        vol.delete_file(f);
        assert!(!vol.exists(f));
        assert!(held.records().eq(before.iter().map(Vec::as_slice)));
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
}
