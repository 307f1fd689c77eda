//! Slotted pages.
//!
//! Classic slotted-page layout over a fixed-size byte buffer:
//!
//! ```text
//! +--------+-----------+----------------------+------------------+
//! | nslots | free_end  | slot dir (off,len)*  |  ...free...  |recs|
//! +--------+-----------+----------------------+------------------+
//!   u16        u16        4 bytes per slot      records grow <-
//! ```
//!
//! Records are immutable once inserted (the join engine never updates in
//! place; temp files are written once and scanned). Variable-length records
//! are supported because the composed join output tuples are wider than the
//! source tuples.
//!
//! A stored page is a view into a reference-counted **segment**: one
//! `Arc<[u8]>` holding up to [`SEGMENT_PAGES`] consecutive pages of one
//! file. Cloning a [`Page`] shares the segment, so a scan hands out page
//! handles instead of copying records, and a handle keeps reading the
//! bytes it was taken from whatever later happens to the file — and keeps
//! its whole segment alive while it does. A stored page is immutable once
//! published: no volume operation writes into it.
//!
//! A writer fills its pages in place, in a staging run of
//! [`SEGMENT_PAGES`] pages that its volume owns and hands from writer to
//! writer. A page is sealed when it is full (the writer charges its write
//! then), but it becomes visible in its file only when its run is
//! published as one segment: when the run is full, and at the writer's
//! `finish`. Publishing is the one allocation and the one pass over the
//! bytes of up to [`SEGMENT_PAGES`] pages. A writer whose file nothing
//! reads lays its pages out by record length alone (`Layout`): one rule
//! decides where a page is full for both, so it seals and charges the
//! same pages at the same records, and it holds and copies no bytes.

use std::ops::Range;
use std::sync::Arc;

use bytes::Buf;

/// Size of the per-page header in bytes.
const HEADER: usize = 4;
/// Size of one slot-directory entry (offset u16 + length u16).
const SLOT: usize = 4;

fn nslots(buf: &[u8]) -> usize {
    u16::from_le_bytes([buf[0], buf[1]]) as usize
}

// The header stores `free_end - 1` so an 8192..=65536-byte page's boundary
// fits a u16.
fn free_end(buf: &[u8]) -> usize {
    u16::from_le_bytes([buf[2], buf[3]]) as usize + 1
}

/// The slotted-page fit rule: whether a `len`-byte record fits on a page
/// of `page_bytes` that holds `slots` records of `bytes` bytes in all. The
/// record's bytes and its own slot-directory entry must both fit between
/// the directory and the records.
fn fits(slots: usize, bytes: usize, len: usize, page_bytes: usize) -> bool {
    HEADER + (slots + 1) * SLOT + bytes + len <= page_bytes
}

fn free_space(buf: &[u8]) -> usize {
    let dir_end = HEADER + nslots(buf) * SLOT;
    let free = free_end(buf).saturating_sub(dir_end);
    free.saturating_sub(SLOT)
}

/// Make the zeroed image `buf` an empty page: no slots (the zeros say so),
/// records grow downward from the end.
///
/// # Panics
/// Panics if the page is too small to hold the header plus one slot.
fn format(buf: &mut [u8]) {
    let page_bytes = buf.len();
    check_size(page_bytes);
    buf[2..4].copy_from_slice(&((page_bytes - 1) as u16).to_le_bytes());
}

/// Check that a page of `page_bytes` can be formatted.
///
/// # Panics
/// Panics if a page of `page_bytes` cannot hold the header plus one slot,
/// or its boundary does not fit the header.
fn check_size(page_bytes: usize) {
    assert!(
        page_bytes > HEADER + SLOT && page_bytes <= u16::MAX as usize + 1,
        "page size {page_bytes} out of range"
    );
}

/// Take the next slot for a `len`-byte record: its slot number and the
/// range its bytes go to, or `None` if it does not fit.
///
/// # Panics
/// Panics on zero-length records (they would be indistinguishable from
/// missing slots and never occur in the engine).
fn take_slot(buf: &mut [u8], len: usize) -> Option<(usize, Range<usize>)> {
    assert!(len > 0, "zero-length records are not supported");
    let (slot, end) = (nslots(buf), free_end(buf));
    if !fits(slot, buf.len() - end, len, buf.len()) {
        return None;
    }
    let start = end - len;
    let dir = HEADER + slot * SLOT;
    buf[dir..dir + 2].copy_from_slice(&(start as u16).to_le_bytes());
    buf[dir + 2..dir + 4].copy_from_slice(&(len as u16).to_le_bytes());
    buf[0..2].copy_from_slice(&((slot + 1) as u16).to_le_bytes());
    buf[2..4].copy_from_slice(&((start - 1) as u16).to_le_bytes());
    Some((slot, start..end))
}

/// Insert a record, returning its slot number, or `None` if it does not
/// fit.
fn insert(buf: &mut [u8], rec: &[u8]) -> Option<usize> {
    let (slot, at) = take_slot(buf, rec.len())?;
    buf[at].copy_from_slice(rec);
    Some(slot)
}

/// Pages in a segment: a writer stages this many in place and publishes
/// them as one shared image. A constant, not a knob — every open writer
/// holds one run of this many pages.
pub const SEGMENT_PAGES: usize = 8;

/// Make a used page image empty again: zero what its records and slots
/// dirtied, nothing more, and format it.
fn reset(buf: &mut [u8]) {
    let dir_end = HEADER + nslots(buf) * SLOT;
    let records = free_end(buf);
    buf[..dir_end].fill(0);
    buf[records..].fill(0);
    format(buf);
}

/// A slotted page of records: a view of one page of a shared segment.
#[derive(Debug, Clone)]
pub struct Page {
    seg: Arc<[u8]>,
    /// Where the page starts within `seg`.
    at: u32,
    /// The page's size in bytes.
    size: u32,
}

impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Page {}

impl Page {
    /// An empty page of `page_bytes` total size (Gamma used 8 KB pages),
    /// alone in its segment.
    ///
    /// # Panics
    /// Panics if the page is too small to hold the header plus one slot.
    pub fn new(page_bytes: usize) -> Self {
        // One allocation: the exact-size iterator is written straight into
        // the shared image.
        let mut seg: Arc<[u8]> = std::iter::repeat_n(0u8, page_bytes).collect();
        format(Arc::get_mut(&mut seg).expect("a new image has one handle"));
        Page {
            seg,
            at: 0,
            size: page_bytes as u32,
        }
    }

    /// The page's bytes for writing: in place while this is its segment's
    /// only handle, otherwise in a private copy of the page first.
    fn image_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.seg).is_none() {
            *self = Page::from_bytes(self.as_bytes());
        }
        let (at, size) = (self.at as usize, self.size as usize);
        &mut Arc::get_mut(&mut self.seg).expect("segment uniquely owned")[at..at + size]
    }

    /// Total size of the page in bytes.
    pub fn size(&self) -> usize {
        self.size as usize
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        nslots(self.as_bytes())
    }

    /// True when the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free bytes remaining for one more record (accounting for its slot).
    pub fn free_space(&self) -> usize {
        free_space(self.as_bytes())
    }

    /// True if a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        let used = self.size() - free_end(self.as_bytes());
        fits(self.len(), used, len, self.size())
    }

    /// Number of records of fixed size `rec` that fit in an empty page of
    /// `page_bytes` — 38 Wisconsin tuples (208 B) per 8 KB page.
    pub fn capacity_for(page_bytes: usize, rec: usize) -> usize {
        (page_bytes - HEADER) / (rec + SLOT)
    }

    /// Insert a record, returning its slot number, or `None` if it does not
    /// fit.
    ///
    /// # Panics
    /// Panics on zero-length records.
    pub fn insert(&mut self, rec: &[u8]) -> Option<usize> {
        insert(self.image_mut(), rec)
    }

    /// Record stored in `slot`, or `None` if the slot is out of range.
    pub fn get(&self, slot: usize) -> Option<&[u8]> {
        if slot >= self.len() {
            return None;
        }
        let (off, len) = self.slot(slot);
        Some(&self.as_bytes()[off..off + len])
    }

    /// Where the record in `slot` lies within [`Self::image`].
    ///
    /// # Panics
    /// Panics if the slot is out of range.
    pub fn range(&self, slot: usize) -> Range<usize> {
        assert!(slot < self.len(), "slot {slot} out of range");
        let (off, len) = self.slot(slot);
        let start = self.offset() + off;
        start..start + len
    }

    /// `(offset, length)` of the record in `slot` within [`Self::as_bytes`].
    fn slot(&self, slot: usize) -> (usize, usize) {
        let dir = HEADER + slot * SLOT;
        let mut d = &self.as_bytes()[dir..dir + 4];
        (d.get_u16_le() as usize, d.get_u16_le() as usize)
    }

    /// `(offset, length)` of every record within [`Self::as_bytes`], in
    /// slot order — what a reader holding a clone of this page needs to
    /// find the records without copying them.
    pub fn slots(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        (0..self.len()).map(move |s| self.slot(s))
    }

    /// Iterate over the records in slot order.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |s| self.get(s).expect("slot in range"))
    }

    /// Serialize the page (it already is its on-disk image).
    pub fn as_bytes(&self) -> &[u8] {
        &self.seg[self.at as usize..][..self.size as usize]
    }

    /// The shared segment behind [`Self::as_bytes`], which starts at
    /// [`Self::offset`] in it: a clone of it keeps these bytes readable,
    /// unchanged, for as long as the clone lives — and the segment's other
    /// pages with them.
    pub fn image(&self) -> &Arc<[u8]> {
        &self.seg
    }

    /// Where the page starts within [`Self::image`].
    pub fn offset(&self) -> usize {
        self.at as usize
    }

    /// Rebuild a page from its on-disk image, alone in its segment.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Page {
            seg: Arc::from(bytes),
            at: 0,
            size: bytes.len() as u32,
        }
    }
}

/// A staging run: [`SEGMENT_PAGES`] pages one writer fills in place, one
/// after another, and publishes as one segment. Runs belong to a volume,
/// which hands a closed writer's run to the next writer it opens.
#[derive(Debug, Clone)]
pub(crate) struct Staging {
    buf: Box<[u8]>,
    page_bytes: usize,
    /// Pages sealed since the last publish; the page being filled follows.
    sealed: usize,
}

impl Staging {
    /// A run of empty pages of `page_bytes` total size each.
    ///
    /// # Panics
    /// Panics if a page is too small to hold the header plus one slot.
    pub fn new(page_bytes: usize) -> Self {
        let mut buf = vec![0u8; SEGMENT_PAGES * page_bytes].into_boxed_slice();
        buf.chunks_exact_mut(page_bytes).for_each(format);
        Staging {
            buf,
            page_bytes,
            sealed: 0,
        }
    }

    /// Size of each page of the run.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Where the run's bytes lie, to tell runs apart.
    #[cfg(test)]
    pub fn as_ptr(&self) -> *const u8 {
        self.buf.as_ptr()
    }

    /// Pages sealed and not yet published.
    pub fn sealed(&self) -> usize {
        self.sealed
    }

    /// The page being filled.
    fn page(&mut self) -> &mut [u8] {
        let pb = self.page_bytes;
        &mut self.buf[self.sealed * pb..][..pb]
    }

    /// True when no record was inserted into the page being filled.
    pub fn is_empty(&self) -> bool {
        nslots(&self.buf[self.sealed * self.page_bytes..]) == 0
    }

    /// Insert a record into the page being filled, as [`Page::insert`]
    /// does.
    pub fn insert(&mut self, rec: &[u8]) -> Option<usize> {
        insert(self.page(), rec)
    }

    /// Insert the record `a ‖ b` as [`Page::insert`] inserts one slice,
    /// writing both parts straight into the page being filled.
    pub fn insert_concat(&mut self, a: &[u8], b: &[u8]) -> Option<usize> {
        let page = self.page();
        let (slot, at) = take_slot(page, a.len() + b.len())?;
        let (head, tail) = page[at].split_at_mut(a.len());
        head.copy_from_slice(a);
        tail.copy_from_slice(b);
        Some(slot)
    }

    /// Close the page being filled and move on to the next; true when that
    /// filled the run, which must then be published.
    pub fn seal(&mut self) -> bool {
        debug_assert!(self.sealed < SEGMENT_PAGES, "a full run is published");
        self.sealed += 1;
        self.sealed == SEGMENT_PAGES
    }

    /// Publish the sealed pages as one segment — each byte for byte what
    /// the same inserts into a [`Page::new`] give — and start the run over
    /// empty, in place.
    pub fn publish(&mut self) -> impl Iterator<Item = Page> {
        let (pb, n) = (self.page_bytes, std::mem::take(&mut self.sealed));
        let seg: Arc<[u8]> = Arc::from(&self.buf[..n * pb]);
        self.buf[..n * pb].chunks_exact_mut(pb).for_each(reset);
        (0..n).map(move |i| Page {
            seg: Arc::clone(&seg),
            at: (i * pb) as u32,
            size: pb as u32,
        })
    }
}

/// A page laid out by record length alone: how many records it holds and
/// how many bytes they take, placed by the rule [`Staging::insert`] places
/// records by, and none of their bytes. A writer whose file nothing reads
/// fills these, so it seals its pages at the records a staging writer
/// seals them at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    page_bytes: usize,
    slots: usize,
    bytes: usize,
}

impl Layout {
    /// An empty page of `page_bytes` total size.
    ///
    /// # Panics
    /// Panics if the page is too small to hold the header plus one slot.
    pub fn new(page_bytes: usize) -> Self {
        check_size(page_bytes);
        Layout {
            page_bytes,
            slots: 0,
            bytes: 0,
        }
    }

    /// True when no record was placed on the page.
    pub fn is_empty(&self) -> bool {
        self.slots == 0
    }

    /// Place a `len`-byte record, returning its slot number, or `None` if
    /// it does not fit.
    ///
    /// # Panics
    /// Panics on zero-length records, as [`Staging::insert`] does.
    pub fn insert(&mut self, len: usize) -> Option<usize> {
        assert!(len > 0, "zero-length records are not supported");
        if !fits(self.slots, self.bytes, len, self.page_bytes) {
            return None;
        }
        self.slots += 1;
        self.bytes += len;
        Some(self.slots - 1)
    }

    /// Close the page and start the next one, empty.
    pub fn seal(&mut self) {
        (self.slots, self.bytes) = (0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get_roundtrip() {
        let mut p = Page::new(8192);
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(2), None);
    }

    #[test]
    fn records_iterates_in_slot_order() {
        let mut p = Page::new(8192);
        for i in 0..10u8 {
            p.insert(&[i; 16]).unwrap();
        }
        let recs: Vec<_> = p.records().collect();
        assert_eq!(recs.len(), 10);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(*r, &[i as u8; 16]);
        }
    }

    #[test]
    fn fills_to_capacity_exactly() {
        let mut p = Page::new(8192);
        let rec = [7u8; 208];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        assert_eq!(n, Page::capacity_for(8192, 208));
        assert_eq!(n, 38, "38 Wisconsin tuples per 8 KB page");
        assert!(!p.fits(208));
    }

    #[test]
    fn wide_result_tuples_fit_fewer() {
        // Composed joinABprime output tuples are 416 bytes.
        assert_eq!(Page::capacity_for(8192, 416), 19);
    }

    #[test]
    fn reject_overfull_record_but_allow_large() {
        let mut p = Page::new(256);
        assert!(p.insert(&[0u8; 300]).is_none());
        assert!(p.insert(&[0u8; 200]).is_some());
    }

    #[test]
    fn serialization_roundtrip() {
        let mut p = Page::new(4096);
        p.insert(b"abc").unwrap();
        p.insert(b"defgh").unwrap();
        let q = Page::from_bytes(p.as_bytes());
        assert_eq!(p, q);
        assert_eq!(q.get(1), Some(&b"defgh"[..]));
    }

    #[test]
    fn published_pages_equal_pages_built_in_place() {
        // One-slice and two-part inserts, alternating, into a staging run
        // — the two-part ones split anywhere, one part empty included —
        // give the same slots and, once published, the same image as
        // whole-record inserts into a new page; the insert that no longer
        // fits is refused by both. Twenty pages cross two run boundaries
        // and end in a publish in the middle of a run, as a writer's
        // `finish` does. The same run then serves a second file, as a run
        // given back to its volume does.
        let mut run = Staging::new(512);
        for file in 0..2u8 {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            for page in 0..20u8 {
                let round = page ^ file << 5;
                let mut p = Page::new(512);
                assert!(run.is_empty());
                let mut n = 0u8;
                loop {
                    let rec: Vec<u8> = (0..1 + (n as usize * 7 + file as usize) % 60)
                        .map(|i| round ^ n ^ i as u8)
                        .collect();
                    let cut = (n as usize * 13 + round as usize) % (rec.len() + 1);
                    let slot = p.insert(&rec);
                    if slot.is_none() {
                        assert_eq!(run.insert(&rec), None, "page {page}");
                        assert_eq!(run.insert_concat(&rec[..cut], &rec[cut..]), None);
                        break;
                    }
                    let got = match (n + round) % 2 {
                        0 => run.insert(&rec),
                        _ => run.insert_concat(&rec[..cut], &rec[cut..]),
                    };
                    assert_eq!(got, slot, "page {page}, record {n}");
                    n += 1;
                }
                assert!(n > 5);
                want.push(p);
                if run.seal() {
                    got.extend(run.publish());
                }
            }
            assert_eq!(run.sealed(), 4, "a run in the middle");
            got.extend(run.publish());
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    got, want,
                    "file {file} page {i}: same image, stale bytes zeroed"
                );
                assert_eq!(got.size(), 512);
                assert_eq!(got.offset(), i % SEGMENT_PAGES * 512);
                let first = &got.image()[got.range(0)];
                assert_eq!(Some(first), want.get(0), "ranges lie within the segment");
            }
            assert_eq!(got.len(), want.len());
            let segments = [(0, 8), (8, 8), (16, 4)];
            for (first, pages) in segments {
                let seg = got[first].image();
                assert_eq!(seg.len(), pages * 512, "file {file}: published pages only");
                assert!(got[first..first + pages]
                    .iter()
                    .all(|p| Arc::ptr_eq(p.image(), seg)));
            }
        }
        assert!(run.is_empty());
        assert_eq!(run.publish().count(), 0, "an empty run publishes nothing");
    }

    #[test]
    fn a_published_run_stages_as_a_new_one() {
        let fill = |run: &mut Staging, salt: u8| {
            for page in 0..3u8 {
                for n in 1..40u8 {
                    if run.insert(&[salt ^ page ^ n; 11]).is_none() {
                        break;
                    }
                }
                run.seal();
            }
        };
        let mut used = Staging::new(256);
        fill(&mut used, 0x5a);
        assert_eq!(used.sealed(), 3);
        assert_eq!(used.publish().count(), 3);
        assert_eq!((used.sealed(), used.is_empty()), (0, true));
        let mut fresh = Staging::new(256);
        fill(&mut used, 1);
        fill(&mut fresh, 1);
        assert!(used.publish().eq(fresh.publish()), "stale bytes zeroed");
    }

    #[test]
    fn a_layout_seals_where_a_staging_run_does() {
        // Random lengths, short and long, on small and Gamma-sized pages:
        // the by-length layout takes the slot a staging run takes for
        // every record, refuses the same records, and so seals its pages
        // at the same records; the staged pages read back intact.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for (page_bytes, longest) in [(64, 56), (512, 200), (8192, 420), (8192, 8000)] {
            let (mut run, mut layout) = (Staging::new(page_bytes), Layout::new(page_bytes));
            let (mut want, mut got) = (Vec::new(), Vec::new());
            let mut page = Vec::new();
            let mut seals = 0;
            for i in 0..2000u64 {
                let rec: Vec<u8> = (0..1 + next(longest)).map(|b| (b ^ i) as u8).collect();
                let slot = run.insert(&rec);
                assert_eq!(layout.insert(rec.len()), slot, "{page_bytes}: record {i}");
                if slot.is_none() {
                    assert!(!layout.is_empty() && !run.is_empty());
                    layout.seal();
                    seals += 1;
                    want.push(std::mem::take(&mut page));
                    if run.seal() {
                        got.extend(run.publish());
                    }
                    assert_eq!(layout.insert(rec.len()), run.insert(&rec));
                }
                page.push(rec);
            }
            assert!(seals > 10, "{page_bytes}: {seals} pages");
            got.extend(run.publish());
            assert_eq!(got.len(), want.len());
            for (got, want) in got.iter().zip(&want) {
                assert!(got.records().eq(want.iter().map(Vec::as_slice)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn a_layout_rejects_zero_length_records() {
        Layout::new(1024).insert(0);
    }

    #[test]
    fn a_page_written_after_sharing_copies_only_itself() {
        let mut run = Staging::new(256);
        run.insert(b"first").unwrap();
        run.seal();
        run.insert(b"second").unwrap();
        run.seal();
        let pages: Vec<Page> = run.publish().collect();
        let mut p = pages[1].clone();
        p.insert(b"third").unwrap();
        assert_eq!(p.size(), 256);
        assert_eq!(p.offset(), 0, "a private copy of the one page");
        assert!(p.records().eq([&b"second"[..], b"third"]));
        assert!(
            pages[1].records().eq([&b"second"[..]]),
            "the shared page is as it was"
        );
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_two_part_records_rejected() {
        Staging::new(1024).insert_concat(b"", b"");
    }

    #[test]
    fn free_space_decreases_monotonically() {
        let mut p = Page::new(1024);
        let mut last = p.free_space();
        while p.insert(&[1u8; 50]).is_some() {
            let now = p.free_space();
            assert!(now < last);
            last = now;
        }
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_records_rejected() {
        Page::new(1024).insert(b"");
    }

    #[test]
    fn small_and_max_page_sizes() {
        let mut p = Page::new(64);
        assert!(p.insert(&[1u8; 32]).is_some());
        let p = Page::new(65536); // u16::MAX + 1, the largest representable
        assert_eq!(p.size(), 65536);
    }
}
