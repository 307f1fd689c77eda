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
//! A stored page's byte image is reference-counted: cloning a [`Page`]
//! shares it, so a scan hands out page handles instead of copying records,
//! and a handle keeps reading the bytes it was taken from whatever later
//! happens to the file. A stored page is immutable once sealed: no volume
//! operation writes into it. A writer fills a `PageBuilder` — plain owned
//! bytes, no sharing to check on every insert — and seals each full page
//! into a `Page` with the one allocation and the one pass over its bytes
//! that zero-filling a fresh page used to cost.

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
    assert!(
        page_bytes > HEADER + SLOT && page_bytes <= u16::MAX as usize + 1,
        "page size {page_bytes} out of range"
    );
    buf[2..4].copy_from_slice(&((page_bytes - 1) as u16).to_le_bytes());
}

/// Take the next slot for a `len`-byte record: its slot number and the
/// range its bytes go to, or `None` if it does not fit.
///
/// # Panics
/// Panics on zero-length records (they would be indistinguishable from
/// missing slots and never occur in the engine).
fn take_slot(buf: &mut [u8], len: usize) -> Option<(usize, Range<usize>)> {
    assert!(len > 0, "zero-length records are not supported");
    if len > free_space(buf) {
        return None;
    }
    let slot = nslots(buf);
    let end = free_end(buf);
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

/// A slotted page of records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    buf: Arc<[u8]>,
}

impl Page {
    /// An empty page of `page_bytes` total size (Gamma used 8 KB pages).
    ///
    /// # Panics
    /// Panics if the page is too small to hold the header plus one slot.
    pub fn new(page_bytes: usize) -> Self {
        // One allocation: the exact-size iterator is written straight into
        // the shared image.
        let mut page = Page {
            buf: std::iter::repeat_n(0u8, page_bytes).collect(),
        };
        format(page.image_mut());
        page
    }

    /// The image for writing: in place while this is its only handle,
    /// otherwise a private copy first.
    fn image_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.buf).is_none() {
            self.buf = Arc::from(&self.buf[..]);
        }
        Arc::get_mut(&mut self.buf).expect("page image uniquely owned")
    }

    /// Total size of the page in bytes.
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        nslots(&self.buf)
    }

    /// True when the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free bytes remaining for one more record (accounting for its slot).
    pub fn free_space(&self) -> usize {
        free_space(&self.buf)
    }

    /// True if a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        len <= self.free_space()
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
        Some(&self.buf[off..off + len])
    }

    /// Where the record in `slot` lies within [`Self::image`].
    ///
    /// # Panics
    /// Panics if the slot is out of range.
    pub fn range(&self, slot: usize) -> Range<usize> {
        assert!(slot < self.len(), "slot {slot} out of range");
        let (off, len) = self.slot(slot);
        off..off + len
    }

    /// `(offset, length)` of the record in `slot` within [`Self::as_bytes`].
    fn slot(&self, slot: usize) -> (usize, usize) {
        let dir = HEADER + slot * SLOT;
        let mut d = &self.buf[dir..dir + 4];
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
        &self.buf
    }

    /// The shared byte image behind [`Self::as_bytes`]: a clone of it keeps
    /// these bytes readable, unchanged, for as long as the clone lives.
    pub fn image(&self) -> &Arc<[u8]> {
        &self.buf
    }

    /// Rebuild a page from its on-disk image.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Page {
            buf: Arc::from(bytes),
        }
    }
}

/// A page under construction, owned by one writer and reused from page
/// to page: [`PageBuilder::seal`] copies what was inserted into a fresh
/// shareable [`Page`] and starts over empty.
#[derive(Debug)]
pub(crate) struct PageBuilder {
    buf: Vec<u8>,
}

impl PageBuilder {
    /// An empty page of `page_bytes` total size.
    ///
    /// # Panics
    /// Panics if the page is too small to hold the header plus one slot.
    pub fn new(page_bytes: usize) -> Self {
        let mut buf = vec![0u8; page_bytes];
        format(&mut buf);
        PageBuilder { buf }
    }

    /// True when no record was inserted since the last seal.
    pub fn is_empty(&self) -> bool {
        nslots(&self.buf) == 0
    }

    /// Insert a record as [`Page::insert`] does.
    pub fn insert(&mut self, rec: &[u8]) -> Option<usize> {
        insert(&mut self.buf, rec)
    }

    /// Insert the record `a ‖ b` as [`Page::insert`] inserts one slice,
    /// writing both parts straight into the page.
    pub fn insert_concat(&mut self, a: &[u8], b: &[u8]) -> Option<usize> {
        let (slot, at) = take_slot(&mut self.buf, a.len() + b.len())?;
        let (head, tail) = self.buf[at].split_at_mut(a.len());
        head.copy_from_slice(a);
        tail.copy_from_slice(b);
        Some(slot)
    }

    /// The page built so far — byte for byte what the same inserts into a
    /// [`Page::new`] give — leaving the builder empty.
    pub fn seal(&mut self) -> Page {
        let page = Page {
            buf: Arc::from(&self.buf[..]),
        };
        // Zero what the records and their slots dirtied, nothing more.
        let dir_end = HEADER + nslots(&self.buf) * SLOT;
        let records = free_end(&self.buf);
        self.buf[..dir_end].fill(0);
        self.buf[records..].fill(0);
        format(&mut self.buf);
        page
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
    fn sealed_builder_pages_equal_pages_built_in_place() {
        // One-slice and two-part inserts, alternating, into a builder
        // reused across seals — the two-part ones split anywhere, one part
        // empty included — give the same slots and, once sealed, the same
        // image as whole-record inserts into a new page; the insert that no
        // longer fits is refused by both.
        let mut b = PageBuilder::new(512);
        for round in 0..4u8 {
            let mut p = Page::new(512);
            assert!(b.is_empty());
            let mut n = 0u8;
            loop {
                let rec: Vec<u8> = (0..1 + (n as usize * 7) % 60)
                    .map(|i| round ^ n ^ i as u8)
                    .collect();
                let cut = (n as usize * 13 + round as usize) % (rec.len() + 1);
                let slot = p.insert(&rec);
                if slot.is_none() {
                    assert_eq!(b.insert(&rec), None, "round {round}");
                    assert_eq!(b.insert_concat(&rec[..cut], &rec[cut..]), None);
                    break;
                }
                let got = match (n + round) % 2 {
                    0 => b.insert(&rec),
                    _ => b.insert_concat(&rec[..cut], &rec[cut..]),
                };
                assert_eq!(got, slot, "round {round}, record {n}");
                n += 1;
            }
            assert!(n > 5);
            assert_eq!(b.seal(), p, "round {round}: same image, stale bytes zeroed");
        }
        assert_eq!(b.seal(), Page::new(512), "an empty builder seals empty");
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_two_part_records_rejected() {
        PageBuilder::new(1024).insert_concat(b"", b"");
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
