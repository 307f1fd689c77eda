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

use bytes::{Buf, BufMut, BytesMut};

/// Size of the per-page header in bytes.
const HEADER: usize = 4;
/// Size of one slot-directory entry (offset u16 + length u16).
const SLOT: usize = 4;

/// A slotted page of records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    buf: BytesMut,
}

impl Page {
    /// An empty page of `page_bytes` total size (Gamma used 8 KB pages).
    ///
    /// # Panics
    /// Panics if the page is too small to hold the header plus one slot.
    pub fn new(page_bytes: usize) -> Self {
        assert!(
            page_bytes > HEADER + SLOT && page_bytes <= u16::MAX as usize + 1,
            "page size {page_bytes} out of range"
        );
        let mut buf = BytesMut::zeroed(page_bytes);
        // nslots = 0
        buf[0..2].copy_from_slice(&0u16.to_le_bytes());
        // free_end = page_bytes (records grow downward from the end)
        buf[2..4].copy_from_slice(&((page_bytes - 1) as u16).to_le_bytes());
        Page { buf }
    }

    /// Total size of the page in bytes.
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    fn nslots(&self) -> usize {
        u16::from_le_bytes([self.buf[0], self.buf[1]]) as usize
    }

    // free_end stores `page_bytes - 1` at creation so 8192-byte pages fit in
    // a u16; the real free boundary is free_end_raw + 1 when fresh. We track
    // the exact boundary instead via the stored value + 1.
    fn free_end(&self) -> usize {
        u16::from_le_bytes([self.buf[2], self.buf[3]]) as usize + 1
    }

    fn set_nslots(&mut self, n: usize) {
        self.buf[0..2].copy_from_slice(&(n as u16).to_le_bytes());
    }

    fn set_free_end(&mut self, e: usize) {
        self.buf[2..4].copy_from_slice(&((e - 1) as u16).to_le_bytes());
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.nslots()
    }

    /// Total bytes of the records stored (slot directory not counted).
    pub fn record_bytes(&self) -> usize {
        self.size() - self.free_end()
    }

    /// True when the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.nslots() == 0
    }

    /// Free bytes remaining for one more record (accounting for its slot).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER + self.nslots() * SLOT;
        let free = self.free_end().saturating_sub(dir_end);
        free.saturating_sub(SLOT)
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
    /// Panics on zero-length records (they would be indistinguishable from
    /// missing slots and never occur in the engine).
    pub fn insert(&mut self, rec: &[u8]) -> Option<usize> {
        assert!(!rec.is_empty(), "zero-length records are not supported");
        if !self.fits(rec.len()) {
            return None;
        }
        let slot = self.nslots();
        let end = self.free_end();
        let start = end - rec.len();
        self.buf[start..end].copy_from_slice(rec);
        let dir = HEADER + slot * SLOT;
        self.buf[dir..dir + 2].copy_from_slice(&(start as u16).to_le_bytes());
        self.buf[dir + 2..dir + 4].copy_from_slice(&(rec.len() as u16).to_le_bytes());
        self.set_nslots(slot + 1);
        self.set_free_end(start);
        Some(slot)
    }

    /// Overwrite the record in `slot` in place. The replacement must have
    /// exactly the original length (used by the byte-stream file layer,
    /// whose chunks are fixed size).
    ///
    /// # Panics
    /// Panics if the slot is out of range or the lengths differ.
    pub fn update(&mut self, slot: usize, rec: &[u8]) {
        assert!(slot < self.nslots(), "slot {slot} out of range");
        let dir = HEADER + slot * SLOT;
        let off = u16::from_le_bytes([self.buf[dir], self.buf[dir + 1]]) as usize;
        let len = u16::from_le_bytes([self.buf[dir + 2], self.buf[dir + 3]]) as usize;
        assert_eq!(len, rec.len(), "in-place update must preserve length");
        self.buf[off..off + len].copy_from_slice(rec);
    }

    /// Record stored in `slot`, or `None` if the slot is out of range.
    pub fn get(&self, slot: usize) -> Option<&[u8]> {
        if slot >= self.nslots() {
            return None;
        }
        let dir = HEADER + slot * SLOT;
        let mut d = &self.buf[dir..dir + 4];
        let off = d.get_u16_le() as usize;
        let len = d.get_u16_le() as usize;
        Some(&self.buf[off..off + len])
    }

    /// Iterate over the records in slot order.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.nslots()).map(move |s| self.get(s).expect("slot in range"))
    }

    /// Serialize the page (it already is its on-disk image).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Rebuild a page from its on-disk image.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut buf = BytesMut::with_capacity(bytes.len());
        buf.put_slice(bytes);
        Page { buf }
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
        assert_eq!(p.record_bytes(), 11);
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
