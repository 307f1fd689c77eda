//! Tuple batches — the data plane's unit between a scan and its consumers.
//!
//! A [`TupleBatch`] is an ordered list of records viewed as borrowed
//! slices (`&[u8]`). A record's bytes live in one of two places:
//!
//! * **on the page it was scanned from.** A scan pushes a handle to each
//!   WiSS page ([`TupleBatch::push_page`]; cloning a [`Page`] shares the
//!   segment it lies in) plus that page's slot ranges, and copies no
//!   record. The handles keep the bytes alive and unchanged while the file
//!   they came from is appended to or deleted. A scan sees the pages its
//!   file holds: a writer's pages join the file a segment at a time, and
//!   nothing scans a file while its writer is open;
//! * **in the batch's own arena**, for records that must outlive whatever
//!   buffer they were read from ([`TupleBatch::push`]).
//!
//! Split routing, bit filters and hashing read a record where it lies, and
//! a routed record leaves with its home page ([`TupleBatch::recs`] into
//! `StepCtx::send_rec`): a page-backed one travels as a reference to that
//! page, so its first copy is the consumer's — into a hash-table arena or
//! a page under construction — or none at all. Selections
//! ([`TupleBatch::retain_indices`]) drop range table entries and move no
//! bytes.
//!
//! None of this is visible to the virtual-cost model: ledgers charge per
//! logical tuple, per page read and per payload byte, and all three are
//! unchanged by where the host keeps the bytes in between.

use gamma_wiss::Page;

/// Set in a range's `start` when the record lies on a page: the remaining
/// bits are the page's index, and the range's `len` is
/// `offset within the page << PAGE_SHIFT | length`.
const ON_PAGE: u32 = 1 << 31;
/// A WiSS page is at most 64 KB, so an in-page offset and a record's
/// length fit 16 bits each.
const PAGE_SHIFT: u32 = 16;

/// One record of a batch with its home: the bytes (it derefs to them) and,
/// when they lie on a scanned page, that page's shared image — what lets
/// the exchange carry the record without copying it. It is the exchange's
/// message [`Part`](gamma_net::Part).
pub use gamma_net::Part as Rec;

/// An ordered batch of variable-length records, page-backed or owned.
#[derive(Debug, Clone, Default)]
pub struct TupleBatch {
    /// The owned arena: pushed records back to back.
    data: Vec<u8>,
    /// Handles of the scanned pages the page-backed records lie on.
    pages: Vec<Page>,
    /// `(start, len)` of each record: an arena offset and a length, or an
    /// [`ON_PAGE`] page index and the record's place on that page.
    ranges: Vec<(u32, u32)>,
}

impl TupleBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `tuples` records, `bytes` of them
    /// (in total) pushed into the arena.
    pub fn with_capacity(tuples: usize, bytes: usize) -> Self {
        TupleBatch {
            data: Vec::with_capacity(bytes),
            pages: Vec::new(),
            ranges: Vec::with_capacity(tuples),
        }
    }

    /// Append one record (copies its bytes into the arena).
    pub fn push(&mut self, rec: &[u8]) {
        let start = self.data.len();
        assert!(start < ON_PAGE as usize, "tuple batch arena exceeds 2 GiB");
        self.ranges.push((start as u32, rec.len() as u32));
        self.data.extend_from_slice(rec);
    }

    /// Append every record of `page`, in slot order, by reference: the
    /// batch keeps a handle to the page (and so to its segment) and copies
    /// nothing.
    ///
    /// # Panics
    /// Panics past 2^31 pages in one batch.
    pub fn push_page(&mut self, page: &Page) {
        let index = self.pages.len();
        assert!(index < ON_PAGE as usize, "tuple batch holds too many pages");
        let start = ON_PAGE | index as u32;
        self.ranges.extend(
            page.slots()
                .map(|(off, len)| (start, (off as u32) << PAGE_SHIFT | len as u32)),
        );
        self.pages.push(page.clone());
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Borrow record `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &[u8] {
        self.slice(self.ranges[i])
    }

    /// The range table — one opaque entry per record; resolve an entry
    /// with [`Self::slice`] or [`Self::rec`].
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Resolve a range from [`Self::ranges`] back to its record bytes.
    #[inline]
    pub fn slice(&self, range: (u32, u32)) -> &[u8] {
        self.rec(range).bytes()
    }

    /// Resolve a range from [`Self::ranges`] to its record and home.
    #[inline]
    pub fn rec(&self, (start, len): (u32, u32)) -> Rec<'_> {
        if start & ON_PAGE == 0 {
            Rec::from(&self.data[start as usize..][..len as usize])
        } else {
            let page = &self.pages[(start & !ON_PAGE) as usize];
            let off = page.offset() + (len >> PAGE_SHIFT) as usize;
            let len = (len & ((1 << PAGE_SHIFT) - 1)) as usize;
            Rec::shared(page.image(), off..off + len)
        }
    }

    /// Iterate the records in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + Clone {
        self.ranges.iter().map(|&r| self.slice(r))
    }

    /// Iterate the records in insertion order, each with its home page —
    /// for a producer that sends them on (`StepCtx::send_rec`).
    pub fn recs(&self) -> impl ExactSizeIterator<Item = Rec<'_>> + Clone {
        self.ranges.iter().map(|&r| self.rec(r))
    }

    /// Drop every record and page handle but keep the allocations for
    /// reuse.
    pub fn clear(&mut self) {
        self.data.clear();
        self.pages.clear();
        self.ranges.clear();
    }

    /// Keep only the records whose index satisfies `keep` (stable order).
    /// Only the range table shrinks; dropped records' bytes stay where
    /// they are until the batch is cleared or dropped.
    pub fn retain_indices(&mut self, keep: impl Fn(usize) -> bool) {
        let mut i = 0;
        self.ranges.retain(|_| {
            i += 1;
            keep(i - 1)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng, StdRng};

    #[test]
    fn push_get_iter_roundtrip() {
        let mut b = TupleBatch::new();
        assert!(b.is_empty());
        b.push(&[1, 2, 3]);
        b.push(&[]);
        b.push(&[4]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0), &[1, 2, 3]);
        assert_eq!(b.get(1), &[] as &[u8]);
        assert_eq!(b.get(2), &[4]);
        let all: Vec<&[u8]> = b.iter().collect();
        assert_eq!(all, vec![&[1, 2, 3][..], &[][..], &[4][..]]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = TupleBatch::with_capacity(4, 32);
        b.push(&[7; 8]);
        let cap = b.data.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.data.capacity(), cap);
    }

    #[test]
    fn largest_page_resolves_at_its_last_byte() {
        let mut p = Page::new(65536);
        p.insert(&[9]).unwrap();
        let mut b = TupleBatch::new();
        b.push(&[1]);
        b.push_page(&Page::new(64));
        b.push_page(&p);
        assert_eq!(b.len(), 2, "an empty page adds no record");
        assert_eq!(b.get(1), &[9], "offset 65535 of page 1");
    }

    #[test]
    fn more_than_32768_page_handles_resolve() {
        let mut p = Page::new(64);
        p.insert(&[7; 56]).unwrap();
        let mut b = TupleBatch::new();
        b.push(&[1]);
        for _ in 0..32_769 {
            b.push_page(&p);
        }
        assert_eq!(b.len(), 32_770);
        assert_eq!(b.get(32_769), &[7; 56], "the record of page 32 768");
        let (image, at) = b.recs().last().unwrap().home().unwrap();
        assert_eq!(&image.bytes()[at..][..56], &[7; 56]);
    }

    /// Any interleaving of page pushes, `push` and `retain_indices` reads
    /// back exactly the records of an owned model, through every accessor.
    #[test]
    fn interleaved_batches_match_an_owned_model() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut batch = TupleBatch::new();
            let mut model: Vec<Vec<u8>> = Vec::new();
            let rec = |rng: &mut StdRng, max: usize| -> Vec<u8> {
                let n = rng.gen_range(1..=max);
                (0..n).map(|_| rng.gen_range(0..=255u16) as u8).collect()
            };
            for _ in 0..rng.gen_range(1..40usize) {
                match rng.gen_range(0..3u32) {
                    0 => {
                        let mut page = Page::new(rng.gen_range(64..2048usize));
                        for _ in 0..rng.gen_range(0..12usize) {
                            let r = rec(&mut rng, 40);
                            if page.insert(&r).is_some() {
                                model.push(r);
                            }
                        }
                        batch.push_page(&page);
                    }
                    1 => {
                        let r = rec(&mut rng, 300);
                        batch.push(&r);
                        model.push(r);
                    }
                    _ => {
                        let keep: Vec<bool> = model.iter().map(|_| rng.gen_bool(0.7)).collect();
                        batch.retain_indices(|i| keep[i]);
                        let mut k = keep.iter();
                        model.retain(|_| *k.next().unwrap());
                    }
                }
            }
            assert_eq!(batch.len(), model.len(), "seed {seed}");
            assert_eq!(batch.is_empty(), model.is_empty(), "seed {seed}");
            assert!(
                batch.iter().eq(model.iter().map(Vec::as_slice)),
                "seed {seed}"
            );
            for (i, want) in model.iter().enumerate() {
                assert_eq!(batch.get(i), want.as_slice(), "seed {seed} get({i})");
                assert_eq!(batch.slice(batch.ranges()[i]), want.as_slice());
            }
            for (rec, want) in batch.recs().zip(&model) {
                assert_eq!(&*rec, want.as_slice(), "seed {seed} recs()");
                if let Some((image, off)) = rec.home() {
                    assert_eq!(&image.bytes()[off..][..rec.len()], want.as_slice());
                }
            }
        }
    }
}
