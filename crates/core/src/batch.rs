//! Arena-backed tuple batches — the zero-copy data plane's staging type.
//!
//! The simulator's per-tuple unit of work used to be an owned `Vec<u8>`,
//! which put one heap allocation (and one free) on the hot path of every
//! scanned, routed, spooled, and restored tuple. A [`TupleBatch`] stages a
//! whole fragment in two allocations: one contiguous byte buffer holding
//! every record back to back, plus a `(start, len)` range table. Records
//! are viewed as borrowed slices (`&[u8]` — the natural `TupleRef`), so
//! downstream consumers (split routing, `Outbox::send`, hash-table
//! insertion, spool writers) copy each tuple at most once, into their own
//! arena or frame buffer.
//!
//! None of this is visible to the virtual-cost model: ledgers charge per
//! logical tuple and per payload byte, and both are unchanged by how the
//! host stores the bytes in between.

/// A batch of variable-length records in one contiguous buffer.
#[derive(Debug, Clone, Default)]
pub struct TupleBatch {
    data: Vec<u8>,
    /// `(start, len)` of each record within `data`.
    ranges: Vec<(u32, u32)>,
}

impl TupleBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `tuples` records totalling `bytes`.
    pub fn with_capacity(tuples: usize, bytes: usize) -> Self {
        TupleBatch {
            data: Vec::with_capacity(bytes),
            ranges: Vec::with_capacity(tuples),
        }
    }

    /// Append one record (copies its bytes into the arena).
    pub fn push(&mut self, rec: &[u8]) {
        self.ranges.push((self.data.len() as u32, rec.len() as u32));
        self.data.extend_from_slice(rec);
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total payload bytes staged.
    pub fn bytes(&self) -> usize {
        self.data.len()
    }

    /// Borrow record `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &[u8] {
        let (start, len) = self.ranges[i];
        &self.data[start as usize..(start + len) as usize]
    }

    /// The `(start, len)` range table — one entry per record. Handy for
    /// chunked fan-out (`par_map` over ranges, resolve via [`Self::slice`]).
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Resolve a range from [`Self::ranges`] back to its record bytes.
    pub fn slice(&self, (start, len): (u32, u32)) -> &[u8] {
        &self.data[start as usize..(start + len) as usize]
    }

    /// Iterate the records in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + Clone {
        self.ranges
            .iter()
            .map(|&(start, len)| &self.data[start as usize..(start + len) as usize])
    }

    /// Append one record formed by concatenating `a ++ b` (a composed join
    /// output) without materializing the concatenation first.
    pub fn push_concat(&mut self, a: &[u8], b: &[u8]) {
        self.ranges
            .push((self.data.len() as u32, (a.len() + b.len()) as u32));
        self.data.extend_from_slice(a);
        self.data.extend_from_slice(b);
    }

    /// Drop every record but keep the allocations for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
        self.ranges.clear();
    }

    /// Keep only the records whose index satisfies `keep`, compacting the
    /// arena in place (stable order, no new allocation).
    pub fn retain_indices(&mut self, keep: impl Fn(usize) -> bool) {
        let mut write = 0usize;
        let mut out = 0usize;
        for i in 0..self.ranges.len() {
            if !keep(i) {
                continue;
            }
            let (start, len) = self.ranges[i];
            let (start, len) = (start as usize, len as usize);
            if start != write {
                self.data.copy_within(start..start + len, write);
            }
            self.ranges[out] = (write as u32, len as u32);
            write += len;
            out += 1;
        }
        self.ranges.truncate(out);
        self.data.truncate(write);
    }
}

impl<'a> IntoIterator for &'a TupleBatch {
    type Item = &'a [u8];
    type IntoIter = Box<dyn Iterator<Item = &'a [u8]> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(
            self.ranges
                .iter()
                .map(|&(start, len)| &self.data[start as usize..(start + len) as usize]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter_roundtrip() {
        let mut b = TupleBatch::new();
        assert!(b.is_empty());
        b.push(&[1, 2, 3]);
        b.push(&[]);
        b.push(&[4]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.bytes(), 4);
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
    fn retain_compacts_in_place() {
        let mut b = TupleBatch::new();
        for i in 0..5u8 {
            b.push(&[i, i, i]);
        }
        b.retain_indices(|i| i % 2 == 0);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0), &[0, 0, 0]);
        assert_eq!(b.get(1), &[2, 2, 2]);
        assert_eq!(b.get(2), &[4, 4, 4]);
        assert_eq!(b.bytes(), 9);
    }
}
