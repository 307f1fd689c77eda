//! The memory-capped join hash table with Simple-hash overflow clearing.
//!
//! Section 4.1 of the paper describes the mechanism in detail: tuples are
//! inserted into a chained hash table; a histogram over an auxiliary hash
//! (`h'`) of the join attribute is maintained; when the table exceeds its
//! memory allotment, a **cutoff** is chosen from the histogram so that
//! clearing every resident tuple whose `h'` lies above it frees ~10 % of
//! the table's memory. Subsequently arriving tuples above the cutoff are
//! *diverted* straight to the overflow file without entering the table. If
//! the table fills again the heuristic re-fires, lowering the cutoff — each
//! invocation increases the fraction of arrivals diverted, as the paper
//! notes.
//!
//! The table stores real tuples; probes return real matches and the chain
//! lengths actually walked (average 3.3 with the paper's normal attribute).
//!
//! # Host representation
//!
//! Three allocations per table while it builds and one when it is frozen,
//! none per chain, per tuple or per probe:
//!
//! * the **chain array** — a `(head, tail)` pair of entry indices per
//!   chain bucket (8 bytes), made with the table;
//! * the **entry vector** — one 24-byte [`Entry`] `(hprime, val, start,
//!   len, next)` per stored tuple. A chain is threaded through it by
//!   `next`; a new entry is appended at its chain's tail, an evicted
//!   entry's slot goes on a free list (also threaded through `next`) and
//!   is the first to be reused;
//! * the **arena** — one contiguous byte buffer every stored tuple is
//!   copied into once. Entries hold `(start, len)` ranges into it; offers
//!   take `&[u8]` and evictions come back as [`TupleRange`]s resolved via
//!   [`JoinHashTable::slice`]. Evicted ranges stay valid — eviction
//!   unlinks the entry but leaves the bytes (the garbage is bounded by the
//!   bytes spooled, which the overflow files hold anyway), so an arena
//!   offset is checked against the 4 GiB a `u32` range can address.
//!
//! Entry vector and arena are reserved **once, at the first store, from
//! the memory grant** the table enforces anyway: as many tuples of the
//! first one's size as `capacity_bytes` admits, bounded by the number of
//! chain buckets (itself capped at 2^20), so an unbounded grant reserves
//! nothing in proportion to itself and a table that never receives a
//! tuple reserves nothing at all. Only eviction garbage, or tuples much
//! smaller than the first, grow either past that reservation.
//!
//! Once the build has settled the table is **frozen**
//! ([`JoinHashTable::freeze`]): the arena becomes a shared image as it
//! stands — moved behind a reference count, not copied; one small
//! allocation. A probe's result then travels to the store as a reference
//! to that image ([`JoinHashTable::shared`]) plus one to the probing
//! tuple's page, and is composed only where it is stored. Building into a
//! frozen table panics.
//!
//! A probe is a walk, not a collection: [`JoinHashTable::probe_ranges`]
//! walks the chain once for the first match, the match count and the
//! chain length, and returns a borrowed [`Matches`] view that re-walks
//! from the first match when iterated.
//!
//! What the simulation observes is pinned exactly (a `#[cfg(test)]`
//! model with one vector per chain is driven beside the table): the
//! bucket is `h' & mask`, a probe compares the whole chain, matches come
//! in chain order, and a clearing evicts bucket by bucket in the order a
//! `swap_remove` sweep of the chain yields — eviction order is the `R'`
//! spool-file order, hence the next pass's arrival order and every
//! charge after it. The memory *model* (`used_bytes` vs `capacity_bytes`)
//! counts live tuples only.

use std::sync::Arc;

use crate::batch::Rec;
use crate::hash::hash_u32;

/// Number of histogram cells over the `h'` range (top 8 bits of the hash).
const HIST_CELLS: usize = 256;
const HIST_SHIFT: u32 = 56;

/// "No entry": ends a chain and the free list, marks an empty bucket.
const NIL: u32 = u32::MAX;

/// `(start, len)` of a stored tuple within its table's arena; resolve with
/// [`JoinHashTable::slice`].
pub type TupleRange = (u32, u32);

/// `h'` histogram cell of `val` under `seed` — the same cell boundaries the
/// table's clearing heuristic uses, computable without the table (restore
/// planning runs at the overflow home node, not the join site).
#[inline]
pub fn hprime_cell_of(seed: u64, val: u32) -> usize {
    (hash_u32(seed, val) >> HIST_SHIFT) as usize
}

/// Outcome of offering a tuple to the table.
#[derive(Debug, PartialEq, Eq)]
pub enum Offer {
    /// Tuple is resident in the table.
    Stored,
    /// Tuple's `h'` is above the current cutoff; the caller (who still
    /// holds the slice it offered) must spool it to the overflow file.
    Diverted,
    /// The table overflowed: the clearing heuristic ran. `evicted` ranges
    /// must be spooled; the incoming tuple was stored unless its `h'` lies
    /// in the cleared range, in which case `diverted` is true and the
    /// caller must spool its own slice.
    Overflowed {
        /// Tuples cleared from the table, with their join-attribute values
        /// and arena ranges.
        evicted: Vec<(u32, TupleRange)>,
        /// Whether the incoming tuple, too, must be spooled.
        diverted: bool,
        /// Entries the clearing pass had to examine (the whole resident
        /// table — §4.1's "CPU overhead required to repeatedly search the
        /// hash table").
        scanned: u64,
    },
}

/// One stored tuple, linked into its chain (or the free list) by `next`.
struct Entry {
    hprime: u64,
    val: u32,
    start: u32,
    len: u32,
    next: u32,
}

/// First and last entry of one chain bucket, [`NIL`] when empty.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

const EMPTY: Chain = Chain {
    head: NIL,
    tail: NIL,
};

/// The arena range of a `tuple_len`-byte tuple appended at `arena_len`.
/// Evicted bytes stay in the arena, so a long overflow run can fill the
/// 4 GiB a `u32` range addresses; a wrapped offset would alias an earlier
/// tuple, so this is a hard check.
fn arena_range(arena_len: usize, tuple_len: usize) -> TupleRange {
    let end = arena_len as u64 + tuple_len as u64;
    assert!(
        end <= u32::MAX as u64,
        "join hash table arena exceeds 4 GiB ({arena_len} + {tuple_len} bytes)"
    );
    (arena_len as u32, tuple_len as u32)
}

/// The index of a new entry appended to `entries_len` existing ones; it
/// must stay below the [`NIL`] sentinel.
fn entry_index(entries_len: usize) -> u32 {
    assert!(
        entries_len < NIL as usize,
        "join hash table holds {entries_len} entries, the most a u32 link addresses"
    );
    entries_len as u32
}

/// The matches of one probe: a view of the probed chain from its first
/// matching entry. Nothing is collected — [`iter`](Self::iter) walks the
/// chain again — so a probe allocates nothing however many matches it has.
#[derive(Clone, Copy)]
pub struct Matches<'a> {
    table: &'a JoinHashTable,
    val: u32,
    first: u32,
    n: u32,
}

impl<'a> Matches<'a> {
    /// Number of matches.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when the probe missed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterate the match ranges in chain order.
    pub fn iter(&self) -> impl Iterator<Item = TupleRange> + 'a {
        let Matches { table, val, n, .. } = *self;
        let mut at = self.first;
        (0..n).map(move |_| loop {
            let e = &table.entries[at as usize];
            at = e.next;
            if e.val == val {
                break (e.start, e.len);
            }
        })
    }

    /// `(val, first, n)`: the view without its borrow, for a probe whose
    /// outcome is computed on one thread and applied on another. Valid
    /// for [`JoinHashTable::matches_at`] until the table is next mutated.
    pub(crate) fn key(&self) -> (u32, u32, u32) {
        (self.val, self.first, self.n)
    }
}

/// A join hash table capped at `capacity_bytes`.
pub struct JoinHashTable {
    chains: Vec<Chain>,
    entries: Vec<Entry>,
    /// Head of the list of evicted entry slots.
    free: u32,
    /// One chain's entry indices during a clearing, kept between clearings.
    sweep: Vec<u32>,
    mask: u64,
    arena: Vec<u8>,
    /// The arena, once the table is frozen for probing.
    frozen: Option<Arc<Vec<u8>>>,
    capacity_bytes: u64,
    used_bytes: u64,
    entry_overhead: u64,
    hprime_seed: u64,
    /// Bytes resident per `h'` histogram cell (held inline: 2 KB, no
    /// allocation of its own).
    histogram: [u64; HIST_CELLS],
    cutoff: Option<u64>,
    len: u64,
}

impl JoinHashTable {
    /// A table with `capacity_bytes` of memory, chain buckets sized for
    /// `expected_tuple_bytes` records, and the site/pass-specific `h'`
    /// seed `hprime_seed`.
    pub fn new(capacity_bytes: u64, expected_tuple_bytes: u64, hprime_seed: u64) -> Self {
        let want = (capacity_bytes / expected_tuple_bytes.max(1)).clamp(16, 1 << 20);
        let nbuckets = want.next_power_of_two() as usize;
        JoinHashTable {
            chains: vec![EMPTY; nbuckets],
            entries: Vec::new(),
            free: NIL,
            sweep: Vec::new(),
            mask: nbuckets as u64 - 1,
            arena: Vec::new(),
            frozen: None,
            capacity_bytes,
            used_bytes: 0,
            entry_overhead: 8,
            hprime_seed,
            histogram: [0; HIST_CELLS],
            cutoff: None,
            len: 0,
        }
    }

    /// Number of resident tuples.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no tuples are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of memory in use (tuples + per-entry overhead).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// The current `h'` cutoff, if the table has overflowed. Producers use
    /// this (via the augmented split table) to divert tuples straight to
    /// the overflow files.
    pub fn cutoff(&self) -> Option<u64> {
        self.cutoff
    }

    /// `h'` of a join-attribute value under this table's seed.
    #[inline]
    pub fn hprime(&self, val: u32) -> u64 {
        hash_u32(self.hprime_seed, val)
    }

    /// Seed of the `h'` function (snapshotted into augmented split tables
    /// so scanning producers evaluate `h'` without the table).
    pub fn hprime_seed(&self) -> u64 {
        self.hprime_seed
    }

    /// Resolve an arena range (from an eviction or probe) to tuple bytes.
    #[inline]
    pub fn slice(&self, (start, len): TupleRange) -> &[u8] {
        let arena = self.frozen.as_deref().unwrap_or(&self.arena);
        &arena[start as usize..start as usize + len as usize]
    }

    /// End the build: share the arena as it stands, so that probe results
    /// can reference the stored bytes ([`Self::shared`]) rather than copy
    /// them. Every range stays valid; a later offer panics. Idempotent.
    pub fn freeze(&mut self) {
        if self.frozen.is_none() {
            self.frozen = Some(Arc::new(std::mem::take(&mut self.arena)));
        }
    }

    /// A stored tuple as a message part on the frozen image, sent by
    /// reference.
    ///
    /// # Panics
    /// Panics unless the table is frozen.
    #[inline]
    pub fn shared(&self, (start, len): TupleRange) -> Rec<'_> {
        let image = self
            .frozen
            .as_ref()
            .expect("probe results need a frozen table");
        Rec::shared(image, start as usize..start as usize + len as usize)
    }

    fn entry_bytes(&self, tuple_len: usize) -> u64 {
        tuple_len as u64 + self.entry_overhead
    }

    fn store(&mut self, val: u32, hprime: u64, tuple: &[u8]) {
        let bytes = self.entry_bytes(tuple.len());
        if self.entries.capacity() == 0 {
            // As many tuples like this one as the grant admits, and no
            // more than there are chain buckets.
            let slots = (self.capacity_bytes / bytes).min(self.chains.len() as u64) as usize;
            self.entries.reserve_exact(slots);
            self.arena
                .reserve_exact((slots * tuple.len()).min(u32::MAX as usize));
        }
        self.histogram[(hprime >> HIST_SHIFT) as usize] += bytes;
        self.used_bytes += bytes;
        self.len += 1;
        let (start, len) = arena_range(self.arena.len(), tuple.len());
        self.arena.extend_from_slice(tuple);
        let entry = Entry {
            hprime,
            val,
            start,
            len,
            next: NIL,
        };
        let id = if self.free != NIL {
            let id = self.free;
            self.free = std::mem::replace(&mut self.entries[id as usize], entry).next;
            id
        } else {
            let id = entry_index(self.entries.len());
            self.entries.push(entry);
            id
        };
        let chain = &mut self.chains[(hprime & self.mask) as usize];
        match chain.tail {
            NIL => chain.head = id,
            tail => self.entries[tail as usize].next = id,
        }
        chain.tail = id;
    }

    /// Offer a tuple for staging. `clear_pct` is the percentage of capacity
    /// the heuristic tries to free on overflow (the paper's 10).
    ///
    /// # Panics
    /// Panics once the table is frozen ([`Self::freeze`]).
    pub fn offer(&mut self, val: u32, tuple: &[u8], clear_pct: u64) -> Offer {
        assert!(self.frozen.is_none(), "build into a frozen join hash table");
        let hprime = self.hprime(val);
        if let Some(c) = self.cutoff {
            if hprime >= c {
                return Offer::Diverted;
            }
        }
        let bytes = self.entry_bytes(tuple.len());
        if self.used_bytes + bytes <= self.capacity_bytes {
            self.store(val, hprime, tuple);
            return Offer::Stored;
        }
        // Overflow: run the clearing heuristic, repeatedly if one clearing
        // is insufficient ("the hash table could again overflow if the
        // heuristic of clearing 10% turns out to be insufficient. In this
        // case an additional 10% of the tuples are removed" — §4.1). The
        // invariant that makes overflow processing correct is that the
        // resident set is exactly {h' < cutoff}: a tuple below the cutoff
        // is never diverted, so its matching outer tuples know to probe.
        let mut evicted = Vec::new();
        let mut scanned = 0u64;
        let target = (self.capacity_bytes as u128 * clear_pct.max(1) as u128 / 100) as u64;
        loop {
            scanned += self.len;
            let new_cutoff = self.pick_cutoff(target);
            self.clear_above(new_cutoff, &mut evicted);
            self.cutoff = Some(new_cutoff);
            if hprime >= new_cutoff {
                return Offer::Overflowed {
                    evicted,
                    diverted: true,
                    scanned,
                };
            }
            if self.used_bytes + bytes <= self.capacity_bytes {
                self.store(val, hprime, tuple);
                return Offer::Overflowed {
                    evicted,
                    diverted: false,
                    scanned,
                };
            }
            if new_cutoff == 0 {
                // The table is empty and the tuple still does not fit
                // (capacity below one tuple). With cutoff 0 every value
                // diverts, so the partition stays consistent.
                return Offer::Overflowed {
                    evicted,
                    diverted: true,
                    scanned,
                };
            }
        }
    }

    /// Choose the highest cutoff that frees at least `target` bytes,
    /// examining the histogram from the top cell downward (the paper's
    /// "writing all tuples with hash values above 90,000 will free up 10 %
    /// of memory").
    fn pick_cutoff(&self, target: u64) -> u64 {
        let ceiling = self
            .cutoff
            .map(|c| c >> HIST_SHIFT)
            .unwrap_or(HIST_CELLS as u64);
        let mut freed = 0u64;
        let mut cell = ceiling;
        while cell > 0 {
            cell -= 1;
            freed += self.histogram[cell as usize];
            if freed >= target {
                break;
            }
        }
        cell << HIST_SHIFT
    }

    /// Unlink every resident tuple with `h' >= cutoff`, appending their
    /// `(val, range)` pairs to `evicted`. The bytes stay put in the arena,
    /// so previously returned ranges remain valid.
    ///
    /// Buckets are swept in index order and each chain the way
    /// `swap_remove` sweeps a vector — an evicted entry's place is taken by
    /// the chain's last, which is examined next — because that is the
    /// order the evictions are spooled in and the order the survivors are
    /// probed in afterwards.
    fn clear_above(&mut self, cutoff: u64, evicted: &mut Vec<(u32, TupleRange)>) {
        let before = evicted.len();
        let mut sweep = std::mem::take(&mut self.sweep);
        for b in 0..self.chains.len() {
            sweep.clear();
            let mut at = self.chains[b].head;
            while at != NIL {
                sweep.push(at);
                at = self.entries[at as usize].next;
            }
            let resident = sweep.len();
            let mut i = 0;
            while i < sweep.len() {
                let id = sweep[i];
                let e = &mut self.entries[id as usize];
                if e.hprime >= cutoff {
                    evicted.push((e.val, (e.start, e.len)));
                    e.next = self.free;
                    self.free = id;
                    sweep.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if sweep.len() < resident {
                let mut chain = Chain {
                    head: NIL,
                    tail: sweep.last().copied().unwrap_or(NIL),
                };
                for &id in sweep.iter().rev() {
                    self.entries[id as usize].next = chain.head;
                    chain.head = id;
                }
                self.chains[b] = chain;
            }
        }
        self.sweep = sweep;
        for &(_, (_, len)) in &evicted[before..] {
            let bytes = len as u64 + self.entry_overhead;
            self.used_bytes -= bytes;
            self.len -= 1;
        }
        // The cutoff is cell-aligned, so every histogram cell at or above
        // the boundary is now empty.
        for cell in (cutoff >> HIST_SHIFT) as usize..HIST_CELLS {
            self.histogram[cell] = 0;
        }
    }

    /// Probe with an outer value: `(matches, chain entries compared)`. One
    /// walk of the chain finds the first match, the match count and the
    /// chain length; resolve the matches' ranges with
    /// [`JoinHashTable::slice`]. Allocates nothing.
    pub fn probe_ranges(&self, val: u32) -> (Matches<'_>, u64) {
        let hprime = self.hprime(val);
        let mut at = self.chains[(hprime & self.mask) as usize].head;
        let (mut first, mut n, mut compares) = (NIL, 0u32, 0u64);
        while at != NIL {
            let e = &self.entries[at as usize];
            if e.val == val {
                if n == 0 {
                    first = at;
                }
                n += 1;
            }
            compares += 1;
            at = e.next;
        }
        (self.matches_at((val, first, n)), compares)
    }

    /// The view a [`Matches::key`] was taken from; the table must not have
    /// been mutated in between.
    pub(crate) fn matches_at(&self, (val, first, n): (u32, u32, u32)) -> Matches<'_> {
        Matches {
            table: self,
            val,
            first,
            n,
        }
    }

    /// Unused capacity in bytes — how much spilled data a dynamic restore
    /// pass could re-admit without overflowing again.
    pub fn slack_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.used_bytes)
    }

    /// Bytes a stored tuple of `tuple_len` payload bytes occupies (payload
    /// plus per-entry overhead) — used by the restore pass to plan how much
    /// spilled data fits into [`slack_bytes`](Self::slack_bytes).
    pub fn entry_footprint(&self, tuple_len: usize) -> u64 {
        self.entry_bytes(tuple_len)
    }

    /// Histogram cell of the current cutoff, if the table overflowed (the
    /// resident set is exactly the cells below it).
    pub fn cutoff_cell(&self) -> Option<usize> {
        self.cutoff.map(|c| (c >> HIST_SHIFT) as usize)
    }

    /// Cell-aligned cutoff value for histogram cell `cell` (so
    /// `hprime_cell_of(seed, v) < cell` ⇔ `hprime(v) < cell_cutoff(cell)`).
    #[inline]
    pub fn cell_cutoff(cell: usize) -> u64 {
        (cell as u64) << HIST_SHIFT
    }

    /// Number of `h'` histogram cells (cutoffs are aligned to cell
    /// boundaries; cell index [`HIST_CELLS`] means "no cutoff").
    pub const CELLS: usize = HIST_CELLS;

    /// Raise (or clear) the overflow cutoff after a dynamic restore pass
    /// re-admits spilled tuples. The resident-set invariant — residents are
    /// exactly the offered tuples with `h' <` cutoff — is preserved because
    /// the caller re-offers every spilled tuple in the raised range before
    /// any further probe. Raising only: lowering happens solely through the
    /// clearing heuristic in [`offer`](Self::offer).
    pub fn raise_cutoff(&mut self, new_cutoff: Option<u64>) {
        let old = self
            .cutoff
            .expect("raise_cutoff on a table that never overflowed");
        if let Some(c) = new_cutoff {
            debug_assert!(c >= old, "cutoff may only be raised ({c:#x} < {old:#x})");
        }
        self.cutoff = new_cutoff;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamma_net::Image;
    use rand::{Rng, SeedableRng, StdRng};

    fn tuple(val: u32, len: usize) -> Vec<u8> {
        let mut t = vec![0u8; len.max(4)];
        t[0..4].copy_from_slice(&val.to_le_bytes());
        t
    }

    impl JoinHashTable {
        /// Resident tuples, bucket by bucket in chain order.
        fn resident(&self) -> impl Iterator<Item = (u32, &[u8])> {
            self.chains.iter().flat_map(move |c| {
                let mut at = c.head;
                std::iter::from_fn(move || {
                    let e = self.entries.get(at as usize)?;
                    at = e.next;
                    Some((e.val, self.slice((e.start, e.len))))
                })
            })
        }
    }

    /// The table as it was stored before its chains were threaded through
    /// one entry vector: a vector per chain bucket, a probe's matches
    /// collected into another. Every simulated behaviour of the real table
    /// is defined as "what this does"; `chained_table_matches_the_model`
    /// drives the two side by side.
    mod model {
        use super::super::{hash_u32, Offer, TupleRange, HIST_CELLS, HIST_SHIFT};

        struct Entry {
            val: u32,
            hprime: u64,
            start: u32,
            len: u32,
        }

        pub struct Model {
            buckets: Vec<Vec<Entry>>,
            mask: u64,
            arena: Vec<u8>,
            capacity_bytes: u64,
            pub used_bytes: u64,
            entry_overhead: u64,
            hprime_seed: u64,
            histogram: Vec<u64>,
            pub cutoff: Option<u64>,
            pub len: u64,
        }

        impl Model {
            pub fn new(capacity_bytes: u64, expected_tuple_bytes: u64, hprime_seed: u64) -> Self {
                let want = (capacity_bytes / expected_tuple_bytes.max(1)).max(16);
                let nbuckets = want.next_power_of_two().min(1 << 20) as usize;
                Model {
                    buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
                    mask: nbuckets as u64 - 1,
                    arena: Vec::new(),
                    capacity_bytes,
                    used_bytes: 0,
                    entry_overhead: 8,
                    hprime_seed,
                    histogram: vec![0; HIST_CELLS],
                    cutoff: None,
                    len: 0,
                }
            }

            pub fn slice(&self, (start, len): TupleRange) -> &[u8] {
                &self.arena[start as usize..(start + len) as usize]
            }

            pub fn slack_bytes(&self) -> u64 {
                self.capacity_bytes.saturating_sub(self.used_bytes)
            }

            pub fn resident(&self) -> impl Iterator<Item = (u32, &[u8])> {
                self.buckets
                    .iter()
                    .flat_map(|b| b.iter().map(|e| (e.val, self.slice((e.start, e.len)))))
            }

            fn store(&mut self, val: u32, hprime: u64, tuple: &[u8]) {
                let bytes = tuple.len() as u64 + self.entry_overhead;
                self.histogram[(hprime >> HIST_SHIFT) as usize] += bytes;
                self.used_bytes += bytes;
                self.len += 1;
                let start = self.arena.len() as u32;
                self.arena.extend_from_slice(tuple);
                self.buckets[(hprime & self.mask) as usize].push(Entry {
                    val,
                    hprime,
                    start,
                    len: tuple.len() as u32,
                });
            }

            pub fn offer(&mut self, val: u32, tuple: &[u8], clear_pct: u64) -> Offer {
                let hprime = hash_u32(self.hprime_seed, val);
                if self.cutoff.is_some_and(|c| hprime >= c) {
                    return Offer::Diverted;
                }
                let bytes = tuple.len() as u64 + self.entry_overhead;
                if self.used_bytes + bytes <= self.capacity_bytes {
                    self.store(val, hprime, tuple);
                    return Offer::Stored;
                }
                let mut evicted = Vec::new();
                let mut scanned = 0u64;
                let target = (self.capacity_bytes * clear_pct.max(1)) / 100;
                loop {
                    scanned += self.len;
                    let new_cutoff = self.pick_cutoff(target);
                    self.clear_above(new_cutoff, &mut evicted);
                    self.cutoff = Some(new_cutoff);
                    if hprime >= new_cutoff {
                        return Offer::Overflowed {
                            evicted,
                            diverted: true,
                            scanned,
                        };
                    }
                    if self.used_bytes + bytes <= self.capacity_bytes {
                        self.store(val, hprime, tuple);
                        return Offer::Overflowed {
                            evicted,
                            diverted: false,
                            scanned,
                        };
                    }
                    if new_cutoff == 0 {
                        return Offer::Overflowed {
                            evicted,
                            diverted: true,
                            scanned,
                        };
                    }
                }
            }

            fn pick_cutoff(&self, target: u64) -> u64 {
                let mut cell = self
                    .cutoff
                    .map(|c| c >> HIST_SHIFT)
                    .unwrap_or(HIST_CELLS as u64);
                let mut freed = 0u64;
                while cell > 0 {
                    cell -= 1;
                    freed += self.histogram[cell as usize];
                    if freed >= target {
                        break;
                    }
                }
                cell << HIST_SHIFT
            }

            fn clear_above(&mut self, cutoff: u64, evicted: &mut Vec<(u32, TupleRange)>) {
                let before = evicted.len();
                for b in self.buckets.iter_mut() {
                    let mut i = 0;
                    while i < b.len() {
                        if b[i].hprime >= cutoff {
                            let e = b.swap_remove(i);
                            evicted.push((e.val, (e.start, e.len)));
                        } else {
                            i += 1;
                        }
                    }
                }
                for &(_, (_, len)) in &evicted[before..] {
                    self.used_bytes -= len as u64 + self.entry_overhead;
                    self.len -= 1;
                }
                for cell in (cutoff >> HIST_SHIFT) as usize..HIST_CELLS {
                    self.histogram[cell] = 0;
                }
            }

            pub fn probe_ranges(&self, val: u32) -> (Vec<TupleRange>, u64) {
                let chain = &self.buckets[(hash_u32(self.hprime_seed, val) & self.mask) as usize];
                let matches = chain
                    .iter()
                    .filter(|e| e.val == val)
                    .map(|e| (e.start, e.len))
                    .collect();
                (matches, chain.len() as u64)
            }

            pub fn raise_cutoff(&mut self, new_cutoff: Option<u64>) {
                assert!(self.cutoff.is_some());
                self.cutoff = new_cutoff;
            }
        }
    }

    /// Both tables, offered and probed in lockstep; every observable of one
    /// must equal the other's after every step.
    struct Pair {
        table: JoinHashTable,
        model: model::Model,
        clear_pct: u64,
        /// What the caller would have spooled to `R'`, in spool order.
        spooled: Vec<(u32, Vec<u8>)>,
        clearings: usize,
        ctx: String,
    }

    impl Pair {
        fn offer(&mut self, val: u32, tuple: &[u8]) {
            let got = self.table.offer(val, tuple, self.clear_pct);
            let want = self.model.offer(val, tuple, self.clear_pct);
            assert_eq!(got, want, "{} offer({val})", self.ctx);
            match got {
                Offer::Stored => {}
                Offer::Diverted => self.spooled.push((val, tuple.to_vec())),
                Offer::Overflowed {
                    evicted, diverted, ..
                } => {
                    self.clearings += 1;
                    for (v, range) in evicted {
                        let bytes = self.table.slice(range);
                        assert_eq!(bytes, self.model.slice(range), "{} evicted {v}", self.ctx);
                        self.spooled.push((v, bytes.to_vec()));
                    }
                    if diverted {
                        self.spooled.push((val, tuple.to_vec()));
                    }
                }
            }
            self.check_scalars();
        }

        /// Returns the match count.
        fn probe(&self, val: u32) -> usize {
            let (m, compares) = self.table.probe_ranges(val);
            let (want, want_compares) = self.model.probe_ranges(val);
            assert_eq!(
                compares, want_compares,
                "{} probe({val}) compares",
                self.ctx
            );
            assert_eq!(
                m.iter().collect::<Vec<_>>(),
                want,
                "{} probe({val})",
                self.ctx
            );
            assert_eq!((m.len(), m.is_empty()), (want.len(), want.is_empty()));
            let again = self.table.matches_at(m.key());
            assert_eq!(
                again.iter().collect::<Vec<_>>(),
                want,
                "{} by key",
                self.ctx
            );
            for r in want {
                assert_eq!(self.table.slice(r), self.model.slice(r));
            }
            m.len()
        }

        /// What `family::restore_spills` does to an overflowed site: raise
        /// the cutoff to `cell`, re-offer the spooled tuples below it.
        fn restore(&mut self, cell: usize) {
            let cutoff = (cell < HIST_CELLS).then(|| JoinHashTable::cell_cutoff(cell));
            self.table.raise_cutoff(cutoff);
            self.model.raise_cutoff(cutoff);
            let seed = self.table.hprime_seed();
            for (val, tuple) in std::mem::take(&mut self.spooled) {
                if hprime_cell_of(seed, val) < cell {
                    self.offer(val, &tuple);
                } else {
                    self.spooled.push((val, tuple));
                }
            }
            self.check_scalars();
        }

        fn check_scalars(&self) {
            let (t, m) = (&self.table, &self.model);
            assert_eq!(
                (t.len(), t.used_bytes(), t.cutoff(), t.slack_bytes()),
                (m.len, m.used_bytes, m.cutoff, m.slack_bytes()),
                "{}",
                self.ctx
            );
        }
    }

    #[test]
    fn chained_table_matches_the_model() {
        const CAPACITIES: [u64; 6] = [1, 40, 400, 3_000, 20_000, 1 << 30];
        const CLEAR_PCTS: [u64; 3] = [1, 10, 100];
        let (mut clearings, mut restores, mut many_to_many) = (0, 0, 0);
        for seed in 0..108u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let keys = seed % 3;
            let capacity = CAPACITIES[(seed / 3 % 6) as usize];
            let clear_pct = CLEAR_PCTS[(seed / 18 % 3) as usize];
            let hseed = rng.gen_range(0..u64::MAX);
            let mut pair = Pair {
                table: JoinHashTable::new(capacity, 24, hseed),
                model: model::Model::new(capacity, 24, hseed),
                clear_pct,
                spooled: Vec::new(),
                clearings: 0,
                ctx: format!("seed {seed} (keys {keys}, capacity {capacity}, clear {clear_pct} %)"),
            };
            let mut next_unique = 0u32;
            let mut offered = vec![7u32];
            for _ in 0..rng.gen_range(200..600usize) {
                match rng.gen_range(0..100u32) {
                    0..=64 => {
                        let val = match keys {
                            0 => {
                                next_unique += 1;
                                next_unique
                            }
                            1 => rng.gen_range(0..12u32),
                            _ => 7,
                        };
                        offered.push(val);
                        let len = rng.gen_range(4..=40usize);
                        pair.offer(val, &tuple(val, len));
                    }
                    65..=94 => {
                        let val = if rng.gen_bool(0.8) {
                            offered[rng.gen_range(0..offered.len())]
                        } else {
                            rng.gen_range(0..u32::MAX)
                        };
                        many_to_many += usize::from(pair.probe(val) > 2);
                    }
                    _ => {
                        if let Some(floor) = pair.table.cutoff_cell() {
                            pair.restore(rng.gen_range(floor + 1..=HIST_CELLS));
                            restores += 1;
                        }
                    }
                }
            }
            assert!(
                pair.table.resident().eq(pair.model.resident()),
                "{}: chains differ",
                pair.ctx
            );
            for &val in &offered {
                pair.probe(val);
            }
            clearings += pair.clearings;
        }
        // The sequences must reach what they are here to pin.
        assert!(clearings > 500, "only {clearings} clearings");
        assert!(restores > 100, "only {restores} restores");
        assert!(
            many_to_many > 500,
            "only {many_to_many} probes with > 2 matches"
        );
    }

    #[test]
    fn arena_offsets_are_checked_at_4_gib() {
        let top = u32::MAX as usize;
        assert_eq!(arena_range(0, 208), (0, 208));
        assert_eq!(arena_range(top - 208, 208), (u32::MAX - 208, 208));
        assert_eq!(arena_range(top, 0), (u32::MAX, 0));
        for (arena_len, tuple_len) in [(top - 207, 208), (top, 1), (top + 1, 0), (0, top + 1)] {
            let wrapped = std::panic::catch_unwind(|| arena_range(arena_len, tuple_len));
            assert!(wrapped.is_err(), "{arena_len} + {tuple_len} must not wrap");
        }
    }

    #[test]
    #[should_panic(expected = "arena exceeds 4 GiB")]
    fn a_full_arena_panics_with_a_message() {
        arena_range(u32::MAX as usize - 3, 4);
    }

    #[test]
    fn entry_indices_stay_below_the_sentinel() {
        assert_eq!(entry_index(0), 0);
        assert_eq!(entry_index(NIL as usize - 1), NIL - 1);
        assert!(std::panic::catch_unwind(|| entry_index(NIL as usize)).is_err());
    }

    #[test]
    fn first_store_reserves_from_the_grant() {
        let mut t = JoinHashTable::new(1 << 20, 208, 1);
        assert_eq!((t.entries.capacity(), t.arena.capacity()), (0, 0));
        t.offer(0, &tuple(0, 208), 10);
        let slots = (1usize << 20) / 216;
        let reserved = (t.entries.capacity(), t.arena.capacity());
        assert!(reserved.0 >= slots && reserved.1 >= slots * 208);
        assert!(reserved.0 < 2 * slots && reserved.1 < 2 * slots * 208);
        for v in 1..slots as u32 {
            assert_eq!(t.offer(v, &tuple(v, 208), 10), Offer::Stored);
        }
        assert_eq!(
            reserved,
            (t.entries.capacity(), t.arena.capacity()),
            "filling the grant grew neither vector"
        );
        let one_more = t.offer(0, &tuple(0, 208), 10);
        assert!(
            matches!(one_more, Offer::Overflowed { .. }),
            "the grant is full"
        );
    }

    #[test]
    fn unbounded_grant_reserves_by_the_bucket_array() {
        for capacity in [u64::MAX, u64::MAX / 135 + 1] {
            // An expected tuple of one byte is the largest bucket request.
            let mut t = JoinHashTable::new(capacity, 1, 1);
            assert_eq!(t.chains.len(), 1 << 20);
            assert_eq!(t.offer(3, &tuple(3, 16), 10), Offer::Stored);
            assert_eq!(t.entries.capacity(), 1 << 20);
            assert_eq!(t.arena.capacity(), 16 << 20);
            assert_eq!(t.probe_ranges(3).0.len(), 1);
        }
    }

    #[test]
    fn stores_and_probes() {
        let mut t = JoinHashTable::new(1 << 20, 208, 1);
        for v in 0..100 {
            assert_eq!(t.offer(v, &tuple(v, 208), 10), Offer::Stored);
        }
        let (m, compares) = t.probe_ranges(42);
        assert_eq!(m.len(), 1);
        assert_eq!(t.slice(m.iter().next().unwrap()), tuple(42, 208).as_slice());
        assert!(compares >= 1);
        let (m, _) = t.probe_ranges(5000);
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn duplicates_form_chains() {
        let mut t = JoinHashTable::new(1 << 20, 208, 1);
        for _ in 0..5 {
            t.offer(7, &tuple(7, 208), 10);
        }
        let (m, compares) = t.probe_ranges(7);
        assert_eq!(m.len(), 5);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            (0..5).map(|i| (i * 208, 208)).collect::<Vec<_>>(),
            "matches come in insertion order"
        );
        assert!(compares >= 5, "every chain entry is compared");
    }

    #[test]
    fn evicted_ranges_resolve_to_their_tuples() {
        let cap = 50_000u64;
        let mut t = JoinHashTable::new(cap, 208, 9);
        let mut v = 0u32;
        loop {
            match t.offer(v, &tuple(v, 208), 10) {
                Offer::Overflowed { evicted, .. } => {
                    assert!(!evicted.is_empty());
                    for (val, range) in evicted {
                        assert_eq!(t.slice(range), tuple(val, 208).as_slice());
                    }
                    break;
                }
                _ => v += 1,
            }
        }
    }

    #[test]
    fn frozen_tables_share_what_they_stored() {
        let mut t = JoinHashTable::new(1 << 20, 40, 3);
        for v in 0..200u32 {
            assert_eq!(t.offer(v % 50, &tuple(v, 40), 10), Offer::Stored);
        }
        let before: Vec<(u32, Vec<u8>)> = t.resident().map(|(v, b)| (v, b.to_vec())).collect();
        let reserved = t.arena.capacity();
        t.freeze();
        t.freeze();
        let after: Vec<(u32, Vec<u8>)> = t.resident().map(|(v, b)| (v, b.to_vec())).collect();
        assert_eq!(after, before, "every range resolves as it did");
        let frozen = t.frozen.as_ref().expect("frozen");
        assert_eq!(
            frozen.capacity(),
            reserved,
            "shared as it stood, not copied"
        );
        let (matches, _) = t.probe_ranges(7);
        assert_eq!(matches.len(), 4);
        for range in matches.iter() {
            let part = t.shared(range);
            let (image, at) = part.home().expect("by reference");
            assert!(matches!(image, Image::Buffer(b) if Arc::ptr_eq(b, frozen)));
            assert_eq!(&*part, t.slice(range));
            assert_eq!(&image.bytes()[at..][..part.len()], t.slice(range));
        }
    }

    #[test]
    #[should_panic(expected = "build into a frozen join hash table")]
    fn building_after_the_freeze_panics() {
        let mut t = JoinHashTable::new(1 << 20, 40, 3);
        t.offer(1, &tuple(1, 40), 10);
        t.freeze();
        t.offer(2, &tuple(2, 40), 10);
    }

    #[test]
    #[should_panic(expected = "frozen table")]
    fn probe_results_need_a_frozen_table() {
        let mut t = JoinHashTable::new(1 << 20, 40, 3);
        t.offer(1, &tuple(1, 40), 10);
        let range = t.probe_ranges(1).0.iter().next().unwrap();
        t.shared(range);
    }

    #[test]
    fn overflow_frees_roughly_the_requested_fraction() {
        // 100 KB capacity, 208+8 bytes per entry -> ~463 resident.
        let cap = 100_000u64;
        let mut t = JoinHashTable::new(cap, 208, 99);
        let mut evicted_total = 0usize;
        let mut v = 0u32;
        loop {
            let resident = t.len();
            match t.offer(v, &tuple(v, 208), 10) {
                Offer::Stored => {}
                Offer::Diverted => {}
                Offer::Overflowed {
                    evicted, scanned, ..
                } => {
                    evicted_total += evicted.len();
                    assert_eq!(scanned, resident, "one clearing, one scan of the table");
                    break;
                }
            }
            v += 1;
        }
        // Cleared at least ~10% of capacity worth of tuples but far from all.
        let evicted_bytes = evicted_total as u64 * 216;
        assert!(evicted_bytes >= cap / 10, "only freed {evicted_bytes}");
        assert!(evicted_bytes < cap / 2, "cleared too much: {evicted_bytes}");
        assert!(t.cutoff().is_some());
    }

    #[test]
    fn arrivals_above_cutoff_divert() {
        let cap = 50_000u64;
        let mut t = JoinHashTable::new(cap, 208, 5);
        let mut v = 0u32;
        // Fill to first overflow.
        loop {
            if matches!(t.offer(v, &tuple(v, 208), 10), Offer::Overflowed { .. }) {
                break;
            }
            v += 1;
        }
        let cutoff = t.cutoff().unwrap();
        // Now any arrival hashing above the cutoff must divert.
        let mut diverted = 0;
        let mut stored = 0;
        for w in 1_000_000..1_002_000u32 {
            match t.offer(w, &tuple(w, 208), 10) {
                Offer::Diverted => diverted += 1,
                Offer::Stored => stored += 1,
                Offer::Overflowed { .. } => {}
            }
            if t.hprime(w) >= cutoff {
                // This one must not have been stored.
            }
        }
        assert!(diverted > 0, "some arrivals must divert");
        let _ = stored;
    }

    #[test]
    fn repeated_overflow_lowers_cutoff() {
        let cap = 50_000u64;
        let mut t = JoinHashTable::new(cap, 208, 5);
        let mut cutoffs = Vec::new();
        for v in 0..2_000u32 {
            if let Offer::Overflowed { .. } = t.offer(v, &tuple(v, 208), 10) {
                cutoffs.push(t.cutoff().unwrap());
            }
        }
        assert!(cutoffs.len() >= 2, "expected multiple clearings");
        for w in cutoffs.windows(2) {
            assert!(w[1] < w[0], "cutoff must be monotonically decreasing");
        }
    }

    #[test]
    fn resident_plus_evicted_is_everything() {
        let cap = 50_000u64;
        let mut t = JoinHashTable::new(cap, 208, 7);
        let mut spooled = Vec::new();
        let n = 1000u32;
        for v in 0..n {
            match t.offer(v, &tuple(v, 208), 10) {
                Offer::Stored => {}
                Offer::Diverted => spooled.push(tuple(v, 208)),
                Offer::Overflowed {
                    evicted, diverted, ..
                } => {
                    spooled.extend(evicted.iter().map(|&(_, r)| t.slice(r).to_vec()));
                    if diverted {
                        spooled.push(tuple(v, 208));
                    }
                }
            }
        }
        let mut all: Vec<u32> = t.resident().map(|(v, _)| v).collect();
        all.extend(
            spooled
                .iter()
                .map(|tu| u32::from_le_bytes(tu[0..4].try_into().unwrap())),
        );
        all.sort_unstable();
        assert_eq!(
            all,
            (0..n).collect::<Vec<_>>(),
            "no tuple lost or duplicated"
        );
    }

    #[test]
    fn memory_accounting_stays_within_capacity() {
        let cap = 30_000u64;
        let mut t = JoinHashTable::new(cap, 100, 3);
        for v in 0..5_000u32 {
            let _ = t.offer(v, &tuple(v, 100), 10);
            assert!(
                t.used_bytes() <= cap,
                "used {} > cap {}",
                t.used_bytes(),
                cap
            );
        }
    }

    #[test]
    fn all_identical_values_still_terminate() {
        // Pathological skew: every tuple has the same join value, so the
        // histogram is a single cell and clearing evicts everything.
        let cap = 10_000u64;
        let mut t = JoinHashTable::new(cap, 208, 3);
        let mut evicted_all = 0;
        for _ in 0..200 {
            match t.offer(7, &tuple(7, 208), 10) {
                Offer::Overflowed {
                    evicted, diverted, ..
                } => {
                    evicted_all += evicted.len() + usize::from(diverted);
                }
                Offer::Diverted => evicted_all += 1,
                Offer::Stored => {}
            }
        }
        assert!(evicted_all > 0);
        assert!(t.used_bytes() <= cap);
    }

    #[test]
    fn raising_the_cutoff_readmits_the_restored_range() {
        let cap = 50_000u64;
        let mut t = JoinHashTable::new(cap, 208, 5);
        let mut spooled = Vec::new();
        let mut v = 0u32;
        // Fill until the clearing heuristic fires once: it frees ~10 % of
        // capacity, so the table is left with real slack to restore into.
        loop {
            match t.offer(v, &tuple(v, 208), 10) {
                Offer::Stored => {}
                Offer::Diverted => spooled.push(tuple(v, 208)),
                Offer::Overflowed {
                    evicted, diverted, ..
                } => {
                    spooled.extend(evicted.iter().map(|&(_, r)| t.slice(r).to_vec()));
                    if diverted {
                        spooled.push(tuple(v, 208));
                    }
                    break;
                }
            }
            v += 1;
        }
        let old = t.cutoff().expect("the fill must overflow");
        assert!(!spooled.is_empty());
        // Plan a restore exactly the way the dynamic path does: pick the
        // highest cell boundary whose spilled bytes fit in the slack.
        let old_cell = (old >> HIST_SHIFT) as usize;
        let mut per_cell = vec![0u64; HIST_CELLS];
        for tu in &spooled {
            let v = u32::from_le_bytes(tu[0..4].try_into().unwrap());
            per_cell[hprime_cell_of(t.hprime_seed(), v)] += t.entry_footprint(tu.len());
        }
        let mut cell = old_cell;
        let mut bytes = 0u64;
        while cell < HIST_CELLS && bytes + per_cell[cell] <= t.slack_bytes() {
            bytes += per_cell[cell];
            cell += 1;
        }
        assert!(cell > old_cell, "slack must admit at least one cell");
        let new_cutoff = (cell < HIST_CELLS).then(|| JoinHashTable::cell_cutoff(cell));
        t.raise_cutoff(new_cutoff);
        let before = t.len();
        let mut restored = 0u64;
        for tu in &spooled {
            let v = u32::from_le_bytes(tu[0..4].try_into().unwrap());
            if hprime_cell_of(t.hprime_seed(), v) < cell {
                assert_eq!(t.offer(v, tu, 10), Offer::Stored);
                restored += 1;
            }
        }
        assert!(restored > 0, "the restored range must re-admit tuples");
        assert_eq!(t.len(), before + restored);
        assert!(t.used_bytes() <= cap);
        assert_eq!(t.cutoff(), new_cutoff);
    }

    #[test]
    fn hprime_seed_changes_function() {
        let a = JoinHashTable::new(1024, 208, 1);
        let b = JoinHashTable::new(1024, 208, 2);
        assert_ne!(a.hprime(42), b.hprime(42));
    }
}
