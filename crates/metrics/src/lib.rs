//! # gamma-metrics — deterministic metrics registry
//!
//! A registry of counters, gauges and fixed-bucket histograms for the
//! Gamma simulator, keyed by `(metric, node, phase, operator)` labels. Instrumentation hooks across `gamma-des`,
//! `gamma-wiss`, `gamma-net` and `gamma-core` record into a thread-local
//! [`Registry`] exactly like `gamma-trace` records events into its sink;
//! with no registry installed every hook is one thread-local load and a
//! branch.
//!
//! ## Determinism
//!
//! Snapshots are byte-identical across runs and across the serial and
//! thread-parallel executors:
//!
//! * series are found by a hash of their key's content and kept in
//!   emission order; [`Registry::iter`] sorts them by [`Key`]'s `Ord`
//!   when an export walks them, so every export is in a canonical order
//!   independent of emission and merge order;
//! * every accumulation is commutative — counters add, gauges take the
//!   max, histograms add bucket-wise — so merging per-worker registries
//!   at a parallel step's join point yields the same state as serial
//!   emission, with no ordering tricks required;
//! * all values are integers (simulated µs, counts, bytes); no floats.
//!
//! ## Phase attribution
//!
//! The simulator executes work first and assigns time later. Emissions
//! during operator execution are attributed to the *current* phase index
//! (the number of phases sealed so far); when a driver seals a phase
//! (`PhaseRecord::new`) it calls [`seal_phase`], which names the index and
//! advances the counter. Replay-time emissions (per-device utilisation)
//! use the `*_at` variants with an explicit phase index.

use std::cell::RefCell;

pub mod json;
pub mod prometheus;

/// Upper bucket bounds (inclusive) of every histogram, in the metric's
/// native unit (µs, bytes, tuples…): powers of two from 1 to 2^20, plus an
/// implicit overflow bucket. Fixed globally so histograms merge bucket-wise
/// and snapshots from different runs are comparable.
pub const BUCKET_BOUNDS: [u64; 21] = [
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    512,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
];

/// Number of histogram buckets: one per bound plus the overflow bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// A fixed-bucket histogram: per-bucket counts plus exact count and sum
/// (so totals reconcile exactly even though buckets are coarse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    /// Number of observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        // The first bound 2^i at or above `value`: i = ⌈log₂ value⌉, or
        // the overflow bucket past 2^20.
        let idx = ((u64::BITS - value.saturating_sub(1).leading_zeros()) as usize)
            .min(BUCKET_BOUNDS.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Bucket counts, one per [`BUCKET_BOUNDS`] entry plus the overflow
    /// bucket last.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Accumulate another histogram bucket-wise (commutative).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Full label set of one metric series. The derived `Ord` (field order:
/// name, phase, node, op) fixes the canonical export order: all series of
/// one metric together, walked phase-major then node then operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name (static, lowercase snake_case).
    pub name: &'static str,
    /// Phase index at emission time ([`GLOBAL_PHASE`] for phase-less
    /// series).
    pub phase: u32,
    /// Node the emission is attributed to.
    pub node: u16,
    /// Operator label (`""` when not operator-scoped).
    pub op: &'static str,
}

/// Phase label for series that are not tied to any phase.
pub const GLOBAL_PHASE: u32 = u32::MAX;

/// One metric value. The kind is fixed by the first emission against a
/// key's name; mixing kinds under one name is a programming error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Monotonic counter (merge: add).
    Counter(u64),
    /// High-water-mark gauge (merge: max).
    Gauge(u64),
    /// Fixed-bucket histogram (merge: bucket-wise add). Boxed, so that a
    /// value is 16 bytes and the counters and gauges that make up most of
    /// a registry do not each carry a histogram's 192.
    Histogram(Box<Histogram>),
}

impl Value {
    /// Exporter label for the kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

/// Series per chunk of a registry's store. A chunk is allocated once at
/// its full size, 32 × 56 B = 1.75 KiB, about a B-tree node's, and never
/// moves: the store grows without copying or freeing, in blocks glibc
/// serves from its free lists. (A store grown by doubling passes glibc's
/// 128 KiB mmap threshold at a few thousand series, and freeing such a
/// block raises that threshold for the rest of the process.)
const CHUNK: usize = 32;
const _: () = assert!(CHUNK * std::mem::size_of::<(Key, Value)>() <= 2 << 10);

/// Columns in a row: room for the closed set of series one counted event
/// adds (`gamma_des::Usage::record` uses 19).
const COLUMNS: usize = 20;

/// A series name with a fixed column in a registry row. Every emission
/// through a column after the first under one (phase, node, op) reads the
/// series' position from the row instead of probing the index.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    name: &'static str,
    index: usize,
}

impl Column {
    /// Column `index` (below 20, a row's width) for the series named
    /// `name`. A caller gives each name its own index.
    pub const fn new(name: &'static str, index: usize) -> Column {
        assert!(index < COLUMNS, "column index past COLUMNS");
        Column { name, index }
    }
}

/// Rows the registry keeps, direct-mapped by (phase, node, op): a power
/// of two above the (node, op) pairs one phase of the joins emits under.
const ROWS: usize = 128;

/// The positions of the column series of one (phase, node, op): position
/// + 1, or 0 while the column has no series under it yet.
#[derive(Clone, Copy)]
struct Row {
    phase: u32,
    node: u16,
    op: &'static str,
    at: [u32; COLUMNS],
}

/// The row table, kept inline so a registry allocates nothing for it. A
/// row whose slot a later (phase, node, op) takes is dropped: a row only
/// remembers positions the index also holds.
#[derive(Clone)]
struct Rows {
    rows: [Row; ROWS],
    /// The row served last.
    last: usize,
}

impl Default for Rows {
    fn default() -> Self {
        let empty = Row {
            phase: 0,
            node: 0,
            op: "",
            at: [0; COLUMNS],
        };
        Rows {
            rows: [empty; ROWS],
            last: 0,
        }
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Rows { .. }")
    }
}

impl Rows {
    /// The row of (phase, node, op), emptied and retagged first when its
    /// slot holds another.
    fn get(&mut self, phase: u32, node: u16, op: &'static str) -> usize {
        let tagged = |r: &Row| r.phase == phase && r.node == node && same_str(r.op, op);
        if tagged(&self.rows[self.last]) {
            return self.last;
        }
        let at = row_home(phase, node, op);
        let row = &mut self.rows[at];
        if !tagged(row) {
            *row = Row {
                phase,
                node,
                op,
                at: [0; COLUMNS],
            };
        }
        self.last = at;
        at
    }
}

/// The deterministic metrics registry.
///
/// Series are stored in first-emission order and found through a hash of
/// their key's content; [`Registry::iter`] sorts them by [`Key`]'s `Ord`
/// when an export walks them, so the order every export sees is canonical
/// whatever order the emissions and merges came in.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Names of sealed phases, in seal order.
    phases: Vec<String>,
    /// Phase index assigned to emissions happening now (== number of
    /// phases sealed so far, except in worker registries, which inherit
    /// the spawning thread's value and never seal).
    current: u32,
    /// Every series in first-emission order, [`CHUNK`] to a chunk; all
    /// chunks but the last are full.
    series: Vec<Vec<(Key, Value)>>,
    /// Open-addressing index over `series`: a slot holds a series'
    /// position + 1, or 0 when empty. Empty, or a power of two at least
    /// twice the number of series long.
    slots: Vec<u32>,
    /// Column positions per (phase, node, op), for [`Registry::row`].
    rows: Rows,
}

/// One (phase, node, op) of a registry, resolved once: [`Registry::row`].
pub struct RowMut<'a> {
    registry: &'a mut Registry,
    row: usize,
}

impl RowMut<'_> {
    /// Add `delta` to the counter in `col`.
    pub fn counter_add(&mut self, col: Column, delta: u64) {
        match self.value(col, || Value::Counter(0)) {
            Value::Counter(v) => *v += delta,
            other => panic!("metric {} is a {}, not a counter", col.name, other.kind()),
        }
    }

    /// Record an observation in the histogram in `col`.
    pub fn observe(&mut self, col: Column, value: u64) {
        match self.value(col, || Value::Histogram(Box::default())) {
            Value::Histogram(h) => h.observe(value),
            other => panic!("metric {} is a {}, not a histogram", col.name, other.kind()),
        }
    }

    /// The value of `col`'s series in this row, found through the index
    /// (and inserted as `init()` when absent) the first time only.
    fn value(&mut self, col: Column, init: impl FnOnce() -> Value) -> &mut Value {
        let reg = &mut *self.registry;
        let row = &reg.rows.rows[self.row];
        let at = match row.at[col.index] {
            0 => {
                let key = Key {
                    name: col.name,
                    phase: row.phase,
                    node: row.node,
                    op: row.op,
                };
                let at = match reg.find(&key) {
                    Ok(at) => at,
                    Err(slot) => reg.insert(slot, key, init()),
                };
                reg.rows.rows[self.row].at[col.index] = at as u32 + 1;
                at
            }
            at => at as usize - 1,
        };
        let (key, value) = &mut reg.series[at / CHUNK][at % CHUNK];
        assert!(
            same_str(key.name, col.name),
            "column {} names both {} and {}",
            col.index,
            key.name,
            col.name
        );
        value
    }
}

impl Registry {
    /// An empty registry at phase 0.
    pub fn new() -> Self {
        Registry::default()
    }

    /// An empty registry whose emissions are attributed to `phase` — the
    /// form installed on parallel-executor worker threads, which run
    /// strictly inside one phase and never seal.
    pub fn at_phase(phase: u32) -> Self {
        Registry {
            current: phase,
            ..Registry::default()
        }
    }

    /// Phase index assigned to emissions happening now.
    pub fn current_phase(&self) -> u32 {
        self.current
    }

    /// Names of sealed phases, in seal order.
    pub fn phases(&self) -> &[String] {
        &self.phases
    }

    /// Name a phase index (`None` for unsealed or [`GLOBAL_PHASE`]).
    pub fn phase_name(&self, idx: u32) -> Option<&str> {
        self.phases.get(idx as usize).map(String::as_str)
    }

    /// Seal the current phase under `name` and return its index;
    /// subsequent emissions attribute to the next index.
    pub fn seal_phase(&mut self, name: &str) -> u32 {
        let idx = self.current;
        self.phases.push(name.to_string());
        self.current = self.phases.len() as u32;
        idx
    }

    /// Add `delta` to a counter at the current phase.
    pub fn counter_add(&mut self, name: &'static str, node: u16, op: &'static str, delta: u64) {
        self.counter_add_at(name, self.current, node, op, delta);
    }

    /// Add `delta` to a counter at an explicit phase index.
    pub fn counter_add_at(
        &mut self,
        name: &'static str,
        phase: u32,
        node: u16,
        op: &'static str,
        delta: u64,
    ) {
        let key = Key {
            name,
            phase,
            node,
            op,
        };
        match self.entry(key, || Value::Counter(0)) {
            Value::Counter(v) => *v += delta,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Raise a high-water-mark gauge at the current phase.
    pub fn gauge_max(&mut self, name: &'static str, node: u16, op: &'static str, value: u64) {
        self.gauge_max_at(name, self.current, node, op, value);
    }

    /// Raise a high-water-mark gauge at an explicit phase index.
    pub fn gauge_max_at(
        &mut self,
        name: &'static str,
        phase: u32,
        node: u16,
        op: &'static str,
        value: u64,
    ) {
        let key = Key {
            name,
            phase,
            node,
            op,
        };
        match self.entry(key, || Value::Gauge(0)) {
            Value::Gauge(v) => *v = (*v).max(value),
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Record a histogram observation at the current phase.
    pub fn observe(&mut self, name: &'static str, node: u16, op: &'static str, value: u64) {
        self.observe_at(name, self.current, node, op, value);
    }

    /// Record a histogram observation at an explicit phase index.
    pub fn observe_at(
        &mut self,
        name: &'static str,
        phase: u32,
        node: u16,
        op: &'static str,
        value: u64,
    ) {
        let key = Key {
            name,
            phase,
            node,
            op,
        };
        match self.entry(key, || Value::Histogram(Box::default())) {
            Value::Histogram(h) => h.observe(value),
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// The row of (current phase, `node`, `op`): the series one counted
    /// event adds under one label set, each found through the index the
    /// first time only. The row served last is compared first, so a run
    /// of events on one (node, op) finds its row in one comparison.
    pub fn row(&mut self, node: u16, op: &'static str) -> RowMut<'_> {
        let row = self.rows.get(self.current, node, op);
        RowMut {
            registry: self,
            row,
        }
    }

    /// Merge another registry in (commutative per key): counters add,
    /// gauges max, histograms add bucket-wise. Worker registries carry no
    /// sealed phases; merging one that does extends the phase list only
    /// when this registry has not sealed any itself.
    pub fn merge(&mut self, other: Registry) {
        if self.phases.is_empty() && !other.phases.is_empty() {
            self.phases = other.phases;
            self.current = self.current.max(other.current);
        }
        for (k, v) in other.series.into_iter().flatten() {
            let at = match self.find(&k) {
                Ok(at) => at,
                Err(slot) => {
                    self.insert(slot, k, v);
                    continue;
                }
            };
            match (&mut self.series[at / CHUNK][at % CHUNK].1, v) {
                (Value::Counter(a), Value::Counter(b)) => *a += b,
                (Value::Gauge(a), Value::Gauge(b)) => *a = (*a).max(b),
                (Value::Histogram(a), Value::Histogram(b)) => a.merge(&b),
                (a, b) => panic!(
                    "metric {} kind mismatch on merge: {} vs {}",
                    k.name,
                    a.kind(),
                    b.kind()
                ),
            }
        }
    }

    /// All series in canonical (name, phase, node, op) order, sorted on
    /// each call.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        let mut order: Vec<&(Key, Value)> = self.series.iter().flatten().collect();
        // Keys are unique, so an unstable sort is deterministic.
        order.sort_unstable_by_key(|s| s.0);
        order.into_iter().map(|(k, v)| (k, v))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.iter().map(Vec::len).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Sum of a counter over all its series.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.iter_name(name).fold(0, |acc, v| match v {
            Value::Counter(c) => acc + c,
            _ => acc,
        })
    }

    /// Largest value of a gauge over all its series (`None` when absent).
    pub fn gauge_peak(&self, name: &str) -> Option<u64> {
        let mut peak = None;
        for v in self.iter_name(name) {
            if let Value::Gauge(g) = v {
                peak = Some(peak.map_or(*g, |p: u64| p.max(*g)));
            }
        }
        peak
    }

    /// Aggregate of a histogram over all its series (`None` when absent).
    pub fn histogram_total(&self, name: &str) -> Option<Histogram> {
        let mut total: Option<Histogram> = None;
        for v in self.iter_name(name) {
            if let Value::Histogram(h) = v {
                total.get_or_insert_with(Histogram::default).merge(h);
            }
        }
        total
    }

    /// The values of one metric's series, in store order: the folds above
    /// commute, so they need no sort.
    fn iter_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Value> + 'a {
        self.series
            .iter()
            .flatten()
            .filter(move |(k, _)| k.name == name)
            .map(|(_, v)| v)
    }

    /// The value of `key`, inserted as `init()` first when absent.
    fn entry(&mut self, key: Key, init: impl FnOnce() -> Value) -> &mut Value {
        let at = match self.find(&key) {
            Ok(at) => at,
            Err(slot) => self.insert(slot, key, init()),
        };
        &mut self.series[at / CHUNK][at % CHUNK].1
    }

    /// The position of `key`'s series (`Ok`), or the empty slot its index
    /// entry would take (`Err`).
    fn find(&self, key: &Key) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = home(key, mask);
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                s => {
                    let at = s as usize - 1;
                    if same(&self.series[at / CHUNK][at % CHUNK].0, key) {
                        return Ok(at);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Append a new series, indexed at the empty `slot` [`Registry::find`]
    /// returned, and return its position.
    fn insert(&mut self, slot: usize, key: Key, value: Value) -> usize {
        if !matches!(self.series.last(), Some(c) if c.len() < CHUNK) {
            self.series.push(Vec::with_capacity(CHUNK));
        }
        let at = self.len();
        self.series
            .last_mut()
            .expect("pushed above")
            .push((key, value));
        if 2 * (at + 1) > self.slots.len() {
            // Rebuild the index at twice the size, the new series included.
            let size = (2 * self.slots.len()).max(64);
            let mask = size - 1;
            self.slots = vec![0; size];
            for (i, (k, _)) in self.series.iter().flatten().enumerate() {
                let mut s = home(k, mask);
                while self.slots[s] != 0 {
                    s = (s + 1) & mask;
                }
                self.slots[s] = i as u32 + 1;
            }
        } else {
            self.slots[slot] = at as u32 + 1;
        }
        at
    }
}

/// Key equality that tries the labels' addresses before their bytes: an
/// emission site passes the same `&'static str`s every time.
fn same(a: &Key, b: &Key) -> bool {
    a.phase == b.phase && a.node == b.node && same_str(a.name, b.name) && same_str(a.op, b.op)
}

fn same_str(a: &str, b: &str) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// The index slot a key's probe starts at: an FxHash-style hash of the
/// key's content, fixed, so where a key lands repeats run to run. Equal
/// strings at different addresses hash alike.
fn home(key: &Key, mask: usize) -> usize {
    let (name, op) = (ends(key.name), ends(key.op));
    let labels = (key.name.len() as u64) << 48 | (key.op.len() as u64) << 32;
    let mut h = mix(0, labels | u64::from(key.phase) << 16 | u64::from(key.node));
    for w in [name.0, name.1, op.0, op.1] {
        h = mix(h, w);
    }
    // The multiply carries entropy upward: index by the high half.
    (h >> 32) as usize & mask
}

/// The row slot of (phase, node, op), hashed as [`home`] hashes a key.
fn row_home(phase: u32, node: u16, op: &str) -> usize {
    let (a, b) = ends(op);
    let h = mix(
        0,
        (op.len() as u64) << 48 | u64::from(phase) << 16 | u64::from(node),
    );
    (mix(mix(h, a), b) >> 32) as usize & (ROWS - 1)
}

fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// A label's first and last eight bytes (four, or three single bytes,
/// when it is shorter), read without a loop. Labels that agree on these
/// and on their length collide, and [`same`] tells them apart.
fn ends(s: &str) -> (u64, u64) {
    let b = s.as_bytes();
    let n = b.len();
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"));
    let half = |at: usize| {
        u64::from(u32::from_le_bytes(
            b[at..at + 4].try_into().expect("four bytes"),
        ))
    };
    match n {
        8.. => (word(0), word(n - 8)),
        4..=7 => (half(0), half(n - 4)),
        1..=3 => (
            u64::from(b[0]) | u64::from(b[n / 2]) << 8,
            u64::from(b[n - 1]),
        ),
        0 => (0, 0),
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

/// Install a registry for the current thread, replacing (and returning)
/// any previous one.
pub fn install(registry: Registry) -> Option<Registry> {
    ACTIVE.with(|a| a.borrow_mut().replace(registry))
}

/// Remove and return the current thread's registry.
pub fn take() -> Option<Registry> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// True when a registry is installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Run `f` against the installed registry; a no-op when metrics are off.
/// The single indirection every hook uses — disabled cost is one
/// thread-local load and branch.
pub fn with<F: FnOnce(&mut Registry)>(f: F) {
    ACTIVE.with(|a| {
        if let Some(r) = a.borrow_mut().as_mut() {
            f(r);
        }
    });
}

/// Current phase index of the installed registry (`None` when off). The
/// parallel executor reads this before spawning workers so their
/// registries attribute to the right phase.
pub fn current_phase() -> Option<u32> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|r| r.current_phase()))
}

/// Add to a counter against the installed registry; no-op when off.
pub fn counter_add(name: &'static str, node: u16, op: &'static str, delta: u64) {
    with(|r| r.counter_add(name, node, op, delta));
}

/// Raise a gauge against the installed registry; no-op when off.
pub fn gauge_max(name: &'static str, node: u16, op: &'static str, value: u64) {
    with(|r| r.gauge_max(name, node, op, value));
}

/// Record a histogram observation against the installed registry; no-op
/// when off.
pub fn observe(name: &'static str, node: u16, op: &'static str, value: u64) {
    with(|r| r.observe(name, node, op, value));
}

/// Seal the current phase against the installed registry; no-op when off.
pub fn seal_phase(name: &str) {
    with(|r| {
        r.seal_phase(name);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn merged_halves_equal_the_whole() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 0..50 {
            a.observe(v);
        }
        for v in 50..100 {
            b.observe(v);
        }
        a.merge(&b);
        let mut whole = Histogram::default();
        for v in 0..100 {
            whole.observe(v);
        }
        assert_eq!(a, whole);
    }

    #[test]
    fn histogram_buckets_and_totals() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1 << 20);
        h.observe((1 << 20) + 1);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 6 + (2 << 20) + 1);
        assert_eq!(h.buckets()[0], 2, "0 and 1 land in the le=1 bucket");
        assert_eq!(h.buckets()[1], 1, "2 lands in le=2");
        assert_eq!(h.buckets()[2], 1, "3 lands in le=4");
        assert_eq!(h.buckets()[BUCKETS - 2], 1, "2^20 in the last bound");
        assert_eq!(h.buckets()[BUCKETS - 1], 1, "2^20+1 overflows");
    }

    #[test]
    fn bucket_index_matches_the_linear_search() {
        let linear = |v: u64| {
            BUCKET_BOUNDS
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(BUCKET_BOUNDS.len())
        };
        let values = BUCKET_BOUNDS
            .iter()
            .flat_map(|&b| [b, b + 1])
            .chain([0, u64::MAX]);
        for v in values {
            let mut h = Histogram::default();
            h.observe(v);
            let mut want = [0; BUCKETS];
            want[linear(v)] = 1;
            assert_eq!(h.buckets(), &want, "value {v}");
        }
    }

    #[test]
    fn counter_and_gauge_semantics() {
        let mut r = Registry::new();
        r.counter_add("c", 0, "", 2);
        r.counter_add("c", 0, "", 3);
        r.gauge_max("g", 1, "", 7);
        r.gauge_max("g", 1, "", 4);
        assert_eq!(r.counter_total("c"), 5);
        assert_eq!(r.gauge_peak("g"), Some(7));
        assert_eq!(r.gauge_peak("absent"), None);
    }

    #[test]
    fn seal_advances_phase_attribution() {
        let mut r = Registry::new();
        r.counter_add("c", 0, "", 1);
        assert_eq!(r.seal_phase("build"), 0);
        r.counter_add("c", 0, "", 1);
        assert_eq!(r.seal_phase("probe"), 1);
        let phases: Vec<u32> = r.iter().map(|(k, _)| k.phase).collect();
        assert_eq!(phases, vec![0, 1]);
        assert_eq!(r.phases(), ["build", "probe"]);
        assert_eq!(r.phase_name(1), Some("probe"));
    }

    #[test]
    fn merge_is_commutative() {
        let build = |x: u64| {
            let mut r = Registry::at_phase(3);
            r.counter_add("c", 0, "", x);
            r.gauge_max("g", 0, "", x * 10);
            r.observe("h", 0, "", x);
            r
        };
        let mut ab = build(1);
        ab.merge(build(2));
        let mut ba = build(2);
        ba.merge(build(1));
        assert_eq!(ab.counter_total("c"), 3);
        assert_eq!(ab.gauge_peak("g"), Some(20));
        let (ha, hb) = (ab.histogram_total("h"), ba.histogram_total("h"));
        assert_eq!(ha, hb);
        assert_eq!(ab.iter().collect::<Vec<_>>(), ba.iter().collect::<Vec<_>>());
    }

    #[test]
    fn thread_local_install_take() {
        assert!(!is_active());
        counter_add("c", 0, "", 5); // no-op: nothing installed
        install(Registry::new());
        assert!(is_active());
        counter_add("c", 0, "", 5);
        assert_eq!(current_phase(), Some(0));
        let r = take().unwrap();
        assert_eq!(r.counter_total("c"), 5);
        assert!(!is_active());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_is_detected() {
        let mut r = Registry::new();
        r.gauge_max("m", 0, "", 1);
        r.counter_add("m", 0, "", 1);
    }

    #[test]
    #[should_panic(expected = "kind mismatch on merge")]
    fn kind_mismatch_is_detected_on_merge() {
        let mut r = Registry::at_phase(2);
        r.gauge_max("m", 0, "", 1);
        let mut worker = Registry::at_phase(2);
        worker.counter_add("m", 0, "", 1);
        r.merge(worker);
    }

    /// The metrics the seeded streams emit, with their kinds. Names share
    /// prefixes so that a lookup comparing only part of a name would mix
    /// them up.
    const STREAM_NAMES: [(&str, char); 6] = [
        ("pages_read", 'c'),
        ("pages_written", 'c'),
        ("packet_bytes", 'h'),
        ("packets_sent", 'c'),
        ("pool_peak_pages", 'g'),
        ("p", 'h'),
    ];
    /// Operator labels, including the empty one and the exporters' specials.
    const STREAM_OPS: [&str; 6] = ["", "scan", "scan2", "q\"w", "back\\slash", "new\nline"];

    /// One emission, at the phase it was attributed to.
    #[derive(Clone, Copy)]
    struct Emission {
        name: &'static str,
        kind: char,
        phase: u32,
        node: u16,
        op: &'static str,
        value: u64,
    }

    impl Emission {
        fn key(&self) -> Key {
            Key {
                name: self.name,
                phase: self.phase,
                node: self.node,
                op: self.op,
            }
        }

        fn apply(&self, r: &mut Registry) {
            let Emission {
                name,
                phase,
                node,
                op,
                value,
                ..
            } = *self;
            match self.kind {
                'c' => r.counter_add_at(name, phase, node, op, value),
                'g' => r.gauge_max_at(name, phase, node, op, value),
                _ => r.observe_at(name, phase, node, op, value),
            }
        }
    }

    /// SplitMix64: a seeded, dependency-free stream of test choices.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn emission(&mut self, phase: u32) -> Emission {
            let (name, kind) = STREAM_NAMES[self.below(STREAM_NAMES.len())];
            let phase = if self.below(8) == 0 {
                GLOBAL_PHASE
            } else {
                phase
            };
            Emission {
                name,
                kind,
                phase,
                node: self.below(4) as u16,
                op: STREAM_OPS[self.below(STREAM_OPS.len())],
                // Below 2^24: every histogram bucket, the overflow one too.
                value: self.next() >> (40 + self.next() % 24),
            }
        }
    }

    /// The test-only reference: the `BTreeMap` registry, fed the same
    /// emissions. Its map order is the canonical export order.
    #[derive(Default)]
    struct Reference {
        metrics: BTreeMap<Key, Value>,
        emissions: Vec<Emission>,
    }

    impl Reference {
        fn apply(&mut self, e: Emission) {
            let v = self.metrics.entry(e.key()).or_insert(match e.kind {
                'c' => Value::Counter(0),
                'g' => Value::Gauge(0),
                _ => Value::Histogram(Box::default()),
            });
            match v {
                Value::Counter(c) => *c += e.value,
                Value::Gauge(g) => *g = (*g).max(e.value),
                Value::Histogram(h) => h.observe(e.value),
            }
            self.emissions.push(e);
        }

        /// A registry fed this reference's emissions in canonical key
        /// order, after `phases` are sealed: its exports are the bytes the
        /// registry under test must reproduce whatever order it saw.
        fn canonical(&self, phases: &[String]) -> Registry {
            let mut r = Registry::new();
            for p in phases {
                r.seal_phase(p);
            }
            let mut sorted = self.emissions.clone();
            sorted.sort_by_key(Emission::key);
            for e in &sorted {
                e.apply(&mut r);
            }
            r
        }
    }

    /// Drive a registry through a seeded stream: emissions at the current
    /// phase and at [`GLOBAL_PHASE`], seals, and per phase two worker
    /// registries merged in the order `swap` picks. Returns the registry
    /// and the reference fed the same emissions.
    fn drive(seed: u64, swap: bool) -> (Registry, Reference) {
        let mut rng = Rng(seed);
        let mut r = Registry::new();
        let mut reference = Reference::default();
        for phase in 0..5u32 {
            for _ in 0..rng.below(60) {
                let e = rng.emission(r.current_phase());
                reference.apply(e);
                if e.phase == r.current_phase() {
                    // The current-phase entry points.
                    match e.kind {
                        'c' => r.counter_add(e.name, e.node, e.op, e.value),
                        'g' => r.gauge_max(e.name, e.node, e.op, e.value),
                        _ => r.observe(e.name, e.node, e.op, e.value),
                    }
                } else {
                    e.apply(&mut r);
                }
            }
            let mut workers = [
                Registry::at_phase(r.current_phase()),
                Registry::at_phase(r.current_phase()),
            ];
            for w in &mut workers {
                for _ in 0..rng.below(40) {
                    let e = rng.emission(w.current_phase());
                    e.apply(w);
                    reference.apply(e);
                }
            }
            if swap {
                workers.reverse();
            }
            for w in workers {
                r.merge(w);
            }
            // The last phase stays unsealed.
            if phase < 4 {
                r.seal_phase(["build", "probe \"x\"", "", "spill\\n"][phase as usize]);
            }
        }
        (r, reference)
    }

    #[test]
    fn store_matches_the_btreemap_reference() {
        for seed in 0..40 {
            let (a, reference) = drive(seed, false);
            let (b, _) = drive(seed, true);
            let canonical = reference.canonical(a.phases());
            let want: Vec<(Key, Value)> = reference
                .metrics
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            for r in [&a, &b] {
                let got: Vec<(Key, Value)> = r.iter().map(|(k, v)| (*k, v.clone())).collect();
                assert_eq!(got, want, "seed {seed}: series or canonical order differ");
                assert_eq!(r.len(), reference.metrics.len(), "seed {seed}");
                assert_eq!(
                    json::render(r),
                    json::render(&canonical),
                    "seed {seed}: json"
                );
                assert_eq!(
                    prometheus::render(r),
                    prometheus::render(&canonical),
                    "seed {seed}: prometheus"
                );
                for (name, _) in STREAM_NAMES.iter().chain(&[("absent", 'c')]) {
                    let of_name = || reference.metrics.iter().filter(|(k, _)| k.name == *name);
                    let counter: u64 = of_name()
                        .map(|(_, v)| match v {
                            Value::Counter(c) => *c,
                            _ => 0,
                        })
                        .sum();
                    let peak = of_name()
                        .filter_map(|(_, v)| match v {
                            Value::Gauge(g) => Some(*g),
                            _ => None,
                        })
                        .max();
                    let mut hist: Option<Histogram> = None;
                    for (_, v) in of_name() {
                        if let Value::Histogram(h) = v {
                            hist.get_or_insert_with(Histogram::default).merge(h);
                        }
                    }
                    assert_eq!(r.counter_total(name), counter, "seed {seed}: {name}");
                    assert_eq!(r.gauge_peak(name), peak, "seed {seed}: {name}");
                    assert_eq!(r.histogram_total(name), hist, "seed {seed}: {name}");
                }
            }
        }
    }

    /// The series the row tests emit through columns, with their kinds.
    const ROW_SERIES: [(Column, char); 4] = [
        (Column::new("pages_read", 0), 'c'),
        (Column::new("packet_bytes", 1), 'h'),
        (Column::new("packets_sent", 2), 'c'),
        (Column::new("p", 5), 'h'),
    ];
    /// Operator labels for the row tests: with 48 nodes, 240 (node, op)
    /// pairs a phase, so rows share slots and are dropped and refilled.
    const ROW_OPS: [&str; 5] = ["", "scan", "scan2", "build", "probe"];

    /// `(phase, node, op, series, value)`; series 4 is a gauge emitted by
    /// name, the others [`ROW_SERIES`]' columns.
    type RowEmission = (u32, u16, &'static str, usize, u64);

    fn emit_row(r: &mut Registry, (_, node, op, series, value): RowEmission) {
        match ROW_SERIES.get(series) {
            Some(&(col, 'c')) => r.row(node, op).counter_add(col, value),
            Some(&(col, _)) => r.row(node, op).observe(col, value),
            None => r.gauge_max("pool_peak_pages", node, op, value),
        }
    }

    #[test]
    fn rows_change_no_export() {
        let mut rng = Rng(46);
        let mut stream: Vec<RowEmission> = (0..4_000)
            .map(|_| {
                let phase = rng.below(3) as u32;
                let node = rng.below(48) as u16;
                let op = ROW_OPS[rng.below(ROW_OPS.len())];
                let series = rng.below(ROW_SERIES.len() + 1);
                (
                    phase,
                    node,
                    op,
                    series,
                    rng.next() >> (40 + rng.next() % 24),
                )
            })
            .collect();
        // One registry, phase by phase, each phase's emissions interleaved.
        stream.sort_by_key(|e| e.0);
        let mut whole = Registry::new();
        for phase in 0..3 {
            for e in stream.iter().filter(|e| e.0 == phase) {
                emit_row(&mut whole, *e);
            }
            if phase < 2 {
                whole.seal_phase(["a", "b"][phase as usize]);
            }
        }
        // The same emissions in reverse, split across two worker registries
        // a phase, merged in reverse.
        let mut workers: Vec<Registry> = Vec::new();
        for phase in (0..3).rev() {
            let mine: Vec<_> = stream.iter().rev().filter(|e| e.0 == phase).collect();
            let (late, early) = mine.split_at(mine.len() / 2);
            for half in [late, early] {
                let mut w = Registry::at_phase(phase);
                for e in half {
                    emit_row(&mut w, **e);
                }
                workers.push(w);
            }
        }
        let mut merged = Registry::new();
        merged.seal_phase("a");
        merged.seal_phase("b");
        for w in workers.into_iter().rev() {
            merged.merge(w);
        }
        // The index alone, by name at an explicit phase.
        let mut by_name = Registry::new();
        by_name.seal_phase("a");
        by_name.seal_phase("b");
        for &(phase, node, op, series, value) in &stream {
            match ROW_SERIES.get(series) {
                Some(&(col, 'c')) => by_name.counter_add_at(col.name, phase, node, op, value),
                Some(&(col, _)) => by_name.observe_at(col.name, phase, node, op, value),
                None => by_name.gauge_max_at("pool_peak_pages", phase, node, op, value),
            }
        }
        assert!(whole.len() > 2 * ROWS, "too few series to share row slots");
        for r in [&merged, &by_name] {
            assert_eq!(json::render(r), json::render(&whole));
            assert_eq!(prometheus::render(r), prometheus::render(&whole));
        }
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn kind_mismatch_is_detected_through_a_row() {
        let mut r = Registry::new();
        let col = Column::new("m", 0);
        r.counter_add("m", 0, "op", 1);
        // The first emission fills the row; the second reads it.
        r.row(0, "op").counter_add(col, 1);
        r.row(0, "op").observe(col, 1);
    }

    #[test]
    #[should_panic(expected = "column 3 names both a and b")]
    fn two_names_in_one_column_are_detected() {
        let mut r = Registry::new();
        r.row(0, "op").counter_add(Column::new("a", 3), 1);
        r.row(0, "op").counter_add(Column::new("b", 3), 1);
    }
}
