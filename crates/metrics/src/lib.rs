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
//! * keys live in a `BTreeMap`, so iteration (and therefore every export)
//!   is in a canonical order independent of emission order;
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
use std::collections::BTreeMap;

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
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
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
    /// Fixed-bucket histogram (merge: bucket-wise add).
    Histogram(Histogram),
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

/// The deterministic metrics registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Names of sealed phases, in seal order.
    phases: Vec<String>,
    /// Phase index assigned to emissions happening now (== number of
    /// phases sealed so far, except in worker registries, which inherit
    /// the spawning thread's value and never seal).
    current: u32,
    metrics: BTreeMap<Key, Value>,
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
        match self
            .metrics
            .entry(Key {
                name,
                phase,
                node,
                op,
            })
            .or_insert(Value::Counter(0))
        {
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
        match self
            .metrics
            .entry(Key {
                name,
                phase,
                node,
                op,
            })
            .or_insert(Value::Gauge(0))
        {
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
        match self
            .metrics
            .entry(Key {
                name,
                phase,
                node,
                op,
            })
            .or_insert(Value::Histogram(Histogram::default()))
        {
            Value::Histogram(h) => h.observe(value),
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
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
        for (k, v) in other.metrics {
            match self.metrics.entry(k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => match (e.get_mut(), v) {
                    (Value::Counter(a), Value::Counter(b)) => *a += b,
                    (Value::Gauge(a), Value::Gauge(b)) => *a = (*a).max(b),
                    (Value::Histogram(a), Value::Histogram(b)) => a.merge(&b),
                    (a, b) => panic!(
                        "metric {} kind mismatch on merge: {} vs {}",
                        k.name,
                        a.kind(),
                        b.kind()
                    ),
                },
            }
        }
    }

    /// All series in canonical (name, phase, node, op) order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.metrics.iter()
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Sum of a counter over all its series.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.iter_name(name).fold(0, |acc, (_, v)| match v {
            Value::Counter(c) => acc + c,
            _ => acc,
        })
    }

    /// Largest value of a gauge over all its series (`None` when absent).
    pub fn gauge_peak(&self, name: &str) -> Option<u64> {
        let mut peak = None;
        for (_, v) in self.iter_name(name) {
            if let Value::Gauge(g) = v {
                peak = Some(peak.map_or(*g, |p: u64| p.max(*g)));
            }
        }
        peak
    }

    /// Aggregate of a histogram over all its series (`None` when absent).
    pub fn histogram_total(&self, name: &str) -> Option<Histogram> {
        let mut total: Option<Histogram> = None;
        for (_, v) in self.iter_name(name) {
            if let Value::Histogram(h) = v {
                total.get_or_insert_with(Histogram::default).merge(h);
            }
        }
        total
    }

    fn iter_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a Key, &'a Value)> + 'a {
        self.metrics.iter().filter(move |(k, _)| k.name == name)
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
}
