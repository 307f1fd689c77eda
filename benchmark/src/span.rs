//! Outside spans: the benchmark times its own calls into each layer.
//!
//! Nothing inside the simulator is instrumented by this change, so a
//! layer's cost is measured from outside, around the public function the
//! benchmark calls. A [`Tracer`] keeps every span in memory — name, start,
//! end, the span that caused it, the pass it belongs to, and the
//! allocations made while it was open — and the run writes them out when
//! it ends. A span's *self* time (and self allocations) is its own minus
//! what its direct children cover.
//!
//! End-to-end runs use a disabled tracer: [`Tracer::span`] then only calls
//! the closure, so the two kinds of run execute the same code.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc::AllocCount;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`crate.module`), static so recording never allocates.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass the span belongs to (shared by all spans of one pass).
    pub pass: u32,
    /// Allocations made while the span was open (children included).
    pub alloc: AllocCount,
}

/// Per-layer totals over all recorded spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Number of spans.
    pub calls: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ self time (duration minus direct children).
    pub self_ns: u64,
    /// Σ self allocations.
    pub self_alloc: AllocCount,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

/// Spans reserved up front, so that recording a span never allocates
/// inside another span's allocation window.
const RESERVED_SPANS: usize = 1 << 16;

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::with_capacity(if enabled { RESERVED_SPANS } else { 0 }),
            stack: Vec::with_capacity(16),
            pass: 0,
        }
    }

    /// Tag subsequent spans with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Run `f` inside a span named `name`. `f` gets the tracer back so it
    /// can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
            alloc: AllocCount::default(),
        });
        self.stack.push(idx);
        let alloc0 = AllocCount::now();
        let start = self.epoch.elapsed();
        let out = f(self);
        let end = self.epoch.elapsed();
        let alloc = AllocCount::since(alloc0);
        self.stack.pop();
        let s = &mut self.spans[idx];
        s.start_ns = start.as_nanos() as u64;
        s.end_ns = end.as_nanos() as u64;
        s.alloc = alloc;
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals with self time and self allocations.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        layer_totals(&self.spans)
    }
}

/// Self-time arithmetic over a span list (see the module docs).
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_alloc = vec![AllocCount::default(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
            child_alloc[p] = child_alloc[p] + s.alloc;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
        t.self_alloc = t.self_alloc + (s.alloc - child_alloc[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, ev: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            alloc: AllocCount {
                events: ev,
                bytes: ev * 10,
            },
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // pass [0,100] ⊃ join [10,60] ⊃ replay [20,30]; pass ⊃ join [60,90].
        let spans = vec![
            span("pass", 0, 100, None, 9),
            span("join", 10, 60, Some(0), 5),
            span("replay", 20, 30, Some(1), 1),
            span("join", 60, 90, Some(0), 3),
        ];
        let t = layer_totals(&spans);
        assert_eq!(
            t["pass"].self_ns,
            100 - 50 - 30,
            "grandchildren not subtracted twice"
        );
        assert_eq!(t["join"].calls, 2);
        assert_eq!(t["join"].total_ns, 80);
        assert_eq!(t["join"].self_ns, 40 + 30);
        assert_eq!(t["replay"].self_ns, 10);
        assert_eq!(t["pass"].self_alloc.events, 9 - 5 - 3);
        assert_eq!(t["join"].self_alloc.events, (5 - 1) + 3);
        assert_eq!(t["join"].self_alloc.bytes, 70);
        // Self times partition the root span.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut on = Tracer::new(true);
        on.set_pass(3);
        let v = on.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = on.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].pass), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
