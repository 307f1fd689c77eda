//! The `joinABprime` sweep: every algorithm at three memory ratios, each
//! point's simulated response time (virtual microseconds), peak
//! buffer-pool residency, total ring packets and short-circuit ratio.
//!
//! Every field is a deterministic function of the model, so a rendered
//! sweep is byte-identical across hosts, runs and pool sizes. At
//! [`BASELINE_SCALE`] it is the committed `BENCH_joinabprime.json`:
//! `regress` Gate 1 renders it afresh and compares the two byte for byte.
//! The JSON schema is documented in `EXPERIMENTS.md`.

use gamma_core::query::Algorithm;
use std::fmt::Write as _;

use crate::metrics::{metrics_join, reconcile, MetricsRun};
use crate::sweep::{pooled_map, Workload};

/// Workload scale of `BENCH_joinabprime.json` (the paper's full-size
/// relations) and the `joinabprime` binary's default.
pub const BASELINE_SCALE: f64 = 1.0;

/// Memory / |inner relation| ratios, in document order.
const RATIOS: [f64; 3] = [1.0, 0.5, 0.2];

/// The four algorithms, in document order.
const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::SortMerge,
    Algorithm::SimpleHash,
    Algorithm::GraceHash,
    Algorithm::HybridHash,
];

/// Every (algorithm, ratio) point of the sweep, in document order.
pub fn cases() -> impl Iterator<Item = (Algorithm, f64)> {
    ALGORITHMS
        .into_iter()
        .flat_map(|alg| RATIOS.into_iter().map(move |r| (alg, r)))
}

/// One point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Algorithm name as printed by the report (e.g. `"hybrid"`).
    pub algorithm: String,
    /// Memory / |inner relation| ratio.
    pub memory_ratio: f64,
    /// Simulated end-to-end response time.
    pub response_virtual_us: u64,
    /// Peak buffer-pool residency over all nodes.
    pub peak_pool_pages: u64,
    /// Total packets placed on the ring.
    pub packets: u64,
    /// Short-circuited messages / (short-circuited + ring packets).
    pub short_circuit_ratio: f64,
}

impl BenchPoint {
    /// The recorded fields of one metered run at `memory_ratio`.
    fn of(run: &MetricsRun, memory_ratio: f64) -> Self {
        let packets = run.report.packets();
        let sc = run.report.shortcircuits();
        BenchPoint {
            algorithm: run.report.algorithm.clone(),
            memory_ratio,
            response_virtual_us: run.report.response.as_us(),
            peak_pool_pages: run.registry.gauge_peak("pool_peak_pages").unwrap_or(0),
            packets,
            short_circuit_ratio: if sc + packets > 0 {
                sc as f64 / (sc + packets) as f64
            } else {
                0.0
            },
        }
    }
}

/// A measured sweep.
#[derive(Debug)]
pub struct Sweep {
    /// Workload scale the points ran at.
    pub scale: f64,
    /// The points, in [`cases`] order.
    pub points: Vec<BenchPoint>,
    /// Every point's metrics↔ledger reconciliation failures (empty ⇒ every
    /// charged microsecond and byte is attributed).
    pub unreconciled: Vec<String>,
}

/// Run the sweep at `scale`. Points are dispatched on the default pool
/// (`GAMMA_POOL`) and gathered in [`cases`] order.
pub fn sweep(scale: f64) -> Sweep {
    let w = Workload::at_scale(scale);
    let runs = pooled_map("joinabprime point", cases().collect(), |(alg, ratio)| {
        let run = metrics_join(&w, alg, ratio, false, false);
        let unreconciled: Vec<String> = reconcile(&run.registry, &run.report)
            .into_iter()
            .map(|e| format!("{} @ ratio {ratio}: reconciliation: {e}", alg.name()))
            .collect();
        (BenchPoint::of(&run, ratio), unreconciled)
    });
    let (points, unreconciled): (Vec<_>, Vec<Vec<String>>) = runs.into_iter().unzip();
    Sweep {
        scale,
        points,
        unreconciled: unreconciled.concat(),
    }
}

impl Sweep {
    /// The sweep as a JSON document, one point object per line.
    pub fn render(&self) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(
            json,
            "  \"benchmark\": \"joinABprime\",\n  \"scale\": {},\n  \"points\": [",
            self.scale
        );
        for (i, p) in self.points.iter().enumerate() {
            let _ = writeln!(json,
                "    {{\"algorithm\": \"{}\", \"memory_ratio\": {}, \"response_virtual_us\": {}, \"peak_pool_pages\": {}, \"packets\": {}, \"short_circuit_ratio\": {:.6}}}{}",
                p.algorithm,
                p.memory_ratio,
                p.response_virtual_us,
                p.peak_pool_pages,
                p.packets,
                p.short_circuit_ratio,
                if i + 1 < self.points.len() { "," } else { "" }
            );
        }
        json.push_str("  ]\n}\n");
        json
    }
}
