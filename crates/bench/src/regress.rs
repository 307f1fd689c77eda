//! Virtual-time performance-regression gate.
//!
//! The simulator is deterministic, so the committed `BENCH_joinabprime.json`
//! doubles as a perf baseline: any code change that moves a point's
//! `response_virtual_us` is a *modelled* performance change, not noise, and
//! must be either intentional (regenerate the baseline) or a regression.
//! This module holds the pure pieces of the gate — parsing the baseline's
//! hand-rolled JSON, comparing point sets under a tolerance, and diffing
//! metric snapshots line by line — so they are unit-testable without
//! rerunning joins. The `regress` binary wires them to fresh runs.
//! The committed `BENCH_serve.json` (concurrent-serving sweep) gets the
//! same treatment: virtual-time quantities are drift-gated, deterministic
//! identity fields are exact-gated.
//!
//! Every baseline records only deterministic fields: the host clock is
//! measured by the two-clock benchmark under `benchmark/`, not here.

use crate::metrics::MetricsRun;

/// One benchmark point parsed from `BENCH_joinabprime.json`.
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
    /// The gated fields of one metered run at `memory_ratio`.
    pub fn of(run: &MetricsRun, memory_ratio: f64) -> Self {
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

/// Extract the raw value token for `key` from one JSON object line written
/// by our own benchmark serializers (`"key": value` pairs, one object per
/// line; values never contain `,` or `}` — not a general JSON parser).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    match field(line, key)? {
        "null" => None,
        v => v.parse().ok(),
    }
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let v = field(line, key)?;
    Some(v.trim_matches('"').to_string())
}

/// Parse the point objects of a baseline document: every line carrying
/// `key` must be one whole `{...}` object from which `point` reads all of
/// its fields. A keyed line that does not yield a complete point —
/// truncated, a field missing, `null` or unparsable — is an error naming
/// the line, so a damaged baseline can never gate fewer points than it
/// lists. Lines without `key` (the envelope) are skipped.
fn parse_points<T>(
    json: &str,
    key: &str,
    point: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let pat = format!("\"{key}\":");
    json.lines()
        .enumerate()
        .filter(|(_, l)| l.contains(&pat))
        .map(|(i, l)| {
            let obj = l.trim().trim_end_matches(',');
            Some(obj)
                .filter(|o| o.starts_with('{') && o.ends_with('}'))
                .and_then(&point)
                .ok_or_else(|| format!("line {}: not a complete `{key}` point: {obj}", i + 1))
        })
        .collect()
}

/// Parse every point object out of a `BENCH_joinabprime.json` document
/// (keyed on `algorithm`; see [`parse_points`] for the error rule).
pub fn parse_bench_points(json: &str) -> Result<Vec<BenchPoint>, String> {
    parse_points(json, "algorithm", |l| {
        Some(BenchPoint {
            algorithm: str_field(l, "algorithm")?,
            memory_ratio: num_field(l, "memory_ratio")?,
            response_virtual_us: num_field(l, "response_virtual_us")? as u64,
            peak_pool_pages: num_field(l, "peak_pool_pages")? as u64,
            packets: num_field(l, "packets")? as u64,
            short_circuit_ratio: num_field(l, "short_circuit_ratio")?,
        })
    })
}

/// Serialize points in the committed `BENCH_joinabprime.json` shape, one
/// object per line (so [`parse_bench_points`] round-trips them).
pub fn render_bench_points(scale: f64, points: &[BenchPoint]) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"benchmark\": \"joinABprime\",\n  \"scale\": {scale},\n  \"points\": [\n"
    ));
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"memory_ratio\": {}, \"response_virtual_us\": {}, \"peak_pool_pages\": {}, \"packets\": {}, \"short_circuit_ratio\": {:.6}}}{}\n",
            p.algorithm,
            p.memory_ratio,
            p.response_virtual_us,
            p.peak_pool_pages,
            p.packets,
            p.short_circuit_ratio,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Parse the envelope's `scale` field: the workload scale every point of
/// the document was recorded at. Absent, `null`, unparsable, non-finite
/// and non-positive are each an error (naming the line when there is one),
/// so a damaged baseline is never replayed at a default scale.
pub fn parse_scale(json: &str) -> Result<f64, String> {
    let (i, line) = json
        .lines()
        .enumerate()
        .find(|(_, l)| l.contains("\"scale\":"))
        .ok_or("no `scale` field in the envelope")?;
    let raw = field(line, "scale").unwrap_or_default();
    let line = i + 1;
    match raw.parse::<f64>() {
        _ if raw == "null" => Err(format!("line {line}: `scale` is null")),
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        Ok(v) => Err(format!(
            "line {line}: `scale` must be finite and > 0, got {v}"
        )),
        Err(_) => Err(format!("line {line}: `scale` is not a number: `{raw}`")),
    }
}

/// Compare a fresh point set against the baseline. Virtual response times
/// may drift up to `tol_pct` percent (to leave room for deliberate cost
/// recalibrations guarded by their own tests); the deterministic event
/// counters (`packets`, `peak_pool_pages`, and `short_circuit_ratio` at
/// its recorded six decimals) must match exactly. Missing or extra points
/// are failures. Returns every violation found (empty ⇒ the gate passes).
pub fn compare_points(baseline: &[BenchPoint], fresh: &[BenchPoint], tol_pct: f64) -> Vec<String> {
    let mut errs = Vec::new();
    for b in baseline {
        let id = format!("{} @ ratio {}", b.algorithm, b.memory_ratio);
        let Some(f) = fresh
            .iter()
            .find(|f| f.algorithm == b.algorithm && f.memory_ratio == b.memory_ratio)
        else {
            errs.push(format!("{id}: present in baseline, missing from fresh run"));
            continue;
        };
        let (old, new) = (b.response_virtual_us, f.response_virtual_us);
        if old != new {
            let drift = (new.abs_diff(old)) as f64 * 100.0 / old as f64;
            if drift > tol_pct {
                errs.push(format!(
                    "{id}: response_virtual_us drifted {drift:.3}% ({old} -> {new}, tolerance {tol_pct}%)"
                ));
            }
        }
        for (what, old, new) in [
            ("packets", b.packets, f.packets),
            ("peak_pool_pages", b.peak_pool_pages, f.peak_pool_pages),
        ] {
            if old != new {
                errs.push(format!("{id}: {what} changed ({old} -> {new})"));
            }
        }
        let (old, new) = (
            format!("{:.6}", b.short_circuit_ratio),
            format!("{:.6}", f.short_circuit_ratio),
        );
        if old != new {
            errs.push(format!(
                "{id}: short_circuit_ratio changed ({old} -> {new})"
            ));
        }
    }
    for f in fresh {
        if !baseline
            .iter()
            .any(|b| b.algorithm == f.algorithm && b.memory_ratio == f.memory_ratio)
        {
            errs.push(format!(
                "{} @ ratio {}: in fresh run but not in baseline",
                f.algorithm, f.memory_ratio
            ));
        }
    }
    errs
}

/// One serve rate point parsed from `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchPoint {
    /// Index within the sweep (identity key; also the arrival seed case).
    pub rate_index: u64,
    /// Offered load as a fraction of the analytical bound.
    pub load_fraction: f64,
    /// Mean inter-arrival time handed to the generator (exact-gated).
    pub mean_interarrival_us: u64,
    /// Queries completed (exact-gated).
    pub completed: u64,
    /// Virtual makespan (drift-gated).
    pub makespan_us: u64,
    /// Exact nearest-rank response percentiles (drift-gated).
    pub response_p50_us: u64,
    /// 99th percentile response (drift-gated).
    pub response_p99_us: u64,
    /// 99.9th percentile response (drift-gated).
    pub response_p999_us: u64,
    /// Total admission-queue wait (drift-gated).
    pub admission_wait_total_us: u64,
}

/// Parse every rate-point object out of a `BENCH_serve.json` document
/// (keyed on `rate_index`; see [`parse_points`] for the error rule).
pub fn parse_serve_points(json: &str) -> Result<Vec<ServeBenchPoint>, String> {
    parse_points(json, "rate_index", |l| {
        Some(ServeBenchPoint {
            rate_index: num_field(l, "rate_index")? as u64,
            load_fraction: num_field(l, "load_fraction")?,
            mean_interarrival_us: num_field(l, "mean_interarrival_us")? as u64,
            completed: num_field(l, "completed")? as u64,
            makespan_us: num_field(l, "makespan_us")? as u64,
            response_p50_us: num_field(l, "response_p50_us")? as u64,
            response_p99_us: num_field(l, "response_p99_us")? as u64,
            response_p999_us: num_field(l, "response_p999_us")? as u64,
            admission_wait_total_us: num_field(l, "admission_wait_total_us")? as u64,
        })
    })
}

/// Parse the serve envelope: `(a_rows, queries, budget_multiplier)`.
pub fn parse_serve_envelope(json: &str) -> Option<(usize, u32, usize)> {
    let find = |key: &str| json.lines().find_map(|l| num_field(l, key));
    Some((
        find("a_rows")? as usize,
        find("queries")? as u32,
        find("budget_multiplier")? as usize,
    ))
}

/// Compare a fresh serve sweep against the committed baseline, point by
/// point (keyed on `rate_index`). Virtual-time quantities (makespan,
/// response percentiles, admission wait) may drift up to `tol_pct`
/// percent; the deterministic identity fields (`mean_interarrival_us`,
/// `completed`) must match exactly. Missing or extra points are failures.
pub fn compare_serve_points(
    baseline: &[ServeBenchPoint],
    fresh: &[ServeBenchPoint],
    tol_pct: f64,
) -> Vec<String> {
    fn drift(id: &str, what: &str, old: u64, new: u64, tol_pct: f64) -> Option<String> {
        if old == new {
            return None;
        }
        // Relative to max(old, 1) so a baseline zero still gates.
        let pct = new.abs_diff(old) as f64 * 100.0 / (old.max(1)) as f64;
        (pct > tol_pct).then(|| {
            format!("{id}: {what} drifted {pct:.3}% ({old} -> {new}, tolerance {tol_pct}%)")
        })
    }
    let mut errs = Vec::new();
    for b in baseline {
        let id = format!("serve point {}", b.rate_index);
        let Some(f) = fresh.iter().find(|f| f.rate_index == b.rate_index) else {
            errs.push(format!("{id}: present in baseline, missing from fresh run"));
            continue;
        };
        if b.mean_interarrival_us != f.mean_interarrival_us {
            errs.push(format!(
                "{id}: mean_interarrival_us changed ({} -> {}) — the offered rate moved",
                b.mean_interarrival_us, f.mean_interarrival_us
            ));
        }
        if b.completed != f.completed {
            errs.push(format!(
                "{id}: completed changed ({} -> {})",
                b.completed, f.completed
            ));
        }
        let checks = [
            ("makespan_us", b.makespan_us, f.makespan_us),
            ("response_p50_us", b.response_p50_us, f.response_p50_us),
            ("response_p99_us", b.response_p99_us, f.response_p99_us),
            ("response_p999_us", b.response_p999_us, f.response_p999_us),
            (
                "admission_wait_total_us",
                b.admission_wait_total_us,
                f.admission_wait_total_us,
            ),
        ];
        errs.extend(
            checks
                .into_iter()
                .filter_map(|(what, old, new)| drift(&id, what, old, new, tol_pct)),
        );
    }
    for f in fresh {
        if !baseline.iter().any(|b| b.rate_index == f.rate_index) {
            errs.push(format!(
                "serve point {}: in fresh run but not in baseline",
                f.rate_index
            ));
        }
    }
    errs
}

/// One skew-grid point parsed from `BENCH_skew.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewBenchPoint {
    /// Skew level (`uniform` / `nu` / `sharp`); identity key with `mode`
    /// and `memory_ratio`.
    pub skew: String,
    /// Machinery (`legacy` / `robust`).
    pub mode: String,
    /// Memory / |inner| ratio.
    pub memory_ratio: f64,
    /// Simulated response time (drift-gated).
    pub response_virtual_us: u64,
    /// Classic re-spray passes (exact-gated).
    pub overflow_passes: u64,
    /// Pages left spilled by the dynamic path (exact-gated).
    pub pages_spilled: u64,
    /// Pages restored into table slack (exact-gated).
    pub pages_restored: u64,
    /// Bucket count (exact-gated).
    pub buckets: u64,
    /// Result cardinality (exact-gated).
    pub result_tuples: u64,
}

/// Parse every grid point out of a `BENCH_skew.json` document. Keyed on
/// the `skew` field, which neither the joinabprime nor the serve documents
/// carry — the three parsers ignore each other's points (see
/// [`parse_points`] for the error rule).
pub fn parse_skew_points(json: &str) -> Result<Vec<SkewBenchPoint>, String> {
    parse_points(json, "skew", |l| {
        Some(SkewBenchPoint {
            skew: str_field(l, "skew")?,
            mode: str_field(l, "mode")?,
            memory_ratio: num_field(l, "memory_ratio")?,
            response_virtual_us: num_field(l, "response_virtual_us")? as u64,
            overflow_passes: num_field(l, "overflow_passes")? as u64,
            pages_spilled: num_field(l, "pages_spilled")? as u64,
            pages_restored: num_field(l, "pages_restored")? as u64,
            buckets: num_field(l, "buckets")? as u64,
            result_tuples: num_field(l, "result_tuples")? as u64,
        })
    })
}

/// Parse the skew envelope: `(a_rows, bprime_rows)`.
pub fn parse_skew_envelope(json: &str) -> Option<(usize, usize)> {
    let find = |key: &str| json.lines().find_map(|l| num_field(l, key));
    Some((find("a_rows")? as usize, find("bprime_rows")? as usize))
}

/// Compare a fresh skew grid against the committed baseline, keyed on
/// (skew, mode, memory_ratio). `response_virtual_us` may drift up to
/// `tol_pct` percent; the deterministic counters (overflow passes, spill
/// and restore pages, buckets, result cardinality) must match exactly.
/// Missing or extra points are failures.
pub fn compare_skew_points(
    baseline: &[SkewBenchPoint],
    fresh: &[SkewBenchPoint],
    tol_pct: f64,
) -> Vec<String> {
    let mut errs = Vec::new();
    let key = |p: &SkewBenchPoint| (p.skew.clone(), p.mode.clone(), p.memory_ratio);
    for b in baseline {
        let id = format!("skew {}/{} @ ratio {}", b.skew, b.mode, b.memory_ratio);
        let Some(f) = fresh.iter().find(|f| key(f) == key(b)) else {
            errs.push(format!("{id}: present in baseline, missing from fresh run"));
            continue;
        };
        let (old, new) = (b.response_virtual_us, f.response_virtual_us);
        if old != new {
            let drift = new.abs_diff(old) as f64 * 100.0 / (old.max(1)) as f64;
            if drift > tol_pct {
                errs.push(format!(
                    "{id}: response_virtual_us drifted {drift:.3}% ({old} -> {new}, tolerance {tol_pct}%)"
                ));
            }
        }
        for (what, old, new) in [
            ("overflow_passes", b.overflow_passes, f.overflow_passes),
            ("pages_spilled", b.pages_spilled, f.pages_spilled),
            ("pages_restored", b.pages_restored, f.pages_restored),
            ("buckets", b.buckets, f.buckets),
            ("result_tuples", b.result_tuples, f.result_tuples),
        ] {
            if old != new {
                errs.push(format!("{id}: {what} changed ({old} -> {new})"));
            }
        }
    }
    for f in fresh {
        if !baseline.iter().any(|b| key(b) == key(f)) {
            errs.push(format!(
                "skew {}/{} @ ratio {}: in fresh run but not in baseline",
                f.skew, f.mode, f.memory_ratio
            ));
        }
    }
    errs
}

/// One allocation ceiling parsed from `ALLOC_CEILINGS.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocCeiling {
    /// Algorithm name as printed by the report.
    pub algorithm: String,
    /// Memory / |inner relation| ratio.
    pub memory_ratio: f64,
    /// Maximum heap allocation events the point may perform on a serial
    /// executor (recorded with ~5% headroom over a measured run).
    pub ceiling_allocs: u64,
}

/// Parse every ceiling object out of an `ALLOC_CEILINGS.json` document.
/// Keyed on the `algorithm` field like the joinabprime points (see
/// [`parse_points`] for the error rule), so feeding either document to
/// the other's parser is an error rather than an empty gate.
pub fn parse_alloc_ceilings(json: &str) -> Result<Vec<AllocCeiling>, String> {
    parse_points(json, "algorithm", |l| {
        Some(AllocCeiling {
            algorithm: str_field(l, "algorithm")?,
            memory_ratio: num_field(l, "memory_ratio")?,
            ceiling_allocs: num_field(l, "ceiling_allocs")? as u64,
        })
    })
}

/// Serialize ceilings in the same hand-rolled one-object-per-line shape the
/// other baselines use (so [`parse_alloc_ceilings`] round-trips them).
pub fn render_alloc_ceilings(scale: f64, points: &[AllocCeiling]) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"benchmark\": \"alloc_ceilings\",\n  \"scale\": {scale},\n  \"points\": [\n"
    ));
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"memory_ratio\": {}, \"ceiling_allocs\": {}}}{}\n",
            p.algorithm,
            p.memory_ratio,
            p.ceiling_allocs,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Gate fresh serial allocation counts against the committed ceilings:
/// a measured count above its ceiling is a data-plane regression (the
/// ceiling carries the headroom, so the comparison is exact). Points in
/// the baseline but not measured are failures; exceeding-ly *low* counts
/// pass (tighten the ceiling by re-recording when an optimisation lands).
pub fn compare_alloc_points(
    ceilings: &[AllocCeiling],
    measured: &[(String, f64, u64)],
) -> Vec<String> {
    let mut errs = Vec::new();
    for c in ceilings {
        let id = format!("{} @ ratio {}", c.algorithm, c.memory_ratio);
        let Some((_, _, got)) = measured
            .iter()
            .find(|(a, r, _)| *a == c.algorithm && *r == c.memory_ratio)
        else {
            errs.push(format!("{id}: in alloc baseline, missing from fresh run"));
            continue;
        };
        if *got > c.ceiling_allocs {
            errs.push(format!(
                "{id}: {got} allocations exceeds the committed ceiling {} — the data plane regressed",
                c.ceiling_allocs
            ));
        }
    }
    errs
}

/// Line-by-line diff of two snapshot documents. Returns one message per
/// differing line (capped at 5, then a count) plus a line-count mismatch if
/// any; empty ⇒ byte-identical up to line endings.
pub fn diff_snapshots(label: &str, baseline: &str, fresh: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let (b_lines, f_lines): (Vec<_>, Vec<_>) =
        (baseline.lines().collect(), fresh.lines().collect());
    let mut shown = 0usize;
    let mut differing = 0usize;
    for (i, (b, f)) in b_lines.iter().zip(&f_lines).enumerate() {
        if b != f {
            differing += 1;
            if shown < 5 {
                errs.push(format!("{label}:{}: baseline `{b}` != fresh `{f}`", i + 1));
                shown += 1;
            }
        }
    }
    if differing > shown {
        errs.push(format!(
            "{label}: {} more differing lines",
            differing - shown
        ));
    }
    if b_lines.len() != f_lines.len() {
        errs.push(format!(
            "{label}: line count {} (baseline) != {} (fresh)",
            b_lines.len(),
            f_lines.len()
        ));
    }
    errs
}

/// Outcome of one regression gate, for the end-of-run summary table.
#[derive(Debug, Clone)]
pub struct GateSummary {
    /// Gate name as printed in the table.
    pub name: &'static str,
    /// Points (or snapshot files) the gate checked.
    pub checked: usize,
    /// Every violation the gate found (empty ⇒ pass).
    pub errors: Vec<String>,
    /// Why the gate did not run, when it was skipped.
    pub skipped: Option<String>,
}

impl GateSummary {
    /// A gate that ran over `checked` points.
    pub fn ran(name: &'static str, checked: usize, errors: Vec<String>) -> Self {
        GateSummary {
            name,
            checked,
            errors,
            skipped: None,
        }
    }

    /// A gate that did not run (e.g. alloc counting on a pooled executor).
    pub fn skip(name: &'static str, why: impl Into<String>) -> Self {
        GateSummary {
            name,
            checked: 0,
            errors: Vec::new(),
            skipped: Some(why.into()),
        }
    }

    /// `PASS` / `FAIL` / `SKIP`.
    pub fn status(&self) -> &'static str {
        if self.skipped.is_some() {
            "SKIP"
        } else if self.errors.is_empty() {
            "PASS"
        } else {
            "FAIL"
        }
    }
}

/// Render the per-gate summary table the `regress` binary prints before
/// exiting: gate name, points checked, status, and the first offending
/// field/point (the full violation lists are printed above the table).
pub fn render_gate_table(gates: &[GateSummary]) -> String {
    let mut out = String::from(
        "gate                            checked  status  first violation / skip reason\n",
    );
    for g in gates {
        let detail = g
            .skipped
            .as_deref()
            .or_else(|| g.errors.first().map(String::as_str))
            .unwrap_or("-");
        out.push_str(&format!(
            "  {:<30} {:>7}  {:<5} {}\n",
            g.name,
            g.checked,
            g.status(),
            detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "benchmark": "joinABprime",
  "scale": 0.25,
  "points": [
    {"algorithm": "hybrid", "memory_ratio": 0.5, "response_virtual_us": 1000000, "peak_pool_pages": 420, "packets": 9000, "short_circuit_ratio": 0.750000}
  ]
}
"#;

    /// Every field name a baseline document carries, envelope and points.
    fn keys(doc: &str) -> std::collections::BTreeSet<&str> {
        doc.match_indices("\":")
            .map(|(end, _)| &doc[doc[..end].rfind('"').map_or(0, |q| q + 1)..end])
            .collect()
    }

    fn pt(alg: &str, ratio: f64, us: u64) -> BenchPoint {
        BenchPoint {
            algorithm: alg.into(),
            memory_ratio: ratio,
            response_virtual_us: us,
            peak_pool_pages: 420,
            packets: 9_000,
            short_circuit_ratio: 0.75,
        }
    }

    #[test]
    fn parses_points_and_scale() {
        let pts = parse_bench_points(DOC).unwrap();
        assert_eq!(pts, [pt("hybrid", 0.5, 1_000_000)]);
        assert_eq!(parse_scale(DOC), Ok(0.25));
    }

    #[test]
    fn rendered_points_round_trip_byte_for_byte() {
        let pts = parse_bench_points(DOC).unwrap();
        assert_eq!(render_bench_points(0.25, &pts), DOC);
    }

    #[test]
    fn damaged_scale_is_an_error_naming_the_line() {
        let with = |v: &str| DOC.replace(r#""scale": 0.25"#, &format!(r#""scale": {v}"#));
        let absent = DOC.replace("  \"scale\": 0.25,\n", "");
        assert!(parse_scale(&absent)
            .expect_err("absent")
            .contains("no `scale`"));
        for (value, why) in [
            ("null", "is null"),
            ("0.2x5", "not a number"),
            ("", "not a number"),
            ("inf", "finite"),
            ("NaN", "finite"),
            ("0", "> 0"),
            ("-0.5", "> 0"),
        ] {
            let err = parse_scale(&with(value)).expect_err(value);
            assert!(
                err.starts_with("line 3:") && err.contains(why),
                "{value}: {err}"
            );
        }
    }

    #[test]
    fn damaged_point_lines_are_errors_naming_the_line() {
        let good = r#"    {"algorithm": "grace", "memory_ratio": 0.2, "response_virtual_us": 75003260, "peak_pool_pages": 7, "packets": 12, "short_circuit_ratio": 0.125000},"#;
        assert_eq!(parse_bench_points(good).unwrap().len(), 1);
        for damaged in [
            // truncated mid-line
            good[..good.len() - 20].to_string(),
            // missing counter
            good.replace(r#" "packets": 12,"#, ""),
            // null counter
            good.replace(r#""peak_pool_pages": 7"#, r#""peak_pool_pages": null"#),
            // unparsable gated value
            good.replace("75003260", "7500x260"),
        ] {
            let doc = format!("{{\n  \"points\": [\n{good}\n{damaged}\n  ]\n}}\n");
            let err = parse_bench_points(&doc).expect_err(&damaged);
            assert!(err.starts_with("line 4:"), "{err}");
            assert!(err.contains(damaged.trim().trim_end_matches(',')), "{err}");
        }
        // The same rule guards the other three baselines.
        let cut = |doc: &str, field: &str| doc.replace(field, "");
        assert!(parse_serve_points(&cut(SERVE_DOC, r#" "completed": 24,"#)).is_err());
        assert!(parse_skew_points(&cut(SKEW_DOC, r#" "buckets": 1,"#)).is_err());
        let ceilings =
            r#"    {"algorithm": "hybrid", "memory_ratio": 0.5, "ceiling_allocs": null}"#;
        assert!(parse_alloc_ceilings(ceilings).is_err());
    }

    #[test]
    fn committed_baselines_parse_completely() {
        let read = |name: &str| {
            std::fs::read_to_string(format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR")))
                .unwrap_or_else(|e| panic!("read {name}: {e}"))
        };
        let bench_doc = read("BENCH_joinabprime.json");
        assert_eq!(parse_bench_points(&bench_doc).unwrap().len(), 12);
        assert_eq!(parse_scale(&bench_doc), Ok(1.0));
        // Only the model's fields: no wall-clock, speedup, allocation count
        // or executor envelope, so the file is a byte-stable artifact.
        assert_eq!(keys(&bench_doc), keys(DOC));
        assert_eq!(
            keys(DOC).into_iter().collect::<Vec<_>>(),
            [
                "algorithm",
                "benchmark",
                "memory_ratio",
                "packets",
                "peak_pool_pages",
                "points",
                "response_virtual_us",
                "scale",
                "short_circuit_ratio"
            ]
        );
        let serve = parse_serve_points(&read("BENCH_serve.json"));
        assert_eq!(serve.unwrap().len(), 6);
        let skew = parse_skew_points(&read("BENCH_skew.json"));
        assert_eq!(skew.unwrap().len(), 36);
        let ceilings_doc = read("ALLOC_CEILINGS.json");
        assert_eq!(parse_alloc_ceilings(&ceilings_doc).unwrap().len(), 12);
        assert!(parse_scale(&ceilings_doc).is_ok());
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let base = vec![pt("hybrid", 0.5, 1_000_000)];
        let fresh = vec![pt("hybrid", 0.5, 1_009_900)]; // 0.99% drift
        assert!(compare_points(&base, &fresh, 1.0).is_empty());
    }

    #[test]
    fn gate_fails_beyond_tolerance() {
        let base = vec![pt("hybrid", 0.5, 1_000_000)];
        let fresh = vec![pt("hybrid", 0.5, 1_010_100)]; // 1.01% drift
        let errs = compare_points(&base, &fresh, 1.0);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("drifted"), "{errs:?}");
        // Shrinking is gated too: a 2% speedup still invalidates the baseline.
        let faster = vec![pt("hybrid", 0.5, 980_000)];
        assert!(!compare_points(&base, &faster, 1.0).is_empty());
    }

    #[test]
    fn gate_fails_on_exact_counter_mismatch() {
        let b = pt("hybrid", 0.5, 1_000_000);
        for (what, f) in [
            (
                "packets",
                BenchPoint {
                    packets: 9_001,
                    ..b.clone()
                },
            ),
            (
                "peak_pool_pages",
                BenchPoint {
                    peak_pool_pages: 421,
                    ..b.clone()
                },
            ),
            (
                "short_circuit_ratio",
                BenchPoint {
                    short_circuit_ratio: 0.750001,
                    ..b.clone()
                },
            ),
        ] {
            let errs = compare_points(std::slice::from_ref(&b), &[f], 1.0);
            assert_eq!(errs.len(), 1, "{errs:?}");
            assert!(errs[0].contains(what), "{errs:?}");
        }
    }

    #[test]
    fn gate_fails_on_missing_or_extra_points() {
        let base = vec![pt("hybrid", 0.5, 1_000_000), pt("grace", 0.2, 2_000_000)];
        let fresh = vec![pt("hybrid", 0.5, 1_000_000), pt("simple", 1.0, 3_000_000)];
        let errs = compare_points(&base, &fresh, 1.0);
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    const SERVE_DOC: &str = r#"{
  "benchmark": "serve",
  "a_rows": 4000,
  "queries": 24,
  "budget_multiplier": 3,
  "budget_pages": 144,
  "peak_pages": 48,
  "solo_response_us": 1200000,
  "bound_qps": 2.5,
  "knee_qps": 2.2,
  "points": [
    {"rate_index": 0, "load_fraction": 0.2, "mean_interarrival_us": 2000000, "offered_qps": 0.5, "completed": 24, "makespan_us": 50000000, "throughput_qps": 0.48, "response_p50_us": 1250000, "response_p99_us": 1400000, "response_p999_us": 1400000, "mean_response_us": 1260.5, "admission_wait_total_us": 0, "peak_utilisation": 0.41}
  ]
}
"#;

    fn spt(idx: u64, makespan: u64, p50: u64) -> ServeBenchPoint {
        ServeBenchPoint {
            rate_index: idx,
            load_fraction: 0.2,
            mean_interarrival_us: 2_000_000,
            completed: 24,
            makespan_us: makespan,
            response_p50_us: p50,
            response_p99_us: p50 + 1000,
            response_p999_us: p50 + 1000,
            admission_wait_total_us: 0,
        }
    }

    #[test]
    fn parses_serve_points_and_envelope() {
        let pts = parse_serve_points(SERVE_DOC).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].rate_index, 0);
        assert_eq!(pts[0].mean_interarrival_us, 2_000_000);
        assert_eq!(pts[0].completed, 24);
        assert_eq!(pts[0].makespan_us, 50_000_000);
        assert_eq!(pts[0].response_p999_us, 1_400_000);
        assert_eq!(parse_serve_envelope(SERVE_DOC), Some((4_000, 24, 3)));
        // The joinabprime parser must not pick serve points up (no
        // algorithm key) and vice versa.
        assert!(parse_bench_points(SERVE_DOC).unwrap().is_empty());
    }

    #[test]
    fn serve_gate_passes_within_tolerance_and_fails_beyond() {
        let base = vec![spt(0, 50_000_000, 1_250_000)];
        let ok = vec![spt(0, 50_400_000, 1_250_000)]; // 0.8% makespan drift
        assert!(compare_serve_points(&base, &ok, 1.0).is_empty());
        let bad = vec![spt(0, 51_000_000, 1_250_000)]; // 2% drift
        let errs = compare_serve_points(&base, &bad, 1.0);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("makespan_us"), "{errs:?}");
    }

    #[test]
    fn serve_gate_is_exact_on_identity_fields() {
        let base = vec![spt(0, 50_000_000, 1_250_000)];
        let mut f = spt(0, 50_000_000, 1_250_000);
        f.completed = 23;
        f.mean_interarrival_us = 2_000_001;
        let errs = compare_serve_points(&base, &[f], 1.0);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("completed")));
        assert!(errs.iter().any(|e| e.contains("mean_interarrival_us")));
    }

    #[test]
    fn serve_gate_fails_on_missing_or_extra_points() {
        let base = vec![spt(0, 1, 1), spt(1, 1, 1)];
        let fresh = vec![spt(1, 1, 1), spt(2, 1, 1)];
        let errs = compare_serve_points(&base, &fresh, 1.0);
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn serve_gate_catches_zero_baseline_regressions() {
        // admission_wait_total_us 0 -> 500: 50000% relative to max(0,1).
        let base = vec![spt(0, 1_000, 1_000)];
        let mut f = spt(0, 1_000, 1_000);
        f.admission_wait_total_us = 500;
        let errs = compare_serve_points(&base, &[f], 1.0);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("admission_wait_total_us"), "{errs:?}");
    }

    const SKEW_DOC: &str = r#"{
  "benchmark": "skew",
  "a_rows": 4000,
  "bprime_rows": 400,
  "points": [
    {"skew": "nu", "mode": "legacy", "memory_ratio": 0.6, "response_virtual_us": 9000000, "overflow_passes": 1, "pages_spilled": 0, "pages_restored": 0, "buckets": 1, "result_tuples": 2100, "bnl": false},
    {"skew": "nu", "mode": "robust", "memory_ratio": 0.6, "response_virtual_us": 7000000, "overflow_passes": 0, "pages_spilled": 12, "pages_restored": 30, "buckets": 1, "result_tuples": 2100, "bnl": false}
  ]
}
"#;

    fn kpt(skew: &str, mode: &str, ratio: f64, us: u64) -> SkewBenchPoint {
        SkewBenchPoint {
            skew: skew.into(),
            mode: mode.into(),
            memory_ratio: ratio,
            response_virtual_us: us,
            overflow_passes: 1,
            pages_spilled: 0,
            pages_restored: 0,
            buckets: 1,
            result_tuples: 2_100,
        }
    }

    #[test]
    fn parses_skew_points_and_envelope() {
        let pts = parse_skew_points(SKEW_DOC).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].skew, "nu");
        assert_eq!(pts[0].mode, "legacy");
        assert_eq!(pts[0].response_virtual_us, 9_000_000);
        assert_eq!(pts[1].pages_restored, 30);
        assert_eq!(parse_skew_envelope(SKEW_DOC), Some((4_000, 400)));
    }

    #[test]
    fn skew_points_are_invisible_to_the_other_parsers_and_vice_versa() {
        // Cross-parser isolation: each baseline document must only feed its
        // own gate, or a gate would fail on fields that are not there.
        assert!(parse_bench_points(SKEW_DOC).unwrap().is_empty());
        assert!(parse_serve_points(SKEW_DOC).unwrap().is_empty());
        assert!(parse_skew_points(DOC).unwrap().is_empty());
        assert!(parse_skew_points(SERVE_DOC).unwrap().is_empty());
    }

    #[test]
    fn skew_gate_drifts_response_and_exacts_counters() {
        let base = vec![kpt("nu", "legacy", 0.6, 1_000_000)];
        let ok = vec![kpt("nu", "legacy", 0.6, 1_009_000)]; // 0.9%
        assert!(compare_skew_points(&base, &ok, 1.0).is_empty());
        let bad = vec![kpt("nu", "legacy", 0.6, 1_020_000)]; // 2%
        let errs = compare_skew_points(&base, &bad, 1.0);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("drifted"), "{errs:?}");
        let mut f = kpt("nu", "legacy", 0.6, 1_000_000);
        f.overflow_passes = 2;
        f.pages_restored = 5;
        let errs = compare_skew_points(&base, &[f], 1.0);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("overflow_passes")));
        assert!(errs.iter().any(|e| e.contains("pages_restored")));
    }

    #[test]
    fn skew_gate_fails_on_missing_or_extra_points() {
        let base = vec![kpt("nu", "legacy", 0.6, 1), kpt("nu", "robust", 0.6, 1)];
        let fresh = vec![kpt("nu", "robust", 0.6, 1), kpt("sharp", "robust", 0.6, 1)];
        let errs = compare_skew_points(&base, &fresh, 1.0);
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn alloc_ceilings_round_trip_and_gate() {
        let ceilings = vec![
            AllocCeiling {
                algorithm: "hybrid".into(),
                memory_ratio: 0.5,
                ceiling_allocs: 10_000,
            },
            AllocCeiling {
                algorithm: "grace".into(),
                memory_ratio: 0.2,
                ceiling_allocs: 20_000,
            },
        ];
        let doc = render_alloc_ceilings(0.2, &ceilings);
        assert_eq!(parse_alloc_ceilings(&doc).unwrap(), ceilings);
        assert_eq!(parse_scale(&doc), Ok(0.2));
        // The other parsers must not pick ceiling points up: the
        // joinabprime one shares the `algorithm` key and rejects them.
        assert!(parse_bench_points(&doc).is_err());
        assert!(parse_alloc_ceilings(DOC).is_err());
        assert!(parse_serve_points(&doc).unwrap().is_empty());
        assert!(parse_skew_points(&doc).unwrap().is_empty());

        // At or under the ceiling passes; over fails; missing fails.
        let ok = vec![
            ("hybrid".to_string(), 0.5, 10_000u64),
            ("grace".to_string(), 0.2, 5_000),
        ];
        assert!(compare_alloc_points(&ceilings, &ok).is_empty());
        let over = vec![
            ("hybrid".to_string(), 0.5, 10_001u64),
            ("grace".to_string(), 0.2, 5_000),
        ];
        let errs = compare_alloc_points(&ceilings, &over);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("exceeds"), "{errs:?}");
        let missing = vec![("hybrid".to_string(), 0.5, 1u64)];
        let errs = compare_alloc_points(&ceilings, &missing);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("missing"), "{errs:?}");
    }

    #[test]
    fn gate_table_shows_status_and_first_violation() {
        let gates = [
            GateSummary::ran("baseline points", 12, vec![]),
            GateSummary::ran(
                "flight-recorder snapshots",
                2,
                vec![
                    "results/prof-hybrid-r50.json:7: baseline `1` != fresh `2`".into(),
                    "second violation".into(),
                ],
            ),
            GateSummary::skip("alloc ceilings", "worker pool active"),
        ];
        let table = render_gate_table(&gates);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "{table}");
        assert!(lines[1].contains("baseline points") && lines[1].contains("PASS"));
        assert!(
            lines[2].contains("FAIL") && lines[2].contains("prof-hybrid-r50.json:7"),
            "{table}"
        );
        assert!(
            !table.contains("second violation"),
            "only the first violation belongs in the table"
        );
        assert!(lines[3].contains("SKIP") && lines[3].contains("worker pool active"));
        assert_eq!(gates[0].status(), "PASS");
        assert_eq!(gates[1].status(), "FAIL");
        assert_eq!(gates[2].status(), "SKIP");
    }

    #[test]
    fn snapshot_diff_finds_changed_lines() {
        assert!(diff_snapshots("s", "a\nb\nc\n", "a\nb\nc\n").is_empty());
        let errs = diff_snapshots("s", "a\nb\nc\n", "a\nX\nc\nd\n");
        assert!(errs.iter().any(|e| e.contains("s:2")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("line count")), "{errs:?}");
    }
}
