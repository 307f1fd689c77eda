//! The committed artifacts and the gates that hold them.
//!
//! The simulator is deterministic, so every committed result — the
//! `BENCH_*.json` sweeps, the metrics snapshots, the flight-recorder
//! profiles, the paper's figures and tables, the ablations, the trace
//! summaries and the EXPLAIN report — is a document a fresh run must
//! reproduce byte for byte: any difference is a *modelled* change, either
//! intentional (re-record the file in the same commit) or a regression.
//! [`artifacts`] is the one table of them: each row is a tracked path and
//! the function that renders its content. The `regress` binary gates
//! every row and `regress --write` re-records every row whose gate fails;
//! nothing else writes a tracked file.
//!
//! The one row that is an inequality rather than bytes is
//! `ALLOC_CEILINGS.json` (Gate 5), a ceiling on each point's heap
//! allocation count on the serial executor. The same row also checks that
//! passes repeat: joins rerun on one machine settle on one allocation
//! count and keep it.
//!
//! Every row records only deterministic fields: the host clock is
//! measured by the two-clock benchmark under `benchmark/`, not here.

use gamma_core::query::{Algorithm, JoinSpec, OverflowPolicy};
use gamma_core::ExecConfig;
use std::fmt::Write as _;

use crate::alloc::count_allocs;
use crate::metrics::{metrics_join, metrics_join_with, reconcile, MetricsRun};
use crate::serve::ServeSweepConfig;
use crate::skew::SkewSweepConfig;
use crate::sweep::{SweepBuilder, Workload};
use crate::{ablations, experiments, joinabprime, prof, serve, skew, tracing};

/// How a row's fresh render is held against its committed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Byte for byte ([`byte_gate`]).
    Bytes,
    /// Each fresh allocation count at or under its committed ceiling
    /// ([`ceiling_gate`]); rendered on the serial executor only, because
    /// worker pools allocate their own bookkeeping concurrently.
    Ceilings,
}

/// A fresh render of one row.
pub struct Rendered {
    /// The file content `regress --write` records.
    pub doc: String,
    /// Failures found while rendering, whatever the committed file says:
    /// a metrics↔ledger reconciliation miss, or an allocation count that
    /// differs between two runs of the same point.
    pub errors: Vec<String>,
}

impl Rendered {
    fn clean(doc: String) -> Self {
        Rendered {
            doc,
            errors: Vec::new(),
        }
    }
}

/// One committed artifact.
pub struct Artifact {
    /// Gate number printed in the summary.
    pub gate: u8,
    /// Path of the committed file, relative to the repository root.
    pub path: String,
    /// How the fresh render is compared with the committed file.
    pub check: Check,
    /// Renders the file's content afresh.
    pub render: Box<dyn Fn() -> Rendered>,
}

fn row(gate: u8, path: impl Into<String>, render: impl Fn() -> Rendered + 'static) -> Artifact {
    Artifact {
        gate,
        path: path.into(),
        check: Check::Bytes,
        render: Box::new(render),
    }
}

/// The points whose metrics snapshot, flight-recorder profile and trace
/// summary are committed under `results/`.
const SNAPSHOT_POINTS: [(Algorithm, f64); 3] = [
    (Algorithm::HybridHash, 0.5),
    (Algorithm::GraceHash, 0.2),
    (Algorithm::SortMerge, 1.0),
];

/// `A`-relation cardinality of the snapshot points (`Bprime` is a 10%
/// sample; the `trace` and `prof` binaries' default).
const SNAPSHOT_SCALE: usize = 20_000;

/// Workload scale the allocation ceilings are recorded at (the same
/// `--scale 0.2` sweep EXPERIMENTS.md benchmarks wall-clock on).
const ALLOC_SCALE: f64 = 0.2;

/// `results/<kind>-<alg>-r<pct>`, the committed layout of a snapshot
/// point's files.
fn stem(kind: &str, alg: Algorithm, ratio: f64) -> String {
    format!(
        "results/{kind}-{}-r{:02}",
        alg.name(),
        (ratio * 100.0) as u32
    )
}

fn snapshot_workload() -> Workload {
    Workload::scaled(SNAPSHOT_SCALE, SNAPSHOT_SCALE / 10)
}

fn snapshot_metrics(alg: Algorithm, ratio: f64) -> MetricsRun {
    metrics_join(&snapshot_workload(), alg, ratio, false, false)
}

/// Every committed deterministic artifact, in gate order:
///
/// * Gate 1: `BENCH_joinabprime.json`, the `joinabprime` sweep at full
///   scale; every point must also reconcile its metrics with its ledger;
/// * Gate 2: `results/metrics-*.{json,prom}`, the snapshot points'
///   metrics (the JSON row also reconciles);
/// * Gate 3: `BENCH_serve.json`, the smoke serve sweep;
/// * Gate 4: `BENCH_skew.json`, the smoke skew grid;
/// * Gate 5: `ALLOC_CEILINGS.json`, every `joinabprime` point at scale
///   0.2 counted twice on the serial executor: the two counts must agree
///   and stay at or under the committed ceiling; and joins rerun pass
///   after pass on one machine must settle on one allocation count;
/// * Gate 6: `results/prof-*.json`, the snapshot points' flight-recorder
///   series;
/// * Gate 7: `results/figures_full.txt` (Figures 5–16, Tables 3 and 4 at
///   full scale), `results/ablations.txt`, `results/trace-*.txt` (the
///   snapshot points' critical-path summaries) and
///   `results/explain-serve.txt` (the EXPLAIN report of one serve rate
///   point at the knee).
pub fn artifacts() -> Vec<Artifact> {
    let mut rows = vec![row(1, "BENCH_joinabprime.json", || {
        let sweep = joinabprime::sweep(joinabprime::BASELINE_SCALE);
        Rendered {
            doc: sweep.render(),
            errors: sweep.unreconciled,
        }
    })];
    for (alg, ratio) in SNAPSHOT_POINTS {
        let stem = stem("metrics", alg, ratio);
        rows.push(row(2, format!("{stem}.json"), move || {
            let run = snapshot_metrics(alg, ratio);
            let errors = reconcile(&run.registry, &run.report)
                .into_iter()
                .map(|e| format!("{} @ ratio {ratio}: reconciliation: {e}", alg.name()))
                .collect();
            Rendered {
                doc: run.json(),
                errors,
            }
        }));
        rows.push(row(2, format!("{stem}.prom"), move || {
            Rendered::clean(snapshot_metrics(alg, ratio).prometheus())
        }));
    }
    rows.push(row(3, "BENCH_serve.json", || {
        let cfg = ServeSweepConfig::smoke();
        Rendered::clean(serve::render_json(&cfg, &serve::serve_sweep(&cfg)))
    }));
    rows.push(row(4, "BENCH_skew.json", || {
        let cfg = SkewSweepConfig::smoke();
        Rendered::clean(skew::render_json(&cfg, &skew::skew_sweep(&cfg)))
    }));
    rows.push(Artifact {
        check: Check::Ceilings,
        ..row(5, "ALLOC_CEILINGS.json", alloc_ceilings)
    });
    for (alg, ratio) in SNAPSHOT_POINTS {
        let path = format!("{}.json", stem("prof", alg, ratio));
        rows.push(row(6, path, move || {
            let run = prof::solo_profile(&snapshot_workload(), alg, ratio, prof::TICK_US);
            Rendered::clean(prof::render_json(&run))
        }));
    }
    rows.push(row(7, "results/figures_full.txt", || {
        Rendered::clean(experiments::render(&Workload::full(), |_| true))
    }));
    rows.push(row(7, "results/ablations.txt", || {
        Rendered::clean(ablations::render(|_| true))
    }));
    for (alg, ratio) in SNAPSHOT_POINTS {
        let path = format!("{}.txt", stem("trace", alg, ratio));
        rows.push(row(7, path, move || {
            let run = tracing::trace_join(&snapshot_workload(), alg, ratio, false);
            Rendered::clean(run.summary())
        }));
    }
    rows.push(row(7, "results/explain-serve.txt", || {
        let cfg = ServeSweepConfig {
            a_rows: 2_000,
            queries: 8,
            ..ServeSweepConfig::smoke()
        };
        Rendered::clean(serve::explain_doc(&cfg, 1.0))
    }));
    rows
}

/// The Gate 5 render: count every `joinabprime` point's heap allocations
/// twice on the serial executor (the counts are meaningful only under the
/// `regress` binary's counting allocator) and record each count with
/// [`ceiling_for`]'s headroom.
fn alloc_ceilings() -> Rendered {
    let w = Workload::at_scale(ALLOC_SCALE);
    // The workload memoizes the reference join's result; compute it
    // before counting, so every point counts its own join alone.
    w.expect("unique1", "unique1");
    let mut errors = Vec::new();
    let mut ceilings = Vec::new();
    for (alg, ratio) in joinabprime::cases() {
        let count = || {
            count_allocs(|| metrics_join_with(&w, alg, ratio, false, false, ExecConfig::serial())).1
        };
        let (allocs, again) = (count(), count());
        if allocs != again {
            errors.push(format!(
                "{} @ ratio {ratio}: {allocs} then {again} allocations — the count \
                 depends on more than the inputs",
                alg.name()
            ));
        }
        ceilings.push(AllocCeiling {
            algorithm: alg.name().to_string(),
            memory_ratio: ratio,
            ceiling_allocs: ceiling_for(allocs),
        });
    }
    errors.extend(pass_repeat_errors());
    Rendered {
        doc: render_alloc_ceilings(ALLOC_SCALE, &ceilings),
        errors,
    }
}

/// Most passes [`pass_repeat_errors`] runs before two in a row agree.
const WARM_PASSES: usize = 4;
/// Passes [`pass_repeat_errors`] then holds to the settled count.
const HELD_PASSES: usize = 4;

/// Passes repeat by construction: two of the benchmark's smoke points,
/// each rerun as one pass after another on one machine, as the benchmark
/// reruns it. One is the `skew-overflow` grid (a 500 × 50 join on `normal`
/// drawn at `sd` = 1, Hybrid under the optimistic policy at ratio 0.5,
/// legacy then robust); the other is `sort-merge` at ratio 0.2 (a
/// 5,000 × 500 join on `unique1`), whose outer fragments take three or
/// four merge passes per node. A buffer, free list or table that `clear()` keeps but
/// a pass still grows shows up as a pass that allocates more than the one
/// before. The passes warm up until two in a row allocate alike (at most
/// [`WARM_PASSES`]); each of the next [`HELD_PASSES`] must then allocate
/// exactly that. Counts under the `regress` binary's counting allocator,
/// serially.
fn pass_repeat_errors() -> Vec<String> {
    let w = Workload::scaled_nu(500, 50, 1.0);
    let builder = SweepBuilder::new(&w)
        .on("normal", "normal")
        .policy(OverflowPolicy::Optimistic)
        .exec(ExecConfig::serial());
    let (mut machine, legacy) = builder.prepare(Algorithm::HybridHash, 0.5);
    let robust = JoinSpec {
        skew_refinement: true,
        dynamic_spill: true,
        ..legacy.clone()
    };
    // Memoize the reference join before counting, as `alloc_ceilings` does.
    w.expect("normal", "normal");
    let mut errors = settled_errors("skew-overflow smoke grid", || {
        for spec in [&legacy, &robust] {
            builder.measure(&mut machine, spec, Algorithm::HybridHash, 0.5);
        }
    });

    let w = Workload::at_scale(0.05);
    let builder = SweepBuilder::new(&w).exec(ExecConfig::serial());
    let (mut machine, spec) = builder.prepare(Algorithm::SortMerge, 0.2);
    w.expect("unique1", "unique1");
    errors.extend(settled_errors("sort-merge smoke point", || {
        builder.measure(&mut machine, &spec, Algorithm::SortMerge, 0.2);
    }));
    errors
}

/// Run `pass` until two passes in a row allocate alike, then
/// [`HELD_PASSES`] more, and name each of those that allocates otherwise.
fn settled_errors(what: &str, mut run: impl FnMut()) -> Vec<String> {
    let mut pass = || count_allocs(&mut run).1;
    let mut last = pass();
    let mut warm = 1;
    while warm < WARM_PASSES {
        let next = pass();
        warm += 1;
        if next == last {
            break;
        }
        last = next;
    }
    let mut errors = Vec::new();
    for held in 1..=HELD_PASSES {
        let count = pass();
        if count != last {
            errors.push(format!(
                "{what} on one machine: pass {} allocated {count} times where the \
                 warmed-up passes allocated {last} — something a pass grows \
                 outlives its clear()",
                warm + held
            ));
        }
    }
    errors
}

/// The ceiling recorded for a measured allocation count: ~5% headroom.
/// Counts are deterministic for one toolchain, but std container growth
/// policies may shift across rustc releases; the gate targets
/// order-of-magnitude regressions.
fn ceiling_for(allocs: u64) -> u64 {
    allocs + allocs / 20 + 64
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

/// Parse every ceiling object out of an `ALLOC_CEILINGS.json` document:
/// every line carrying `"algorithm":` must be one whole `{...}` object with
/// all three fields. A line that does not yield a complete ceiling —
/// truncated, a field missing, `null` or unparsable — is an error naming
/// the line, so a damaged document can never gate fewer points than it
/// lists. Lines without the key (the envelope) are skipped.
pub fn parse_alloc_ceilings(json: &str) -> Result<Vec<AllocCeiling>, String> {
    let ceiling = |l: &str| {
        Some(AllocCeiling {
            algorithm: str_field(l, "algorithm")?,
            memory_ratio: num_field(l, "memory_ratio")?,
            ceiling_allocs: num_field(l, "ceiling_allocs")? as u64,
        })
    };
    json.lines()
        .enumerate()
        .filter(|(_, l)| l.contains("\"algorithm\":"))
        .map(|(i, l)| {
            let obj = l.trim().trim_end_matches(',');
            Some(obj)
                .filter(|o| o.starts_with('{') && o.ends_with('}'))
                .and_then(ceiling)
                .ok_or_else(|| format!("line {}: not a complete ceiling: {obj}", i + 1))
        })
        .collect()
}

/// Serialize ceilings in the hand-rolled one-object-per-line shape the
/// other baselines use (so [`parse_alloc_ceilings`] round-trips them).
pub fn render_alloc_ceilings(scale: f64, points: &[AllocCeiling]) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"alloc_ceilings\",\n  \"scale\": {scale},\n  \"points\": ["
    );
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"memory_ratio\": {}, \"ceiling_allocs\": {}}}{}",
            p.algorithm,
            p.memory_ratio,
            p.ceiling_allocs,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    json
}

/// Gate fresh ceilings against the committed ones: a point whose fresh
/// count exceeds its committed ceiling is a data-plane regression. The
/// fresh side is a re-recorded document, and `ceiling_for` is strictly
/// increasing, so a count exceeds the committed ceiling `c` exactly when
/// its re-recorded ceiling exceeds `ceiling_for(c)`. Points committed but
/// not re-recorded are failures; counts that fall pass (to tighten the
/// ceilings when an optimisation lands, delete `ALLOC_CEILINGS.json` and
/// run `regress --write`).
pub fn compare_alloc_points(committed: &[AllocCeiling], fresh: &[AllocCeiling]) -> Vec<String> {
    let mut errs = Vec::new();
    for c in committed {
        let id = format!("{} @ ratio {}", c.algorithm, c.memory_ratio);
        let Some(f) = fresh
            .iter()
            .find(|f| f.algorithm == c.algorithm && f.memory_ratio == c.memory_ratio)
        else {
            errs.push(format!("{id}: in alloc baseline, missing from fresh run"));
            continue;
        };
        if f.ceiling_allocs > ceiling_for(c.ceiling_allocs) {
            errs.push(format!(
                "{id}: more allocations than the committed ceiling {} (re-recorded \
                 ceiling {}) — the data plane regressed",
                c.ceiling_allocs, f.ceiling_allocs
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

/// Read the committed file at `path`, or an error naming it and the fix.
fn committed(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: unreadable ({e}); run `regress --write` to write it"))
}

/// The byte gate: compare `fresh` with the committed file at `path`. Each
/// differing line is reported as `path:line` (see [`diff_snapshots`]), a
/// difference in line endings alone as `path`, and a missing or
/// unreadable file names `regress --write`. Empty ⇒ byte-identical.
pub fn byte_gate(path: &str, fresh: &str) -> Vec<String> {
    match committed(path) {
        Ok(committed) => {
            let mut errs = diff_snapshots(path, &committed, fresh);
            if errs.is_empty() && committed != fresh {
                errs.push(format!("{path}: line endings differ from a fresh render"));
            }
            errs
        }
        Err(e) => vec![e],
    }
}

/// The ceiling gate: hold the re-recorded ceilings document `fresh`
/// against the committed one at `path` ([`compare_alloc_points`]).
pub fn ceiling_gate(path: &str, fresh: &str) -> Vec<String> {
    let parsed = committed(path)
        .and_then(|doc| parse_alloc_ceilings(&doc).map_err(|e| format!("{path}: {e}")));
    match parsed {
        Ok(committed) => {
            let fresh = parse_alloc_ceilings(fresh).expect("a rendered ceilings document parses");
            compare_alloc_points(&committed, &fresh)
        }
        Err(e) => vec![e],
    }
}

/// Outcome of one row, for the end-of-run summary table.
#[derive(Debug, Clone)]
pub struct RowSummary {
    /// Gate number.
    pub gate: u8,
    /// The row's committed path.
    pub path: String,
    /// Every violation found (empty ⇒ pass).
    pub errors: Vec<String>,
    /// Why the row was not rendered, when it was not.
    pub skipped: Option<String>,
    /// `regress --write` re-recorded the committed file.
    pub wrote: bool,
}

impl RowSummary {
    /// `PASS` / `FAIL` / `SKIP` / `WROTE`.
    pub fn status(&self) -> &'static str {
        if !self.errors.is_empty() {
            "FAIL"
        } else if self.skipped.is_some() {
            "SKIP"
        } else if self.wrote {
            "WROTE"
        } else {
            "PASS"
        }
    }
}

/// Render the per-row summary table the `regress` binary prints before
/// exiting: gate, path, status, and the first violation or skip reason
/// (the full violation lists are printed above the table).
pub fn render_gate_table(rows: &[RowSummary]) -> String {
    let mut out = String::from(
        "gate  artifact                               status first violation / skip reason\n",
    );
    for r in rows {
        let detail = r
            .errors
            .first()
            .map(String::as_str)
            .or(r.skipped.as_deref())
            .unwrap_or("-");
        let _ = writeln!(
            out,
            "  {:<3} {:<38} {:<6} {}",
            r.gate,
            r.path,
            r.status(),
            detail
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damaged_point_lines_are_errors_naming_the_line() {
        let good = r#"    {"algorithm": "grace", "memory_ratio": 0.2, "ceiling_allocs": 4210},"#;
        assert_eq!(parse_alloc_ceilings(good).unwrap().len(), 1);
        for damaged in [
            // truncated mid-line
            good[..good.len() - 10].to_string(),
            // missing field
            good.replace(r#" "memory_ratio": 0.2,"#, ""),
            // null field
            good.replace("4210", "null"),
            // unparsable value
            good.replace("4210", "42x0"),
        ] {
            let doc = format!("{{\n  \"points\": [\n{good}\n{damaged}\n  ]\n}}\n");
            let err = parse_alloc_ceilings(&doc).expect_err(&damaged);
            assert!(err.starts_with("line 4:"), "{err}");
            assert!(err.contains(damaged.trim().trim_end_matches(',')), "{err}");
        }
    }

    #[test]
    fn committed_ceilings_parse_completely() {
        let path = format!("{}/../../ALLOC_CEILINGS.json", env!("CARGO_MANIFEST_DIR"));
        let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        assert_eq!(parse_alloc_ceilings(&doc).unwrap().len(), 12);
    }

    #[test]
    fn alloc_ceilings_round_trip_and_gate() {
        let ceiling = |algorithm: &str, memory_ratio, allocs| AllocCeiling {
            algorithm: algorithm.into(),
            memory_ratio,
            ceiling_allocs: ceiling_for(allocs),
        };
        let committed = vec![
            ceiling("hybrid", 0.5, 10_000),
            ceiling("grace", 0.2, 20_000),
        ];
        let doc = render_alloc_ceilings(0.2, &committed);
        assert_eq!(parse_alloc_ceilings(&doc).unwrap(), committed);

        // A count at or under the committed ceiling passes, one over it
        // fails, a missing point fails.
        let at = committed[0].ceiling_allocs;
        let ok = vec![ceiling("hybrid", 0.5, at), ceiling("grace", 0.2, 5_000)];
        assert!(compare_alloc_points(&committed, &ok).is_empty());
        let over = vec![ceiling("hybrid", 0.5, at + 1), ceiling("grace", 0.2, 5_000)];
        let errs = compare_alloc_points(&committed, &over);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("regressed"), "{errs:?}");
        let missing = vec![ceiling("hybrid", 0.5, 1)];
        let errs = compare_alloc_points(&committed, &missing);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("missing"), "{errs:?}");
    }

    #[test]
    fn gate_table_shows_status_and_first_violation() {
        let summary = |gate, path: &str, errors: Vec<String>, skipped: Option<&str>| RowSummary {
            gate,
            path: path.into(),
            errors,
            skipped: skipped.map(Into::into),
            wrote: false,
        };
        let rows = [
            summary(1, "BENCH_joinabprime.json", vec![], None),
            summary(
                6,
                "results/prof-hybrid-r50.json",
                vec![
                    "results/prof-hybrid-r50.json:7: baseline `1` != fresh `2`".into(),
                    "second violation".into(),
                ],
                None,
            ),
            summary(5, "ALLOC_CEILINGS.json", vec![], Some("worker pool active")),
        ];
        let table = render_gate_table(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "{table}");
        assert!(lines[1].contains("BENCH_joinabprime.json") && lines[1].contains("PASS"));
        assert!(
            lines[2].contains("FAIL") && lines[2].contains("prof-hybrid-r50.json:7"),
            "{table}"
        );
        assert!(
            !table.contains("second violation"),
            "only the first violation belongs in the table"
        );
        assert!(lines[3].contains("SKIP") && lines[3].contains("worker pool active"));
        assert_eq!(rows[0].status(), "PASS");
        assert_eq!(rows[1].status(), "FAIL");
        assert_eq!(rows[2].status(), "SKIP");
    }

    #[test]
    fn snapshot_diff_finds_changed_lines() {
        assert!(diff_snapshots("s", "a\nb\nc\n", "a\nb\nc\n").is_empty());
        let errs = diff_snapshots("s", "a\nb\nc\n", "a\nX\nc\nd\n");
        assert!(errs.iter().any(|e| e.contains("s:2")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("line count")), "{errs:?}");
    }

    #[test]
    fn byte_gate_passes_only_identical_bytes() {
        let dir = std::env::temp_dir().join(format!("regress-byte-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_x.json");
        let path = path.to_str().unwrap();
        let doc = "{\n  \"a_rows\": 4000,\n  \"points\": [\n    {\"us\": 9000000}\n  ]\n}\n";
        std::fs::write(path, doc).unwrap();

        assert!(byte_gate(path, doc).is_empty());
        // One digit changed: the error names the file and the line.
        let errs = byte_gate(path, &doc.replace("9000000", "9000001"));
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with(&format!("{path}:4: ")), "{errs:?}");
        // Only the final newline differs: still not byte-identical.
        let errs = byte_gate(path, doc.trim_end());
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("line endings"), "{errs:?}");
        // No committed file: the error names the command that writes it.
        std::fs::remove_file(path).unwrap();
        let errs = byte_gate(path, doc);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            errs[0].starts_with(path) && errs[0].contains("run `regress --write`"),
            "{errs:?}"
        );
        std::fs::remove_dir(&dir).unwrap();
    }

    /// Every tracked file under `results/` (bar `results/host/`, the
    /// host-clock measurements), every root `BENCH_*.json` and
    /// `ALLOC_CEILINGS.json` is one row of [`artifacts`], and every row
    /// names a file that exists. Files `.gitignore` matches under
    /// `results/` (the `trace` and `prof` exports) are not committed.
    #[test]
    fn every_committed_artifact_has_one_row() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rows: Vec<String> = artifacts().into_iter().map(|a| a.path).collect();
        for (i, path) in rows.iter().enumerate() {
            assert!(root.join(path).is_file(), "row {path} names a missing file");
            assert!(!rows[..i].contains(path), "{path} has two rows");
        }

        let gitignore = std::fs::read_to_string(root.join(".gitignore")).unwrap();
        let ignored = |path: &str| {
            gitignore
                .lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.split_once('*'))
                .any(|(pre, suf)| {
                    path.len() >= pre.len() + suf.len()
                        && path.starts_with(pre)
                        && path.ends_with(suf)
                })
        };
        fn walk(root: &std::path::Path, dir: &str, out: &mut Vec<String>) {
            for entry in std::fs::read_dir(root.join(dir)).unwrap() {
                let entry = entry.unwrap();
                let path = format!("{dir}/{}", entry.file_name().to_string_lossy());
                if entry.file_type().unwrap().is_dir() {
                    if path != "results/host" {
                        walk(root, &path, out);
                    }
                } else {
                    out.push(path);
                }
            }
        }
        let mut committed = vec!["ALLOC_CEILINGS.json".to_string()];
        for entry in std::fs::read_dir(&root).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                committed.push(name);
            }
        }
        walk(&root, "results", &mut committed);
        for path in committed.iter().filter(|p| !ignored(p)) {
            assert!(
                rows.contains(path),
                "{path} has no row in regress::artifacts()"
            );
        }
    }
}
