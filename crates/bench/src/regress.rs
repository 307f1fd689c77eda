//! Virtual-time regression gates.
//!
//! The simulator is deterministic, so every committed baseline — the
//! `BENCH_*.json` sweeps, the metrics snapshots and the flight-recorder
//! profiles — is a document a fresh run must reproduce byte for byte: any
//! difference is a *modelled* change, either intentional (re-record the
//! file in the same commit) or a regression. The one baseline that is an
//! inequality rather than bytes is `ALLOC_CEILINGS.json`, a ceiling on
//! each point's heap allocation count. This module holds the pure pieces
//! of the gates — the byte comparison, the ceiling document and its
//! comparison, the summary table — so they are unit-testable without
//! rerunning joins. The `regress` binary wires them to fresh runs.
//!
//! Every baseline records only deterministic fields: the host clock is
//! measured by the two-clock benchmark under `benchmark/`, not here.

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

/// The byte gate every committed document goes through: compare `fresh`
/// with the committed file at `path`. Each differing line is reported as
/// `path:line` (see [`diff_snapshots`]), a difference in line endings
/// alone as `path`, and a missing or unreadable file names `writer`, the
/// command that writes it. Empty ⇒ byte-identical.
pub fn byte_gate(path: &str, fresh: &str, writer: &str) -> Vec<String> {
    match std::fs::read_to_string(path) {
        Ok(committed) => {
            let mut errs = diff_snapshots(path, &committed, fresh);
            if errs.is_empty() && committed != fresh {
                errs.push(format!("{path}: line endings differ from a fresh render"));
            }
            errs
        }
        Err(e) => vec![format!(
            "{path}: unreadable ({e}); run `{writer}` to write it"
        )],
    }
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

    #[test]
    fn byte_gate_passes_only_identical_bytes() {
        let dir = std::env::temp_dir().join(format!("regress-byte-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_x.json");
        let path = path.to_str().unwrap();
        let doc = "{\n  \"a_rows\": 4000,\n  \"points\": [\n    {\"us\": 9000000}\n  ]\n}\n";
        std::fs::write(path, doc).unwrap();

        assert!(byte_gate(path, doc, "x").is_empty());
        // One digit changed: the error names the file and the line.
        let errs = byte_gate(path, &doc.replace("9000000", "9000001"), "x");
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with(&format!("{path}:4: ")), "{errs:?}");
        // Only the final newline differs: still not byte-identical.
        let errs = byte_gate(path, doc.trim_end(), "x");
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("line endings"), "{errs:?}");
        // No committed file: the error names the command that writes it.
        std::fs::remove_file(path).unwrap();
        let errs = byte_gate(path, doc, "skew");
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            errs[0].starts_with(path) && errs[0].contains("run `skew`"),
            "{errs:?}"
        );
        std::fs::remove_dir(&dir).unwrap();
    }
}
