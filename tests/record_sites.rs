//! Every ledger count in the substrate and engine crates is charged by one
//! `Usage::record` call, which also adds the metric series and trace event
//! that mirror it. This test scans the non-test source of `gamma-net`,
//! `gamma-wiss` and `gamma-core` and fails on a hand-written charge: a
//! `counts.<field> +=` or a metric add of a series `record` owns.

use std::fs;
use std::path::{Path, PathBuf};

/// Metric series that mirror a `Counts` field; only `Usage::record` adds
/// them. Written out by hand so this check does not trust the table it
/// polices.
const LEDGER_SERIES: &[&str] = &[
    "pages_read",
    "pages_written",
    "packets_sent",
    "packets_recv",
    "wire_bytes",
    "packet_bytes",
    "msgs_shortcircuit",
    "shortcircuit_bytes",
    "control_msgs",
    "op_tuples_in",
    "op_tuples_out",
    "hash_inserts",
    "hash_probes",
    "comparisons",
    "probe_chain_compares",
    "filter_drops",
    "overflow_evictions",
    "pages_restored",
    "pages_spilled",
];

/// Metric calls that create or add to a series.
const METRIC_CALLS: &[&str] = &["counter_add(", "counter_add_at(", "observe(", "observe_at("];

/// The one allowed direct ledger charge: the sort kernel's comparisons,
/// which have no node, metric series or trace event.
const EXEMPT: (&str, &str) = ("crates/wiss/src/sort.rs", "counts.comparisons");

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The file's text above its `#[cfg(test)] mod` block.
fn non_test_body(src: &str) -> &str {
    let mut at = 0;
    let mut lines = src.lines().peekable();
    while let Some(line) = lines.next() {
        if line.trim() == "#[cfg(test)]" && lines.peek().is_some_and(|l| l.contains("mod ")) {
            return &src[..at];
        }
        at += line.len() + 1;
    }
    src
}

fn line_of(src: &str, at: usize) -> usize {
    src[..at].matches('\n').count() + 1
}

/// `counts.<field> +=` charges, as (byte offset, `counts.<field>`).
fn ledger_bumps(src: &str) -> Vec<(usize, &str)> {
    let mut found = Vec::new();
    for (at, _) in src.match_indices("counts.") {
        let rest = &src[at + "counts.".len()..];
        let field = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if field > 0 && rest[field..].trim_start().starts_with("+=") {
            found.push((at, &src[at..at + "counts.".len() + field]));
        }
    }
    found
}

/// Metric calls whose first argument is a ledger-mirrored series name, as
/// (byte offset, name).
fn ledger_series_adds(src: &str) -> Vec<(usize, &str)> {
    let mut found = Vec::new();
    for call in METRIC_CALLS {
        for (at, _) in src.match_indices(call) {
            let arg = src[at + call.len()..].trim_start();
            let Some(lit) = arg.strip_prefix('"') else {
                continue;
            };
            let name = &lit[..lit.find('"').unwrap()];
            if LEDGER_SERIES.contains(&name) {
                found.push((at, name));
            }
        }
    }
    found
}

#[test]
fn every_ledger_count_is_charged_by_record() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    let mut exempt_seen = 0;
    let mut record_calls = 0;
    for krate in ["net", "wiss", "core"] {
        let mut files = Vec::new();
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
        files.sort();
        assert!(!files.is_empty(), "no sources under crates/{krate}/src");
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&path).unwrap();
            let body = non_test_body(&text);
            record_calls += body.matches(".record(").count();
            for (at, what) in ledger_bumps(body) {
                if (rel.as_str(), what) == EXEMPT {
                    exempt_seen += 1;
                } else {
                    violations.push(format!("{rel}:{}: `{what} +=`", line_of(body, at)));
                }
            }
            for (at, name) in ledger_series_adds(body) {
                violations.push(format!("{rel}:{}: series `{name}`", line_of(body, at)));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "ledger counts charged outside `Usage::record`:\n  {}",
        violations.join("\n  ")
    );
    assert_eq!(
        exempt_seen, 1,
        "the {EXEMPT:?} exemption no longer matches one charge"
    );
    assert!(
        record_calls > 0,
        "no `record` call found: is the scan looking in the right place?"
    );
}

#[test]
fn the_scanner_sees_what_it_polices() {
    let src = "fn f(u: &mut Usage) {\n    u.counts.pages_read += 1;\n    \
               gamma_metrics::counter_add(\n        \"wire_bytes\", 0, \"x\", 1);\n    \
               gamma_metrics::counter_add(\"pool_hits\", 0, \"pool\", 1);\n}\n\
               #[cfg(test)]\nmod tests {\n    fn g(u: &mut Usage) { u.counts.tuples_in += 1; }\n}\n";
    let body = non_test_body(src);
    assert!(!body.contains("mod tests"));
    let bumps: Vec<_> = ledger_bumps(body)
        .into_iter()
        .map(|(at, w)| (line_of(body, at), w))
        .collect();
    assert_eq!(bumps, vec![(2, "counts.pages_read")]);
    let adds: Vec<_> = ledger_series_adds(body)
        .into_iter()
        .map(|(_, n)| n)
        .collect();
    assert_eq!(adds, vec!["wire_bytes"]);
}
