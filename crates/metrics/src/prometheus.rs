//! Prometheus text-exposition writer.
//!
//! Renders a [`Registry`] snapshot in the Prometheus text format
//! (version 0.0.4): one `# HELP` + `# TYPE` header pair per metric (HELP
//! first, as the format requires), one sample line per series, counters
//! suffixed `_total`, histograms expanded into cumulative
//! `_bucket{le=...}` lines plus `_sum`/`_count`. All metric names carry
//! the `gamma_` prefix. Because the registry's key order is canonical,
//! the output is byte-identical for identical registries.

use std::fmt::Write as _;

use crate::{Key, Registry, Value, BUCKET_BOUNDS, GLOBAL_PHASE};

/// Help text for the well-known registry metrics; generic for the rest.
/// Static strings only — no format specials to escape.
fn metric_help(name: &str) -> &'static str {
    match name {
        "cpu_us" => "simulated CPU service time charged to the ledger",
        "disk_us" => "simulated disk service time charged to the ledger",
        "net_us" => "simulated network-interface service time charged to the ledger",
        "pages_read" => "buffer-pool pages read",
        "pages_written" => "buffer-pool pages written",
        "pool_peak_pages" => "peak buffer-pool residency in pages",
        "packets" => "packets placed on the shared ring",
        "short_circuits" => "messages short-circuited past the ring",
        "disk_request_wait_us" => "simulated time disk requests spent queued before service",
        "net_request_wait_us" => "simulated time network requests spent queued before service",
        _ => "deterministic simulated-run metric (see DESIGN.md)",
    }
}

/// Render the full registry in Prometheus text-exposition format,
/// written straight into the one output buffer.
pub fn render(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for (key, value) in registry.iter() {
        let name = key.name;
        if name != last_name {
            let _ = write!(
                out,
                "# HELP gamma_{name} {}\n# TYPE gamma_{name} {}\n",
                metric_help(name),
                value.kind()
            );
            last_name = name;
        }
        match value {
            Value::Counter(v) => {
                sample(&mut out, registry, key, "_total");
                let _ = writeln!(out, "}} {v}");
            }
            Value::Gauge(v) => {
                sample(&mut out, registry, key, "");
                let _ = writeln!(out, "}} {v}");
            }
            Value::Histogram(h) => {
                let mut cum = 0u64;
                for (bound, count) in BUCKET_BOUNDS.iter().zip(h.buckets().iter()) {
                    cum += count;
                    sample(&mut out, registry, key, "_bucket");
                    let _ = writeln!(out, ",le=\"{bound}\"}} {cum}");
                }
                sample(&mut out, registry, key, "_bucket");
                let _ = writeln!(out, ",le=\"+Inf\"}} {}", h.count);
                sample(&mut out, registry, key, "_sum");
                let _ = writeln!(out, "}} {}", h.sum);
                sample(&mut out, registry, key, "_count");
                let _ = writeln!(out, "}} {}", h.count);
            }
        }
    }
    out
}

/// Append a sample line's head, `gamma_<name><suffix>{<labels>`; the
/// caller closes the label set and writes the value.
fn sample(out: &mut String, registry: &Registry, key: &Key, suffix: &str) {
    let _ = write!(out, "gamma_{}{suffix}{{node=\"{}\"", key.name, key.node);
    if key.phase != GLOBAL_PHASE {
        let _ = write!(out, ",phase=\"{}\"", key.phase);
        if let Some(name) = registry.phase_name(key.phase) {
            out.push_str(",phase_name=\"");
            escape(out, name);
            out.push('"');
        }
    }
    if !key.op.is_empty() {
        out.push_str(",op=\"");
        escape(out, key.op);
        out.push('"');
    }
}

/// Append a label value escaped per the text format: backslash, quote and
/// newline (a raw newline would split the sample line).
fn escape(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'\\' => "\\\\",
            b'"' => "\\\"",
            b'\n' => "\\n",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(esc);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_three_kinds() {
        let mut r = Registry::new();
        r.counter_add("pages_read", 0, "pool", 5);
        r.seal_phase("build");
        r.gauge_max_at("pool_peak_pages", GLOBAL_PHASE, 1, "", 40);
        r.observe("disk_request_wait_us", 0, "", 3);
        r.seal_phase("probe");
        let text = render(&r);
        assert!(text.contains("# TYPE gamma_pages_read counter\n"));
        assert!(text.contains(
            "gamma_pages_read_total{node=\"0\",phase=\"0\",phase_name=\"build\",op=\"pool\"} 5\n"
        ));
        assert!(text.contains("# TYPE gamma_pool_peak_pages gauge\n"));
        assert!(
            text.contains("gamma_pool_peak_pages{node=\"1\"} 40\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE gamma_disk_request_wait_us histogram\n"));
        assert!(text.contains(
            "gamma_disk_request_wait_us_bucket{node=\"0\",phase=\"1\",phase_name=\"probe\",le=\"4\"} 1\n"
        ));
        assert!(text.contains(
            "gamma_disk_request_wait_us_bucket{node=\"0\",phase=\"1\",phase_name=\"probe\",le=\"+Inf\"} 1\n"
        ));
        assert!(text.contains(
            "gamma_disk_request_wait_us_sum{node=\"0\",phase=\"1\",phase_name=\"probe\"} 3\n"
        ));
    }

    #[test]
    fn buckets_are_cumulative() {
        let mut r = Registry::new();
        r.observe("h", 0, "", 1);
        r.observe("h", 0, "", 2);
        r.observe("h", 0, "", 2);
        let text = render(&r);
        assert!(text.contains("le=\"1\"} 1\n"));
        assert!(text.contains("le=\"2\"} 3\n"));
        assert!(text.contains("le=\"4\"} 3\n"));
    }

    #[test]
    fn type_header_emitted_once_per_metric() {
        let mut r = Registry::new();
        r.counter_add("c", 0, "", 1);
        r.counter_add("c", 1, "", 1);
        let text = render(&r);
        assert_eq!(text.matches("# TYPE gamma_c counter").count(), 1);
    }

    #[test]
    fn help_precedes_type_once_per_metric() {
        let mut r = Registry::new();
        r.counter_add("pages_read", 0, "pool", 5);
        r.counter_add("pages_read", 1, "pool", 5);
        r.gauge_max_at("pool_peak_pages", GLOBAL_PHASE, 0, "", 40);
        r.observe("disk_request_wait_us", 0, "", 3);
        let text = render(&r);
        for name in ["pages_read", "pool_peak_pages", "disk_request_wait_us"] {
            let help = format!("# HELP gamma_{name} ");
            let ty = format!("# TYPE gamma_{name} ");
            assert_eq!(text.matches(&help).count(), 1, "{name}: one HELP line");
            assert_eq!(text.matches(&ty).count(), 1, "{name}: one TYPE line");
            let h = text.find(&help).unwrap();
            let t = text.find(&ty).unwrap();
            assert!(h < t, "{name}: HELP must precede TYPE");
            // The header pair is adjacent: nothing between HELP and TYPE.
            let between = &text[h..t];
            assert_eq!(
                between.matches('\n').count(),
                1,
                "{name}: HELP and TYPE must be adjacent lines"
            );
        }
        // Comment lines never carry the sample suffixes.
        for line in text.lines().filter(|l| l.starts_with('#')) {
            assert!(
                line.starts_with("# HELP gamma_") || line.starts_with("# TYPE gamma_"),
                "unexpected comment shape: {line}"
            );
        }
    }

    #[test]
    fn label_values_escape_quote_backslash_and_newline() {
        let mut r = Registry::new();
        r.counter_add("c", 0, "q\"w\\e\nr", 1);
        let text = render(&r);
        assert!(
            text.contains("op=\"q\\\"w\\\\e\\nr\""),
            "specials must be escaped: {text}"
        );
        // No sample line may contain a raw newline mid-line: every line
        // with a value brace pair must parse as `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let close = line.rfind('}').expect("labels close");
            let value = line[close + 1..].trim();
            assert!(
                value.parse::<f64>().is_ok(),
                "sample line must end in a number: {line}"
            );
        }
    }

    #[test]
    fn histogram_inf_bucket_and_sum_count_are_consistent() {
        let mut r = Registry::new();
        for v in [1, 2, 2, 700] {
            r.observe("h", 0, "", v);
        }
        let text = render(&r);
        let grab = |needle: &str| -> Vec<u64> {
            text.lines()
                .filter(|l| l.starts_with(needle))
                .map(|l| l[l.rfind('}').unwrap() + 1..].trim().parse().unwrap())
                .collect()
        };
        // Cumulative buckets are non-decreasing and end at the +Inf count.
        let buckets = grab("gamma_h_bucket{");
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        let inf: u64 = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .map(|l| l[l.rfind('}').unwrap() + 1..].trim().parse().unwrap())
            .expect("+Inf bucket present");
        assert_eq!(inf, *buckets.last().unwrap());
        let count = grab("gamma_h_count{")[0];
        let sum = grab("gamma_h_sum{")[0];
        assert_eq!(inf, count, "+Inf bucket must equal _count");
        assert_eq!(count, 4);
        assert_eq!(sum, 705, "_sum must equal the sum of observations");
    }
}
