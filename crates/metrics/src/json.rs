//! JSON snapshot exporter.
//!
//! Renders a [`Registry`] as a line-oriented JSON document: the sealed
//! phase names, then one metric object per line in the registry's
//! canonical key order. The one-object-per-line layout means a plain
//! line diff of two snapshots points at exactly the series that changed
//! — the perf-regression gate (`gamma-bench --bin regress`) leans on
//! this. Hand-rolled; the build is offline so there is no serde.

use std::fmt::Write as _;

use crate::{Registry, Value, GLOBAL_PHASE};

/// Render the full registry as a deterministic JSON snapshot, written
/// straight into the one output buffer.
pub fn render(registry: &Registry) -> String {
    let mut out = String::from("{\n\"phases\": [");
    for (i, name) in registry.phases().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        escape(&mut out, name);
        out.push('"');
    }
    out.push_str("],\n\"metrics\": [\n");
    for (i, (key, value)) in registry.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\": \"");
        escape(&mut out, key.name);
        let _ = write!(out, "\", \"kind\": \"{}\", \"phase\": ", value.kind());
        if key.phase == GLOBAL_PHASE {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", key.phase);
        }
        let _ = write!(out, ", \"node\": {}, \"op\": \"", key.node);
        escape(&mut out, key.op);
        out.push('"');
        match value {
            Value::Counter(v) | Value::Gauge(v) => {
                let _ = write!(out, ", \"value\": {v}");
            }
            Value::Histogram(h) => {
                let _ = write!(out, ", \"count\": {}, \"sum\": {}", h.count, h.sum);
                out.push_str(", \"buckets\": [");
                for (i, b) in h.buckets().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{b}");
                }
                out.push(']');
            }
        }
        out.push('}');
    }
    out.push_str("\n]\n}\n");
    out
}

/// Append `s` JSON-escaped: the runs between specials are copied whole.
fn escape(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_layout_is_line_oriented() {
        let mut r = Registry::new();
        r.counter_add("c", 0, "scan", 5);
        r.seal_phase("build");
        r.gauge_max_at("g", GLOBAL_PHASE, 1, "", 7);
        let text = render(&r);
        assert!(text.starts_with("{\n\"phases\": [\"build\"],\n\"metrics\": [\n"));
        assert!(text.contains(
            "{\"name\": \"c\", \"kind\": \"counter\", \"phase\": 0, \"node\": 0, \"op\": \"scan\", \"value\": 5}"
        ));
        assert!(text.contains(
            "{\"name\": \"g\", \"kind\": \"gauge\", \"phase\": null, \"node\": 1, \"op\": \"\", \"value\": 7}"
        ));
        assert!(text.ends_with("\n]\n}\n"));
    }

    #[test]
    fn histogram_carries_buckets_count_sum() {
        let mut r = Registry::new();
        r.observe("h", 0, "", 3);
        let text = render(&r);
        assert!(text.contains("\"count\": 1, \"sum\": 3, \"buckets\": [0,0,1,"));
    }

    #[test]
    fn strings_escape_quote_backslash_and_control_bytes() {
        let mut out = String::new();
        escape(&mut out, "a\"b\\c\nd\te\rf\u{1}g\u{1f}é");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fé");
    }

    #[test]
    fn identical_registries_render_identically() {
        let build = || {
            let mut r = Registry::new();
            r.counter_add("a", 0, "", 1);
            r.observe("b", 2, "x", 9);
            r.seal_phase("p");
            r
        };
        assert_eq!(render(&build()), render(&build()));
    }
}
