//! Deterministic JSON / CSV renderers for [`FlightProfile`].
//!
//! Both formats are hand-rolled with integer formatting only, the same
//! discipline as the trace/metrics exporters: identical runs must produce
//! byte-identical artifacts, so no floats and no map iteration orders are
//! involved.
//!
//! The JSON layout is line-oriented — one envelope field per line and one
//! series object per line — so `gamma-bench regress` can diff committed
//! profiles textually, and its same-line field extractors can never
//! confuse a profile document with a bench-point document.

use std::fmt::Write as _;

use crate::FlightProfile;

/// JSON-escape a string value (quotes, backslashes, control chars) into a
/// string of its own, for [`render_json`]'s envelope values.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Append `s` as a quoted, escaped JSON string: the runs between specials
/// are copied whole.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
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
    out.push('"');
}

/// Render a profile as a line-oriented JSON document, written straight
/// into the one output buffer.
///
/// `envelope` entries are emitted before the grid metadata, one per line;
/// values must already be valid JSON (use [`json_str`] for strings).
pub fn render_json(profile: &FlightProfile, envelope: &[(&str, String)]) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"prof\",\n");
    for (key, value) in envelope {
        out.push_str("  ");
        push_json_str(&mut out, key);
        let _ = writeln!(out, ": {value},");
    }
    let _ = write!(
        out,
        "  \"tick_us\": {},\n  \"ticks\": {},\n  \"nodes\": {},\n  \"makespan_us\": {},\n",
        profile.tick_us,
        profile.ticks(),
        profile.nodes,
        profile.makespan_us
    );
    out.push_str("  \"series\": [\n");
    for (i, s) in profile.series.iter().enumerate() {
        out.push_str("    {\"series\": ");
        push_json_str(&mut out, &s.name);
        out.push_str(", \"values\": [");
        for (j, v) in s.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("]}");
        if i + 1 < profile.series.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render a profile as CSV: one row per tick, one column per series.
pub fn render_csv(profile: &FlightProfile) -> String {
    let mut out = String::from("tick,start_us");
    for s in &profile.series {
        out.push(',');
        out.push_str(&s.name);
    }
    out.push('\n');
    for tick in 0..profile.ticks() {
        let _ = write!(out, "{},{}", tick, tick as u64 * profile.tick_us);
        for s in &profile.series {
            let _ = write!(out, ",{}", s.values[tick]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Series;

    fn tiny() -> FlightProfile {
        FlightProfile {
            tick_us: 10,
            makespan_us: 15,
            nodes: 1,
            series: vec![
                Series {
                    name: "node0.cpu_busy_us".into(),
                    values: vec![3, 5],
                },
                Series {
                    name: "inflight_queries".into(),
                    values: vec![1, 0],
                },
            ],
        }
    }

    #[test]
    fn json_is_line_oriented_and_deterministic() {
        let p = tiny();
        let doc = render_json(&p, &[("algorithm", json_str("hybrid"))]);
        assert_eq!(doc, render_json(&p, &[("algorithm", json_str("hybrid"))]));
        assert!(doc.contains("\"benchmark\": \"prof\""));
        assert!(doc.contains("  \"algorithm\": \"hybrid\",\n"));
        assert!(doc.contains("{\"series\": \"node0.cpu_busy_us\", \"values\": [3,5]}"));
        // One series object per line, last without trailing comma.
        assert!(doc.contains("\"values\": [1,0]}\n"));
        // A profile line must never look like a joinabprime bench point.
        assert!(!doc.contains("response_virtual_us"));
    }

    #[test]
    fn csv_shape() {
        let doc = render_csv(&tiny());
        let mut lines = doc.lines();
        assert_eq!(
            lines.next(),
            Some("tick,start_us,node0.cpu_busy_us,inflight_queries")
        );
        assert_eq!(lines.next(), Some("0,0,3,1"));
        assert_eq!(lines.next(), Some("1,10,5,0"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\t\r\u{1}é"), "\"\\t\\r\\u0001é\"");
    }
}
