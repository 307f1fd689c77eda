//! Chrome trace-event / Perfetto JSON exporter.
//!
//! Emits the classic `{"traceEvents":[...]}` JSON array format, which
//! both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly. Layout:
//!
//! - one *process* (`pid`) per simulated node, named `node N`;
//! - a synthetic `scheduler` process for simulation steps (phase ends);
//! - each sealed phase is a `"X"` complete event on every node it ran
//!   on, with per-node `dur` equal to that node's busy time (so skew is
//!   visible as ragged right edges) and resource splits in `args`;
//! - operator spans are `"B"`/`"E"` events nesting inside the phase;
//! - discrete events (page I/O, packets, hash ops, bucket lifecycle)
//!   are `"i"` instant events;
//! - per-node `"C"` counter tracks plot device utilisation and queued
//!   wait depth across phases (stepped: set at phase start, zeroed at
//!   phase end).
//!
//! Output is built with deterministic string formatting only — no
//! floats, no hashing — so identical runs serialize byte-identically.

use crate::{EventKind, TraceSink, SCHEDULER_PHASE};
use std::fmt::Write as _;

/// Synthetic pid for the DES scheduler track. Public so external counter
/// series (e.g. gamma-prof flight-recorder tracks) can pin machine-wide
/// gauges to the scheduler process instead of a node.
pub const SCHEDULER_PID: u32 = 1_000_000;

/// An externally produced counter track to merge into the export.
///
/// Points are `(ts_us, value)` pairs; they are emitted in the order
/// given, so callers should pre-sort by timestamp. Values render as a
/// single `"value"` arg, which Perfetto plots as a stepped counter.
pub struct CounterSeries {
    /// Track name as shown in the UI (e.g. `node0.disk_queue`).
    pub name: String,
    /// Process the track attaches to: a node id, or [`SCHEDULER_PID`]
    /// for machine-wide series.
    pub pid: u32,
    /// `(timestamp_us, value)` samples.
    pub points: Vec<(u64, i64)>,
}

/// Escape a string for inclusion in a JSON string literal.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_meta(out: &mut String, pid: u32, name: &str) {
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
    let _ = write!(out, "{pid}");
    out.push_str(",\"tid\":0,\"args\":{\"name\":\"");
    escape(name, out);
    out.push_str("\"}}");
}

/// Append the `args` object for a discrete event.
fn push_args(out: &mut String, kind: &EventKind) {
    match kind {
        EventKind::DiskRead { file, page } | EventKind::DiskWrite { file, page } => {
            let _ = write!(out, "{{\"file\":{file},\"page\":{page}}}");
        }
        EventKind::PacketSend { dst, bytes } | EventKind::Control { dst, bytes } => {
            let _ = write!(out, "{{\"dst\":{dst},\"bytes\":{bytes}}}");
        }
        EventKind::PacketRecv { src, bytes } => {
            let _ = write!(out, "{{\"src\":{src},\"bytes\":{bytes}}}");
        }
        EventKind::ShortCircuit { bytes } => {
            let _ = write!(out, "{{\"bytes\":{bytes}}}");
        }
        EventKind::HashProbe { matched } => {
            let _ = write!(out, "{{\"matched\":{matched}}}");
        }
        EventKind::BucketOpen { bucket }
        | EventKind::BucketClose { bucket }
        | EventKind::BucketSpill { bucket } => {
            let _ = write!(out, "{{\"bucket\":{bucket}}}");
        }
        _ => out.push_str("{}"),
    }
}

/// Render the sink as a Chrome trace-event JSON document.
///
/// Phases must have been replayed (`phase_replayed`) for spans to carry
/// absolute times; un-replayed phases are skipped, and their events with
/// them.
pub fn to_json(sink: &TraceSink) -> String {
    to_json_with_counters(sink, &[])
}

/// Like [`to_json`], but merges externally produced counter tracks (e.g.
/// gamma-prof flight-recorder time series) into the same document. With
/// an empty `extra` slice the output is byte-identical to [`to_json`].
pub fn to_json_with_counters(sink: &TraceSink, extra: &[CounterSeries]) -> String {
    let mut out = String::with_capacity(256 + sink.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };

    // Process metadata: one track per node that appears in any phase.
    let nodes = sink
        .phases
        .iter()
        .map(|p| p.per_node.len())
        .max()
        .unwrap_or(0);
    for n in 0..nodes {
        sep(&mut out);
        push_meta(&mut out, n as u32, &format!("node {n}"));
    }
    if sink.totals.sim_steps > 0 || extra.iter().any(|c| c.pid == SCHEDULER_PID) {
        sep(&mut out);
        push_meta(&mut out, SCHEDULER_PID, "scheduler");
    }

    // Phase spans: one "X" per (phase, node) with dur = node busy time.
    for (idx, ph) in sink.phases.iter().enumerate() {
        let (Some(start), Some(dur)) = (ph.start_us, ph.dur_us) else {
            continue;
        };
        let critical = ph.critical_node();
        for (n, usage) in ph.per_node.iter().enumerate() {
            if usage.demand_us() == 0 {
                continue;
            }
            sep(&mut out);
            out.push_str("{\"name\":\"");
            escape(&ph.name, &mut out);
            let _ = write!(
                out,
                "\",\"ph\":\"X\",\"pid\":{n},\"tid\":0,\"ts\":{start},\"dur\":{}",
                usage.busy_us().min(dur)
            );
            let _ = write!(
                out,
                ",\"args\":{{\"phase_index\":{idx},\"cpu_us\":{},\"disk_us\":{},\"net_us\":{},\"disk_wait_us\":{},\"net_wait_us\":{},\"dominant\":\"{}\",\"critical\":{}}}}}",
                usage.cpu_us,
                usage.disk_us,
                usage.net_us,
                usage.disk_wait_us,
                usage.net_wait_us,
                usage.dominant(),
                critical == Some(n),
            );
        }
    }

    // Counter tracks: per-node device utilisation (% of the phase the
    // device was busy) and queued-wait depth (Little's-law mean queue
    // length in milli-requests, Σ wait / duration) sampled at each phase
    // start, dropped to zero at phase end so idle gaps read as idle.
    // Integer math only — determinism over precision.
    for ph in sink.phases.iter() {
        let (Some(start), Some(dur)) = (ph.start_us, ph.dur_us) else {
            continue;
        };
        if dur == 0 {
            continue;
        }
        for (n, usage) in ph.per_node.iter().enumerate() {
            if usage.demand_us() == 0 {
                continue;
            }
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"utilisation %\",\"ph\":\"C\",\"pid\":{n},\"tid\":0,\"ts\":{start},\"args\":{{\"cpu\":{},\"disk\":{},\"net\":{}}}}}",
                usage.cpu_us * 100 / dur,
                usage.disk_us * 100 / dur,
                usage.net_us * 100 / dur,
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"queue depth (milli)\",\"ph\":\"C\",\"pid\":{n},\"tid\":0,\"ts\":{start},\"args\":{{\"disk\":{},\"net\":{}}}}}",
                usage.disk_wait_us * 1000 / dur,
                usage.net_wait_us * 1000 / dur,
            );
            let end = start + dur;
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"utilisation %\",\"ph\":\"C\",\"pid\":{n},\"tid\":0,\"ts\":{end},\"args\":{{\"cpu\":0,\"disk\":0,\"net\":0}}}}"
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"queue depth (milli)\",\"ph\":\"C\",\"pid\":{n},\"tid\":0,\"ts\":{end},\"args\":{{\"disk\":0,\"net\":0}}}}"
            );
        }
    }

    // Merged external counter tracks, in caller order. Deterministic:
    // integer timestamps and values only, no reordering.
    for series in extra {
        for &(ts, value) in series.points.iter() {
            sep(&mut out);
            out.push_str("{\"name\":\"");
            escape(&series.name, &mut out);
            let _ = write!(
                out,
                "\",\"ph\":\"C\",\"pid\":{},\"tid\":0,\"ts\":{ts},\"args\":{{\"value\":{value}}}}}",
                series.pid
            );
        }
    }

    // Discrete events and operator spans, in recording order.
    for ev in sink.events() {
        let Some(ts) = sink.absolute_ts(ev) else {
            continue;
        };
        let pid = if ev.phase == SCHEDULER_PHASE {
            SCHEDULER_PID
        } else {
            ev.node as u32
        };
        sep(&mut out);
        match ev.kind {
            EventKind::SpanBegin { name } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"B\",\"pid\":{pid},\"tid\":0,\"ts\":{ts}}}"
                );
            }
            EventKind::SpanEnd { name } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"E\",\"pid\":{pid},\"tid\":0,\"ts\":{ts}}}"
                );
            }
            kind => {
                out.push_str("{\"name\":\"");
                out.push_str(kind.label());
                let _ = write!(
                    out,
                    "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"args\":"
                );
                push_args(&mut out, &kind);
                out.push('}');
            }
        }
    }

    out.push_str("\n]}\n");
    out
}

/// Drop-in check that a document at least parses as the expected shape.
/// Used by tests; intentionally shallow (no full JSON parser offline).
pub fn looks_like_trace_json(doc: &str) -> bool {
    let trimmed = doc.trim();
    trimmed.starts_with("{\"displayTimeUnit\"")
        && trimmed.contains("\"traceEvents\":[")
        && trimmed.ends_with("]}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeUsage;

    fn sample_sink() -> TraceSink {
        let mut sink = TraceSink::new(64);
        sink.emit(0, 5, EventKind::DiskRead { file: 1, page: 9 });
        sink.emit(
            1,
            3,
            EventKind::PacketSend {
                dst: 0,
                bytes: 2048,
            },
        );
        sink.seal_phase(
            "build",
            vec![
                NodeUsage {
                    cpu_us: 10,
                    disk_us: 20,
                    net_us: 0,
                    ..Default::default()
                },
                NodeUsage {
                    cpu_us: 8,
                    disk_us: 0,
                    net_us: 4,
                    ..Default::default()
                },
            ],
        );
        sink.phase_replayed(0, 0, 20);
        sink
    }

    #[test]
    fn export_shape() {
        let doc = to_json(&sample_sink());
        assert!(looks_like_trace_json(&doc));
        assert!(doc.contains("\"name\":\"node 0\""));
        assert!(doc.contains("\"name\":\"build\""));
        assert!(doc.contains("\"name\":\"disk_read\""));
        assert!(doc.contains("\"ph\":\"X\""));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(to_json(&sample_sink()), to_json(&sample_sink()));
    }

    #[test]
    fn counter_tracks_step_and_zero() {
        let doc = to_json(&sample_sink());
        // Node 0: disk 20/20 us busy = 100%, cpu 10/20 = 50%.
        assert!(doc.contains(
            "{\"name\":\"utilisation %\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{\"cpu\":50,\"disk\":100,\"net\":0}}"
        ));
        assert!(doc.contains("{\"name\":\"queue depth (milli)\",\"ph\":\"C\",\"pid\":0"));
        // Both tracks drop to zero at the phase end (ts = 20).
        assert!(doc.contains(
            "{\"name\":\"utilisation %\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":20,\"args\":{\"cpu\":0,\"disk\":0,\"net\":0}}"
        ));
        assert!(doc.contains(
            "{\"name\":\"queue depth (milli)\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":20,\"args\":{\"disk\":0,\"net\":0}}"
        ));
    }

    #[test]
    fn single_query_export_has_no_thread_tracks() {
        let doc = to_json(&sample_sink());
        assert!(!doc.contains("thread_name"));
        assert!(!doc.contains("\"tid\":1"));
    }

    #[test]
    fn merged_counters_render_and_empty_merge_is_identity() {
        let sink = sample_sink();
        assert_eq!(to_json(&sink), to_json_with_counters(&sink, &[]));
        let extra = vec![
            CounterSeries {
                name: "node0.disk_queue".into(),
                pid: 0,
                points: vec![(0, 3), (10, 1), (20, 0)],
            },
            CounterSeries {
                name: "inflight_queries".into(),
                pid: SCHEDULER_PID,
                points: vec![(0, 2), (20, 0)],
            },
        ];
        let doc = to_json_with_counters(&sink, &extra);
        assert!(looks_like_trace_json(&doc));
        assert!(doc.contains(
            "{\"name\":\"node0.disk_queue\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":10,\"args\":{\"value\":1}}"
        ));
        assert!(doc.contains(&format!(
            "{{\"name\":\"inflight_queries\",\"ph\":\"C\",\"pid\":{SCHEDULER_PID},\"tid\":0,\"ts\":0,\"args\":{{\"value\":2}}}}"
        )));
        // Machine-wide counters force the scheduler process meta track.
        assert!(doc.contains("\"args\":{\"name\":\"scheduler\"}"));
        assert_eq!(doc, to_json_with_counters(&sample_sink(), &extra));
    }

    #[test]
    fn escape_handles_specials() {
        let mut s = String::new();
        escape("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd");
    }
}
