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
//! Output is appended as bytes: constant fragments copied whole and every
//! number through one decimal writer — no `core::fmt` past a control
//! character's escape, no floats, no hashing — so identical runs
//! serialize byte-identically. The document is checked as UTF-8 once, at
//! the end.

use crate::{EventKind, TraceSink, SCHEDULER_PHASE};
use std::io::Write as _;

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
fn escape(s: &str, out: &mut Vec<u8>) {
    for b in s.bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                let _ = write!(out, "\\u{:04x}", b);
            }
            b => out.push(b),
        }
    }
}

/// Append `v` in decimal: the one way the export writes a number.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `key` (a constant JSON fragment ending in `:`) and then `v`.
fn field(out: &mut Vec<u8>, key: &str, v: u64) {
    out.extend_from_slice(key.as_bytes());
    push_u64(out, v);
}

fn push_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { "true" } else { "false" }.as_bytes());
}

/// What follows a record's name: `","ph":"<ph>","pid":<pid>,"tid":0,"ts":<ts>`.
/// `ph` carries any fields that sit between the phase and the pid.
fn push_place(out: &mut Vec<u8>, ph: &str, pid: u32, ts: u64) {
    out.extend_from_slice(b"\",\"ph\":\"");
    out.extend_from_slice(ph.as_bytes());
    field(out, "\",\"pid\":", pid.into());
    field(out, ",\"tid\":0,\"ts\":", ts);
}

/// The phase of an instant event, with its thread scope.
const INSTANT: &str = "i\",\"s\":\"t";

/// A process-name record: `name`, followed by `number` when given.
fn push_meta(out: &mut Vec<u8>, pid: u32, name: &str, number: Option<u64>) {
    field(
        out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":",
        pid.into(),
    );
    out.extend_from_slice(b",\"tid\":0,\"args\":{\"name\":\"");
    escape(name, out);
    if let Some(n) = number {
        push_u64(out, n);
    }
    out.extend_from_slice(b"\"}}");
}

/// Append the `args` object for a discrete event.
fn push_args(out: &mut Vec<u8>, kind: &EventKind) {
    match *kind {
        EventKind::DiskRead { file, page } | EventKind::DiskWrite { file, page } => {
            field(out, "{\"file\":", file.into());
            field(out, ",\"page\":", page.into());
        }
        EventKind::PacketSend { dst, bytes } | EventKind::Control { dst, bytes } => {
            field(out, "{\"dst\":", dst.into());
            field(out, ",\"bytes\":", bytes.into());
        }
        EventKind::PacketRecv { src, bytes } => {
            field(out, "{\"src\":", src.into());
            field(out, ",\"bytes\":", bytes.into());
        }
        EventKind::ShortCircuit { bytes } => field(out, "{\"bytes\":", bytes.into()),
        EventKind::HashProbe { matched } => {
            out.extend_from_slice(b"{\"matched\":");
            push_bool(out, matched);
        }
        EventKind::BucketOpen { bucket }
        | EventKind::BucketClose { bucket }
        | EventKind::BucketSpill { bucket } => field(out, "{\"bucket\":", bucket.into()),
        _ => out.push(b'{'),
    }
    out.push(b'}');
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
    let mut out = Vec::with_capacity(256 + sink.len() * 96);
    out.extend_from_slice(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut Vec<u8>| {
        if !std::mem::take(&mut first) {
            out.extend_from_slice(b",\n");
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
        push_meta(&mut out, n as u32, "node ", Some(n as u64));
    }
    if sink.totals.sim_steps > 0 || extra.iter().any(|c| c.pid == SCHEDULER_PID) {
        sep(&mut out);
        push_meta(&mut out, SCHEDULER_PID, "scheduler", None);
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
            out.extend_from_slice(b"{\"name\":\"");
            escape(&ph.name, &mut out);
            push_place(&mut out, "X", n as u32, start);
            field(&mut out, ",\"dur\":", usage.busy_us().min(dur));
            field(&mut out, ",\"args\":{\"phase_index\":", idx as u64);
            field(&mut out, ",\"cpu_us\":", usage.cpu_us);
            field(&mut out, ",\"disk_us\":", usage.disk_us);
            field(&mut out, ",\"net_us\":", usage.net_us);
            field(&mut out, ",\"disk_wait_us\":", usage.disk_wait_us);
            field(&mut out, ",\"net_wait_us\":", usage.net_wait_us);
            out.extend_from_slice(b",\"dominant\":\"");
            out.extend_from_slice(usage.dominant().as_bytes());
            out.extend_from_slice(b"\",\"critical\":");
            push_bool(&mut out, critical == Some(n));
            out.extend_from_slice(b"}}");
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
            let (pid, end) = (n as u32, start + dur);
            sep(&mut out);
            out.extend_from_slice(b"{\"name\":\"utilisation %");
            push_place(&mut out, "C", pid, start);
            field(&mut out, ",\"args\":{\"cpu\":", usage.cpu_us * 100 / dur);
            field(&mut out, ",\"disk\":", usage.disk_us * 100 / dur);
            field(&mut out, ",\"net\":", usage.net_us * 100 / dur);
            out.extend_from_slice(b"}}");
            sep(&mut out);
            out.extend_from_slice(b"{\"name\":\"queue depth (milli)");
            push_place(&mut out, "C", pid, start);
            field(
                &mut out,
                ",\"args\":{\"disk\":",
                usage.disk_wait_us * 1000 / dur,
            );
            field(&mut out, ",\"net\":", usage.net_wait_us * 1000 / dur);
            out.extend_from_slice(b"}}");
            sep(&mut out);
            out.extend_from_slice(b"{\"name\":\"utilisation %");
            push_place(&mut out, "C", pid, end);
            out.extend_from_slice(b",\"args\":{\"cpu\":0,\"disk\":0,\"net\":0}}");
            sep(&mut out);
            out.extend_from_slice(b"{\"name\":\"queue depth (milli)");
            push_place(&mut out, "C", pid, end);
            out.extend_from_slice(b",\"args\":{\"disk\":0,\"net\":0}}");
        }
    }

    // Merged external counter tracks, in caller order. Deterministic:
    // integer timestamps and values only, no reordering.
    for series in extra {
        for &(ts, value) in series.points.iter() {
            sep(&mut out);
            out.extend_from_slice(b"{\"name\":\"");
            escape(&series.name, &mut out);
            push_place(&mut out, "C", series.pid, ts);
            out.extend_from_slice(b",\"args\":{\"value\":");
            if value < 0 {
                out.push(b'-');
            }
            push_u64(&mut out, value.unsigned_abs());
            out.extend_from_slice(b"}}");
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
        out.extend_from_slice(b"{\"name\":\"");
        match ev.kind {
            EventKind::SpanBegin { name } => {
                out.extend_from_slice(name.as_bytes());
                push_place(&mut out, "B", pid, ts);
            }
            EventKind::SpanEnd { name } => {
                out.extend_from_slice(name.as_bytes());
                push_place(&mut out, "E", pid, ts);
            }
            kind => {
                out.extend_from_slice(kind.label().as_bytes());
                push_place(&mut out, INSTANT, pid, ts);
                out.extend_from_slice(b",\"args\":");
                push_args(&mut out, &kind);
            }
        }
        out.push(b'}');
    }

    out.extend_from_slice(b"\n]}\n");
    String::from_utf8(out).expect("the export writes UTF-8")
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

    /// A sink holding every event kind, spans, scheduler steps and the
    /// integer extremes: 0, `u32::MAX`, a `u64::MAX` timestamp, and an
    /// offset × busy product past `u64`.
    fn every_kind_sink() -> TraceSink {
        let mut sink = TraceSink::new(64);
        let kinds = [
            EventKind::DiskRead { file: 0, page: 0 },
            EventKind::DiskWrite {
                file: u32::MAX,
                page: 7,
            },
            EventKind::PacketSend {
                dst: u16::MAX,
                bytes: u32::MAX,
            },
            EventKind::PacketRecv { src: 1, bytes: 0 },
            EventKind::ShortCircuit { bytes: 2048 },
            EventKind::Control { dst: 0, bytes: 80 },
            EventKind::HashInsert,
            EventKind::HashProbe { matched: true },
            EventKind::HashProbe { matched: false },
            EventKind::BucketOpen { bucket: 0 },
            EventKind::BucketClose { bucket: u16::MAX },
            EventKind::BucketSpill { bucket: 3 },
        ];
        sink.emit(0, 0, EventKind::SpanBegin { name: "scan" });
        for (i, kind) in kinds.into_iter().enumerate() {
            sink.emit((i % 2) as u16, 10 * i as u64, kind);
        }
        sink.emit(0, 200, EventKind::SpanEnd { name: "scan" });
        sink.emit_sim_step(0);
        sink.seal_phase(
            "build \"q\"\u{1}",
            vec![
                NodeUsage {
                    cpu_us: 60,
                    disk_us: 90,
                    net_us: 30,
                    disk_wait_us: 7,
                    net_wait_us: 0,
                    disk_done_us: 120,
                    net_done_us: 0,
                },
                NodeUsage {
                    cpu_us: 1 << 40,
                    disk_us: 1 << 40,
                    net_us: 0,
                    ..Default::default()
                },
                NodeUsage::default(),
            ],
        );
        sink.phase_replayed(0, 1_000, 150);
        // An offset past node 1's busy time and a product past u64.
        sink.emit(1, 1 << 40, EventKind::HashInsert);
        sink.seal_phase(
            "probe",
            vec![
                NodeUsage::default(),
                NodeUsage {
                    cpu_us: 1 << 40,
                    disk_us: 1 << 40,
                    ..Default::default()
                },
            ],
        );
        sink.phase_replayed(1, 2_000, 0);
        // Never replayed: its event is skipped.
        sink.emit(0, 5, EventKind::HashInsert);
        sink.seal_phase("unreplayed", vec![NodeUsage::default()]);
        sink.emit_sim_step(u64::MAX);
        sink
    }

    #[test]
    fn every_kind_renders_exactly() {
        let extra = [CounterSeries {
            name: "ring\tqueue".into(),
            pid: SCHEDULER_PID,
            points: vec![(0, 0), (u64::MAX, i64::MIN), (5, i64::MAX), (6, -1)],
        }];
        let doc = to_json_with_counters(&every_kind_sink(), &extra);
        assert_eq!(doc, EVERY_KIND_JSON);
    }

    const EVERY_KIND_JSON: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"node 0"}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"node 1"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"node 2"}},
{"name":"process_name","ph":"M","pid":1000000,"tid":0,"args":{"name":"scheduler"}},
{"name":"build \"q\"\u0001","ph":"X","pid":0,"tid":0,"ts":1000,"dur":120,"args":{"phase_index":0,"cpu_us":60,"disk_us":90,"net_us":30,"disk_wait_us":7,"net_wait_us":0,"dominant":"disk","critical":false}},
{"name":"build \"q\"\u0001","ph":"X","pid":1,"tid":0,"ts":1000,"dur":150,"args":{"phase_index":0,"cpu_us":1099511627776,"disk_us":1099511627776,"net_us":0,"disk_wait_us":0,"net_wait_us":0,"dominant":"cpu","critical":true}},
{"name":"probe","ph":"X","pid":1,"tid":0,"ts":2000,"dur":0,"args":{"phase_index":1,"cpu_us":1099511627776,"disk_us":1099511627776,"net_us":0,"disk_wait_us":0,"net_wait_us":0,"dominant":"cpu","critical":true}},
{"name":"utilisation %","ph":"C","pid":0,"tid":0,"ts":1000,"args":{"cpu":40,"disk":60,"net":20}},
{"name":"queue depth (milli)","ph":"C","pid":0,"tid":0,"ts":1000,"args":{"disk":46,"net":0}},
{"name":"utilisation %","ph":"C","pid":0,"tid":0,"ts":1150,"args":{"cpu":0,"disk":0,"net":0}},
{"name":"queue depth (milli)","ph":"C","pid":0,"tid":0,"ts":1150,"args":{"disk":0,"net":0}},
{"name":"utilisation %","ph":"C","pid":1,"tid":0,"ts":1000,"args":{"cpu":733007751850,"disk":733007751850,"net":0}},
{"name":"queue depth (milli)","ph":"C","pid":1,"tid":0,"ts":1000,"args":{"disk":0,"net":0}},
{"name":"utilisation %","ph":"C","pid":1,"tid":0,"ts":1150,"args":{"cpu":0,"disk":0,"net":0}},
{"name":"queue depth (milli)","ph":"C","pid":1,"tid":0,"ts":1150,"args":{"disk":0,"net":0}},
{"name":"ring\tqueue","ph":"C","pid":1000000,"tid":0,"ts":0,"args":{"value":0}},
{"name":"ring\tqueue","ph":"C","pid":1000000,"tid":0,"ts":18446744073709551615,"args":{"value":-9223372036854775808}},
{"name":"ring\tqueue","ph":"C","pid":1000000,"tid":0,"ts":5,"args":{"value":9223372036854775807}},
{"name":"ring\tqueue","ph":"C","pid":1000000,"tid":0,"ts":6,"args":{"value":-1}},
{"name":"scan","ph":"B","pid":0,"tid":0,"ts":1000},
{"name":"disk_read","ph":"i","s":"t","pid":0,"tid":0,"ts":1000,"args":{"file":0,"page":0}},
{"name":"disk_write","ph":"i","s":"t","pid":1,"tid":0,"ts":1005,"args":{"file":4294967295,"page":7}},
{"name":"packet_send","ph":"i","s":"t","pid":0,"tid":0,"ts":1013,"args":{"dst":65535,"bytes":4294967295}},
{"name":"packet_recv","ph":"i","s":"t","pid":1,"tid":0,"ts":1015,"args":{"src":1,"bytes":0}},
{"name":"short_circuit","ph":"i","s":"t","pid":0,"tid":0,"ts":1026,"args":{"bytes":2048}},
{"name":"control","ph":"i","s":"t","pid":1,"tid":0,"ts":1025,"args":{"dst":0,"bytes":80}},
{"name":"hash_insert","ph":"i","s":"t","pid":0,"tid":0,"ts":1040,"args":{}},
{"name":"hash_probe","ph":"i","s":"t","pid":1,"tid":0,"ts":1035,"args":{"matched":true}},
{"name":"hash_probe","ph":"i","s":"t","pid":0,"tid":0,"ts":1053,"args":{"matched":false}},
{"name":"bucket_open","ph":"i","s":"t","pid":1,"tid":0,"ts":1045,"args":{"bucket":0}},
{"name":"bucket_close","ph":"i","s":"t","pid":0,"tid":0,"ts":1066,"args":{"bucket":65535}},
{"name":"bucket_spill","ph":"i","s":"t","pid":1,"tid":0,"ts":1055,"args":{"bucket":3}},
{"name":"scan","ph":"E","pid":0,"tid":0,"ts":1120},
{"name":"sim_step","ph":"i","s":"t","pid":1000000,"tid":0,"ts":0,"args":{}},
{"name":"hash_insert","ph":"i","s":"t","pid":1,"tid":0,"ts":549755815888,"args":{}},
{"name":"sim_step","ph":"i","s":"t","pid":1000000,"tid":0,"ts":18446744073709551615,"args":{}}
]}
"#;

    #[test]
    fn escape_handles_specials() {
        let mut s = Vec::new();
        escape("a\"b\\c\nd\u{1}é", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001é".as_bytes());
    }
}
