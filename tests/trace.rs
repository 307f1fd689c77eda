//! Trace subsystem integration tests: deterministic exports and
//! event-totals reconciliation against the engine's own `Counts` ledger.

use gamma_bench::tracing::trace_join;
use gamma_bench::Workload;
use gamma_core::query::Algorithm;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::SortMerge,
    Algorithm::SimpleHash,
    Algorithm::GraceHash,
    Algorithm::HybridHash,
];

/// Two traced runs of the same point must export byte-identical artifacts
/// — the property that makes traces usable as golden regression files.
#[test]
fn perfetto_export_is_byte_identical_across_runs() {
    let w = Workload::scaled(2_000, 200);
    for alg in ALGORITHMS {
        let a = trace_join(&w, alg, 0.5, true);
        let b = trace_join(&w, alg, 0.5, true);
        assert!(!a.sink.is_empty(), "{}: no events recorded", alg.name());
        assert_eq!(
            a.perfetto_json(),
            b.perfetto_json(),
            "{}: perfetto export differs across runs",
            alg.name()
        );
        assert_eq!(
            a.summary(),
            b.summary(),
            "{}: summary differs across runs",
            alg.name()
        );
    }
}

/// Every trace event class that mirrors a `Counts` counter must agree with
/// the ledger exactly: the hooks sit at the same statements that increment
/// the counters, and ring eviction never loses totals.
#[test]
fn trace_totals_reconcile_with_ledger_counts() {
    let w = Workload::scaled(2_000, 200);
    for filtered in [false, true] {
        for alg in ALGORITHMS {
            let run = trace_join(&w, alg, 0.5, filtered);
            let c = &run.report.total.counts;
            let t = &run.sink.totals;
            let ctx = format!("{} (filtered={filtered})", alg.name());
            assert_eq!(t.disk_reads, c.pages_read, "{ctx}: pages_read");
            assert_eq!(t.disk_writes, c.pages_written, "{ctx}: pages_written");
            assert_eq!(t.packets_sent, c.packets_sent, "{ctx}: packets_sent");
            assert_eq!(t.packets_recv, c.packets_recv, "{ctx}: packets_recv");
            assert_eq!(
                t.short_circuits, c.msgs_shortcircuit,
                "{ctx}: msgs_shortcircuit"
            );
            assert_eq!(t.control_msgs, c.control_msgs, "{ctx}: control_msgs");
            assert_eq!(t.hash_inserts, c.hash_inserts, "{ctx}: hash_inserts");
            assert_eq!(t.hash_probes, c.hash_probes, "{ctx}: hash_probes");
        }
    }
}

/// The exported JSON is structurally sound and places every replayed event
/// inside the simulated response window.
#[test]
fn perfetto_export_is_wellformed() {
    let w = Workload::scaled(2_000, 200);
    let run = trace_join(&w, Algorithm::GraceHash, 0.5, false);
    let json = run.perfetto_json();
    assert!(gamma_trace::perfetto::looks_like_trace_json(&json));
    let response = run.sink.response_us();
    assert!(response > 0);
    for ev in run.sink.events() {
        if let Some(ts) = run.sink.absolute_ts(ev) {
            assert!(
                ts <= response,
                "event {:?} at {ts} µs lands after the response ({response} µs)",
                ev.kind
            );
        }
    }
}

/// Tracing must not change what the engine computes: the report from a
/// traced run matches an untraced run of the same point exactly.
#[test]
fn tracing_does_not_perturb_results() {
    let w = Workload::scaled(2_000, 200);
    for alg in ALGORITHMS {
        let traced = trace_join(&w, alg, 0.5, false);
        let plain = gamma_bench::SweepBuilder::new(&w).run_one(alg, 0.5);
        assert_eq!(
            traced.report.response,
            plain.report.response,
            "{}",
            alg.name()
        );
        assert_eq!(
            traced.report.result_checksum,
            plain.report.result_checksum,
            "{}",
            alg.name()
        );
    }
}

/// A filter packet too large for the trace's `u32` byte field stops a
/// traced join with the narrowing panic, before any event records a
/// wrapped size.
#[test]
fn oversized_filter_packet_panics_instead_of_wrapping() {
    use gamma_core::cost::CostModel;
    use gamma_core::machine::{Declustering, MachineConfig};
    use gamma_core::query::JoinSpec;
    use gamma_core::tuple::{Field, Schema};
    use gamma_core::{run_join, ExecConfig, Machine};
    use gamma_trace::{EventKind, TraceSink};

    let bytes = u64::from(u32::MAX) + 1 + 64;
    let mut cost = CostModel::gamma_1989();
    cost.filter_packet_bytes = bytes;
    // One join site: leave it a 1024-bit filter, not a 4 GiB one.
    cost.filter_overhead_bits_per_site = bytes * 8 - 1024;
    let cfg = MachineConfig {
        disk_nodes: 1,
        diskless_nodes: 0,
        cost,
    };
    let mut m = Machine::new(cfg).with_exec(ExecConfig::serial());
    let schema = Schema::new(vec![Field::Int("k".into()), Field::Str("pad".into(), 28)]);
    let attr = schema.int_attr("k");
    let mut load = |name: &str| {
        let tuples: Vec<Vec<u8>> = (0..40u32)
            .map(|k| {
                let mut t = vec![0u8; schema.tuple_bytes()];
                attr.put(&mut t, k);
                t
            })
            .collect();
        m.load_relation(name, schema.clone(), Declustering::Hashed { attr }, tuples)
    };
    let (r, s) = (load("r"), load("s"));
    let spec = JoinSpec::new(Algorithm::HybridHash, r, s, attr, attr, 1 << 20).with_filter(true);

    // Unbounded: a ring could evict a wrapped event before the panic.
    let prev = gamma_trace::install(TraceSink::unbounded());
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_join(&mut m, &spec)));
    let sink = gamma_trace::take().expect("sink installed above");
    if let Some(p) = prev {
        gamma_trace::install(p);
    }
    let err = run.expect_err("a 4 GiB filter packet must not trace");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(msg.contains("exceeds the u32 trace field"), "{msg}");
    let wrapped = bytes as u32;
    assert!(
        !sink
            .events()
            .any(|e| matches!(e.kind, EventKind::PacketSend { bytes, .. } if bytes == wrapped)),
        "a wrapped filter packet size was recorded"
    );
}
