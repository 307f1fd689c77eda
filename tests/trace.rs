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

/// FNV-1a over a document's bytes: a fixed, dependency-free digest.
fn fnv1a(doc: &str) -> u64 {
    doc.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The Perfetto export's bytes are pinned: per algorithm × filters off/on ×
/// ratio, the length and FNV-1a digest of the document a fresh machine
/// exports. A change to how the export writes must leave every one of
/// these as it is.
#[test]
fn perfetto_export_bytes_are_pinned() {
    /// `(algorithm, filtered, ratio, length, digest)`.
    const PINS: &[(&str, bool, f64, usize, u64)] = &[
        ("sort-merge", false, 1.0, 106091, 0xd82333521530dde1),
        ("sort-merge", false, 0.5, 106091, 0xd82333521530dde1),
        ("sort-merge", false, 0.2, 106091, 0xd82333521530dde1),
        ("sort-merge", true, 1.0, 66593, 0xd265df6e38b98bfa),
        ("sort-merge", true, 0.5, 66593, 0xd265df6e38b98bfa),
        ("sort-merge", true, 0.2, 66593, 0xd265df6e38b98bfa),
        ("simple", false, 1.0, 260811, 0xaec663af10fa93aa),
        ("simple", false, 0.5, 327509, 0xe6dd748ca2dbe135),
        ("simple", false, 0.2, 497704, 0xa69be063a848270a),
        ("simple", true, 1.0, 78875, 0x8c6f9e06bc003d8b),
        ("simple", true, 0.5, 133052, 0x1f2ef6fcc1580ca9),
        ("simple", true, 0.2, 270445, 0xc4490b75e17a69cb),
        ("grace", false, 1.0, 307732, 0x3b99b2463753df2d),
        ("grace", false, 0.5, 356008, 0x1e5c3bb0ca5994c8),
        ("grace", false, 0.2, 478136, 0xec16a1d9f1cd927b),
        ("grace", true, 1.0, 124609, 0xaad8d34b82a3331d),
        ("grace", true, 0.5, 173900, 0xf833d9dba96a1884),
        ("grace", true, 0.2, 304333, 0xfb5f2e153a49f5ba),
        ("hybrid", false, 1.0, 261327, 0x25a60b29b92555cf),
        ("hybrid", false, 0.5, 323716, 0xecd6381f019d9c00),
        ("hybrid", false, 0.2, 455538, 0x784a63c5c79425aa),
        ("hybrid", true, 1.0, 79764, 0x911a85814632d81f),
        ("hybrid", true, 0.5, 142640, 0x41cdebf38e466716),
        ("hybrid", true, 0.2, 282335, 0x05d6f4a5236e1e48),
    ];
    let w = Workload::scaled(2_000, 200);
    let mut got = Vec::new();
    for alg in ALGORITHMS {
        for filtered in [false, true] {
            for ratio in [1.0, 0.5, 0.2] {
                let doc = trace_join(&w, alg, ratio, filtered).perfetto_json();
                got.push((alg.name(), filtered, ratio, doc.len(), fnv1a(&doc)));
            }
        }
    }
    let listing: String = got
        .iter()
        .map(|(a, f, r, n, d)| format!("    ({a:?}, {f}, {r:?}, {n}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, PINS, "exports moved; now:\n{listing}");
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
