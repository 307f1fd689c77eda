//! The traced run: every per-layer metric, from outside.
//!
//! 1. Set-up and passes run under an enabled [`Tracer`], alternated with
//!    untraced passes in the same process so their difference is the
//!    tracing overhead and host drift hits both alike.
//! 2. Kernel drives ([`crate::kernels`]) time each layer's inner loop at
//!    the workload's own sizes.
//! 3. Un-timed virtual-clock passes: the critical-path attribution of
//!    every join of the grid (the scheduler's own EXPLAIN at N = 1, which
//!    must reproduce the solo response exactly), `serve`'s load sweep and
//!    `paper-grid`'s Table 4 accuracy pass.
//!
//! The spans and the per-layer table are written to
//! `benchmark/out/trace-<workload>.json` when the run ends. End-to-end
//! metrics never come from this run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use gamma_core::Algorithm;
use gamma_des::SimTime;
use gamma_sched::{engine, EngineConfig};

use crate::calibrate::Calibrator;
use crate::kernels::{self, Kernels};
use crate::span::{LayerTotal, Tracer};
use crate::workloads::{self, Kind, Setup, Sinks, ENGINE_LOADS, ENGINE_QUERIES, SERVED_QUERIES};
use crate::{
    accuracy, iteration, json, manifest, serve, setup_repeatedly, stats, warm_up, Args, Budget,
    Measured, Metric, SETUP_REPEATS,
};

/// Share of the run's budget spent on passes; the drives take the rest.
const PASS_SHARE: f64 = 0.6;
/// Rounds of the `observed` workload's observer drive.
const OBSERVER_ROUNDS: usize = 5;

/// Per-layer values by name. Setting a name `BENCHMARK.json` does not list
/// is a bug in this file, caught on the spot; a listed name never set
/// reads 0 — the layer did no work on this workload.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            manifest::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }
}

/// Critical-path split of the simulated response, µs.
#[derive(Default)]
struct VirtSplit {
    cpu: u64,
    disk: u64,
    net: u64,
    disk_wait: u64,
    net_wait: u64,
    dispatch: u64,
    total: u64,
}

/// Times each point of the grid is physically executed per pass.
fn executions_per_pass(kind: Kind) -> u64 {
    match kind {
        Kind::Serve => 1 + u64::from(SERVED_QUERIES),
        _ => 1,
    }
}

/// Split every join's simulated response along its critical path with the
/// scheduler's EXPLAIN at N = 1. Returns the split and `(attempted,
/// failed)`: an unloaded engine replay must reproduce the solo response.
fn attribute(setup: &mut Setup) -> (VirtSplit, u64, u64) {
    let mut v = VirtSplit::default();
    let (mut attempted, mut failed) = (0, 0);
    let weight = executions_per_pass(setup.kind);
    for point in &setup.points {
        let machine = &mut setup.machines[point.machine];
        let (plan, report) = gamma_sched::extract(machine, &point.spec);
        let cfg = EngineConfig {
            nodes: machine.nodes(),
            pool_budget_pages: plan.max_peak_pages(),
            backlog_window: None,
        };
        let outcome = engine::run(vec![plan], &[SimTime::ZERO], &cfg);
        attempted += 1;
        if outcome.queries[0].response() != Some(report.response) {
            failed += 1;
            eprintln!(
                "FAILED {}: N=1 serve differs from the solo response",
                point.label
            );
        }
        v.total += report.response.as_us() * weight;
        for ph in &outcome.explains[0].phases {
            let us = |t: SimTime| t.as_us() * weight;
            v.dispatch += us(ph.dispatch_wait + ph.dispatch_service);
            v.cpu += us(ph.cpu_service);
            v.disk += us(ph.disk_service);
            v.net += us(ph.net_service);
            // The wait belongs to whichever device ended the phase.
            let wait = us(ph.queue_wait);
            if ph.disk_service > SimTime::ZERO {
                v.disk_wait += wait;
            } else if ph.net_service > SimTime::ZERO {
                v.net_wait += wait;
            } else {
                v.cpu += wait;
            }
        }
    }
    let explained = v.cpu + v.disk + v.net + v.disk_wait + v.net_wait + v.dispatch;
    attempted += 1;
    if explained != v.total {
        failed += 1;
        eprintln!(
            "FAILED: critical path explains {explained} of {} µs",
            v.total
        );
    }
    (v, attempted, failed)
}

/// `observed` only: what each observer adds to the joins themselves.
/// Every join runs plain, trace-only and metrics-only, interleaved;
/// returns `(trace, metrics)` overhead in raw seconds per pass.
fn observer_overheads(setup: &mut Setup) -> (f64, f64) {
    let mut off = Tracer::new(false);
    let (mut trace_s, mut metrics_s) = (0.0, 0.0);
    for point in &setup.points {
        let machine = &mut setup.machines[point.machine];
        let mut ns: [Vec<u64>; 3] = Default::default();
        for _ in 0..OBSERVER_ROUNDS {
            for (i, sinks) in [Sinks::None, Sinks::Trace, Sinks::Metrics]
                .into_iter()
                .enumerate()
            {
                let t = Instant::now();
                std::hint::black_box(workloads::observed_join(&mut off, machine, point, sinks));
                ns[i].push(t.elapsed().as_nanos() as u64);
            }
        }
        let [plain, trace, metrics] = ns.map(|v| stats::median(&v) as f64 / 1e9);
        trace_s += trace - plain;
        metrics_s += metrics - plain;
    }
    (trace_s, metrics_s)
}

/// Price one pass's ledger counts with the kernel drives: the host ns the
/// kernels account for (see `core.run_join.kernel_coverage`).
fn kernel_priced_ns(k: &Kernels, setup: &Setup, ledger: &workloads::Ledger) -> f64 {
    let c = &ledger.counts;
    let tuples_per_packet = k.exchange_remote.items as f64 / k.exchange_remote.units.max(1) as f64;
    let moved = (c.packets_sent + c.msgs_shortcircuit) as f64 * tuples_per_packet;
    let sorted: u64 = setup
        .points
        .iter()
        .filter(|p| p.spec.algorithm == Algorithm::SortMerge)
        .map(|_| setup.tuples_per_join())
        .sum();
    // The sort drive's own page traffic is priced by the page kernels
    // below like everyone else's; only its remainder is priced per tuple.
    let sort_io = k.heap_scan.ns_per_unit() * k.sort_pages.0 as f64
        + k.heap_write.ns_per_unit() * k.sort_pages.1 as f64;
    let sort_cpu_per_tuple = (k.sort.ns - sort_io).max(0.0) / k.sort.items.max(1) as f64;
    k.scan.ns_per_unit() * c.pages_read as f64
        + k.route.ns_per_item() * moved
        + k.build.ns_per_item() * c.hash_inserts as f64
        + k.probe.ns_per_item() * c.hash_probes as f64
        + k.exchange_remote.ns_per_unit() * c.packets_sent as f64
        + k.exchange_local.ns_per_unit() * c.msgs_shortcircuit as f64
        + k.heap_write.ns_per_unit() * c.pages_written as f64
        + sort_cpu_per_tuple * sorted as f64
}

/// Run the traced measurement and print every per-layer metric.
pub fn run(args: &Args, envelope: &str) {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut cal = Calibrator::new();
    let (mut setup, setup_times) = setup_repeatedly(args, &mut tr, &mut cal);
    let (warm_passes, warm_attempted, warm_failed) = warm_up(&mut setup, &mut cal);

    // ---- passes: untraced and traced, alternated ----
    let (mut plain, mut traced) = (Measured::default(), Measured::default());
    let start = Instant::now();
    loop {
        plain.extend(Budget::Passes(1), |id| {
            iteration(&mut setup, &mut off, &mut cal, id)
        });
        traced.extend(Budget::Passes(1), |id| {
            iteration(&mut setup, &mut tr, &mut cal, id)
        });
        let spent = match args.budget {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s * PASS_SHARE,
            Budget::Passes(n) => traced.samples.len() as u32 >= n,
        };
        if spent {
            break;
        }
    }
    let mut attempted = warm_attempted + plain.attempted + traced.attempted;
    let mut failed = warm_failed + plain.failed + traced.failed;
    let first = plain.first.clone().expect("at least one pass");
    if !traced.first.as_ref().is_some_and(|t| t.same_work(&first)) {
        failed += 1;
        eprintln!("FAILED: traced passes differ from untraced passes");
    }
    crate::print_grid(&setup, &first);
    let totals = tr.layer_totals();
    let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
    // Traced passes (`pool2` runs two per iteration, serial and pooled).
    let root = layer("bench.pass");
    let passes = root.calls as f64;
    // Spans and drives hold raw ns; one factor calibrates them all: the
    // median of the reference samples taken between the passes.
    let factor = cal.factor();
    let self_s = |name: &str, per: f64| layer(name).self_ns as f64 * factor / 1e9 / per;

    let mut l = Layers(BTreeMap::new());

    // ---- outside spans ----
    let repeats = SETUP_REPEATS as f64;
    l.set("wisconsin.gen.host_s", self_s("wisconsin.gen", repeats));
    l.set("wisconsin.load.host_s", self_s("wisconsin.load", repeats));
    l.set(
        "wisconsin.oracle.host_s",
        self_s("wisconsin.oracle", repeats),
    );
    let run_join = layer("core.run_join");
    l.set("core.run_join.host_s", self_s("core.run_join", passes));
    l.set(
        "core.run_join.allocs",
        run_join.self_alloc.events as f64 / passes,
    );
    l.set("core.run_join.alloc_mb", run_join.self_alloc.mib() / passes);
    l.set("des.replay.host_s", self_s("des.replay", passes));
    for (metric, span) in [
        ("sched.extract.host_s", "sched.extract"),
        ("sched.serve_exec.host_s", "sched.serve_exec"),
        ("sched.engine.host_s", "sched.engine"),
        ("sched.explain.host_s", "sched.explain"),
        ("trace.export_s", "trace.export"),
        ("metrics.export_s", "metrics.export"),
        ("metrics.reconcile_s", "metrics.reconcile"),
        ("prof.profile_s", "prof.profile"),
        ("prof.export_s", "prof.export"),
    ] {
        l.set(metric, self_s(span, passes));
    }
    let engine_s = self_s("sched.engine", passes);
    if engine_s > 0.0 {
        let queries = (ENGINE_LOADS.len() as u32 * ENGINE_QUERIES) as f64;
        l.set("sched.engine.kqueries_per_host_s", queries / 1e3 / engine_s);
    }
    const MIB: f64 = 1024.0 * 1024.0;
    l.set("trace.events", first.observed.trace_events as f64);
    l.set(
        "trace.export_mb",
        first.observed.trace_export_bytes as f64 / MIB,
    );
    l.set("metrics.series", first.observed.metrics_series as f64);
    if setup.kind == Kind::Observed {
        let (trace_s, metrics_s) = observer_overheads(&mut setup);
        l.set("trace.overhead_s", trace_s * factor);
        l.set("metrics.overhead_s", metrics_s * factor);
    }

    // ---- the harness itself ----
    let plain_times = plain.times();
    let plain_p50 = stats::median(&plain_times) as f64;
    l.set(
        "bench.unattributed_share",
        root.self_ns as f64 / root.total_ns.max(1) as f64,
    );
    // Each traced pass against the untraced pass run just before it, so
    // host drift cancels within the pair.
    let paired: Vec<f64> = plain_times
        .iter()
        .zip(traced.times())
        .map(|(&p, t)| (t as f64 - p as f64) / p as f64)
        .collect();
    l.set("bench.trace_overhead_share", stats::median_f64(&paired));
    l.set(
        "bench.iter_p90_s",
        stats::percentile(&plain_times, 9, 10) as f64 / 1e9,
    );
    l.set("bench.iter_samples", plain_times.len() as f64);
    l.set("bench.host_drift", stats::drift(&plain_times));
    l.set("bench.calibration_factor", factor);

    // ---- kernel drives ----
    let k = kernels::run(&mut setup);
    l.set("core.scan.ns_per_tuple", k.scan.ns_per_item() * factor);
    l.set(
        "core.split.route_ns_per_tuple",
        k.route.ns_per_item() * factor,
    );
    l.set(
        "core.hash_table.build_ns_per_tuple",
        k.build.ns_per_item() * factor,
    );
    l.set(
        "core.hash_table.probe_ns_per_tuple",
        k.probe.ns_per_item() * factor,
    );
    l.set(
        "core.hash_table.matches_per_probe",
        k.probe_matches as f64 / k.probe.items.max(1) as f64,
    );
    l.set(
        "core.bitfilter.ns_per_op",
        k.bitfilter.ns_per_item() * factor,
    );
    l.set(
        "net.exchange.remote_ns_per_tuple",
        k.exchange_remote.ns_per_item() * factor,
    );
    l.set(
        "net.exchange.local_ns_per_tuple",
        k.exchange_local.ns_per_item() * factor,
    );
    l.set(
        "wiss.heap.write_ns_per_tuple",
        k.heap_write.ns_per_item() * factor,
    );
    l.set(
        "wiss.heap.scan_ns_per_tuple",
        k.heap_scan.ns_per_item() * factor,
    );
    l.set("wiss.sort.ns_per_tuple", k.sort.ns_per_item() * factor);
    l.set(
        "wiss.sort.comparisons_per_tuple",
        k.sort_comparisons as f64 / k.sort.items.max(1) as f64,
    );
    l.set("wiss.sort.merge_passes", k.sort_merge_passes as f64);
    l.set(
        "des.queue.fifo_ns_per_request",
        k.fifo.ns_per_item() * factor,
    );
    l.set(
        "des.queue.shared_ns_per_request",
        k.shared.ns_per_item() * factor,
    );
    l.set(
        "des.phase.compose_ns_per_phase",
        k.compose.ns_per_item() * factor,
    );
    if run_join.self_ns > 0 {
        let per_pass_ns = run_join.self_ns as f64 / passes;
        l.set(
            "core.run_join.kernel_coverage",
            kernel_priced_ns(&k, &setup, &first.ledger) / per_pass_ns,
        );
    }
    if let Some(pool) = &setup.pool {
        l.set(
            "core.pool.dispatch_ns_per_job",
            kernels::pool_dispatch(pool).ns_per_item() * factor,
        );
        let serial: Vec<u64> = plain.samples.iter().filter_map(|s| s.serial_ns).collect();
        l.set(
            "core.pool.speedup_2",
            stats::median(&serial) as f64 / plain_p50,
        );
    }

    // ---- ledger counts per pass ----
    let g = &first.ledger;
    let c = &g.counts;
    for (name, v) in [
        ("wiss.pages_read", c.pages_read),
        ("wiss.pages_written", c.pages_written),
        ("wiss.pages_spilled", c.pages_spilled),
        ("wiss.pages_restored", c.pages_restored),
        ("wiss.peak_pool_pages", g.peak_pool_pages),
        ("net.packets_sent", c.packets_sent),
        ("net.msgs_shortcircuit", c.msgs_shortcircuit),
        ("core.tuples_in", c.tuples_in),
        ("core.tuples_out", c.tuples_out),
        ("core.hash_inserts", c.hash_inserts),
        ("core.hash_probes", c.hash_probes),
        ("core.comparisons", c.comparisons),
        ("core.filter_drops", c.filter_drops),
        ("core.overflow_evictions", c.overflow_evictions),
        ("core.overflow_passes", g.overflow_passes),
        ("core.bnl_fallbacks", g.bnl_fallbacks),
        ("core.control_msgs", c.control_msgs),
        ("core.buckets", g.buckets),
        ("des.requests", g.requests),
    ] {
        l.set(name, v as f64);
    }
    let sent = c.packets_sent + c.msgs_shortcircuit;
    l.set(
        "net.short_circuit_ratio",
        c.msgs_shortcircuit as f64 / sent.max(1) as f64,
    );
    l.set("net.ring_mb", g.ring_bytes as f64 / MIB);

    // ---- virtual clock ----
    let (v, a, f) = attribute(&mut setup);
    attempted += a;
    failed += f;
    if v.total != first.ledger.virt_us() {
        failed += 1;
        eprintln!(
            "FAILED: attribution covers {} of {} µs",
            v.total,
            first.ledger.virt_us()
        );
    }
    for (name, us) in [
        ("virt.cpu_s", v.cpu),
        ("virt.disk_s", v.disk),
        ("virt.net_s", v.net),
        ("virt.disk_wait_s", v.disk_wait),
        ("virt.net_wait_s", v.net_wait),
        ("virt.dispatch_s", v.dispatch),
    ] {
        l.set(name, us as f64 / 1e6);
    }
    l.set(
        "virt.disk_node_cpu_util",
        g.disk_node_cpu_util_ppm as f64 / 1e6 / g.joins.max(1) as f64,
    );
    if setup.kind == Kind::PaperGrid {
        let acc = accuracy::table4(&setup.inner, &setup.outer);
        attempted += acc.attempted;
        failed += acc.failed;
        l.set("virt.table4_mae_pp", acc.mae_pp);
    }
    if setup.kind == Kind::Serve {
        let point = &setup.points[0];
        let machine = &mut setup.machines[point.machine];
        let (plan, report) = gamma_sched::extract(machine, &point.spec);
        let bound_qps = 1.0 / report.demand.bottleneck();
        let cfg = workloads::engine_config(machine, &plan);
        let sweep = serve::sweep(&plan, &cfg, bound_qps, args.seed);
        attempted += sweep.queries;
        failed += sweep.unfinished;
        println!(
            "serve sweep, solo {} µs, bound {bound_qps:.4} q/s:",
            plan.solo_response.as_us()
        );
        for p in &sweep.points {
            println!(
                "  load {:.1}: offered {:.4} q/s  p50 {} µs  p99 {} µs  backlog x{:.2}  tput {:.4} q/s",
                p.load, p.offered_qps, p.p50_us, p.p99_us, p.backlog_ratio, p.throughput_qps
            );
        }
        let at = sweep.at_serve_load();
        l.set("sched.virt.serve_p50_s", at.p50_us as f64 / 1e6);
        l.set("sched.virt.serve_p99_s", at.p99_us as f64 / 1e6);
        l.set("sched.virt.serve_max_qps", sweep.max_qps);
        l.set("sched.virt.admission_wait_s", at.admission_wait_us / 1e6);
        l.set("sched.virt.dispatch_wait_s", at.dispatch_wait_us / 1e6);
        l.set("sched.virt.queue_wait_s", at.queue_wait_us / 1e6);
        l.set("sched.virt.peak_utilisation", at.peak_utilisation);
        l.set("sched.virt.knee_vs_bound", sweep.knee_vs_bound);
        l.set("sched.virt.p99_seed_spread", at.p99_seed_spread);
    }
    l.set(
        "bench.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );

    let metrics: Vec<Metric> = manifest::PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: l.0.get(m.name).copied().unwrap_or(0.0),
        })
        .collect();
    println!(
        "passes: {} traced + {} untraced ({warm_passes} warm-up discarded); setup repeats {setup_times:?}",
        traced.samples.len(),
        plain.samples.len()
    );
    match write_trace(args, envelope, &tr, &totals, &metrics) {
        Ok(path) => println!("wrote {}", path.display()),
        // The trace file is a by-product; the metrics below are the result.
        Err(e) => eprintln!("could not write the trace file: {e}"),
    }
    crate::emit(&metrics, attempted, failed);
}

/// Write spans, per-layer totals and metrics to
/// `benchmark/out/trace-<workload>.json`.
fn write_trace(
    args: &Args,
    envelope: &str,
    tr: &Tracer,
    totals: &BTreeMap<&'static str, LayerTotal>,
    metrics: &[Metric],
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.json", args.workload));
    let mut doc = String::from("{\n");
    doc.push_str(&format!(
        "  \"envelope\": {envelope},
"
    ));
    doc.push_str("  \"metrics\": {\n");
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| format!("    {}", m.json()))
        .collect();
    doc.push_str(&rows.join(",\n"));
    doc.push_str("\n  },\n  \"layers\": {\n");
    let rows: Vec<String> = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "    {}: {}",
                json::string(name),
                json::object(&[
                    ("calls", t.calls.to_string()),
                    ("total_ns", t.total_ns.to_string()),
                    ("self_ns", t.self_ns.to_string()),
                    ("self_allocs", t.self_alloc.events.to_string()),
                    ("self_alloc_bytes", t.self_alloc.bytes.to_string()),
                ])
            )
        })
        .collect();
    doc.push_str(&rows.join(",\n"));
    doc.push_str("\n  },\n  \"spans\": [\n");
    let rows: Vec<String> = tr
        .spans()
        .iter()
        .map(|s| {
            format!(
                "    {}",
                json::object(&[
                    ("name", json::string(s.name)),
                    ("start_ns", s.start_ns.to_string()),
                    ("end_ns", s.end_ns.to_string()),
                    ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
                    ("pass", s.pass.to_string()),
                    ("allocs", s.alloc.events.to_string()),
                    ("alloc_bytes", s.alloc.bytes.to_string()),
                ])
            )
        })
        .collect();
    doc.push_str(&rows.join(",\n"));
    doc.push_str("\n  ]\n}\n");
    std::fs::write(&path, doc)?;
    Ok(path)
}
