//! The benchmark's names: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics with the end-to-end metric and workloads
//! each is expected to move. `BENCHMARK.json` at the repository root is
//! rendered from these tables (`gamma-benchmark manifest`) and a test keeps
//! the two identical, so the interaction table lives in exactly one place.

use crate::json;

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// One workload and the reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The eight workloads. Full scale is 100 000 × 10 000 Wisconsin tuples of
/// 208 bytes unless stated.
pub const WORKLOADS: [WorkloadDef; 8] = [
    WorkloadDef {
        name: "paper-grid",
        why: "joinABprime grid, 4 algorithms x ratios 1.0/0.5/0.2, HPJA local: the sweep the paper plots, every layer a little",
    },
    WorkloadDef {
        name: "hash-mem",
        why: "Hybrid non-HPJA ratio 1.0, local and remote 8+8: nothing spills, 7/8 of tuples cross the ring; scan, routing, exchange, build/probe do the work",
    },
    WorkloadDef {
        name: "hash-spill",
        why: "HPJA Grace r0.1, Hybrid r0.2, Simple r0.2: bucket forming, spool/restore and overflow passes dominate, the exchange is short-circuited",
    },
    WorkloadDef {
        name: "sort-merge",
        why: "Sort-Merge HPJA r1.0 and r0.2: WiSS run formation and merging, comparison-bound; hash tables idle",
    },
    WorkloadDef {
        name: "skew-overflow",
        why: "10k x 1k sharp-skew join on normal, Hybrid optimistic r0.5, legacy and robust resolvers: long chains, many-to-many output, overflow",
    },
    WorkloadDef {
        name: "observed",
        why: "two joins with trace sink and metrics registry installed, all exports, reconcile, flight profile: the observers do the extra work",
    },
    WorkloadDef {
        name: "serve",
        why: "4000 x 400 template, 100 served queries plus engine runs of 2000 plans at load 0.5/0.7/0.9, open loop: many tiny joins and the scheduler",
    },
    WorkloadDef {
        name: "pool2",
        why: "hash-mem grid plus Sort-Merge r1.0 on a 2-lane worker pool, each pass checked against a serial pass: pool chunking and dispatch",
    },
];

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload and never zero. Host
/// times are calibrated seconds (see [`crate::calibrate`]).
///
/// A bound covers every workload, so each is sized by the workload that
/// varies most between seeds: the host clock by the shared host (quartile
/// distance 2–7 % of the median over ten seeds after calibration, 5–13 %
/// before), the exact metrics — identical run to run at one seed — by
/// `skew-overflow`, whose sampled hot values move its output cardinality,
/// and with it simulated time, allocations and memory, by 2–5 % from seed
/// to seed (every other workload stays under 1 %).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_iter_p50_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_ktuples_per_s",
        unit: "ktuples/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "host_allocs_per_iter",
        unit: "count",
        better: Lower,
        bound: 0.06,
    },
    EndToEnd {
        name: "host_alloc_mb_per_iter",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "virt_response_s",
        unit: "s",
        better: Lower,
        bound: 0.20,
    },
];

/// A per-layer metric, the end-to-end metric it should move, and the
/// workloads on which it should move it (everywhere else the prediction
/// is no change).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &[
    "paper-grid",
    "hash-mem",
    "hash-spill",
    "sort-merge",
    "skew-overflow",
    "observed",
    "serve",
    "pool2",
];
/// Workloads whose pass is a list of `run_join` calls and little else.
const JOINS: &[&str] = &[
    "paper-grid",
    "hash-mem",
    "hash-spill",
    "sort-merge",
    "skew-overflow",
    "pool2",
];
const HASHING: &[&str] = &["paper-grid", "hash-mem", "skew-overflow", "pool2"];
const SPOOLING: &[&str] = &["paper-grid", "hash-spill", "sort-merge"];
const SORTING: &[&str] = &["sort-merge", "paper-grid"];
const SERVE: &[&str] = &["serve"];
const OBSERVED: &[&str] = &["observed"];
const POOL2: &[&str] = &["pool2"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const ITER: &str = "host_iter_p50_s";
const VIRT: &str = "virt_response_s";

/// Per-layer metrics, all from the traced run. A metric reads 0 on a
/// workload whose pass never calls that layer.
pub const PER_LAYER: &[PerLayer] = &[
    // ---- outside spans: host self time per pass ----
    layer("wisconsin.gen.host_s", "s", Lower, "setup_s", ALL),
    layer("wisconsin.load.host_s", "s", Lower, "setup_s", ALL),
    layer("wisconsin.oracle.host_s", "s", Lower, "setup_s", ALL),
    layer("core.run_join.host_s", "s", Lower, ITER, JOINS),
    layer(
        "core.run_join.allocs",
        "count",
        Lower,
        "host_allocs_per_iter",
        JOINS,
    ),
    layer(
        "core.run_join.alloc_mb",
        "MiB",
        Lower,
        "host_alloc_mb_per_iter",
        JOINS,
    ),
    layer("des.replay.host_s", "s", Lower, ITER, JOINS),
    layer("sched.extract.host_s", "s", Lower, ITER, SERVE),
    layer("sched.serve_exec.host_s", "s", Lower, ITER, SERVE),
    layer("sched.engine.host_s", "s", Lower, ITER, SERVE),
    layer(
        "sched.engine.kqueries_per_host_s",
        "kqueries/s",
        Higher,
        ITER,
        SERVE,
    ),
    layer("sched.explain.host_s", "s", Lower, ITER, SERVE),
    layer("trace.overhead_s", "s", Lower, ITER, OBSERVED),
    layer("trace.events", "count", Lower, ITER, OBSERVED),
    layer("trace.export_s", "s", Lower, ITER, OBSERVED),
    layer(
        "trace.export_mb",
        "MiB",
        Lower,
        "host_alloc_mb_per_iter",
        OBSERVED,
    ),
    layer("metrics.overhead_s", "s", Lower, ITER, OBSERVED),
    layer("metrics.series", "count", Lower, ITER, OBSERVED),
    layer("metrics.export_s", "s", Lower, ITER, OBSERVED),
    layer("metrics.reconcile_s", "s", Lower, ITER, OBSERVED),
    layer("prof.profile_s", "s", Lower, ITER, OBSERVED),
    layer("prof.export_s", "s", Lower, ITER, OBSERVED),
    // ---- the harness itself ----
    layer("bench.unattributed_share", "share", Lower, ITER, ALL),
    layer("bench.trace_overhead_share", "share", Lower, ITER, ALL),
    layer("bench.iter_p90_s", "s", Lower, ITER, ALL),
    layer("bench.iter_samples", "count", Higher, ITER, ALL),
    layer("bench.host_drift", "share", Lower, ITER, ALL),
    layer("bench.calibration_factor", "ratio", Higher, ITER, ALL),
    layer("bench.failed_share", "share", Lower, VIRT, ALL),
    // ---- kernel drives: host ns per item at the workload's sizes ----
    layer("core.scan.ns_per_tuple", "ns", Lower, ITER, ALL),
    layer("core.split.route_ns_per_tuple", "ns", Lower, ITER, HASHING),
    layer(
        "core.hash_table.build_ns_per_tuple",
        "ns",
        Lower,
        ITER,
        HASHING,
    ),
    layer(
        "core.hash_table.probe_ns_per_tuple",
        "ns",
        Lower,
        ITER,
        HASHING,
    ),
    layer(
        "core.hash_table.matches_per_probe",
        "count",
        Lower,
        ITER,
        &["skew-overflow"],
    ),
    layer("core.bitfilter.ns_per_op", "ns", Lower, ITER, HASHING),
    layer(
        "net.exchange.remote_ns_per_tuple",
        "ns",
        Lower,
        ITER,
        &["hash-mem", "pool2", "serve"],
    ),
    layer(
        "net.exchange.local_ns_per_tuple",
        "ns",
        Lower,
        ITER,
        &["hash-spill", "paper-grid"],
    ),
    layer("wiss.heap.write_ns_per_tuple", "ns", Lower, ITER, SPOOLING),
    layer("wiss.heap.scan_ns_per_tuple", "ns", Lower, ITER, SPOOLING),
    layer("wiss.sort.ns_per_tuple", "ns", Lower, ITER, SORTING),
    layer(
        "wiss.sort.comparisons_per_tuple",
        "count",
        Lower,
        ITER,
        SORTING,
    ),
    layer("wiss.sort.merge_passes", "count", Lower, ITER, SORTING),
    layer("des.queue.fifo_ns_per_request", "ns", Lower, ITER, JOINS),
    layer("des.queue.shared_ns_per_request", "ns", Lower, ITER, SERVE),
    layer("des.phase.compose_ns_per_phase", "ns", Lower, ITER, JOINS),
    layer("core.pool.dispatch_ns_per_job", "ns", Lower, ITER, POOL2),
    layer("core.pool.speedup_2", "ratio", Higher, ITER, POOL2),
    layer(
        "core.run_join.kernel_coverage",
        "share",
        Higher,
        ITER,
        JOINS,
    ),
    // ---- ledger counts per pass (exact): work done and wasted ----
    layer("wiss.pages_read", "count", Lower, VIRT, ALL),
    layer("wiss.pages_written", "count", Lower, VIRT, ALL),
    layer(
        "wiss.pages_spilled",
        "count",
        Lower,
        VIRT,
        &["skew-overflow"],
    ),
    layer(
        "wiss.pages_restored",
        "count",
        Higher,
        VIRT,
        &["skew-overflow"],
    ),
    layer("wiss.peak_pool_pages", "count", Lower, VIRT, ALL),
    layer("net.packets_sent", "count", Lower, VIRT, ALL),
    layer("net.msgs_shortcircuit", "count", Higher, VIRT, ALL),
    layer("net.short_circuit_ratio", "share", Higher, VIRT, ALL),
    layer("net.ring_mb", "MiB", Lower, VIRT, ALL),
    layer("core.tuples_in", "count", Lower, VIRT, ALL),
    layer("core.tuples_out", "count", Lower, VIRT, ALL),
    layer("core.hash_inserts", "count", Lower, VIRT, HASHING),
    layer("core.hash_probes", "count", Lower, VIRT, HASHING),
    layer("core.comparisons", "count", Lower, VIRT, ALL),
    layer("core.filter_drops", "count", Higher, VIRT, &["paper-grid"]),
    layer(
        "core.overflow_evictions",
        "count",
        Lower,
        VIRT,
        &["hash-spill", "skew-overflow", "paper-grid"],
    ),
    layer(
        "core.overflow_passes",
        "count",
        Lower,
        VIRT,
        &["hash-spill", "skew-overflow", "paper-grid"],
    ),
    layer(
        "core.bnl_fallbacks",
        "count",
        Lower,
        VIRT,
        &["skew-overflow"],
    ),
    layer("core.control_msgs", "count", Lower, VIRT, ALL),
    layer(
        "core.buckets",
        "count",
        Lower,
        VIRT,
        &["hash-spill", "paper-grid"],
    ),
    layer("des.requests", "count", Lower, VIRT, ALL),
    // ---- virtual clock: critical-path attribution, sums to virt_response_s ----
    layer("virt.cpu_s", "s", Lower, VIRT, ALL),
    layer("virt.disk_s", "s", Lower, VIRT, ALL),
    layer("virt.net_s", "s", Lower, VIRT, ALL),
    layer("virt.disk_wait_s", "s", Lower, VIRT, ALL),
    layer("virt.net_wait_s", "s", Lower, VIRT, ALL),
    layer("virt.dispatch_s", "s", Lower, VIRT, ALL),
    layer("virt.disk_node_cpu_util", "share", Higher, VIRT, ALL),
    layer("virt.table4_mae_pp", "pp", Lower, VIRT, &["paper-grid"]),
    // ---- virtual clock under load (serve) ----
    layer("sched.virt.serve_p50_s", "s", Lower, VIRT, SERVE),
    layer("sched.virt.serve_p99_s", "s", Lower, VIRT, SERVE),
    layer("sched.virt.serve_max_qps", "1/s", Higher, VIRT, SERVE),
    layer("sched.virt.admission_wait_s", "s", Lower, VIRT, SERVE),
    layer("sched.virt.dispatch_wait_s", "s", Lower, VIRT, SERVE),
    layer("sched.virt.queue_wait_s", "s", Lower, VIRT, SERVE),
    layer("sched.virt.peak_utilisation", "share", Higher, VIRT, SERVE),
    layer("sched.virt.knee_vs_bound", "share", Higher, VIRT, SERVE),
    layer("sched.virt.p99_seed_spread", "share", Lower, VIRT, SERVE),
];

/// Render `BENCHMARK.json`.
pub fn render() -> String {
    let strs = |v: &[&str]| {
        v.iter()
            .map(|s| json::string(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [{}],\n",
        strs(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ])
    ));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json::string(w.name),
                    json::string(w.why)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json::string(m.name),
                    json::string(m.unit),
                    json::string(m.better.as_str()),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json::string(m.name),
                    json::string(m.unit),
                    json::string(m.better.as_str())
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// The interaction table as markdown: which end-to-end metric each layer
/// metric should move, on which workloads (README.md carries a copy).
pub fn render_layers() -> String {
    let mut out = String::from(
        "| per-layer metric | unit | better | should move | on workloads |\n|---|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        let on = if m.on.len() == WORKLOADS.len() {
            "all".to_owned()
        } else {
            m.on.join(", ")
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | `{}` | {on} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_meet_the_benchmark_schema() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));

        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }

        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn every_layer_names_the_metric_and_workloads_it_should_move() {
        for m in PER_LAYER {
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves unknown metric {}",
                m.name,
                m.moves
            );
            assert!(!m.on.is_empty(), "{} names no workload", m.name);
            for w in m.on {
                assert!(
                    WORKLOADS.iter().any(|d| d.name == *w),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            render(),
            "regenerate with `gamma-benchmark manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
