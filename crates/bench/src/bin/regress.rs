//! Virtual-time perf-regression gate.
//!
//! Replays every point of the committed `BENCH_joinabprime.json` baseline
//! (at the scale the baseline records) with the metrics registry installed,
//! then fails — exit code 1 — if any of:
//!
//! * a point's `response_virtual_us` drifts more than the tolerance
//!   (default 1%) in either direction;
//! * a deterministic counter (`packets`, `peak_pool_pages`) changes at all;
//! * any run's metric snapshot fails ledger reconciliation (a charged
//!   microsecond or byte became unattributable);
//! * a committed metrics snapshot under `results/` is no longer
//!   byte-identical to a fresh run of the same point;
//! * a committed `BENCH_serve.json` point's virtual-time quantities
//!   (makespan, response percentiles, admission wait) drift past the
//!   tolerance, or its identity fields (`completed`,
//!   `mean_interarrival_us`) change at all;
//! * a committed `BENCH_skew.json` point's response time drifts past the
//!   tolerance, or any of its deterministic counters (overflow passes,
//!   spill/restore pages, buckets, result cardinality) change at all;
//! * a serial replay of any `ALLOC_CEILINGS.json` point performs more heap
//!   allocations than its committed ceiling (Gate 5 — the data-plane
//!   allocation-regression gate). This gate only runs on the serial
//!   executor (`GAMMA_POOL` unset): worker pools allocate their own
//!   bookkeeping concurrently, so pooled counts are not deterministic;
//! * a committed flight-recorder profile under `results/prof-*.json` is no
//!   longer byte-identical to a fresh replay of the same point (Gate 6 —
//!   any drift in the sampled utilisation/queue/occupancy series fails).
//!
//! Every gate runs to completion; the binary ends with a per-gate summary
//! table (gate, points checked, status, first offending field/point)
//! before exiting non-zero if any gate failed.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin regress
//! cargo run --release -p gamma-bench --bin regress -- --tolerance-pct 0.5
//! cargo run --release -p gamma-bench --bin regress -- --write   # refresh snapshots
//! ```
//!
//! `--write` regenerates the snapshot baselines (for intentional model
//! changes), the flight-recorder profiles and, on the serial executor,
//! the allocation ceilings; the response-time baseline itself is
//! refreshed by rerunning the `joinabprime` binary.

use gamma_bench::alloc::{count_allocs, CountingAlloc};
use gamma_bench::metrics::{metrics_join, metrics_join_with, reconcile};
use gamma_bench::regress::{
    compare_alloc_points, compare_points, compare_serve_points, compare_skew_points,
    diff_snapshots, parse_alloc_ceilings, parse_bench_points, parse_scale, parse_serve_envelope,
    parse_serve_points, parse_skew_envelope, parse_skew_points, render_alloc_ceilings,
    render_gate_table, AllocCeiling, BenchPoint, GateSummary, ServeBenchPoint, SkewBenchPoint,
};
use gamma_bench::serve::{serve_sweep, ServeSweepConfig};
use gamma_bench::skew::{skew_sweep, SkewSweepConfig};
use gamma_bench::{pooled_map, prof, Workload};
use gamma_core::query::Algorithm;
use gamma_core::ExecConfig;

/// Counting allocator for Gate 5 — free when idle, and the other gates'
/// comparisons never read it.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The snapshot points kept under `results/` — same points the `trace`
/// and `prof` binaries export, so the artifact sets describe the same
/// runs.
const SNAPSHOT_POINTS: [(Algorithm, f64); 3] = [
    (Algorithm::HybridHash, 0.5),
    (Algorithm::GraceHash, 0.2),
    (Algorithm::SortMerge, 1.0),
];

/// `A`-relation cardinality for the snapshot points (the `trace` binary's
/// default; `Bprime` is a 10% sample).
const SNAPSHOT_SCALE: usize = 20_000;

/// Workload scale the allocation ceilings are recorded at (the same
/// `--scale 0.2` sweep EXPERIMENTS.md benchmarks wall-clock on).
const ALLOC_SCALE: f64 = 0.2;

fn algorithm_by_name(name: &str) -> Algorithm {
    match name {
        "sort-merge" => Algorithm::SortMerge,
        "simple" => Algorithm::SimpleHash,
        "grace" => Algorithm::GraceHash,
        "hybrid" => Algorithm::HybridHash,
        other => panic!("baseline names unknown algorithm `{other}`"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = String::from("BENCH_joinabprime.json");
    let mut serve_baseline_path = String::from("BENCH_serve.json");
    let mut skew_baseline_path = String::from("BENCH_skew.json");
    let mut alloc_baseline_path = String::from("ALLOC_CEILINGS.json");
    let mut snapshot_dir = String::from("results");
    let mut tolerance_pct = 1.0f64;
    let mut write = false;
    if let Some(i) = args.iter().position(|a| a == "--baseline") {
        baseline_path = args[i + 1].clone();
    }
    if let Some(i) = args.iter().position(|a| a == "--serve-baseline") {
        serve_baseline_path = args[i + 1].clone();
    }
    if let Some(i) = args.iter().position(|a| a == "--skew-baseline") {
        skew_baseline_path = args[i + 1].clone();
    }
    if let Some(i) = args.iter().position(|a| a == "--alloc-baseline") {
        alloc_baseline_path = args[i + 1].clone();
    }
    if let Some(i) = args.iter().position(|a| a == "--snapshots") {
        snapshot_dir = args[i + 1].clone();
    }
    if let Some(i) = args.iter().position(|a| a == "--tolerance-pct") {
        tolerance_pct = args[i + 1].parse().expect("tolerance must be a float");
    }
    if args.iter().any(|a| a == "--write") {
        write = true;
    }

    let mut gates: Vec<GateSummary> = Vec::new();

    // --- Gate 1: baseline points vs fresh runs -------------------------
    {
        let mut errors: Vec<String> = Vec::new();
        let doc = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
        let baseline = parse_bench_points(&doc).unwrap_or_else(|e| panic!("{baseline_path}: {e}"));
        assert!(!baseline.is_empty(), "{baseline_path} has no points");
        let scale = parse_scale(&doc).unwrap_or_else(|e| panic!("{baseline_path}: {e}"));
        let w = Workload::at_scale(scale);
        println!(
            "regress: replaying {} baseline points at scale {scale} (tolerance {tolerance_pct}%)",
            baseline.len()
        );
        // Replay the points on the pool (when one is active); results gather
        // in baseline order, so the printed table and the comparison are
        // independent of scheduling.
        let replayed = pooled_map("regress point", baseline.iter().collect(), |b| {
            let alg = algorithm_by_name(&b.algorithm);
            let run = metrics_join(&w, alg, b.memory_ratio, false, false);
            let recon: Vec<String> = reconcile(&run.registry, &run.report)
                .into_iter()
                .map(|e| {
                    format!(
                        "{} @ ratio {}: reconciliation: {e}",
                        b.algorithm, b.memory_ratio
                    )
                })
                .collect();
            (BenchPoint::of(&run, b.memory_ratio), recon)
        });
        let mut fresh = Vec::new();
        for (point, recon) in replayed {
            println!(
                "  {:<10} ratio {:>4}: {:>12} virtual-us  {:>8} packets",
                point.algorithm, point.memory_ratio, point.response_virtual_us, point.packets
            );
            errors.extend(recon);
            fresh.push(point);
        }
        errors.extend(compare_points(&baseline, &fresh, tolerance_pct));
        gates.push(GateSummary::ran(
            "1: joinabprime baseline",
            baseline.len(),
            errors,
        ));
    }

    // --- Gate 2: committed metric snapshots ----------------------------
    // Render the snapshot runs on the pool; file reads/writes and the
    // byte-diffs stay sequential, in SNAPSHOT_POINTS order.
    {
        let mut errors: Vec<String> = Vec::new();
        let snapshots = pooled_map(
            "snapshot point",
            SNAPSHOT_POINTS.to_vec(),
            |(alg, ratio)| {
                let run = metrics_join(
                    &Workload::scaled(SNAPSHOT_SCALE, SNAPSHOT_SCALE / 10),
                    alg,
                    ratio,
                    false,
                    false,
                );
                let recon: Vec<String> = reconcile(&run.registry, &run.report)
                    .into_iter()
                    .map(|e| {
                        format!(
                            "snapshot {} @ ratio {ratio}: reconciliation: {e}",
                            alg.name()
                        )
                    })
                    .collect();
                (alg, ratio, recon, run.json(), run.prometheus())
            },
        );
        for (alg, ratio, recon, fresh_doc, prom_doc) in snapshots {
            errors.extend(recon);
            let path = format!(
                "{snapshot_dir}/metrics-{}-r{:02}.json",
                alg.name(),
                (ratio * 100.0) as u32
            );
            if write {
                std::fs::create_dir_all(&snapshot_dir).expect("create snapshot dir");
                std::fs::write(&path, &fresh_doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
                println!("  wrote {path}");
                let prom = format!(
                    "{snapshot_dir}/metrics-{}-r{:02}.prom",
                    alg.name(),
                    (ratio * 100.0) as u32
                );
                std::fs::write(&prom, &prom_doc).unwrap_or_else(|e| panic!("write {prom}: {e}"));
                println!("  wrote {prom}");
            } else {
                match std::fs::read_to_string(&path) {
                    Ok(committed) => {
                        let diffs = diff_snapshots(&path, &committed, &fresh_doc);
                        if diffs.is_empty() {
                            println!("  {path}: byte-identical");
                        }
                        errors.extend(diffs);
                    }
                    Err(e) => errors.push(format!(
                        "{path}: unreadable ({e}); run `regress -- --write` to create it"
                    )),
                }
            }
        }
        gates.push(if write {
            GateSummary::skip("2: metric snapshots", "refreshed by --write")
        } else {
            GateSummary::ran("2: metric snapshots", SNAPSHOT_POINTS.len(), errors)
        });
    }

    // --- Gate 3: concurrent-serving baseline ---------------------------
    match std::fs::read_to_string(&serve_baseline_path) {
        Ok(doc) => {
            let mut errors: Vec<String> = Vec::new();
            let baseline =
                parse_serve_points(&doc).unwrap_or_else(|e| panic!("{serve_baseline_path}: {e}"));
            let Some((a_rows, queries, budget_multiplier)) = parse_serve_envelope(&doc) else {
                panic!("{serve_baseline_path} has no envelope (a_rows/queries/budget_multiplier)");
            };
            assert!(!baseline.is_empty(), "{serve_baseline_path} has no points");
            let cfg = ServeSweepConfig {
                a_rows,
                queries,
                load_fractions: baseline.iter().map(|p| p.load_fraction).collect(),
                budget_multiplier,
                backlog_window: None,
            };
            println!(
                "regress: replaying {} serve points (A={a_rows} rows, {queries} queries/point)",
                baseline.len()
            );
            let sweep = serve_sweep(&cfg);
            let fresh: Vec<ServeBenchPoint> = sweep
                .points
                .iter()
                .map(|p| ServeBenchPoint {
                    rate_index: p.rate_index as u64,
                    load_fraction: p.load_fraction,
                    mean_interarrival_us: p.mean_interarrival_us,
                    completed: p.completed,
                    makespan_us: p.makespan_us,
                    response_p50_us: p.response_p50_us,
                    response_p99_us: p.response_p99_us,
                    response_p999_us: p.response_p999_us,
                    admission_wait_total_us: p.admission_wait_total_us,
                })
                .collect();
            for p in &fresh {
                println!(
                    "  serve point {}: makespan {:>12} us  p50 {:>10} us  p99 {:>10} us",
                    p.rate_index, p.makespan_us, p.response_p50_us, p.response_p99_us
                );
            }
            errors.extend(compare_serve_points(&baseline, &fresh, tolerance_pct));
            gates.push(GateSummary::ran(
                "3: serve baseline",
                baseline.len(),
                errors,
            ));
        }
        Err(e) => gates.push(GateSummary::ran(
            "3: serve baseline",
            0,
            vec![format!(
                "{serve_baseline_path}: unreadable ({e}); run the `serve` binary to create it"
            )],
        )),
    }

    // --- Gate 4: skew-cliff baseline -----------------------------------
    match std::fs::read_to_string(&skew_baseline_path) {
        Ok(doc) => {
            let mut errors: Vec<String> = Vec::new();
            let baseline =
                parse_skew_points(&doc).unwrap_or_else(|e| panic!("{skew_baseline_path}: {e}"));
            let Some((a_rows, bprime_rows)) = parse_skew_envelope(&doc) else {
                panic!("{skew_baseline_path} has no envelope (a_rows/bprime_rows)");
            };
            assert!(!baseline.is_empty(), "{skew_baseline_path} has no points");
            let mut ratios: Vec<f64> = Vec::new();
            for p in &baseline {
                if !ratios.contains(&p.memory_ratio) {
                    ratios.push(p.memory_ratio);
                }
            }
            let cfg = SkewSweepConfig {
                a_rows,
                bprime_rows,
                ratios,
            };
            println!(
                "regress: replaying {} skew points (A={a_rows} rows, Bprime={bprime_rows} rows)",
                baseline.len()
            );
            let sweep = skew_sweep(&cfg);
            let fresh: Vec<SkewBenchPoint> = sweep
                .points
                .iter()
                .map(|p| SkewBenchPoint {
                    skew: p.skew.to_string(),
                    mode: p.mode.to_string(),
                    memory_ratio: p.memory_ratio,
                    response_virtual_us: p.response_virtual_us,
                    overflow_passes: p.overflow_passes as u64,
                    pages_spilled: p.pages_spilled,
                    pages_restored: p.pages_restored,
                    buckets: p.buckets as u64,
                    result_tuples: p.result_tuples,
                })
                .collect();
            for p in &fresh {
                println!(
                    "  {:<8}/{:<6} ratio {:>4}: {:>12} virtual-us  {} passes  {:>4} restored",
                    p.skew,
                    p.mode,
                    p.memory_ratio,
                    p.response_virtual_us,
                    p.overflow_passes,
                    p.pages_restored
                );
            }
            errors.extend(compare_skew_points(&baseline, &fresh, tolerance_pct));
            gates.push(GateSummary::ran("4: skew baseline", baseline.len(), errors));
        }
        Err(e) => gates.push(GateSummary::ran(
            "4: skew baseline",
            0,
            vec![format!(
                "{skew_baseline_path}: unreadable ({e}); run the `skew` binary to create it"
            )],
        )),
    }

    // --- Gate 5: serial allocation ceilings ----------------------------
    if ExecConfig::auto().pool.is_some() {
        println!(
            "regress: skipping alloc gate — worker pool active; allocation \
             counts are only deterministic on the serial executor"
        );
        gates.push(GateSummary::skip(
            "5: alloc ceilings",
            "worker pool active (serial executor only)",
        ));
    } else if write {
        let (scale, grid) = (
            ALLOC_SCALE,
            [
                Algorithm::SortMerge,
                Algorithm::SimpleHash,
                Algorithm::GraceHash,
                Algorithm::HybridHash,
            ],
        );
        let w = Workload::at_scale(scale);
        let mut ceilings = Vec::new();
        for alg in grid {
            for ratio in [1.0, 0.5, 0.2] {
                let (run, allocs) = count_allocs(|| {
                    metrics_join_with(&w, alg, ratio, false, false, ExecConfig::serial())
                });
                // ~5% headroom: counts are deterministic for one toolchain,
                // but std container growth policies may shift across rustc
                // releases; the gate targets order-of-magnitude regressions.
                let ceiling = allocs + allocs / 20 + 64;
                println!(
                    "  {:<10} ratio {ratio:>4}: {allocs:>10} allocs (ceiling {ceiling})",
                    run.report.algorithm
                );
                ceilings.push(AllocCeiling {
                    algorithm: run.report.algorithm.clone(),
                    memory_ratio: ratio,
                    ceiling_allocs: ceiling,
                });
            }
        }
        std::fs::write(
            &alloc_baseline_path,
            render_alloc_ceilings(scale, &ceilings),
        )
        .unwrap_or_else(|e| panic!("write {alloc_baseline_path}: {e}"));
        println!("  wrote {alloc_baseline_path}");
        gates.push(GateSummary::skip(
            "5: alloc ceilings",
            "re-recorded by --write",
        ));
    } else {
        match std::fs::read_to_string(&alloc_baseline_path) {
            Ok(doc) => {
                let mut errors: Vec<String> = Vec::new();
                let ceilings = parse_alloc_ceilings(&doc)
                    .unwrap_or_else(|e| panic!("{alloc_baseline_path}: {e}"));
                assert!(!ceilings.is_empty(), "{alloc_baseline_path} has no points");
                let scale =
                    parse_scale(&doc).unwrap_or_else(|e| panic!("{alloc_baseline_path}: {e}"));
                let w = Workload::at_scale(scale);
                println!(
                    "regress: replaying {} alloc ceilings at scale {scale} (serial executor)",
                    ceilings.len()
                );
                let mut measured = Vec::new();
                for c in &ceilings {
                    let alg = algorithm_by_name(&c.algorithm);
                    let (_, allocs) = count_allocs(|| {
                        metrics_join_with(&w, alg, c.memory_ratio, false, false, ExecConfig::serial())
                    });
                    println!(
                        "  {:<10} ratio {:>4}: {allocs:>10} allocs (ceiling {})",
                        c.algorithm, c.memory_ratio, c.ceiling_allocs
                    );
                    measured.push((c.algorithm.clone(), c.memory_ratio, allocs));
                }
                errors.extend(compare_alloc_points(&ceilings, &measured));
                gates.push(GateSummary::ran("5: alloc ceilings", ceilings.len(), errors));
            }
            Err(e) => gates.push(GateSummary::ran(
                "5: alloc ceilings",
                0,
                vec![format!(
                    "{alloc_baseline_path}: unreadable ({e}); run `regress -- --write` on the serial executor to create it"
                )],
            )),
        }
    }

    // --- Gate 6: committed flight-recorder profiles --------------------
    // Replay the snapshot points through the gamma-prof flight recorder
    // and byte-compare the sampled series against the committed
    // `results/prof-*.json`. The series are pure virtual-time functions of
    // the ledgers, so *any* drift — one microsecond of busy time, one
    // queued request at one tick — fails the gate.
    {
        let mut errors: Vec<String> = Vec::new();
        let profiles = pooled_map("prof point", SNAPSHOT_POINTS.to_vec(), |(alg, ratio)| {
            (
                alg,
                ratio,
                prof::snapshot_doc(alg, ratio, SNAPSHOT_SCALE, prof::TICK_US),
            )
        });
        for (alg, ratio, fresh_doc) in profiles {
            let path = format!("{snapshot_dir}/{}.json", prof::artifact_stem(alg, ratio));
            if write {
                std::fs::create_dir_all(&snapshot_dir).expect("create snapshot dir");
                std::fs::write(&path, &fresh_doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
                println!("  wrote {path}");
            } else {
                match std::fs::read_to_string(&path) {
                    Ok(committed) => {
                        let diffs = diff_snapshots(&path, &committed, &fresh_doc);
                        if diffs.is_empty() {
                            println!("  {path}: byte-identical");
                        }
                        errors.extend(diffs);
                    }
                    Err(e) => errors.push(format!(
                        "{path}: unreadable ({e}); run `regress -- --write` to create it"
                    )),
                }
            }
        }
        gates.push(if write {
            GateSummary::skip("6: flight-recorder profiles", "refreshed by --write")
        } else {
            GateSummary::ran("6: flight-recorder profiles", SNAPSHOT_POINTS.len(), errors)
        });
    }

    // --- Summary -------------------------------------------------------
    let violations: usize = gates.iter().map(|g| g.errors.len()).sum();
    if violations > 0 {
        eprintln!("regress: FAIL — {violations} violation(s):");
        for g in gates.iter().filter(|g| !g.errors.is_empty()) {
            eprintln!("  gate {}:", g.name);
            for e in &g.errors {
                eprintln!("    {e}");
            }
        }
    }
    println!("{}", render_gate_table(&gates));
    if violations == 0 {
        println!("regress: PASS — every gate held");
    } else {
        std::process::exit(1);
    }
}
