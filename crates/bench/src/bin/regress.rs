//! Virtual-time regression gate.
//!
//! Renders every committed deterministic document afresh and compares it
//! byte for byte with the committed file, then fails — exit code 1 — if
//! any of:
//!
//! * Gate 1: the `joinabprime` sweep at full scale is no longer
//!   byte-identical to `BENCH_joinabprime.json`, or one of its points
//!   fails metrics↔ledger reconciliation (a charged microsecond or byte
//!   became unattributable);
//! * Gate 2: a committed metrics snapshot `results/metrics-*.json` is no
//!   longer byte-identical to a fresh run of the same point, or that run
//!   fails reconciliation;
//! * Gate 3: the smoke serve sweep is no longer byte-identical to
//!   `BENCH_serve.json`;
//! * Gate 4: the smoke skew grid is no longer byte-identical to
//!   `BENCH_skew.json`;
//! * Gate 5: a serial run of any `ALLOC_CEILINGS.json` point performs
//!   more heap allocations than its committed ceiling, or two runs of the
//!   same point count differently (the data-plane allocation gate). It
//!   only runs on the serial executor (`GAMMA_POOL` unset): worker pools
//!   allocate their own bookkeeping concurrently, so pooled counts are not
//!   deterministic;
//! * Gate 6: a committed flight-recorder profile `results/prof-*.json` is
//!   no longer byte-identical to a fresh replay of the same point.
//!
//! A difference is reported as `path:line`; a missing file names the
//! command that writes it. Every gate runs to completion; the binary ends
//! with a per-gate summary table (gate, points checked, status, first
//! violation) before exiting non-zero if any gate failed.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin regress
//! cargo run --release -p gamma-bench --bin regress -- --write   # refresh snapshots
//! ```
//!
//! `--write` rewrites the Gate 2 and Gate 6 snapshots under `--snapshots`
//! (default `results`) and, on the serial executor, the allocation
//! ceilings at `--alloc-baseline` (default `ALLOC_CEILINGS.json`). The
//! `BENCH_*.json` documents are written by the `joinabprime`, `serve` and
//! `skew` binaries.

use gamma_bench::alloc::{count_allocs, CountingAlloc};
use gamma_bench::metrics::{metrics_join, metrics_join_with, reconcile};
use gamma_bench::regress::{
    byte_gate, compare_alloc_points, parse_alloc_ceilings, render_alloc_ceilings,
    render_gate_table, AllocCeiling, GateSummary,
};
use gamma_bench::{joinabprime, pooled_map, prof, serve, skew, Workload};
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

/// Byte-gate `fresh` against the committed `path`, printing the pass.
fn check(path: &str, fresh: &str, writer: &str) -> Vec<String> {
    let errs = byte_gate(path, fresh, writer);
    if errs.is_empty() {
        println!("  {path}: byte-identical");
    }
    errs
}

/// A Gate 2 / Gate 6 snapshot: rewritten under `--write`, gated otherwise.
fn snapshot(path: &str, fresh: &str, write: bool) -> Vec<String> {
    if !write {
        return check(path, fresh, "regress --write");
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create snapshot dir");
    }
    std::fs::write(path, fresh).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  wrote {path}");
    Vec::new()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args[i + 1].clone())
    };
    let alloc_baseline_path = flag("--alloc-baseline").unwrap_or("ALLOC_CEILINGS.json".into());
    let snapshot_dir = flag("--snapshots").unwrap_or("results".into());
    let write = args.iter().any(|a| a == "--write");

    let mut gates: Vec<GateSummary> = Vec::new();

    // --- Gate 1: the joinabprime sweep ---------------------------------
    println!(
        "regress: rendering {} at scale {}",
        joinabprime::BASELINE,
        joinabprime::BASELINE_SCALE
    );
    let bench = joinabprime::sweep(joinabprime::BASELINE_SCALE);
    let mut errors = bench.unreconciled.clone();
    errors.extend(check(joinabprime::BASELINE, &bench.render(), "joinabprime"));
    gates.push(GateSummary::ran(
        "1: joinabprime baseline",
        bench.points.len(),
        errors,
    ));

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
            let stem = format!(
                "{snapshot_dir}/metrics-{}-r{:02}",
                alg.name(),
                (ratio * 100.0) as u32
            );
            errors.extend(snapshot(&format!("{stem}.json"), &fresh_doc, write));
            errors.extend(snapshot(&format!("{stem}.prom"), &prom_doc, write));
        }
        gates.push(if write {
            GateSummary::skip("2: metric snapshots", "refreshed by --write")
        } else {
            GateSummary::ran("2: metric snapshots", SNAPSHOT_POINTS.len(), errors)
        });
    }

    // --- Gates 3 and 4: the serve sweep and the skew grid --------------
    println!(
        "regress: rendering {} and {}",
        serve::BASELINE,
        skew::BASELINE
    );
    let serve_errors = check(serve::BASELINE, &serve::baseline_doc(), "serve");
    gates.push(GateSummary::ran("3: serve baseline", 1, serve_errors));
    let skew_errors = check(skew::BASELINE, &skew::baseline_doc(), "skew");
    gates.push(GateSummary::ran("4: skew baseline", 1, skew_errors));

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
    } else {
        println!("regress: counting allocations at scale {ALLOC_SCALE} (serial executor, twice)");
        let w = Workload::at_scale(ALLOC_SCALE);
        // The workload memoizes the reference join's result; compute it
        // before counting, so every point counts its own join alone.
        w.expect("unique1", "unique1");
        let mut errors: Vec<String> = Vec::new();
        let mut measured = Vec::new();
        for (alg, ratio) in joinabprime::cases() {
            let count = || {
                count_allocs(|| {
                    metrics_join_with(&w, alg, ratio, false, false, ExecConfig::serial())
                })
                .1
            };
            let (allocs, again) = (count(), count());
            println!("  {:<10} ratio {ratio:>4}: {allocs:>10} allocs", alg.name());
            if allocs != again {
                errors.push(format!(
                    "{} @ ratio {ratio}: {allocs} then {again} allocations — the count \
                     depends on more than the inputs",
                    alg.name()
                ));
            }
            measured.push((alg.name().to_string(), ratio, allocs));
        }
        if write {
            // ~5% headroom: counts are deterministic for one toolchain, but
            // std container growth policies may shift across rustc
            // releases; the gate targets order-of-magnitude regressions.
            let ceilings: Vec<AllocCeiling> = measured
                .iter()
                .map(|(alg, ratio, allocs)| AllocCeiling {
                    algorithm: alg.clone(),
                    memory_ratio: *ratio,
                    ceiling_allocs: allocs + allocs / 20 + 64,
                })
                .collect();
            std::fs::write(
                &alloc_baseline_path,
                render_alloc_ceilings(ALLOC_SCALE, &ceilings),
            )
            .unwrap_or_else(|e| panic!("write {alloc_baseline_path}: {e}"));
            println!("  wrote {alloc_baseline_path}");
        } else {
            match std::fs::read_to_string(&alloc_baseline_path)
                .map_err(|e| format!("unreadable ({e}); run `regress --write` on the serial executor to write it"))
                .and_then(|doc| parse_alloc_ceilings(&doc))
            {
                Ok(ceilings) => errors.extend(compare_alloc_points(&ceilings, &measured)),
                Err(e) => errors.push(format!("{alloc_baseline_path}: {e}")),
            }
        }
        gates.push(GateSummary::ran(
            "5: alloc ceilings",
            measured.len(),
            errors,
        ));
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
            errors.extend(snapshot(&path, &fresh_doc, write));
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
