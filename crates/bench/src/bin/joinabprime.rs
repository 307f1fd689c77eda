//! The `joinABprime` benchmark: every algorithm at three memory ratios,
//! reporting both the simulated response time (virtual microseconds) and
//! the harness wall-clock. When a worker pool is active (`GAMMA_POOL=N`
//! in the environment, or forced with `--pool N`) it runs each point
//! twice — serial executor, then pooled — asserts the virtual-time
//! results and metrics snapshots are identical, and reports the
//! wall-clock speedup. Independent points are dispatched on the same
//! pool; rows are gathered in submission order so the output never
//! depends on scheduling.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin joinabprime
//! GAMMA_POOL=2 cargo run --release -p gamma-bench --bin joinabprime
//! cargo run --release -p gamma-bench --bin joinabprime -- --pool 4 --scale 0.2
//! cargo run --release -p gamma-bench --bin joinabprime -- --no-wall --out BENCH.json
//! ```
//!
//! `--no-wall` nulls every wall-clock field and drops the executor
//! envelope so the JSON is byte-identical across hosts and pool sizes —
//! that is what CI byte-diffs. Each point also records its peak
//! buffer-pool residency, total ring packets, and short-circuit ratio —
//! deterministic counters the `regress` binary gates exactly. The JSON
//! schema is documented in `EXPERIMENTS.md`.

use std::sync::Arc;
use std::time::Instant;

use gamma_bench::alloc::{count_allocs, CountingAlloc};
use gamma_bench::metrics::{metrics_join_with, MetricsRun};
use gamma_bench::{pooled_map_on, Workload};
use gamma_core::query::Algorithm;
use gamma_core::{ExecConfig, WorkerPool};

/// Counting allocator so each point can report a deterministic `allocs`
/// column (serial runs only — pool bookkeeping would pollute the delta).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const RATIOS: [f64; 3] = [1.0, 0.5, 0.2];

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::SortMerge,
    Algorithm::SimpleHash,
    Algorithm::GraceHash,
    Algorithm::HybridHash,
];

struct Row {
    algorithm: String,
    ratio: f64,
    virtual_us: u64,
    wall_ms: f64,
    serial_wall_ms: Option<f64>,
    speedup: Option<f64>,
    peak_pool_pages: u64,
    packets: u64,
    short_circuit_ratio: f64,
    /// Heap allocations during the serial run; `None` when a pool is
    /// active (concurrent points would pollute the global counter).
    allocs: Option<u64>,
}

fn measure(w: &Workload, alg: Algorithm, ratio: f64, exec: ExecConfig) -> (MetricsRun, f64) {
    let t = Instant::now();
    let run = metrics_join_with(w, alg, ratio, false, false, exec);
    (run, t.elapsed().as_secs_f64() * 1e3)
}

/// One benchmark point: serial reference, then — when a pool is active —
/// the pooled run plus the byte-identity asserts.
fn run_point(w: &Workload, pool: Option<&Arc<WorkerPool>>, alg: Algorithm, ratio: f64) -> Row {
    let ((sp, serial_ms), serial_allocs) =
        count_allocs(|| measure(w, alg, ratio, ExecConfig::serial()));
    let allocs = pool.is_none().then_some(serial_allocs);

    let (p, wall_ms, serial_wall_ms, speedup) = match pool {
        Some(pool) => {
            let (pp, par_ms) = measure(w, alg, ratio, ExecConfig::pooled(Arc::clone(pool)));
            assert_eq!(
                sp.report.response,
                pp.report.response,
                "{} at {ratio}: pooled executor changed the simulated response",
                alg.name()
            );
            assert_eq!(
                sp.report.result_checksum,
                pp.report.result_checksum,
                "{} at {ratio}: pooled executor changed the result",
                alg.name()
            );
            assert_eq!(
                sp.json(),
                pp.json(),
                "{} at {ratio}: pooled executor changed the metrics snapshot",
                alg.name()
            );
            (pp, par_ms, Some(serial_ms), Some(serial_ms / par_ms))
        }
        None => (sp, serial_ms, None, None),
    };

    let packets = p.report.packets();
    let sc = p.report.shortcircuits();
    let short_circuit_ratio = if sc + packets > 0 {
        sc as f64 / (sc + packets) as f64
    } else {
        0.0
    };
    let peak_pool_pages = p.registry.gauge_peak("pool_peak_pages").unwrap_or(0);
    Row {
        algorithm: p.report.algorithm.clone(),
        ratio,
        virtual_us: p.report.response.as_us(),
        wall_ms,
        serial_wall_ms,
        speedup,
        peak_pool_pages,
        packets,
        short_circuit_ratio,
        allocs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut out_path = String::from("BENCH_joinabprime.json");
    let no_wall = args.iter().any(|a| a == "--no-wall");
    if let Some(i) = args.iter().position(|a| a == "--scale") {
        scale = args[i + 1].parse().expect("scale must be a float");
    }
    if let Some(i) = args.iter().position(|a| a == "--out") {
        out_path = args[i + 1].clone();
    }
    // `--pool N` builds an explicit pool of that size; otherwise
    // `GAMMA_POOL` opts into the shared process-wide pool.
    let pool: Option<Arc<WorkerPool>> = match args.iter().position(|a| a == "--pool") {
        Some(i) => {
            let n: usize = args[i + 1].parse().expect("pool size must be an integer");
            Some(Arc::new(WorkerPool::new(n)))
        }
        None => gamma_core::exec::pool::default_pool().cloned(),
    };

    let w = Workload::scaled(
        (100_000f64 * scale).round() as usize,
        (10_000f64 * scale).round() as usize,
    );

    let cases: Vec<(Algorithm, f64)> = ALGORITHMS
        .into_iter()
        .flat_map(|alg| RATIOS.into_iter().map(move |r| (alg, r)))
        .collect();
    // The same pool that parallelises each point's steps also dispatches
    // the independent points; rows come back in submission order.
    let rows = pooled_map_on(
        pool.as_deref(),
        "joinabprime point",
        cases,
        |(alg, ratio)| run_point(&w, pool.as_ref(), alg, ratio),
    );

    for r in &rows {
        println!(
            "{:<10} ratio {:>4}: {:>12} virtual-us   {:>8.1} ms wall{}{}",
            r.algorithm,
            r.ratio,
            r.virtual_us,
            r.wall_ms,
            match r.allocs {
                Some(a) => format!("   {a:>10} allocs"),
                None => String::new(),
            },
            match r.speedup {
                Some(s) => format!("   ({s:.2}x vs serial)"),
                None => String::new(),
            }
        );
    }

    // Hand-rolled JSON (no serde in the offline image).
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"benchmark\": \"joinABprime\",\n  \"scale\": {scale},\n"
    ));
    if !no_wall {
        // The executor envelope is host- and pool-dependent; `--no-wall`
        // drops it so CI can byte-diff pooled output against serial.
        let threads = pool.as_ref().map_or(1, |p| p.size());
        json.push_str(&format!(
            "  \"executor\": \"{}\",\n  \"threads\": {threads},\n",
            match &pool {
                Some(p) => format!("pooled({})", p.size()),
                None => "serial".into(),
            }
        ));
    }
    json.push_str("  \"points\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "null".into(),
        };
        let opt_u = |v: Option<u64>| match v {
            Some(x) => format!("{x}"),
            None => "null".into(),
        };
        let wall = if no_wall {
            ("null".to_string(), "null".to_string(), "null".to_string())
        } else {
            (
                format!("{:.3}", r.wall_ms),
                opt(r.serial_wall_ms),
                opt(r.speedup),
            )
        };
        // Allocation counts are deterministic but executor-dependent
        // (pool bookkeeping), so `--no-wall` nulls them like wall-clock:
        // the CI serial-vs-pooled byte-diffs must keep passing.
        let allocs = if no_wall {
            "null".to_string()
        } else {
            opt_u(r.allocs)
        };
        json.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"memory_ratio\": {}, \"response_virtual_us\": {}, \"wall_ms\": {}, \"serial_wall_ms\": {}, \"speedup\": {}, \"peak_pool_pages\": {}, \"packets\": {}, \"short_circuit_ratio\": {:.6}, \"allocs\": {}}}{}\n",
            r.algorithm,
            r.ratio,
            r.virtual_us,
            wall.0,
            wall.1,
            wall.2,
            r.peak_pool_pages,
            r.packets,
            r.short_circuit_ratio,
            allocs,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write bench json");
    println!("\nwrote {out_path}");

    if let Some(p) = &pool {
        let best = rows.iter().filter_map(|r| r.speedup).fold(0.0f64, f64::max);
        println!(
            "best wall-clock speedup: {best:.2}x on {} pool lanes",
            p.size()
        );
    }
}
