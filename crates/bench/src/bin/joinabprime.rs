//! The `joinABprime` benchmark: every algorithm at three memory ratios,
//! reporting each point's simulated response time (virtual microseconds),
//! peak buffer-pool residency, total ring packets and short-circuit ratio.
//! Every field is a deterministic function of the model, so the JSON is
//! byte-identical across hosts, runs and pool sizes; it is the baseline
//! the `regress` binary replays (Gate 1). The points are dispatched on the
//! default pool (`GAMMA_POOL`), like every other sweep, and gathered in
//! submission order. The JSON schema is documented in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin joinabprime
//! cargo run --release -p gamma-bench --bin joinabprime -- --scale 0.2 --out BENCH.json
//! ```

use gamma_bench::metrics::metrics_join;
use gamma_bench::regress::{render_bench_points, BenchPoint};
use gamma_bench::{pooled_map, Workload};
use gamma_core::query::Algorithm;

const RATIOS: [f64; 3] = [1.0, 0.5, 0.2];

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::SortMerge,
    Algorithm::SimpleHash,
    Algorithm::GraceHash,
    Algorithm::HybridHash,
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut out_path = String::from("BENCH_joinabprime.json");
    if let Some(i) = args.iter().position(|a| a == "--scale") {
        scale = args[i + 1].parse().expect("scale must be a float");
    }
    if let Some(i) = args.iter().position(|a| a == "--out") {
        out_path = args[i + 1].clone();
    }

    let w = Workload::at_scale(scale);
    let cases: Vec<(Algorithm, f64)> = ALGORITHMS
        .into_iter()
        .flat_map(|alg| RATIOS.into_iter().map(move |r| (alg, r)))
        .collect();
    let points = pooled_map("joinabprime point", cases, |(alg, ratio)| {
        BenchPoint::of(&metrics_join(&w, alg, ratio, false, false), ratio)
    });

    for p in &points {
        println!(
            "{:<10} ratio {:>4}: {:>12} virtual-us  {:>8} packets",
            p.algorithm, p.memory_ratio, p.response_virtual_us, p.packets
        );
    }
    std::fs::write(&out_path, render_bench_points(scale, &points)).expect("write bench json");
    println!("\nwrote {out_path}");
}
