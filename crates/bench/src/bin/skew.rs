//! Skew × memory-ratio cliff benchmark.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin skew
//! cargo run --release -p gamma-bench --bin skew -- --a-rows 4000 --bprime-rows 400
//! cargo run --release -p gamma-bench --bin skew -- --out BENCH_skew.json
//! ```
//!
//! Measures Hybrid under the Figure 7 "optimistic" bucket policy across a
//! skew-level × memory-ratio grid, once with the legacy all-or-nothing
//! overflow machinery and once with the robust path (skew-aware
//! split-table refinement + dynamic spill/restore). The output JSON
//! carries only virtual-time quantities, so two runs of the same
//! configuration are byte-identical at any pool size. With no flags the
//! grid is `SkewSweepConfig::smoke()` and the output is
//! `gamma_bench::skew::baseline_doc()`, the committed `BENCH_skew.json`
//! that `regress` Gate 4 compares byte for byte.

use gamma_bench::skew::{render_json, skew_sweep, SkewSweepConfig, BASELINE, MODES, SKEW_LEVELS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = SkewSweepConfig::smoke();
    let mut out_path = String::from(BASELINE);
    if let Some(i) = args.iter().position(|a| a == "--a-rows") {
        cfg.a_rows = args[i + 1].parse().expect("a-rows must be an integer");
    }
    if let Some(i) = args.iter().position(|a| a == "--bprime-rows") {
        cfg.bprime_rows = args[i + 1].parse().expect("bprime-rows must be an integer");
    }
    if let Some(i) = args.iter().position(|a| a == "--out") {
        out_path = args[i + 1].clone();
    }

    println!(
        "skew: hybrid/optimistic, A={} rows, Bprime={} rows, ratios {:?}",
        cfg.a_rows, cfg.bprime_rows, cfg.ratios
    );
    let sweep = skew_sweep(&cfg);
    for skew in SKEW_LEVELS {
        for mode in MODES {
            println!("  {skew}/{mode}:");
            for p in sweep.series(skew, mode) {
                println!(
                    "    ratio {:>4}: {:>12} virtual-us  {} passes  {:>4} spilled  {:>4} restored  {} buckets{}",
                    p.memory_ratio,
                    p.response_virtual_us,
                    p.overflow_passes,
                    p.pages_spilled,
                    p.pages_restored,
                    p.buckets,
                    if p.bnl { "  [bnl]" } else { "" },
                );
            }
        }
    }

    std::fs::write(&out_path, render_json(&cfg, &sweep)).expect("write skew json");
    println!("wrote {out_path}");
}
