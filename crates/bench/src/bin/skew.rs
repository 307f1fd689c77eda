//! Skew × memory-ratio cliff benchmark.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin skew
//! cargo run --release -p gamma-bench --bin skew -- --a-rows 2000 --bprime-rows 200 --out /tmp/skew.json
//! ```
//!
//! Measures Hybrid under the Figure 7 "optimistic" bucket policy across a
//! skew-level × memory-ratio grid, once with the legacy all-or-nothing
//! overflow machinery and once with the robust path (skew-aware
//! split-table refinement + dynamic spill/restore). The JSON document
//! goes to `--out` when given, else to stdout after the per-series
//! summary. It carries only virtual-time quantities, so two runs of the
//! same configuration are byte-identical at any pool size. With no flags
//! the grid is `SkewSweepConfig::smoke()` and the document is the
//! committed `BENCH_skew.json` that `regress` Gate 4 compares byte for
//! byte.

use gamma_bench::skew::{render_json, skew_sweep, SkewSweepConfig, MODES, SKEW_LEVELS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = SkewSweepConfig::smoke();
    if let Some(i) = args.iter().position(|a| a == "--a-rows") {
        cfg.a_rows = args[i + 1].parse().expect("a-rows must be an integer");
    }
    if let Some(i) = args.iter().position(|a| a == "--bprime-rows") {
        cfg.bprime_rows = args[i + 1].parse().expect("bprime-rows must be an integer");
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args[i + 1].as_str());

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

    gamma_bench::emit(out_path, &render_json(&cfg, &sweep));
}
