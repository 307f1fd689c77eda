//! Concurrent-serving benchmark: sweep an open-loop arrival rate over
//! the non-HPJA hybrid baseline and locate the saturation knee.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin serve
//! cargo run --release -p gamma-bench --bin serve -- --a-rows 2000 --queries 12 --out /tmp/serve.json
//! cargo run --release -p gamma-bench --bin serve -- --explain --a-rows 2000 --queries 8
//! ```
//!
//! The JSON document goes to `--out` when given, else to stdout after the
//! per-point summary. It carries only virtual-time quantities (no
//! wall-clock), so two runs of the same configuration are byte-identical.
//! With no flags the sweep is `ServeSweepConfig::smoke()` and the document
//! is the committed `BENCH_serve.json` that `regress` Gate 3 compares byte
//! for byte. Each rate point also passes the concurrent ledger↔metrics
//! reconciliation before its numbers are reported.
//!
//! `--explain [--load-fraction F]` serves a single rate point (default:
//! the analytical knee, 1.0×) and emits its per-query EXPLAIN report
//! (`gamma_bench::serve::explain_doc`) the same way. At `--a-rows 2000
//! --queries 8` it is the committed `results/explain-serve.txt` (Gate 7).

use gamma_bench::serve::{
    calibrate_backlog_window, explain_doc, render_json, serve_sweep, ServeSweepConfig,
    DEFAULT_BACKLOG_WINDOW_US,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServeSweepConfig::smoke();
    if let Some(i) = args.iter().position(|a| a == "--a-rows") {
        cfg.a_rows = args[i + 1].parse().expect("a-rows must be an integer");
    }
    if let Some(i) = args.iter().position(|a| a == "--queries") {
        cfg.queries = args[i + 1].parse().expect("queries must be an integer");
    }
    if let Some(i) = args.iter().position(|a| a == "--budget-multiplier") {
        cfg.budget_multiplier = args[i + 1]
            .parse()
            .expect("budget-multiplier must be an integer");
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args[i + 1].as_str());

    // `--explain` serves one rate point and renders the per-query EXPLAIN
    // decomposition instead of sweeping.
    if args.iter().any(|a| a == "--explain") {
        let load_fraction: f64 = args
            .iter()
            .position(|a| a == "--load-fraction")
            .map(|i| args[i + 1].parse().expect("load-fraction must be a number"))
            .unwrap_or(1.0);
        gamma_bench::emit(out_path, &explain_doc(&cfg, load_fraction));
        return;
    }

    // `--calibrate-backlog` prints the window calibration grid behind
    // `DEFAULT_BACKLOG_WINDOW_US` (see EXPERIMENTS.md) and writes nothing.
    if args.iter().any(|a| a == "--calibrate-backlog") {
        println!(
            "backlog-window calibration: A={} rows, {} queries/cell (default: {} us)",
            cfg.a_rows, cfg.queries, DEFAULT_BACKLOG_WINDOW_US
        );
        for p in calibrate_backlog_window(&cfg) {
            println!(
                "  window {:>10}: load {:>4.2}x  done {:>7.4} q/s  p50 {:>10} us  p99 {:>10} us  mean {:>12.1} us",
                p.window_us
                    .map(|w| format!("{w} us"))
                    .unwrap_or_else(|| "async".into()),
                p.load_fraction,
                p.throughput_qps,
                p.response_p50_us,
                p.response_p99_us,
                p.mean_response_us,
            );
        }
        return;
    }

    let sweep = serve_sweep(&cfg);
    println!(
        "serve: non-HPJA hybrid, A={} rows, {} queries/point, budget {} pages ({}x peak {})",
        cfg.a_rows, cfg.queries, sweep.budget_pages, cfg.budget_multiplier, sweep.peak_pages
    );
    println!(
        "solo response {:>10} us   analytical bound {:.4} q/s",
        sweep.solo_response_us, sweep.bound_qps
    );
    for p in &sweep.points {
        println!(
            "  load {:>4.2}x: offered {:>7.4} q/s  done {:>7.4} q/s  p50 {:>10} us  p99 {:>10} us  util {:>5.3}",
            p.load_fraction,
            p.offered_qps,
            p.throughput_qps,
            p.response_p50_us,
            p.response_p99_us,
            p.peak_utilisation,
        );
    }
    println!(
        "knee {:.4} q/s = {:.1}% of the analytical bound",
        sweep.knee_qps,
        100.0 * sweep.knee_qps / sweep.bound_qps
    );

    gamma_bench::emit(out_path, &render_json(&cfg, &sweep));
}
