//! Concurrent-serving benchmark: sweep an open-loop arrival rate over
//! the non-HPJA hybrid baseline and locate the saturation knee.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin serve
//! cargo run --release -p gamma-bench --bin serve -- --a-rows 4000 --queries 24
//! cargo run --release -p gamma-bench --bin serve -- --out BENCH_serve.json
//! ```
//!
//! The output JSON carries only virtual-time quantities (no wall-clock),
//! so two runs of the same configuration are byte-identical — CI compares
//! them with `cmp`, and the `regress` binary replays the committed
//! `BENCH_serve.json` under drift/counter gates. Each rate point also
//! passes the concurrent ledger↔metrics reconciliation before its
//! numbers are reported.
//!
//! `--explain [--load-fraction F] [--out PATH]` serves a single rate
//! point (default: the analytical knee, 1.0×) and prints the per-query
//! EXPLAIN report — admission wait plus per-phase scheduling, cpu, disk,
//! net and queue-wait components, each reconciling exactly to the
//! query's response. The text is deterministic, so CI `cmp`s it across
//! runs and executors.

use gamma_bench::serve::{
    calibrate_backlog_window, profile, render_json, serve_point, serve_sweep, ServeSweepConfig,
    DEFAULT_BACKLOG_WINDOW_US,
};
use gamma_bench::Workload;
use gamma_des::SimTime;
use gamma_sched::{explain, ServeConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServeSweepConfig::smoke();
    let mut out_path = String::from("BENCH_serve.json");
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
    if let Some(i) = args.iter().position(|a| a == "--out") {
        out_path = args[i + 1].clone();
    }

    // `--explain` serves one rate point and renders the per-query EXPLAIN
    // decomposition instead of sweeping.
    if args.iter().any(|a| a == "--explain") {
        let load_fraction: f64 = args
            .iter()
            .position(|a| a == "--load-fraction")
            .map(|i| args[i + 1].parse().expect("load-fraction must be a number"))
            .unwrap_or(1.0);
        assert!(load_fraction > 0.0, "load-fraction must be positive");
        let workload = Workload::scaled(cfg.a_rows, cfg.a_rows / 10);
        let (plan, report) = profile(&workload);
        let budget_pages = plan.max_peak_pages() * cfg.budget_multiplier.max(1);
        let bound_qps = 1.0 / report.demand.bottleneck();
        let mean_interarrival_us = (1e6 / (bound_qps * load_fraction)).round().max(1.0) as u64;
        let result = serve_point(
            &workload,
            &ServeConfig {
                name: "serve".into(),
                case: 0,
                mean_interarrival: SimTime::from_us(mean_interarrival_us),
                queries: cfg.queries,
                pool_budget_pages: budget_pages,
                backlog_window: cfg.backlog_window,
            },
        );
        let text = explain::render(&result.outcome, result.solo.response);
        print!("{text}");
        if let Some(i) = args.iter().position(|a| a == "--out") {
            let path = &args[i + 1];
            std::fs::write(path, &text).expect("write explain report");
            println!("wrote {path}");
        }
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

    std::fs::write(&out_path, render_json(&cfg, &sweep)).expect("write serve json");
    println!("wrote {out_path}");
}
