//! Trace one `joinABprime` execution.
//!
//! Runs a single join with the structured-event recorder installed,
//! prints the text critical-path summary and writes the Chrome
//! trace-event / Perfetto JSON to `results/trace-<alg>-r<pct>.json`
//! (gitignored; load it at <https://ui.perfetto.dev> or
//! `chrome://tracing`). The summaries of three points are committed as
//! `results/trace-*.txt`, rendered by `regress --write`.
//!
//! Usage: `trace [hybrid|grace|simple|sort-merge] [ratio] [scale]`
//!
//! `ratio` is memory / |inner relation| (default 0.5); `scale` is the
//! `A` cardinality (default 20000; `Bprime` is a 10% sample of it).

use gamma_bench::tracing::trace_join;
use gamma_bench::Workload;
use gamma_core::query::Algorithm;

fn main() {
    let mut args = std::env::args().skip(1);
    let alg = match args.next().as_deref() {
        None | Some("hybrid") => Algorithm::HybridHash,
        Some("grace") => Algorithm::GraceHash,
        Some("simple") => Algorithm::SimpleHash,
        Some("sort-merge" | "sortmerge") => Algorithm::SortMerge,
        Some(other) => {
            eprintln!("unknown algorithm `{other}` (want hybrid|grace|simple|sort-merge)");
            std::process::exit(2);
        }
    };
    let ratio: f64 = args
        .next()
        .map(|s| s.parse().expect("ratio must be a number"))
        .unwrap_or(0.5);
    assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
    let scale: usize = args
        .next()
        .map(|s| s.parse().expect("scale must be an integer"))
        .unwrap_or(20_000);

    let workload = Workload::scaled(scale, scale / 10);
    let run = trace_join(&workload, alg, ratio, false);

    std::fs::create_dir_all("results").expect("create results/");
    let json_path = format!(
        "results/trace-{}-r{:02}.json",
        alg.name(),
        (ratio * 100.0) as u32
    );
    std::fs::write(&json_path, run.perfetto_json()).expect("write trace json");

    print!("{}", run.summary());
    println!();
    println!("perfetto json: {json_path}");
}
