//! Regenerate the paper's figures and tables.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin figures -- all
//! cargo run --release -p gamma-bench --bin figures -- fig05 fig07 table3
//! cargo run --release -p gamma-bench --bin figures -- --scale 0.1 fig05
//! ```

use gamma_bench::experiments as ex;
use gamma_bench::{ExperimentPoint, Workload};
use gamma_core::query::Algorithm;

/// Escape a plain string for a JSON literal (names here are ASCII, but
/// stay correct for anything).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// When `--json PATH` is given, every measured point is appended to PATH
/// as one JSON record per line (machine-readable experiment log).
fn dump_json(path: &Option<String>, experiment: &str, pts: &[ExperimentPoint]) {
    let Some(path) = path else { return };
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open --json output file");
    for p in pts {
        writeln!(
            f,
            "{{\"experiment\":{},\"algorithm\":{},\"ratio\":{},\"seconds\":{},\"buckets\":{},\"page_ios\":{},\"packets\":{},\"overflow_passes\":{},\"result_tuples\":{}}}",
            json_str(experiment),
            json_str(&p.algorithm),
            p.ratio,
            p.seconds,
            p.report.buckets,
            p.report.page_ios(),
            p.report.packets(),
            p.report.overflow_passes,
            p.report.result_tuples,
        )
        .expect("write json record");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut json: Option<String> = None;
    let mut plot = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("scale must be a float");
            }
            "--json" => {
                json = Some(it.next().expect("--json needs a path"));
            }
            "--plot" => plot = true,
            _ => wanted.push(a),
        }
    }
    if wanted.is_empty() {
        eprintln!("usage: figures [--scale F] [--json PATH] [--plot] all | smoke | fig05 fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 fig14 fig15 fig16 table3");
        std::process::exit(2);
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |n: &str| all || wanted.iter().any(|w| w == n);

    let w = Workload::at_scale(scale);
    eprintln!(
        "# workload: A={} tuples, Bprime={} tuples (scale {scale})",
        w.a_rows.len(),
        w.bprime_rows.len()
    );

    // CI-only mode: never part of `all` (it re-runs every point twice).
    if wanted.iter().any(|w| w == "smoke") {
        smoke(&w);
    }

    if want("fig05") {
        let pts = ex::fig05(&w);
        ex::print_series("Figure 5: HPJA joins, local", &pts);
        if plot {
            println!("{}", gamma_bench::plot::render(&pts, 64, 18));
        }
        dump_json(&json, "fig05", &pts);
    }
    if want("fig06") {
        let pts = ex::fig06(&w);
        ex::print_series("Figure 6: non-HPJA joins, local", &pts);
        if plot {
            println!("{}", gamma_bench::plot::render(&pts, 64, 18));
        }
        dump_json(&json, "fig06", &pts);
    }
    if want("fig07") {
        let pts = ex::fig07(&w);
        ex::print_series("Figure 7: Hybrid overflow vs extra bucket", &pts);
        if plot {
            println!("{}", gamma_bench::plot::render(&pts, 64, 18));
        }
        dump_json(&json, "fig07", &pts);
    }
    if want("fig08") {
        let pts = ex::fig08(&w);
        ex::print_series("Figure 8: HPJA joins with bit filters", &pts);
        dump_json(&json, "fig08", &pts);
    }
    if want("fig09") {
        let pts = ex::fig09(&w);
        ex::print_series("Figure 9: non-HPJA joins with bit filters", &pts);
        dump_json(&json, "fig09", &pts);
    }
    let f1013 = [
        (
            "fig10",
            Algorithm::HybridHash,
            "Figure 10: Hybrid filter effect",
        ),
        (
            "fig11",
            Algorithm::SimpleHash,
            "Figure 11: Simple filter effect",
        ),
        (
            "fig12",
            Algorithm::GraceHash,
            "Figure 12: Grace filter effect",
        ),
        (
            "fig13",
            Algorithm::SortMerge,
            "Figure 13: Sort-merge filter effect",
        ),
    ];
    for (name, alg, title) in f1013 {
        if want(name) {
            let pts = ex::fig10_13(&w, alg);
            ex::print_series(title, &pts);
            dump_json(&json, name, &pts);
        }
    }
    if want("fig14") {
        let pts = ex::fig14(&w);
        ex::print_series("Figure 14: remote joins, HPJA vs non-HPJA", &pts);
        dump_json(&json, "fig14", &pts);
    }
    if want("fig15") {
        let pts = ex::fig15(&w);
        ex::print_series("Figure 15: local vs remote, HPJA", &pts);
        dump_json(&json, "fig15", &pts);
    }
    if want("fig16") {
        let pts = ex::fig16(&w);
        ex::print_series("Figure 16: local vs remote, non-HPJA", &pts);
        dump_json(&json, "fig16", &pts);
    }
    if want("table3") {
        let t3 = ex::table3(&w);
        ex::print_series("Table 3: non-uniform join attribute values", &t3);
        dump_json(&json, "table3", &t3);
        println!("\n== Table 4: % improvement from bit filters ==");
        for (name, impr) in ex::table4(&t3) {
            println!("{name:<28} {impr:>6.1}%");
        }
    }
}

/// CI smoke: one sweep point per algorithm under both timing models.
/// Every point is oracle-validated (`SweepBuilder` asserts cardinality and
/// checksum) and run twice to catch determinism regressions; any failure
/// panics, failing the job.
fn smoke(w: &Workload) {
    use gamma_bench::SweepBuilder;
    use gamma_des::TimingModel;
    println!("== smoke: one point per algorithm, both timing models ==");
    println!("{:<12} {:>10} {:>10}", "alg", "legacy(s)", "queued(s)");
    for alg in [
        Algorithm::SortMerge,
        Algorithm::SimpleHash,
        Algorithm::GraceHash,
        Algorithm::HybridHash,
    ] {
        let mut secs = [0.0f64; 2];
        for (i, model) in [TimingModel::Legacy, TimingModel::Queued]
            .into_iter()
            .enumerate()
        {
            let run = || SweepBuilder::new(w).timing(model).run_one(alg, 0.5);
            let a = run();
            let b = run();
            assert_eq!(
                a.report.response,
                b.report.response,
                "{} ({model:?}): response not deterministic",
                alg.name()
            );
            assert_eq!(
                a.report.result_checksum,
                b.report.result_checksum,
                "{} ({model:?}): checksum not deterministic",
                alg.name()
            );
            secs[i] = a.seconds;
        }
        assert!(
            secs[1] >= secs[0],
            "{}: queued response below the legacy bound",
            alg.name()
        );
        println!("{:<12} {:>10.3} {:>10.3}", alg.name(), secs[0], secs[1]);
    }
    println!("smoke OK: validated, deterministic, queued >= legacy");
}
