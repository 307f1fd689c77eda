//! Regenerate the paper's figures and tables (see
//! `gamma_bench::experiments`).
//!
//! ```text
//! cargo run --release -p gamma-bench --bin figures -- all
//! cargo run --release -p gamma-bench --bin figures -- fig05 fig07 table3
//! cargo run --release -p gamma-bench --bin figures -- --scale 0.1 fig05
//! ```

use gamma_bench::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
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
            _ => wanted.push(a),
        }
    }
    if wanted.is_empty() {
        eprintln!("usage: figures [--scale F] all | fig05 fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 fig14 fig15 fig16 table3");
        std::process::exit(2);
    }
    let all = wanted.iter().any(|w| w == "all");

    let w = Workload::at_scale(scale);
    eprintln!(
        "# workload: A={} tuples, Bprime={} tuples (scale {scale})",
        w.a_rows.len(),
        w.bprime_rows.len()
    );
    print!(
        "{}",
        gamma_bench::experiments::render(&w, |n| all || wanted.iter().any(|w| w == n))
    );
}
