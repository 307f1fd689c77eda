//! Ablation studies over the design choices the paper calls out (see
//! `gamma_bench::ablations`).
//!
//! ```text
//! cargo run --release -p gamma-bench --bin ablations -- all
//! cargo run --release -p gamma-bench --bin ablations -- filter_size clearing speedup multiuser headroom
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: ablations all | filter_size clearing speedup multiuser headroom bucket_filter tuning convoy");
        std::process::exit(2);
    }
    let all = args.iter().any(|a| a == "all");
    print!(
        "{}",
        gamma_bench::ablations::render(|n| all || args.iter().any(|a| a == n))
    );
}
