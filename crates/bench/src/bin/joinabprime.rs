//! The `joinABprime` benchmark: every algorithm at three memory ratios
//! (see `gamma_bench::joinabprime`). Prints one line per point, then the
//! JSON document — to `--out` when given, else to stdout. At the default
//! scale the document is the committed `BENCH_joinabprime.json`, which
//! `regress` Gate 1 renders afresh and compares byte for byte. Every point
//! must also pass the metrics↔ledger reconciliation.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin joinabprime
//! cargo run --release -p gamma-bench --bin joinabprime -- --scale 0.2 --out /tmp/bench.json
//! ```

use gamma_bench::joinabprime::{sweep, BASELINE_SCALE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().position(|a| a == name).map(|i| &args[i + 1]);
    let scale = flag("--scale").map_or(BASELINE_SCALE, |s| {
        s.parse().expect("scale must be a float")
    });

    let sweep = sweep(scale);
    for p in &sweep.points {
        println!(
            "{:<10} ratio {:>4}: {:>12} virtual-us  {:>8} packets",
            p.algorithm, p.memory_ratio, p.response_virtual_us, p.packets
        );
    }
    assert!(
        sweep.unreconciled.is_empty(),
        "{}",
        sweep.unreconciled.join("\n")
    );
    gamma_bench::emit(flag("--out").map(String::as_str), &sweep.render());
}
