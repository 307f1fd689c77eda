//! Virtual-time regression gate over every committed artifact.
//!
//! Renders each row of `gamma_bench::regress::artifacts()` afresh — the
//! `BENCH_*.json` sweeps (Gates 1, 3, 4), the metrics snapshots (Gate 2),
//! the allocation ceilings (Gate 5), the flight-recorder profiles
//! (Gate 6), and the figures, ablations, trace summaries and EXPLAIN
//! report (Gate 7) — and compares it with the committed file: byte for
//! byte, except Gate 5, where each point's serial allocation count must
//! stay at or under its committed ceiling. Gate 5 only runs on the serial
//! executor (`GAMMA_POOL` unset): worker pools allocate their own
//! bookkeeping concurrently. The byte gates run at any pool size, which
//! is how the pool's invisibility is checked: `GAMMA_POOL=1`, `2` and `8`
//! must each reproduce the committed bytes.
//!
//! A difference is reported as `path:line`; a missing file names
//! `regress --write`. Every row runs to completion; the binary ends with
//! a per-row summary table (gate, path, status, first violation) and
//! exits 1 if any row failed.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin regress
//! cargo run --release -p gamma-bench --bin regress -- --write   # re-record what differs
//! ```
//!
//! `--write` writes the fresh render of every row whose gate fails to its
//! path — for a byte gate, any row that differs; for Gate 5, only when a
//! count passed its ceiling or a point is missing, so a count that fell
//! keeps its ceiling (delete `ALLOC_CEILINGS.json` first to tighten them
//! all). A row whose render fails reconciliation is not written. It is
//! the only command that writes a tracked file.

use gamma_bench::alloc::CountingAlloc;
use gamma_bench::regress::{
    artifacts, byte_gate, ceiling_gate, render_gate_table, Check, Rendered, RowSummary,
};
use gamma_core::ExecConfig;

/// Counting allocator for Gate 5 — free when idle, and the other gates'
/// comparisons never read it.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = match args.as_slice() {
        [] => false,
        [flag] if flag == "--write" => true,
        _ => {
            eprintln!("usage: regress [--write]");
            std::process::exit(2);
        }
    };
    let pooled = ExecConfig::auto().pool.is_some();

    let mut rows: Vec<RowSummary> = Vec::new();
    for a in artifacts() {
        let mut summary = RowSummary {
            gate: a.gate,
            path: a.path,
            errors: Vec::new(),
            skipped: None,
            wrote: false,
        };
        let path = summary.path.as_str();
        if a.check == Check::Ceilings && pooled {
            println!("regress: skipping {path} — allocation counts are only deterministic on the serial executor");
            summary.skipped = Some("worker pool active (serial executor only)".into());
            rows.push(summary);
            continue;
        }
        println!("regress: rendering {path}");
        let Rendered { doc, mut errors } = (a.render)();
        let stale = match a.check {
            Check::Bytes => byte_gate(path, &doc),
            Check::Ceilings => ceiling_gate(path, &doc),
        };
        if stale.is_empty() {
            println!("  {path}: holds");
        } else if write && errors.is_empty() {
            std::fs::write(path, &doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("  wrote {path}");
            summary.wrote = true;
        } else if !write {
            errors.extend(stale);
        }
        summary.errors = errors;
        rows.push(summary);
    }

    let violations: usize = rows.iter().map(|r| r.errors.len()).sum();
    if violations > 0 {
        eprintln!("regress: FAIL — {violations} violation(s):");
        for r in rows.iter().filter(|r| !r.errors.is_empty()) {
            eprintln!("  gate {} {}:", r.gate, r.path);
            for e in &r.errors {
                eprintln!("    {e}");
            }
        }
    }
    println!("{}", render_gate_table(&rows));
    if violations == 0 {
        println!("regress: PASS — every row held");
    } else {
        std::process::exit(1);
    }
}
