//! The host envelope recorded with every output, and the process's peak
//! resident set.
//!
//! Host-clock numbers only compare between runs on the same kind of host
//! under the same load, so each output says where and when it was taken.

use std::process::Command;

use crate::json;

/// First line of `cmd`'s standard output, or `"unknown"` — the envelope is
/// context, never a reason to fail a run. `output()` waits for the child.
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Value of the first `key: value` line of a `/proc` text file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// Peak resident set of this process so far (`VmHWM`), MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The envelope as one JSON object.
pub fn render(workload: &str, seed: u64, scale: f64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    let here = env!("CARGO_MANIFEST_DIR");
    json::object(&[
        ("workload", json::string(workload)),
        ("seed", seed.to_string()),
        ("scale", json::number(scale)),
        ("traced", traced.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", json::string(&cpu)),
        ("loadavg", json::string(&loadavg)),
        (
            "rustc",
            json::string(&first_line_of("rustc", &["--version"])),
        ),
        (
            "git_commit",
            json::string(&first_line_of(
                "git",
                &["-C", here, "rev-parse", "--short", "HEAD"],
            )),
        ),
        // gamma-bench default features, unified into every layer by Cargo.
        ("features", json::string("trace,metrics")),
        (
            "executor",
            json::string("serial (pool2: serial + pooled(2))"),
        ),
    ])
}
