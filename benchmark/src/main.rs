//! `gamma-benchmark` — the repository's two-clock benchmark.
//!
//! ```text
//! gamma-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--passes N] [--quick]
//! gamma-benchmark run <name> [...]      # = --workload <name> --trace 0
//! gamma-benchmark trace <name> [...]    # = --workload <name> --trace 1
//! gamma-benchmark manifest              # prints BENCHMARK.json
//! gamma-benchmark layers                # prints the layer -> metric table
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with spans off; `--trace 1`
//! is the separate traced run that produces every per-layer metric and
//! writes `benchmark/out/trace-<name>.json`. Either prints its metrics by
//! name and unit, then one JSON object as the last line of standard
//! output. README.md beside this package has the method and the glossary.

mod accuracy;
mod alloc;
mod calibrate;
mod envelope;
mod json;
mod kernels;
mod manifest;
mod serve;
mod span;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use alloc::{AllocCount, CountingAlloc};
use calibrate::Calibrator;
use span::Tracer;
use workloads::{Kind, PassOut, Setup};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Default seed: the one every committed artifact of the repository uses.
const DEFAULT_SEED: u64 = 1989;
/// Set-up repeats per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// `bench.host_drift` above this marks a measurement noisy.
const DRIFT_LIMIT: f64 = 0.10;
/// `--quick`: relation scale and passes.
const QUICK_SCALE: f64 = 0.05;
const QUICK_PASSES: u32 = 2;

/// How long to measure: the contract's wall-clock budget, or an exact pass
/// count for smoke runs and A/A comparisons of the deterministic metrics.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Passes(u32),
}

impl Budget {
    /// The two halves the noise guard measures separately.
    fn halves(self) -> (Budget, Budget) {
        match self {
            Budget::Seconds(s) => (Budget::Seconds(s / 2.0), Budget::Seconds(s / 2.0)),
            Budget::Passes(n) => (Budget::Passes(n.div_ceil(2)), Budget::Passes(n / 2)),
        }
    }
}

/// Parsed command line of a measuring run.
pub struct Args {
    pub workload: String,
    pub kind: Kind,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub scale: f64,
}

enum Command {
    Manifest,
    Layers,
    Measure(Args),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = f64::from(manifest::RUN_SECONDS);
    let mut passes = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "manifest" => return Ok(Command::Manifest),
            "layers" => return Ok(Command::Layers),
            "run" | "trace" => {
                trace = arg == "trace";
                workload = Some(value("a workload name")?.to_owned());
            }
            "--workload" => workload = Some(value("a workload name")?.to_owned()),
            "--seed" => {
                seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--passes" => {
                passes = Some(
                    value("an integer")?
                        .parse::<u32>()
                        .map_err(|e| format!("--passes: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("no workload given (--workload <name>)")?;
    let kind = Kind::parse(&workload).ok_or_else(|| {
        let names: Vec<&str> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {workload}; one of {}", names.join(", "))
    })?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 170.0) {
        return Err(format!("--seconds must be in (0, 170], not {seconds}"));
    }
    if passes == Some(0) {
        return Err("--passes must be at least 1".into());
    }
    let budget = match (passes, quick) {
        (Some(n), _) => Budget::Passes(n),
        (None, true) => Budget::Passes(QUICK_PASSES),
        (None, false) => Budget::Seconds(seconds),
    };
    Ok(Command::Measure(Args {
        workload,
        kind,
        seed,
        budget,
        trace,
        scale: if quick { QUICK_SCALE } else { 1.0 },
    }))
}

/// Set up [`SETUP_REPEATS`] times, keeping the last; returns each repeat's
/// calibrated host seconds. Each set-up is dropped before the next is built
/// so the peak resident set holds one.
pub fn setup_repeatedly(args: &Args, tr: &mut Tracer, cal: &mut Calibrator) -> (Setup, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    cal.sample();
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let (built, ns, ref_ns) =
            cal.time(|| workloads::build(args.kind, args.seed, args.scale, tr));
        setup = Some(built);
        times.push(ns as f64 * calibrate::factor(ref_ns) / 1e9);
    }
    (setup.expect("SETUP_REPEATS > 0"), times)
}

/// One timed iteration. Times are calibrated host ns (see
/// [`calibrate`]) unless named raw.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The pass that counts (`pool2`: the pooled pass).
    pub ns: u64,
    /// The same pass, uncalibrated.
    pub raw_ns: u64,
    /// `pool2`: the serial pass run just before it.
    pub serial_ns: Option<u64>,
    /// Allocations of the serial pass (exact under the serial executor).
    pub alloc: AllocCount,
}

fn calibrated(ns: u64, ref_ns: u64) -> u64 {
    (ns as f64 * calibrate::factor(ref_ns)).round() as u64
}

/// Run one iteration: a serial pass, and on `pool2` the same grid on the
/// pool straight after, so host drift hits both alike and their reports
/// can be compared.
pub fn iteration(
    setup: &mut Setup,
    tr: &mut Tracer,
    cal: &mut Calibrator,
    pass_id: u32,
) -> (Sample, PassOut) {
    tr.set_pass(pass_id);
    let ((mut out, alloc), raw_ns, ref_ns) = cal.time(|| {
        let alloc0 = AllocCount::now();
        let out = tr.span("bench.pass", |tr| workloads::pass(setup, tr));
        (out, AllocCount::since(alloc0))
    });
    let serial_ns = calibrated(raw_ns, ref_ns);
    if setup.kind != Kind::Pool2 {
        return (
            Sample {
                ns: serial_ns,
                raw_ns,
                serial_ns: None,
                alloc,
            },
            out,
        );
    }
    let (pooled, raw_ns, ref_ns) =
        cal.time(|| tr.span("bench.pass", |tr| workloads::pooled_pass(setup, tr)));
    if !pooled.same_work(&out) {
        out.failed += 1;
        eprintln!("FAILED pool2: pooled pass differs from the serial pass");
    }
    out.attempted += pooled.attempted;
    out.failed += pooled.failed;
    (
        Sample {
            ns: calibrated(raw_ns, ref_ns),
            raw_ns,
            serial_ns: Some(serial_ns),
            alloc,
        },
        out,
    )
}

/// Most warm-up passes a run discards.
const MAX_WARMUP_PASSES: u32 = 4;

/// Warm up: discard passes until one allocates exactly what the pass
/// before it did — buffers, free lists and arenas have reached their
/// steady sizes — or [`MAX_WARMUP_PASSES`] have run (`pool2`'s counts never
/// settle exactly). Returns `(passes discarded, attempted, failed)`.
pub fn warm_up(setup: &mut Setup, cal: &mut Calibrator) -> (u32, u64, u64) {
    let mut off = Tracer::new(false);
    let (mut attempted, mut failed) = (0, 0);
    let mut previous = None;
    for pass in 1..=MAX_WARMUP_PASSES {
        let (sample, out) = iteration(setup, &mut off, cal, 0);
        attempted += out.attempted;
        failed += out.failed;
        if previous == Some(sample.alloc) {
            return (pass, attempted, failed);
        }
        previous = Some(sample.alloc);
    }
    (MAX_WARMUP_PASSES, attempted, failed)
}

/// Everything a measurement produced.
#[derive(Default)]
pub struct Measured {
    pub samples: Vec<Sample>,
    /// The first pass's output; every later pass must equal it.
    pub first: Option<PassOut>,
    pub attempted: u64,
    pub failed: u64,
    /// Drift of the first half exceeded [`DRIFT_LIMIT`]; it was discarded
    /// and the second half stands alone.
    pub retried: bool,
}

impl Measured {
    pub fn times(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.ns).collect()
    }

    /// Run `iterate` until `budget` is spent, checking that every pass
    /// repeats the first exactly (serial executor ⇒ counts, simulated
    /// times and allocations are all deterministic).
    pub fn extend(&mut self, budget: Budget, mut iterate: impl FnMut(u32) -> (Sample, PassOut)) {
        let start = Instant::now();
        let mut done = 0u32;
        let spent = |done: u32| match budget {
            Budget::Seconds(s) => start.elapsed() >= Duration::from_secs_f64(s),
            Budget::Passes(n) => done >= n,
        };
        while !spent(done) {
            let (sample, out) = iterate(self.samples.len() as u32);
            self.attempted += out.attempted;
            self.failed += out.failed;
            match &self.first {
                None => self.first = Some(out),
                Some(first) => {
                    // `pool2` alternates pooled passes, whose workers contend
                    // for the exchange's `try_lock`ed buffer free list: what
                    // a pooled pass leaves there varies, so the next serial
                    // pass's allocations wobble by a few events.
                    let same_alloc =
                        sample.serial_ns.is_some() || self.samples[0].alloc == sample.alloc;
                    if !first.same_work(&out) || !same_alloc {
                        self.failed += 1;
                        eprintln!(
                            "FAILED: pass {} does not repeat pass 0:\n{:?} {out:?}\n{:?} {first:?}",
                            self.samples.len(),
                            sample.alloc,
                            self.samples[0].alloc
                        );
                    }
                }
            }
            self.samples.push(sample);
            done += 1;
        }
    }
}

/// Measure within `budget` under the noise guard: the first half of the
/// budget is measured and its drift checked; a drifting half is discarded
/// (one retry) and the second half stands alone, otherwise both count.
/// The budget is never exceeded, so a noisy host cannot stretch a run.
pub fn measure(budget: Budget, mut iterate: impl FnMut(u32) -> (Sample, PassOut)) -> Measured {
    let (first_half, second_half) = budget.halves();
    let mut m = Measured::default();
    m.extend(first_half, &mut iterate);
    if stats::drift(&m.times()) > DRIFT_LIMIT {
        let (attempted, failed) = (m.attempted, m.failed);
        m = Measured {
            attempted,
            failed,
            retried: true,
            ..Measured::default()
        };
    }
    m.extend(second_half, &mut iterate);
    m
}

/// Print each join of the grid with its simulated response (`paper-grid`
/// at the default seed prints `joinabprime`'s twelve values).
pub fn print_grid(setup: &Setup, first: &PassOut) {
    for (point, (us, checksum)) in setup.points.iter().zip(&first.ledger.results) {
        println!(
            "join {:<34} response_virtual_us {us:>10}  checksum {checksum:016x}",
            point.label
        );
    }
}

/// A metric value with its unit, ready to print.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    /// `"name": {"value": v, "unit": "u"}`.
    pub fn json(&self) -> String {
        format!(
            "{}: {}",
            json::string(self.name),
            json::object(&[
                ("value", json::number(self.value)),
                ("unit", json::string(self.unit))
            ])
        )
    }
}

/// Print the metrics by name and unit, then the result object as the last
/// line.
pub fn emit(metrics: &[Metric], attempted: u64, failed: u64) {
    for m in metrics {
        println!("{:<36} {:>18} {}", m.name, json::number(m.value), m.unit);
    }
    let body: Vec<String> = metrics.iter().map(Metric::json).collect();
    println!(
        "{}",
        json::object(&[
            ("correct", (failed == 0).to_string()),
            ("attempted", attempted.max(1).to_string()),
            ("failed", failed.to_string()),
            ("metrics", format!("{{{}}}", body.join(", "))),
        ])
    );
}

/// The end-to-end run: spans off.
fn end_to_end(args: &Args) {
    let mut off = Tracer::new(false);
    let mut cal = Calibrator::new();
    let (mut setup, setup_times) = setup_repeatedly(args, &mut off, &mut cal);
    let (warm_passes, warm_attempted, warm_failed) = warm_up(&mut setup, &mut cal);
    let m = measure(args.budget, |id| {
        iteration(&mut setup, &mut off, &mut cal, id)
    });
    let (attempted, failed) = (warm_attempted + m.attempted, warm_failed + m.failed);

    let times = m.times();
    let p50_s = stats::median(&times) as f64 / 1e9;
    let first = m.first.as_ref().expect("at least one pass");
    print_grid(&setup, first);
    // Equal in every sample but on `pool2` (see `Measured::extend`).
    let alloc_events: Vec<u64> = m.samples.iter().map(|s| s.alloc.events).collect();
    let alloc_bytes: Vec<u64> = m.samples.iter().map(|s| s.alloc.bytes).collect();
    let drift = stats::drift(&times);
    println!(
        "passes {} ({warm_passes} warm-up discarded){}; highest percentile with >= {} samples beyond it: {}",
        times.len(),
        if m.retried { ", first half discarded as noisy" } else { "" },
        stats::TAIL_SAMPLES,
        match stats::supported_tail(times.len()) {
            Some((num, den)) => format!(
                "p{} = {} s",
                100.0 * num as f64 / den as f64,
                stats::percentile(&times, num, den) as f64 / 1e9
            ),
            None => "none".into(),
        }
    );
    let raw: Vec<u64> = m.samples.iter().map(|s| s.raw_ns).collect();
    println!(
        "host drift {drift:.4}{}; calibration factor {:.4} (raw p50 {} s); setup repeats {setup_times:?}",
        if drift > DRIFT_LIMIT { " NOISY" } else { "" },
        cal.factor(),
        stats::median(&raw) as f64 / 1e9,
    );

    let value = |name: &str| match name {
        "setup_s" => stats::median_f64(&setup_times),
        "host_iter_p50_s" => p50_s,
        "host_ktuples_per_s" => (first.ledger.joins * setup.tuples_per_join()) as f64 / 1e3 / p50_s,
        "host_peak_rss_mb" => envelope::peak_rss_mib(),
        "host_allocs_per_iter" => stats::median(&alloc_events) as f64,
        "host_alloc_mb_per_iter" => stats::median(&alloc_bytes) as f64 / (1024.0 * 1024.0),
        "virt_response_s" => first.ledger.virt_us() as f64 / 1e6,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let metrics: Vec<Metric> = manifest::END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: value(m.name),
        })
        .collect();
    emit(&metrics, attempted, failed);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Command::Manifest) => {
            print!("{}", manifest::render());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Layers) => {
            print!("{}", manifest::render_layers());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Measure(args)) => args,
        Err(e) => {
            eprintln!("gamma-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let envelope = envelope::render(&args.workload, args.seed, args.scale, args.trace);
    println!("envelope {envelope}");
    // A wrong result is counted and reported in the result object; a panic
    // inside the simulator ends the run with a non-zero exit and no result.
    if args.trace {
        traced::run(&args, &envelope);
    } else {
        end_to_end(&args);
    }
    ExitCode::SUCCESS
}
