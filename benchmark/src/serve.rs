//! The `serve` workload's virtual-clock sweep: response under load, and
//! the highest offered rate the machine sustains.
//!
//! Un-timed and traced-run only. Six fixed offered loads (shares of the
//! analytical bound `1/D_max`) × five Poisson arrival streams × 2000
//! cloned plans through `gamma_sched::engine::run`. 2000 queries leave 20
//! samples beyond p99, which is why p99 is the reported tail and p99.9 is
//! not; every figure is the median across the five streams, and the
//! spread between them is reported beside it.

use gamma_des::SimTime;
use gamma_sched::{engine, Arrivals, EngineConfig, QueryPlan, ServeOutcome};

use crate::stats::{median, median_f64, percentile};
use crate::workloads::{arrival_case, interarrival, ENGINE_QUERIES, SERVE_LOAD};

/// Offered loads swept, as shares of `1/D_max`.
pub const SWEEP_LOADS: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
/// Arrival streams per load.
pub const ARRIVAL_SEEDS: u64 = 5;
/// A rate is sustained while p99 stays within this multiple of the solo
/// response …
pub const P99_LIMIT_X_SOLO: u64 = 10;
/// … and the last tenth of the stream responds within this multiple of
/// the run's median (a growing backlog makes late queries ever slower).
pub const BACKLOG_LIMIT_X_MEDIAN: f64 = 2.0;

/// Response statistics of one engine run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    pub p50_us: u64,
    pub p99_us: u64,
    /// Mean response of the last tenth of arrivals ÷ the run's median.
    pub backlog_ratio: f64,
}

impl RunStats {
    /// From per-query responses (µs) in arrival order.
    pub fn from_responses(in_arrival_order: &[u64]) -> RunStats {
        let p50_us = median(in_arrival_order);
        let tail =
            &in_arrival_order[in_arrival_order.len() - in_arrival_order.len().div_ceil(10)..];
        let tail_mean = tail.iter().sum::<u64>() as f64 / tail.len().max(1) as f64;
        RunStats {
            p50_us,
            p99_us: percentile(in_arrival_order, 99, 100),
            backlog_ratio: if p50_us == 0 {
                0.0
            } else {
                tail_mean / p50_us as f64
            },
        }
    }
}

/// One offered load, summarised across its arrival streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    pub load: f64,
    pub offered_qps: f64,
    /// Across-stream medians.
    pub p50_us: u64,
    pub p99_us: u64,
    pub backlog_ratio: f64,
    pub throughput_qps: f64,
    pub peak_utilisation: f64,
    /// `(max − min) ÷ median` of p99 across the streams.
    pub p99_seed_spread: f64,
    /// Mean per-query waits, µs (across-stream medians).
    pub admission_wait_us: f64,
    pub dispatch_wait_us: f64,
    pub queue_wait_us: f64,
}

/// The highest offered rate whose p99 stays within
/// [`P99_LIMIT_X_SOLO`] × solo and whose backlog does not grow; 0 when no
/// swept rate qualifies.
pub fn max_sustained_qps(points: &[LoadPoint], solo_us: u64) -> f64 {
    points
        .iter()
        .filter(|p| {
            p.p99_us <= P99_LIMIT_X_SOLO * solo_us && p.backlog_ratio <= BACKLOG_LIMIT_X_MEDIAN
        })
        .map(|p| p.offered_qps)
        .fold(0.0, f64::max)
}

/// What the sweep reports.
pub struct Sweep {
    pub points: Vec<LoadPoint>,
    pub max_qps: f64,
    /// Best across-stream median throughput ÷ `1/D_max`.
    pub knee_vs_bound: f64,
    /// Engine queries that never finished (counted as failures).
    pub unfinished: u64,
    pub queries: u64,
}

impl Sweep {
    /// The point at the serve workload's own offered load.
    pub fn at_serve_load(&self) -> &LoadPoint {
        self.points
            .iter()
            .find(|p| p.load == SERVE_LOAD)
            .expect("SERVE_LOAD is one of SWEEP_LOADS")
    }
}

fn mean_us(outcome: &ServeOutcome, f: impl Fn(usize) -> SimTime) -> f64 {
    let n = outcome.queries.len();
    (0..n).map(|q| f(q).as_us()).sum::<u64>() as f64 / n.max(1) as f64
}

/// Run the sweep over `plan`.
pub fn sweep(plan: &QueryPlan, cfg: &EngineConfig, bound_qps: f64, seed: u64) -> Sweep {
    let solo_us = plan.solo_response.as_us();
    let mut unfinished = 0u64;
    let mut queries = 0u64;
    let mut points = Vec::new();
    for (li, load) in SWEEP_LOADS.into_iter().enumerate() {
        let mean = interarrival(bound_qps, load);
        let mut runs = Vec::new();
        let (mut tput, mut util, mut adm, mut disp, mut queue) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for s in 0..ARRIVAL_SEEDS {
            let case = arrival_case(seed, 8 + li as u64 * ARRIVAL_SEEDS + s);
            let arrivals = Arrivals::new("benchmark-sweep", case, mean).take_times(ENGINE_QUERIES);
            let outcome = engine::run(vec![plan.clone(); ENGINE_QUERIES as usize], &arrivals, cfg);
            queries += u64::from(ENGINE_QUERIES);
            unfinished += (ENGINE_QUERIES as usize - outcome.completed()) as u64;
            let responses: Vec<u64> = outcome
                .queries
                .iter()
                .filter_map(|q| q.response())
                .map(SimTime::as_us)
                .collect();
            runs.push(RunStats::from_responses(&responses));
            tput.push(outcome.throughput_qps());
            util.push(outcome.peak_device_utilisation());
            adm.push(mean_us(&outcome, |q| {
                outcome.queries[q].admission_wait().unwrap_or(SimTime::ZERO)
            }));
            disp.push(mean_us(&outcome, |q| {
                outcome.explains[q]
                    .phases
                    .iter()
                    .map(|p| p.dispatch_wait)
                    .sum()
            }));
            queue.push(mean_us(&outcome, |q| {
                outcome.explains[q]
                    .phases
                    .iter()
                    .map(|p| p.queue_wait)
                    .sum()
            }));
        }
        let p99s: Vec<u64> = runs.iter().map(|r| r.p99_us).collect();
        let p99_us = median(&p99s);
        let spread = p99s.iter().max().unwrap() - p99s.iter().min().unwrap();
        points.push(LoadPoint {
            load,
            offered_qps: 1e6 / mean.as_us() as f64,
            p50_us: median(&runs.iter().map(|r| r.p50_us).collect::<Vec<_>>()),
            p99_us,
            backlog_ratio: median_f64(&runs.iter().map(|r| r.backlog_ratio).collect::<Vec<_>>()),
            throughput_qps: median_f64(&tput),
            peak_utilisation: median_f64(&util),
            p99_seed_spread: spread as f64 / p99_us.max(1) as f64,
            admission_wait_us: median_f64(&adm),
            dispatch_wait_us: median_f64(&disp),
            queue_wait_us: median_f64(&queue),
        });
    }
    let knee = points.iter().map(|p| p.throughput_qps).fold(0.0, f64::max);
    Sweep {
        max_qps: max_sustained_qps(&points, solo_us),
        knee_vs_bound: knee / bound_qps,
        points,
        unfinished,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(load: f64, p99_us: u64, backlog_ratio: f64) -> LoadPoint {
        LoadPoint {
            load,
            offered_qps: load * 10.0,
            p50_us: 1_000,
            p99_us,
            backlog_ratio,
            throughput_qps: load * 10.0,
            peak_utilisation: load,
            p99_seed_spread: 0.0,
            admission_wait_us: 0.0,
            dispatch_wait_us: 0.0,
            queue_wait_us: 0.0,
        }
    }

    #[test]
    fn run_stats_see_a_growing_backlog() {
        // Steady: every response 100 µs.
        let steady = RunStats::from_responses(&[100; 50]);
        assert_eq!((steady.p50_us, steady.p99_us), (100, 100));
        assert_eq!(steady.backlog_ratio, 1.0);
        // Growing: response rises with arrival order; the last tenth
        // (46..=50 → mean 48) sits far above the median (25).
        let growing: Vec<u64> = (1..=50).collect();
        let g = RunStats::from_responses(&growing);
        assert_eq!((g.p50_us, g.p99_us), (25, 50));
        assert!((g.backlog_ratio - 48.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn limit_and_backlog_rule_picks_the_highest_sustained_rate() {
        let solo = 1_000;
        let pts = [
            point(0.5, 3_000, 1.0),
            point(0.7, 9_000, 1.4),
            point(0.8, 10_000, 2.0), // exactly on both limits: still sustained
            point(0.9, 10_001, 1.0), // p99 over 10 × solo
            point(1.0, 8_000, 2.5),  // backlog growing
        ];
        assert_eq!(max_sustained_qps(&pts, solo), 8.0);
        assert_eq!(max_sustained_qps(&pts[3..], solo), 0.0, "no rate qualifies");
        assert_eq!(max_sustained_qps(&[], solo), 0.0);
    }
}
