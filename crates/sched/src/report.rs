//! Serve outcomes: per-query timings, device statistics and the exact
//! response-time percentiles the bench layer publishes.
//!
//! Response times in a loaded serve run to many virtual seconds — far
//! past the 2²⁰ µs cap of the power-of-two `gamma_metrics::Histogram` —
//! so response percentiles are computed **exactly** by nearest-rank over
//! the sorted response vector (`rank = ⌈count·q⌉`, 1-based), not from
//! histogram buckets.

use gamma_des::{QueueStats, SimTime};

use crate::explain::QueryExplain;

/// Lifecycle timestamps of one served query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTiming {
    /// Open-loop arrival time.
    pub arrival: SimTime,
    /// When admission control let it in (`None` if never admitted).
    pub admitted: Option<SimTime>,
    /// When its last phase ended (`None` if never finished).
    pub finished: Option<SimTime>,
}

impl QueryTiming {
    /// Response time: arrival → completion (includes admission wait).
    pub fn response(&self) -> Option<SimTime> {
        self.finished.map(|f| f - self.arrival)
    }

    /// Time spent queued at admission control.
    pub fn admission_wait(&self) -> Option<SimTime> {
        self.admitted.map(|a| a - self.arrival)
    }
}

/// Everything the engine measured over one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-query lifecycle timestamps, in arrival order.
    pub queries: Vec<QueryTiming>,
    /// Virtual time when the last event fired (last completion).
    pub makespan: SimTime,
    /// The serialized scheduler-dispatch server.
    pub dispatch: QueueStats,
    /// The shared interconnect ring server.
    pub ring: QueueStats,
    /// Per-node disk-arm servers.
    pub disk: Vec<QueueStats>,
    /// Per-node network-interface servers.
    pub net: Vec<QueueStats>,
    /// Per-node CPU demand actually executed.
    pub cpu_busy: Vec<SimTime>,
    /// Per-node CPU stall injected by the back-pressure window.
    pub cpu_stall: Vec<SimTime>,
    /// Per-query EXPLAIN breakdowns, in arrival order (one entry per
    /// query; empty phase lists for queries that never ran).
    pub explains: Vec<QueryExplain>,
}

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// element whose rank is ≥ ⌈n·num/den⌉. Exact — no bucketing.
pub fn exact_percentile(sorted: &[u64], num: u64, den: u64) -> Option<u64> {
    assert!(den > 0 && num > 0 && num <= den, "need 0 < num/den <= 1");
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() as u128 * u128::from(num)).div_ceil(u128::from(den)) as usize;
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "slice not sorted");
    Some(sorted[rank - 1])
}

impl ServeOutcome {
    /// Number of queries that ran to completion.
    pub fn completed(&self) -> usize {
        self.queries.iter().filter(|q| q.finished.is_some()).count()
    }

    /// Completed-query throughput in queries/second of virtual time.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 0.0;
        }
        self.completed() as f64 / self.makespan.as_secs()
    }

    /// Ascending response times (µs) of completed queries.
    pub fn sorted_responses_us(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .queries
            .iter()
            .filter_map(|q| q.response())
            .map(SimTime::as_us)
            .collect();
        v.sort_unstable();
        v
    }

    /// Exact response percentile (nearest-rank over completed queries).
    pub fn response_percentile(&self, num: u64, den: u64) -> Option<u64> {
        exact_percentile(&self.sorted_responses_us(), num, den)
    }

    /// Mean response time in µs over completed queries.
    pub fn mean_response_us(&self) -> Option<f64> {
        let v = self.sorted_responses_us();
        if v.is_empty() {
            return None;
        }
        Some(v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64)
    }

    /// A device's utilisation: busy time over the makespan.
    pub fn utilisation(&self, busy: SimTime) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 0.0;
        }
        busy.as_secs() / self.makespan.as_secs()
    }

    /// Highest per-node device utilisation (CPU, disk or NI) — the
    /// measured bottleneck the analytical demand bound predicts.
    pub fn peak_device_utilisation(&self) -> f64 {
        let mut peak: f64 = self.utilisation(self.dispatch.service);
        for &b in &self.cpu_busy {
            peak = peak.max(self.utilisation(b));
        }
        for s in self.disk.iter().chain(self.net.iter()) {
            peak = peak.max(self.utilisation(s.service));
        }
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentile_nearest_rank() {
        let v = [10, 20, 30, 40];
        assert_eq!(exact_percentile(&v, 1, 2), Some(20)); // rank ceil(2) = 2
        assert_eq!(exact_percentile(&v, 99, 100), Some(40));
        assert_eq!(exact_percentile(&v, 1, 100), Some(10));
        assert_eq!(exact_percentile(&v, 1, 1), Some(40));
        assert_eq!(exact_percentile(&[], 1, 2), None);
    }

    #[test]
    fn exact_percentile_single_element() {
        assert_eq!(exact_percentile(&[7], 1, 2), Some(7));
        assert_eq!(exact_percentile(&[7], 999, 1000), Some(7));
    }

    #[test]
    #[should_panic(expected = "need 0 < num/den <= 1")]
    fn exact_percentile_rejects_improper_fraction() {
        exact_percentile(&[1], 3, 2);
    }

    #[test]
    fn timing_accessors() {
        let t = QueryTiming {
            arrival: SimTime::from_us(5),
            admitted: Some(SimTime::from_us(9)),
            finished: Some(SimTime::from_us(25)),
        };
        assert_eq!(t.response(), Some(SimTime::from_us(20)));
        assert_eq!(t.admission_wait(), Some(SimTime::from_us(4)));
        let unfinished = QueryTiming {
            arrival: SimTime::ZERO,
            admitted: None,
            finished: None,
        };
        assert_eq!(unfinished.response(), None);
    }
}
