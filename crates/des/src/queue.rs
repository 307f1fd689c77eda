//! Single-server FIFO request queues for a node's disk arm and network
//! interface.
//!
//! The ledgers in [`crate::ledger`] record *when* each disk/NI request was
//! issued (the node's CPU progress at the charge site) and *how long* the
//! device needs to service it. This module replays those request logs
//! through a single-server FIFO queue, as a closed-form fold, to find out
//! when the device actually finishes — including the queueing delay that
//! appears when requests arrive faster than the device drains them (convoy
//! effects).
//!
//! The legacy timing model (`Usage::busy_time`) assumed a device at 95 %
//! load behaves like one at 5 %: phase time was just
//! `max(cpu, Σ disk service, Σ net service)`. The queued model keeps the
//! full-overlap assumption (read-ahead, DMA) but makes the device a real
//! server: a request issued at time `a` with service time `s` completes at
//! `max(a, previous completion) + s`. The device's completion time for the
//! phase is the finish time of its last request, which is never below the
//! legacy bound (all the work still has to happen) and rises above it when
//! requests bunch up.
//!
//! [`fifo_drain`] replays one phase in isolation (the server starts idle at
//! the phase boundary). For *concurrent* queries that restriction no longer
//! holds: [`SharedServer`] is the cross-phase, cross-query variant that
//! lives on the absolute virtual clock and carries its backlog between
//! phases — the gamma-sched engine owns one per device (DESIGN.md §12).

use crate::time::SimTime;

/// One device request: issued at `issue` (relative to the phase start, on
/// the issuing node's CPU-progress clock), needing `service` device time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Request {
    /// When the request was handed to the device, relative to phase start.
    pub issue: SimTime,
    /// Device service time (seek + rotate + transfer, or wire occupancy).
    pub service: SimTime,
}

/// Per-node request logs, one per queued device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestLog {
    /// Disk-arm requests in issue order.
    pub disk: Vec<Request>,
    /// Network-interface requests in issue order.
    pub net: Vec<Request>,
}

impl RequestLog {
    /// Log with no requests.
    pub const EMPTY: RequestLog = RequestLog {
        disk: Vec::new(),
        net: Vec::new(),
    };

    /// True when neither device has any logged request.
    pub fn is_empty(&self) -> bool {
        self.disk.is_empty() && self.net.is_empty()
    }
}

/// Run `f` over the requests a device served in one phase: its logged
/// requests, or — when service was charged without a log (a ledger built
/// by bulk addition or by hand) — one synthetic request for the whole
/// `total` issued at time zero, which reproduces the legacy bound for that
/// device. Every replay of a ledger goes through this one rule, and the
/// synthetic request lives on the stack.
pub fn with_requests<R>(log: &[Request], total: SimTime, f: impl FnOnce(&[Request]) -> R) -> R {
    if log.is_empty() && total > SimTime::ZERO {
        f(&[Request {
            issue: SimTime::ZERO,
            service: total,
        }])
    } else {
        f(log)
    }
}

/// Result of draining one device's request log through its FIFO queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// When the device finishes its last request (phase-relative). Zero for
    /// an empty log.
    pub completion: SimTime,
    /// Total time requests spent waiting in the queue before service began.
    pub wait: SimTime,
    /// Longest single wait.
    pub max_wait: SimTime,
    /// Total service demand (Σ service; equals the legacy ledger field).
    pub service: SimTime,
    /// Number of requests serviced.
    pub requests: u64,
}

/// Drain a request log through a single-server FIFO queue and report when
/// the device finishes.
///
/// Requests are served in issue order (ties broken by log order). The log
/// produced by a ledger is already issue-ordered because issue offsets are
/// the node's monotone CPU progress, so the queue reduces to the closed-form
/// recurrence `start = max(issue, previous completion)` — no event kernel,
/// no allocation. The event-kernel formulation survives as a test-only
/// cross-check (`fold_drain_matches_event_kernel`), and this is the same
/// recurrence [`SharedServer`] and [`fold_waits`] use.
pub fn fifo_drain(requests: &[Request]) -> QueueStats {
    let mut stats = QueueStats {
        requests: requests.len() as u64,
        ..QueueStats::default()
    };
    let mut prev = SimTime::ZERO;
    for r in requests {
        let start = prev.max(r.issue);
        let wait = start - r.issue; // SimTime::sub saturates; starts are never early
        stats.wait += wait;
        stats.max_wait = stats.max_wait.max(wait);
        stats.service += r.service;
        prev = start + r.service;
    }
    stats.completion = prev; // ZERO for an empty log
    stats
}

/// A clock-driven single-server FIFO queue that persists across phases and
/// queries.
///
/// [`fifo_drain`] replays one phase's request log in isolation: the server
/// starts idle and its clock is phase-relative. When many queries share one
/// machine that is no longer enough — a disk arm busy finishing query A's
/// partition phase delays the first read of query B's build phase. A
/// `SharedServer` models exactly that: it lives on the *absolute* virtual
/// clock, remembers when it frees up (`free_at`), and serves each submitted
/// request at `max(arrival, free_at)`. Its [`QueueStats`] accumulate over
/// everything it ever served, so cross-phase and cross-query convoy waits
/// are visible in one place.
///
/// Callers must submit requests in non-decreasing arrival order (FIFO is
/// defined by arrival order; the scheduler's CPU-convoy dispatch guarantees
/// this per device — see DESIGN.md §12). A fresh server with one phase's
/// log submitted at its issue offsets reproduces [`fifo_drain`] exactly
/// (see the `shared_server_matches_fifo_drain` test).
#[derive(Debug, Clone, Default)]
pub struct SharedServer {
    free_at: SimTime,
    last_arrival: SimTime,
    stats: QueueStats,
}

impl SharedServer {
    /// An idle server at virtual time zero.
    pub fn new() -> Self {
        SharedServer::default()
    }

    /// When the server finishes everything submitted so far.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Lifetime statistics over every request served.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Serve one request arriving at absolute time `arrival` needing
    /// `service` device time; returns its completion time. Service begins at
    /// `max(arrival, free_at)` — the single-server FIFO recurrence.
    pub fn submit(&mut self, arrival: SimTime, service: SimTime) -> SimTime {
        self.submit_span(arrival, service).completion
    }

    /// Like [`SharedServer::submit`], but report the request's full
    /// lifecycle — when it queued, when service began, when it completed —
    /// so observers (the gamma-prof flight recorder) can sample queue depth
    /// and busy time without re-deriving the FIFO recurrence.
    pub fn submit_span(&mut self, arrival: SimTime, service: SimTime) -> ServiceSpan {
        debug_assert!(
            arrival >= self.last_arrival,
            "FIFO server requires non-decreasing arrivals ({arrival} after {})",
            self.last_arrival
        );
        self.last_arrival = arrival;
        let start = self.free_at.max(arrival);
        let wait = start - arrival;
        self.stats.wait += wait;
        self.stats.max_wait = self.stats.max_wait.max(wait);
        self.stats.service += service;
        self.stats.requests += 1;
        self.free_at = start + service;
        self.stats.completion = self.free_at;
        ServiceSpan {
            arrival,
            start,
            completion: self.free_at,
        }
    }
}

/// The lifecycle of one request through a [`SharedServer`]: it queued at
/// `arrival`, was served over `[start, completion)`, and waited
/// `start - arrival` in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceSpan {
    /// When the request joined the queue.
    pub arrival: SimTime,
    /// When service began (`max(arrival, free_at)` at submission).
    pub start: SimTime,
    /// When service finished.
    pub completion: SimTime,
}

impl ServiceSpan {
    /// Time spent queued before service began.
    pub fn wait(&self) -> SimTime {
        self.start - self.arrival
    }

    /// Service duration.
    pub fn service(&self) -> SimTime {
        self.completion - self.start
    }
}

/// Walk a request log through the same FIFO discipline as [`fifo_drain`]
/// without the event kernel, calling `f(wait, service)` for each request
/// in order. A straight fold suffices because a single-server FIFO queue
/// over an issue-ordered log is `start = max(issue, previous completion)`
/// — the per-request decomposition the metrics layer uses to fill its
/// wait/service histograms (their sums reconcile exactly with the
/// [`QueueStats`] totals; see the `fold_matches_drain` test).
pub fn fold_waits(requests: &[Request], mut f: impl FnMut(SimTime, SimTime)) {
    let mut prev = SimTime::ZERO;
    for r in requests {
        let start = prev.max(r.issue);
        f(start - r.issue, r.service);
        prev = start + r.service;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use std::collections::VecDeque;

    /// The original event-driven formulation of [`fifo_drain`]: requests
    /// arrive on the kernel's clock and park in a FIFO while the server is
    /// busy. Kept as the reference implementation the closed-form fold is
    /// checked against.
    struct Server {
        queued: VecDeque<Request>,
        busy: bool,
        stats: QueueStats,
    }

    fn arrive(sim: &mut Sim<Server>, req: Request) {
        if sim.state.busy {
            sim.state.queued.push_back(req);
        } else {
            begin_service(sim, req);
        }
    }

    fn begin_service(sim: &mut Sim<Server>, req: Request) {
        let wait = sim.now() - req.issue;
        sim.state.busy = true;
        sim.state.stats.wait += wait;
        sim.state.stats.max_wait = sim.state.stats.max_wait.max(wait);
        sim.schedule_in(req.service, complete);
    }

    fn complete(sim: &mut Sim<Server>) {
        sim.state.stats.completion = sim.now();
        match sim.state.queued.pop_front() {
            Some(next) => begin_service(sim, next),
            None => sim.state.busy = false,
        }
    }

    fn fifo_drain_kernel(requests: &[Request]) -> QueueStats {
        let mut sim = Sim::new(Server {
            queued: VecDeque::with_capacity(requests.len()),
            busy: false,
            stats: QueueStats {
                requests: requests.len() as u64,
                ..QueueStats::default()
            },
        });
        for &req in requests {
            sim.state.stats.service += req.service;
            sim.schedule_at(req.issue, move |s| arrive(s, req));
        }
        sim.run_until_idle();
        assert!(!sim.state.busy && sim.state.queued.is_empty());
        sim.state.stats
    }

    #[test]
    fn fold_drain_matches_event_kernel() {
        let logs: Vec<Vec<Request>> = vec![
            vec![],
            vec![req(40, 10)],
            vec![req(0, 10), req(100, 10), req(200, 10)],
            vec![req(0, 10), req(0, 10), req(0, 10)],
            vec![req(100, 10), req(110, 10)],
            vec![req(0, 7), req(3, 2), req(3, 9), req(20, 1), req(21, 30)],
            vec![req(0, 1); 64],
        ];
        for log in logs {
            assert_eq!(fifo_drain(&log), fifo_drain_kernel(&log), "{log:?}");
        }
    }

    fn req(issue: u64, service: u64) -> Request {
        Request {
            issue: SimTime::from_us(issue),
            service: SimTime::from_us(service),
        }
    }

    #[test]
    fn empty_log_is_all_zero() {
        let s = fifo_drain(&[]);
        assert_eq!(s, QueueStats::default());
    }

    #[test]
    fn single_request_completes_after_service() {
        let s = fifo_drain(&[req(40, 10)]);
        assert_eq!(s.completion, SimTime::from_us(50));
        assert_eq!(s.wait, SimTime::ZERO);
        assert_eq!(s.service, SimTime::from_us(10));
        assert_eq!(s.requests, 1);
    }

    #[test]
    fn spaced_requests_never_wait() {
        // Arrivals slower than service: the queue is always empty.
        let s = fifo_drain(&[req(0, 10), req(100, 10), req(200, 10)]);
        assert_eq!(s.completion, SimTime::from_us(210));
        assert_eq!(s.wait, SimTime::ZERO);
    }

    #[test]
    fn burst_serialises_and_waits() {
        // Three requests issued at once: the second waits 10, the third 20.
        let s = fifo_drain(&[req(0, 10), req(0, 10), req(0, 10)]);
        assert_eq!(s.completion, SimTime::from_us(30));
        assert_eq!(s.wait, SimTime::from_us(30));
        assert_eq!(s.max_wait, SimTime::from_us(20));
    }

    #[test]
    fn idle_gap_delays_completion_past_service_sum() {
        // The server idles 0..100, so completion exceeds Σ service even
        // though nothing ever waits.
        let s = fifo_drain(&[req(100, 10), req(110, 10)]);
        assert_eq!(s.completion, SimTime::from_us(120));
        assert_eq!(s.wait, SimTime::ZERO);
        assert_eq!(s.service, SimTime::from_us(20));
    }

    #[test]
    fn completion_never_below_total_service() {
        let logs: Vec<Vec<Request>> = vec![
            vec![req(0, 5), req(1, 5), req(2, 5)],
            vec![req(7, 3), req(7, 3), req(50, 1)],
            vec![req(0, 1); 64],
        ];
        for log in logs {
            let s = fifo_drain(&log);
            assert!(s.completion >= s.service, "{s:?}");
        }
    }

    #[test]
    fn fold_matches_drain() {
        let logs: Vec<Vec<Request>> = vec![
            vec![],
            vec![req(40, 10)],
            vec![req(0, 10), req(100, 10), req(200, 10)],
            vec![req(0, 10), req(0, 10), req(0, 10)],
            vec![req(100, 10), req(110, 10)],
            vec![req(0, 7), req(3, 2), req(3, 9), req(20, 1), req(21, 30)],
            vec![req(0, 1); 64],
        ];
        for log in logs {
            let drained = fifo_drain(&log);
            let mut wait = SimTime::ZERO;
            let mut max_wait = SimTime::ZERO;
            let mut service = SimTime::ZERO;
            let mut n = 0;
            fold_waits(&log, |w, s| {
                wait += w;
                max_wait = max_wait.max(w);
                service += s;
                n += 1;
            });
            assert_eq!(wait, drained.wait, "{log:?}");
            assert_eq!(max_wait, drained.max_wait, "{log:?}");
            assert_eq!(service, drained.service, "{log:?}");
            assert_eq!(n, drained.requests, "{log:?}");
        }
    }

    #[test]
    fn shared_server_matches_fifo_drain() {
        let logs: Vec<Vec<Request>> = vec![
            vec![],
            vec![req(40, 10)],
            vec![req(0, 10), req(100, 10), req(200, 10)],
            vec![req(0, 10), req(0, 10), req(0, 10)],
            vec![req(100, 10), req(110, 10)],
            vec![req(0, 7), req(3, 2), req(3, 9), req(20, 1), req(21, 30)],
            vec![req(0, 1); 64],
        ];
        for log in logs {
            let drained = fifo_drain(&log);
            let mut server = SharedServer::new();
            for r in &log {
                server.submit(r.issue, r.service);
            }
            assert_eq!(server.stats(), drained, "{log:?}");
            assert_eq!(server.free_at(), drained.completion, "{log:?}");
        }
    }

    #[test]
    fn shared_server_carries_backlog_across_phases() {
        // Phase 1 leaves the device busy until 120; phase 2's first request
        // arrives at 50 and must wait 70 even though *its* phase just began.
        let mut server = SharedServer::new();
        server.submit(SimTime::from_us(0), SimTime::from_us(120));
        let done = server.submit(SimTime::from_us(50), SimTime::from_us(10));
        assert_eq!(done, SimTime::from_us(130));
        assert_eq!(server.stats().wait, SimTime::from_us(70));
        assert_eq!(server.stats().max_wait, SimTime::from_us(70));
        assert_eq!(server.stats().requests, 2);
    }

    #[test]
    fn submit_span_reports_the_lifecycle() {
        let mut server = SharedServer::new();
        let first = server.submit_span(SimTime::from_us(10), SimTime::from_us(30));
        assert_eq!(first.arrival, SimTime::from_us(10));
        assert_eq!(first.start, SimTime::from_us(10));
        assert_eq!(first.completion, SimTime::from_us(40));
        assert_eq!(first.wait(), SimTime::ZERO);
        assert_eq!(first.service(), SimTime::from_us(30));
        // Second request arrives while the server is busy: waits 15.
        let second = server.submit_span(SimTime::from_us(25), SimTime::from_us(5));
        assert_eq!(second.start, SimTime::from_us(40));
        assert_eq!(second.completion, SimTime::from_us(45));
        assert_eq!(second.wait(), SimTime::from_us(15));
        // `submit` is exactly `submit_span().completion`.
        assert_eq!(
            server.submit(SimTime::from_us(50), SimTime::from_us(1)),
            SimTime::from_us(51)
        );
    }

    #[test]
    fn shared_server_idles_between_bursts() {
        let mut server = SharedServer::new();
        server.submit(SimTime::from_us(0), SimTime::from_us(10));
        let done = server.submit(SimTime::from_us(100), SimTime::from_us(10));
        assert_eq!(done, SimTime::from_us(110));
        assert_eq!(server.stats().wait, SimTime::ZERO);
    }

    #[test]
    fn fifo_completion_times_are_nondecreasing() {
        // Re-drain prefixes: each added request can only push completion out.
        let log = [req(0, 7), req(3, 2), req(3, 9), req(20, 1), req(21, 30)];
        let mut prev = SimTime::ZERO;
        for n in 0..=log.len() {
            let s = fifo_drain(&log[..n]);
            assert!(s.completion >= prev);
            prev = s.completion;
        }
    }
}
