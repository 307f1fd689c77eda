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
//!
//! ## A whole log in closed form
//!
//! When a fixed log reaches a [`SharedServer`] at `at + issue`, Lindley's
//! recurrence unrolls into a function of one number, the backlog the
//! server carries in, `x = free_at − at`. With `P_k = Σ_{i<k} s_i` and
//! `G_k = max_{j≤k}(issue_j − P_j)` (never decreasing), request `k`
//! starts at `at + P_k + max(x, G_k)`, so
//!
//! ```text
//! completion = at + S + max(x, G_last)                      S = Σ s
//! Σ wait     = Σ_k (G_k + P_k − issue_k) + Σ_{G_k < x} (x − G_k)
//! max wait   = max(max_k (G_k + P_k − issue_k), x + max_k (P_k − issue_k))
//! ```
//!
//! [`DeviceLog`] keeps `G_k` and `Σ_{j<k} G_j` beside each request, so
//! [`SharedServer::submit_log`] finds the requests with `G_k < x` by a
//! binary search and serves the whole log in O(log n), with the same
//! `free_at` and [`QueueStats`] as one [`SharedServer::submit_span`] per
//! request. The per-request path stays for callers that move a later
//! arrival by an earlier wait (the engine's backlog window) or observe
//! every request (the flight recorder).

use std::ops::Index;

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// Serve every request of `log`, request `k` arriving at
    /// `at + issue_k`, exactly as one [`SharedServer::submit_span`] per
    /// request in log order would: the same `free_at` and the same
    /// [`QueueStats`], in O(log n) (module docs, "A whole log in closed
    /// form"). Returns the span of the first request that completes at the
    /// log's completion — the request a per-request caller keeping the
    /// strictly latest completion would name — or `None` for an empty log.
    pub fn submit_log(&mut self, at: SimTime, log: &DeviceLog) -> Option<ServiceSpan> {
        let (first, last) = (log.entries.first()?, log.entries.last()?);
        debug_assert!(
            at + first.request.issue >= self.last_arrival,
            "FIFO server requires non-decreasing arrivals ({} after {})",
            at + first.request.issue,
            self.last_arrival
        );
        let at_us = i128::from(at.as_us());
        // The backlog carried in, relative to the log's time base.
        let x = i128::from(self.free_at.as_us()) - at_us;
        // Requests 0..m start behind the carried backlog: G_k < x.
        let m = log.entries.partition_point(|e| e.g < x);
        let g_before_m = log.entries.get(m).map_or(log.g_total, |e| e.g_before);
        let wait = log.self_wait + m as i128 * x - g_before_m;
        let max_wait = log.self_max_wait.max(x - log.min_slack);

        let owner = if x >= last.g {
            log.last_served
        } else {
            log.first_at_last_g
        };
        let completion = time(at_us + i128::from(log.service.as_us()) + x.max(last.g));
        let owned = log.entries[owner].request;
        self.stats.wait += time(wait);
        self.stats.max_wait = self.stats.max_wait.max(time(max_wait));
        self.stats.service += log.service;
        self.stats.requests += log.entries.len() as u64;
        self.stats.completion = completion;
        self.free_at = completion;
        self.last_arrival = at + last.request.issue;
        Some(ServiceSpan {
            arrival: at + owned.issue,
            start: completion - owned.service,
            completion,
        })
    }
}

/// A closed-form quantity back on the clock; every one is a time or a sum
/// of waits, so never negative.
fn time(us: i128) -> SimTime {
    SimTime::from_us(u64::try_from(us).expect("queue time within u64 µs"))
}

/// One request of a [`DeviceLog`], with the prefix summaries of the log up
/// to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Logged {
    request: Request,
    /// `G_k = max_{j≤k}(issue_j − P_j)`, `P_j` the service before request
    /// `j`. Request `k` starts at `P_k + max(x, G_k)` after the log's time
    /// base, so a carried backlog `x` delays it only past `G_k`.
    g: i128,
    /// `Σ_{j<k} G_j`.
    g_before: i128,
}

/// One device's request log in issue order, with the prefix summaries that
/// let [`SharedServer::submit_log`] serve it in closed form. The summaries
/// sit beside the requests in the log's one allocation, built once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceLog {
    entries: Vec<Logged>,
    /// `S = Σ s`.
    service: SimTime,
    /// `Σ G_k` over the whole log.
    g_total: i128,
    /// `Σ_k (G_k + P_k − issue_k)`: the log's waits on a server free by its
    /// first arrival.
    self_wait: i128,
    /// `max_k (G_k + P_k − issue_k)`.
    self_max_wait: i128,
    /// `min_k (issue_k − P_k)`, so `x − min_slack` is the longest wait the
    /// carried backlog sets.
    min_slack: i128,
    /// The last request with positive service (0 when none has any): the
    /// first to complete at the log's completion when the carried backlog
    /// sets it.
    last_served: usize,
    /// The first request at or after `last_served` whose `G_k` is the
    /// log's last: the first to complete at the log's completion when the
    /// log's own burst sets it.
    first_at_last_g: usize,
}

impl DeviceLog {
    /// Summarise `requests`, which must be in non-decreasing issue order.
    pub fn new(requests: &[Request]) -> Self {
        debug_assert!(
            requests.windows(2).all(|w| w[0].issue <= w[1].issue),
            "a device log is in issue order"
        );
        let mut log = DeviceLog {
            entries: Vec::with_capacity(requests.len()),
            service: SimTime::ZERO,
            g_total: 0,
            self_wait: 0,
            self_max_wait: 0,
            min_slack: i128::MAX,
            last_served: 0,
            first_at_last_g: 0,
        };
        let (mut p, mut g, mut first_g) = (0i128, i128::MIN, 0);
        for (k, r) in requests.iter().enumerate() {
            let slack = i128::from(r.issue.as_us()) - p;
            if slack > g {
                (g, first_g) = (slack, k);
            }
            log.entries.push(Logged {
                request: *r,
                g,
                g_before: log.g_total,
            });
            log.g_total += g;
            log.self_wait += g - slack;
            log.self_max_wait = log.self_max_wait.max(g - slack);
            log.min_slack = log.min_slack.min(slack);
            if r.service > SimTime::ZERO {
                log.last_served = k;
            }
            log.service += r.service;
            p += i128::from(r.service.as_us());
        }
        log.first_at_last_g = log.last_served.max(first_g);
        log
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log holds no request.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Request `k`, if there is one.
    pub fn get(&self, k: usize) -> Option<&Request> {
        self.entries.get(k).map(|e| &e.request)
    }
}

impl Index<usize> for DeviceLog {
    type Output = Request;

    fn index(&self, k: usize) -> &Request {
        &self.entries[k].request
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
    enum Ev {
        Arrive(Request),
        Complete,
    }

    fn fifo_drain_kernel(requests: &[Request]) -> QueueStats {
        let mut sim = Sim::with_capacity(requests.len());
        let mut queued = VecDeque::with_capacity(requests.len());
        let mut busy = false;
        let mut stats = QueueStats {
            requests: requests.len() as u64,
            ..QueueStats::default()
        };
        for &req in requests {
            stats.service += req.service;
            sim.schedule_at(req.issue, Ev::Arrive(req));
        }
        while let Some(ev) = sim.pop() {
            let begin = match ev {
                Ev::Arrive(req) if busy => {
                    queued.push_back(req);
                    None
                }
                Ev::Arrive(req) => Some(req),
                Ev::Complete => {
                    stats.completion = sim.now();
                    busy = false;
                    queued.pop_front()
                }
            };
            if let Some(req) = begin {
                let wait = sim.now() - req.issue;
                busy = true;
                stats.wait += wait;
                stats.max_wait = stats.max_wait.max(wait);
                sim.schedule_in(req.service, Ev::Complete);
            }
        }
        assert!(!busy && queued.is_empty());
        stats
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

    /// splitmix64: the seeded stream the closed-form checks draw from.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// An issue-ordered log with equal issues, zero-service requests,
    /// bursts and idle gaps.
    fn random_log(rng: &mut Mix) -> Vec<Request> {
        let mut issue = rng.below(50);
        (0..rng.below(40))
            .map(|_| {
                issue += match rng.below(4) {
                    0 => 0,
                    1 => rng.below(5),
                    _ => rng.below(60),
                };
                let service = if rng.below(5) == 0 { 0 } else { rng.below(40) };
                req(issue, service)
            })
            .collect()
    }

    #[test]
    fn submit_log_equals_one_submit_span_per_request() {
        let mut rng = Mix(1989);
        for case in 0..3_000 {
            let mut per_request = SharedServer::new();
            per_request.submit(SimTime::ZERO, SimTime::from_us(2_000 + rng.below(500)));
            let mut whole = per_request.clone();
            let mut last_arrival = SimTime::ZERO;
            // Three logs in a row on one server, each meeting it idle, just
            // free or backlogged.
            for _ in 0..3 {
                let log = random_log(&mut rng);
                let first = log.first().map_or(0, |r| r.issue.as_us());
                let free = per_request.free_at().as_us();
                let at = match rng.below(5) {
                    0 => free + rng.below(300),                 // idle
                    1 => free,                                  // just free at the base
                    2 => free.saturating_sub(first),            // just free at the first arrival
                    _ => free.saturating_sub(rng.below(1_500)), // backlogged
                };
                let at = SimTime::from_us(at).max(last_arrival - SimTime::from_us(first));
                let mut owner: Option<ServiceSpan> = None;
                for r in &log {
                    let span = per_request.submit_span(at + r.issue, r.service);
                    if owner.is_none_or(|o| span.completion > o.completion) {
                        owner = Some(span);
                    }
                    last_arrival = span.arrival;
                }
                let got = whole.submit_log(at, &DeviceLog::new(&log));
                assert_eq!(got, owner, "case {case} owner, at {at}: {log:?}");
                assert_eq!(whole, per_request, "case {case} server, at {at}: {log:?}");
            }
        }
    }

    #[test]
    fn device_log_keeps_its_requests() {
        let requests = [req(0, 7), req(3, 0), req(3, 9), req(20, 1)];
        let log = DeviceLog::new(&requests);
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty() && DeviceLog::new(&[]).is_empty());
        assert_eq!(log.get(3), Some(&requests[3]));
        assert_eq!(log.get(4), None);
        assert!((0..4).all(|k| log[k] == requests[k]));
        // An empty log serves nothing and leaves the server as it was.
        let mut server = SharedServer::new();
        server.submit(SimTime::ZERO, SimTime::from_us(5));
        let before = server.clone();
        assert_eq!(
            server.submit_log(SimTime::from_us(1), &DeviceLog::new(&[])),
            None
        );
        assert_eq!(server, before);
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
