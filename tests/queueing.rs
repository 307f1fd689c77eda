//! The queued timing model: FIFO device-queue invariants, agreement with
//! the flat `max()` bound at low utilisation, and the convoy effect the
//! flat bound cannot express.
//!
//! The engine drains each node's disk/NI request log through
//! single-server FIFO queues (see `gamma_des::queue` and DESIGN.md §10),
//! and every replay reports the flat `max(cpu, disk, net)` bound beside
//! the queued duration (`PhaseTiming::flat`, `JoinReport::flat_response`).
//! The flat bound was once a second timing model, "legacy"; the tests
//! that compared the two models keep their names.
//! These tests pin the model's contract from the outside:
//!
//! * queue mechanics satisfy the single-server invariants,
//! * the response is never below the flat bound, on 42 grid points,
//! * at the benchmark's (CPU-bound) operating point the response stays
//!   within a few percent of the flat bound for all four algorithms — the
//!   paper's shapes survive the model,
//! * a disk driven past 80 % utilisation by bursty arrivals overshoots
//!   the flat bound by a large, asserted margin.

use gamma_bench::{SweepBuilder, Workload};
use gamma_core::query::Algorithm;
use gamma_des::{compose, fifo_drain, PhaseTiming, Request, SimTime, TimingModel, Usage};

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::SortMerge,
    Algorithm::SimpleHash,
    Algorithm::GraceHash,
    Algorithm::HybridHash,
];

fn timed(nodes: &[Usage]) -> PhaseTiming {
    compose(nodes, 10_000_000, TimingModel::Queued)
}

fn req(issue: u64, service: u64) -> Request {
    Request {
        issue: SimTime::from_us(issue),
        service: SimTime::from_us(service),
    }
}

// ---- single-server FIFO invariants ----

#[test]
fn fifo_completion_nondecreasing_and_work_conserving() {
    // A mildly adversarial log: bursts, gaps, zero-length services.
    let log: Vec<Request> = (0..200).map(|i| req((i / 7) * 50, (i % 5) * 13)).collect();
    let mut prev = SimTime::ZERO;
    for n in 0..=log.len() {
        let s = fifo_drain(&log[..n]);
        // Completion times never run backwards as requests are appended.
        assert!(s.completion >= prev, "at {n}: {s:?}");
        prev = s.completion;
        // Utilisation ≤ 1: the server cannot do Σ service work in less
        // than Σ service time.
        assert!(s.completion >= s.service, "at {n}: {s:?}");
        // And it never idles with work queued: completion is bounded by
        // last arrival + all service.
        if let Some(last) = log[..n].last() {
            assert!(s.completion <= last.issue + s.service, "at {n}: {s:?}");
        }
    }
}

#[test]
fn empty_queue_equals_legacy_bound() {
    // When requests never contend (each issued after the previous
    // completed), the queued node time collapses to the flat max.
    let mut u = Usage::ZERO;
    for _ in 0..20 {
        u.cpu(SimTime::from_us(100));
        u.disk(SimTime::from_us(40)); // finishes well before next issue
    }
    let t = timed(&[u]);
    assert_eq!(t.disk_wait, SimTime::ZERO);
    // The only difference is the tail: the last read is issued at cpu
    // total and still needs its service time.
    assert_eq!(t.duration, t.flat + SimTime::from_us(40), "{t:?}");
}

// ---- low-utilisation agreement, all four algorithms ----

#[test]
fn queued_model_agrees_with_legacy_at_low_utilisation() {
    let w = Workload::scaled(3_000, 300);
    for alg in ALGORITHMS {
        let p = SweepBuilder::new(&w).run_one(alg, 0.5);
        let flat = p.report.flat_response().as_secs();
        assert!(
            p.seconds >= flat,
            "{}: queued completion can never beat the flat bound",
            alg.name()
        );
        eprintln!(
            "{}: flat {:.4}s queued {:.4}s (+{:.2} %)",
            alg.name(),
            flat,
            p.seconds,
            (p.seconds / flat - 1.0) * 100.0
        );
        // Stated tolerance: at this CPU-bound operating point the queued
        // model adds per-phase device tails but no sustained queueing, so
        // it stays within 10 % of the flat bound (measured: ≤ ~6.5 %, the
        // worst case being Grace's many short spool phases).
        assert!(
            p.seconds <= flat * 1.10,
            "{}: queued {} vs flat {} diverges past 10 %",
            alg.name(),
            p.seconds,
            flat
        );
    }
}

// ---- the flat bound every report carries ----

/// The 42-point grid: 4 algorithms × ratios {1.0, 0.5, 0.2} × local and
/// remote (no remote sort-merge) × the disk at 1× and 8× its service time.
fn flat_grid(w: &Workload) -> Vec<(String, SweepBuilder<'_>, Algorithm, f64)> {
    let mut points = Vec::new();
    for slow in [1, 8] {
        for remote in [false, true] {
            for alg in ALGORITHMS {
                if remote && alg == Algorithm::SortMerge {
                    continue;
                }
                for ratio in [1.0, 0.5, 0.2] {
                    let mut b = SweepBuilder::new(w).slow_disk(slow);
                    if remote {
                        b = b.remote();
                    }
                    let site = if remote { "remote" } else { "local" };
                    let name = format!("{} r{ratio} {site} disk {slow}x", alg.name());
                    points.push((name, b, alg, ratio));
                }
            }
        }
    }
    points
}

#[test]
fn response_never_below_flat_response() {
    // Every phase's queued duration is at least its flat bound, so the
    // sums are ordered too. (The flat response equals the response of a
    // machine timed by the flat bound alone: timing never feeds back into
    // execution. `results/ablations.txt`'s convoy table carries that.)
    let w = Workload::scaled(3_000, 300);
    let points = flat_grid(&w);
    assert_eq!(points.len(), 42);
    for (name, b, alg, ratio) in points {
        let p = b.run_one(alg, ratio);
        assert!(p.report.response >= p.report.flat_response(), "{name}");
        for ph in &p.report.phases {
            assert!(ph.duration >= ph.flat, "{name}: {}", ph.name);
        }
    }
}

// ---- convoy effect: the reason the model exists ----

#[test]
fn convoy_exceeds_legacy_bound_past_80_pct_disk_utilisation() {
    // One node computes for 1 s, issuing nothing, then flushes 850 ms of
    // writes in a burst near the end of the phase (the spool/flush
    // pattern). Disk utilisation against the flat phase time is 85 %,
    // yet the flat bound claims the phase costs max(cpu, disk) = 1 s.
    let mut u = Usage::ZERO;
    u.cpu(SimTime::from_ms(700));
    for _ in 0..100 {
        u.cpu(SimTime::from_ms(3)); // 300 ms more CPU, interleaved…
        u.disk(SimTime::from_us(8_500)); // …with 850 ms of writes
    }
    let t = timed(std::slice::from_ref(&u));
    assert_eq!(t.flat, SimTime::from_secs(1));
    let disk_util = u.disk.as_secs() / t.flat.as_secs();
    assert!(
        disk_util >= 0.80,
        "scenario must load the disk: {disk_util}"
    );
    // The first write is issued at 703 ms; the arm then never catches up
    // and finishes 850 ms of service at ~1.55 s — a >50 % convoy
    // overshoot the flat bound hides entirely.
    assert!(
        t.duration.as_secs() >= t.flat.as_secs() * 1.5,
        "queued {} vs flat {}: convoy margin lost",
        t.duration,
        t.flat
    );
    assert!(t.disk_wait > SimTime::ZERO);
    assert_eq!(t.critical_node, Some(0));
}

#[test]
fn convoy_margin_survives_end_to_end() {
    // The same effect through a real join: slow the disk 8× so scan and
    // spool phases push volumes past 80 % utilisation. The queued response
    // must exceed the flat response by an asserted margin.
    let w = Workload::scaled(2_000, 200);
    let p = SweepBuilder::new(&w)
        .slow_disk(8)
        .run_one(Algorithm::GraceHash, 0.5);
    let flat = p.report.flat_response().as_secs();
    assert!(
        p.seconds > flat * 1.02,
        "queued {} vs flat {flat}: expected visible convoy delay on a \
         saturated disk",
        p.seconds,
    );
}

// ---- satellite regressions ----

#[test]
fn empty_phase_has_no_critical_node() {
    let t = timed(&[]);
    assert_eq!(t.critical_node, None);
    let t = timed(&[Usage::ZERO, Usage::ZERO]);
    assert_eq!(t.critical_node, None);
    assert_eq!((t.duration, t.flat), (SimTime::ZERO, SimTime::ZERO));
}
