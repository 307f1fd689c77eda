//! Per-query EXPLAIN: an exact-integer decomposition of each served
//! query's response time.
//!
//! The engine computes every phase end synchronously from shared-server
//! completions, so at the moment it schedules the next phase it knows
//! *why* the phase ended when it did: some determinant — a device
//! request's completion, a node's CPU convoy end, or the ring
//! reservation — set the max. The engine records that determinant's
//! critical path as a [`PhaseBreakdown`]; summed over phases and added to
//! the admission wait it reconstructs the query's ledger-charged response
//! **exactly**, as integer equalities (no estimates, no rounding):
//!
//! ```text
//! response = admission_wait
//!          + Σ_phase (dispatch_wait + dispatch_service
//!                     + cpu_service + disk_service + net_service
//!                     + queue_wait)
//! ```
//!
//! The engine debug-asserts the identity at every completion, and
//! `crates/sched/tests/explain.rs` enforces it release-mode across
//! algorithms and concurrency levels. [`render`] is the deterministic
//! text report behind `gamma-bench serve --explain`.

use gamma_des::SimTime;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::report::ServeOutcome;

/// Why one phase of one query took as long as it did.
///
/// `end - launch` splits exactly into the six components below: the time
/// queued behind other launches at the serialized dispatch server, the
/// dispatch service itself, and then the critical path through whichever
/// determinant finished last — its CPU demand (for a device request, the
/// CPU progress before it was issued), its device service, and every
/// microsecond it spent waiting (CPU convoy, back-pressure stall, device
/// queue or ring queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Phase name (diagnostics only), shared with the phase's
    /// [`PhasePlan`](crate::plan::PhasePlan): a clone is a reference-count
    /// bump.
    pub name: Arc<str>,
    /// When the engine launched the phase (previous phase's end, or the
    /// admission instant for phase 0).
    pub launch: SimTime,
    /// When the phase ended (max over its determinants).
    pub end: SimTime,
    /// Time queued at the serialized scheduler-dispatch server.
    pub dispatch_wait: SimTime,
    /// The phase's scheduler dispatch overhead.
    pub dispatch_service: SimTime,
    /// CPU service on the critical path.
    pub cpu_service: SimTime,
    /// Disk service on the critical path.
    pub disk_service: SimTime,
    /// Network (NI or ring) service on the critical path.
    pub net_service: SimTime,
    /// Every queueing component on the critical path: CPU-convoy wait,
    /// back-pressure stall, device-queue wait, ring wait.
    pub queue_wait: SimTime,
}

impl PhaseBreakdown {
    /// Wall span of the phase on the engine's clock.
    pub fn span(&self) -> SimTime {
        self.end - self.launch
    }

    /// Sum of all explained components; equals [`PhaseBreakdown::span`]
    /// exactly.
    pub fn explained(&self) -> SimTime {
        self.dispatch_wait
            + self.dispatch_service
            + self.cpu_service
            + self.disk_service
            + self.net_service
            + self.queue_wait
    }
}

/// The full decomposition of one query's serve-time response.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryExplain {
    /// One breakdown per executed phase, in phase order.
    pub phases: Vec<PhaseBreakdown>,
}

impl QueryExplain {
    /// Sum of every explained microsecond across phases (everything after
    /// admission).
    pub fn explained_total(&self) -> SimTime {
        self.phases.iter().map(PhaseBreakdown::explained).sum()
    }
}

fn write_row(out: &mut String, b: &PhaseBreakdown) {
    let _ = writeln!(
        out,
        "  {:<12} span {:>9} = sched {:>6}+{:<6} cpu {:>9}  disk {:>9}  net {:>9}  wait {:>9}",
        &*b.name,
        b.span().as_us(),
        b.dispatch_wait.as_us(),
        b.dispatch_service.as_us(),
        b.cpu_service.as_us(),
        b.disk_service.as_us(),
        b.net_service.as_us(),
        b.queue_wait.as_us(),
    );
}

/// Render the per-query EXPLAIN report as deterministic text (integer
/// microseconds only — byte-identical across runs and executors).
///
/// `solo_response` is the template query's single-user response; the
/// per-query `delta` column is the contention cost relative to it.
pub fn render(outcome: &ServeOutcome, solo_response: SimTime) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXPLAIN serve: {} queries, makespan {} us, solo response {} us",
        outcome.queries.len(),
        outcome.makespan.as_us(),
        solo_response.as_us(),
    );
    out.push_str(
        "per-phase columns: span = sched wait+service, then critical-path cpu/disk/net service and queue wait\n",
    );
    for (q, timing) in outcome.queries.iter().enumerate() {
        let explain = outcome.explains.get(q);
        match (timing.admitted, timing.finished, explain) {
            (Some(admitted), Some(finished), Some(explain)) => {
                let response = finished - timing.arrival;
                let admission = admitted - timing.arrival;
                let delta = response - solo_response;
                let _ = writeln!(out,
                    "q{q:03}: arrival {:>9}  admission_wait {:>9}  response {:>9}  delta_vs_solo {:>9}",
                    timing.arrival.as_us(),
                    admission.as_us(),
                    response.as_us(),
                    delta.as_us(),
                );
                for b in &explain.phases {
                    write_row(&mut out, b);
                }
                let explained = admission + explain.explained_total();
                debug_assert_eq!(explained, response);
                let _ = writeln!(
                    out,
                    "  reconciled: admission {} + phases {} = response {} us",
                    admission.as_us(),
                    explain.explained_total().as_us(),
                    explained.as_us(),
                );
            }
            _ => {
                let _ = writeln!(out, "q{q:03}: never completed");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_us(v)
    }

    #[test]
    fn breakdown_explains_its_span() {
        let b = PhaseBreakdown {
            name: "build".into(),
            launch: us(100),
            end: us(260),
            dispatch_wait: us(5),
            dispatch_service: us(10),
            cpu_service: us(80),
            disk_service: us(40),
            net_service: us(0),
            queue_wait: us(25),
        };
        assert_eq!(b.span(), us(160));
        assert_eq!(b.explained(), us(160));
        let q = QueryExplain {
            phases: vec![b.clone(), b],
        };
        assert_eq!(q.explained_total(), us(320));
    }
}
