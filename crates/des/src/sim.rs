//! The event-queue kernel.
//!
//! [`Sim`] owns a virtual clock and a priority queue of scheduled events
//! of the caller's type `E` — typically an enum naming what happens and to
//! whom. The caller pops events in a `match` loop, keeping its state beside
//! the queue, and schedules further events from the handlers. Events
//! scheduled for the same instant fire in scheduling order (FIFO), making
//! every simulation fully deterministic. An event is stored by value: no
//! allocation per event beyond the heap's own growth, which
//! [`Sim::with_capacity`] sizes once.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Discrete-event simulator over events of type `E`.
///
/// ```
/// use gamma_des::{Sim, SimTime};
///
/// enum Ev {
///     Say(&'static str),
///     Chain,
/// }
///
/// let mut sim = Sim::new();
/// let mut log = Vec::new();
/// sim.schedule_at(SimTime::from_ms(2), Ev::Say("later"));
/// sim.schedule_at(SimTime::from_ms(1), Ev::Chain);
/// while let Some(ev) = sim.pop() {
///     match ev {
///         Ev::Say(s) => log.push(s),
///         Ev::Chain => {
///             log.push("first");
///             sim.schedule_in(SimTime::from_ms(5), Ev::Say("chained"));
///         }
///     }
/// }
/// assert_eq!(log, ["first", "later", "chained"]);
/// assert_eq!(sim.now(), SimTime::from_ms(6));
/// ```
pub struct Sim<E> {
    clock: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<E>>,
}

impl<E> Default for Sim<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Sim<E> {
    /// An empty simulator at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty simulator at time zero whose queue holds `events` pending
    /// events before it grows.
    pub fn with_capacity(events: usize) -> Self {
        Sim {
            clock: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::with_capacity(events),
        }
    }

    /// Current virtual time: the instant of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — the kernel never rewinds time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.clock,
            "cannot schedule into the past: now={} at={}",
            self.clock,
            at
        );
        self.queue.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.clock + delay, event)
    }

    /// Pop the next event — the earliest, and of those the first
    /// scheduled — advancing the clock to its time; `None` once the queue
    /// drains, leaving the clock at the last event's time.
    pub fn pop(&mut self) -> Option<E> {
        let next = self.queue.pop()?;
        debug_assert!(next.at >= self.clock, "event queue went backwards");
        self.clock = next.at;
        Some(next.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain `sim`, logging each event with its firing time.
    fn drain<E: Copy>(sim: &mut Sim<E>) -> Vec<(u64, E)> {
        let mut log = Vec::new();
        while let Some(ev) = sim.pop() {
            log.push((sim.now().as_us(), ev));
        }
        log
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        sim.schedule_at(SimTime::from_us(30), 3);
        sim.schedule_at(SimTime::from_us(10), 1);
        sim.schedule_at(SimTime::from_us(20), 2);
        assert_eq!(drain(&mut sim), [(10, 1), (20, 2), (30, 3)]);
        assert_eq!(sim.now(), SimTime::from_us(30));
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut sim = Sim::with_capacity(100);
        let t = SimTime::from_us(5);
        for i in 0..100u32 {
            sim.schedule_at(t, i);
        }
        let fired: Vec<u32> = drain(&mut sim).into_iter().map(|(_, i)| i).collect();
        assert_eq!(fired, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        enum Ev {
            First,
            Second,
        }
        let mut sim = Sim::new();
        let mut log = Vec::new();
        sim.schedule_at(SimTime::from_us(1), Ev::First);
        while let Some(ev) = sim.pop() {
            match ev {
                Ev::First => {
                    log.push((sim.now().as_us(), 1));
                    sim.schedule_in(SimTime::from_us(4), Ev::Second);
                }
                Ev::Second => log.push((sim.now().as_us(), 2)),
            }
        }
        assert_eq!(log, [(1, 1), (5, 2)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new();
        sim.schedule_at(SimTime::from_us(10), ());
        while sim.pop().is_some() {
            sim.schedule_at(SimTime::from_us(5), ());
        }
    }

    #[test]
    fn determinism_across_runs() {
        // Two identical simulations produce identical event traces.
        fn trace() -> Vec<(u64, u32)> {
            let mut sim = Sim::new();
            for i in 0..50u32 {
                sim.schedule_at(SimTime::from_us((i as u64 * 7) % 13), i);
            }
            drain(&mut sim)
        }
        assert_eq!(trace(), trace());
    }
}
