//! The event-queue kernel.
//!
//! [`Sim`] owns a virtual clock and a priority queue of scheduled events.
//! An event is a boxed closure receiving `&mut Sim<S>`, so handlers can
//! inspect/mutate the shared state `S` and schedule further events. Events
//! scheduled for the same instant fire in scheduling order (FIFO), making
//! every simulation fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

type EventFn<S> = Box<dyn FnOnce(&mut Sim<S>)>;

struct Scheduled<S> {
    at: SimTime,
    seq: u64,
    run: EventFn<S>,
}

impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Discrete-event simulator with user state `S`.
///
/// ```
/// use gamma_des::{Sim, SimTime};
///
/// let mut sim = Sim::new(Vec::<&str>::new());
/// sim.schedule_at(SimTime::from_ms(2), |s| s.state.push("later"));
/// sim.schedule_at(SimTime::from_ms(1), |s| {
///     s.state.push("first");
///     s.schedule_in(SimTime::from_ms(5), |s2| s2.state.push("chained"));
/// });
/// let end = sim.run_until_idle();
/// assert_eq!(sim.state, ["first", "later", "chained"]);
/// assert_eq!(end, SimTime::from_ms(6));
/// ```
pub struct Sim<S> {
    clock: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<S>>,
    /// The simulation's shared state (the "world": machine, files, stats…).
    pub state: S,
}

impl<S> Sim<S> {
    /// Create a simulator at time zero around the given state.
    pub fn new(state: S) -> Self {
        Sim {
            clock: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            state,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Schedule `f` to run at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — the kernel never rewinds time.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut Sim<S>) + 'static,
    {
        assert!(
            at >= self.clock,
            "cannot schedule into the past: now={} at={}",
            self.clock,
            at
        );
        self.queue.push(Scheduled {
            at,
            seq: self.seq,
            run: Box::new(f),
        });
        self.seq += 1;
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimTime, f: F)
    where
        F: FnOnce(&mut Sim<S>) + 'static,
    {
        self.schedule_at(self.clock + delay, f)
    }

    /// Run events until the queue drains; returns the final clock value.
    pub fn run_until_idle(&mut self) -> SimTime {
        while let Some(ev) = self.queue.pop() {
            debug_assert!(ev.at >= self.clock, "event queue went backwards");
            self.clock = ev.at;
            (ev.run)(self);
        }
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_us(30), |s| s.state.push(3));
        sim.schedule_at(SimTime::from_us(10), |s| s.state.push(1));
        sim.schedule_at(SimTime::from_us(20), |s| s.state.push(2));
        let end = sim.run_until_idle();
        assert_eq!(sim.state, vec![1, 2, 3]);
        assert_eq!(end, SimTime::from_us(30));
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut sim = Sim::new(Vec::<u32>::new());
        let t = SimTime::from_us(5);
        for i in 0..100 {
            sim.schedule_at(t, move |s| s.state.push(i));
        }
        sim.run_until_idle();
        assert_eq!(sim.state, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(Vec::<(u64, u32)>::new());
        sim.schedule_at(SimTime::from_us(1), |s| {
            let now = s.now();
            s.state.push((now.as_us(), 1));
            s.schedule_in(SimTime::from_us(4), |s2| {
                let now = s2.now();
                s2.state.push((now.as_us(), 2));
            });
        });
        sim.run_until_idle();
        assert_eq!(sim.state, vec![(1, 1), (5, 2)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule_at(SimTime::from_us(10), |s| {
            s.schedule_at(SimTime::from_us(5), |_| {});
        });
        sim.run_until_idle();
    }

    #[test]
    fn determinism_across_runs() {
        // Two identical simulations produce identical event traces.
        fn trace() -> Vec<(u64, u32)> {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::new(Rc::clone(&log));
            for i in 0..50u32 {
                let t = SimTime::from_us((i as u64 * 7) % 13);
                sim.schedule_at(t, move |s| {
                    let now = s.now();
                    s.state.borrow_mut().push((now.as_us(), i));
                });
            }
            sim.run_until_idle();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(trace(), trace());
    }
}
