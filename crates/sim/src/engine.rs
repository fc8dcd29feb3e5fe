//! The simulation driver: a virtual clock plus the pending-event set.

use crate::queue::{EventKey, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Scheduling-activity counters maintained by the simulator. The counts are
/// pure functions of the event schedule (no wall-clock input), so two
/// identical runs report identical stats — they are safe to surface in
/// deterministic run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events inserted via `schedule_at` / `schedule_in`.
    pub scheduled: u64,
    /// Successful cancellations (the event was still pending).
    pub cancelled: u64,
    /// Successful reschedules (the event was still pending).
    pub rescheduled: u64,
    /// High-water mark of the pending-event set.
    pub max_pending: u64,
}

/// A deterministic discrete-event simulator parameterised by its event payload.
///
/// The simulator only owns time and the event set; all domain state and the
/// event loop live in the caller, which pops one event at a time with
/// [`step`](Simulator::step) and may schedule follow-ups while handling it
/// (`netsim`'s runner is the one loop this workspace runs).
///
/// # Examples
///
/// ```
/// use desim::{Simulator, SimDuration};
///
/// let mut sim: Simulator<&'static str> = Simulator::new();
/// sim.schedule_in(SimDuration::from_secs(1), "tick");
/// let mut seen = Vec::new();
/// while let Some((_t, ev)) = sim.step() {
///     seen.push(ev);
///     if seen.len() < 3 {
///         sim.schedule_in(SimDuration::from_secs(1), "tick");
///     }
/// }
/// assert_eq!(seen.len(), 3);
/// assert_eq!(sim.now().as_secs_f64(), 3.0);
/// ```
///
/// Cloning the simulator (`E: Clone`) checkpoints the clock, the pending-event
/// set (see [`EventQueue`]'s clone contract) and the counters: the clone
/// replays the exact future of the original.
#[derive(Debug, Clone)]
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
    stats: SimStats,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at zero.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
            stats: SimStats::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Scheduling-activity counters accumulated since construction.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Schedules `event` for delivery at absolute time `at`, returning a key
    /// for later [`cancel`](Simulator::cancel) / [`reschedule`](Simulator::reschedule).
    ///
    /// Scheduling in the past is clamped to the current instant rather than
    /// panicking: fluid-model rate changes legitimately produce completion
    /// estimates that land "now".
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        let at = at.max(self.now);
        let key = self.queue.push(at, event);
        self.stats.scheduled += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.queue.len() as u64);
        key
    }

    /// Schedules `event` for delivery `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventKey {
        let key = self.queue.push(self.now + delay, event);
        self.stats.scheduled += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.queue.len() as u64);
        key
    }

    /// Cancels a pending event, returning its payload, or `None` if it was
    /// already delivered or cancelled.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let payload = self.queue.cancel(key);
        if payload.is_some() {
            self.stats.cancelled += 1;
        }
        payload
    }

    /// Moves a pending event to the new absolute time `at` (clamped to the
    /// current instant). Returns `false` if the event is no longer pending.
    pub fn reschedule(&mut self, key: EventKey, at: SimTime) -> bool {
        let moved = self.queue.reschedule(key, at.max(self.now));
        if moved {
            self.stats.rescheduled += 1;
        }
        moved
    }

    /// Returns true if the event behind `key` has not yet been delivered or
    /// cancelled.
    pub fn is_pending(&self, key: EventKey) -> bool {
        self.queue.is_pending(key)
    }

    /// Delivery time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Advances the clock to `t` without processing events (no-op if `t` is
    /// in the past). A driver that stops at a time limit with events still
    /// pending uses this to clamp the end-of-run clock to the limit.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Pops the next event and advances the clock to it.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let (t, ev) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue delivered an event in the past");
        self.now = t;
        self.processed += 1;
        Some((t, ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_order_and_advances_clock() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs_f64(2.0), 2);
        sim.schedule_at(SimTime::from_secs_f64(1.0), 1);
        let mut order = Vec::new();
        while let Some((t, ev)) = sim.step() {
            order.push((t.as_secs_f64(), ev));
            if ev == 1 {
                sim.schedule_in(SimDuration::from_millis(500), 3);
            }
        }
        assert_eq!(order, vec![(1.0, 1), (1.5, 3), (2.0, 2)]);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn cancelled_events_are_never_delivered() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs_f64(1.0), 1);
        let key = sim.schedule_at(SimTime::from_secs_f64(2.0), 2);
        sim.schedule_at(SimTime::from_secs_f64(3.0), 3);
        assert_eq!(sim.cancel(key), Some(2));
        assert_eq!(sim.pending(), 2);
        let seen: Vec<u32> = std::iter::from_fn(|| sim.step())
            .map(|(_, ev)| ev)
            .collect();
        assert_eq!(seen, vec![1, 3]);
        assert_eq!(
            sim.events_processed(),
            2,
            "a cancelled event is not a processed event"
        );
    }

    #[test]
    fn queue_of_only_cancelled_events_counts_as_drained() {
        let mut sim: Simulator<()> = Simulator::new();
        let key = sim.schedule_at(SimTime::from_secs_f64(1.0), ());
        sim.cancel(key);
        assert_eq!(sim.pending(), 0);
        assert_eq!((sim.peek_time(), sim.step()), (None, None));
        assert_eq!(sim.now(), SimTime::ZERO, "no event was processed");
    }

    #[test]
    fn reschedule_moves_delivery_and_clamps_to_now() {
        let mut sim: Simulator<u32> = Simulator::new();
        let key = sim.schedule_at(SimTime::from_secs_f64(10.0), 1);
        sim.schedule_at(SimTime::from_secs_f64(2.0), 2);
        assert!(sim.reschedule(key, SimTime::from_secs_f64(1.0)));
        let mut order = Vec::new();
        while let Some((t, ev)) = sim.step() {
            order.push((t.as_secs_f64(), ev));
            if ev == 2 {
                // Rescheduling into the past clamps to now.
                let k = sim.schedule_at(SimTime::from_secs_f64(5.0), 3);
                assert!(sim.reschedule(k, SimTime::from_secs_f64(0.5)));
            }
        }
        assert_eq!(order, vec![(1.0, 1), (2.0, 2), (2.0, 3)]);
    }

    #[test]
    fn advance_to_clamps_upward_only() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.advance_to(SimTime::from_secs_f64(4.0));
        assert_eq!(sim.now(), SimTime::from_secs_f64(4.0));
        sim.advance_to(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.now(), SimTime::from_secs_f64(4.0), "never backwards");
    }

    #[test]
    fn stats_count_scheduling_activity() {
        let mut sim: Simulator<u32> = Simulator::new();
        let a = sim.schedule_at(SimTime::from_secs_f64(1.0), 1);
        let b = sim.schedule_at(SimTime::from_secs_f64(2.0), 2);
        sim.schedule_at(SimTime::from_secs_f64(3.0), 3);
        assert!(sim.reschedule(a, SimTime::from_secs_f64(4.0)));
        assert_eq!(sim.cancel(b), Some(2));
        // Dead keys do not inflate the counters.
        assert!(sim.cancel(b).is_none());
        assert!(!sim.reschedule(b, SimTime::from_secs_f64(9.0)));
        let stats = sim.stats();
        assert_eq!(stats.scheduled, 3);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.rescheduled, 1);
        assert_eq!(stats.max_pending, 3);
        // Stats survive a run and never reset.
        while sim.step().is_some() {}
        assert_eq!(sim.stats().scheduled, 3);
    }

    #[test]
    fn event_keys_expose_dense_raw_ids() {
        let mut sim: Simulator<()> = Simulator::new();
        let a = sim.schedule_at(SimTime::ZERO, ());
        let b = sim.schedule_at(SimTime::ZERO, ());
        assert_eq!(a.raw() + 1, b.raw());
    }

    #[test]
    fn scheduling_in_the_past_is_clamped() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs_f64(5.0), 1);
        while let Some((_, ev)) = sim.step() {
            if ev == 1 {
                // "One second ago" gets delivered immediately, not dropped.
                sim.schedule_at(SimTime::from_secs_f64(4.0), 2);
            }
        }
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(sim.now(), SimTime::from_secs_f64(5.0));
    }
}
