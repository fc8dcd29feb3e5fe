//! `desim` — a small deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the Bullet′ reproduction: every
//! experiment is a discrete-event simulation driven by virtual time. The
//! engine is deliberately minimal — it owns *time* and the *pending event
//! set*, nothing else — so the network emulator (`netsim`) and the overlay
//! protocols build their own state on top of it. The indexed heap under the
//! pending event set, [`IndexedHeap`], is public: `netsim`'s fluid solver
//! orders its links' saturation levels with the same structure.
//!
//! Design properties:
//!
//! * **Deterministic.** Integer nanosecond timestamps, insertion-stable
//!   ordering of simultaneous events, and labelled RNG streams derived from a
//!   single experiment seed make every run bit-for-bit reproducible.
//! * **Payload-generic.** [`Simulator<E>`] is parameterised over the event
//!   payload, so each layer defines its own event vocabulary without dynamic
//!   dispatch.
//! * **Caller-owned state and loop.** The caller pops events with
//!   [`Simulator::step`] and may schedule follow-ups while handling one; all
//!   domain state lives outside the engine, which keeps borrow-checking
//!   simple in large protocol stacks.

#![forbid(unsafe_code)]

pub mod engine;
pub mod heap;
pub mod math;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::{SimStats, Simulator};
pub use heap::IndexedHeap;
pub use math::ln;
pub use queue::{EventKey, EventQueue};
pub use rng::RngFactory;
pub use time::{SimDuration, SimTime, NANOS_PER_SEC};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always come out in non-decreasing time order, regardless of
        /// insertion order.
        #[test]
        fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            let mut popped = 0usize;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                popped += 1;
            }
            prop_assert_eq!(popped, times.len());
        }

        /// Ties are broken by insertion order (FIFO), for any grouping of
        /// duplicate timestamps.
        #[test]
        fn queue_ties_are_fifo(times in proptest::collection::vec(0u64..16, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut last_per_time = std::collections::HashMap::new();
            while let Some((t, idx)) = q.pop() {
                if let Some(prev) = last_per_time.insert(t, idx) {
                    prop_assert!(idx > prev, "FIFO violated at {:?}", t);
                }
            }
        }

        /// Under arbitrary interleavings of cancels and reschedules, the queue
        /// delivers exactly the surviving entries, in time order, at their
        /// final delivery times.
        #[test]
        fn queue_cancel_reschedule_consistent(
            times in proptest::collection::vec(0u64..10_000, 1..100),
            cancels in proptest::collection::vec(any::<usize>(), 0..30),
            move_targets in proptest::collection::vec(any::<usize>(), 0..30),
            move_times in proptest::collection::vec(0u64..10_000, 0..30),
        ) {
            let mut q = EventQueue::new();
            let keys: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, t)| q.push(SimTime::from_nanos(*t), i))
                .collect();
            let mut expect: std::collections::HashMap<usize, u64> =
                times.iter().copied().enumerate().collect();
            for (idx, at) in move_targets.iter().zip(move_times.iter()) {
                let i = idx % keys.len();
                if q.reschedule(keys[i], SimTime::from_nanos(*at)) {
                    expect.insert(i, *at);
                }
            }
            for idx in &cancels {
                let i = idx % keys.len();
                if q.cancel(keys[i]).is_some() {
                    expect.remove(&i);
                }
            }
            prop_assert_eq!(q.len(), expect.len());
            let mut last = SimTime::ZERO;
            let mut seen = std::collections::HashMap::new();
            while let Some((t, i)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                seen.insert(i, t.as_nanos());
            }
            prop_assert_eq!(seen, expect);
        }

        /// The simulator clock never moves backwards and processes every event
        /// when unbounded.
        #[test]
        fn simulator_clock_monotone(delays in proptest::collection::vec(0u64..10_000, 1..100)) {
            let mut sim: Simulator<usize> = Simulator::new();
            for (i, d) in delays.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(*d), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0usize;
            while let Some((t, _)) = sim.step() {
                prop_assert!(t >= last);
                prop_assert_eq!(sim.now(), t);
                last = t;
                count += 1;
            }
            prop_assert_eq!(count, delays.len());
        }

        /// Identical seeds and labels give identical streams.
        #[test]
        fn rng_streams_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
            use rand::Rng;
            let f = RngFactory::new(seed);
            let mut a = f.stream(&label);
            let mut b = f.stream(&label);
            let va: [u64; 4] = [a.gen(), a.gen(), a.gen(), a.gen()];
            let vb: [u64; 4] = [b.gen(), b.gen(), b.gen(), b.gen()];
            prop_assert_eq!(va, vb);
        }
    }
}
