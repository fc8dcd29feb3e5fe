//! Model-based oracle test for [`desim::EventQueue`].
//!
//! The real queue is an indexed heap over a slab whose slots are recycled —
//! enough machinery that subtle bugs (a reschedule keeping its old sequence
//! number, a stale key reaching the event that reused its slot, a heap
//! position not updated after a sift) would be easy to introduce. The oracle
//! is deliberately naive: a `Vec` of `(time, seq, id)` entries scanned for
//! its minimum, where `reschedule` is literally remove-then-reinsert with a
//! fresh sequence number. Random interleavings of `push` / `cancel` /
//! `reschedule` / `pop` / `peek_time` / `is_pending` / `len` must get the
//! same answer from both queues at every step, and leave both popping the
//! *identical* payload sequence.

use desim::{EventKey, EventQueue, SimTime};
use proptest::prelude::*;

/// The trivially correct model: entries ordered by (time, insertion seq).
#[derive(Debug, Clone, Default)]
struct ModelQueue {
    /// `(delivery time, sequence, payload id)` of every live entry.
    entries: Vec<(u64, u64, usize)>,
    next_seq: u64,
}

impl ModelQueue {
    fn push(&mut self, at: u64, id: usize) {
        self.entries.push((at, self.next_seq, id));
        self.next_seq += 1;
    }

    fn position(&self, id: usize) -> Option<usize> {
        self.entries.iter().position(|&(_, _, i)| i == id)
    }

    fn cancel(&mut self, id: usize) -> bool {
        self.position(id)
            .map(|pos| self.entries.remove(pos))
            .is_some()
    }

    /// Remove-then-reinsert: the rescheduled entry sequences as if it had
    /// just been pushed, which is exactly the contract of
    /// [`EventQueue::reschedule`].
    fn reschedule(&mut self, id: usize, at: u64) -> bool {
        let live = self.cancel(id);
        if live {
            self.push(at, id);
        }
        live
    }

    fn earliest(&self) -> Option<usize> {
        (0..self.entries.len()).min_by_key(|&i| self.entries[i])
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let (t, _, id) = self.entries.remove(self.earliest()?);
        Some((t, id))
    }

    fn peek_time(&self) -> Option<u64> {
        self.earliest().map(|i| self.entries[i].0)
    }
}

/// One generated operation: `(kind, time, target)`. `time` is the delivery
/// instant of a push or reschedule; `target` picks the entry an operation on
/// a key aims at (modulo the number of candidates). See [`Harness::apply`]
/// for the kinds.
type Op = (u8, u64, usize);

/// The kinds an [`Op`] draws from (`0..KINDS`).
const KINDS: u8 = 16;

/// Names for the kinds of [`Harness::apply`] that the drain and the
/// hand-written interleaving use.
const PUSH: u8 = 0;
const CANCEL: u8 = 5;
const RESCHEDULE: u8 = 6;
const POP: u8 = 7;

/// What one operation returned.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Pushed,
    Cancelled(bool),
    Moved(bool),
    Popped(Option<(u64, usize)>),
    Peeked(Option<u64>),
    Pending(bool),
    Len(usize),
    /// An operation on a key with no key to aim at.
    Skipped,
}

/// The real queue and the model side by side, with the key of every push
/// ever made (the payload is the push's index) and the payloads delivered so
/// far, whose keys are dead and whose slots later pushes reuse.
#[derive(Debug, Clone, Default)]
struct Harness {
    queue: EventQueue<usize>,
    model: ModelQueue,
    keys: Vec<EventKey>,
    delivered: Vec<usize>,
}

impl Harness {
    /// Applies `op` to both queues, asserts they answered alike, and returns
    /// the answer. Kinds: 0–4 and 15 push; 5 cancels, 6 reschedules and 10
    /// asks `is_pending` of any key ever issued; 7–8 pop; 9 peeks; 11 asks
    /// `len`; 12 cancels, 13 reschedules and 14 asks `is_pending` of a key
    /// whose entry was already delivered — its slot freed and, after any
    /// later push, holding another entry that must not be touched.
    fn apply(&mut self, (kind, time, target): Op) -> Seen {
        let aimed = match kind {
            5 | 6 | 10 if !self.keys.is_empty() => Some(target % self.keys.len()),
            12..=14 if !self.delivered.is_empty() => {
                Some(self.delivered[target % self.delivered.len()])
            }
            _ => None,
        };
        let (real, modelled) = match (kind, aimed) {
            (0..=4 | 15, _) => {
                let id = self.keys.len();
                self.keys
                    .push(self.queue.push(SimTime::from_nanos(time), id));
                self.model.push(time, id);
                (Seen::Pushed, Seen::Pushed)
            }
            (5 | 12, Some(id)) => (
                Seen::Cancelled(self.queue.cancel(self.keys[id]).is_some()),
                Seen::Cancelled(self.model.cancel(id)),
            ),
            (6 | 13, Some(id)) => (
                Seen::Moved(
                    self.queue
                        .reschedule(self.keys[id], SimTime::from_nanos(time)),
                ),
                Seen::Moved(self.model.reschedule(id, time)),
            ),
            (10 | 14, Some(id)) => (
                Seen::Pending(self.queue.is_pending(self.keys[id])),
                Seen::Pending(self.model.position(id).is_some()),
            ),
            (7 | 8, _) => {
                let popped = self.queue.pop().map(|(t, id)| (t.as_nanos(), id));
                if let Some((_, id)) = popped {
                    self.delivered.push(id);
                }
                (Seen::Popped(popped), Seen::Popped(self.model.pop()))
            }
            (9, _) => (
                Seen::Peeked(self.queue.peek_time().map(SimTime::as_nanos)),
                Seen::Peeked(self.model.peek_time()),
            ),
            (11, _) => (
                Seen::Len(self.queue.len()),
                Seen::Len(self.model.entries.len()),
            ),
            _ => (Seen::Skipped, Seen::Skipped),
        };
        if matches!(kind, 12..=14) && aimed.is_some() {
            assert!(
                matches!(
                    real,
                    Seen::Cancelled(false) | Seen::Moved(false) | Seen::Pending(false)
                ),
                "a delivered entry's key answered {real:?}"
            );
        }
        assert_eq!(real, modelled, "op {:?} diverged", (kind, time, target));
        real
    }

    /// Applies every op in turn, returning the answers.
    fn run(&mut self, ops: &[Op]) -> Vec<Seen> {
        ops.iter().map(|&op| self.apply(op)).collect()
    }

    /// Pops until both queues are empty, returning what came out.
    fn drain(&mut self) -> Vec<Seen> {
        let mut out = Vec::new();
        loop {
            match self.apply((POP, 0, 0)) {
                Seen::Popped(None) => return out,
                popped => out.push(popped),
            }
        }
    }
}

/// A whole interleaving's answers, the final drain included.
fn run_interleaving(ops: &[Op]) -> Vec<Seen> {
    let mut harness = Harness::default();
    let mut seen = harness.run(ops);
    seen.extend(harness.drain());
    seen
}

/// Replays `ops`, cloning the harness after `cut` operations (a snapshot)
/// and running the remainder and the drain on the *clone*. Returns the
/// answers of the prefix and the clone together, and what the abandoned
/// original pops when drained — the harness for the checkpoint/fork
/// contract: a cloned queue answers exactly like one that was never
/// snapshotted, and mutating the clone leaves the original frozen at the cut.
fn run_with_snapshot(ops: &[Op], cut: usize) -> (Vec<Seen>, Vec<Seen>) {
    let (prefix, rest) = ops.split_at(cut % (ops.len() + 1));
    let mut original = Harness::default();
    let mut seen = original.run(prefix);
    // The snapshot: keys issued before the cut stay valid against the clone,
    // because a clone preserves the whole key space.
    let mut snap = original.clone();
    seen.extend(snap.run(rest));
    seen.extend(snap.drain());
    (seen, original.drain())
}

/// Ops whose kinds cover the whole alphabet, at instants below `times`.
fn op_sequences(times: u64, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u8..KINDS, 0u64..times, any::<usize>()), len)
}

proptest! {
    /// Any interleaving of the seven operations gets the same answer from the
    /// indexed heap and the naive model at every step — same entries popped
    /// in the same order, including FIFO tie-breaks among equal timestamps.
    #[test]
    fn queue_pops_exactly_like_the_sorted_vec_model(ops in op_sequences(1_000, 1..300)) {
        run_interleaving(&ops);
    }

    /// Dense timestamp collisions (every event lands on one of four
    /// instants) stress the FIFO tie-break and the sifts between equal times.
    #[test]
    fn collision_heavy_interleavings_match_the_model(ops in op_sequences(4, 1..300)) {
        run_interleaving(&ops);
    }

    /// A snapshot (clone) taken at a random point of the interleaving — after
    /// pops as well as pushes — with the remaining operations applied to the
    /// clone, answers exactly like a queue that was never snapshotted, and the
    /// abandoned original stays frozen at the cut (the clone shares no
    /// mutable state with it).
    #[test]
    fn snapshot_restore_at_a_random_point_pops_identically(
        ops in op_sequences(50, 1..200),
        cut in any::<usize>(),
    ) {
        let straight = run_interleaving(&ops);
        let (resumed, frozen) = run_with_snapshot(&ops, cut);
        prop_assert_eq!(resumed, straight, "the restored queue diverged");
        // The original, never touched after the cut, must pop exactly what a
        // prefix-only run pops: post-cut mutations must not leak into it.
        let prefix = &ops[..cut % (ops.len() + 1)];
        let mut prefix_only = Harness::default();
        prefix_only.run(prefix);
        prop_assert_eq!(frozen, prefix_only.drain(), "the snapshot original was mutated");
    }
}

#[test]
fn oracle_catches_ordering_differences() {
    // Sanity-check the harness itself: a hand-built interleaving with a
    // reschedule into a tie must pop the rescheduled entry last among its
    // instant, in both implementations.
    let ops: Vec<Op> = vec![
        (PUSH, 10, 0),       // id 0 @ 10
        (PUSH, 10, 0),       // id 1 @ 10
        (PUSH, 5, 0),        // id 2 @ 5
        (RESCHEDULE, 10, 2), // reschedule id 2 → 10 (now sequences after ids 0, 1)
        (CANCEL, 0, 1),      // cancel id 1
    ];
    let seen = run_interleaving(&ops);
    assert_eq!(
        seen[ops.len()..],
        [Seen::Popped(Some((10, 0))), Seen::Popped(Some((10, 2)))]
    );
}
