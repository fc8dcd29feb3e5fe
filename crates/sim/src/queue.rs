//! The pending-event set.
//!
//! A binary heap of `(time, sequence, key)` triples over a side table of live
//! entries, guaranteeing *stable* ordering — events scheduled for the same
//! instant are delivered in the order they were scheduled (FIFO) — and
//! supporting **cancellation** and **rescheduling** by key:
//!
//! * [`EventQueue::push`] returns an [`EventKey`] that identifies the entry
//!   for the lifetime of the queue;
//! * [`EventQueue::cancel`] removes the entry (returning its payload) without
//!   touching the heap — the heap triple becomes a tombstone that is
//!   discarded lazily when it reaches the top;
//! * [`EventQueue::reschedule`] moves an entry to a new delivery time by
//!   pushing a fresh heap triple with a new sequence number and bumping the
//!   live entry's expected sequence, so the old triple turns stale in place.
//!
//! Stability matters for reproducibility — protocol handlers frequently
//! schedule several zero-delay follow-ups and their relative order must not
//! depend on heap internals. A rescheduled event takes the insertion order of
//! its *reschedule*, exactly as if it had been cancelled and pushed anew.
//!
//! The live table is a `HashMap` keyed by the opaque `u64` inside
//! [`EventKey`]; it is only ever accessed by key (never iterated), so it
//! introduces no iteration-order nondeterminism. The keys are the queue's own
//! sequential counter — nothing outside the program chooses them — so the
//! table hashes them with one multiplication (`KeyHasher`) instead of the
//! default SipHash, which every dispatched event would otherwise pay four
//! times (peek, pop twice, push).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::SimTime;

/// An opaque handle to a scheduled event, unique for the lifetime of the
/// queue that issued it. Cancelled/delivered keys are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey(u64);

impl EventKey {
    /// The dense id behind the key. Keys are issued sequentially from 0 by
    /// each queue, so the raw id doubles as a stable, compact identifier in
    /// trace records and other observability output.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A heap triple: delivery time, insertion sequence, and the key of the entry
/// it belongs to. The payload lives in the side table so reschedules do not
/// need to clone it.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    key: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Fibonacci hashing for the live table's private sequential `u64` keys: one
/// multiplication by 2⁶⁴/φ spreads consecutive keys over both the low bits
/// (the table's bucket index) and the high bits (its control tag).
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the live table hashes u64 keys only");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A live entry: the sequence number of its current heap triple (older
/// triples for the same key are tombstones) plus the payload.
#[derive(Debug, Clone)]
struct LiveEntry<E> {
    seq: u64,
    at: SimTime,
    payload: E,
}

/// A time-ordered, insertion-stable queue of pending events with keyed
/// cancellation and rescheduling.
///
/// Cloning the queue (`E: Clone`) is an exact checkpoint: the heap's backing
/// vector — tombstones included — and the live table are copied verbatim, so
/// the clone pops the identical `(time, payload)` sequence and issues the
/// same future keys as the original. The live table is only ever accessed by
/// key (never iterated), so the clone's `HashMap` layout cannot influence
/// behaviour.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry>,
    live: HashMap<u64, LiveEntry<E>, BuildHasherDefault<KeyHasher>>,
    next_seq: u64,
    next_key: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: HashMap::default(),
            next_seq: 0,
            next_key: 0,
        }
    }

    /// Inserts `payload` for delivery at `at`. Returns a key that can later
    /// be used to [`cancel`](EventQueue::cancel) or
    /// [`reschedule`](EventQueue::reschedule) the entry.
    pub fn push(&mut self, at: SimTime, payload: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.next_key;
        self.next_key += 1;
        self.heap.push(HeapEntry { at, seq, key });
        self.live.insert(key, LiveEntry { seq, at, payload });
        EventKey(key)
    }

    /// Cancels the entry behind `key`, returning its payload, or `None` if
    /// the entry was already delivered, cancelled, or cleared. O(1): the heap
    /// triple is left behind as a tombstone and skipped on pop.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        self.live.remove(&key.0).map(|e| e.payload)
    }

    /// Moves the entry behind `key` to delivery time `at`, keeping its
    /// payload. Returns `false` if the entry is no longer pending. The entry
    /// is re-sequenced: among events at the new instant it is delivered as if
    /// it had just been scheduled.
    pub fn reschedule(&mut self, key: EventKey, at: SimTime) -> bool {
        let Some(entry) = self.live.get_mut(&key.0) else {
            return false;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        entry.seq = seq;
        entry.at = at;
        self.heap.push(HeapEntry {
            at,
            seq,
            key: key.0,
        });
        true
    }

    /// Returns true if the entry behind `key` is still pending.
    pub fn is_pending(&self, key: EventKey) -> bool {
        self.live.contains_key(&key.0)
    }

    /// Removes and returns the earliest pending event, if any, discarding any
    /// tombstones (cancelled or superseded triples) encountered on the way.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(top) = self.heap.pop() {
            let is_current = self
                .live
                .get(&top.key)
                .is_some_and(|entry| entry.seq == top.seq);
            if is_current {
                let entry = self.live.remove(&top.key).expect("checked above");
                return Some((top.at, entry.payload));
            }
        }
        None
    }

    /// Returns the delivery time of the earliest pending event, if any.
    /// Prunes stale heap tombstones from the top as a side effect (which is
    /// why this takes `&mut self`).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(top) = self.heap.peek() {
            let is_current = self
                .live
                .get(&top.key)
                .is_some_and(|entry| entry.seq == top.seq);
            if is_current {
                return Some(top.at);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of pending (live) events. Tombstones do not count.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs_f64(1.0);
        for i in 0..100u32 {
            q.push(t, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::ZERO + SimDuration::from_millis(5), 1u8);
        q.push(SimTime::ZERO + SimDuration::from_millis(2), 2u8);
        assert_eq!(q.peek_time().unwrap(), SimTime::from_nanos(2_000_000));
        let (t, v) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), v), (2_000_000, 2));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0u8);
        q.push(SimTime::ZERO, 1u8);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_removes_entry_and_returns_payload() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(10), "a");
        let b = q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.len(), 2);
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.len(), 1);
        assert!(!q.is_pending(a));
        assert!(q.is_pending(b));
        // Double-cancel is a no-op.
        assert_eq!(q.cancel(a), None);
        // The tombstone never surfaces.
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_top_does_not_mask_peek() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(5), "a");
        q.push(SimTime::from_nanos(10), "b");
        q.cancel(a);
        assert_eq!(q.peek_time().unwrap(), SimTime::from_nanos(10));
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn reschedule_moves_forward_and_backward() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(10), "a");
        let _b = q.push(SimTime::from_nanos(20), "b");
        // Push "a" later than "b"...
        assert!(q.reschedule(a, SimTime::from_nanos(30)));
        assert_eq!(q.live[&a.0].at, SimTime::from_nanos(30));
        assert_eq!(q.len(), 2, "reschedule does not change the live count");
        // ...then earlier again.
        assert!(q.reschedule(a, SimTime::from_nanos(15)));
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
        // Keys of delivered entries are dead.
        assert!(!q.reschedule(a, SimTime::from_nanos(99)));
    }

    #[test]
    fn rescheduled_event_is_fifo_at_its_new_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        let a = q.push(t, "a");
        q.push(t, "b");
        // Rescheduling "a" to the same instant moves it behind "b": it now has
        // the insertion order of the reschedule.
        assert!(q.reschedule(a, t));
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "a");
    }

    #[test]
    fn reschedule_after_cancel_fails() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(10), 7u8);
        q.cancel(a);
        assert!(!q.reschedule(a, SimTime::from_nanos(20)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn many_reschedules_leave_no_live_residue() {
        let mut q = EventQueue::new();
        let key = q.push(SimTime::from_nanos(0), 0u32);
        for i in 1..1000u64 {
            assert!(q.reschedule(key, SimTime::from_nanos(i)));
        }
        assert_eq!(q.len(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(999));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
