//! The pending-event set.
//!
//! An [`IndexedHeap`] over a slab, guaranteeing *stable* ordering — events
//! scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO) — and supporting **cancellation** and **rescheduling** by
//! key. The heap holds exactly the pending events: a cancelled or rescheduled
//! event leaves nothing stale behind, so the heap never outgrows the pending
//! count and its root is always the next event.
//!
//! * A heap node's key is the event's delivery order, `(time, seq)` packed
//!   into one `u128` (time in the high half, so comparing the packed integers
//!   compares time first and the insertion sequence second); its handle is
//!   the index of the event's slot.
//! * A slot holds the payload and the id of the key that was issued for it.
//!   Slots of delivered or cancelled events go on a free list and are reused
//!   by later pushes.
//! * [`EventQueue::push`] returns an [`EventKey`] carrying that id and the
//!   slot index. Ids are never reused, so a key whose slot now holds a later
//!   event finds a different id there and reports the entry dead.
//! * [`EventQueue::cancel`] removes the slot's node in place, and
//!   [`EventQueue::cancel_where`] every pending event whose payload matches
//!   a predicate, without a key;
//!   [`EventQueue::reschedule`] gives it a fresh `seq`; [`EventQueue::pop`]
//!   and [`EventQueue::peek_time`] read the root.
//!
//! Stability matters for reproducibility — protocol handlers frequently
//! schedule several zero-delay follow-ups and their relative order must not
//! depend on heap internals. A rescheduled event takes the insertion order of
//! its *reschedule*, exactly as if it had been cancelled and pushed anew.
//! Every pending event has a distinct `(time, seq)`, so the delivery order is
//! total and independent of the heap's layout.

use crate::heap::IndexedHeap;
use crate::time::SimTime;

/// An opaque handle to a scheduled event, unique for the lifetime of the
/// queue that issued it. Cancelled/delivered keys are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey {
    id: u64,
    slot: u32,
}

impl EventKey {
    /// The dense id behind the key. Keys are issued sequentially from 0 by
    /// each queue, so the raw id doubles as a stable, compact identifier in
    /// trace records and other observability output.
    pub fn raw(self) -> u64 {
        self.id
    }
}

/// A slab slot: the payload of a pending event (`None` once delivered or
/// cancelled) and the id of the key issued for it.
#[derive(Debug, Clone)]
struct Slot<E> {
    id: u64,
    payload: Option<E>,
}

/// Packs a delivery order: time first, then insertion sequence.
fn order(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// The delivery time of a packed order.
fn time_of(order: u128) -> SimTime {
    SimTime::from_nanos((order >> 64) as u64)
}

/// A time-ordered, insertion-stable queue of pending events with keyed
/// cancellation and rescheduling.
///
/// Cloning the queue (`E: Clone`) is an exact checkpoint: the slab, its free
/// list and the heap are copied verbatim, so the clone pops the identical
/// `(time, payload)` sequence, reuses the same slots and issues the same
/// future keys as the original.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The pending events' slots, keyed by delivery order.
    heap: IndexedHeap<u128>,
    /// Every slot ever allocated; pending ones hold a payload.
    slots: Vec<Slot<E>>,
    /// Slots without a payload, reused last-freed first.
    free: Vec<u32>,
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
            heap: IndexedHeap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            next_key: 0,
        }
    }

    /// Inserts `payload` for delivery at `at`. Returns a key that can later
    /// be used to [`cancel`](EventQueue::cancel) or
    /// [`reschedule`](EventQueue::reschedule) the entry.
    pub fn push(&mut self, at: SimTime, payload: E) -> EventKey {
        let id = self.next_key;
        self.next_key += 1;
        let entry = Slot {
            id,
            payload: Some(payload),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                u32::try_from(self.slots.len() - 1)
                    .expect("an event queue holds fewer than 2^32 pending events")
            }
        };
        let order = self.next_order(at);
        self.heap.push(slot, order);
        EventKey { id, slot }
    }

    /// Cancels the entry behind `key`, returning its payload, or `None` if
    /// the entry was already delivered or cancelled. Its node is removed from
    /// the heap in place.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        if !self.is_pending(key) {
            return None;
        }
        self.heap.remove(key.slot);
        Some(self.release(key.slot))
    }

    /// Cancels every pending entry whose payload satisfies `pred`, scanning
    /// the slab in slot order, and returns how many it cancelled. The caller
    /// needs no keys: this is how a set of events nobody kept keys for (a
    /// node's timers) goes at once, for one pass over the slab.
    pub fn cancel_where(&mut self, mut pred: impl FnMut(&E) -> bool) -> usize {
        let mut cancelled = 0;
        for slot in 0..self.slots.len() as u32 {
            if self.slots[slot as usize]
                .payload
                .as_ref()
                .is_some_and(&mut pred)
            {
                self.heap.remove(slot);
                self.release(slot);
                cancelled += 1;
            }
        }
        cancelled
    }

    /// Moves the entry behind `key` to delivery time `at`, keeping its
    /// payload. Returns `false` if the entry is no longer pending. The entry
    /// is re-sequenced: among events at the new instant it is delivered as if
    /// it had just been scheduled.
    pub fn reschedule(&mut self, key: EventKey, at: SimTime) -> bool {
        if !self.is_pending(key) {
            return false;
        }
        let order = self.next_order(at);
        self.heap.set_key(key.slot, order);
        true
    }

    /// Returns true if the entry behind `key` is still pending. A key whose
    /// slot was freed, or reused by a later push, finds no payload or another
    /// id there.
    pub fn is_pending(&self, key: EventKey) -> bool {
        self.slots
            .get(key.slot as usize)
            .is_some_and(|slot| slot.id == key.id && slot.payload.is_some())
    }

    /// Removes and returns the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (order, slot) = self.heap.pop()?;
        Some((time_of(order), self.release(slot)))
    }

    /// Returns the delivery time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|(order, _)| time_of(order))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The next delivery order for an event at `at`.
    fn next_order(&mut self, at: SimTime) -> u128 {
        let seq = self.next_seq;
        self.next_seq += 1;
        order(at, seq)
    }

    /// Takes the payload out of `slot` and puts the slot on the free list.
    fn release(&mut self, slot: u32) -> E {
        self.free.push(slot);
        self.slots[slot as usize]
            .payload
            .take()
            .expect("a pending entry's slot holds its payload")
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
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 0u8);
        q.push(SimTime::ZERO, 1u8);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        q.pop();
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
        // The cancelled entry never surfaces.
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
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(20)));
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
        assert_eq!((q.heap.len(), q.slots.len()), (1, 1), "one node, one slot");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(999));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_cancel_cycles_keep_the_slab_at_the_peak_pending_count() {
        let mut q = EventQueue::new();
        let mut keys = std::collections::VecDeque::new();
        let mut peak = 0;
        for i in 0..1000u64 {
            // Up to 7 pending at once, cancelled oldest first.
            keys.push_back(q.push(SimTime::from_nanos(i * 7 % 13), i));
            peak = peak.max(q.len());
            if keys.len() == 7 || i % 3 == 0 {
                let key = keys.pop_front().unwrap();
                assert!(q.cancel(key).is_some());
            }
            assert_eq!(q.heap.len(), q.len(), "the heap holds only pending events");
        }
        assert_eq!(peak, 7);
        assert!(
            q.slots.len() <= peak,
            "{} slots for a peak of {peak}",
            q.slots.len()
        );
    }

    #[test]
    fn a_reused_slot_does_not_answer_to_the_old_key() {
        let mut q = EventQueue::new();
        let old = q.push(SimTime::from_nanos(10), "old");
        assert_eq!(q.pop().unwrap().1, "old");
        assert!(!q.heap.contains(old.slot), "a delivered slot has no node");
        let new = q.push(SimTime::from_nanos(20), "new");
        assert_eq!(old.slot, new.slot, "the freed slot is reused");
        assert!(q.heap.contains(new.slot));
        assert!(!q.is_pending(old));
        assert_eq!(q.cancel(old), None);
        assert!(!q.reschedule(old, SimTime::from_nanos(5)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "new")));
    }
}
