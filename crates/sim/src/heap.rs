//! An indexed binary min-heap over dense `u32` handles.
//!
//! A node is a `(key, handle)` pair; nodes are ordered by key and then by
//! handle, and a position table indexed by handle says where each handle's
//! node sits. That table is what makes a handle addressable: its key can be
//! changed in place ([`IndexedHeap::set_key`]) or the node removed
//! ([`IndexedHeap::remove`]) in O(log n), so the heap never holds a stale
//! entry and never holds more nodes than live handles.
//!
//! Two callers order their work with it: [`crate::EventQueue`] (the handle
//! is a slab slot, the key the event's packed `(time, seq)` order) and
//! `netsim`'s progressive-filling solver (the handle is a link, the key its
//! saturation level). A handle has at most one node, so with the handle as
//! the tie-break the order is total: the root is a pure function of the
//! `(key, handle)` set, whatever sequence of operations produced it.

/// Children per node. A 4-ary heap of the same nodes is half as deep but ran
/// slower in paired benchmark runs, and so did a binary sift that picks the
/// smaller child with an `if` on the comparison instead of `min_by_key` over
/// the child slice (see `sift_down`, whose tie check is written for a pair).
const ARITY: usize = 2;
const _: () = assert!(ARITY == 2, "sift_down breaks key ties between two children");

/// Position-table entry of a handle that has no node.
const ABSENT: u32 = u32::MAX;

/// A heap node, ordered by `key` and then by `handle` (see [`Node::after`]).
#[derive(Debug, Clone, Copy)]
struct Node<K> {
    key: K,
    handle: u32,
}

impl<K: Ord> Node<K> {
    /// True if `self` comes after `other`: a larger key, or an equal key and
    /// a larger handle. A smaller key, the common case in a sift, is decided
    /// by the first comparison, and handles are compared only when the keys
    /// are equal, which the event queue's never are. (A derived
    /// lexicographic `Ord` orders the same but ran slower in the sifts.)
    fn after(&self, other: &Self) -> bool {
        self.key >= other.key && (self.key != other.key || self.handle > other.handle)
    }
}

/// See the module documentation.
#[derive(Debug, Clone)]
pub struct IndexedHeap<K> {
    /// Nodes in heap order.
    nodes: Vec<Node<K>>,
    /// Handle → index of its node in `nodes`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl<K> Default for IndexedHeap<K> {
    fn default() -> Self {
        IndexedHeap {
            nodes: Vec::new(),
            pos: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> IndexedHeap<K> {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true if the heap has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns true while `handle` has a node.
    pub fn contains(&self, handle: u32) -> bool {
        self.pos.get(handle as usize).is_some_and(|&i| i != ABSENT)
    }

    /// The smallest `(key, handle)`, if any.
    pub fn peek(&self) -> Option<(K, u32)> {
        self.nodes.first().map(|root| (root.key, root.handle))
    }

    /// Adds `handle`, which must be absent, with `key`.
    pub fn push(&mut self, handle: u32, key: K) {
        let i = self.nodes.len();
        self.enter(handle, i);
        self.nodes.push(Node { key, handle });
        self.sift_up(i);
    }

    /// Removes and returns the smallest `(key, handle)`, if any.
    pub fn pop(&mut self) -> Option<(K, u32)> {
        let root = *self.nodes.first()?;
        self.remove_at(0);
        Some((root.key, root.handle))
    }

    /// Changes the key of `handle`, which must be present.
    pub fn set_key(&mut self, handle: u32, key: K) {
        let i = self.position(handle);
        self.nodes[i].key = key;
        self.fix(i);
    }

    /// Removes `handle`, which must be present.
    pub fn remove(&mut self, handle: u32) {
        self.remove_at(self.position(handle));
    }

    /// Replaces the contents with `entries` (`(handle, key)`, each handle at
    /// most once) in O(old len + new len), reusing the buffers.
    pub fn rebuild(&mut self, entries: impl IntoIterator<Item = (u32, K)>) {
        for node in self.nodes.drain(..) {
            self.pos[node.handle as usize] = ABSENT;
        }
        for (handle, key) in entries {
            let i = self.nodes.len();
            self.enter(handle, i);
            self.nodes.push(Node { key, handle });
        }
        // Sifting down a leaf is a no-op, so this covers every parent.
        for i in (0..self.nodes.len().div_ceil(ARITY)).rev() {
            self.sift_down(i);
        }
    }

    /// Records that absent `handle`'s node will sit at index `i`, growing
    /// the position table to reach it.
    fn enter(&mut self, handle: u32, i: usize) {
        let h = handle as usize;
        if h >= self.pos.len() {
            self.pos.resize(h + 1, ABSENT);
        }
        debug_assert_eq!(self.pos[h], ABSENT, "handle {handle} entered twice");
        self.pos[h] = index(i);
    }

    /// The index of present `handle`'s node.
    fn position(&self, handle: u32) -> usize {
        debug_assert!(self.contains(handle), "handle {handle} is absent");
        self.pos[handle as usize] as usize
    }

    /// Removes the node at index `i`: the last node takes its place and is
    /// sifted to where it belongs.
    fn remove_at(&mut self, i: usize) {
        self.pos[self.nodes[i].handle as usize] = ABSENT;
        let last = self.nodes.pop().expect("index i holds a node");
        if i < self.nodes.len() {
            self.place(i, last);
            self.fix(i);
        }
    }

    /// Restores heap order around index `i` after its node changed.
    fn fix(&mut self, i: usize) {
        if i > 0 && self.nodes[(i - 1) / ARITY].after(&self.nodes[i]) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let node = self.nodes[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if node.after(&self.nodes[parent]) {
                break;
            }
            self.place(i, self.nodes[parent]);
            i = parent;
        }
        self.place(i, node);
    }

    fn sift_down(&mut self, mut i: usize) {
        let node = self.nodes[i];
        loop {
            let first = ARITY * i + 1;
            let Some(children) = self.nodes.get(first..(first + ARITY).min(self.nodes.len()))
            else {
                break;
            };
            // The pick compares keys alone: comparing whole nodes there made
            // the queue's operations a quarter to a third slower. Of two
            // equal keys `min_by_key` keeps the first; the order wants the
            // smaller handle.
            let Some((mut offset, &(mut child))) =
                children.iter().enumerate().min_by_key(|&(_, c)| c.key)
            else {
                break;
            };
            if let [left, right] = children {
                if left.key == right.key && right.handle < left.handle {
                    (offset, child) = (1, *right);
                }
            }
            if child.after(&node) {
                break;
            }
            self.place(i, child);
            i = first + offset;
        }
        self.place(i, node);
    }

    /// Puts `node` at index `i` and records the index for its handle.
    fn place(&mut self, i: usize, node: Node<K>) {
        self.nodes[i] = node;
        self.pos[node.handle as usize] = index(i);
    }
}

/// A node index as stored in the position table.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("an indexed heap holds fewer than 2^32 - 1 nodes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive model: handle → key, minimum found by a full scan.
    fn model_min(model: &[Option<u8>]) -> Option<(u8, u32)> {
        model
            .iter()
            .enumerate()
            .filter_map(|(h, key)| key.map(|k| (k, h as u32)))
            .min()
    }

    fn check(heap: &IndexedHeap<u8>, model: &[Option<u8>]) {
        prop_assert_eq!(
            heap.peek(),
            model_min(model),
            "minimum differs from the scan"
        );
        for (h, key) in model.iter().enumerate() {
            prop_assert_eq!(heap.contains(h as u32), key.is_some());
        }
        prop_assert_eq!(heap.len(), model.iter().flatten().count());
        prop_assert_eq!(heap.is_empty(), model.iter().all(Option::is_none));
    }

    /// Keys from a grid of eight, so equal keys (ordered by handle) are
    /// common.
    fn key(raw: u8) -> u8 {
        raw % 8
    }

    proptest! {
        /// Rebuild from a random set, then random push / pop / set-key /
        /// remove / rebuild steps, then drain by pop: after every step the
        /// heap's minimum, membership and size are the scan model's, and
        /// every pop returns the model's minimum.
        #[test]
        fn indexed_heap_matches_a_minimum_scan(
            initial in proptest::collection::vec((any::<bool>(), any::<u8>()), 1..40),
            ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..160),
        ) {
            let n = initial.len();
            let mut model: Vec<Option<u8>> = initial
                .iter()
                .map(|&(present, raw)| present.then(|| key(raw)))
                .collect();
            let mut heap = IndexedHeap::default();
            let entries = |model: &[Option<u8>]| -> Vec<(u32, u8)> {
                model
                    .iter()
                    .enumerate()
                    .filter_map(|(h, k)| k.map(|k| (h as u32, k)))
                    .collect()
            };
            heap.rebuild(entries(&model));
            check(&heap, &model);
            for &(op, pick, raw) in &ops {
                let present: Vec<usize> = (0..n).filter(|&h| model[h].is_some()).collect();
                let absent: Vec<usize> = (0..n).filter(|&h| model[h].is_none()).collect();
                match op % 5 {
                    0 if !absent.is_empty() => {
                        let h = absent[usize::from(pick) % absent.len()];
                        model[h] = Some(key(raw));
                        heap.push(h as u32, key(raw));
                    }
                    1 => {
                        let want = model_min(&model);
                        if let Some((_, h)) = want {
                            model[h as usize] = None;
                        }
                        prop_assert_eq!(heap.pop(), want);
                    }
                    2 if !present.is_empty() => {
                        let h = present[usize::from(pick) % present.len()];
                        model[h] = Some(key(raw));
                        heap.set_key(h as u32, key(raw));
                    }
                    3 if !present.is_empty() => {
                        let h = present[usize::from(pick) % present.len()];
                        model[h] = None;
                        heap.remove(h as u32);
                    }
                    4 => {
                        // A fresh set over the same handles, one in three
                        // left out.
                        for (h, k) in model.iter_mut().enumerate() {
                            let r = raw.wrapping_add(pick.wrapping_mul(h as u8));
                            *k = (r % 3 != 0).then(|| key(r));
                        }
                        heap.rebuild(entries(&model));
                    }
                    _ => {}
                }
                check(&heap, &model);
            }
            while let Some((k, h)) = heap.pop() {
                prop_assert_eq!(Some((k, h)), model_min(&model));
                model[h as usize] = None;
                check(&heap, &model);
            }
            prop_assert!(model.iter().all(Option::is_none));
        }
    }

    #[test]
    fn rebuild_reuses_the_buffers_and_forgets_the_old_contents() {
        let mut heap = IndexedHeap::default();
        heap.rebuild([(0, 3), (2, 1), (3, 2)]);
        assert_eq!(heap.peek(), Some((1, 2)));
        heap.rebuild([(1, 5)]);
        assert_eq!(heap.peek(), Some((5, 1)));
        assert!(!heap.contains(0) && !heap.contains(2) && !heap.contains(3));
        heap.remove(1);
        assert_eq!(heap.peek(), None);
        assert!(heap.is_empty());
    }
}
