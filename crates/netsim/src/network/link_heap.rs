//! An indexed binary min-heap over the links of one component, ordered by
//! `(saturation level, link)`.
//!
//! Progressive filling needs, after every freeze, the link that saturates
//! next. A link's level only changes when one of *its* flows freezes, so the
//! solver fixes that one key in place ([`LinkHeap::set_key`]) and drops the
//! link when its last flow freezes ([`LinkHeap::remove`]): the heap never
//! holds a stale entry and never grows past the component's link count.
//! Levels compare by [`f64::total_cmp`] and ties break on the link id, so the
//! order is total and [`LinkHeap::peek`] is a pure function of the key set —
//! independent of the history of operations that produced it.

use std::cmp::Ordering;

/// Position marker of a link that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// See the module documentation.
#[derive(Debug, Clone, Default)]
pub(super) struct LinkHeap {
    /// `(level, link)` entries in heap order.
    heap: Vec<(f64, u32)>,
    /// Link → index of its entry in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

fn less(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)) == Ordering::Less
}

impl LinkHeap {
    /// Replaces the contents with `entries` (`(link, level)`, each link at
    /// most once, every link below `num_links`) in O(len).
    pub(super) fn rebuild(&mut self, num_links: usize, entries: impl Iterator<Item = (u32, f64)>) {
        self.heap.clear();
        self.pos.clear();
        self.pos.resize(num_links, ABSENT);
        for (link, level) in entries {
            debug_assert_eq!(self.pos[link as usize], ABSENT, "link entered twice");
            self.pos[link as usize] = self.heap.len() as u32;
            self.heap.push((level, link));
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// The entry with the smallest `(level, link)`, as `(level, link)`.
    pub(super) fn peek(&self) -> Option<(f64, u32)> {
        self.heap.first().copied()
    }

    /// True while `link` has an entry.
    pub(super) fn contains(&self, link: u32) -> bool {
        self.pos[link as usize] != ABSENT
    }

    /// Changes the level of `link`, which must be present.
    pub(super) fn set_key(&mut self, link: u32, level: f64) {
        let i = self.pos[link as usize] as usize;
        debug_assert!(self.contains(link), "set_key on an absent link");
        self.heap[i].0 = level;
        self.fix(i);
    }

    /// Removes `link`, which must be present.
    pub(super) fn remove(&mut self, link: u32) {
        let i = self.pos[link as usize] as usize;
        debug_assert!(self.contains(link), "remove of an absent link");
        self.pos[link as usize] = ABSENT;
        let last = self.heap.pop().expect("a present link implies an entry");
        if i < self.heap.len() {
            self.heap[i] = last;
            self.pos[last.1 as usize] = i as u32;
            self.fix(i);
        }
    }

    /// Restores heap order around index `i` after its key changed.
    fn fix(&mut self, i: usize) {
        if i > 0 && less(self.heap[i], self.heap[(i - 1) / 2]) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !less(e, self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, e);
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && less(self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            if !less(self.heap[child], e) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, e);
    }

    fn place(&mut self, i: usize, e: (f64, u32)) {
        self.heap[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive model: link → level, minimum found by a full scan.
    fn model_min(model: &[Option<f64>]) -> Option<(f64, u32)> {
        let mut best: Option<(f64, u32)> = None;
        for (link, level) in model.iter().enumerate() {
            if let Some(level) = *level {
                let e = (level, link as u32);
                if best.is_none_or(|b| less(e, b)) {
                    best = Some(e);
                }
            }
        }
        best
    }

    /// Levels drawn from a small grid so ties (broken by link id), zeros of
    /// both signs, negatives and infinities all occur.
    fn level(raw: u8) -> f64 {
        match raw % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => -1.5,
            r => f64::from(r / 2) * 0.25,
        }
    }

    fn check(heap: &LinkHeap, model: &[Option<f64>]) {
        let want = model_min(model).map(|(l, k)| (l.to_bits(), k));
        let got = heap.peek().map(|(l, k)| (l.to_bits(), k));
        prop_assert_eq!(got, want, "minimum differs from the scan");
        for (link, level) in model.iter().enumerate() {
            prop_assert_eq!(heap.contains(link as u32), level.is_some());
        }
        prop_assert_eq!(heap.heap.len(), model.iter().flatten().count());
    }

    proptest! {
        /// Build, then random fix-key / remove steps, then drain by repeated
        /// peek + remove: at every step the heap's minimum is the scan's.
        #[test]
        fn indexed_heap_matches_a_minimum_scan(
            initial in proptest::collection::vec((any::<bool>(), any::<u8>()), 1..40),
            ops in proptest::collection::vec((any::<bool>(), any::<u8>(), any::<u8>()), 0..120),
        ) {
            let n = initial.len();
            let mut model: Vec<Option<f64>> = initial
                .iter()
                .map(|&(present, raw)| present.then(|| level(raw)))
                .collect();
            let mut heap = LinkHeap::default();
            heap.rebuild(
                n,
                model
                    .iter()
                    .enumerate()
                    .filter_map(|(link, level)| level.map(|l| (link as u32, l))),
            );
            check(&heap, &model);
            for &(fix, pick, raw) in &ops {
                let present: Vec<usize> = (0..n).filter(|&l| model[l].is_some()).collect();
                if present.is_empty() {
                    break;
                }
                let link = present[usize::from(pick) % present.len()];
                if fix {
                    model[link] = Some(level(raw));
                    heap.set_key(link as u32, level(raw));
                } else {
                    model[link] = None;
                    heap.remove(link as u32);
                }
                check(&heap, &model);
            }
            while let Some((_, link)) = heap.peek() {
                model[link as usize] = None;
                heap.remove(link);
                check(&heap, &model);
            }
            prop_assert!(model.iter().all(Option::is_none));
        }
    }

    #[test]
    fn rebuild_reuses_the_buffers_and_forgets_the_old_contents() {
        let mut heap = LinkHeap::default();
        heap.rebuild(4, [(0, 3.0), (2, 1.0), (3, 2.0)].into_iter());
        assert_eq!(heap.peek(), Some((1.0, 2)));
        heap.rebuild(2, [(1, 5.0)].into_iter());
        assert_eq!(heap.peek(), Some((5.0, 1)));
        assert!(!heap.contains(0));
        heap.remove(1);
        assert_eq!(heap.peek(), None);
    }
}
