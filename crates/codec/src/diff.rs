//! Incremental availability diffs ("staying up-to-date", paper §3.3.4).
//!
//! Bullet′ senders keep each receiver informed of newly available blocks
//! using *incremental* diffs: a receiver hears about any given block from a
//! given sender at most once, which decouples the diff size from the file
//! size and avoids re-advertising the whole bitmap. Diff emission is
//! self-clocking — a diff is sent when the receiver has nothing outstanding
//! from us, or when the receiver explicitly asks because it is about to run
//! out of request candidates.

use crate::bitmap::BlockBitmap;
use crate::block::BlockId;

/// A diff message body: blocks newly available at the sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    /// Newly advertised blocks, in ascending id order.
    pub blocks: Vec<BlockId>,
}

impl Diff {
    /// Approximate wire size of the diff in bytes (4 bytes per id plus a
    /// small fixed header), used by the emulator for overhead accounting.
    pub fn wire_size(&self) -> usize {
        8 + 4 * self.blocks.len()
    }

    /// Returns true if the diff advertises nothing.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Per-receiver tracker of which of our blocks the receiver has already been
/// told about.
///
/// The advertised set is a [`BlockBitmap`] grown lazily to whatever capacity
/// the observed `have` bitmaps require, so diff encoding is a word-level
/// and-not scan (O(words)) rather than a per-block set walk — the difference
/// between O(blocks·log blocks) and a few cache lines per diff once swarms
/// carry 10⁴+ block files.
#[derive(Debug, Clone)]
pub struct DiffTracker {
    advertised: BlockBitmap,
}

impl Default for DiffTracker {
    fn default() -> Self {
        DiffTracker {
            advertised: BlockBitmap::new(0),
        }
    }
}

impl DiffTracker {
    /// Creates a tracker that has advertised nothing yet.
    pub fn new() -> Self {
        DiffTracker::default()
    }

    /// Returns true if `block` was already advertised to this receiver.
    pub fn already_advertised(&self, block: BlockId) -> bool {
        self.advertised.contains(block)
    }

    /// Produces the next incremental diff: every block in `have` that has not
    /// yet been advertised to this receiver, capped at `max_entries` ids.
    ///
    /// The produced blocks are recorded so they will never be advertised
    /// again. An empty diff means the receiver is fully caught up.
    pub fn next_diff(&mut self, have: &BlockBitmap, max_entries: usize) -> Diff {
        self.advertised.grow_to(have.capacity());
        let blocks: Vec<BlockId> = have
            .and_not_iter(&self.advertised)
            .take(max_entries)
            .collect();
        for &id in &blocks {
            self.advertised.insert(id);
        }
        Diff { blocks }
    }

    /// Records blocks advertised through some other channel (e.g. the initial
    /// file-info exchange when a peering is established).
    pub fn mark_advertised(&mut self, blocks: impl IntoIterator<Item = BlockId>) {
        for id in blocks {
            self.advertised.grow_to(id.0 + 1);
            self.advertised.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitmap_with(ids: &[u32], cap: u32) -> BlockBitmap {
        let mut bm = BlockBitmap::new(cap);
        for &i in ids {
            bm.insert(BlockId(i));
        }
        bm
    }

    #[test]
    fn diffs_are_incremental() {
        let mut tracker = DiffTracker::new();
        let have1 = bitmap_with(&[1, 2, 3], 100);
        let d1 = tracker.next_diff(&have1, usize::MAX);
        assert_eq!(d1.blocks, vec![BlockId(1), BlockId(2), BlockId(3)]);

        // Nothing new: empty diff.
        let d2 = tracker.next_diff(&have1, usize::MAX);
        assert!(d2.is_empty());

        // Only the new block appears.
        let have2 = bitmap_with(&[1, 2, 3, 7], 100);
        let d3 = tracker.next_diff(&have2, usize::MAX);
        assert_eq!(d3.blocks, vec![BlockId(7)]);
    }

    #[test]
    fn cap_limits_entries_and_remembers_only_sent() {
        let mut tracker = DiffTracker::new();
        let have = bitmap_with(&[0, 1, 2, 3, 4], 10);
        let d = tracker.next_diff(&have, 2);
        assert_eq!(d.blocks.len(), 2);
        assert_eq!(have.difference_count(&tracker.advertised), 3);
        let d2 = tracker.next_diff(&have, 10);
        assert_eq!(d2.blocks.len(), 3);
        assert_eq!(have.difference_count(&tracker.advertised), 0);
    }

    #[test]
    fn mark_advertised_suppresses_future_diffs() {
        let mut tracker = DiffTracker::new();
        tracker.mark_advertised([BlockId(5), BlockId(6)]);
        let have = bitmap_with(&[5, 6, 7], 10);
        let d = tracker.next_diff(&have, usize::MAX);
        assert_eq!(d.blocks, vec![BlockId(7)]);
        assert!(tracker.already_advertised(BlockId(5)));
    }

    #[test]
    fn wire_size_scales_with_entries() {
        let d = Diff {
            blocks: vec![BlockId(0); 10],
        };
        assert_eq!(d.wire_size(), 8 + 40);
    }
}
