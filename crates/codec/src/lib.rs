//! `dissem-codec` — the data model of the dissemination systems.
//!
//! This crate holds everything about the *object being distributed* and is
//! deliberately independent of the network emulator and of any particular
//! protocol:
//!
//! * [`block`] — the file/block layout ([`FileSpec`], [`BlockId`]) and the
//!   reception overhead of an encoded download ([`ENCODING_OVERHEAD`]);
//! * [`bitmap`] — per-node block availability sets ([`BlockBitmap`]);
//! * [`diff`] — a tracker of availability diffs (paper §3.3.4); no protocol
//!   calls it (Bullet′'s node draws its diffs from its own arrival log), and
//!   only the benchmark harness times it;
//! * [`mod@file`] — the FNV-1a digest the golden tests pin outputs with.

#![forbid(unsafe_code)]

pub mod bitmap;
pub mod block;
pub mod diff;
pub mod file;

pub use bitmap::BlockBitmap;
pub use block::{BlockId, FileSpec, ENCODING_OVERHEAD};
pub use diff::{Diff, DiffTracker};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Insert/contains/count stay mutually consistent under arbitrary
        /// insert sequences.
        #[test]
        fn bitmap_count_matches_inserts(ids in proptest::collection::vec(0u32..512, 0..300)) {
            let mut bm = BlockBitmap::new(512);
            let mut reference = std::collections::BTreeSet::new();
            for &i in &ids {
                let newly = bm.insert(BlockId(i));
                prop_assert_eq!(newly, reference.insert(i));
            }
            prop_assert_eq!(bm.count() as usize, reference.len());
            for i in 0..512u32 {
                prop_assert_eq!(bm.contains(BlockId(i)), reference.contains(&i));
            }
            let iterated: Vec<u32> = bm.iter().map(|b| b.0).collect();
            let expected: Vec<u32> = reference.iter().copied().collect();
            prop_assert_eq!(iterated, expected);
        }

        /// difference_count equals the length of the and-not iteration.
        #[test]
        fn bitmap_difference_consistent(
            a in proptest::collection::vec(0u32..256, 0..200),
            b in proptest::collection::vec(0u32..256, 0..200),
        ) {
            let mut ba = BlockBitmap::new(256);
            let mut bb = BlockBitmap::new(256);
            for i in a { ba.insert(BlockId(i)); }
            for i in b { bb.insert(BlockId(i)); }
            prop_assert_eq!(ba.and_not_iter(&bb).count() as u32, ba.difference_count(&bb));
        }

        /// Incremental diffs never repeat a block and eventually cover
        /// everything the sender has.
        #[test]
        fn diffs_cover_without_repeats(
            waves in proptest::collection::vec(proptest::collection::vec(0u32..128, 0..40), 1..8)
        ) {
            let mut have = BlockBitmap::new(128);
            let mut tracker = DiffTracker::new();
            let mut heard = std::collections::BTreeSet::new();
            for wave in waves {
                for i in wave {
                    have.insert(BlockId(i));
                }
                let diff = tracker.next_diff(&have, usize::MAX);
                for b in diff.blocks {
                    prop_assert!(heard.insert(b), "block {:?} advertised twice", b);
                }
            }
            // After the final diff, everything the sender has was heard.
            let have_set: std::collections::BTreeSet<BlockId> = have.iter().collect();
            prop_assert_eq!(heard, have_set);
        }

        /// A `DiffTracker` is idempotent over an unchanged availability set:
        /// once a diff is emitted, asking again (even with a tighter entry
        /// budget) advertises nothing until the sender actually gains blocks,
        /// and new acquisitions alone appear in the next diff.
        #[test]
        fn diff_tracker_does_not_readvertise(
            have in proptest::collection::vec(0u32..128, 0..80),
            gained in proptest::collection::vec(0u32..128, 0..80),
            budget in 1usize..16,
        ) {
            let mut sender = BlockBitmap::new(128);
            for &i in &have { sender.insert(BlockId(i)); }
            let mut tracker = DiffTracker::new();
            let first = tracker.next_diff(&sender, usize::MAX);
            prop_assert_eq!(first.blocks.len() as u32, sender.count());

            // Unchanged availability: repeated polls stay empty.
            prop_assert!(tracker.next_diff(&sender, usize::MAX).is_empty());
            prop_assert!(tracker.next_diff(&sender, budget).is_empty());

            // After gaining blocks, only the genuinely new ones are diffed.
            let before = sender.clone();
            for &i in &gained { sender.insert(BlockId(i)); }
            let second = tracker.next_diff(&sender, usize::MAX);
            for b in &second.blocks {
                prop_assert!(!before.contains(*b), "{b:?} re-advertised");
                prop_assert!(sender.contains(*b));
            }
            prop_assert_eq!(second.blocks.len() as u32, sender.count() - before.count());
        }
    }
}
