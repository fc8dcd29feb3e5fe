//! Property tests for the word-level `BlockBitmap` bulk operations.
//!
//! Every bulk op (and-not difference, word-filled `full()`) is checked against the obvious per-bit reference on random
//! bitmaps, with capacities ranging from sub-word to the 10⁵-block scale the
//! fig20 swarm scenarios use. The references are deliberately naive — the
//! point is that the word-granular implementations agree bit for bit.

use dissem_codec::{BlockBitmap, BlockId};
use proptest::prelude::*;

/// Builds a bitmap of `capacity` whose members are chosen by `picks`
/// (indices taken modulo the capacity, so any u32 vector is a valid case).
fn bitmap_from(capacity: u32, picks: &[u32]) -> BlockBitmap {
    let mut bm = BlockBitmap::new(capacity);
    if capacity > 0 {
        for &p in picks {
            bm.insert(BlockId(p % capacity));
        }
    }
    bm
}

proptest! {
    #[test]
    fn full_equals_per_bit_insertion(capacity in 0u32..100_000) {
        let fast = BlockBitmap::full(capacity);
        let mut slow = BlockBitmap::new(capacity);
        for i in 0..capacity {
            slow.insert(BlockId(i));
        }
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast.count(), capacity);
    }

    #[test]
    fn and_not_matches_per_bit_difference(
        capacity in 1u32..100_000,
        other_capacity in 1u32..100_000,
        a in proptest::collection::vec(any::<u32>(), 0..200),
        b in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        // Different capacities on purpose: the diff tracker subtracts a
        // lazily grown "advertised" bitmap from a fixed-capacity "have".
        let bm_a = bitmap_from(capacity, &a);
        let bm_b = bitmap_from(other_capacity, &b);
        let fast: Vec<BlockId> = bm_a.and_not_iter(&bm_b).collect();
        let slow: Vec<BlockId> = bm_a.iter().filter(|&id| !bm_b.contains(id)).collect();
        prop_assert_eq!(fast, slow);
    }
}
