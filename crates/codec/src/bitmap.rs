//! Block-availability bitmaps.
//!
//! Every node keeps a bitmap of the blocks it holds; senders advertise their
//! bitmaps to receivers (as incremental diffs, see [`crate::diff`]) and the
//! request strategies consult the union of the per-peer bitmaps to compute
//! block *rarity*.

use crate::block::BlockId;

/// A fixed-capacity bitset over block indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockBitmap {
    words: Vec<u64>,
    capacity: u32,
    ones: u32,
}

impl BlockBitmap {
    /// Creates an empty bitmap able to hold `capacity` blocks.
    pub fn new(capacity: u32) -> Self {
        BlockBitmap {
            words: vec![0; (capacity as usize).div_ceil(64)],
            capacity,
            ones: 0,
        }
    }

    /// Creates a bitmap with every one of the `capacity` bits set (e.g. the
    /// source's own bitmap in unencoded mode). Fills whole words; the final
    /// partial word is masked so no bit above `capacity` is ever set.
    pub fn full(capacity: u32) -> Self {
        let mut bm = BlockBitmap::new(capacity);
        if let Some(last) = bm.words.len().checked_sub(1) {
            bm.words[..last].fill(u64::MAX);
            bm.words[last] = tail_mask(capacity);
        }
        bm.ones = capacity;
        bm
    }

    /// Number of block slots this bitmap covers.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Grows the capacity to at least `capacity` (a no-op when already that
    /// big); present blocks are preserved. Used by trackers that size
    /// themselves lazily off the bitmaps they observe.
    pub fn grow_to(&mut self, capacity: u32) {
        if capacity > self.capacity {
            self.capacity = capacity;
            self.words.resize((capacity as usize).div_ceil(64), 0);
        }
    }

    /// Number of blocks currently present.
    pub fn count(&self) -> u32 {
        self.ones
    }

    /// Returns true when no block is present.
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Returns true when every slot is set.
    pub fn is_full(&self) -> bool {
        self.ones == self.capacity
    }

    /// Tests whether block `id` is present.
    pub fn contains(&self, id: BlockId) -> bool {
        if id.0 >= self.capacity {
            return false;
        }
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.words[w] >> b & 1 == 1
    }

    /// Inserts block `id`; returns true if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the bitmap capacity.
    pub fn insert(&mut self, id: BlockId) -> bool {
        assert!(
            id.0 < self.capacity,
            "block {id} outside bitmap capacity {}",
            self.capacity
        );
        let (w, b) = (id.index() / 64, id.index() % 64);
        let mask = 1u64 << b;
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.ones += 1;
            true
        } else {
            false
        }
    }

    /// Removes block `id`; returns true if it was present.
    pub fn remove(&mut self, id: BlockId) -> bool {
        if id.0 >= self.capacity {
            return false;
        }
        let (w, b) = (id.index() / 64, id.index() % 64);
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            self.words[w] &= !mask;
            self.ones -= 1;
            true
        } else {
            false
        }
    }

    /// Iterates over the ids of present blocks in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            BitIter {
                word,
                base: wi as u32 * 64,
            }
            .filter(move |id| id.0 < self.capacity)
        })
    }

    /// Iterates over the ids present in `self` but absent from `other`, a
    /// word at a time (`self & !other`). `other` may have any capacity —
    /// words it does not cover are treated as empty.
    pub fn and_not_iter<'a>(
        &'a self,
        other: &'a BlockBitmap,
    ) -> impl Iterator<Item = BlockId> + 'a {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let o = other.words.get(wi).copied().unwrap_or(0);
            BitIter {
                word: word & !o,
                base: wi as u32 * 64,
            }
        })
    }

    /// Number of blocks present in `self` but not in `other` (what `self`
    /// could offer a peer whose bitmap is `other`), without materialising
    /// the list.
    pub fn difference_count(&self, other: &BlockBitmap) -> u32 {
        let mut n = 0u32;
        for (i, w) in self.words.iter().enumerate() {
            let o = other.words.get(i).copied().unwrap_or(0);
            n += (w & !o).count_ones();
        }
        n
    }

    /// Raw 64-bit words, low blocks first (read-only; bits above the
    /// capacity are always zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Mask covering the low `bits` bits of a word (`bits` in `1..=64`; a
/// multiple-of-64 capacity wants the full word).
fn tail_mask(bits: u32) -> u64 {
    let rem = bits % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = BlockId;
    fn next(&mut self) -> Option<BlockId> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(BlockId(self.base + tz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut bm = BlockBitmap::new(130);
        assert!(bm.insert(BlockId(0)));
        assert!(bm.insert(BlockId(64)));
        assert!(bm.insert(BlockId(129)));
        assert!(!bm.insert(BlockId(129)), "double insert reports false");
        assert_eq!(bm.count(), 3);
        assert!(bm.contains(BlockId(64)));
        assert!(!bm.contains(BlockId(63)));
        assert!(bm.remove(BlockId(64)));
        assert!(!bm.remove(BlockId(64)));
        assert_eq!(bm.count(), 2);
    }

    #[test]
    fn full_and_fraction() {
        let bm = BlockBitmap::full(100);
        assert!(bm.is_full());
        assert_eq!(bm.count(), 100);
        let empty = BlockBitmap::new(100);
        assert!(empty.is_empty());
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn word_filled_full_matches_per_bit_construction() {
        // The word-granular fill must agree with inserting every bit, for
        // capacities hitting every partial-word shape (0, <64, =64, >64,
        // multiple-of-64, off-by-one around word boundaries).
        for cap in [0u32, 1, 5, 63, 64, 65, 127, 128, 129, 1000] {
            let fast = BlockBitmap::full(cap);
            let mut slow = BlockBitmap::new(cap);
            for i in 0..cap {
                slow.insert(BlockId(i));
            }
            assert_eq!(fast, slow, "capacity {cap}");
            assert_eq!(fast.count(), cap);
            assert!(cap == 0 || fast.is_full());
            // No stray bits above the capacity: removing an out-of-range id
            // is a no-op and the word-level count stays exact.
            let popcount: u32 = fast.words().iter().map(|w| w.count_ones()).sum();
            assert_eq!(popcount, cap, "capacity {cap} has stray high bits");
        }
    }

    #[test]
    fn and_not_iter_matches_difference() {
        let mut a = BlockBitmap::new(300);
        let mut b = BlockBitmap::new(300);
        for i in (0..300).step_by(3) {
            a.insert(BlockId(i));
        }
        for i in (0..300).step_by(5) {
            b.insert(BlockId(i));
        }
        let fast: Vec<BlockId> = a.and_not_iter(&b).collect();
        let slow: Vec<BlockId> = a.iter().filter(|id| !b.contains(*id)).collect();
        assert_eq!(fast, slow);
        assert_eq!(fast.len() as u32, a.difference_count(&b));
    }

    #[test]
    fn and_not_iter_tolerates_capacity_mismatch() {
        let mut a = BlockBitmap::new(130);
        a.insert(BlockId(0));
        a.insert(BlockId(129));
        let b = BlockBitmap::new(10); // shorter word vector: missing words = 0
        let got: Vec<u32> = a.and_not_iter(&b).map(|id| id.0).collect();
        assert_eq!(got, vec![0, 129]);
    }

    #[test]
    fn iter_yields_sorted_present_blocks() {
        let mut bm = BlockBitmap::new(200);
        for id in [5u32, 1, 190, 64, 65] {
            bm.insert(BlockId(id));
        }
        let got: Vec<u32> = bm.iter().map(|b| b.0).collect();
        assert_eq!(got, vec![1, 5, 64, 65, 190]);
    }

    #[test]
    fn difference_and_counts_agree() {
        let mut a = BlockBitmap::new(128);
        let mut b = BlockBitmap::new(128);
        for i in 0..50 {
            a.insert(BlockId(i));
        }
        for i in 25..80 {
            b.insert(BlockId(i));
        }
        assert_eq!(a.and_not_iter(&b).count(), 25);
        assert_eq!(a.difference_count(&b), 25);
        assert_eq!(b.difference_count(&a), 30);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let bm = BlockBitmap::new(10);
        assert!(!bm.contains(BlockId(10)));
        assert!(!bm.contains(BlockId(1000)));
    }
}
