//! The rsync block-matching delta algorithm.
//!
//! Shotgun wraps rsync (paper §4.8): the update source computes, for every
//! file, a delta of the new version against the old one, batches the deltas
//! into an archive and multicasts the archive over Bullet′. The delta format
//! is the classic rsync one:
//!
//! 1. the *old* file is summarised as a [`Signature`]: a weak rolling
//!    checksum and a strong hash per fixed-size block;
//! 2. the sender slides a window over the *new* file; whenever the weak
//!    checksum hits an entry of the signature and the strong hash confirms
//!    it, it emits a `CopyBlock` op and jumps the window, otherwise it emits
//!    literal bytes;
//! 3. the receiver reconstructs the new file from its old copy plus the delta.

use std::collections::HashMap;

use crate::rolling::RollingChecksum;
use crate::strong::{strong_hash, StrongHash};

/// Per-block summary of an old file.
#[derive(Debug, Clone)]
pub struct Signature {
    /// Block size the signature was computed with.
    pub block_size: usize,
    /// Length of the old file in bytes.
    pub file_len: usize,
    /// Weak-checksum → candidate block indices.
    weak_index: HashMap<u32, Vec<u32>>,
    /// Strong hash per block.
    strong: Vec<StrongHash>,
}

impl Signature {
    /// Computes the signature of `old` with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn compute(old: &[u8], block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let mut weak_index: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut strong = Vec::new();
        for (i, chunk) in old.chunks(block_size).enumerate() {
            // Only full blocks participate in matching (rsync's behaviour);
            // the trailing partial block is always sent literally.
            if chunk.len() < block_size {
                break;
            }
            let weak = RollingChecksum::new(chunk).digest();
            weak_index.entry(weak).or_default().push(i as u32);
            strong.push(strong_hash(chunk));
        }
        Signature {
            block_size,
            file_len: old.len(),
            weak_index,
            strong,
        }
    }

    /// Number of whole blocks summarised.
    pub fn num_blocks(&self) -> usize {
        self.strong.len()
    }

    fn lookup(&self, weak: u32, window: &[u8]) -> Option<u32> {
        let candidates = self.weak_index.get(&weak)?;
        let h = strong_hash(window);
        candidates
            .iter()
            .copied()
            .find(|&i| self.strong[i as usize] == h)
    }
}

/// One instruction of a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy block `index` (of the signature's block size) from the old file.
    CopyBlock {
        /// Index of the old-file block to copy.
        index: u32,
    },
    /// Append these literal bytes.
    Literal {
        /// Raw bytes that had no match in the old file.
        bytes: Vec<u8>,
    },
}

/// A complete delta transforming an old file into a new one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Block size the delta was generated against.
    pub block_size: u32,
    /// The instruction stream.
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    /// Bytes of literal data carried by the delta (what actually needs to
    /// travel when the old file is present at the receiver).
    pub fn literal_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Literal { bytes } => bytes.len(),
                DeltaOp::CopyBlock { .. } => 0,
            })
            .sum()
    }

    /// Approximate encoded size of the delta on the wire: literals plus a
    /// small fixed cost per instruction.
    pub fn wire_size(&self) -> usize {
        16 + self.ops.len() * 8 + self.literal_bytes()
    }
}

/// Generates the delta turning `old` into `new` using `block_size` blocks.
pub fn generate_delta(old: &[u8], new: &[u8], block_size: usize) -> Delta {
    let sig = Signature::compute(old, block_size);
    generate_delta_from_signature(&sig, new)
}

/// Generates a delta against a precomputed signature (what the rsync sender
/// actually does, since it never sees the old file).
pub fn generate_delta_from_signature(sig: &Signature, new: &[u8]) -> Delta {
    let block_size = sig.block_size;
    let mut ops: Vec<DeltaOp> = Vec::new();
    let mut literal: Vec<u8> = Vec::new();
    let mut pos = 0usize;

    let flush = |literal: &mut Vec<u8>, ops: &mut Vec<DeltaOp>| {
        if !literal.is_empty() {
            ops.push(DeltaOp::Literal {
                bytes: std::mem::take(literal),
            });
        }
    };

    if sig.num_blocks() > 0 {
        let mut rc: Option<RollingChecksum> = None;
        while pos + block_size <= new.len() {
            let window = &new[pos..pos + block_size];
            let checksum = match rc {
                Some(c) => c,
                None => RollingChecksum::new(window),
            };
            if let Some(index) = sig.lookup(checksum.digest(), window) {
                flush(&mut literal, &mut ops);
                ops.push(DeltaOp::CopyBlock { index });
                pos += block_size;
                rc = None;
            } else {
                literal.push(new[pos]);
                let mut next = checksum;
                if pos + block_size < new.len() {
                    next.roll(new[pos], new[pos + block_size]);
                    rc = Some(next);
                } else {
                    rc = None;
                }
                pos += 1;
            }
        }
    }
    // Tail (and the whole file when the old file had no whole blocks).
    literal.extend_from_slice(&new[pos..]);
    flush(&mut literal, &mut ops);
    Delta {
        block_size: block_size as u32,
        ops,
    }
}

/// Applies `delta` to `old`, producing the new file.
///
/// # Errors
///
/// Returns an error if the delta references a block beyond the old file.
pub fn apply_delta(old: &[u8], delta: &Delta) -> Result<Vec<u8>, String> {
    let block_size = delta.block_size as usize;
    let mut out = Vec::new();
    for op in &delta.ops {
        match op {
            DeltaOp::Literal { bytes } => out.extend_from_slice(bytes),
            DeltaOp::CopyBlock { index } => {
                let start = *index as usize * block_size;
                let end = start + block_size;
                if end > old.len() {
                    return Err(format!(
                        "delta references old block {index} beyond file of {} bytes",
                        old.len()
                    ));
                }
                out.extend_from_slice(&old[start..end]);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn identical_files_produce_copy_only_delta() {
        let old = random_bytes(64 * 1024, 1);
        let delta = generate_delta(&old, &old, 4096);
        // No literal, so all 16 instructions are copies.
        assert_eq!(delta.literal_bytes(), 0);
        assert_eq!(delta.ops.len(), 16);
        assert_eq!(apply_delta(&old, &delta).unwrap(), old);
    }

    #[test]
    fn small_edit_produces_small_delta() {
        let old = random_bytes(256 * 1024, 2);
        let mut new = old.clone();
        // Overwrite 1 KB in the middle.
        for (i, b) in new[100_000..101_024].iter_mut().enumerate() {
            *b = i as u8;
        }
        let delta = generate_delta(&old, &new, 4096);
        assert_eq!(apply_delta(&old, &delta).unwrap(), new);
        assert!(
            delta.literal_bytes() <= 2 * 4096 + 1024,
            "literal bytes {} should be around the edited region",
            delta.literal_bytes()
        );
    }

    #[test]
    fn insertion_shifts_are_found_by_rolling() {
        let old = random_bytes(128 * 1024, 3);
        let mut new = Vec::new();
        new.extend_from_slice(&old[..50_000]);
        new.extend_from_slice(b"INSERTED DATA THAT SHIFTS EVERYTHING AFTER IT");
        new.extend_from_slice(&old[50_000..]);
        let delta = generate_delta(&old, &new, 2048);
        assert_eq!(apply_delta(&old, &delta).unwrap(), new);
        // Despite the shift, most of the file must still be copied, not literal.
        assert!(
            delta.literal_bytes() < 8 * 2048,
            "rolling match failed: {} literal bytes",
            delta.literal_bytes()
        );
    }

    #[test]
    fn completely_new_file_is_all_literals() {
        let old = random_bytes(32 * 1024, 4);
        let new = random_bytes(32 * 1024, 5);
        let delta = generate_delta(&old, &new, 4096);
        let is_literal = |op: &DeltaOp| matches!(op, DeltaOp::Literal { .. });
        assert!(delta.ops.iter().all(is_literal));
        assert_eq!(delta.literal_bytes(), new.len());
        assert_eq!(apply_delta(&old, &delta).unwrap(), new);
    }

    #[test]
    fn empty_old_file_works() {
        let new = random_bytes(10_000, 6);
        let delta = generate_delta(&[], &new, 4096);
        assert_eq!(apply_delta(&[], &delta).unwrap(), new);
    }

    #[test]
    fn empty_new_file_works() {
        let old = random_bytes(10_000, 7);
        let delta = generate_delta(&old, &[], 4096);
        assert_eq!(apply_delta(&old, &delta).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn corrupt_delta_is_rejected() {
        let old = random_bytes(8192, 8);
        let delta = Delta {
            block_size: 4096,
            ops: vec![DeltaOp::CopyBlock { index: 99 }],
        };
        assert!(apply_delta(&old, &delta).is_err());
    }

    #[test]
    fn wire_size_tracks_literals() {
        let old = random_bytes(64 * 1024, 9);
        let delta_same = generate_delta(&old, &old, 4096);
        let delta_new = generate_delta(&old, &random_bytes(64 * 1024, 10), 4096);
        assert!(delta_new.wire_size() > delta_same.wire_size() * 10);
    }
}
