//! In-memory file content and reassembly.
//!
//! The emulated experiments only need block *identities* and *sizes*, but the
//! examples, the Shotgun tool and the integrity tests operate on real bytes.
//! [`FileData`] provides deterministic synthetic content plus block slicing
//! and reassembly with integrity checking.

use rand::Rng;
use rand::SeedableRng;

use crate::block::{BlockId, FileSpec};

/// A file held in memory together with its block layout.
#[derive(Debug, Clone)]
pub struct FileData {
    spec: FileSpec,
    bytes: Vec<u8>,
}

impl FileData {
    /// Generates deterministic pseudo-random content for `spec` from `seed`.
    pub fn synthetic(spec: FileSpec, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..spec.file_bytes).map(|_| rng.gen()).collect();
        FileData { spec, bytes }
    }

    /// The block layout.
    pub fn spec(&self) -> FileSpec {
        self.spec
    }

    /// The full content.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The content of block `id`.
    pub fn block(&self, id: BlockId) -> &[u8] {
        let start = id.index() * self.spec.block_bytes as usize;
        let end = start + self.spec.block_size(id) as usize;
        &self.bytes[start..end]
    }

    /// A 64-bit FNV-1a digest of the whole file, used by tests and by Shotgun
    /// to verify reassembly.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.bytes)
    }
}

/// Reassembles a file from blocks received out of order and verifies its
/// completeness.
#[derive(Debug, Clone)]
pub struct FileAssembler {
    spec: FileSpec,
    bytes: Vec<u8>,
    present: Vec<bool>,
    missing: u32,
}

impl FileAssembler {
    /// Creates an assembler for `spec` with no blocks yet.
    pub fn new(spec: FileSpec) -> Self {
        FileAssembler {
            spec,
            bytes: vec![0; spec.file_bytes as usize],
            present: vec![false; spec.num_blocks() as usize],
            missing: spec.num_blocks(),
        }
    }

    /// Stores block `id`; returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if the payload length does not match the block's expected size.
    pub fn put(&mut self, id: BlockId, payload: &[u8]) -> bool {
        let expected = self.spec.block_size(id) as usize;
        assert_eq!(payload.len(), expected, "block {id} has wrong length");
        if self.present[id.index()] {
            return false;
        }
        let start = id.index() * self.spec.block_bytes as usize;
        self.bytes[start..start + expected].copy_from_slice(payload);
        self.present[id.index()] = true;
        self.missing -= 1;
        true
    }

    /// Number of blocks still missing.
    pub fn missing(&self) -> u32 {
        self.missing
    }

    /// Returns true when every block has been stored.
    pub fn is_complete(&self) -> bool {
        self.missing == 0
    }

    /// Returns the reassembled file once complete.
    pub fn into_file(self) -> Option<FileData> {
        if self.is_complete() {
            Some(FileData {
                spec: self.spec,
                bytes: self.bytes,
            })
        } else {
            None
        }
    }
}

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_content_is_deterministic() {
        let spec = FileSpec::new(10_000, 1024);
        let a = FileData::synthetic(spec, 5);
        let b = FileData::synthetic(spec, 5);
        let c = FileData::synthetic(spec, 6);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn block_slicing_covers_file() {
        let spec = FileSpec::new(10_000, 1024);
        let f = FileData::synthetic(spec, 1);
        let total: usize = spec.blocks().map(|b| f.block(b).len()).sum();
        assert_eq!(total, 10_000);
        assert_eq!(f.block(BlockId(9)).len(), 10_000 - 9 * 1024);
    }

    #[test]
    fn assembler_round_trips_out_of_order() {
        let spec = FileSpec::new(5_000, 512);
        let f = FileData::synthetic(spec, 2);
        let mut asm = FileAssembler::new(spec);
        let mut ids: Vec<BlockId> = spec.blocks().collect();
        ids.reverse();
        for id in ids {
            assert!(asm.put(id, f.block(id)));
        }
        assert!(asm.is_complete());
        let rebuilt = asm.into_file().unwrap();
        assert_eq!(rebuilt.digest(), f.digest());
        assert_eq!(rebuilt.bytes(), f.bytes());
    }

    #[test]
    fn duplicate_put_is_ignored() {
        let spec = FileSpec::new(2048, 1024);
        let f = FileData::synthetic(spec, 3);
        let mut asm = FileAssembler::new(spec);
        assert!(asm.put(BlockId(0), f.block(BlockId(0))));
        assert!(!asm.put(BlockId(0), f.block(BlockId(0))));
        assert_eq!(asm.missing(), 1);
        assert!(asm.into_file().is_none());
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_length_panics() {
        let spec = FileSpec::new(2048, 1024);
        let mut asm = FileAssembler::new(spec);
        asm.put(BlockId(0), &[0u8; 100]);
    }
}
