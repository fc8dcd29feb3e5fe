//! The file/block model shared by every dissemination protocol in the
//! workspace.
//!
//! Throughout the paper the source transmits the file as a sequence of
//! fixed-size *blocks*, the smallest transfer unit (16 KB in the ModelNet
//! experiments, 100 KB on PlanetLab, 8 KB in the flow-control study). A
//! [`FileSpec`] captures the file size and block size and provides the
//! derived quantities the protocols need.

/// The reception overhead of a rateless code (§2.2): an encoded download
/// completes after `(1 + ENCODING_OVERHEAD) · n` distinct blocks, the 4 %
/// the paper measured and grants Bullet and SplitStream (§4.6).
pub const ENCODING_OVERHEAD: f64 = 0.04;

/// Identifier of a block within a file: its index in `0..num_blocks` for the
/// unencoded mode, or the encoding sequence number in the encoded mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Describes the object being disseminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSpec {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Transfer-unit size in bytes.
    pub block_bytes: u32,
}

impl FileSpec {
    /// Creates a spec, panicking on a zero block size or zero file size, or
    /// on a block count that does not fit a `u32`.
    pub fn new(file_bytes: u64, block_bytes: u32) -> Self {
        assert!(file_bytes > 0, "file must be non-empty");
        assert!(block_bytes > 0, "block size must be non-zero");
        assert!(
            file_bytes.div_ceil(u64::from(block_bytes)) <= u64::from(u32::MAX),
            "a {file_bytes}-byte file has more than u32::MAX {block_bytes}-byte blocks"
        );
        FileSpec {
            file_bytes,
            block_bytes,
        }
    }

    /// Convenience constructor from megabytes / kilobytes, matching how the
    /// paper states its workloads (e.g. "100 MB file, 16 KB blocks").
    pub fn from_mb_kb(file_mb: u64, block_kb: u32) -> Self {
        FileSpec::new(file_mb * 1024 * 1024, block_kb * 1024)
    }

    /// Number of blocks, rounding the final partial block up.
    pub fn num_blocks(&self) -> u32 {
        self.file_bytes.div_ceil(u64::from(self.block_bytes)) as u32
    }

    /// Size of block `id` in bytes (the final block may be short).
    pub fn block_size(&self, id: BlockId) -> u32 {
        let n = self.num_blocks();
        assert!(id.0 < n, "block {id} out of range (file has {n} blocks)");
        if id.0 + 1 == n {
            let rem = self.file_bytes - u64::from(self.block_bytes) * u64::from(n - 1);
            rem as u32
        } else {
            self.block_bytes
        }
    }

    /// Wire size of encoded block `id`: a block of the file is
    /// [`FileSpec::block_size`] (the final one may be short), and an id past
    /// the file — the encoded head-room of a rateless code — is a full block.
    pub fn encoded_block_size(&self, id: BlockId) -> u32 {
        if id.0 < self.num_blocks() {
            self.block_size(id)
        } else {
            self.block_bytes
        }
    }

    /// Iterator over all block ids in index order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> {
        (0..self.num_blocks()).map(BlockId)
    }

    /// Number of distinct blocks a receiver must collect to complete a
    /// download the source encodes with a rateless code:
    /// `(1 + ENCODING_OVERHEAD) · n`, rounded up.
    pub fn encoded_target(&self) -> u32 {
        (f64::from(self.num_blocks()) * (1.0 + ENCODING_OVERHEAD)).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_counts_round_up() {
        let spec = FileSpec::new(100, 30);
        assert_eq!(spec.num_blocks(), 4);
        assert_eq!(spec.block_size(BlockId(0)), 30);
        assert_eq!(spec.block_size(BlockId(3)), 10);
    }

    #[test]
    fn exact_multiple_has_full_last_block() {
        let spec = FileSpec::new(90, 30);
        assert_eq!(spec.num_blocks(), 3);
        assert_eq!(spec.block_size(BlockId(2)), 30);
    }

    #[test]
    fn paper_workload_sizes() {
        // 100 MB file with 16 KB blocks: 6400 blocks (paper Fig 13 x-axis).
        let spec = FileSpec::from_mb_kb(100, 16);
        assert_eq!(spec.num_blocks(), 6400);
        // 50 MB file with 100 KB blocks: 512 blocks (PlanetLab experiment).
        let spec = FileSpec::from_mb_kb(50, 100);
        assert_eq!(spec.num_blocks(), 512);
    }

    #[test]
    fn completion_target_applies_overhead() {
        // 640 blocks need ceil(640 · 1.04) = 666 distinct encoded ones.
        let spec = FileSpec::from_mb_kb(10, 16);
        assert_eq!(spec.num_blocks(), 640);
        assert_eq!(spec.encoded_target(), 666);
        assert_eq!(FileSpec::new(100, 30).encoded_target(), 5);
    }

    #[test]
    fn encoded_block_size_handles_short_final_block_and_ids_past_the_file() {
        let spec = FileSpec::new(40 * 1024 + 100, 16 * 1024);
        assert_eq!(spec.encoded_block_size(BlockId(0)), 16 * 1024);
        // The real final block is short: 40 KB + 100 B minus two full blocks.
        assert_eq!(
            spec.encoded_block_size(BlockId(2)),
            40 * 1024 + 100 - 32 * 1024
        );
        // Ids past the file (encoded head-room) are full-sized.
        assert_eq!(spec.encoded_block_size(BlockId(3)), 16 * 1024);
        assert_eq!(spec.encoded_block_size(BlockId(1000)), 16 * 1024);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_block_panics() {
        FileSpec::new(100, 30).block_size(BlockId(4));
    }

    #[test]
    fn blocks_iterator_covers_file() {
        let spec = FileSpec::new(1000, 64);
        let total: u64 = spec.blocks().map(|b| u64::from(spec.block_size(b))).sum();
        assert_eq!(total, spec.file_bytes);
    }
}
