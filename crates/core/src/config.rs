//! Bullet′ configuration.
//!
//! The paper's stated design goal is to *minimise the number of parameters an
//! end user has to tweak* (§3): the released defaults below are the adaptive
//! ones. The explicit "fixed" variants exist so the evaluation can reproduce
//! the paper's ablations (fixed peer-set sizes in Figs 7–9, fixed outstanding
//! windows in Figs 10–12, alternative request strategies in Fig 6).

use desim::SimDuration;
use dissem_codec::FileSpec;

/// How a receiver orders candidate blocks when issuing requests (paper §3.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStrategy {
    /// Request blocks in the order their availability was discovered.
    FirstEncountered,
    /// Request blocks in uniformly random order.
    Random,
    /// Request the globally rarest blocks first, ties broken deterministically.
    Rarest,
    /// Request the rarest blocks first, ties broken uniformly at random
    /// (Bullet′'s default).
    RarestRandom,
}

/// How many senders/receivers a node maintains (paper §3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerSetPolicy {
    /// Adaptive sizing: start at the initial value, adjust every RanSub epoch
    /// with the ManageSenders/ManageReceivers feedback loop and 1.5σ trimming.
    Dynamic,
    /// Keep exactly this many senders and receivers (no trimming, no
    /// adaptation) — the static configurations of Figs 7–9.
    Fixed(usize),
}

/// How many block requests a receiver keeps outstanding per sender (§3.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutstandingPolicy {
    /// The XCP-inspired dynamic controller (Bullet′'s default).
    Dynamic,
    /// A fixed number of outstanding blocks per sender (BitTorrent uses 5).
    Fixed(u32),
}

/// Whether the source transmits the original blocks or a rateless-encoded
/// stream (§2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransferMode {
    /// Transmit the original file blocks; a receiver needs every block.
    Unencoded,
    /// Transmit a source-encoded stream; a receiver needs `(1 + epsilon) * n`
    /// distinct blocks out of a stream of `(1 + headroom) * n`.
    Encoded {
        /// Reception overhead (the paper measured ≈ 0.04).
        epsilon: f64,
    },
}

/// Initial number of senders and receivers (the released Bullet default).
pub const INITIAL_PEERS: usize = 10;
/// Hard upper bound on the number of senders/receivers.
pub const MAX_PEERS: usize = 25;
/// RanSub collect/distribute period.
pub const RANSUB_PERIOD: SimDuration = SimDuration::from_secs(5);
/// Peers whose bandwidth sits this many standard deviations below the mean
/// are disconnected at epoch boundaries.
pub const TRIM_SIGMA: f64 = 1.5;
/// Initial per-sender outstanding window (blocks).
pub const INITIAL_OUTSTANDING: u32 = 3;
/// Upper bound on the per-sender outstanding window.
pub const MAX_OUTSTANDING: u32 = 50;
/// How many blocks the source keeps queued per control-tree child before
/// considering that child's pipe full.
pub const SOURCE_PIPE_BLOCKS: usize = 3;
/// Re-request a block from another sender if it has been outstanding this
/// long (stall insurance; the paper notes cancelling in-flight blocks is
/// impractical, so this is deliberately generous).
pub const REQUEST_TIMEOUT: SimDuration = SimDuration::from_secs(15);

/// What varies between Bullet′ deployments: the fields a figure's ablation,
/// the original-Bullet baseline or the benchmark harness sets or reads. The
/// protocol constants nobody varies are the `const`s above.
#[derive(Debug, Clone)]
pub struct Config {
    /// The file being disseminated.
    pub file: FileSpec,
    /// Request-ordering strategy.
    pub request_strategy: RequestStrategy,
    /// Peer-set sizing policy.
    pub peer_policy: PeerSetPolicy,
    /// Per-sender outstanding-request policy.
    pub outstanding_policy: OutstandingPolicy,
    /// Unencoded vs source-encoded transfer.
    pub transfer_mode: TransferMode,
    /// Hard lower bound on the number of senders/receivers (at most
    /// [`INITIAL_PEERS`]).
    pub min_peers: usize,
    /// Number of summaries delivered per RanSub epoch.
    pub ransub_subset_size: usize,
    /// If true, availability diffs are only flushed by the periodic
    /// housekeeping timer instead of self-clocking on idle request pipelines.
    /// Bullet′ keeps this off; the original-Bullet baseline turns it on to
    /// model its coarser, periodic summary exchange.
    pub lazy_diffs: bool,
    /// Housekeeping timer period (request refresh / stall recovery).
    pub housekeeping_period: SimDuration,
}

impl Config {
    /// The released Bullet′ defaults for a given file.
    pub fn new(file: FileSpec) -> Self {
        Config {
            file,
            request_strategy: RequestStrategy::RarestRandom,
            peer_policy: PeerSetPolicy::Dynamic,
            outstanding_policy: OutstandingPolicy::Dynamic,
            transfer_mode: TransferMode::Unencoded,
            min_peers: 6,
            ransub_subset_size: 10,
            lazy_diffs: false,
            housekeeping_period: SimDuration::from_secs(2),
        }
    }

    /// Number of distinct blocks a receiver must hold to complete.
    pub fn completion_target(&self) -> u32 {
        match self.transfer_mode {
            TransferMode::Unencoded => self.file.num_blocks(),
            TransferMode::Encoded { epsilon } => self.file.completion_target(epsilon),
        }
    }

    /// Size of the block identifier space (larger than the file in encoded
    /// mode so receivers have spare distinct blocks to choose from).
    pub fn block_space(&self) -> u32 {
        match self.transfer_mode {
            TransferMode::Unencoded => self.file.num_blocks(),
            TransferMode::Encoded { epsilon } => {
                // Three times the reception overhead of headroom.
                (f64::from(self.file.num_blocks()) * (1.0 + 3.0 * epsilon.max(0.0))).ceil() as u32
            }
        }
    }

    /// Validates invariants; called by the node constructor.
    pub fn validate(&self) {
        assert!(
            (1..=INITIAL_PEERS).contains(&self.min_peers),
            "min_peers must lie between 1 and INITIAL_PEERS"
        );
        if let TransferMode::Encoded { epsilon } = self.transfer_mode {
            assert!((0.0..1.0).contains(&epsilon), "epsilon must be in [0, 1)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        // The paper's ModelNet workload: a 100 MB file in 16 KB blocks.
        let cfg = Config::new(FileSpec::from_mb_kb(100, 16));
        assert_eq!((cfg.min_peers, INITIAL_PEERS, MAX_PEERS), (6, 10, 25));
        assert_eq!(RANSUB_PERIOD, SimDuration::from_secs(5));
        assert_eq!((INITIAL_OUTSTANDING, MAX_OUTSTANDING), (3, 50));
        assert_eq!(cfg.request_strategy, RequestStrategy::RarestRandom);
        assert_eq!(TRIM_SIGMA, 1.5);
        assert_eq!(cfg.file.num_blocks(), 6400);
        cfg.validate();
    }

    #[test]
    fn completion_target_depends_on_mode() {
        let mut cfg = Config::new(FileSpec::from_mb_kb(10, 16));
        assert_eq!(cfg.completion_target(), 640);
        assert_eq!(cfg.block_space(), 640);
        cfg.transfer_mode = TransferMode::Encoded { epsilon: 0.04 };
        assert_eq!(cfg.completion_target(), (640.0f64 * 1.04).ceil() as u32);
        assert!(cfg.block_space() > cfg.completion_target());
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "min_peers must lie")]
    fn invalid_peer_bounds_rejected() {
        let mut cfg = Config::new(FileSpec::from_mb_kb(1, 16));
        cfg.min_peers = INITIAL_PEERS + 1;
        cfg.validate();
    }
}
