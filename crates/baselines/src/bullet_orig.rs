//! The original Bullet (SOSP '03) baseline.
//!
//! Bullet — the predecessor Bullet′ improves on — also layers a mesh over a
//! RanSub control tree, but with the fixed-parameter behaviours the paper
//! identifies as its weaknesses (§4.2, §5):
//!
//! * the source pushes disjoint subsets of fresh blocks to its tree
//!   children, so no receiver gets everything from the tree and the mesh
//!   must recover the rest;
//! * receivers locate additional senders through RanSub and pull missing
//!   blocks from them, but the peer set is **fixed at 10 senders/receivers**
//!   and never re-evaluated;
//! * each sender is kept at a **fixed number of outstanding requests**;
//! * requests are ordered **randomly** (Bullet reconciles sets against a
//!   summary rather than tracking global rarity);
//! * the stream is assumed to be source-encoded, so a download completes
//!   after receiving `(1 + 0.04) · n` distinct blocks — the same allowance
//!   the paper grants Bullet in its experiments.
//!
//! The implementation reuses Bullet′'s node with the corresponding knobs
//! pinned, plus the tree-push behaviour layered on the source and interior
//! nodes. Reusing the machinery keeps the comparison about the *policies*
//! (fixed vs adaptive), exactly as the paper frames it.

use dissem_codec::FileSpec;
use netsim::Topology;

use bullet_prime::{
    BulletPrimeNode, Config, OutstandingPolicy, PeerSetPolicy, RequestStrategy, TransferMode,
};

use crate::ASSUMED_ENCODING_OVERHEAD;

/// Fixed number of senders and receivers in original Bullet.
pub const BULLET_PEERS: usize = 10;
/// Fixed per-sender outstanding window in original Bullet.
pub const BULLET_OUTSTANDING: u32 = 5;

/// Configuration for an original-Bullet deployment.
pub fn bullet_config(file: FileSpec) -> Config {
    let mut cfg = Config::new(file);
    cfg.peer_policy = PeerSetPolicy::Fixed(BULLET_PEERS);
    cfg.outstanding_policy = OutstandingPolicy::Fixed(BULLET_OUTSTANDING);
    cfg.request_strategy = RequestStrategy::Random;
    cfg.transfer_mode = TransferMode::Encoded {
        epsilon: ASSUMED_ENCODING_OVERHEAD,
    };
    // Original Bullet exchanged availability summaries periodically (every
    // RanSub epoch) rather than with Bullet's self-clocking incremental
    // diffs, so receivers often act on stale information.
    cfg.lazy_diffs = true;
    cfg.housekeeping_period = desim::SimDuration::from_secs(5);
    cfg
}

/// Builds the per-node protocol instances for an original-Bullet run.
///
/// Node 0 is the source. The control tree uses the same fan-out as Bullet′ so
/// differences in the measurements come from the protocol policies, not the
/// control topology.
pub fn build_nodes(
    topo: &Topology,
    file: FileSpec,
    rng: &desim::RngFactory,
) -> Vec<BulletPrimeNode> {
    bullet_prime::build_nodes(topo, &bullet_config(file), rng)
}

/// Builds a ready-to-run runner for an original-Bullet experiment: Bullet′'s
/// runner under [`bullet_config`].
pub fn build_runner(
    topo: Topology,
    file: FileSpec,
    rng: &desim::RngFactory,
) -> netsim::Runner<BulletPrimeNode> {
    bullet_prime::build_runner(topo, &bullet_config(file), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{RngFactory, SimDuration};
    use netsim::{topology, StopReason};

    #[test]
    fn config_pins_the_fixed_parameters() {
        let cfg = bullet_config(FileSpec::from_mb_kb(1, 16));
        assert_eq!(cfg.peer_policy, PeerSetPolicy::Fixed(10));
        assert_eq!(cfg.outstanding_policy, OutstandingPolicy::Fixed(5));
        assert_eq!(cfg.request_strategy, RequestStrategy::Random);
        assert!(matches!(cfg.transfer_mode, TransferMode::Encoded { .. }));
    }

    #[test]
    fn original_bullet_completes_a_small_download() {
        let rng = RngFactory::new(21);
        let topo = topology::modelnet_mesh(8, 0.01, &rng);
        let mut runner = build_runner(topo, FileSpec::new(256 * 1024, 16 * 1024), &rng);
        let report = runner.run(SimDuration::from_secs(3_600));
        assert_eq!(report.reason, StopReason::AllComplete, "{report:?}");
    }
}
