//! The original Bullet (SOSP '03) baseline.
//!
//! Bullet — the predecessor Bullet′ improves on — also layers a mesh over a
//! RanSub control tree, but with the fixed-parameter behaviours the paper
//! identifies as its weaknesses (§4.2, §5):
//!
//! * the source pushes distinct blocks round-robin over its tree children,
//!   so no receiver gets everything from the tree and the mesh must recover
//!   the rest; interior nodes push nothing;
//! * receivers locate additional senders through RanSub and pull missing
//!   blocks from them, but the peer set is **fixed at 10 senders/receivers**
//!   and never re-evaluated;
//! * each sender is kept at a **fixed number of outstanding requests**;
//! * requests are ordered **randomly** (Bullet reconciles sets against a
//!   summary rather than tracking global rarity);
//! * the stream is assumed to be source-encoded, so a download completes
//!   after receiving [`FileSpec::encoded_target`] distinct blocks,
//!   `(1 + 0.04) · n` — the same allowance the paper grants Bullet in its
//!   experiments.
//!
//! Original Bullet is Bullet′'s node under [`bullet_config`], with the
//! corresponding knobs pinned and no push or tree behaviour of its own.
//! Reusing the machinery keeps the comparison about the *policies* (fixed
//! vs adaptive), exactly as the paper frames it.

use dissem_codec::FileSpec;
use netsim::Topology;

use bullet_prime::{
    BulletPrimeNode, Config, OutstandingPolicy, PeerSetPolicy, RequestStrategy, TransferMode,
};

/// Fixed number of senders and receivers in original Bullet.
pub const BULLET_PEERS: usize = 10;
/// Fixed per-sender outstanding window in original Bullet.
pub const BULLET_OUTSTANDING: u32 = 5;

/// Configuration for an original-Bullet deployment: Bullet′'s [`Config`]
/// with a fixed peer set and window, random request order, an encoded
/// stream and lazy diffs (which also put housekeeping on the RanSub period).
pub fn bullet_config(file: FileSpec) -> Config {
    let mut cfg = Config::new(file);
    cfg.peer_policy = PeerSetPolicy::Fixed(BULLET_PEERS);
    cfg.outstanding_policy = OutstandingPolicy::Fixed(BULLET_OUTSTANDING);
    cfg.request_strategy = RequestStrategy::Random;
    cfg.transfer_mode = TransferMode::Encoded;
    // Original Bullet exchanged availability summaries periodically (every
    // RanSub epoch, the housekeeping period lazy diffs run at) rather than
    // with Bullet's self-clocking incremental diffs, so receivers often act
    // on stale information.
    cfg.lazy_diffs = true;
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

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{RngFactory, SimDuration};
    use netsim::{topology, Network, Runner, StopReason};

    #[test]
    fn config_pins_the_fixed_parameters() {
        let cfg = bullet_config(FileSpec::from_mb_kb(1, 16));
        assert_eq!(cfg.peer_policy, PeerSetPolicy::Fixed(10));
        assert_eq!(cfg.outstanding_policy, OutstandingPolicy::Fixed(5));
        assert_eq!(cfg.request_strategy, RequestStrategy::Random);
        assert_eq!(cfg.transfer_mode, TransferMode::Encoded);
        assert!(cfg.lazy_diffs);
        assert_eq!(
            cfg.housekeeping_period(),
            bullet_prime::config::RANSUB_PERIOD
        );
    }

    #[test]
    fn original_bullet_completes_a_small_download() {
        let rng = RngFactory::new(21);
        let topo = topology::modelnet_mesh(8, 0.01, &rng);
        let nodes = build_nodes(&topo, FileSpec::new(256 * 1024, 16 * 1024), &rng);
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        let report = runner.run(SimDuration::from_secs(3_600));
        assert_eq!(report.reason, StopReason::AllComplete, "{report:?}");
    }
}
