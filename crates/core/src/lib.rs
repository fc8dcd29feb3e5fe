//! `bullet-prime` — the paper's contribution: an adaptive, mesh-based,
//! high-bandwidth data dissemination protocol.
//!
//! Bullet′ ("Bullet prime") distributes a large file from a single source to
//! many receivers by layering a *pull* mesh over a thin control tree:
//!
//! * the **source** pushes each block exactly once, round-robin over its
//!   control-tree children, skipping full pipes ([`node`], §3.3.5);
//! * **RanSub** (from the [`overlay`] crate) periodically delivers a changing
//!   uniformly random subset of node summaries to every participant;
//! * the **peering strategy** ([`peering`]) uses those subsets to maintain an
//!   adaptively sized set of senders and receivers, trimming peers whose
//!   bandwidth falls 1.5σ below the mean (§3.3.1, Fig 2);
//! * the **request manager** ([`request`]) keeps one record per sender —
//!   its offer, the requests outstanding to it, its window and rate — and
//!   orders block requests rarest-random to maximise block diversity
//!   (§3.3.2);
//! * the **flow controller** ([`flow`]) adapts the per-sender number of
//!   outstanding requests with an XCP-style control loop targeting one block
//!   queued ahead of the socket buffer (§3.3.3, Fig 3);
//! * **incremental diffs** (`dissem_codec::diff`) keep receivers informed
//!   of new availability with self-clocking updates (§3.3.4).
//!
//! The crate exposes each mechanism as an independently testable component
//! plus the composed [`BulletPrimeNode`] protocol and deployment helpers in
//! [`builder`].

#![forbid(unsafe_code)]

pub mod builder;
pub mod config;
pub mod flow;
pub mod messages;
pub mod node;
mod peer_map;
pub mod peering;
pub mod request;
pub mod service;

pub use builder::{build_group_runner, build_nodes, build_nodes_with_tree, build_runner};
pub use config::{Config, OutstandingPolicy, PeerSetPolicy, RequestStrategy, TransferMode};
pub use flow::OutstandingController;
pub use messages::Msg;
pub use node::{BulletPrimeNode, Role, Timer};
pub use peering::{EpochDecision, PeerManager, ReceiverObservation, SenderObservation};
pub use request::RequestManager;
pub use service::{FlashShape, ServiceSwarms};

#[cfg(test)]
mod end_to_end {
    use super::*;
    use desim::{RngFactory, SimDuration};
    use dissem_codec::FileSpec;
    use netsim::{topology, Protocol, StopReason};

    fn run(
        n: usize,
        file_kb: u64,
        seed: u64,
        tweak: impl FnOnce(&mut Config),
    ) -> (netsim::RunReport, Vec<BulletPrimeNode>) {
        let rng = RngFactory::new(seed);
        let topo = topology::modelnet_mesh(n, 0.01, &rng);
        let mut cfg = Config::new(FileSpec::new(file_kb * 1024, 16 * 1024));
        tweak(&mut cfg);
        let mut runner = build_runner(topo, &cfg, &rng);
        let report = runner.run(SimDuration::from_secs(3_600));
        let nodes = runner.into_nodes();
        (report, nodes)
    }

    #[test]
    fn small_swarm_downloads_the_whole_file() {
        let (report, nodes) = run(12, 512, 42, |_| {});
        assert_eq!(report.reason, StopReason::AllComplete, "{report:?}");
        for (node, done) in nodes.iter().zip(&report.completion_secs).skip(1) {
            assert!(node.is_complete(), "node {} incomplete", node.id());
            // 512 KiB file / 16 KiB blocks = exactly 32 source blocks. In the
            // default unencoded mode (§3 of the paper) a receiver is complete
            // when it holds every source block, no more and no fewer — unlike
            // the encoded mode, where completion needs (1+eps)*k distinct
            // encoded blocks (see `encoded_mode_completes_with_overhead_target`).
            assert_eq!(node.blocks_held(), 32);
            assert!(done.is_some());
        }
        for node in nodes.iter().skip(1) {
            assert!(
                node.probe_stats().duplicate_ratio() < 0.35,
                "node {} wasted too much bandwidth on duplicates: {}",
                node.id(),
                node.probe_stats().duplicate_ratio()
            );
        }
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let (a, _) = run(10, 256, 7, |_| {});
        let (b, _) = run(10, 256, 7, |_| {});
        assert_eq!(a.completion_secs, b.completion_secs);
        assert_eq!(a.events, b.events);
        let (c, _) = run(10, 256, 8, |_| {});
        assert_ne!(
            a.completion_secs, c.completion_secs,
            "different seeds should differ"
        );
    }

    #[test]
    fn encoded_mode_completes_with_overhead_target() {
        let (report, nodes) = run(8, 256, 3, |cfg| {
            cfg.transfer_mode = TransferMode::Encoded { epsilon: 0.04 };
        });
        assert_eq!(report.reason, StopReason::AllComplete);
        let target = nodes[1].probe_stats().useful_blocks;
        assert!(
            target >= 17,
            "encoded completion needs (1+eps)*16 = 17 blocks, got {target}"
        );
    }

    #[test]
    fn joiner_whose_parent_crashed_before_the_join_reattaches_to_the_root() {
        // Regression: node 2's control-tree parent (node 1) crashes *before*
        // node 2 joins, so node 2 never sees an on_peer_failed for it. Its
        // on_init must detect the dead parent and attach at the root, or it
        // would be orphaned from every distribute wave and never complete.
        use netsim::dynamics::NodeEvent;
        use netsim::{Network, NodeId, Runner};
        use overlay::ControlTree;

        let n = 8;
        let rng = desim::RngFactory::new(5);
        let topo = netsim::topology::modelnet_mesh(n, 0.0, &rng);
        let mut parents = vec![None, Some(NodeId(0)), Some(NodeId(1))];
        parents.extend((3..n).map(|_| Some(NodeId(0))));
        let tree = ControlTree::from_parents(parents);
        let cfg = Config::new(FileSpec::new(256 * 1024, 16 * 1024));
        let nodes = build_nodes_with_tree(&topo, &tree, &cfg);
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        runner.set_inactive_at_start(NodeId(2));
        runner.schedule_node_event(
            desim::SimTime::from_secs_f64(1.0),
            NodeEvent::Crash(NodeId(1)),
        );
        runner.schedule_node_event(
            desim::SimTime::from_secs_f64(5.0),
            NodeEvent::Join(NodeId(2)),
        );
        let report = runner.run(SimDuration::from_secs(3_600));
        assert_eq!(report.reason, StopReason::AllComplete, "{report:?}");
        assert!(
            report.completion_secs[2].is_some(),
            "the late joiner must complete despite its dead parent: {report:?}"
        );
    }

    #[test]
    fn parent_joining_after_its_child_does_not_stall_ransub() {
        // Regression: node 2's tree parent (node 1) joins *after* node 2 has
        // already re-attached to the root. Node 1 must start childless (its
        // construction-time child now reports to the root), or its collect
        // waves — and through them the whole overlay's — would wait forever
        // on a report that never comes.
        use netsim::dynamics::NodeEvent;
        use netsim::{Network, NodeId, Runner};
        use overlay::ControlTree;

        let n = 8;
        let rng = desim::RngFactory::new(6);
        let topo = netsim::topology::modelnet_mesh(n, 0.0, &rng);
        let mut parents = vec![None, Some(NodeId(0)), Some(NodeId(1))];
        parents.extend((3..n).map(|_| Some(NodeId(0))));
        let tree = ControlTree::from_parents(parents);
        let cfg = Config::new(FileSpec::new(256 * 1024, 16 * 1024));
        let nodes = build_nodes_with_tree(&topo, &tree, &cfg);
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        runner.set_inactive_at_start(NodeId(1));
        runner.schedule_node_event(
            desim::SimTime::from_secs_f64(6.0),
            NodeEvent::Join(NodeId(1)),
        );
        let report = runner.run(SimDuration::from_secs(3_600));
        assert_eq!(report.reason, StopReason::AllComplete, "{report:?}");
        assert!(
            report.completion_secs[1].is_some(),
            "the late parent completes: {report:?}"
        );
        assert!(
            report.completion_secs[2].is_some(),
            "the re-attached child completes: {report:?}"
        );
    }

    #[test]
    fn fixed_peering_and_fixed_outstanding_still_complete() {
        let (report, _) = run(10, 256, 5, |cfg| {
            cfg.peer_policy = PeerSetPolicy::Fixed(6);
            cfg.outstanding_policy = OutstandingPolicy::Fixed(5);
            cfg.request_strategy = RequestStrategy::Random;
        });
        assert_eq!(report.reason, StopReason::AllComplete);
    }

    #[test]
    fn every_request_strategy_completes() {
        for strategy in [
            RequestStrategy::FirstEncountered,
            RequestStrategy::Random,
            RequestStrategy::Rarest,
            RequestStrategy::RarestRandom,
        ] {
            let (report, _) = run(8, 128, 11, |cfg| cfg.request_strategy = strategy);
            assert_eq!(
                report.reason,
                StopReason::AllComplete,
                "strategy {strategy:?} failed to complete"
            );
        }
    }
}
