//! `baselines` — the comparison systems of the paper's evaluation.
//!
//! The paper positions Bullet′ against three deployed systems (Figs 4, 5 and
//! 14); each is reproduced here as a protocol over the same [`netsim`]
//! emulator so every system sees identical network conditions:
//!
//! * [`bittorrent`] — tracker-coordinated swarming with tit-for-tat choking,
//!   rarest-first piece selection, and hard-coded constants everywhere;
//! * [`bullet_orig`] — the original Bullet (SOSP '03): RanSub-discovered mesh
//!   with fixed peer sets, fixed outstanding windows and random requests;
//! * [`splitstream`] — an interior-node-disjoint forest of stripe trees fed
//!   by pure push.

#![forbid(unsafe_code)]

pub mod bittorrent;
pub mod bullet_orig;
pub mod splitstream;

pub use bittorrent::{BitTorrentConfig, BitTorrentNode, BtMsg, BtTimer};
pub use bullet_orig::bullet_config;
pub use splitstream::{SplitStreamNode, SsMsg, SsTimer, StripeForest};

#[cfg(test)]
mod end_to_end {
    use super::*;
    use desim::{RngFactory, SimDuration};
    use dissem_codec::FileSpec;
    use netsim::{topology, RingSink, StopReason, TraceEvent, TraceSink};

    #[test]
    fn bittorrent_swarm_completes_and_benefits_from_swarming() {
        let rng = RngFactory::new(31);
        let topo = topology::modelnet_mesh(10, 0.005, &rng);
        let file = FileSpec::new(512 * 1024, 16 * 1024);
        let mut runner = bittorrent::build_runner(topo, file, &rng);
        runner.set_trace_sink(Box::new(RingSink::new(1 << 20)));
        let report = runner.run(SimDuration::from_secs(3_600));
        assert_eq!(report.reason, StopReason::AllComplete, "{report:?}");
        for (node, done) in runner.nodes().iter().zip(&report.completion_secs).skip(1) {
            assert_eq!(node.blocks_held(), 32);
            assert!(done.is_some());
        }
        // Leechers must have uploaded to each other: some block was sent by
        // a node other than the seed.
        let ring = runner
            .take_trace_sink::<RingSink>()
            .expect("the ring installed above");
        assert_eq!(ring.dropped(), 0);
        let leecher_sent = ring
            .into_records()
            .iter()
            .any(|rec| matches!(rec.ev, TraceEvent::BlockSent { from, .. } if from != 0));
        assert!(leecher_sent, "peers should exchange data among themselves");
    }

    #[test]
    fn bittorrent_runs_are_deterministic() {
        let run = |seed: u64| {
            let rng = RngFactory::new(seed);
            let topo = topology::modelnet_mesh(8, 0.01, &rng);
            let file = FileSpec::new(256 * 1024, 16 * 1024);
            let mut runner = bittorrent::build_runner(topo, file, &rng);
            runner.run(SimDuration::from_secs(3_600)).completion_secs
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn all_three_baselines_complete_on_the_same_topology() {
        let seed = 77;
        let file = FileSpec::new(256 * 1024, 16 * 1024);

        // BitTorrent.
        let rng = RngFactory::new(seed);
        let topo = topology::modelnet_mesh(8, 0.01, &rng);
        let mut bt = bittorrent::build_runner(topo, file, &rng);
        assert_eq!(
            bt.run(SimDuration::from_secs(3_600)).reason,
            StopReason::AllComplete
        );

        // Original Bullet.
        let rng = RngFactory::new(seed);
        let topo = topology::modelnet_mesh(8, 0.01, &rng);
        let mut bl = bullet_orig::build_runner(topo, file, &rng);
        assert_eq!(
            bl.run(SimDuration::from_secs(3_600)).reason,
            StopReason::AllComplete
        );

        // SplitStream.
        let rng = RngFactory::new(seed);
        let topo = topology::modelnet_mesh(8, 0.01, &rng);
        let mut ss = splitstream::build_runner(topo, file, &rng);
        assert_eq!(
            ss.run(SimDuration::from_secs(3_600)).reason,
            StopReason::AllComplete
        );
    }
}
