//! The four compared systems by name, and the two bandwidth-change
//! schedules of the paper with their standard parameters. Running a system
//! is [`crate::workload`]'s job.

use desim::{RngFactory, SimDuration};
use netsim::{ChangeSchedule, NodeId};

/// The systems compared in Figs 4, 5 and 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// The paper's contribution.
    BulletPrime,
    /// Original Bullet (SOSP '03), fixed parameters.
    BulletOriginal,
    /// BitTorrent with a central tracker.
    BitTorrent,
    /// SplitStream-style stripe-tree push.
    SplitStream,
}

impl SystemKind {
    /// Legend label used in the figures (matching the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::BulletPrime => "BulletPrime",
            SystemKind::BulletOriginal => "Bullet",
            SystemKind::BitTorrent => "BitTorrent",
            SystemKind::SplitStream => "SplitStream",
        }
    }

    /// All four systems in the order the paper lists them.
    pub fn all() -> [SystemKind; 4] {
        [
            SystemKind::BulletPrime,
            SystemKind::BulletOriginal,
            SystemKind::BitTorrent,
            SystemKind::SplitStream,
        ]
    }
}

/// Builds the bandwidth-change schedule of §4.1 for a run of `nodes`
/// participants over `horizon` seconds (used by Figs 5 and 8).
pub fn paper_dynamic_schedule(nodes: usize, horizon: f64, rng: &RngFactory) -> ChangeSchedule {
    netsim::dynamics::correlated_decrease_schedule(
        nodes,
        SimDuration::from_secs(20),
        SimDuration::from_secs_f64(horizon),
        rng,
    )
}

/// Builds the Fig 12 cascading-degrade schedule for the standard cascade
/// topology: the victim is the last node; one dedicated link degrades to
/// 100 Kbps every `period_secs` (25 s in the paper).
pub fn cascade_schedule(fast_nodes: usize, period_secs: f64) -> ChangeSchedule {
    let senders: Vec<NodeId> = (1..fast_nodes as u32).map(NodeId).collect();
    let victim = NodeId(fast_nodes as u32);
    netsim::dynamics::cascading_degrade_schedule(
        &senders,
        victim,
        SimDuration::from_secs_f64(period_secs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::CommonOpts;
    use crate::workload::{Dynamics, TopologyKind, Workload};
    use dissem_codec::FileSpec;

    #[test]
    fn all_four_systems_run_on_a_tiny_workload() {
        let opts = CommonOpts {
            seed: 3,
            time_limit: 1800.0,
            ..CommonOpts::default()
        };
        let w = Workload::new(
            &opts,
            TopologyKind::ModelNetMesh { max_loss: 0.005 },
            6,
            FileSpec::new(128 * 1024, 16 * 1024),
            Dynamics::Static,
        );
        for kind in SystemKind::all() {
            let run = w.run_system(kind);
            assert_eq!(run.times.len(), 5, "{kind:?}");
            assert_eq!(run.unfinished, 0, "{kind:?} left receivers unfinished");
            assert!(run.times.iter().all(|&t| t > 0.0 && t <= run.end_time));
        }
    }

    #[test]
    fn schedules_are_generated_for_the_standard_scenarios() {
        let rng = RngFactory::new(1);
        let dynamic = paper_dynamic_schedule(20, 100.0, &rng);
        assert_eq!(dynamic.len(), 5);
        let cascade = cascade_schedule(7, 25.0);
        assert_eq!(cascade.len(), 6);
        assert_eq!(cascade[0].0.as_secs_f64(), 25.0);
        assert!(cascade.iter().all(|(_, b)| b.changes()[0].1 == NodeId(7)));
    }
}
