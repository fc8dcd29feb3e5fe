//! The adaptive peering strategy (paper §3.3.1, Fig 2).
//!
//! A node's peer set has two directions, its senders and its receivers, and
//! one rule serves both. Each direction keeps a target size (starting at
//! [`INITIAL_PEERS`], bounded by the hard limits [`MIN_PEERS`] and
//! [`MAX_PEERS`]). Every time a RanSub distribute message arrives the node,
//! for each direction:
//!
//! 1. runs Fig 2's feedback loop: if the direction's size moved since the
//!    previous epoch, keep the change if its total bandwidth (incoming for
//!    senders, outgoing for receivers) improved and revert it otherwise;
//! 2. trims peers whose bandwidth sits more than [`TRIM_SIGMA`] standard
//!    deviations below the mean, never below [`MIN_PEERS`]. The budget of
//!    drops goes lowest rank first: a sender's rank is its bandwidth, a
//!    receiver's the *share* of its total incoming bandwidth it gets from
//!    us, and a receiver that gets half or more from us is never dropped;
//! 3. tops the senders back up to the (possibly new) target with candidates
//!    taken from the RanSub sample; receivers are admitted against their
//!    target as their requests arrive.
//!
//! The same component also implements the paper's static configurations
//! (`PeerSetPolicy::Fixed`), which Figs 7–9 compare against.

use netsim::NodeId;

use crate::config::{PeerSetPolicy, INITIAL_PEERS, MAX_PEERS, MIN_PEERS, TRIM_SIGMA};

/// One peer's observation for one epoch, in either direction.
#[derive(Debug, Clone, Copy)]
pub struct PeerObservation {
    /// The peer.
    pub peer: NodeId,
    /// Bytes/second over the last epoch: received from a sender, sent to a
    /// receiver.
    pub bandwidth: f64,
    /// A receiver's self-reported total incoming bandwidth (bytes/second),
    /// which protects a receiver that depends on us; `None` for a sender.
    pub their_total_incoming: Option<f64>,
}

impl PeerObservation {
    /// The trim spends its budget lowest rank first: a sender's bandwidth,
    /// or the share of a receiver's incoming bandwidth it gets from us.
    fn rank(&self) -> f64 {
        match self.their_total_incoming {
            None => self.bandwidth,
            Some(total) if total <= 0.0 => 0.0,
            Some(total) => (self.bandwidth / total).min(1.0),
        }
    }
}

/// What the peering strategy decided at an epoch boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochDecision {
    /// Senders to disconnect from.
    pub drop_senders: Vec<NodeId>,
    /// Receivers to disconnect.
    pub drop_receivers: Vec<NodeId>,
    /// How many new senders to try to acquire after the drops.
    pub sender_slots: usize,
}

/// One direction of the peer set: its target size and what the previous
/// epoch saw of it.
#[derive(Debug, Clone)]
struct Direction {
    target: usize,
    /// The previous epoch's size and total bandwidth (dynamic policy only).
    prev: Option<(usize, f64)>,
}

impl Direction {
    /// Runs Fig 2's loop and then the trim on this epoch's observations of
    /// the direction; returns the peers to drop.
    fn on_epoch(&mut self, obs: &[PeerObservation]) -> Vec<NodeId> {
        let size = obs.len();
        let bw: f64 = obs.iter().map(|o| o.bandwidth).sum();
        let prev = self.prev.replace((size, bw));
        // "if (size(senders) != MAX_SENDERS) return;" — only adjust the
        // target when we actually reached it, otherwise we cannot attribute
        // the bandwidth change to the size change.
        if size == self.target {
            self.target = match prev {
                // Try to add a new peer by default.
                None | Some((0, _)) => self.target + 1,
                Some((prev_size, prev_bw)) if size > prev_size => {
                    if bw > prev_bw {
                        self.target + 1 // Adding a peer helped; try another.
                    } else {
                        self.target.saturating_sub(1) // Adding was bad.
                    }
                }
                Some((prev_size, prev_bw)) if size < prev_size => {
                    if bw > prev_bw {
                        self.target.saturating_sub(1) // Losing one made us faster.
                    } else {
                        self.target + 1 // Losing one was bad.
                    }
                }
                Some(_) => self.target,
            }
            .clamp(MIN_PEERS, MAX_PEERS);
        }
        trim_slow(obs)
    }
}

/// The adaptive peer-set manager. Only its policy is chosen; the bounds
/// ([`MIN_PEERS`], [`MAX_PEERS`]) and the trim threshold ([`TRIM_SIGMA`])
/// are protocol constants.
#[derive(Debug, Clone)]
pub struct PeerManager {
    policy: PeerSetPolicy,
    senders: Direction,
    receivers: Direction,
}

impl PeerManager {
    /// Creates a manager with the given policy: a dynamic one starts at
    /// [`INITIAL_PEERS`], a fixed one at its size.
    pub fn new(policy: PeerSetPolicy) -> Self {
        let target = match policy {
            PeerSetPolicy::Dynamic => INITIAL_PEERS,
            PeerSetPolicy::Fixed(k) => k,
        };
        let direction = Direction { target, prev: None };
        PeerManager {
            policy,
            senders: direction.clone(),
            receivers: direction,
        }
    }

    /// Current target number of senders.
    pub fn max_senders(&self) -> usize {
        self.senders.target
    }

    /// Current target number of receivers.
    pub fn max_receivers(&self) -> usize {
        self.receivers.target
    }

    /// Runs the epoch logic given this epoch's observations and returns the
    /// decisions to enact.
    pub fn on_epoch(
        &mut self,
        senders: &[PeerObservation],
        receivers: &[PeerObservation],
    ) -> EpochDecision {
        let (drop_senders, drop_receivers) = match self.policy {
            PeerSetPolicy::Dynamic => (
                self.senders.on_epoch(senders),
                self.receivers.on_epoch(receivers),
            ),
            PeerSetPolicy::Fixed(_) => (Vec::new(), Vec::new()),
        };
        let senders_after = senders.len() - drop_senders.len();
        EpochDecision {
            drop_senders,
            drop_receivers,
            sender_slots: self.senders.target.saturating_sub(senders_after),
        }
    }
}

/// Disconnect peers whose bandwidth is more than [`TRIM_SIGMA`] standard
/// deviations below the mean, lowest rank first and never dropping below
/// [`MIN_PEERS`] peers; a receiver that gets half or more of its incoming
/// bandwidth from us is never dropped.
fn trim_slow(obs: &[PeerObservation]) -> Vec<NodeId> {
    if obs.len() <= MIN_PEERS {
        return Vec::new();
    }
    let n = obs.len() as f64;
    let mean = obs.iter().map(|o| o.bandwidth).sum::<f64>() / n;
    let var = obs
        .iter()
        .map(|o| (o.bandwidth - mean) * (o.bandwidth - mean))
        .sum::<f64>()
        / n;
    let std = var.sqrt();
    if std <= f64::EPSILON {
        return Vec::new();
    }
    let threshold = mean - TRIM_SIGMA * std;
    // The sort is stable, so equal ranks keep the observations' order.
    let mut sorted: Vec<&PeerObservation> = obs.iter().collect();
    sorted.sort_by(|a, b| a.rank().total_cmp(&b.rank()));
    let mut allowed = obs.len() - MIN_PEERS;
    let mut drops = Vec::new();
    for o in sorted {
        if allowed == 0 {
            break;
        }
        // A receiver whose share is 0.5 or more depends on us and stays.
        if o.bandwidth < threshold && (o.their_total_incoming.is_none() || o.rank() < 0.5) {
            drops.push(o.peer);
            allowed -= 1;
        }
    }
    drops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender(i: u32, bw: f64) -> PeerObservation {
        PeerObservation {
            peer: NodeId(i),
            bandwidth: bw,
            their_total_incoming: None,
        }
    }

    fn receiver(i: u32, bw: f64, total: f64) -> PeerObservation {
        PeerObservation {
            peer: NodeId(i),
            bandwidth: bw,
            their_total_incoming: Some(total),
        }
    }

    fn dynamic_manager() -> PeerManager {
        PeerManager::new(PeerSetPolicy::Dynamic)
    }

    #[test]
    fn starts_at_initial_targets() {
        let m = dynamic_manager();
        assert_eq!(m.max_senders(), 10);
        assert_eq!(m.max_receivers(), 10);
        let f = PeerManager::new(PeerSetPolicy::Fixed(14));
        assert_eq!(f.max_senders(), 14);
    }

    #[test]
    fn first_full_epoch_probes_upward() {
        let mut m = dynamic_manager();
        // We are at the target with no history: "try to add a new peer by default".
        let senders: Vec<_> = (0..10).map(|i| sender(i, 100_000.0)).collect();
        let receivers: Vec<_> = (0..10)
            .map(|i| receiver(100 + i, 100_000.0, 500_000.0))
            .collect();
        let d = m.on_epoch(&senders, &receivers);
        assert_eq!(m.max_senders(), 11);
        assert_eq!(m.max_receivers(), 11);
        assert_eq!(d.sender_slots, 1);
    }

    #[test]
    fn bandwidth_gain_keeps_growing_and_loss_reverts() {
        let mut m = dynamic_manager();
        let mk = |n: usize, each: f64| -> Vec<PeerObservation> {
            (0..n as u32).map(|i| sender(i, each)).collect()
        };
        let none: Vec<PeerObservation> = Vec::new();
        // Epoch 1: at target 10, no history -> probe to 11.
        m.on_epoch(&mk(10, 100_000.0), &none);
        assert_eq!(m.max_senders(), 11);
        // Epoch 2: now 11 senders and higher total bandwidth -> keep growing.
        m.on_epoch(&mk(11, 105_000.0), &none);
        assert_eq!(m.max_senders(), 12);
        // Epoch 3: 12 senders but total bandwidth *fell* -> adding was bad, back off.
        m.on_epoch(&mk(12, 80_000.0), &none);
        assert_eq!(m.max_senders(), 11);
        // Epoch 4: 11 senders (fewer than before) and bandwidth improved ->
        // losing a sender made us faster; drop the target again.
        m.on_epoch(&mk(11, 95_000.0), &none);
        assert_eq!(m.max_senders(), 10);
    }

    #[test]
    fn no_adjustment_when_not_at_target() {
        let mut m = dynamic_manager();
        let senders: Vec<_> = (0..7).map(|i| sender(i, 50_000.0)).collect();
        m.on_epoch(&senders, &[]);
        assert_eq!(m.max_senders(), 10, "size != target, Fig 2 returns early");
    }

    #[test]
    fn targets_respect_hard_bounds() {
        let mut m = dynamic_manager();
        // Drive the target upward for many epochs.
        for epoch in 0..40usize {
            let n = m.max_senders();
            let senders: Vec<_> = (0..n as u32)
                .map(|i| sender(i, 1_000.0 * (epoch + 1) as f64))
                .collect();
            m.on_epoch(&senders, &[]);
        }
        assert!(m.max_senders() <= 25);
        // And downward.
        let mut m = dynamic_manager();
        for epoch in 0..40usize {
            let n = m.max_senders();
            // Alternate growth then a bandwidth collapse so the loop keeps
            // retracting.
            let bw = if epoch % 2 == 0 { 1_000_000.0 } else { 1.0 };
            let senders: Vec<_> = (0..n as u32).map(|i| sender(i, bw / n as f64)).collect();
            m.on_epoch(&senders, &[]);
        }
        assert!(m.max_senders() >= 6);
    }

    #[test]
    fn slow_outlier_sender_is_trimmed() {
        let mut m = dynamic_manager();
        let mut senders: Vec<_> = (0..9).map(|i| sender(i, 200_000.0)).collect();
        senders.push(sender(99, 1_000.0)); // Far more than 1.5 sigma below.
        let d = m.on_epoch(&senders, &[]);
        assert_eq!(d.drop_senders, vec![NodeId(99)]);
        // Slots reflect the trimmed peer plus the upward probe.
        assert_eq!(d.sender_slots, m.max_senders() - 9);
    }

    #[test]
    fn equal_senders_are_never_trimmed() {
        let mut m = dynamic_manager();
        let senders: Vec<_> = (0..10).map(|i| sender(i, 150_000.0)).collect();
        let d = m.on_epoch(&senders, &[]);
        assert!(
            d.drop_senders.is_empty(),
            "identical bandwidths must not be trimmed"
        );
    }

    #[test]
    fn trimming_never_goes_below_minimum() {
        let mut m = dynamic_manager();
        // 7 senders, 6 of which are terrible: only one may be dropped (min 6).
        let mut senders = vec![sender(0, 1_000_000.0)];
        senders.extend((1..7).map(|i| sender(i, 10.0 * f64::from(i))));
        let d = m.on_epoch(&senders, &[]);
        assert!(d.drop_senders.len() <= 1);
    }

    #[test]
    fn the_budget_drops_the_slowest_sender_first() {
        let mut m = dynamic_manager();
        // Both slow senders sit below the threshold (≈ 8,800 B/s), but seven
        // senders leave a budget of one drop above MIN_PEERS.
        let mut senders: Vec<_> = (0..5).map(|i| sender(i, 200_000.0)).collect();
        senders.push(sender(5, 2_000.0));
        senders.push(sender(6, 1_000.0));
        let d = m.on_epoch(&senders, &[]);
        assert_eq!(d.drop_senders, vec![NodeId(6)]);
    }

    #[test]
    fn the_budget_drops_the_least_dependent_receiver_first() {
        let mut m = dynamic_manager();
        // Both slow receivers sit below the threshold (≈ 18,200 B/s) and the
        // budget is one drop. Node 6 is faster than node 5 but gets a smaller
        // share of its incoming bandwidth from us, so it goes.
        let mut receivers: Vec<_> = (0..5).map(|i| receiver(i, 300_000.0, 600_000.0)).collect();
        receivers.push(receiver(5, 5_000.0, 16_000.0)); // share 0.31
        receivers.push(receiver(6, 10_000.0, 500_000.0)); // share 0.02
        let d = m.on_epoch(&[], &receivers);
        assert_eq!(d.drop_receivers, vec![NodeId(6)]);
    }

    #[test]
    fn dependent_receivers_are_protected() {
        let mut m = dynamic_manager();
        // Two slow receivers: one gets 80% of its bandwidth from us (protected),
        // one gets 5% (fair game).
        let mut receivers: Vec<_> = (0..8).map(|i| receiver(i, 300_000.0, 600_000.0)).collect();
        receivers.push(receiver(50, 10_000.0, 12_000.0)); // ratio 0.83
        receivers.push(receiver(51, 10_000.0, 500_000.0)); // ratio 0.02
        let d = m.on_epoch(&[], &receivers);
        assert!(d.drop_receivers.contains(&NodeId(51)));
        assert!(!d.drop_receivers.contains(&NodeId(50)));
    }

    #[test]
    fn fixed_policy_neither_adapts_nor_trims() {
        let mut m = PeerManager::new(PeerSetPolicy::Fixed(14));
        let mut senders: Vec<_> = (0..13).map(|i| sender(i, 200_000.0)).collect();
        senders.push(sender(99, 1.0));
        let d = m.on_epoch(&senders, &[]);
        assert!(d.drop_senders.is_empty());
        assert_eq!(m.max_senders(), 14);
        assert_eq!(d.sender_slots, 0);
    }

    #[test]
    fn slots_top_up_to_target() {
        let mut m = PeerManager::new(PeerSetPolicy::Fixed(10));
        let senders: Vec<_> = (0..4).map(|i| sender(i, 100_000.0)).collect();
        let d = m.on_epoch(&senders, &[]);
        assert_eq!(d.sender_slots, 6);
    }
}
