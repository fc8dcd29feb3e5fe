//! The adaptive peering strategy (paper §3.3.1, Fig 2).
//!
//! Each node maintains two target sizes, `MAX_SENDERS` and `MAX_RECEIVERS`
//! (both start at [`INITIAL_PEERS`], bounded by the hard limits [`MIN_PEERS`]
//! and [`MAX_PEERS`]). Every time a RanSub distribute message arrives the
//! node:
//!
//! 1. runs the ManageSenders feedback loop: if the peer-set size moved since
//!    the previous epoch, keep the change if bandwidth improved and revert it
//!    otherwise (and symmetrically for receivers using outgoing bandwidth);
//! 2. trims peers whose bandwidth sits more than [`TRIM_SIGMA`] standard
//!    deviations below the mean — receivers are ranked by the *fraction* of
//!    their total incoming bandwidth they get from us, so we never cut off a
//!    peer that depends on us;
//! 3. tops the peer sets back up to the (possibly new) targets with
//!    candidates taken from the RanSub sample.
//!
//! The same component also implements the paper's static configurations
//! (`PeerSetPolicy::Fixed`), which Figs 7–9 compare against.

use netsim::NodeId;

use crate::config::{PeerSetPolicy, INITIAL_PEERS, MAX_PEERS, MIN_PEERS, TRIM_SIGMA};

/// Per-sender observation for one epoch: how fast this sender delivered to us.
#[derive(Debug, Clone, Copy)]
pub struct SenderObservation {
    /// The sender.
    pub peer: NodeId,
    /// Bytes/second received from this sender over the last epoch.
    pub bandwidth: f64,
}

/// Per-receiver observation for one epoch.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverObservation {
    /// The receiver.
    pub peer: NodeId,
    /// Bytes/second we sent to this receiver over the last epoch.
    pub bandwidth: f64,
    /// The receiver's self-reported total incoming bandwidth (bytes/second);
    /// used to protect receivers that depend on us.
    pub their_total_incoming: f64,
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
    /// How many new receivers we are willing to accept after the drops.
    pub receiver_slots: usize,
}

/// The adaptive peer-set manager. Only its policy is chosen; the bounds
/// ([`MIN_PEERS`], [`MAX_PEERS`]) and the trim threshold ([`TRIM_SIGMA`])
/// are protocol constants.
#[derive(Debug, Clone)]
pub struct PeerManager {
    policy: PeerSetPolicy,
    max_senders: usize,
    max_receivers: usize,
    prev_num_senders: Option<usize>,
    prev_incoming_bw: f64,
    prev_num_receivers: Option<usize>,
    prev_outgoing_bw: f64,
}

impl PeerManager {
    /// Creates a manager with the given policy: a dynamic one starts at
    /// [`INITIAL_PEERS`], a fixed one at its size.
    pub fn new(policy: PeerSetPolicy) -> Self {
        let start = match policy {
            PeerSetPolicy::Dynamic => INITIAL_PEERS,
            PeerSetPolicy::Fixed(k) => k,
        };
        PeerManager {
            policy,
            max_senders: start,
            max_receivers: start,
            prev_num_senders: None,
            prev_incoming_bw: 0.0,
            prev_num_receivers: None,
            prev_outgoing_bw: 0.0,
        }
    }

    /// Current target number of senders.
    pub fn max_senders(&self) -> usize {
        self.max_senders
    }

    /// Current target number of receivers.
    pub fn max_receivers(&self) -> usize {
        self.max_receivers
    }

    /// Runs the epoch logic given this epoch's observations and returns the
    /// decisions to enact.
    pub fn on_epoch(
        &mut self,
        senders: &[SenderObservation],
        receivers: &[ReceiverObservation],
    ) -> EpochDecision {
        let incoming_bw: f64 = senders.iter().map(|s| s.bandwidth).sum();
        let outgoing_bw: f64 = receivers.iter().map(|r| r.bandwidth).sum();

        if matches!(self.policy, PeerSetPolicy::Dynamic) {
            self.max_senders = manage_target(
                self.max_senders,
                senders.len(),
                self.prev_num_senders,
                incoming_bw,
                self.prev_incoming_bw,
            );
            self.max_receivers = manage_target(
                self.max_receivers,
                receivers.len(),
                self.prev_num_receivers,
                outgoing_bw,
                self.prev_outgoing_bw,
            );
        }

        let drop_senders = if matches!(self.policy, PeerSetPolicy::Dynamic) {
            trim_slow_senders(senders)
        } else {
            Vec::new()
        };
        let drop_receivers = if matches!(self.policy, PeerSetPolicy::Dynamic) {
            trim_slow_receivers(receivers)
        } else {
            Vec::new()
        };

        self.prev_num_senders = Some(senders.len());
        self.prev_incoming_bw = incoming_bw;
        self.prev_num_receivers = Some(receivers.len());
        self.prev_outgoing_bw = outgoing_bw;

        let senders_after = senders.len().saturating_sub(drop_senders.len());
        let receivers_after = receivers.len().saturating_sub(drop_receivers.len());
        EpochDecision {
            drop_senders,
            drop_receivers,
            sender_slots: self.max_senders.saturating_sub(senders_after),
            receiver_slots: self.max_receivers.saturating_sub(receivers_after),
        }
    }
}

/// The ManageSenders / ManageReceivers feedback loop (Fig 2), generalised over
/// which direction's bandwidth is observed.
fn manage_target(
    mut target: usize,
    current_size: usize,
    prev_size: Option<usize>,
    bw: f64,
    prev_bw: f64,
) -> usize {
    // "if (size(senders) != MAX_SENDERS) return;" — only adjust the target
    // when we actually reached it, otherwise we cannot attribute the
    // bandwidth change to the size change.
    if current_size != target {
        return target;
    }
    match prev_size {
        None | Some(0) => {
            // Try to add a new peer by default.
            target += 1;
        }
        Some(prev) if current_size > prev => {
            if bw > prev_bw {
                target += 1; // Adding a sender helped; try another.
            } else {
                target = target.saturating_sub(1); // Adding was bad.
            }
        }
        Some(prev) if current_size < prev => {
            if bw > prev_bw {
                target = target.saturating_sub(1); // Losing one made us faster.
            } else {
                target += 1; // Losing one was bad.
            }
        }
        Some(_) => {}
    }
    target.clamp(MIN_PEERS, MAX_PEERS)
}

/// Disconnect senders whose bandwidth is more than [`TRIM_SIGMA`] standard
/// deviations below the mean, never dropping below [`MIN_PEERS`] peers.
fn trim_slow_senders(senders: &[SenderObservation]) -> Vec<NodeId> {
    if senders.len() <= MIN_PEERS {
        return Vec::new();
    }
    let bw: Vec<f64> = senders.iter().map(|s| s.bandwidth).collect();
    let (mean, std) = mean_std(&bw);
    if std <= f64::EPSILON {
        return Vec::new();
    }
    let threshold = mean - TRIM_SIGMA * std;
    // Sort slowest-first so the budget of allowed drops goes to the worst.
    let mut sorted: Vec<&SenderObservation> = senders.iter().collect();
    sorted.sort_by(|a, b| {
        a.bandwidth
            .partial_cmp(&b.bandwidth)
            .expect("finite bandwidths")
    });
    let mut allowed = senders.len() - MIN_PEERS;
    let mut drops = Vec::new();
    for s in sorted {
        if allowed == 0 {
            break;
        }
        if s.bandwidth < threshold {
            drops.push(s.peer);
            allowed -= 1;
        }
    }
    drops
}

/// Disconnect receivers that limit our outgoing bandwidth, ranked by the
/// fraction of their own incoming bandwidth they get from us so we do not cut
/// off nodes that depend on us.
fn trim_slow_receivers(receivers: &[ReceiverObservation]) -> Vec<NodeId> {
    if receivers.len() <= MIN_PEERS {
        return Vec::new();
    }
    let bw: Vec<f64> = receivers.iter().map(|r| r.bandwidth).collect();
    let (mean, std) = mean_std(&bw);
    if std <= f64::EPSILON {
        return Vec::new();
    }
    let threshold = mean - TRIM_SIGMA * std;
    let ratio = |r: &ReceiverObservation| {
        if r.their_total_incoming <= 0.0 {
            0.0
        } else {
            (r.bandwidth / r.their_total_incoming).min(1.0)
        }
    };
    let mut sorted: Vec<&ReceiverObservation> = receivers.iter().collect();
    // Lowest dependence on us first.
    sorted.sort_by(|a, b| ratio(a).partial_cmp(&ratio(b)).expect("finite ratios"));
    let mut allowed = receivers.len() - MIN_PEERS;
    let mut drops = Vec::new();
    for r in sorted {
        if allowed == 0 {
            break;
        }
        // Protect receivers that get most of their bandwidth from us.
        if r.bandwidth < threshold && ratio(r) < 0.5 {
            drops.push(r.peer);
            allowed -= 1;
        }
    }
    drops
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender(i: u32, bw: f64) -> SenderObservation {
        SenderObservation {
            peer: NodeId(i),
            bandwidth: bw,
        }
    }

    fn receiver(i: u32, bw: f64, total: f64) -> ReceiverObservation {
        ReceiverObservation {
            peer: NodeId(i),
            bandwidth: bw,
            their_total_incoming: total,
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
        assert_eq!(d.receiver_slots, 1);
    }

    #[test]
    fn bandwidth_gain_keeps_growing_and_loss_reverts() {
        let mut m = dynamic_manager();
        let mk = |n: usize, each: f64| -> Vec<SenderObservation> {
            (0..n as u32).map(|i| sender(i, each)).collect()
        };
        let none: Vec<ReceiverObservation> = Vec::new();
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
