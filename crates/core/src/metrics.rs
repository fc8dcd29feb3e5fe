//! Per-node download metrics.
//!
//! The evaluation needs, per receiver: the download completion time (Figs
//! 4–12, 14), the sequence of block arrival times (Fig 13's inter-arrival
//! analysis and the §4.6 "overage" computation), and bookkeeping of duplicate
//! and useful arrivals (the emulator's traffic counters provide raw bytes).

use desim::SimTime;
use netsim::ProbeStats;

/// Running statistics collected by a downloading node.
#[derive(Debug, Clone, Default)]
pub struct DownloadMetrics {
    /// Arrival time (seconds) of each *useful* (non-duplicate) block, in
    /// arrival order.
    pub arrival_times: Vec<f64>,
    /// Number of duplicate block arrivals.
    pub duplicate_blocks: u64,
    /// Useful payload bytes received.
    pub useful_bytes: u64,
    /// Duplicate payload bytes received.
    pub duplicate_bytes: u64,
    /// Completion time, if reached.
    pub completed_at: Option<f64>,
    /// Number of senders at completion time (diagnostic).
    pub senders_at_completion: usize,
}

impl DownloadMetrics {
    /// Records a block arrival.
    // Per received block, from three crates: without this it is a call
    // where BitTorrent and SplitStream used to have two inlined additions.
    #[inline]
    pub fn record_arrival(&mut self, now: SimTime, bytes: u64, duplicate: bool) {
        if duplicate {
            self.duplicate_blocks += 1;
            self.duplicate_bytes += bytes;
        } else {
            self.arrival_times.push(now.as_secs_f64());
            self.useful_bytes += bytes;
        }
    }

    /// Records completion.
    pub fn record_completion(&mut self, now: SimTime, senders: usize) {
        if self.completed_at.is_none() {
            self.completed_at = Some(now.as_secs_f64());
            self.senders_at_completion = senders;
        }
    }

    /// Number of useful blocks received so far.
    pub fn useful_blocks(&self) -> usize {
        self.arrival_times.len()
    }

    /// Inter-arrival times between consecutive useful blocks (Fig 13). The
    /// i-th entry is the gap before the (i+1)-th retrieved block.
    pub fn inter_arrival_times(&self) -> Vec<f64> {
        self.arrival_times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The §4.6 "overage": how much extra time the last `tail` inter-arrival
    /// gaps took compared with the overall average gap. A pronounced
    /// last-block problem shows up as a large overage.
    pub fn last_blocks_overage(&self, tail: usize) -> f64 {
        let gaps = self.inter_arrival_times();
        if gaps.is_empty() || tail == 0 {
            return 0.0;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let tail = tail.min(gaps.len());
        gaps[gaps.len() - tail..]
            .iter()
            .map(|g| (g - mean).max(0.0))
            .sum()
    }

    /// Fraction of received blocks that were duplicates.
    pub fn duplicate_fraction(&self) -> f64 {
        let total = self.duplicate_blocks + self.arrival_times.len() as u64;
        if total == 0 {
            return 0.0;
        }
        self.duplicate_blocks as f64 / total as f64
    }

    /// The emulator-facing view of this ledger (what
    /// [`netsim::Protocol::probe_stats`] returns), next to the node's current
    /// peer-set sizes.
    pub fn probe_stats(&self, senders: usize, receivers: usize) -> ProbeStats {
        ProbeStats {
            useful_bytes: self.useful_bytes,
            useful_blocks: self.useful_blocks() as u64,
            duplicate_blocks: self.duplicate_blocks,
            senders,
            receivers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_and_duplicates_are_tracked_separately() {
        let mut m = DownloadMetrics::default();
        m.record_arrival(SimTime::from_secs_f64(1.0), 100, false);
        m.record_arrival(SimTime::from_secs_f64(2.0), 100, true);
        m.record_arrival(SimTime::from_secs_f64(3.0), 100, false);
        assert_eq!(m.useful_blocks(), 2);
        assert_eq!(m.duplicate_blocks, 1);
        assert_eq!(m.useful_bytes, 200);
        assert_eq!(m.duplicate_bytes, 100);
        assert!((m.duplicate_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn inter_arrival_times_are_gaps() {
        let mut m = DownloadMetrics::default();
        for t in [1.0, 2.0, 4.0, 8.0] {
            m.record_arrival(SimTime::from_secs_f64(t), 1, false);
        }
        assert_eq!(m.inter_arrival_times(), vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn overage_detects_a_slow_tail() {
        let mut m = DownloadMetrics::default();
        // 99 blocks arriving once per second, then a 31-second gap.
        for i in 0..99 {
            m.record_arrival(SimTime::from_secs_f64(f64::from(i)), 1, false);
        }
        m.record_arrival(SimTime::from_secs_f64(98.0 + 31.0), 1, false);
        let overage = m.last_blocks_overage(20);
        assert!(
            overage > 29.0,
            "a 31s gap against a ~1.3s mean must show up, got {overage}"
        );

        let mut uniform = DownloadMetrics::default();
        for i in 0..100 {
            uniform.record_arrival(SimTime::from_secs_f64(f64::from(i)), 1, false);
        }
        assert!(uniform.last_blocks_overage(20) < 1e-9);
    }

    #[test]
    fn completion_is_recorded_once() {
        let mut m = DownloadMetrics::default();
        m.record_completion(SimTime::from_secs_f64(10.0), 7);
        m.record_completion(SimTime::from_secs_f64(20.0), 9);
        assert_eq!(m.completed_at, Some(10.0));
        assert_eq!(m.senders_at_completion, 7);
    }

    #[test]
    fn empty_metrics_are_well_behaved() {
        let m = DownloadMetrics::default();
        assert!(m.inter_arrival_times().is_empty());
        assert_eq!(m.last_blocks_overage(20), 0.0);
        assert_eq!(m.duplicate_fraction(), 0.0);
    }
}
