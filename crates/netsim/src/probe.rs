//! Run-time observation: probes sampled on a virtual-time tick.
//!
//! End-of-run aggregates (completion times, traffic counters) cannot show
//! *how* a transfer evolved — the paper's bandwidth-over-time analysis needs
//! per-node instantaneous rates while the experiment executes. This module
//! adds that capability to the runner without touching protocol code:
//!
//! * [`ProbeStats`] — cumulative counters a protocol exposes through
//!   [`Protocol::probe_stats`] (useful bytes, duplicate blocks,
//!   sender/receiver-set sizes). The default implementation returns zeros,
//!   so probes work (vacuously) on any protocol.
//! * [`StatsProbe`] — the probe
//!   [`Runner::record_timeseries`](crate::Runner::record_timeseries) asks
//!   for. The runner hands it every node once per configured tick of
//!   virtual time; it keeps instantaneous per-node goodput (derived by
//!   differencing cumulative useful bytes between ticks), cumulative
//!   duplicate-block ratio and sender/receiver-set sizes as a
//!   [`TimeSeries`], which the runner carries on
//!   [`RunReport::timeseries`](crate::RunReport::timeseries). It is plain
//!   data, so a checkpoint clones it with the rest of the run state.
//!
//! Probe ticks are ordinary simulator events, so sampling instants interleave
//! deterministically with protocol events; two runs of the same configuration
//! produce bit-identical series. A run whose queue holds nothing but the next
//! probe tick is considered drained — observation never keeps an experiment
//! alive.

use desim::{SimDuration, SimTime};

use crate::protocol::Protocol;

/// Cumulative per-node counters exposed to run-time probes.
///
/// All fields are monotone totals since the start of the run; rate-style
/// quantities (goodput) are derived by the probe from successive samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Useful (non-duplicate) payload bytes received so far.
    pub useful_bytes: u64,
    /// Useful blocks received so far.
    pub useful_blocks: u64,
    /// Duplicate block receipts so far.
    pub duplicate_blocks: u64,
    /// Current sender-set size (peers this node downloads from).
    pub senders: usize,
    /// Current receiver-set size (peers this node uploads to).
    pub receivers: usize,
}

impl ProbeStats {
    /// Counts one delivered block of `bytes`: useful payload, or a duplicate.
    // Called per received block from other crates: without `#[inline]` it is
    // a call where the protocols would have two additions.
    #[inline]
    pub fn record_arrival(&mut self, bytes: u64, duplicate: bool) {
        if duplicate {
            self.duplicate_blocks += 1;
        } else {
            self.useful_blocks += 1;
            self.useful_bytes += bytes;
        }
    }

    /// Fraction of received blocks that were duplicates, in `[0, 1]`.
    pub fn duplicate_ratio(&self) -> f64 {
        let total = self.useful_blocks + self.duplicate_blocks;
        if total == 0 {
            return 0.0;
        }
        self.duplicate_blocks as f64 / total as f64
    }
}

/// One node's measurements at one sampling instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSample {
    /// Instantaneous goodput over the elapsed tick, in bits per second.
    pub goodput_bps: f64,
    /// Cumulative duplicate-block ratio in `[0, 1]`.
    pub duplicate_ratio: f64,
    /// Sender-set size at the instant.
    pub senders: usize,
    /// Receiver-set size at the instant.
    pub receivers: usize,
    /// Whether the node was participating at the instant.
    pub active: bool,
}

/// All nodes' measurements at one sampling instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSample {
    /// Virtual time of the sample (seconds).
    pub time_secs: f64,
    /// One entry per node, indexed by node id.
    pub nodes: Vec<NodeSample>,
}

/// A probe-built series of per-node measurements over virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Sampling interval (seconds): the tick the runner sampled on.
    pub interval_secs: f64,
    /// Samples in time order. The first is taken at t = 0.
    pub samples: Vec<TimeSample>,
}

impl TimeSeries {
    /// `(time, mean f(node))` over the active nodes of each sample, skipping
    /// node indices below `skip` (typically 1 to exclude the source).
    pub fn mean_over_active(&self, skip: usize, f: impl Fn(&NodeSample) -> f64) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| {
                let mut sum = 0.0;
                let mut n = 0usize;
                for node in s.nodes.iter().skip(skip).filter(|n| n.active) {
                    sum += f(node);
                    n += 1;
                }
                (s.time_secs, if n == 0 { 0.0 } else { sum / n as f64 })
            })
            .collect()
    }

    /// `(time, q-quantile of f(node))` over the active nodes of each sample,
    /// skipping node indices below `skip`. Empty samples yield 0.
    pub fn quantile_over_active(
        &self,
        skip: usize,
        q: f64,
        f: impl Fn(&NodeSample) -> f64,
    ) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| {
                let mut vals: Vec<f64> = s
                    .nodes
                    .iter()
                    .skip(skip)
                    .filter(|n| n.active)
                    .map(&f)
                    .collect();
                vals.sort_by(f64::total_cmp);
                let v = if vals.is_empty() {
                    0.0
                } else {
                    vals[quantile_index(vals.len(), q)]
                };
                (s.time_secs, v)
            })
            .collect()
    }
}

/// Index of the `q`-quantile in a sorted slice of `len > 0` items: the
/// smallest rank that covers a fraction `q` of them (ceiling convention).
/// Every quantile the workspace reports uses this rule.
pub fn quantile_index(len: usize, q: f64) -> usize {
    ((len as f64 * q).ceil() as usize).clamp(1, len) - 1
}

/// The time-series probe: goodput / duplicate ratio / peer-set sizes per
/// node. It does not know its own cadence — it measures elapsed virtual time
/// between the samples it is handed, and the runner names the interval it
/// sampled on when it takes the series.
#[derive(Debug, Clone, Default)]
pub struct StatsProbe {
    prev_bytes: Vec<u64>,
    prev_time: f64,
    samples: Vec<TimeSample>,
}

impl StatsProbe {
    /// Takes one sample at virtual time `now`. `nodes` is every protocol
    /// instance (indexed by node id), `active` the participation flags: not
    /// every node need be participating.
    pub fn sample<P: Protocol>(&mut self, now: SimTime, nodes: &[P], active: &[bool]) {
        let t = now.as_secs_f64();
        if self.prev_bytes.is_empty() {
            self.prev_bytes = vec![0; nodes.len()];
        }
        let dt = t - self.prev_time;
        let mut out = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let stats = node.probe_stats();
            let delta = stats.useful_bytes.saturating_sub(self.prev_bytes[i]);
            let goodput_bps = if dt > 0.0 {
                delta as f64 * 8.0 / dt
            } else {
                0.0
            };
            self.prev_bytes[i] = stats.useful_bytes;
            out.push(NodeSample {
                goodput_bps,
                duplicate_ratio: stats.duplicate_ratio(),
                senders: stats.senders,
                receivers: stats.receivers,
                active: active[i],
            });
        }
        self.prev_time = t;
        self.samples.push(TimeSample {
            time_secs: t,
            nodes: out,
        });
    }

    /// Restarts slot `i`'s byte baseline from zero: the slot was
    /// re-populated with a fresh node whose cumulative counter restarted, so
    /// everything it banks by the next sample belongs to that interval.
    /// Differencing against the previous occupant's count would swallow it
    /// (and the previous occupant's tail bytes already landed in the interval
    /// it retired in).
    pub(crate) fn restart(&mut self, i: usize) {
        if let Some(prev) = self.prev_bytes.get_mut(i) {
            *prev = 0;
        }
    }

    /// Surrenders the samples taken so far as a series sampled every
    /// `interval`.
    pub fn take_series(&mut self, interval: SimDuration) -> TimeSeries {
        TimeSeries {
            interval_secs: interval.as_secs_f64(),
            samples: std::mem::take(&mut self.samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_and_duplicates_are_tracked_separately() {
        let mut s = ProbeStats::default();
        s.record_arrival(100, false);
        s.record_arrival(100, true);
        s.record_arrival(100, false);
        assert_eq!(s.useful_blocks, 2);
        assert_eq!(s.duplicate_blocks, 1);
        assert_eq!(s.useful_bytes, 200);
        assert!((s.duplicate_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_ratio_handles_zero_totals() {
        assert_eq!(ProbeStats::default().duplicate_ratio(), 0.0);
        let s = ProbeStats {
            useful_blocks: 3,
            duplicate_blocks: 1,
            ..Default::default()
        };
        assert!((s.duplicate_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn series_aggregation_skips_source_and_inactive() {
        let series = TimeSeries {
            interval_secs: 1.0,
            samples: vec![TimeSample {
                time_secs: 1.0,
                nodes: vec![
                    // Source (skipped) with an absurd value that must not leak in.
                    NodeSample {
                        goodput_bps: 1e12,
                        duplicate_ratio: 0.0,
                        senders: 0,
                        receivers: 9,
                        active: true,
                    },
                    NodeSample {
                        goodput_bps: 100.0,
                        duplicate_ratio: 0.0,
                        senders: 1,
                        receivers: 1,
                        active: true,
                    },
                    NodeSample {
                        goodput_bps: 300.0,
                        duplicate_ratio: 0.0,
                        senders: 2,
                        receivers: 2,
                        active: true,
                    },
                    // Crashed node: excluded.
                    NodeSample {
                        goodput_bps: 777.0,
                        duplicate_ratio: 0.0,
                        senders: 0,
                        receivers: 0,
                        active: false,
                    },
                ],
            }],
        };
        let mean = series.mean_over_active(1, |n| n.goodput_bps);
        assert_eq!(mean, vec![(1.0, 200.0)]);
        let p100 = series.quantile_over_active(1, 1.0, |n| n.goodput_bps);
        assert_eq!(p100, vec![(1.0, 300.0)]);
    }
}
