//! The runner's metrics snapshot.
//!
//! Always-on accounting: the runner keeps its counters as plain integer
//! fields and bumps them where the counted thing happens, so maintaining
//! them costs one add per occurrence — cheap enough to stay enabled on the
//! benchmark hot path. [`crate::Runner::metrics_snapshot`] names them,
//! together with the engine's scheduling stats and the fluid solver's
//! counters, in a [`MetricsSnapshot`]. Every quantity is a pure function of
//! virtual-time activity (no wall-clock input), so two runs of the same
//! configuration produce identical snapshots and the snapshot can ride on
//! the deterministic [`crate::RunReport`]. (Where the *host's* time went is
//! measured from outside, by `benchmark/run.sh --trace 1`.)

/// A run's named counters and gauges, in the order
/// [`crate::Runner::metrics_snapshot`] writes them. Every value derives from
/// virtual-time activity only, so it is safe inside byte-identity
/// comparisons of [`crate::RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per monotonic counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` per high-water gauge.
    pub gauges: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by its stable name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by its stable name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip_through_the_snapshot() {
        let snap = MetricsSnapshot {
            counters: vec![("control_messages", 1), ("control_bytes", 120)],
            gauges: vec![("max_pending_events", 7)],
        };
        assert_eq!(snap.counter("control_messages"), Some(1));
        assert_eq!(snap.counter("control_bytes"), Some(120));
        assert_eq!(snap.gauge("max_pending_events"), Some(7));
        // Each lookup reads its own list only.
        assert_eq!(snap.gauge("control_bytes"), None);
        assert_eq!(snap.counter("max_pending_events"), None);
        assert_eq!(snap.counter("no_such"), None);
    }
}
