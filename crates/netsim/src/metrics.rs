//! The runner's counters/gauges metrics registry.
//!
//! Always-on, branch-free accounting: the registry is a fixed array of
//! integers indexed by [`Counter`] / [`Gauge`], so maintaining it costs an
//! array increment per occurrence — cheap enough to stay enabled on the
//! benchmark hot path. Every quantity is a pure function of virtual-time
//! activity (no wall-clock input), so two runs of the same configuration
//! produce identical [`MetricsSnapshot`]s and the snapshot can ride on the
//! deterministic [`crate::RunReport`]. (Where the *host's* time went is
//! measured from outside, by `benchmark/run.sh --trace 1`.)

/// Monotonic counters maintained by the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Control messages delivered to protocol hooks.
    ControlMessages,
    /// Wire bytes of those control messages.
    ControlBytes,
    /// Blocks that finished serialising at their sender.
    BlocksSent,
    /// Blocks delivered to their receiver's protocol.
    BlocksDelivered,
    /// Timers armed by protocol handlers.
    TimersSet,
    /// Timers that fired.
    TimersFired,
    /// Completion events scheduled or moved by the fluid model.
    ConnSchedules,
    /// Completion events cancelled by the fluid model.
    ConnCancels,
    /// Nodes that joined mid-run.
    NodeJoins,
    /// Nodes that left gracefully.
    NodeLeaves,
    /// Nodes that crashed.
    NodeCrashes,
    /// Link-change batches applied.
    LinkChanges,
    /// Cross-traffic changes applied.
    CrossChanges,
    /// Probe sampling instants.
    ProbeTicks,
    /// Nodes retired by the service layer after their swarm completed.
    NodeRetires,
}

impl Counter {
    const COUNT: usize = 15;

    /// All counters, in declaration order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::ControlMessages,
        Counter::ControlBytes,
        Counter::BlocksSent,
        Counter::BlocksDelivered,
        Counter::TimersSet,
        Counter::TimersFired,
        Counter::ConnSchedules,
        Counter::ConnCancels,
        Counter::NodeJoins,
        Counter::NodeLeaves,
        Counter::NodeCrashes,
        Counter::LinkChanges,
        Counter::CrossChanges,
        Counter::ProbeTicks,
        Counter::NodeRetires,
    ];

    /// The counter's stable snake_case name (JSON key, docs).
    pub fn name(self) -> &'static str {
        match self {
            Counter::ControlMessages => "control_messages",
            Counter::ControlBytes => "control_bytes",
            Counter::BlocksSent => "blocks_sent",
            Counter::BlocksDelivered => "blocks_delivered",
            Counter::TimersSet => "timers_set",
            Counter::TimersFired => "timers_fired",
            Counter::ConnSchedules => "conn_schedules",
            Counter::ConnCancels => "conn_cancels",
            Counter::NodeJoins => "node_joins",
            Counter::NodeLeaves => "node_leaves",
            Counter::NodeCrashes => "node_crashes",
            Counter::LinkChanges => "link_changes",
            Counter::CrossChanges => "cross_changes",
            Counter::ProbeTicks => "probe_ticks",
            Counter::NodeRetires => "node_retires",
        }
    }
}

/// High-water gauges maintained by the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Peak number of pending simulator events.
    MaxPendingEvents,
    /// Peak number of simultaneously active (in-flight) connections.
    MaxActiveConns,
}

impl Gauge {
    const COUNT: usize = 2;

    /// All gauges, in declaration order.
    pub const ALL: [Gauge; Gauge::COUNT] = [Gauge::MaxPendingEvents, Gauge::MaxActiveConns];

    /// The gauge's stable snake_case name (JSON key, docs).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::MaxPendingEvents => "max_pending_events",
            Gauge::MaxActiveConns => "max_active_conns",
        }
    }
}

/// The live registry the runner owns. Updating is an array index away; the
/// deterministic summary is taken with [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
}

impl MetricsRegistry {
    /// Adds one to `counter`.
    #[inline]
    pub fn inc(&mut self, counter: Counter) {
        self.counters[counter as usize] += 1;
    }

    /// Adds `by` to `counter`.
    #[inline]
    pub fn add(&mut self, counter: Counter, by: u64) {
        self.counters[counter as usize] += by;
    }

    /// Raises `gauge` to `value` if it is a new high-water mark.
    #[inline]
    pub fn raise(&mut self, gauge: Gauge, value: u64) {
        let slot = &mut self.gauges[gauge as usize];
        if value > *slot {
            *slot = value;
        }
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Current value of `gauge`.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize]
    }

    /// Freezes the registry into the deterministic summary carried on
    /// [`crate::RunReport::metrics`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), self.get(c)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g.name(), self.gauge(g)))
                .collect(),
        }
    }
}

/// A frozen, deterministic view of the registry. Every field derives from
/// virtual-time activity only, so it is safe inside byte-identity
/// comparisons of [`crate::RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per [`Counter`], in declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` per [`Gauge`], in declaration order.
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
        let mut reg = MetricsRegistry::default();
        reg.inc(Counter::ControlMessages);
        reg.add(Counter::ControlBytes, 120);
        reg.raise(Gauge::MaxPendingEvents, 7);
        reg.raise(Gauge::MaxPendingEvents, 3); // below high water: ignored
        let snap = reg.snapshot();
        assert_eq!(snap.counter("control_messages"), Some(1));
        assert_eq!(snap.counter("control_bytes"), Some(120));
        assert_eq!(snap.counter("blocks_sent"), Some(0));
        assert_eq!(snap.gauge("max_pending_events"), Some(7));
        assert_eq!(snap.counter("no_such"), None);
        // Every declared counter appears exactly once, in declaration order.
        assert_eq!(snap.counters.len(), Counter::ALL.len());
        assert_eq!(snap.counters[0].0, "control_messages");
    }
}
