//! The experiment runner: glues the event engine, the network model and the
//! per-node protocol instances together.
//!
//! The runner owns one [`Protocol`] instance per emulated node, translates
//! recorded [`Command`]s into network activity and event-queue entries, and
//! stops when every node reports completion, when the event queue drains, or
//! when the configured time or event limit is reached.
//!
//! ## Allocation-free dispatch
//!
//! The runner owns a single scratch command buffer that it lends to every
//! [`Ctx`] it constructs; handlers record into it and the runner drains it in
//! place. Dispatching one of the run's ~10⁵–10⁶ events therefore performs no
//! per-event allocation once the buffer has grown to the protocol's peak
//! fan-out. A timer travels through the queue as the protocol's own value
//! and reaches [`Protocol::on_timer`] as it was armed; a scheduled
//! link-change batch, cross-traffic change or lifecycle event travels in its
//! own event the same way, so the runner keeps no table of pending changes.
//!
//! ## Completion events
//!
//! Each active connection holds exactly **one** live `BlockDone` event in the
//! queue, tracked in a dense `Vec<Option<EventKey>>` indexed by the
//! connection's flow id (every [`ConnUpdate`] carries it, so the hot path
//! never hashes a `(from, to)` tuple). When the fluid model re-prices a
//! connection it returns [`ConnUpdate`]s and the runner *moves* the existing
//! event with [`desim::Simulator::reschedule`] (or cancels it on teardown)
//! instead of abandoning stale heap entries.
//!
//! The fluid model solves once per virtual instant: the runner opens the
//! instant ([`Network::open_instant`]) before it handles an event, and
//! settles it ([`Network::settle`]) when the next event lies later or the
//! loop is about to stop. A flow re-priced by several of the instant's events
//! therefore gets one `Schedule`, from the settle; only a fast path (which
//! fires while no solve is owed) schedules its flow at once. A settle may
//! schedule a completion at the current instant, which the loop pops next.
//!
//! ## Node lifecycle
//!
//! Nodes can join, leave gracefully, or crash mid-run via
//! [`Runner::schedule_node_event`] (see [`NodeEvent`]). An inactive node
//! receives no events: control messages and block deliveries addressed to it
//! are dropped, its timers are discarded, and blocks cannot be queued towards
//! it. Leaving or crashing tears down all of the node's connections and
//! exempts it from the all-complete stop condition; surviving nodes are
//! notified through [`Protocol::on_peer_failed`]. A graceful leaver
//! additionally gets a [`Protocol::on_shutdown`] callback *before* teardown,
//! so it can send farewell control messages (data blocks queued during
//! shutdown are discarded along with its connections).
//!
//! ## Run-time probes
//!
//! [`Runner::record_timeseries`] samples every node on a configurable
//! virtual-time tick (see [`crate::probe`]). Tick events interleave
//! deterministically with protocol events, a queue holding nothing but the
//! next tick counts as drained, and the resulting [`TimeSeries`] is carried
//! on [`RunReport::timeseries`].

use std::any::Any;

use desim::{EventKey, RngFactory, SimDuration, SimTime, Simulator};
use rand::rngs::StdRng;

use crate::dynamics::{CrossTraffic, LinkChangeBatch, NodeEvent};
use crate::metrics::MetricsSnapshot;
use crate::network::{CompletedBlock, ConnUpdate, Network};
use crate::probe::{StatsProbe, TimeSeries};
use crate::protocol::{Command, Ctx, Protocol, WireSize};
use crate::topology::NodeId;
use crate::trace::{TraceEvent, TraceRecord, TraceSink};

/// Internal event vocabulary of the runner, parameterized by the protocol's
/// message and timer types. `Clone` (for `M: Clone`) exists solely so a
/// [`Snapshot`] can copy the pending event queue.
#[derive(Debug, Clone)]
enum NetEvent<M, T> {
    /// A control message arrives at `to`. `epoch` is the target slot's
    /// incarnation at send time: a message in flight towards a slot that has
    /// since been retired (and possibly re-populated with a new cohort's
    /// node, see [`Runner::retire`]) is dropped at delivery.
    Control {
        from: NodeId,
        to: NodeId,
        msg: M,
        epoch: u32,
    },
    /// The in-flight block on the connection with dense flow id `fid`
    /// finished serialising (endpoints come back on the [`CompletedBlock`]).
    BlockDone { fid: u32 },
    /// A fully serialised block arrives at the receiver (`epoch` as on
    /// [`NetEvent::Control`]).
    BlockArrive { done: CompletedBlock, epoch: u32 },
    /// A protocol timer fires at `node`.
    Timer { node: NodeId, timer: T },
    /// A scheduled link-change batch takes effect; `index` is its place in
    /// [`Runner::schedule_link_change`] order.
    LinkChange { index: u32, batch: LinkChangeBatch },
    /// A scheduled cross-traffic occupancy change takes effect.
    CrossChange { change: CrossTraffic },
    /// A scheduled node-lifecycle event takes effect.
    Lifecycle { event: NodeEvent },
    /// The periodic probe sampling instant (see [`crate::probe`]).
    ProbeTick,
}

/// Why the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every node reported completion.
    AllComplete,
    /// The configured time limit was reached first.
    TimeLimit,
    /// The event queue drained before every node completed.
    Drained,
}

/// Summary of a finished run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-node completion time (seconds), `None` if the node never finished.
    pub completion_secs: Vec<Option<f64>>,
    /// Virtual time at which the run stopped. On [`StopReason::TimeLimit`]
    /// this is exactly the limit, not the time of the last processed event.
    pub end_time: SimTime,
    /// Total number of events processed.
    pub events: u64,
    /// Why the run stopped.
    pub reason: StopReason,
    /// Per-node flag: true if the node left or crashed during the run.
    pub departed: Vec<bool>,
    /// Per-node measurements over virtual time, if
    /// [`Runner::record_timeseries`] asked for them.
    pub timeseries: Option<TimeSeries>,
    /// The run's metrics snapshot: runner counters and gauges plus the
    /// engine's scheduling stats and the fluid solver's activity counters
    /// (see `docs/OBSERVABILITY.md` for every name). Deterministic — a pure
    /// function of virtual-time activity.
    pub metrics: MetricsSnapshot,
    /// Records accepted by the installed [`TraceSink`], 0 when untraced.
    /// Observability metadata: excluded from [`RunReport::canonical`] so a
    /// traced run can be byte-compared against an untraced one.
    pub trace_records: u64,
}

impl RunReport {
    /// The report's identity — what the run *answered*: its `Debug` form with
    /// the trace-record count zeroed and without the metrics that only say
    /// how large the fluid solver's working set was
    /// ([`RunReport::SOLVER_SIZE_METRICS`]). Two runs of the same
    /// configuration produce equal canonical strings regardless of whether
    /// (or how) they were traced, and regardless of how tightly the solver
    /// scoped each re-solve — the byte-identity contract ci.sh gates.
    pub fn canonical(&self) -> String {
        let mut c = self.clone();
        c.trace_records = 0;
        let size = |(name, _): &(&'static str, u64)| !Self::SOLVER_SIZE_METRICS.contains(name);
        c.metrics.counters.retain(size);
        c.metrics.gauges.retain(size);
        format!("{c:?}")
    }

    /// Snapshot entries [`RunReport::canonical`] leaves out: they count the
    /// flows and links the solver swept and the rounds it took to find them,
    /// not the rates it assigned, so an optimisation that solves a smaller
    /// component for the same answer moves them and nothing else.
    /// [`Runner::metrics_snapshot`] still publishes every one.
    pub const SOLVER_SIZE_METRICS: [&'static str; 5] = [
        "solver_flows_solved",
        "solver_links_solved",
        "solver_frontier_grows",
        "solver_max_comp_flows",
        "solver_max_comp_links",
    ];

    /// Completion times of the nodes that finished, sorted ascending.
    pub fn finished_times(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.completion_secs.iter().flatten().copied().collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Fraction of nodes (excluding `skip`, typically the source) that finished.
    pub fn completion_fraction(&self, skip: usize) -> f64 {
        let total = self.completion_secs.len().saturating_sub(skip);
        if total == 0 {
            return 1.0;
        }
        let done = self
            .completion_secs
            .iter()
            .skip(skip)
            .filter(|c| c.is_some())
            .count();
        done as f64 / total as f64
    }
}

/// Drives one experiment: a network, a protocol instance per node, and a
/// schedule of link changes and node-lifecycle events.
///
/// A runner is the `RunState` its future depends on plus the things that
/// only watch it; a checkpoint copies the former and nothing else.
pub struct Runner<P: Protocol> {
    run: RunState<P>,
    /// Reusable command buffer lent to each dispatch's [`Ctx`] (empty
    /// between dispatches).
    scratch: Vec<Command<P::Msg, P::Timer>>,
    /// Installed structured-trace sink, if any (see [`crate::trace`]).
    trace: Option<Box<dyn TraceSink>>,
    /// Set by [`Runner::resume`] to the snapshot's instant; the next
    /// `advance_until` emits a [`TraceEvent::SnapshotResume`] marker (and
    /// clears the flag) so any trace stream recorded from here on declares
    /// that it starts mid-run, without a `node_join` prelude.
    resumed_at: Option<SimTime>,
}

/// Everything a run's future depends on, and so exactly what a [`Snapshot`]
/// holds: [`Runner::checkpoint`] is this value's `clone()`. The event queue
/// is copied with its heap, slab and free list, so future [`EventKey`]s
/// sequence identically; the network with its flow table and
/// per-link usage sums; the probe with the samples it has accumulated. A
/// field added here is checkpointed by construction.
#[derive(Clone)]
struct RunState<P: Protocol> {
    sim: Simulator<NetEvent<P::Msg, P::Timer>>,
    net: Network,
    nodes: Vec<P>,
    rngs: Vec<StdRng>,
    /// Link-change batches scheduled so far (each rides its own event).
    link_changes_scheduled: u32,
    completion: Vec<Option<SimTime>>,
    /// Nodes exempt from the all-complete check: those that left, crashed or
    /// retired, and any the caller exempted. A source needs no exemption: it
    /// holds the file, so it is complete from the start.
    exempt: Vec<bool>,
    /// Whether each node is currently participating.
    active: Vec<bool>,
    /// Nodes that left or crashed during the run.
    departed: Vec<bool>,
    /// Number of nodes still counting against the all-complete stop
    /// condition (`!exempt && completion.is_none()`), maintained
    /// incrementally so the per-event stop check is O(1) instead of a scan
    /// over every node.
    incomplete: usize,
    /// The single live completion event of each active connection, indexed
    /// by the connection's dense flow id (grown on demand).
    completion_events: Vec<Option<EventKey>>,
    /// The time-series probe and the virtual-time interval it is sampled
    /// on, once [`Runner::record_timeseries`] asked for one.
    probe: Option<(SimDuration, StatsProbe)>,
    /// Whether a `ProbeTick` event is pending in the queue, i.e. the tick
    /// chain has been started (a staged re-`run_until` must continue the
    /// existing chain, not start a second one).
    probe_tick_pending: bool,
    /// Whether start-of-run initialisation ran (a staged re-`run_until` must
    /// not deliver a second `on_init` — the trait promises exactly one).
    inits_done: bool,
    /// Always-on counters, named by [`Runner::metrics_snapshot`].
    counters: Counters,
    /// Number of live completion events (== in-flight connections), feeding
    /// the `max_active_conns` gauge.
    live_conn_events: u64,
    /// Per-node slot incarnation, bumped by [`Runner::retire`]: events in
    /// flight towards an older incarnation are dropped at delivery, so a
    /// recycled slot never observes a previous cohort's traffic.
    epoch: Vec<u32>,
    /// Open-system ("service") mode: ignore the all-complete stop condition
    /// and keep the clock moving to the requested limit even when the queue
    /// drains — an open system idles between arrivals instead of stopping.
    run_to_limit: bool,
}

/// The runner's own counters (see [`crate::metrics`]): monotonic counts
/// plus one high-water mark.
#[derive(Debug, Clone, Default)]
struct Counters {
    /// Control messages sent by protocol handlers.
    control_messages: u64,
    /// Wire bytes of those control messages.
    control_bytes: u64,
    /// Blocks that finished serialising at their sender.
    blocks_sent: u64,
    /// Blocks delivered to their receiver's protocol.
    blocks_delivered: u64,
    /// Timers armed by protocol handlers.
    timers_set: u64,
    /// Timers that fired.
    timers_fired: u64,
    /// Completion events scheduled or moved by the fluid model.
    conn_schedules: u64,
    /// Completion events cancelled by the fluid model.
    conn_cancels: u64,
    /// Nodes that joined mid-run.
    node_joins: u64,
    /// Nodes that left gracefully.
    node_leaves: u64,
    /// Nodes that crashed.
    node_crashes: u64,
    /// Link-change batches applied.
    link_changes: u64,
    /// Cross-traffic changes applied.
    cross_changes: u64,
    /// Probe sampling instants.
    probe_ticks: u64,
    /// Nodes retired by the service layer after their swarm completed.
    node_retires: u64,
    /// Peak number of simultaneously active (in-flight) connections.
    max_active_conns: u64,
}

impl<P: Protocol> Runner<P> {
    /// Creates a runner over `net` with one protocol instance per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` does not match the topology size.
    pub fn new(net: Network, nodes: Vec<P>, rng: &RngFactory) -> Self {
        assert_eq!(
            nodes.len(),
            net.len(),
            "need exactly one protocol instance per emulated node"
        );
        let rngs = (0..nodes.len())
            .map(|i| rng.stream_indexed("runner.node", i as u64))
            .collect();
        let n = nodes.len();
        Self::watching(RunState {
            sim: Simulator::new(),
            net,
            nodes,
            rngs,
            link_changes_scheduled: 0,
            completion: vec![None; n],
            exempt: vec![false; n],
            active: vec![true; n],
            departed: vec![false; n],
            incomplete: n,
            completion_events: Vec::new(),
            probe: None,
            probe_tick_pending: false,
            inits_done: false,
            counters: Counters::default(),
            live_conn_events: 0,
            epoch: vec![0; n],
            run_to_limit: false,
        })
    }

    /// A runner over `run` with no observer attached.
    fn watching(run: RunState<P>) -> Self {
        Runner {
            run,
            scratch: Vec::new(),
            trace: None,
            resumed_at: None,
        }
    }

    /// Installs a structured trace sink (replacing any previous one). Every
    /// subsequent runner action emits [`TraceEvent`]s into it. Tracing is
    /// passive: it reads no RNG and writes no simulation state, so a traced
    /// run is bit-identical to an untraced one.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Removes and returns the installed trace sink as what it is, e.g. a
    /// [`RingSink`](crate::RingSink) with the records it retained, disabling
    /// tracing. `None` if no sink is installed or it is not an `S`; a sink of
    /// another type stays installed.
    pub fn take_trace_sink<S: TraceSink>(&mut self) -> Option<Box<S>> {
        if !(self.trace.as_deref()? as &dyn Any).is::<S>() {
            return None;
        }
        let sink: Box<dyn Any> = self.trace.take()?;
        sink.downcast().ok()
    }

    /// The full deterministic metrics snapshot: the runner's counters, then
    /// the engine's scheduling stats and the fluid solver's activity counters
    /// (prefixed `events_` / `solver_`); the gauges are the engine's pending
    /// high-water, the runner's, and the solver's. This is the one place a
    /// metric is named, and what lands on [`RunReport::metrics`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let c = &self.run.counters;
        let sim = self.run.sim.stats();
        let solver = self.run.net.solver_stats();
        let counters = vec![
            ("control_messages", c.control_messages),
            ("control_bytes", c.control_bytes),
            ("blocks_sent", c.blocks_sent),
            ("blocks_delivered", c.blocks_delivered),
            ("timers_set", c.timers_set),
            ("timers_fired", c.timers_fired),
            ("conn_schedules", c.conn_schedules),
            ("conn_cancels", c.conn_cancels),
            ("node_joins", c.node_joins),
            ("node_leaves", c.node_leaves),
            ("node_crashes", c.node_crashes),
            ("link_changes", c.link_changes),
            ("cross_changes", c.cross_changes),
            ("probe_ticks", c.probe_ticks),
            ("node_retires", c.node_retires),
            ("events_scheduled", sim.scheduled),
            ("events_cancelled", sim.cancelled),
            ("events_rescheduled", sim.rescheduled),
            ("solver_full_solves", solver.full_solves),
            ("solver_fast_admit", solver.fast_admit),
            ("solver_fast_remove", solver.fast_remove),
            ("solver_fast_growth", solver.fast_growth),
            ("solver_flows_solved", solver.solved_flows),
            ("solver_links_solved", solver.solved_links),
            ("solver_frontier_grows", solver.frontier_grows),
        ];
        let gauges = vec![
            ("max_pending_events", sim.max_pending),
            ("max_active_conns", c.max_active_conns),
            ("solver_max_comp_flows", solver.max_comp_flows),
            ("solver_max_comp_links", solver.max_comp_links),
        ];
        MetricsSnapshot { counters, gauges }
    }

    /// Builds and records one trace record if a sink is installed. The
    /// closure defers field computation (wire sizes, stats lookups) to the
    /// traced-on path, keeping the traced-off cost to one branch.
    #[inline]
    fn trace_emit(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            let rec = TraceRecord {
                t: self.run.sim.now().as_secs_f64(),
                seq: self.run.sim.events_processed(),
                ev: ev(),
            };
            sink.record(&rec);
        }
    }

    /// Samples every node each `interval` of virtual time into a
    /// [`StatsProbe`], whose series (instantaneous goodput, duplicate ratio,
    /// peer-set sizes per node) lands on [`RunReport::timeseries`]. The
    /// first sample is taken when the run starts (t = 0 on a fresh runner).
    /// Calling it again replaces the probe: one series, at the new interval.
    pub fn record_timeseries(&mut self, interval: SimDuration) {
        assert!(!interval.is_zero(), "probe interval must be positive");
        self.run.probe = Some((interval, StatsProbe::default()));
    }

    /// Removes and returns the series sampled so far, if
    /// [`Runner::record_timeseries`] asked for one.
    pub fn take_timeseries(&mut self) -> Option<TimeSeries> {
        let (interval, probe) = self.run.probe.as_mut()?;
        Some(probe.take_series(*interval))
    }

    /// Marks `node` as exempt from the all-complete stop condition. The
    /// runner exempts a node that departs or retires; a source needs no call,
    /// because it reports [`Protocol::is_complete`] from the start.
    pub fn exempt_from_completion(&mut self, node: NodeId) {
        let idx = node.index();
        if !self.run.exempt[idx] {
            self.run.exempt[idx] = true;
            if self.run.completion[idx].is_none() {
                self.run.incomplete -= 1;
            }
        }
    }

    /// Marks `node` as not yet part of the experiment: it is not initialised
    /// at start-up and receives no events until a [`NodeEvent::Join`] for it
    /// fires. The all-complete stop condition still counts it, so a run does
    /// not end before scheduled joiners have joined *and* completed.
    pub fn set_inactive_at_start(&mut self, node: NodeId) {
        self.run.active[node.index()] = false;
    }

    /// Whether `node` is currently participating.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.run.active[node.index()]
    }

    /// Switches the runner into (or out of) open-system mode: with the flag
    /// on, `run_until` ignores the all-complete stop condition and advances
    /// the clock to the requested limit even when the event queue drains,
    /// because an open system idles between arrivals instead of stopping.
    pub fn set_run_to_limit(&mut self, on: bool) {
        self.run.run_to_limit = on;
    }

    /// When `node` completed its download, the instant it did.
    pub fn completion_time(&self, node: NodeId) -> Option<SimTime> {
        self.run.completion[node.index()]
    }

    /// Number of events currently pending in the queue (cancelled events are
    /// gone from it). Service-mode leak tests assert this returns to baseline
    /// after each swarm completes.
    pub fn pending_events(&self) -> usize {
        self.run.sim.pending()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.run.sim.events_processed()
    }

    /// Retires `nodes`, a cohort whose swarm completed, from the
    /// experiment: each slot is deactivated and exempted, its remaining
    /// timers are cancelled (one pass over the event queue for the whole
    /// cohort), its flow-table rows are released for reuse (see
    /// [`Network::release_flows_for`]), and its slot incarnation is bumped so
    /// stale in-flight events towards it are dropped at delivery. Unlike a
    /// leave or crash, retirement is silent — no [`Protocol::on_peer_failed`]
    /// fan-out — because the whole cohort retires together.
    pub fn retire(&mut self, nodes: &[NodeId]) {
        let now = self.run.sim.now();
        for &node in nodes {
            let idx = node.index();
            self.run.active[idx] = false;
            self.exempt_from_completion(node);
            self.run.epoch[idx] = self.run.epoch[idx].wrapping_add(1);
        }
        self.run
            .sim
            .cancel_where(|ev| matches!(ev, NetEvent::Timer { node, .. } if nodes.contains(node)));
        for &node in nodes {
            self.within_instant(|runner| {
                let updates = runner.run.net.release_flows_for(now, node);
                runner.apply_conn_updates(updates);
            });
            self.run.counters.node_retires += 1;
            self.trace_emit(|| TraceEvent::NodeRetire { node: node.0 });
        }
    }

    /// Installs a fresh protocol instance in an inactive slot, resetting its
    /// completion, exemption and departure state so the slot can host a new
    /// cohort's node, and the probe's byte baseline for the slot: the fresh
    /// node's counters start from zero, so everything it banks by the next
    /// sample belongs to that sample's interval. The slot stays inactive;
    /// activate it with [`Runner::activate_cohort`] (or a scheduled
    /// [`NodeEvent::Join`]).
    ///
    /// # Panics
    ///
    /// Panics if the slot is still active.
    pub fn replace_node(&mut self, node: NodeId, fresh: P) {
        let idx = node.index();
        assert!(
            !self.run.active[idx],
            "replace_node requires an inactive slot"
        );
        self.run.nodes[idx] = fresh;
        if let Some((_, probe)) = self.run.probe.as_mut() {
            probe.restart(idx);
        }
        let was_counted = !self.run.exempt[idx] && self.run.completion[idx].is_none();
        self.run.completion[idx] = None;
        self.run.exempt[idx] = false;
        self.run.departed[idx] = false;
        if !was_counted {
            self.run.incomplete += 1;
        }
    }

    /// Activates a whole cohort at the current instant: every member's
    /// participation flag flips *before* any `on_init` hook runs, so each
    /// init already sees its cohort-mates as active (tree registration and
    /// first pushes would otherwise be dropped towards peers later in the
    /// slot order). Already-active or departed slots are skipped. Hooks run
    /// in the order given.
    pub fn activate_cohort(&mut self, nodes: &[NodeId]) {
        let mut fresh = Vec::with_capacity(nodes.len());
        for &node in nodes {
            let idx = node.index();
            if !self.run.active[idx] && !self.run.departed[idx] {
                self.run.counters.node_joins += 1;
                self.trace_emit(|| TraceEvent::NodeJoin { node: node.0 });
                self.run.active[idx] = true;
                fresh.push(node);
            }
        }
        self.within_instant(|runner| {
            for node in fresh {
                runner.dispatch(node, |n, ctx| n.on_init(ctx));
            }
        });
    }

    /// Schedules a batch of link changes to take effect at `at`.
    pub fn schedule_link_change(&mut self, at: SimTime, batch: LinkChangeBatch) {
        let index = self.run.link_changes_scheduled;
        self.run.link_changes_scheduled += 1;
        self.run
            .sim
            .schedule_at(at, NetEvent::LinkChange { index, batch });
    }

    /// Schedules a cross-traffic occupancy change (see
    /// [`crate::dynamics::CrossTraffic`]) to take effect at `at`.
    pub fn schedule_cross_traffic(&mut self, at: SimTime, change: CrossTraffic) {
        self.run
            .sim
            .schedule_at(at, NetEvent::CrossChange { change });
    }

    /// Schedules a node-lifecycle event (join, graceful leave, crash) to take
    /// effect at `at`. For a [`NodeEvent::Join`], call
    /// [`Runner::set_inactive_at_start`] for the node as well, so it does not
    /// start as a participant.
    pub fn schedule_node_event(&mut self, at: SimTime, event: NodeEvent) {
        self.run.sim.schedule_at(at, NetEvent::Lifecycle { event });
    }

    /// Read access to the emulated network (topology + traffic counters).
    pub fn network(&self) -> &Network {
        &self.run.net
    }

    /// Read access to the protocol instances.
    pub fn nodes(&self) -> &[P] {
        &self.run.nodes
    }

    /// The protocol instance running on `node`.
    pub fn node(&self, node: NodeId) -> &P {
        &self.run.nodes[node.index()]
    }

    /// Consumes the runner, returning the protocol instances (for post-run
    /// inspection of per-node state and metrics).
    pub fn into_nodes(self) -> Vec<P> {
        self.run.nodes
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.run.sim.now()
    }

    /// Runs the experiment until `limit` of virtual time.
    pub fn run(&mut self, limit: SimDuration) -> RunReport {
        self.run_until(SimTime::ZERO + limit)
    }

    /// Runs the experiment until the absolute virtual instant `limit`.
    pub fn run_until(&mut self, limit: SimTime) -> RunReport {
        let reason = self.advance_until(limit);
        self.finish_report(reason)
    }

    /// Runs the event loop to `limit` **without** building a report or
    /// draining the probes' accumulated series. This is `run_until` minus the
    /// finishing step: call it to park the runner at a checkpoint instant
    /// (see [`Runner::checkpoint`]) and later continue with another
    /// `advance_until` or a final `run_until`, whose report then spans the
    /// whole run as if it had never been staged.
    pub fn advance_until(&mut self, limit: SimTime) -> StopReason {
        // A resumed runner declares itself before anything else lands in the
        // trace: a stream recorded from here on has no `node_join` prelude,
        // and `replay_goodput` has no baseline to difference against.
        if let Some(at) = self.resumed_at.take() {
            self.trace_emit(|| TraceEvent::SnapshotResume {
                at: at.as_secs_f64(),
            });
        }
        // Initialise every node that starts as a participant — exactly once:
        // the Protocol contract promises a single on_init per participant, so
        // a staged continuation must not re-deliver it.
        if !self.run.inits_done {
            self.run.inits_done = true;
            self.within_instant(|runner| {
                for i in 0..runner.run.nodes.len() {
                    if runner.run.active[i] {
                        runner.dispatch(NodeId(i as u32), |node, ctx| node.on_init(ctx));
                    }
                }
            });
        }
        self.refresh_completion();

        // The probe takes its first sample at t = 0 and ticks from there.
        // On a staged continuation (`run_until` called again) the chain
        // already exists — starting another would double-sample every instant
        // and defeat the only-probe-ticks-left drain check below.
        if !self.run.probe_tick_pending {
            self.probe_tick();
        }

        let reason = loop {
            if !self.run.run_to_limit && self.all_complete() {
                break StopReason::AllComplete;
            }
            if self.drained() {
                break StopReason::Drained;
            }
            match self.run.sim.peek_time() {
                None if self.run.run_to_limit => {
                    // An idle open system: let virtual time pass to the
                    // requested boundary so the caller's arrival/tick
                    // bookkeeping stays on schedule.
                    self.run.sim.advance_to(limit);
                    break StopReason::TimeLimit;
                }
                None => break StopReason::Drained,
                Some(t) if t > limit => {
                    // Clamp the clock to the limit (events beyond it stay
                    // pending).
                    self.run.sim.advance_to(limit);
                    break StopReason::TimeLimit;
                }
                Some(_) => {}
            }
            let (now, ev) = self.run.sim.step().expect("peeked event must exist");
            let solver_before = self.trace.is_some().then(|| self.run.net.solver_stats());
            self.run.net.open_instant(now);
            self.handle(ev);
            // The instant ends when the next event lies later or the loop
            // stops before it: the one solve of the instant runs then, and
            // may schedule a completion at `now`, which the loop pops next.
            let next = self.run.sim.peek_time();
            if next != Some(now)
                || self.drained()
                || (!self.run.run_to_limit && self.all_complete())
            {
                self.settle();
            }
            // Solver activity is attributed per event by diffing the
            // network's counters around the dispatch (and the settle, so a
            // solve counts for the last event of its instant) — one trace
            // record per event that touched the solver, no sink plumbed
            // through the fluid model.
            if let Some(before) = solver_before {
                let after = self.run.net.solver_stats();
                if after != before {
                    self.trace_emit(|| TraceEvent::Solver {
                        full_solves: after.full_solves - before.full_solves,
                        fast_admit: after.fast_admit - before.fast_admit,
                        fast_remove: after.fast_remove - before.fast_remove,
                        fast_growth: after.fast_growth - before.fast_growth,
                        comp_flows: after.solved_flows - before.solved_flows,
                        comp_links: after.solved_links - before.solved_links,
                    });
                }
            }
        };
        debug_assert!(
            !self.run.net.instant_open(),
            "advance_until returns with an instant open"
        );
        reason
    }

    /// A queue holding nothing but the next probe tick is drained:
    /// observation alone must not keep the experiment alive. In open-system
    /// mode the probes keep sampling through idle periods instead — the
    /// system is waiting, not finished.
    fn drained(&self) -> bool {
        !self.run.run_to_limit && self.run.probe_tick_pending && self.run.sim.pending() == 1
    }

    /// Runs `f` inside an instant of the fluid model: opened here unless one
    /// is open already, and then settled here once `f` is done.
    fn within_instant(&mut self, f: impl FnOnce(&mut Self)) {
        let opened = self.run.net.open_instant(self.run.sim.now());
        f(self);
        if opened {
            self.settle();
        }
    }

    /// Closes the fluid model's open instant: its one solve, whose updates
    /// go to the queue.
    fn settle(&mut self) {
        let updates = self.run.net.settle(self.run.sim.now());
        self.apply_conn_updates(updates);
    }

    /// Builds the end-of-run report: drains the probe's accumulated series
    /// and freezes completion, metrics and stop-reason state.
    fn finish_report(&mut self, reason: StopReason) -> RunReport {
        RunReport {
            completion_secs: self
                .run
                .completion
                .iter()
                .map(|c| c.map(SimTime::as_secs_f64))
                .collect(),
            end_time: self.run.sim.now(),
            events: self.run.sim.events_processed(),
            reason,
            departed: self.run.departed.clone(),
            timeseries: self.take_timeseries(),
            metrics: self.metrics_snapshot(),
            trace_records: self.trace.as_ref().map_or(0, |s| s.recorded()),
        }
    }

    /// Feeds the current state to the probe, if there is one, and schedules
    /// its next tick.
    fn probe_tick(&mut self) {
        let run = &mut self.run;
        let Some((interval, probe)) = run.probe.as_mut() else {
            return;
        };
        probe.sample(run.sim.now(), &run.nodes, &run.active);
        run.sim.schedule_in(*interval, NetEvent::ProbeTick);
        run.probe_tick_pending = true;
        run.counters.probe_ticks += 1;
        self.trace_emit(|| TraceEvent::ProbeTick);
    }

    fn all_complete(&self) -> bool {
        if self.run.incomplete > 0 {
            return false;
        }
        // Reaching zero happens once per run, so the O(N) cross-check of the
        // incremental counter is free on the per-event path.
        debug_assert!(
            self.run
                .completion
                .iter()
                .zip(self.run.exempt.iter())
                .all(|(c, e)| *e || c.is_some()),
            "incremental incomplete counter drifted from the per-node state"
        );
        true
    }

    /// Records `node`'s completion instant (idempotent) and keeps the
    /// incremental all-complete counter in sync.
    fn mark_complete(&mut self, idx: usize, now: SimTime) {
        if self.run.completion[idx].is_none() {
            self.run.completion[idx] = Some(now);
            if !self.run.exempt[idx] {
                self.run.incomplete -= 1;
            }
        }
    }

    fn refresh_completion(&mut self) {
        let now = self.run.sim.now();
        for i in 0..self.run.nodes.len() {
            if self.run.completion[i].is_none()
                && self.run.active[i]
                && self.run.nodes[i].is_complete()
            {
                self.mark_complete(i, now);
            }
        }
    }

    /// Runs `f` against one node with a fresh [`Ctx`] borrowing the shared
    /// scratch buffer, then applies the commands the handler recorded.
    /// No-op for inactive nodes.
    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P>),
    {
        let idx = node.index();
        if !self.run.active[idx] {
            return;
        }
        // Lend the runner's scratch buffer to the context. `take` leaves an
        // empty (non-allocating) Vec behind, so the rare re-entrant dispatch
        // would still be correct — just not allocation-free.
        let mut commands = std::mem::take(&mut self.scratch);
        debug_assert!(commands.is_empty(), "scratch buffer leaked commands");
        let mut ctx = Ctx::new(
            node,
            self.run.sim.now(),
            &self.run.net,
            &self.run.active,
            &mut self.run.rngs[idx],
            &mut commands,
        );
        f(&mut self.run.nodes[idx], &mut ctx);
        self.apply_commands(node, &mut commands);
        // Hand the (now drained) buffer back, keeping its capacity.
        self.scratch = commands;
        // Completion may have changed for this node.
        if self.run.completion[idx].is_none() && self.run.nodes[idx].is_complete() {
            self.mark_complete(idx, self.run.sim.now());
        }
    }

    /// Drains `commands`, translating each into network activity. The buffer
    /// is left empty but keeps its capacity for the next dispatch.
    fn apply_commands(&mut self, from: NodeId, commands: &mut Vec<Command<P::Msg, P::Timer>>) {
        let now = self.run.sim.now();
        for cmd in commands.drain(..) {
            match cmd {
                Command::SendControl { to, msg } => {
                    let size = msg.wire_size();
                    self.run.counters.control_messages += 1;
                    self.run.counters.control_bytes += size as u64;
                    let delay = self.run.net.control_delay(
                        &mut self.run.rngs[from.index()],
                        from,
                        to,
                        size,
                    );
                    let epoch = self.run.epoch[to.index()];
                    self.run.sim.schedule_in(
                        delay,
                        NetEvent::Control {
                            from,
                            to,
                            msg,
                            epoch,
                        },
                    );
                }
                Command::QueueBlock { to, block, bytes } => {
                    // A departed (or not-yet-joined) node accepts no data:
                    // the connection would never drain.
                    if !self.run.active[to.index()] {
                        continue;
                    }
                    let updates = self.run.net.queue_block(now, from, to, block, bytes);
                    self.apply_conn_updates(updates);
                }
                Command::CloseConnection { to } => {
                    let updates = self.run.net.close_connection(now, from, to);
                    self.apply_conn_updates(updates);
                }
                Command::SetTimer { delay, timer } => {
                    self.run.counters.timers_set += 1;
                    self.run
                        .sim
                        .schedule_in(delay, NetEvent::Timer { node: from, timer });
                }
            }
        }
    }

    /// Applies the fluid model's completion-event updates to the queue:
    /// `Schedule` moves (or creates) the connection's single live event,
    /// `Cancel` removes it.
    fn apply_conn_updates(&mut self, updates: Vec<ConnUpdate>) {
        for update in updates {
            match update {
                ConnUpdate::Schedule { fid, at } => {
                    let f = fid as usize;
                    if self.run.completion_events.len() <= f {
                        self.run.completion_events.resize(f + 1, None);
                    }
                    let key = match self.run.completion_events[f] {
                        Some(key) => {
                            let moved = self.run.sim.reschedule(key, at);
                            debug_assert!(moved, "completion event vanished while tracked");
                            key
                        }
                        None => {
                            let key = self.run.sim.schedule_at(at, NetEvent::BlockDone { fid });
                            self.run.completion_events[f] = Some(key);
                            self.run.live_conn_events += 1;
                            let c = &mut self.run.counters;
                            c.max_active_conns = c.max_active_conns.max(self.run.live_conn_events);
                            key
                        }
                    };
                    self.run.counters.conn_schedules += 1;
                    let raw = key.raw();
                    self.trace_emit(|| TraceEvent::ConnSchedule {
                        fid,
                        key: raw,
                        at: at.as_secs_f64(),
                    });
                }
                ConnUpdate::Cancel { fid } => {
                    if let Some(key) = self
                        .run
                        .completion_events
                        .get_mut(fid as usize)
                        .and_then(Option::take)
                    {
                        self.run.sim.cancel(key);
                        self.run.live_conn_events -= 1;
                        self.run.counters.conn_cancels += 1;
                        let raw = key.raw();
                        self.trace_emit(|| TraceEvent::ConnCancel { fid, key: raw });
                    }
                }
            }
        }
    }

    /// Removes `node` from the experiment: tears down its connections and
    /// releases their flow rows, exempts it from the stop condition and
    /// notifies the survivors.
    fn depart(&mut self, node: NodeId) {
        let now = self.run.sim.now();
        let idx = node.index();
        self.run.active[idx] = false;
        self.run.departed[idx] = true;
        self.exempt_from_completion(node);
        let updates = self.run.net.release_flows_for(now, node);
        self.apply_conn_updates(updates);
        // Deterministic notification order: ascending node index.
        for i in 0..self.run.nodes.len() {
            if i != node.index() && self.run.active[i] {
                self.dispatch(NodeId(i as u32), |n, ctx| n.on_peer_failed(ctx, node));
            }
        }
    }

    fn handle(&mut self, ev: NetEvent<P::Msg, P::Timer>) {
        let now = self.run.sim.now();
        match ev {
            NetEvent::Control {
                from,
                to,
                msg,
                epoch,
            } => {
                // A message towards a slot retired since the send is void,
                // even if the slot meanwhile hosts a new cohort's node; one
                // towards a node that is gone (or not yet here) is lost.
                // Neither is delivered, so neither gets a `msg` record.
                if epoch != self.run.epoch[to.index()] || !self.run.active[to.index()] {
                    return;
                }
                if self.trace.is_some() {
                    let (tag, bytes) = (msg.kind(), msg.wire_size() as u64);
                    self.trace_emit(|| TraceEvent::Msg {
                        from: from.0,
                        to: to.0,
                        msg: tag,
                        bytes,
                    });
                }
                self.dispatch(to, |node, ctx| node.on_control(ctx, from, msg));
            }
            NetEvent::BlockDone { fid } => {
                // The connection's live event just fired; drop the handle.
                if self.run.completion_events[fid as usize].take().is_some() {
                    self.run.live_conn_events -= 1;
                }
                if let Some((done, updates)) = self.run.net.on_block_done_by_id(now, fid) {
                    self.run.counters.blocks_sent += 1;
                    let (from, to) = (done.from, done.to);
                    let (block, bytes) = (done.block, done.bytes);
                    self.trace_emit(|| TraceEvent::BlockSent {
                        from: from.0,
                        to: to.0,
                        block: block.index() as u64,
                        bytes,
                    });
                    self.apply_conn_updates(updates);
                    self.dispatch(from, |node, ctx| node.on_block_sent(ctx, to, block));
                    let delay = self.run.net.data_delivery_delay(from, to);
                    let epoch = self.run.epoch[to.index()];
                    self.run
                        .sim
                        .schedule_in(delay, NetEvent::BlockArrive { done, epoch });
                }
            }
            NetEvent::BlockArrive { done, epoch } => {
                if epoch != self.run.epoch[done.to.index()] {
                    return; // The receiving slot was retired in flight.
                }
                if !self.run.active[done.to.index()] {
                    return; // Delivered into the void.
                }
                self.run.counters.blocks_delivered += 1;
                let (to, from) = (done.to, done.from);
                let (block, bytes) = (done.block, done.bytes);
                let receipt = crate::network::BlockReceipt {
                    block,
                    bytes,
                    in_front: done.in_front,
                    wasted: done.wasted,
                };
                self.dispatch(to, |node, ctx| node.on_block_received(ctx, from, receipt));
                // Recorded *after* the hook so the receiver's cumulative
                // useful-byte count includes this delivery — the invariant
                // `replay_goodput` differences against.
                if self.trace.is_some() {
                    let useful = self.run.nodes[to.index()].probe_stats().useful_bytes;
                    self.trace_emit(|| TraceEvent::BlockReceived {
                        node: to.0,
                        from: from.0,
                        block: block.index() as u64,
                        bytes,
                        useful_bytes: useful,
                    });
                }
            }
            NetEvent::Timer { node, timer } => {
                self.run.counters.timers_fired += 1;
                self.trace_emit(|| TraceEvent::Timer {
                    node: node.0,
                    timer: format!("{timer:?}"),
                });
                self.dispatch(node, |n, ctx| n.on_timer(ctx, timer));
            }
            NetEvent::LinkChange { index, batch } => {
                self.run.counters.link_changes += 1;
                self.trace_emit(|| TraceEvent::LinkChange {
                    index: u64::from(index),
                });
                let pairs = batch.apply(self.run.net.topology_mut());
                let updates = self.run.net.reprice_paths(now, &pairs);
                self.apply_conn_updates(updates);
            }
            NetEvent::CrossChange { change } => {
                self.run.counters.cross_changes += 1;
                self.trace_emit(|| TraceEvent::CrossChange {
                    from: change.via.0 .0,
                    to: change.via.1 .0,
                    rate: change.rate,
                });
                let updates = self.run.net.set_cross_traffic(now, change.via, change.rate);
                self.apply_conn_updates(updates);
            }
            NetEvent::Lifecycle { event } => match event {
                NodeEvent::Join(node) => self.activate_cohort(&[node]),
                NodeEvent::Leave(node) => {
                    if self.run.active[node.index()] {
                        self.run.counters.node_leaves += 1;
                        self.trace_emit(|| TraceEvent::NodeLeave { node: node.0 });
                        self.dispatch(node, |n, ctx| n.on_shutdown(ctx));
                        self.depart(node);
                    }
                }
                NodeEvent::Crash(node) => {
                    if self.run.active[node.index()] {
                        self.run.counters.node_crashes += 1;
                        self.trace_emit(|| TraceEvent::NodeCrash { node: node.0 });
                        self.depart(node);
                    }
                }
            },
            NetEvent::ProbeTick => self.probe_tick(),
        }
    }
}

/// A deterministic checkpoint of a [`Runner`], taken with
/// [`Runner::checkpoint`] and turned back into a live runner with
/// [`Runner::resume`].
///
/// The snapshot owns a deep copy of the runner's `RunState` — everything
/// that feeds the simulation — and nothing else: the trace sink watches a
/// run without influencing it, so a resumed runner starts untraced.
///
/// `Snapshot` is itself cloneable, so one warm-up prefix can be forked into
/// any number of divergent continuations; clones share no mutable state. It
/// holds plain values and no trait object, so it is `Send + Sync` whenever
/// the protocol and its messages are.
pub struct Snapshot<P: Protocol>(RunState<P>);

impl<P: Protocol + Clone> Clone for Snapshot<P>
where
    P::Msg: Clone,
{
    fn clone(&self) -> Self {
        Snapshot(self.0.clone())
    }
}

impl<P: Protocol + Clone> Runner<P>
where
    P::Msg: Clone,
{
    /// Captures the runner's complete simulation state at the current
    /// instant. `checkpoint → resume → run-to-end` produces a
    /// [`RunReport`] byte-identical (via [`RunReport::canonical`]) to the
    /// uninterrupted run — the contract `tests/snapshot_fork.rs` pins for
    /// every shipped protocol.
    ///
    /// Call it at a quiescent point: between [`Runner::advance_until`]
    /// stages, never from inside a protocol hook.
    pub fn checkpoint(&self) -> Snapshot<P> {
        debug_assert!(
            !self.run.net.instant_open(),
            "checkpoint taken with an instant open"
        );
        Snapshot(self.run.clone())
    }

    /// Reconstructs a live runner from a snapshot. The runner continues
    /// exactly where [`Runner::checkpoint`] left off — same pending events,
    /// same RNG positions, same flow table — so scheduling further dynamics
    /// and running to the end replays the uninterrupted run byte for byte.
    ///
    /// The trace sink is not part of a snapshot: the resumed runner starts
    /// untraced (install a new sink with
    /// [`Runner::set_trace_sink`]; the first record will be a
    /// `snapshot_resume` marker declaring the mid-run start).
    pub fn resume(snap: Snapshot<P>) -> Self {
        debug_assert!(
            !snap.0.net.instant_open(),
            "resumed a snapshot with an instant open"
        );
        let resumed_at = Some(snap.0.sim.now());
        Runner {
            resumed_at,
            ..Self::watching(snap.0)
        }
    }
}
