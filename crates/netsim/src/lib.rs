//! `netsim` — a ModelNet-equivalent network emulator for overlay protocols.
//!
//! The Bullet′ paper evaluates its protocols on ModelNet: real protocol code,
//! emulated hop-by-hop bandwidth, delay and loss. This crate plays the same
//! role for the reproduction, as a deterministic fluid-model emulator on top
//! of the [`desim`] event engine:
//!
//! * [`topology`] — the emulated topologies (full-mesh ModelNet configuration,
//!   constrained-access, high-BDP clique, cascading-slowdown, PlanetLab-like,
//!   shared-core bottleneck) and their explicit directed link graph
//!   ([`LinkId`]);
//! * [`tcp`] — the per-flow TCP ceilings (Mathis loss limit + slow start);
//! * [`network`] — the global **max-min fair fluid model**: per-connection
//!   block queues whose rates are assigned by progressive filling over the
//!   link graph, with incremental (connected-component) repricing, plus the
//!   sender-side `in_front`/`wasted` measurements Bullet′'s flow controller
//!   uses (see `docs/NETWORK_MODEL.md`);
//! * [`protocol`] — the [`Protocol`] trait implemented by every dissemination
//!   system in this workspace (message and timer types are *associated
//!   types*, so downstream signatures are `Runner<P>`, `Ctx<'_, P>`,
//!   `Snapshot<P>`), and the command-buffer [`Ctx`];
//! * [`runner`] — the experiment driver (allocation-free dispatch over a
//!   reusable command buffer);
//! * [`dynamics`] — scripted bandwidth-change, cross-traffic and churn
//!   scenarios;
//! * [`probe`] — the per-node time series sampled on a virtual-time tick,
//!   feeding the bandwidth-over-time analyses;
//! * [`trace`] / [`metrics`] — the observability layer (structured trace
//!   records and the snapshot of the runner's always-on counters; see
//!   `docs/OBSERVABILITY.md` for the schema and the zero-overhead-when-off
//!   contract).

#![forbid(unsafe_code)]

pub mod dynamics;
pub mod metrics;
pub mod network;
pub mod probe;
pub mod protocol;
pub mod runner;
pub mod service;
pub mod snapshot;
pub mod tcp;
pub mod topology;
pub mod trace;
pub mod units;

pub use dynamics::{
    BandwidthChange, ChangeSchedule, CrossSchedule, CrossTraffic, LinkChangeBatch, NodeEvent,
    NodeSchedule,
};
pub use metrics::MetricsSnapshot;
pub use network::{BlockReceipt, ConnUpdate, Network, NodeTraffic, SolverStats};
pub use probe::{NodeSample, ProbeStats, StatsProbe, TimeSample, TimeSeries};
pub use protocol::{Command, Ctx, Protocol, WireSize};
pub use runner::{RunReport, Runner, StopReason};
pub use service::{
    arrival_schedule, run_service, ArrivalGen, CohortReport, ServiceConfig, ServiceReport,
    ServiceSample, SwarmShape, SwarmSource,
};
pub use snapshot::Snapshot;
pub use topology::{LinkId, NodeId, NodeSpec, PathSpec, Topology};
pub use trace::{
    replay_goodput, summarize, CountingSink, ReplaySample, RingSink, TraceEvent, TraceRecord,
    TraceSink, TraceSummary,
};
pub use units::{gbps, kbps, mbps, to_mbps, BytesPerSec};

#[cfg(test)]
mod lifecycle_tests {
    use super::*;
    use desim::{RngFactory, SimDuration, SimTime};

    /// A minimal instrumented protocol: records every hook invocation so the
    /// tests can assert exactly what the runner delivered.
    struct Recorder {
        id: NodeId,
        init_at: Option<f64>,
        inits: u32,
        shutdowns: usize,
        failed_peers: Vec<NodeId>,
        timer_fires: u32,
        ctrl_received: Vec<NodeId>,
        complete: bool,
        /// Peers to send a control message to at init.
        greet: Vec<NodeId>,
        /// Re-arm a 1 s timer forever.
        recurring_timer: bool,
        /// Peer to wave goodbye to from on_shutdown.
        farewell_to: Option<NodeId>,
    }

    #[derive(Debug)]
    struct PMsg;

    impl WireSize for PMsg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    impl Recorder {
        fn new(id: NodeId) -> Self {
            Recorder {
                id,
                init_at: None,
                inits: 0,
                shutdowns: 0,
                failed_peers: Vec::new(),
                timer_fires: 0,
                ctrl_received: Vec::new(),
                complete: false,
                greet: Vec::new(),
                recurring_timer: false,
                farewell_to: None,
            }
        }
    }

    impl Protocol for Recorder {
        type Msg = PMsg;
        type Timer = ();

        fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
            self.init_at = Some(ctx.now().as_secs_f64());
            self.inits += 1;
            for &peer in &self.greet {
                ctx.send(peer, PMsg);
            }
            if self.recurring_timer {
                ctx.set_timer(SimDuration::from_secs(1), ());
            }
        }

        fn on_control(&mut self, _ctx: &mut Ctx<'_, Self>, from: NodeId, _msg: PMsg) {
            self.ctrl_received.push(from);
        }

        fn on_block_received(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _r: BlockReceipt) {
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _timer: ()) {
            self.timer_fires += 1;
            if self.recurring_timer {
                ctx.set_timer(SimDuration::from_secs(1), ());
            }
        }

        fn on_peer_failed(&mut self, _ctx: &mut Ctx<'_, Self>, peer: NodeId) {
            self.failed_peers.push(peer);
        }

        fn on_shutdown(&mut self, ctx: &mut Ctx<'_, Self>) {
            self.shutdowns += 1;
            if let Some(peer) = self.farewell_to {
                ctx.send(peer, PMsg);
            }
        }

        fn is_complete(&self) -> bool {
            self.complete
        }
    }

    fn probe_runner(n: usize, tweak: impl Fn(&mut Recorder)) -> Runner<Recorder> {
        let rng = RngFactory::new(77);
        let topo = topology::constrained_access(n);
        let nodes: Vec<Recorder> = (0..n as u32)
            .map(|i| {
                let mut p = Recorder::new(NodeId(i));
                tweak(&mut p);
                p
            })
            .collect();
        Runner::new(Network::new(topo), nodes, &rng)
    }

    /// The runner's side of `victim`'s departure, for a run whose nodes all
    /// start at t = 0: each was initialised once, each survivor heard of the
    /// victim exactly once and of nobody else (itself included) and got no
    /// `on_shutdown`, and the victim heard of no failure.
    fn assert_departure_contract(nodes: &[Recorder], victim: NodeId) {
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.inits, 1, "node {i} must be initialised once");
            if node.id == victim {
                assert_eq!(node.failed_peers, Vec::<NodeId>::new());
            } else {
                assert_eq!(node.failed_peers, vec![victim], "survivor {i}");
                assert_eq!(node.shutdowns, 0, "survivor {i} got on_shutdown");
            }
        }
    }

    #[test]
    fn graceful_leave_runs_shutdown_then_notifies_survivors() {
        let mut runner = probe_runner(3, |p| {
            if p.id == NodeId(1) {
                p.farewell_to = Some(NodeId(2));
            }
        });
        runner.schedule_node_event(SimTime::from_secs_f64(2.0), NodeEvent::Leave(NodeId(1)));
        let report = runner.run_until(SimTime::from_secs_f64(10.0));
        assert_eq!(report.reason, StopReason::Drained);
        assert_eq!(report.departed, vec![false, true, false]);
        let nodes = runner.into_nodes();
        assert_eq!(
            nodes[1].shutdowns, 1,
            "the leaver gets exactly one on_shutdown"
        );
        assert_departure_contract(&nodes, NodeId(1));
        // The farewell control message sent from on_shutdown was delivered.
        assert_eq!(nodes[2].ctrl_received, vec![NodeId(1)]);
    }

    #[test]
    fn crash_skips_shutdown_and_drops_timers() {
        let mut runner = probe_runner(3, |p| {
            p.recurring_timer = true;
        });
        runner.schedule_node_event(SimTime::from_secs_f64(3.5), NodeEvent::Crash(NodeId(2)));
        let report = runner.run_until(SimTime::from_secs_f64(10.0));
        assert_eq!(report.reason, StopReason::TimeLimit);
        let nodes = runner.into_nodes();
        assert_eq!(nodes[2].shutdowns, 0, "crashes get no goodbye");
        // Timers at 1, 2, 3 s fired; the 4 s one was dropped.
        assert_eq!(nodes[2].timer_fires, 3);
        assert!(nodes[0].timer_fires >= 9, "survivors keep ticking");
        assert_departure_contract(&nodes, NodeId(2));
    }

    #[test]
    fn join_initialises_late_and_drops_earlier_messages() {
        let mut runner = probe_runner(3, |p| {
            if p.id == NodeId(0) {
                // Greets the not-yet-joined node 2 at t = 0: lost.
                p.greet = vec![NodeId(2)];
            }
            if p.id == NodeId(1) {
                p.recurring_timer = true; // keeps the run alive
            }
        });
        runner.schedule_node_event(SimTime::from_secs_f64(5.0), NodeEvent::Join(NodeId(2)));
        assert!(
            !runner.is_active(NodeId(2)),
            "a scheduled joiner starts absent"
        );
        let report = runner.run_until(SimTime::from_secs_f64(8.0));
        assert_eq!(report.reason, StopReason::TimeLimit);
        let nodes = runner.into_nodes();
        assert_eq!(
            nodes[2].init_at,
            Some(5.0),
            "joiner initialises at the join instant"
        );
        assert!(
            nodes[2].ctrl_received.is_empty(),
            "messages sent before the join never arrive"
        );
        assert_eq!(nodes[0].init_at, Some(0.0));
    }

    #[test]
    fn staged_run_until_does_not_reinitialise() {
        // Regression for the Protocol contract: on_init is delivered exactly
        // once per participant, even when run_until is called again on the
        // same runner (a staged continuation). A joiner is initialised at its
        // join instant — once — regardless of which stage it joins in.
        let mut runner = probe_runner(3, |p| p.recurring_timer = true);
        runner.schedule_node_event(SimTime::from_secs_f64(4.0), NodeEvent::Join(NodeId(2)));
        assert!(
            !runner.is_active(NodeId(2)),
            "a scheduled joiner starts absent"
        );
        let first = runner.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(first.reason, StopReason::TimeLimit);
        assert!(!runner.is_active(NodeId(2)), "absent until its join fires");
        let second = runner.run_until(SimTime::from_secs_f64(6.0));
        assert_eq!(second.reason, StopReason::TimeLimit);
        let nodes = runner.into_nodes();
        assert_eq!(nodes[0].inits, 1, "staged continuation must not re-init");
        assert_eq!(nodes[1].inits, 1);
        assert_eq!(
            nodes[2].inits, 1,
            "the joiner is initialised exactly once, at the join"
        );
        assert_eq!(nodes[2].init_at, Some(4.0));
    }

    #[test]
    fn not_yet_joined_nodes_block_all_complete() {
        let mut runner = probe_runner(2, |p| {
            p.complete = true;
        });
        runner.schedule_node_event(SimTime::from_secs_f64(4.0), NodeEvent::Join(NodeId(1)));
        assert!(
            !runner.is_active(NodeId(1)),
            "a scheduled joiner starts absent"
        );
        let report = runner.run_until(SimTime::from_secs_f64(10.0));
        assert_eq!(report.reason, StopReason::AllComplete);
        assert_eq!(
            report.end_time,
            SimTime::from_secs_f64(4.0),
            "the run must wait for the joiner instead of stopping at t=0"
        );
    }

    #[test]
    fn join_scheduled_after_start_for_an_active_node_changes_nothing() {
        // A join scheduled once the run has started marks nobody absent, and
        // when it fires for a participant it neither re-initialises it nor
        // counts a join: the run equals its twin without the join.
        let run = |join: bool| {
            let mut runner = probe_runner(3, |p| {
                p.recurring_timer = true;
                p.greet = vec![NodeId((p.id.0 + 1) % 3)];
            });
            runner.run_until(SimTime::from_secs_f64(2.0));
            if join {
                runner.schedule_node_event(SimTime::from_secs_f64(4.0), NodeEvent::Join(NodeId(1)));
                assert!(runner.is_active(NodeId(1)), "a participant stays active");
            }
            let report = runner.run_until(SimTime::from_secs_f64(6.0));
            assert_eq!(report.reason, StopReason::TimeLimit);
            assert_eq!(report.metrics.counter("node_joins"), Some(0));
            runner.into_nodes()
        };
        let (joined, twin) = (run(true), run(false));
        for (i, (a, b)) in joined.iter().zip(&twin).enumerate() {
            assert_eq!(a.inits, 1, "node {i} is initialised once");
            assert_eq!(a.init_at, Some(0.0), "node {i} starts at t = 0");
            assert_eq!(
                (a.timer_fires, &a.ctrl_received),
                (b.timer_fires, &b.ctrl_received),
                "node {i} sees what its twin sees"
            );
        }
    }

    #[test]
    fn drained_reports_unfinished_non_exempt_nodes() {
        // Nobody schedules anything and nobody is complete: the queue drains
        // right after init with zero completions.
        let mut runner = probe_runner(3, |_| {});
        let report = runner.run_until(SimTime::from_secs_f64(100.0));
        assert_eq!(report.reason, StopReason::Drained);
        assert!(report.completion_secs.iter().all(Option::is_none));
        assert_eq!(report.completion_fraction(1), 0.0);
    }

    #[test]
    fn exempt_nodes_stop_the_run_but_still_count_as_unfinished() {
        let mut runner = probe_runner(3, |p| {
            p.complete = p.id != NodeId(2);
        });
        runner.exempt_from_completion(NodeId(2));
        let report = runner.run_until(SimTime::from_secs_f64(100.0));
        assert_eq!(report.reason, StopReason::AllComplete);
        // completion_fraction does not know about exemptions: node 2 never
        // finished and is reported as such.
        assert!(report.completion_secs[2].is_none());
        assert!((report.completion_fraction(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_limit_clamps_end_time_to_the_limit() {
        // Regression: the runner used to report the time of the last
        // *processed* event on TimeLimit while the engine clamps to the
        // limit; both must agree on the limit itself.
        let mut runner = probe_runner(2, |p| p.recurring_timer = true);
        let report = runner.run_until(SimTime::from_secs_f64(2.5));
        assert_eq!(report.reason, StopReason::TimeLimit);
        assert_eq!(
            report.end_time,
            SimTime::from_secs_f64(2.5),
            "end_time must be exactly the limit, not the last event time"
        );
    }
}

#[cfg(test)]
mod runner_tests {
    use super::*;
    use desim::{RngFactory, SimDuration};
    use dissem_codec::{BlockBitmap, BlockId, FileSpec};

    /// A deliberately simple protocol used to exercise the runner: node 0
    /// (the source) pushes every block to every other node directly, keeping
    /// at most `window` blocks queued per receiver; receivers just record
    /// what they get.
    struct Flood {
        id: NodeId,
        spec: FileSpec,
        window: usize,
        have: BlockBitmap,
        next_to_send: Vec<u32>,
        receipts: usize,
    }

    #[derive(Debug)]
    enum Msg {}

    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            0
        }
    }

    impl Flood {
        fn new(id: NodeId, n: usize, spec: FileSpec, window: usize) -> Self {
            let have = if id == NodeId(0) {
                BlockBitmap::full(spec.num_blocks())
            } else {
                BlockBitmap::new(spec.num_blocks())
            };
            Flood {
                id,
                spec,
                window,
                have,
                next_to_send: vec![0; n],
                receipts: 0,
            }
        }

        fn is_source(&self) -> bool {
            self.id == NodeId(0)
        }

        fn fill_pipe(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId) {
            let idx = to.index();
            // `ctx.pending_to` reflects network state before this handler's
            // commands are applied, so track what this call queues separately.
            let mut queued_now = 0usize;
            while ctx.pending_to(to) + queued_now < self.window
                && self.next_to_send[idx] < self.spec.num_blocks()
            {
                let b = BlockId(self.next_to_send[idx]);
                ctx.queue_block(to, b, u64::from(self.spec.block_size(b)));
                self.next_to_send[idx] += 1;
                queued_now += 1;
            }
        }
    }

    impl Protocol for Flood {
        type Msg = Msg;
        type Timer = ();

        fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
            if self.is_source() {
                for i in 1..self.next_to_send.len() as u32 {
                    // Queue the initial window towards each receiver.
                    let to = NodeId(i);
                    for _ in 0..self.window {
                        let next = self.next_to_send[to.index()];
                        if next >= self.spec.num_blocks() {
                            break;
                        }
                        let b = BlockId(next);
                        ctx.queue_block(to, b, u64::from(self.spec.block_size(b)));
                        self.next_to_send[to.index()] += 1;
                    }
                }
            }
        }

        fn on_control(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: Msg) {}

        fn on_block_received(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, r: BlockReceipt) {
            self.have.insert(r.block);
            self.receipts += 1;
        }

        fn on_block_sent(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId, _block: BlockId) {
            if self.is_source() {
                self.fill_pipe(ctx, to);
            }
        }

        fn is_complete(&self) -> bool {
            self.have.is_full()
        }
    }

    fn run_flood(n: usize, file_kb: u64, window: usize) -> RunReport {
        let rng = RngFactory::new(11);
        let topo = topology::constrained_access(n);
        let spec = FileSpec::new(file_kb * 1024, 16 * 1024);
        let nodes: Vec<Flood> = (0..n)
            .map(|i| Flood::new(NodeId(i as u32), n, spec, window))
            .collect();
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        runner.run(SimDuration::from_secs(3_000))
    }

    #[test]
    fn direct_flood_completes_all_receivers() {
        // `run_flood` exempts no node: the source holds the file, so it is
        // complete at t = 0, and the run ends when the last receiver finishes.
        let report = run_flood(4, 256, 4);
        assert_eq!(report.reason, StopReason::AllComplete);
        assert_eq!(report.completion_secs[0], Some(0.0));
        for (i, c) in report.completion_secs.iter().enumerate() {
            assert!(c.is_some(), "node {i} did not complete");
        }
        // 256 KB to three receivers over a shared 800 Kbps uplink cannot finish
        // faster than the uplink allows: 3 * 256 KB / 100 KB/s ≈ 7.9 s.
        let slowest = report.finished_times().last().copied().unwrap();
        assert_eq!(report.end_time.as_secs_f64(), slowest);
        assert!(
            slowest > 7.0,
            "slowest receiver finished impossibly fast: {slowest}"
        );
        assert!(slowest < 200.0, "flood took unreasonably long: {slowest}");
    }

    #[test]
    fn canonical_leaves_out_exactly_the_solver_size_metrics() {
        let report = run_flood(4, 256, 4);
        let names: Vec<&str> = report
            .metrics
            .counters
            .iter()
            .chain(&report.metrics.gauges)
            .map(|&(name, _)| name)
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is named twice");
        }
        for name in RunReport::SOLVER_SIZE_METRICS {
            assert!(names.contains(&name), "the snapshot has no {name}");
        }
        let canonical = report.canonical();
        for name in names {
            let dropped = RunReport::SOLVER_SIZE_METRICS.contains(&name);
            assert_eq!(
                canonical.contains(&format!("{name:?}")),
                !dropped,
                "{name} in the canonical report"
            );
        }
    }

    #[test]
    fn deeper_window_is_not_slower_on_clean_links() {
        let small = run_flood(3, 128, 1);
        let large = run_flood(3, 128, 8);
        let s = small.finished_times().last().copied().unwrap();
        let l = large.finished_times().last().copied().unwrap();
        assert!(
            l <= s + 1e-6,
            "a deeper pipeline should not slow the transfer (window 1: {s}, window 8: {l})"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_flood(5, 128, 3);
        let b = run_flood(5, 128, 3);
        assert_eq!(a.completion_secs, b.completion_secs);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn crashed_receiver_is_excluded_and_survivors_complete() {
        let rng = RngFactory::new(11);
        let topo = topology::constrained_access(4);
        let spec = FileSpec::new(256 * 1024, 16 * 1024);
        let nodes: Vec<Flood> = (0..4)
            .map(|i| Flood::new(NodeId(i as u32), 4, spec, 4))
            .collect();
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        runner.schedule_node_event(
            desim::SimTime::from_secs_f64(2.0),
            NodeEvent::Crash(NodeId(2)),
        );
        let report = runner.run(SimDuration::from_secs(3_000));
        assert_eq!(
            report.reason,
            StopReason::AllComplete,
            "the crashed node must not block the all-complete stop: {report:?}"
        );
        assert!(
            report.completion_secs[2].is_none(),
            "a crashed node never completes"
        );
        assert_eq!(report.departed, vec![false, false, true, false]);
        assert!(report.completion_secs[1].is_some());
        assert!(report.completion_secs[3].is_some());
    }

    #[test]
    fn blocks_queued_to_inactive_peers_are_discarded() {
        // Regression for the `Ctx::queue_block` path: the source floods every
        // receiver without checking liveness, and node 2 never joins. The
        // runner must discard the QueueBlock commands addressed to it — no
        // bytes may reach it, no connection may sit waiting to drain — while
        // the active receiver completes normally.
        let rng = RngFactory::new(11);
        let topo = topology::constrained_access(3);
        let spec = FileSpec::new(64 * 1024, 16 * 1024);
        let nodes: Vec<Flood> = (0..3)
            .map(|i| Flood::new(NodeId(i as u32), 3, spec, 4))
            .collect();
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        runner.set_inactive_at_start(NodeId(2));
        runner.set_trace_sink(Box::new(RingSink::new(1 << 16)));
        let report = runner.run(SimDuration::from_secs(3_000));
        // Node 2 never joins, so the run drains instead of completing.
        assert_eq!(report.reason, StopReason::Drained);
        assert!(
            report.completion_secs[1].is_some(),
            "active receiver finishes"
        );
        let ring = runner
            .take_trace_sink::<RingSink>()
            .expect("the ring installed above");
        assert_eq!(ring.dropped(), 0);
        assert!(
            !ring
                .into_records()
                .iter()
                .any(|rec| matches!(rec.ev, TraceEvent::BlockReceived { node: 2, .. })),
            "no data may reach the inactive node"
        );
        assert_eq!(
            runner.network().pending_blocks(NodeId(0), NodeId(2)),
            0,
            "discarded blocks must not linger in a queue towards the inactive node"
        );
        assert_eq!(runner.node(NodeId(2)).receipts, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no self-transfers")]
    fn queueing_a_block_to_self_is_rejected() {
        // Mirror of the `Ctx::send` self-messaging guard: a protocol that
        // queues a block towards itself is a bug, caught at record time.
        struct SelfSender;
        impl Protocol for SelfSender {
            type Msg = Msg;
            type Timer = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
                let me = ctx.node_id();
                ctx.queue_block(me, BlockId(0), 1024);
            }
            fn on_control(&mut self, _c: &mut Ctx<'_, Self>, _f: NodeId, _m: Msg) {}
            fn on_block_received(&mut self, _c: &mut Ctx<'_, Self>, _f: NodeId, _r: BlockReceipt) {}
        }
        let rng = RngFactory::new(1);
        let topo = topology::constrained_access(2);
        let mut runner = Runner::new(Network::new(topo), vec![SelfSender, SelfSender], &rng);
        runner.run(SimDuration::from_secs(1));
    }

    /// Drives deliberate connection churn against the runner's dense
    /// completion-event table (regression for the `(from, to) → EventKey`
    /// map it replaced): a mid-flight close must cancel the connection's
    /// single live event (its block never arrives), re-queueing afterwards
    /// must create a fresh event, and shared-uplink rate changes in between
    /// must *move* the survivor's event rather than duplicate it.
    struct Churn {
        id: NodeId,
        got: Vec<BlockId>,
    }

    impl Protocol for Churn {
        type Msg = Msg;
        type Timer = u64;

        fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
            if self.id == NodeId(0) {
                // Two small blocks towards node 1 and one large one towards
                // node 2, sharing node 0's uplink.
                ctx.queue_block(NodeId(1), BlockId(0), 100_000);
                ctx.queue_block(NodeId(1), BlockId(1), 100_000);
                ctx.queue_block(NodeId(2), BlockId(10), 1_000_000);
                ctx.set_timer(SimDuration::from_millis(200), 1);
                ctx.set_timer(SimDuration::from_millis(400), 2);
            }
        }

        fn on_control(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: Msg) {}

        fn on_block_received(&mut self, _c: &mut Ctx<'_, Self>, _from: NodeId, r: BlockReceipt) {
            self.got.push(r.block);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: u64) {
            match timer {
                // Cancel: the 1 MB block to node 2 is still in flight (its
                // uplink share is at most 100 KB/s); closing discards it and
                // speeds node 1's flow up (rescheduling its live event).
                1 => ctx.close_connection(NodeId(2)),
                // Fresh event on a previously cancelled connection; node 1's
                // flow slows down again (another reschedule).
                2 => ctx.queue_block(NodeId(2), BlockId(11), 100_000),
                _ => unreachable!("unknown timer"),
            }
        }

        fn is_complete(&self) -> bool {
            match self.id {
                NodeId(1) => self.got.len() >= 2,
                NodeId(2) => self.got.contains(&BlockId(11)),
                _ => false,
            }
        }
    }

    fn run_churn() -> (RunReport, Vec<Churn>) {
        let rng = RngFactory::new(9);
        let topo = topology::constrained_access(3);
        let nodes: Vec<Churn> = (0..3)
            .map(|i| Churn {
                id: NodeId(i),
                got: Vec::new(),
            })
            .collect();
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        runner.exempt_from_completion(NodeId(0));
        let report = runner.run(SimDuration::from_secs(1_000));
        assert_eq!(
            runner.network().pending_blocks(NodeId(0), NodeId(2)),
            0,
            "nothing may linger on the cancelled-then-reopened connection"
        );
        (report, runner.into_nodes())
    }

    #[test]
    fn cancel_and_reschedule_bookkeeping_survives_churn() {
        let (report, nodes) = run_churn();
        assert_eq!(report.reason, StopReason::AllComplete);
        assert_eq!(
            nodes[1].got,
            vec![BlockId(0), BlockId(1)],
            "the rescheduled (never cancelled) connection delivers in order"
        );
        assert_eq!(
            nodes[2].got,
            vec![BlockId(11)],
            "the cancelled block must never arrive; the re-queued one must"
        );
        // The whole churn sequence is deterministic: a second run replays the
        // exact event count and completion instants.
        let (again, _) = run_churn();
        assert_eq!(report.completion_secs, again.completion_secs);
        assert_eq!(report.events, again.events);
    }

    #[test]
    fn time_limit_is_respected() {
        let rng = RngFactory::new(11);
        let topo = topology::constrained_access(3);
        let spec = FileSpec::new(10 * 1024 * 1024, 16 * 1024);
        let nodes: Vec<Flood> = (0..3)
            .map(|i| Flood::new(NodeId(i as u32), 3, spec, 2))
            .collect();
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        let report = runner.run(SimDuration::from_secs(5));
        assert_eq!(report.reason, StopReason::TimeLimit);
        assert!(report.end_time.as_secs_f64() <= 5.0 + 1e-9);
    }

    #[test]
    fn completion_fraction_counts_receivers() {
        let report = run_flood(4, 64, 2);
        assert_eq!(report.completion_fraction(1), 1.0);
    }

    #[test]
    fn link_change_slows_transfer() {
        let rng = RngFactory::new(3);
        let spec = FileSpec::new(512 * 1024, 16 * 1024);

        let run_with = |degrade: bool| -> f64 {
            let topo = topology::constrained_access(2);
            let nodes: Vec<Flood> = (0..2)
                .map(|i| Flood::new(NodeId(i as u32), 2, spec, 4))
                .collect();
            let mut runner = Runner::new(Network::new(topo), nodes, &rng);
            if degrade {
                runner.schedule_link_change(
                    desim::SimTime::from_secs_f64(1.0),
                    LinkChangeBatch::new(vec![(
                        NodeId(0),
                        NodeId(1),
                        BandwidthChange::Set(kbps(50.0)),
                    )]),
                );
            }
            let report = runner.run(SimDuration::from_secs(10_000));
            report
                .finished_times()
                .last()
                .copied()
                .expect("receiver finished")
        };

        let clean = run_with(false);
        let degraded = run_with(true);
        assert!(
            degraded > clean * 2.0,
            "cutting the path to 50 Kbps must slow the transfer (clean {clean}, degraded {degraded})"
        );
    }

    #[test]
    fn traffic_counters_match_file_volume() {
        let rng = RngFactory::new(2);
        let topo = topology::constrained_access(2);
        let spec = FileSpec::new(128 * 1024, 16 * 1024);
        let nodes: Vec<Flood> = (0..2)
            .map(|i| Flood::new(NodeId(i as u32), 2, spec, 4))
            .collect();
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        let report = runner.run(SimDuration::from_secs(1_000));
        assert_eq!(report.reason, StopReason::AllComplete);
        // 128 KiB in 16 KiB blocks, from the source to its one receiver.
        assert_eq!(report.metrics.counter("blocks_sent"), Some(8));
        assert_eq!(report.metrics.counter("blocks_delivered"), Some(8));
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use desim::{RngFactory, SimDuration, SimTime};
    use probe::ProbeStats;

    /// A protocol that "downloads" a fixed number of bytes per second via a
    /// timer, so probe goodput has a known closed form.
    struct Ticker {
        bytes: u64,
        per_tick: u64,
        ticks_left: u32,
        duplicates: u64,
    }

    #[derive(Debug)]
    enum NoMsg {}

    impl WireSize for NoMsg {
        fn wire_size(&self) -> usize {
            0
        }
    }

    impl Protocol for Ticker {
        type Msg = NoMsg;
        type Timer = ();

        // No started-guard needed: the runner delivers on_init exactly once,
        // even across staged run_until continuations (see the staged test).
        fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
            if self.ticks_left > 0 {
                ctx.set_timer(SimDuration::from_secs(1), ());
            }
        }
        fn on_control(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: NoMsg) {}
        fn on_block_received(&mut self, _c: &mut Ctx<'_, Self>, _f: NodeId, _r: BlockReceipt) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _timer: ()) {
            self.bytes += self.per_tick;
            self.duplicates += 1;
            self.ticks_left -= 1;
            if self.ticks_left > 0 {
                ctx.set_timer(SimDuration::from_secs(1), ());
            }
        }
        fn probe_stats(&self) -> ProbeStats {
            ProbeStats {
                useful_bytes: self.bytes,
                useful_blocks: self.bytes / self.per_tick.max(1),
                duplicate_blocks: self.duplicates,
                senders: 2,
                receivers: 3,
            }
        }
    }

    fn ticker_runner(n: usize, per_tick: u64, ticks: u32) -> Runner<Ticker> {
        let rng = RngFactory::new(5);
        let topo = topology::constrained_access(n);
        let nodes: Vec<Ticker> = (0..n)
            .map(|_| Ticker {
                bytes: 0,
                per_tick,
                ticks_left: ticks,
                duplicates: 0,
            })
            .collect();
        Runner::new(Network::new(topo), nodes, &rng)
    }

    #[test]
    fn timeseries_samples_at_t0_and_every_tick() {
        let mut runner = ticker_runner(2, 1000, 10);
        runner.record_timeseries(SimDuration::from_secs(2));
        let report = runner.run_until(SimTime::from_secs_f64(100.0));
        let series = report.timeseries.expect("probe installed");
        assert_eq!(series.interval_secs, 2.0);
        // Protocol timers stop at t = 10; samples at 0,2,4,6,8,10 all fire
        // before the queue holds nothing but the next probe tick.
        let times: Vec<f64> = series.samples.iter().map(|s| s.time_secs).collect();
        assert_eq!(times, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        assert_eq!(
            report.reason,
            StopReason::Drained,
            "probe ticks alone must not keep the run alive"
        );
    }

    #[test]
    fn goodput_is_differenced_between_ticks() {
        let mut runner = ticker_runner(2, 1000, 10);
        runner.record_timeseries(SimDuration::from_secs(2));
        let report = runner.run_until(SimTime::from_secs_f64(100.0));
        let series = report.timeseries.unwrap();
        // 1000 bytes/s of "useful" data = 8000 bps. A sample observes state
        // *as of* its instant: a protocol event landing exactly on a tick is
        // counted in the next interval (the tick was enqueued first), so the
        // first interval (0, 2] sees only the t = 1 timer: 4000 bps.
        for s in &series.samples[2..] {
            for node in &s.nodes {
                assert!(
                    (node.goodput_bps - 8000.0).abs() < 1e-6,
                    "at {}: {}",
                    s.time_secs,
                    node.goodput_bps
                );
                assert_eq!(node.senders, 2);
                assert_eq!(node.receivers, 3);
                assert!(node.active);
            }
        }
        for node in &series.samples[1].nodes {
            assert!((node.goodput_bps - 4000.0).abs() < 1e-6);
        }
        // The t = 0 sample has no elapsed interval: goodput reads 0.
        assert!(series.samples[0].nodes.iter().all(|n| n.goodput_bps == 0.0));
    }

    #[test]
    fn probes_observe_departures() {
        let mut runner = ticker_runner(3, 500, 30);
        runner.record_timeseries(SimDuration::from_secs(1));
        runner.schedule_node_event(SimTime::from_secs_f64(4.5), NodeEvent::Crash(NodeId(2)));
        let report = runner.run_until(SimTime::from_secs_f64(20.0));
        let series = report.timeseries.unwrap();
        let at = |t: f64| series.samples.iter().find(|s| s.time_secs == t).unwrap();
        assert!(at(4.0).nodes[2].active);
        assert!(!at(5.0).nodes[2].active);
        assert!(at(5.0).nodes[1].active);
    }

    #[test]
    fn staged_run_until_continues_a_single_tick_chain() {
        // Regression: a second `run_until` on the same runner must continue
        // the existing probe-tick chain, not start a duplicate one (which
        // would double-sample instants and keep the drain check from ever
        // seeing "only the next tick left").
        let mut runner = ticker_runner(2, 1000, 10);
        runner.record_timeseries(SimDuration::from_secs(2));
        let first = runner.run_until(SimTime::from_secs_f64(5.0));
        assert_eq!(first.reason, StopReason::TimeLimit);
        let head: Vec<f64> = first
            .timeseries
            .unwrap()
            .samples
            .iter()
            .map(|s| s.time_secs)
            .collect();
        assert_eq!(head, vec![0.0, 2.0, 4.0]);

        let second = runner.run_until(SimTime::from_secs_f64(100.0));
        assert_eq!(
            second.reason,
            StopReason::Drained,
            "a duplicated tick chain would keep the queue alive to the limit"
        );
        let tail: Vec<f64> = second
            .timeseries
            .unwrap()
            .samples
            .iter()
            .map(|s| s.time_secs)
            .collect();
        assert_eq!(
            tail,
            vec![6.0, 8.0, 10.0],
            "no re-sampled or duplicate instants"
        );
    }

    #[test]
    fn asking_for_a_series_twice_yields_one_series_at_the_second_interval() {
        let mut runner = ticker_runner(2, 1000, 10);
        runner.record_timeseries(SimDuration::from_secs(2));
        runner.record_timeseries(SimDuration::from_secs(5));
        let report = runner.run_until(SimTime::from_secs_f64(100.0));
        let series = report.timeseries.expect("probe installed");
        assert_eq!(series.interval_secs, 5.0);
        let times: Vec<f64> = series.samples.iter().map(|s| s.time_secs).collect();
        assert_eq!(times, vec![0.0, 5.0, 10.0], "one tick chain, not two");
        assert_eq!(report.metrics.counter("probe_ticks"), Some(3));
        assert!(
            runner
                .take_timeseries()
                .expect("probe installed")
                .samples
                .is_empty(),
            "the report drained the only series there is"
        );
    }

    #[test]
    fn a_sink_is_taken_back_as_the_type_that_was_installed() {
        let limit = SimTime::from_secs_f64(100.0);
        let mut ringed = ticker_runner(2, 1000, 4);
        ringed.set_trace_sink(Box::new(RingSink::new(1 << 10)));
        let report = ringed.run_until(limit);
        let ring = ringed
            .take_trace_sink::<RingSink>()
            .expect("a ring went in");
        assert!(
            ringed.take_trace_sink::<RingSink>().is_none(),
            "taking uninstalls"
        );
        // Exactly what the run emitted: nothing dropped, one `timer` record
        // per timer the report counted.
        assert_eq!((ring.recorded(), ring.dropped()), (report.trace_records, 0));
        let records = ring.into_records();
        assert_eq!(records.len() as u64, report.trace_records);
        let timers = records.iter().filter(|r| r.ev.kind() == "timer").count();
        assert_eq!(report.metrics.counter("timers_fired"), Some(timers as u64));
        assert_eq!(timers, 8);
    }

    #[test]
    fn taking_a_sink_as_another_type_leaves_it_installed() {
        let mut counted = ticker_runner(2, 1000, 4);
        counted.set_trace_sink(Box::new(CountingSink::new()));
        let report = counted.run_until(SimTime::from_secs_f64(100.0));
        assert!(counted.take_trace_sink::<RingSink>().is_none());
        let sink = counted
            .take_trace_sink::<CountingSink>()
            .expect("the wrong type left the sink in place");
        assert_eq!(sink.recorded(), report.trace_records);
        assert!(counted.take_trace_sink::<CountingSink>().is_none());
    }

    #[test]
    fn runs_without_probes_report_no_series_and_identical_events() {
        let mut plain = ticker_runner(2, 100, 5);
        let plain_report = plain.run_until(SimTime::from_secs_f64(50.0));
        assert!(plain_report.timeseries.is_none());

        // Installing a probe adds tick events but must not change virtual
        // outcomes (completions, departures) — only the observation.
        let mut probed = ticker_runner(2, 100, 5);
        probed.record_timeseries(SimDuration::from_secs(1));
        let probed_report = probed.run_until(SimTime::from_secs_f64(50.0));
        assert_eq!(plain_report.completion_secs, probed_report.completion_secs);
        assert_eq!(plain_report.departed, probed_report.departed);
        assert!(probed_report.events > plain_report.events);
    }
}

#[cfg(test)]
mod timer_tests {
    use super::*;
    use desim::{RngFactory, SimDuration, SimTime};

    /// Two timer variants, one with a payload, so a value the runner mangled
    /// on its way through the queue would show.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Alarm {
        Short(u8),
        Long,
    }

    #[derive(Debug, Clone)]
    enum NoMsg {}

    impl WireSize for NoMsg {
        fn wire_size(&self) -> usize {
            0
        }
    }

    /// Arms `Short(0)` at 1 s and `Long` at 2.5 s; each `Short(k)` re-arms
    /// `Short(k + 1)` a second later up to `Short(2)`, and the first `Long`
    /// re-arms one more 2.5 s later. Records what fired, and when.
    #[derive(Debug, Clone, Default)]
    struct Alarms {
        fired: Vec<(f64, Alarm)>,
    }

    impl Protocol for Alarms {
        type Msg = NoMsg;
        type Timer = Alarm;

        fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
            ctx.set_timer(SimDuration::from_secs(1), Alarm::Short(0));
            ctx.set_timer(SimDuration::from_secs_f64(2.5), Alarm::Long);
        }
        fn on_control(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: NoMsg) {}
        fn on_block_received(&mut self, _c: &mut Ctx<'_, Self>, _f: NodeId, _r: BlockReceipt) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Alarm) {
            let longs = self.fired.iter().filter(|(_, a)| *a == Alarm::Long).count();
            self.fired.push((ctx.now().as_secs_f64(), timer));
            match timer {
                Alarm::Short(k) if k < 2 => {
                    ctx.set_timer(SimDuration::from_secs(1), Alarm::Short(k + 1))
                }
                Alarm::Long if longs == 0 => {
                    ctx.set_timer(SimDuration::from_secs_f64(2.5), Alarm::Long)
                }
                _ => {}
            }
        }
    }

    const FIRED: [(f64, Alarm); 5] = [
        (1.0, Alarm::Short(0)),
        (2.0, Alarm::Short(1)),
        (2.5, Alarm::Long),
        (3.0, Alarm::Short(2)),
        (5.0, Alarm::Long),
    ];

    fn alarms_runner() -> Runner<Alarms> {
        let topo = topology::constrained_access(2);
        Runner::new(
            Network::new(topo),
            vec![Alarms::default(); 2],
            &RngFactory::new(3),
        )
    }

    /// The `timer` records of `node`, as the names they carry.
    fn timer_names(runner: &mut Runner<Alarms>, node: u32) -> Vec<String> {
        let ring = runner
            .take_trace_sink::<RingSink>()
            .expect("a ring went in");
        ring.into_records()
            .into_iter()
            .filter_map(|rec| match rec.ev {
                TraceEvent::Timer { node: n, timer } if n == node => Some(timer),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn on_timer_receives_each_timer_as_armed() {
        let mut runner = alarms_runner();
        runner.set_trace_sink(Box::new(RingSink::new(1 << 10)));
        let report = runner.run_until(SimTime::from_secs_f64(60.0));
        assert_eq!(report.reason, StopReason::Drained);
        for node in runner.nodes() {
            assert_eq!(node.fired, FIRED);
        }
        assert_eq!(report.metrics.counter("timers_fired"), Some(10));
        assert_eq!(
            timer_names(&mut runner, 0),
            ["Short(0)", "Short(1)", "Long", "Short(2)", "Long"]
        );
    }

    #[test]
    fn timers_pending_at_a_checkpoint_fire_as_armed_after_resume() {
        let mut straight = alarms_runner();
        let limit = SimTime::from_secs_f64(60.0);
        straight.advance_until(SimTime::from_secs_f64(2.2));
        let mut resumed = Runner::resume(straight.checkpoint());
        resumed.set_trace_sink(Box::new(RingSink::new(1 << 10)));
        let (a, b) = (straight.run_until(limit), resumed.run_until(limit));
        assert_eq!(a.canonical(), b.canonical());
        for runner in [&straight, &resumed] {
            for node in runner.nodes() {
                assert_eq!(node.fired, FIRED);
            }
        }
        // The resumed trace holds the timers pending at 2.2 s and the one
        // they re-armed.
        assert_eq!(timer_names(&mut resumed, 1), ["Long", "Short(2)", "Long"]);
    }

    /// Retiring a slot between its timers cancels the ones it still had
    /// pending, and no other: the other node's fire as armed, the retired
    /// node's never fire, and the counts are those of cancelling by key.
    #[test]
    fn retire_cancels_exactly_the_slots_pending_timers() {
        let mut runner = alarms_runner();
        runner.advance_until(SimTime::from_secs_f64(2.2));
        assert_eq!(runner.pending_events(), 4, "Long and Short(2), per node");
        runner.retire(&[NodeId(0)]);
        assert_eq!(runner.pending_events(), 2, "no timer of node 0 is pending");
        let report = runner.run_until(SimTime::from_secs_f64(60.0));
        assert_eq!(report.reason, StopReason::Drained);
        assert_eq!(runner.nodes()[0].fired, FIRED[..2]);
        assert_eq!(runner.nodes()[1].fired, FIRED);
        assert_eq!(report.metrics.counter("timers_fired"), Some(7));
        assert_eq!(report.metrics.counter("events_cancelled"), Some(2));
    }
}
