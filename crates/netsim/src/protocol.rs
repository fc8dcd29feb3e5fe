//! The protocol-facing API: the [`Protocol`] trait and the per-event
//! context ([`Ctx`]) through which a protocol observes and acts on the
//! emulated network.
//!
//! Handlers never touch the network directly; they record *commands*
//! (send a control message, queue a block, arm a timer, close a peering)
//! that the runner applies after the handler returns. This keeps protocol
//! code free of borrow gymnastics and makes every action attributable to the
//! event that caused it. The command buffer itself is owned by the runner and
//! lent to each [`Ctx`], so steady-state dispatch allocates nothing.
//!
//! ## Associated types (API v2)
//!
//! A protocol declares its control-message type and its timer vocabulary as
//! associated types, so downstream signatures mention only the protocol:
//! `Runner<P>`, `Ctx<'_, P>`, `Snapshot<P>`. Timers are real enums: the runner
//! carries the value a handler armed through the event queue as it is and
//! hands it back to [`Protocol::on_timer`], so a handler `match`es on
//! `Self::Timer`.
//!
//! ## Example implementor
//!
//! A complete minimal protocol: every node pings a fixed buddy once a second
//! and counts the pings it receives.
//!
//! ```
//! use desim::SimDuration;
//! use netsim::{BlockReceipt, Ctx, NodeId, Protocol, WireSize};
//!
//! struct Ping;
//!
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> usize {
//!         8
//!     }
//! }
//!
//! #[derive(Debug, Clone, Copy)]
//! enum Timer {
//!     Beat,
//! }
//!
//! struct Pinger {
//!     buddy: NodeId,
//!     received: u32,
//! }
//!
//! impl Protocol for Pinger {
//!     type Msg = Ping;
//!     type Timer = Timer;
//!
//!     fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
//!         ctx.set_timer(SimDuration::from_secs(1), Timer::Beat);
//!     }
//!
//!     fn on_control(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: Ping) {
//!         self.received += 1;
//!     }
//!
//!     fn on_block_received(&mut self, _c: &mut Ctx<'_, Self>, _f: NodeId, _r: BlockReceipt) {}
//!
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Timer) {
//!         match timer {
//!             Timer::Beat => {
//!                 if ctx.peer_active(self.buddy) {
//!                     ctx.send(self.buddy, Ping);
//!                 }
//!                 ctx.set_timer(SimDuration::from_secs(1), Timer::Beat);
//!             }
//!         }
//!     }
//! }
//!
//! # // Drive it, so the example exercises the real runner.
//! # use desim::{RngFactory, SimTime};
//! # use netsim::{topology, Network, Runner};
//! # let rng = RngFactory::new(1);
//! # let topo = topology::constrained_access(2);
//! # let nodes = vec![
//! #     Pinger { buddy: NodeId(1), received: 0 },
//! #     Pinger { buddy: NodeId(0), received: 0 },
//! # ];
//! # let mut runner = Runner::new(Network::new(topo), nodes, &rng);
//! # runner.run_until(SimTime::from_secs_f64(5.5));
//! # assert!(runner.node(NodeId(0)).received >= 4);
//! ```

use desim::{SimDuration, SimTime};
use dissem_codec::BlockId;
use rand::rngs::StdRng;

use crate::network::{BlockReceipt, Network};
use crate::probe::ProbeStats;
use crate::topology::NodeId;

/// Size, in bytes, a control message occupies on the wire. Implemented by
/// each protocol's message enum; the emulator uses it for delivery-delay and
/// overhead accounting.
pub trait WireSize {
    /// Serialized size of the message in bytes.
    fn wire_size(&self) -> usize;

    /// Stable snake_case tag naming the message type, used by the structured
    /// trace (`msg` records) and its summarize/filter analyzer. The default
    /// lumps every message under one tag; protocols override it per variant
    /// to make traces legible.
    fn kind(&self) -> &'static str {
        "msg"
    }
}

/// A protocol instance running on one emulated node.
///
/// [`Protocol::Msg`] is the protocol's control-message type. Data blocks do
/// not travel inside messages; they are queued through [`Ctx::queue_block`]
/// and delivered via [`Protocol::on_block_received`]. [`Protocol::Timer`] is
/// the protocol's timer vocabulary, typically a small enum; its `Debug` form
/// names a fired timer in the trace (`timer` records).
///
/// See the [module documentation](self) for a complete example implementor.
pub trait Protocol: Sized {
    /// Control messages this protocol exchanges.
    type Msg: WireSize;
    /// Timers this protocol arms through [`Ctx::set_timer`].
    type Timer: Copy + std::fmt::Debug;

    /// Called exactly once, when the node starts participating: at
    /// simulation start for nodes present from t = 0, or at the join instant
    /// for a node that joins mid-run. A staged continuation (calling
    /// `run_until` again on the same runner) does not re-initialise.
    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>);

    /// Called when a control message from `from` arrives.
    fn on_control(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg);

    /// Called when a data block from `from` has fully arrived.
    fn on_block_received(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, receipt: BlockReceipt);

    /// Called when a block this node queued towards `to` has finished
    /// serialising onto the wire (the send-side analogue of
    /// [`Protocol::on_block_received`]). Default: ignored.
    fn on_block_sent(&mut self, _ctx: &mut Ctx<'_, Self>, _to: NodeId, _block: BlockId) {}

    /// Called when a timer armed through [`Ctx::set_timer`] fires.
    /// Default: ignored (for protocols that never arm one).
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, _timer: Self::Timer) {}

    /// Called when another node leaves or crashes (the emulator's stand-in
    /// for a connection-reset / failure-detector signal). The peer is already
    /// unreachable: its connections are torn down and messages to it are
    /// lost. Default: ignored.
    fn on_peer_failed(&mut self, _ctx: &mut Ctx<'_, Self>, _peer: NodeId) {}

    /// Called on this node when it is about to leave gracefully, *before* its
    /// connections are torn down: control messages sent here still go out,
    /// but data blocks queued here are discarded with the connections.
    /// Default: ignored.
    fn on_shutdown(&mut self, _ctx: &mut Ctx<'_, Self>) {}

    /// Reports whether this node holds the whole file. The runner may stop
    /// the experiment once every node reports completion. A source holds the
    /// file, so it reports `true` once initialised: its completion time is
    /// the instant it starts, and it needs no exemption from the stop
    /// condition.
    fn is_complete(&self) -> bool {
        false
    }

    /// Cumulative counters exposed to run-time probes (see [`crate::probe`]).
    /// The default reports zeros, so probing a protocol that does not track
    /// these is harmless rather than an error.
    fn probe_stats(&self) -> ProbeStats {
        ProbeStats::default()
    }
}

/// An action recorded by a protocol handler, applied by the runner once the
/// handler returns. Parameterized by the protocol's message and timer types,
/// so one buffer serves every hook.
#[derive(Debug)]
pub enum Command<M, T> {
    /// Send control message `msg` to `to`.
    SendControl {
        /// Destination node.
        to: NodeId,
        /// Message payload.
        msg: M,
    },
    /// Queue a data block for transmission to `to`.
    QueueBlock {
        /// Destination node.
        to: NodeId,
        /// Block identity.
        block: BlockId,
        /// Block size in bytes.
        bytes: u64,
    },
    /// Drop the data connection to `to`, discarding queued blocks.
    CloseConnection {
        /// Peer whose connection should be dropped.
        to: NodeId,
    },
    /// Arm a timer that fires after `delay`.
    SetTimer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// The timer handed back to [`Protocol::on_timer`] when it fires.
        timer: T,
    },
}

/// Per-event view of the world handed to protocol handlers.
///
/// The command buffer is borrowed from the runner and reused across events,
/// so recording commands does not allocate once the buffer has warmed up.
pub struct Ctx<'a, P: Protocol> {
    /// This node's identity.
    node: NodeId,
    /// Current virtual time.
    now: SimTime,
    /// Read-only view of the emulated network.
    net: &'a Network,
    /// Which nodes are currently participating (see `Runner` lifecycle).
    active: &'a [bool],
    /// This node's private RNG stream.
    rng: &'a mut StdRng,
    /// Commands recorded by the handler (the runner's scratch buffer).
    commands: &'a mut Vec<Command<P::Msg, P::Timer>>,
}

impl<'a, P: Protocol> Ctx<'a, P> {
    /// Creates a context. The runner makes one per dispatched event; a unit
    /// test makes one to drive a single handler and read what it recorded
    /// from `commands`.
    pub fn new(
        node: NodeId,
        now: SimTime,
        net: &'a Network,
        active: &'a [bool],
        rng: &'a mut StdRng,
        commands: &'a mut Vec<Command<P::Msg, P::Timer>>,
    ) -> Self {
        Ctx {
            node,
            now,
            net,
            active,
            rng,
            commands,
        }
    }

    /// Reborrows this context for a protocol `Q` that shares `P`'s message
    /// and timer types. This is what makes *delegating wrappers* possible —
    /// e.g. an instrumentation layer `Wrapper<P>` whose hooks forward to an
    /// inner `P` and time them: the inner protocol's handlers take
    /// `Ctx<'_, P>`, the wrapper's take `Ctx<'_, Wrapper<P>>`, and both
    /// record into the same buffer.
    pub fn retarget<Q>(&mut self) -> Ctx<'_, Q>
    where
        Q: Protocol<Msg = P::Msg, Timer = P::Timer>,
    {
        Ctx {
            node: self.node,
            now: self.now,
            net: self.net,
            active: self.active,
            rng: &mut *self.rng,
            commands: &mut *self.commands,
        }
    }

    /// This node's identity.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Whether `peer` is currently participating. The emulator's stand-in
    /// for "a connection attempt to a gone host fails immediately": protocols
    /// use it to avoid pouring data at nodes that left, crashed, or have not
    /// joined yet (blocks queued towards an inactive node are discarded).
    pub fn peer_active(&self, peer: NodeId) -> bool {
        self.active[peer.index()]
    }

    /// Number of blocks currently queued or in flight from this node to `to`.
    pub fn pending_to(&self, to: NodeId) -> usize {
        self.net.pending_blocks(self.node, to)
    }

    /// Round-trip time between this node and `peer` according to the
    /// topology. Real implementations estimate this from traffic; the
    /// emulator exposes the configured value for simplicity.
    pub fn rtt(&self, peer: NodeId) -> SimDuration {
        self.net.topology().rtt(self.node, peer)
    }

    /// Sends a control message.
    pub fn send(&mut self, to: NodeId, msg: P::Msg) {
        debug_assert!(to != self.node, "no self-messaging");
        self.commands.push(Command::SendControl { to, msg });
    }

    /// Sends the same control message to every peer in `to`, in iteration
    /// order — the fan-out pattern of RanSub distribute waves, BitTorrent
    /// `Have` floods and farewell broadcasts. Equivalent to calling
    /// [`Ctx::send`] in a loop (one clone of `msg` per recipient), without
    /// the collect-into-a-`Vec`-first dance handlers otherwise need to
    /// appease the borrow checker.
    pub fn send_to_many<I>(&mut self, to: I, msg: &P::Msg)
    where
        I: IntoIterator<Item = NodeId>,
        P::Msg: Clone,
    {
        for peer in to {
            self.send(peer, msg.clone());
        }
    }

    /// Queues a data block for transmission to `to`.
    pub fn queue_block(&mut self, to: NodeId, block: BlockId, bytes: u64) {
        debug_assert!(to != self.node, "no self-transfers");
        self.commands.push(Command::QueueBlock { to, block, bytes });
    }

    /// Closes the data connection to `to`, discarding its queue.
    pub fn close_connection(&mut self, to: NodeId) {
        self.commands.push(Command::CloseConnection { to });
    }

    /// Arms a timer; it fires back through [`Protocol::on_timer`] after
    /// `delay`, carrying `timer`.
    pub fn set_timer(&mut self, delay: SimDuration, timer: P::Timer) {
        self.commands.push(Command::SetTimer { delay, timer });
    }
}

impl<P: Protocol> std::fmt::Debug for Ctx<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("node", &self.node)
            .field("now", &self.now)
            .field("commands", &self.commands.len())
            .finish()
    }
}
