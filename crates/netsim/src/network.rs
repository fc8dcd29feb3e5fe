//! The fluid connection model: global max-min fair sharing over the
//! topology's link graph.
//!
//! Every ordered pair of peers that exchanges data owns a [`Connection`]: a
//! FIFO of queued blocks served at the connection's current rate. A
//! connection with a block in flight is an active **flow** crossing three
//! directed links — the sender's uplink, a core link (possibly shared with
//! other pairs), and the receiver's downlink (see
//! [`crate::topology::Topology::links_on_path`]). Rates are assigned by
//! **progressive filling**: one common water level rises across all flows of
//! a component; a flow freezes when a link on its path saturates or when it
//! hits its own TCP ceiling (Mathis loss limit and slow start, see
//! [`crate::tcp`]). The result is the unique global max-min fair allocation,
//! the fluid equivalent of many long-lived TCP flows sharing a network —
//! `docs/NETWORK_MODEL.md` develops the model in full, with a worked example.
//!
//! ## Incremental repricing
//!
//! Rates must be re-assigned whenever the flow set or the constraints change:
//! a flow starts or stops, a block completes (the slow-start ceiling moved),
//! a scenario rewrites link capacities, or cross traffic changes a link's
//! occupancy. A change can only reach other flows through links that are
//! **full**: a link that is not full before the change and not full after it
//! constrains nobody. So the model re-solves the component of the flow–link
//! graph found from the changed (*seed*) links by crossing only links that
//! are saturated *now* (`FRONTIER_MARGIN`); every other link a solved flow
//! touches is a *boundary* link, which the fill ignores. After the fill the
//! solved rates are added up on each boundary link, and one that has filled
//! is pulled into the component: the same search continues from it and the
//! fill is redone, until every boundary link verifies. Flows outside keep
//! their rates — none shares a saturated link with a solved flow — and the
//! solved ones get the bits a from-scratch solve gives them (debug builds
//! re-solve the whole network after every solve and assert exactly that;
//! `docs/NETWORK_MODEL.md` §5 has the argument). Only flows whose rate
//! actually changed get a new completion estimate.
//!
//! The solver itself is ordered progressive filling: the flow ceilings sorted
//! once and walked by a cursor, and an indexed min-heap over link saturation
//! levels whose keys are fixed in place as flows freeze, drive the water
//! level from one freezing point to the next, so a solve costs
//! O((F + L) log(F + L)) instead of a full rescan of every flow and link per
//! round.
//!
//! Each active connection has exactly **one** live completion event in the
//! driver's queue; the [`Network`] returns [`ConnUpdate`] records telling the
//! caller (the [`crate::runner::Runner`]) to move that event
//! ([`ConnUpdate::Schedule`]) or drop it ([`ConnUpdate::Cancel`]) through the
//! cancellable [`desim::EventQueue`].
//!
//! The connection also records the two sender-side measurements Bullet′'s
//! flow controller consumes (§3.3.3): `in_front`, the number of blocks queued
//! ahead when a block was enqueued, and `wasted`, the idle gap (negative) or
//! queue-wait time (positive) associated with the block, fixed when the block
//! starts serialising.
//!
//! ## One solve per instant
//!
//! Rates only matter once virtual time passes, so a driver that changes
//! several flows at one instant may ask for one solve over all of them:
//! between [`Network::open_instant`] and [`Network::settle`], a change that
//! needs a solve only records its seed links (and, for a flow that starts a
//! block, that the flow is *forced*: it must get a `Schedule` even at an
//! unchanged rate); `settle` runs the one solve. The O(1) fast paths
//! (admission, removal, ceiling growth) still fire while nothing is
//! recorded, and are skipped once something is: their certificates assume
//! the allocation is the max-min optimum of the current flow set. Outside an open instant every mutator settles before it
//! returns, so a caller that never opens one sees each change solved on its
//! own.
//!
//! ## Example
//!
//! Two flows from one sender share its access uplink; the fluid model
//! halves their rates and re-prices both completion events:
//!
//! ```
//! use desim::SimTime;
//! use dissem_codec::BlockId;
//! use netsim::{topology, Network, NodeId};
//!
//! let mut net = Network::new(topology::constrained_access(3));
//! let t0 = SimTime::ZERO;
//! net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), 100_000);
//! let alone = net.current_rate(NodeId(0), NodeId(1)).unwrap();
//! let updates = net.queue_block(t0, NodeId(0), NodeId(2), BlockId(1), 100_000);
//! assert_eq!(updates.len(), 2, "both flows re-priced");
//! let shared = net.current_rate(NodeId(0), NodeId(1)).unwrap();
//! assert!(shared < alone);
//! ```

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use desim::{IndexedHeap, SimDuration, SimTime};
use dissem_codec::BlockId;
use rand::Rng;

use crate::topology::{LinkId, NodeId, Topology};
use crate::units::BytesPerSec;

/// A connection never stalls completely: TCP retransmits eventually, so the
/// fluid model floors every rate at one byte per second.
const MIN_RATE: BytesPerSec = 1.0;

/// Relative rate-change threshold below which a flow keeps its old rate and
/// its live completion event: re-scheduling on every last-ulp wiggle of the
/// solver would flood the event queue without changing any outcome.
const RATE_EPSILON: f64 = 1e-9;

/// Sentinel for "no link in this path slot / link not part of the component".
const NO_LINK: u32 = u32::MAX;

/// First `link_local` value that does not name a component-local link: values
/// in `BOUNDARY_BASE..NO_LINK` encode a slot of [`SolverScratch::boundary`]
/// (`BOUNDARY_BASE + slot`), so a marked link is crossed, boundary or
/// unconstrained with no per-link table besides `link_local` itself.
const BOUNDARY_BASE: u32 = 1 << 31;

/// Relative slack below capacity at which component discovery still counts a
/// link as saturated: a non-seed link is crossed only if its registered flows
/// use more than `usable * (1 - FRONTIER_MARGIN)` — before the solve, and
/// again with the solved rates. Six orders above the [`RATE_EPSILON`]
/// hysteresis and the float drift the incrementally maintained `link_usage`
/// may carry; erring towards "saturated" only enlarges the component.
const FRONTIER_MARGIN: f64 = 1e-3;

/// Relative component of the link-saturation tolerance in the solver.
const SAT_EPS_REL: f64 = 1e-12;

/// Absolute component of the link-saturation tolerance. Without it the
/// tolerance `level * (1 + SAT_EPS_REL)` degenerates to an exact-equality
/// test at `level == 0` (e.g. a link fully occupied by cross traffic), and a
/// link sitting a few ulps above zero would spin through extra solver rounds
/// handing out denormal-sized rates.
const SAT_EPS_ABS: f64 = 1e-12;

/// Information handed to the receiving protocol when a block arrives.
#[derive(Debug, Clone, Copy)]
pub struct BlockReceipt {
    /// The delivered block.
    pub block: BlockId,
    /// Size of the delivered block in bytes.
    pub bytes: u64,
    /// Number of blocks that were queued ahead of this one (including the one
    /// in the "socket buffer") when it was enqueued at the sender.
    pub in_front: u32,
    /// Sender-side wasted time in seconds: negative is idle time the sender
    /// spent with an empty queue immediately before this block was enqueued,
    /// positive is the time this block waited in the queue before service.
    pub wasted: f64,
}

/// A completion record produced by the sender side of a connection; the
/// runner turns it into a delivery event after the propagation delay.
#[derive(Debug, Clone, Copy)]
pub struct CompletedBlock {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The block that finished serialising at the sender.
    pub block: BlockId,
    /// Block size in bytes.
    pub bytes: u64,
    /// See [`BlockReceipt::in_front`].
    pub in_front: u32,
    /// See [`BlockReceipt::wasted`].
    pub wasted: f64,
}

/// Instruction for the driver to keep a connection's single completion event
/// in sync with the fluid model. Names the connection by its dense flow id,
/// so the driver indexes its event table directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConnUpdate {
    /// The in-flight block on flow `fid` now finishes at `at`: move the
    /// connection's completion event there (or create it if none is live).
    Schedule {
        /// Dense flow id of the connection in the network's flow table.
        fid: u32,
        /// Absolute time at which the in-flight block finishes serialising.
        at: SimTime,
    },
    /// Flow `fid` no longer has a block in flight: cancel its completion
    /// event.
    Cancel {
        /// Dense flow id of the connection.
        fid: u32,
    },
}

/// A block waiting in a connection's queue.
#[derive(Debug, Clone, Copy)]
struct QueuedBlock {
    block: BlockId,
    bytes: u64,
    queued_at: SimTime,
    in_front: u32,
    idle_gap: f64,
}

/// The block currently being serialised onto the wire, with the
/// [`BlockReceipt::wasted`] time fixed when it started.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    block: BlockId,
    bytes: u64,
    bytes_left: f64,
    in_front: u32,
    wasted: f64,
}

/// Per-connection queue state. The solver-facing per-flow state (current
/// rate, cached TCP ceiling, registered path) lives in the [`Network`]'s
/// dense flow table, indexed by the same flow id, so the hot solve/apply
/// loops walk flat arrays instead of chasing a `HashMap` per event.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Blocks waiting behind the in-flight one. An idle connection holds no
    /// buffer: it is dropped when the last block completes with nothing
    /// queued and when the connection closes.
    queue: VecDeque<QueuedBlock>,
    inflight: Option<InFlight>,
    /// Last instant at which the in-flight block's `bytes_left` was brought
    /// up to date.
    last_progress: SimTime,
    /// Total bytes whose transmission has completed (drives slow start).
    bytes_acked: u64,
    /// When the connection last became idle.
    idle_since: SimTime,
}

impl Connection {
    fn new(now: SimTime) -> Self {
        Connection {
            queue: VecDeque::new(),
            inflight: None,
            last_progress: now,
            bytes_acked: 0,
            idle_since: now,
        }
    }

    /// True when a block is being serialised.
    pub fn is_active(&self) -> bool {
        self.inflight.is_some()
    }

    /// Number of blocks queued or in flight on this connection.
    pub fn pending_blocks(&self) -> usize {
        self.queue.len() + usize::from(self.inflight.is_some())
    }

    /// Total bytes delivered on this connection so far.
    pub fn bytes_acked(&self) -> u64 {
        self.bytes_acked
    }
}

/// Per-node control-message accounting maintained by the emulator. Blocks
/// are counted by the runner (`blocks_sent`, `blocks_delivered`) and traced.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeTraffic {
    /// Bytes of control messages sent.
    pub control_bytes_out: u64,
    /// Bytes of control messages received.
    pub control_bytes_in: u64,
}

/// Packs an ordered node pair into one sortable key; ascending key order is
/// exactly the lexicographic `(from, to)` order the per-link membership lists
/// are kept in, which fixes the flow-discovery order of every solve.
fn pair_key(from: NodeId, to: NodeId) -> u64 {
    (u64::from(from.0) << 32) | u64::from(to.0)
}

/// Hashes an ordered node pair as its [`pair_key`] times one constant instead
/// of SipHash: `Ctx::pending_to` brings a protocol to the flow table once per
/// *receiver* per block arrival, and the keys are node ids the emulator hands
/// out itself, so nobody outside the program can aim collisions at the table.
/// A product's low half depends on the key's low half alone — the receiver —
/// so the high half is folded back in: both ids then reach the bucket index
/// (low bits) as well as the control tag (top bits).
#[derive(Debug, Clone, Copy, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the flow table hashes pairs of u32 node ids only");
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 << 32) | u64::from(id);
    }

    fn finish(&self) -> u64 {
        let product = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        product ^ (product >> 32)
    }
}

/// Inserts `(key, fid)` into a sorted membership list; a flow registers on
/// a link once per activation, so the key is absent.
fn link_insert(list: &mut Vec<(u64, u32)>, key: u64, fid: u32) {
    let found = list.binary_search_by_key(&key, |&(k, _)| k);
    debug_assert!(found.is_err(), "double activation");
    if let Err(pos) = found {
        list.insert(pos, (key, fid));
    }
}

/// Removes `key` from a sorted membership list; an idle flow deregisters
/// from the links it registered on, so the key is present.
fn link_remove(list: &mut Vec<(u64, u32)>, key: u64) {
    let found = list.binary_search_by_key(&key, |&(k, _)| k);
    debug_assert!(found.is_ok(), "idle flow was not registered on its links");
    if let Ok(pos) = found {
        list.remove(pos);
    }
}

/// Monotonic counters describing the fluid solver's work: how often each
/// O(1) certificate-preserving fast path fired versus a full component
/// re-solve, and how big the solved components got. Pure virtual-time
/// accounting (no wall-clock input), so identical runs report identical
/// stats; the runner diffs successive values to attribute solver activity
/// to individual events in trace records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Admission fast-path hits (`mark_active` without a solve).
    pub fast_admit: u64,
    /// Removal fast-path hits (`mark_idle` without a solve).
    pub fast_remove: u64,
    /// Non-binding ceiling-growth fast-path hits (block completion without
    /// a solve).
    pub fast_growth: u64,
    /// Full component re-solves (progressive-filling runs).
    pub full_solves: u64,
    /// Cumulative flows across all full solves.
    pub solved_flows: u64,
    /// Cumulative links across all full solves.
    pub solved_links: u64,
    /// Largest single component solved, in flows.
    pub max_comp_flows: u64,
    /// Largest single component solved, in links.
    pub max_comp_links: u64,
    /// Verification rounds that found a boundary link filled by the solved
    /// rates and pulled it into the component (size counters above count the
    /// final component, `full_solves` the solve, not its rounds).
    pub frontier_grows: u64,
}

/// The emulated network: topology + live connection state + traffic counters
/// + the max-min fair rate assignment over the link graph.
///
/// Flow state is a dense structure-of-arrays table indexed by flow id (a
/// `u32` handed out the first time an ordered pair exchanges data and stable
/// thereafter); the `(NodeId, NodeId)`-keyed map is consulted once at each
/// public entry point and never inside the solver. It is only ever accessed
/// by key — except by the two teardown calls, which sort what they collect
/// from it — so its layout cannot influence behaviour.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    /// Ordered pair → dense flow id (API boundary only).
    flow_ids: HashMap<(NodeId, NodeId), u32, BuildHasherDefault<PairHasher>>,
    /// Flow id → ordered pair.
    flow_pair: Vec<(NodeId, NodeId)>,
    /// Flow id → queue/progress state.
    conns: Vec<Connection>,
    /// Flow id → current service rate in bytes/second (meaningful while the
    /// flow is registered; keeps its last value across idle periods).
    flow_rate: Vec<f64>,
    /// Flow id → cached TCP ceiling. Invariant: equal to a fresh
    /// [`Network::flow_cap`] for every **registered** flow — refreshed on
    /// activation, on block completion (slow start grew), and by
    /// [`Network::reprice_paths`] / [`Network::reprice_all`] after topology
    /// mutations. The solver reads this cache instead of recomputing.
    flow_ceiling: Vec<f64>,
    /// Flow id → the solver's cached path: the links the flow registered on
    /// when it became active (meaningful while registered), read by
    /// deregistration and the solver instead of a fresh `links_on_path`
    /// lookup. A flow is registered on its path links exactly while its
    /// connection has a block in flight.
    flow_path: Vec<[LinkId; 3]>,
    /// Flow id → visit stamp for component discovery (versioned by
    /// `mark_stamp`, never cleared).
    flow_mark: Vec<u64>,
    /// Flow ids released by [`Network::release_flows_for`], available for
    /// reuse: without recycling, an open-system run that keeps admitting and
    /// retiring swarms would grow the dense flow table monotonically.
    free_fids: Vec<u32>,
    /// Flows (connections with a block in flight) crossing each link, indexed
    /// by [`LinkId`]: `(pair_key, flow_id)` sorted by key, so every solve
    /// discovers flows in the same deterministic order.
    link_flows: Vec<Vec<(u64, u32)>>,
    /// Sum of the current rates of the flows registered on each link —
    /// maintained incrementally so the admission/removal fast paths and
    /// component discovery can test saturation without a solve.
    link_usage: Vec<f64>,
    /// Background (cross-traffic) occupancy per link, in bytes/second.
    cross: Vec<BytesPerSec>,
    traffic: Vec<NodeTraffic>,
    /// Scratch per-link visit marks for component discovery, versioned by
    /// `mark_stamp` so the vector never needs clearing.
    link_mark: Vec<u64>,
    /// What each marked link is to the solve under way (valid while its mark
    /// carries the current stamp): a component-local index, a boundary slot
    /// (from [`BOUNDARY_BASE`]) or [`NO_LINK`] for an unconstrained link.
    link_local: Vec<u32>,
    mark_stamp: u64,
    /// Reusable solver buffers (cleared per solve, capacity kept), so
    /// steady-state repricing does not allocate.
    scratch: SolverScratch,
    /// Fast-path vs full-solve accounting (see [`SolverStats`]).
    solver_stats: SolverStats,
    /// The instant opened by [`Network::open_instant`] and not yet settled.
    instant: Option<SimTime>,
    /// Seed links recorded since the last solve; a link may repeat (the
    /// solve takes each once). Empty whenever no instant is open.
    pending_seeds: Vec<LinkId>,
    /// Flows recorded as forced since the last solve. An entry counts only
    /// while its `flow_forced` mark is set: a flow closed later in the
    /// instant loses the mark and is dropped.
    pending_forced: Vec<u32>,
    /// Flow id → the next solve must give it a `Schedule`.
    flow_forced: Vec<bool>,
}

/// The solver's working buffers, reused across solves.
#[derive(Debug, Clone, Default)]
struct SolverScratch {
    /// Links of the component under solve, in discovery order (= local ids).
    comp_links: Vec<LinkId>,
    /// Flow ids of the component, in discovery order.
    flows: Vec<u32>,
    /// Boundary links of the component, by slot: links a solved flow crosses
    /// that were not saturated when discovery met them, each with the sum of
    /// the rate changes the apply loop would make on it. A slot stays behind
    /// (unused) when verification pulls its link in.
    boundary: Vec<(LinkId, f64)>,
    /// Component-local link ids of each flow's path ([`NO_LINK`] = not in
    /// the fill: boundary or unconstrained).
    flow_links: Vec<[u32; 3]>,
    /// Each flow's own TCP ceiling.
    caps: Vec<f64>,
    /// Per-local-link solver state.
    links: Vec<LinkState>,
    /// Per-local-link flow adjacency (indices into `flows`).
    link_members: Vec<Vec<u32>>,
    /// The ordered-filling working set.
    fill: FillOrder,
    /// Solver outputs.
    rates: Vec<f64>,
    frozen: Vec<bool>,
}

impl Network {
    /// Wraps a topology with empty connection state.
    pub fn new(topo: Topology) -> Self {
        let n = topo.len();
        let links = topo.num_links();
        Network {
            topo,
            flow_ids: HashMap::default(),
            flow_pair: Vec::new(),
            conns: Vec::new(),
            flow_rate: Vec::new(),
            flow_ceiling: Vec::new(),
            flow_path: Vec::new(),
            flow_mark: Vec::new(),
            free_fids: Vec::new(),
            link_flows: vec![Vec::new(); links],
            link_usage: vec![0.0; links],
            cross: vec![0.0; links],
            traffic: vec![NodeTraffic::default(); n],
            link_mark: vec![0; links],
            link_local: vec![0; links],
            mark_stamp: 0,
            scratch: SolverScratch::default(),
            solver_stats: SolverStats::default(),
            instant: None,
            pending_seeds: Vec::new(),
            pending_forced: Vec::new(),
            flow_forced: Vec::new(),
        }
    }

    /// Opens the virtual instant `now`: until [`Network::settle`], changes
    /// that need a solve are recorded instead of solved (see the module
    /// doc). Returns false, and changes nothing, if an instant is already
    /// open.
    pub fn open_instant(&mut self, now: SimTime) -> bool {
        if let Some(open) = self.instant {
            debug_assert_eq!(open, now, "an instant is open at another time");
            return false;
        }
        self.instant = Some(now);
        true
    }

    /// Whether an instant is open (opened and not yet settled).
    pub fn instant_open(&self) -> bool {
        self.instant.is_some()
    }

    /// Closes the open instant with one solve over every seed and forced
    /// flow it recorded, returning that solve's completion-event updates.
    /// A no-op when the instant recorded nothing, and when none is open
    /// (outside an instant every change was solved before it returned).
    pub fn settle(&mut self, now: SimTime) -> Vec<ConnUpdate> {
        debug_assert!(
            self.instant.is_none_or(|open| open == now),
            "settled at another time than the instant opened"
        );
        self.instant = None;
        if !self.pending() {
            return Vec::new();
        }
        let mut seeds = std::mem::take(&mut self.pending_seeds);
        let mut forced = std::mem::take(&mut self.pending_forced);
        let out = self.resolve(now, &seeds, &forced);
        for &fid in &forced {
            self.flow_forced[fid as usize] = false;
        }
        seeds.clear();
        forced.clear();
        self.pending_seeds = seeds;
        self.pending_forced = forced;
        out
    }

    /// Whether a solve is owed: a change was recorded since the last one
    /// (every recorded change brings its seed links).
    fn pending(&self) -> bool {
        !self.pending_seeds.is_empty()
    }

    /// Records a change that needs a solve: its `seeds`, and `force` — a
    /// flow whose fresh in-flight block needs a `Schedule`. Inside an open
    /// instant that is all; otherwise the solve runs now.
    fn reprice(&mut self, now: SimTime, seeds: &[LinkId], force: Option<u32>) -> Vec<ConnUpdate> {
        self.pending_seeds.extend_from_slice(seeds);
        if let Some(fid) = force {
            if !std::mem::replace(&mut self.flow_forced[fid as usize], true) {
                self.pending_forced.push(fid);
            }
        }
        if self.instant.is_some() {
            return Vec::new();
        }
        self.settle(now)
    }

    /// Cumulative fluid-solver activity counters.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver_stats
    }

    /// The underlying topology (read-only).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access, used by dynamic-bandwidth scenarios. Callers
    /// must follow up with [`Network::reprice_paths`] for every affected
    /// ordered pair (or [`Network::reprice_all`] after wholesale rewrites):
    /// besides re-solving the allocation, those calls refresh the cached TCP
    /// ceilings that delay/loss edits invalidate.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Number of emulated hosts.
    pub fn len(&self) -> usize {
        self.topo.len()
    }

    /// Returns true if the network has no hosts (never for valid topologies).
    pub fn is_empty(&self) -> bool {
        self.topo.is_empty()
    }

    /// Traffic counters for `node`.
    pub fn traffic(&self, node: NodeId) -> &NodeTraffic {
        &self.traffic[node.index()]
    }

    /// Dense flow id of `from → to`, if the pair ever exchanged data.
    fn flow_id(&self, from: NodeId, to: NodeId) -> Option<u32> {
        self.flow_ids.get(&(from, to)).copied()
    }

    /// Flow id of `from → to`, creating a fresh table row if needed. Rows
    /// released by [`Network::release_flows_for`] are recycled before the
    /// table grows, so the dense arrays stay bounded by the peak number of
    /// concurrently live pairs rather than by run length.
    fn flow_id_or_create(&mut self, now: SimTime, from: NodeId, to: NodeId) -> u32 {
        if let Some(f) = self.flow_id(from, to) {
            return f;
        }
        if let Some(f) = self.free_fids.pop() {
            let i = f as usize;
            debug_assert!(!self.conns[i].is_active(), "recycled an active flow");
            self.flow_ids.insert((from, to), f);
            self.flow_pair[i] = (from, to);
            self.conns[i] = Connection::new(now);
            self.flow_rate[i] = MIN_RATE;
            self.flow_ceiling[i] = f64::INFINITY;
            self.flow_path[i] = [LinkId(0); 3];
            debug_assert!(!self.flow_forced[i], "recycled a forced flow");
            return f;
        }
        let f = self.conns.len() as u32;
        self.flow_ids.insert((from, to), f);
        self.flow_pair.push((from, to));
        self.conns.push(Connection::new(now));
        self.flow_rate.push(MIN_RATE);
        self.flow_ceiling.push(f64::INFINITY);
        self.flow_path.push([LinkId(0); 3]);
        self.flow_mark.push(0);
        self.flow_forced.push(false);
        f
    }

    /// Connection state for `from → to`, if one exists.
    pub fn connection(&self, from: NodeId, to: NodeId) -> Option<&Connection> {
        self.flow_id(from, to).map(|f| &self.conns[f as usize])
    }

    /// Current service rate estimate of `from → to` in bytes/second, if the
    /// pair ever exchanged data (keeps its last value across idle periods).
    pub fn current_rate(&self, from: NodeId, to: NodeId) -> Option<BytesPerSec> {
        self.flow_id(from, to).map(|f| self.flow_rate[f as usize])
    }

    /// Number of blocks queued + in flight from `from` to `to`.
    pub fn pending_blocks(&self, from: NodeId, to: NodeId) -> usize {
        self.connection(from, to)
            .map_or(0, Connection::pending_blocks)
    }

    /// Background cross-traffic occupancy of `link`, in bytes/second.
    pub fn cross_traffic(&self, link: LinkId) -> BytesPerSec {
        self.cross[link.index()]
    }

    /// Sets the background cross-traffic occupancy of the core link carrying
    /// `via.0 → via.1` to `rate` bytes/second and re-prices the flows the
    /// change can affect. Cross traffic is unresponsive (CBR-like): it takes
    /// `rate` off the link's usable capacity regardless of contention.
    pub fn set_cross_traffic(
        &mut self,
        now: SimTime,
        via: (NodeId, NodeId),
        rate: BytesPerSec,
    ) -> Vec<ConnUpdate> {
        let link = self.topo.core_link(via.0, via.1);
        self.cross[link.index()] = rate.max(0.0);
        self.reprice(now, &[link], None)
    }

    /// Debug-build consistency check: the incrementally maintained per-link
    /// usage sums must agree with a from-scratch recomputation over the
    /// registered flows to within float-drift tolerance. Exercised on every
    /// [`Network::reprice_all`] (which the `fairness_oracle` property test
    /// calls after every random operation).
    #[cfg(debug_assertions)]
    fn debug_check_link_tables(&self) {
        let mut rebuilt = vec![0.0; self.link_usage.len()];
        for f in 0..self.conns.len() {
            for l in self.flow_path[f] {
                if self.conns[f].is_active() && !self.unconstrained(l) {
                    rebuilt[l.index()] += self.flow_rate[f];
                }
            }
        }
        for (l, (&kept, &exact)) in self.link_usage.iter().zip(&rebuilt).enumerate() {
            assert!(
                (exact - kept).abs() <= 1e-6 * exact.abs().max(1.0),
                "link {l} usage drift: incremental {kept} vs exact {exact}"
            );
        }
    }

    /// Delivery delay for a `bytes`-sized control message from `from` to
    /// `to`, including an occasional loss-induced retransmission penalty.
    /// Control traffic is tiny next to the data flows, so it is priced off
    /// raw link capacities rather than fed through the fluid solver.
    pub fn control_delay<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        from: NodeId,
        to: NodeId,
        bytes: usize,
    ) -> SimDuration {
        debug_assert!(from != to, "control message from {from} to itself");
        let prop = self.topo.one_way_delay(from, to);
        let path = self.topo.path(from, to);
        let access = self
            .topo
            .node(from)
            .up
            .min(self.topo.node(to).down)
            .max(1.0);
        let serialisation = SimDuration::from_secs_f64(bytes as f64 / access.min(path.bw.max(1.0)));
        // A lost control packet waits for a TCP retransmission: roughly one
        // RTT plus a minimum RTO floor.
        let mut penalty = SimDuration::ZERO;
        if path.loss > 0.0 && rng.gen_bool(path.loss.min(0.5)) {
            penalty = self.topo.rtt(from, to) + SimDuration::from_millis(200);
        }
        self.traffic[from.index()].control_bytes_out += bytes as u64;
        self.traffic[to.index()].control_bytes_in += bytes as u64;
        prop + serialisation + penalty
    }

    /// One-way propagation delay used for data-block delivery after the
    /// block finishes serialising at the sender.
    pub fn data_delivery_delay(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.topo.one_way_delay(from, to)
    }

    /// Enqueues a block on the `from → to` connection, creating the
    /// connection if needed. Returns the completion-event updates caused by
    /// rate changes.
    pub fn queue_block(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        block: BlockId,
        bytes: u64,
    ) -> Vec<ConnUpdate> {
        assert!(from != to, "a node cannot stream blocks to itself");
        let fid = self.flow_id_or_create(now, from, to);
        let conn = &mut self.conns[fid as usize];
        let in_front = conn.pending_blocks() as u32;
        let idle_gap = if conn.is_active() || !conn.queue.is_empty() {
            0.0
        } else {
            (now - conn.idle_since).as_secs_f64()
        };
        conn.queue.push_back(QueuedBlock {
            block,
            bytes,
            queued_at: now,
            in_front,
            idle_gap,
        });
        if conn.is_active() {
            Vec::new()
        } else {
            self.start_next(now, fid);
            self.mark_active(now, fid)
        }
    }

    /// Pops the next queued block into the in-flight slot. The caller is
    /// responsible for activation bookkeeping and rescheduling.
    fn start_next(&mut self, now: SimTime, fid: u32) {
        let conn = &mut self.conns[fid as usize];
        debug_assert!(conn.inflight.is_none());
        if let Some(q) = conn.queue.pop_front() {
            let wasted = if q.idle_gap > 0.0 {
                -q.idle_gap
            } else {
                (now - q.queued_at).as_secs_f64()
            };
            conn.inflight = Some(InFlight {
                block: q.block,
                bytes: q.bytes,
                bytes_left: q.bytes as f64,
                in_front: q.in_front,
                wasted,
            });
            conn.last_progress = now;
        }
    }

    /// Handles the completion event for connection `from → to`. With the
    /// cancellable queue there is at most one live completion event per
    /// connection, so a firing event always refers to the current in-flight
    /// block; `None` is only returned defensively if the connection does not
    /// exist or has nothing in flight (which indicates a driver bug).
    pub fn on_block_done(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
    ) -> Option<(CompletedBlock, Vec<ConnUpdate>)> {
        let fid = self.flow_id(from, to)?;
        self.on_block_done_by_id(now, fid)
    }

    /// [`Network::on_block_done`] addressed by dense flow id — the driver's
    /// hot path, since its completion events already carry the id and the
    /// tuple-key hash lookup can be skipped entirely.
    pub fn on_block_done_by_id(
        &mut self,
        now: SimTime,
        fid: u32,
    ) -> Option<(CompletedBlock, Vec<ConnUpdate>)> {
        let f = fid as usize;
        if f >= self.conns.len() {
            return None;
        }
        let (from, to) = self.flow_pair[f];
        let conn = &mut self.conns[f];
        let fl = conn.inflight.take()?;
        conn.bytes_acked += fl.bytes;
        conn.last_progress = now;
        let completed = CompletedBlock {
            from,
            to,
            block: fl.block,
            bytes: fl.bytes,
            in_front: fl.in_front,
            wasted: fl.wasted,
        };
        let has_more = !self.conns[f].queue.is_empty();
        let updates = if has_more {
            // The connection stays active; the only solver input that moved
            // is this flow's own ceiling (slow start grew). If the ceiling
            // value is unchanged (a mature, Mathis-limited flow) or was not
            // binding anyway (link-limited flow, monotone ceiling growth),
            // the global allocation is untouched — schedule the fresh
            // in-flight block at the current rate without a solve.
            self.start_next(now, fid);
            let (old_cap, new_cap) = self.refresh_ceiling(f);
            let rate = self.flow_rate[f];
            let cap_unchanged = new_cap == old_cap;
            let cap_not_binding = new_cap >= old_cap && rate < old_cap * (1.0 - RATE_EPSILON);
            if !self.pending() && (cap_unchanged || cap_not_binding) {
                self.solver_stats.fast_growth += 1;
                vec![self.schedule(now, fid)]
            } else {
                // The ceiling moved while binding — re-solve the component,
                // which can ripple to every flow sharing a link with this one.
                let links = self.topo.links_on_path(from, to);
                self.reprice(now, &links, Some(fid))
            }
        } else {
            let conn = &mut self.conns[f];
            conn.idle_since = now;
            conn.queue = VecDeque::new();
            // The fired event was the connection's only live one, so there is
            // nothing to cancel; the freed capacity re-prices the neighbours.
            self.mark_idle(now, fid)
        };
        Some((completed, updates))
    }

    /// Closes the `from → to` connection, dropping queued and in-flight
    /// blocks. Returns a cancellation for this connection's completion event
    /// (if one was live) plus updates for the flows whose shares changed.
    pub fn close_connection(&mut self, now: SimTime, from: NodeId, to: NodeId) -> Vec<ConnUpdate> {
        let Some(fid) = self.flow_id(from, to) else {
            return Vec::new();
        };
        let conn = &mut self.conns[fid as usize];
        let was_active = conn.is_active();
        conn.queue = VecDeque::new();
        conn.inflight = None;
        if was_active {
            conn.idle_since = now;
            let mut updates = vec![ConnUpdate::Cancel { fid }];
            updates.extend(self.mark_idle(now, fid));
            updates
        } else {
            Vec::new()
        }
    }

    /// The live ordered pairs with `node` at either end, in `(from, to)`
    /// order: the flow map's own order must not reach the caller.
    fn pairs_touching(&self, node: NodeId) -> Vec<(NodeId, NodeId)> {
        let mut keys: Vec<(NodeId, NodeId)> = self
            .flow_ids
            .keys()
            .filter(|&&(a, b)| a == node || b == node)
            .copied()
            .collect();
        keys.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
        keys
    }

    /// Tears down every connection touching `node` in either direction
    /// **and releases the flow rows** back to the free list, so a node that
    /// departs (leaves, crashes or retires with its swarm) leaves no residue
    /// in the dense flow table. A released pair's next exchange gets a
    /// brand-new connection with fresh slow-start state. Returns the
    /// aggregated completion-event updates.
    pub fn release_flows_for(&mut self, now: SimTime, node: NodeId) -> Vec<ConnUpdate> {
        let mut updates = Vec::new();
        for (a, b) in self.pairs_touching(node) {
            updates.extend(self.close_connection(now, a, b));
            let fid = self
                .flow_ids
                .remove(&(a, b))
                .expect("released pair was live");
            self.free_fids.push(fid);
        }
        updates
    }

    /// Number of live (mapped) flow-table entries — released rows awaiting
    /// reuse are not counted. Service-mode leak tests assert this returns to
    /// baseline after each swarm completes.
    pub fn live_flows(&self) -> usize {
        self.flow_ids.len()
    }

    /// Current aggregate rate of the registered flows crossing `link`, in
    /// bytes/second (cross traffic not included). Combined with
    /// [`crate::topology::Topology::link_capacity`] this gives the core-link
    /// utilisation the service layer samples.
    pub fn link_load(&self, link: LinkId) -> BytesPerSec {
        self.link_usage[link.index()]
    }

    /// Re-prices the flows affected by capacity changes on the core links
    /// carrying the given ordered pairs (used after a scenario rewrites link
    /// characteristics), refreshing the pairs' cached TCP ceilings first
    /// (delay/loss edits move them; bandwidth edits do not).
    pub fn reprice_paths(&mut self, now: SimTime, pairs: &[(NodeId, NodeId)]) -> Vec<ConnUpdate> {
        for &(a, b) in pairs {
            if let Some(fid) = self.flow_id(a, b) {
                self.refresh_ceiling(fid as usize);
            }
        }
        let mut links: Vec<LinkId> = pairs
            .iter()
            .map(|&(a, b)| self.topo.core_link(a, b))
            .collect();
        links.sort_unstable();
        links.dedup();
        self.reprice(now, &links, None)
    }

    /// Recomputes the cached ceiling of flow `f` (read only while the flow is
    /// registered; activation recomputes it). Returns the old and the new
    /// ceiling.
    fn refresh_ceiling(&mut self, f: usize) -> (BytesPerSec, BytesPerSec) {
        let (a, b) = self.flow_pair[f];
        let new_cap = self.flow_cap(a, b, self.conns[f].bytes_acked);
        let old_cap = std::mem::replace(&mut self.flow_ceiling[f], new_cap);
        (old_cap, new_cap)
    }

    /// Re-solves the whole allocation from scratch, returning updates for
    /// every flow whose rate changed. With correct incremental repricing this
    /// is a no-op (the `fairness_oracle` property test asserts exactly that);
    /// it exists for callers that rewrite the topology wholesale. Every
    /// flow-bearing link is a seed, so there is no boundary: this is also
    /// the unpruned cross-check of frontier discovery.
    pub fn reprice_all(&mut self, now: SimTime) -> Vec<ConnUpdate> {
        #[cfg(debug_assertions)]
        self.debug_check_link_tables();
        for f in 0..self.conns.len() {
            if self.conns[f].is_active() {
                self.refresh_ceiling(f);
            }
        }
        let links = self.flow_bearing_links();
        self.reprice(now, &links, None)
    }

    /// Usable capacity of `link`: loss-discounted, minus cross traffic.
    fn usable(&self, link: LinkId) -> f64 {
        (self.topo.link_capacity(link) - self.cross[link.index()]).max(MIN_RATE)
    }

    /// True for links that can never constrain anyone: infinite raw capacity
    /// (the shared "core" of a [`crate::topology::uniform_swarm`],
    /// which models an uncongested backbone). Such links skip the per-link
    /// bookkeeping entirely — registering 10⁴ concurrent flows in one sorted
    /// membership list would turn activation into O(flows) — and component
    /// discovery never crosses them.
    /// Finite links never become infinite (and vice versa), so the guard is
    /// consistent between a flow's registration and its deregistration.
    fn unconstrained(&self, link: LinkId) -> bool {
        self.topo.link_capacity(link).is_infinite()
    }

    /// Registers flow `fid` as active and re-prices what its arrival can
    /// affect. Runs right after [`Network::start_next`] fills the flow's
    /// in-flight slot, so a flow is registered exactly while it has a block
    /// in flight.
    ///
    /// **Admission fast path:** if the flow's own ceiling fits inside the
    /// residual slack of every link on its path, it is admitted at the
    /// ceiling without a solve — the previous allocation plus the new
    /// ceiling-capped flow is feasible, no previously unsaturated link
    /// saturates, and every flow keeps its max-min certificate (its own
    /// ceiling, or a saturated link the newcomer does not relieve), so the
    /// extended allocation *is* the new max-min optimum. This is the common
    /// case in a dissemination mesh (fresh slow-start flows on underloaded
    /// links) and keeps steady-state activation O(1).
    fn mark_active(&mut self, now: SimTime, fid: u32) -> Vec<ConnUpdate> {
        let f = fid as usize;
        let (from, to) = self.flow_pair[f];
        let links = self.topo.links_on_path(from, to);
        let cap = self.flow_cap(from, to, self.conns[f].bytes_acked);
        let fits = !self.pending()
            && links.iter().all(|&l| {
                self.link_usage[l.index()] + cap <= self.usable(l) * (1.0 - RATE_EPSILON)
            });
        self.flow_path[f] = links;
        self.flow_ceiling[f] = cap;
        if fits {
            self.flow_rate[f] = cap.max(MIN_RATE);
        }
        // The usage invariant — `link_usage` is the rate sum of the
        // *registered* flows — must hold before the solver runs, because the
        // solver accounts rate changes as deltas against it.
        for l in links {
            if self.unconstrained(l) {
                continue;
            }
            link_insert(&mut self.link_flows[l.index()], pair_key(from, to), fid);
            self.link_usage[l.index()] += self.flow_rate[f];
        }
        if fits {
            self.solver_stats.fast_admit += 1;
            return vec![self.schedule(now, fid)];
        }
        self.reprice(now, &links, Some(fid))
    }

    /// Deregisters flow `fid` from the links it registered on and re-prices
    /// what its departure can affect. Runs right after the flow's in-flight
    /// slot is emptied. A flow still forced from earlier in the open instant
    /// loses the mark: it has no block left to schedule.
    ///
    /// **Removal fast path:** if the departing flow was pinned at its own
    /// ceiling and none of its links was saturated, no surviving flow's
    /// bottleneck certificate involved those links — removal only adds slack
    /// to links that were not binding anyone, so the remaining allocation is
    /// still the max-min optimum and no solve is needed.
    fn mark_idle(&mut self, now: SimTime, fid: u32) -> Vec<ConnUpdate> {
        let f = fid as usize;
        debug_assert!(
            !self.conns[f].is_active(),
            "idle flow has a block in flight"
        );
        self.flow_forced[f] = false;
        let links = self.flow_path[f];
        let (from, to) = self.flow_pair[f];
        let key = pair_key(from, to);
        let rate = self.flow_rate[f];
        let ceiling_capped = rate >= self.flow_ceiling[f] * (1.0 - RATE_EPSILON);
        for l in links {
            if self.unconstrained(l) {
                continue;
            }
            link_remove(&mut self.link_flows[l.index()], key);
            self.link_usage[l.index()] = (self.link_usage[l.index()] - rate).max(0.0);
        }
        let all_unsaturated = links.iter().all(|&l| {
            // Usage *before* this removal, against the current capacity.
            self.link_usage[l.index()] + rate <= self.usable(l) * (1.0 - RATE_EPSILON)
        });
        if !self.pending() && ceiling_capped && all_unsaturated {
            self.solver_stats.fast_remove += 1;
            return Vec::new();
        }
        self.reprice(now, &links, None)
    }

    /// The per-flow TCP ceiling of `from → to`: the Mathis loss limit and the
    /// slow-start window limit (the shared links themselves are constraints
    /// of the solver, not of the individual flow). Always finite — the
    /// slow-start cap is.
    fn flow_cap(&self, from: NodeId, to: NodeId, bytes_acked: u64) -> f64 {
        let path = crate::tcp::TcpPath {
            bottleneck: f64::INFINITY,
            rtt: self.topo.rtt(from, to),
            loss: self.topo.path(from, to).loss,
        };
        path.mathis_cap().min(path.slow_start_cap(bytes_acked))
    }

    /// Re-solves the max-min allocation of the component of the flow–link
    /// graph that a change on the `seeds` links can reach (see
    /// [`Network::solve_component`]), and converts the rate changes into
    /// completion-event updates. `forced` lists flows that must receive a
    /// `Schedule` even if their rate is unchanged (a freshly started
    /// in-flight block has no live event yet); an entry counts only while
    /// its `flow_forced` mark is set.
    fn resolve(&mut self, now: SimTime, seeds: &[LinkId], forced: &[u32]) -> Vec<ConnUpdate> {
        debug_assert_eq!(
            self.link_flows.len(),
            self.topo.num_links(),
            "the topology gained links after Network::new"
        );
        let grows = self.solve_component(seeds, forced);
        if self.scratch.flows.is_empty() {
            return Vec::new();
        }
        #[cfg(debug_assertions)]
        self.check_solve_against_unpruned();
        let s = std::mem::take(&mut self.scratch);
        let st = &mut self.solver_stats;
        st.full_solves += 1;
        st.frontier_grows += grows;
        st.solved_flows += s.flows.len() as u64;
        st.solved_links += s.comp_links.len() as u64;
        st.max_comp_flows = st.max_comp_flows.max(s.flows.len() as u64);
        st.max_comp_links = st.max_comp_links.max(s.comp_links.len() as u64);

        // ---- Apply: account progress and emit updates for changed flows.
        let mut out = Vec::new();
        for (&fid, &solved) in s.flows.iter().zip(&s.rates) {
            let f = fid as usize;
            let old_rate = self.flow_rate[f];
            let Some(new_rate) = applied_rate(old_rate, solved, self.flow_forced[f]) else {
                continue;
            };
            let conn = &mut self.conns[f];
            let fl = conn.inflight.as_mut().expect("active flow has inflight");
            let elapsed = (now - conn.last_progress).as_secs_f64();
            fl.bytes_left = (fl.bytes_left - elapsed * old_rate).max(0.0);
            conn.last_progress = now;
            self.flow_rate[f] = new_rate;
            for l in self.flow_path[f] {
                if self.unconstrained(l) {
                    continue;
                }
                self.link_usage[l.index()] =
                    (self.link_usage[l.index()] + new_rate - old_rate).max(0.0);
            }
            out.push(self.schedule(now, fid));
        }
        self.scratch = s;
        out
    }

    /// The `Schedule` that ends flow `fid`'s in-flight block (progress
    /// accounted up to `now`) at the flow's current rate.
    fn schedule(&self, now: SimTime, fid: u32) -> ConnUpdate {
        let f = fid as usize;
        let fl = self.conns[f].inflight.as_ref().expect("active flow");
        let at = now + SimDuration::from_secs_f64(fl.bytes_left / self.flow_rate[f]);
        ConnUpdate::Schedule { fid, at }
    }

    /// Finds and solves the component a change on the `seeds` links can reach,
    /// leaving its flows and their max-min rates in `self.scratch` (`flows`,
    /// `rates`; nothing is applied). Returns the number of verification
    /// rounds that grew the component.
    ///
    /// Discovery is a BFS over the flow–link bipartite graph. Seeds are
    /// always taken (their constraint just changed); any other link is
    /// crossed only if it is saturated now ([`FRONTIER_MARGIN`]). A link that
    /// is not becomes a *boundary* link: the fill ignores it, and the flows
    /// behind it are not solved. After the fill, the rate changes the apply
    /// loop would make are summed per boundary link; a link they fill joins
    /// the component, the same BFS continues from it (marks, links and flows
    /// found so far persist) and the fill is redone. Each round adds a link,
    /// so the loop ends, with every boundary link below the threshold.
    fn solve_component(&mut self, seeds: &[LinkId], forced: &[u32]) -> u64 {
        self.mark_stamp += 1;
        let stamp = self.mark_stamp;
        let mut s = std::mem::take(&mut self.scratch);
        s.comp_links.clear();
        s.flows.clear();
        s.boundary.clear();
        for &l in seeds {
            if self.link_mark[l.index()] != stamp {
                self.link_mark[l.index()] = stamp;
                // An unconstrained link has no membership list and exerts no
                // constraint: flow paths skip it, and it seeds nothing.
                if self.unconstrained(l) {
                    self.link_local[l.index()] = NO_LINK;
                    continue;
                }
                self.link_local[l.index()] = s.comp_links.len() as u32;
                s.comp_links.push(l);
            }
        }
        let mut qi = 0;
        let mut grows = 0;
        loop {
            while qi < s.comp_links.len() {
                let l = s.comp_links[qi];
                qi += 1;
                for &(_, fid) in &self.link_flows[l.index()] {
                    let f = fid as usize;
                    if self.flow_mark[f] == stamp {
                        continue;
                    }
                    self.flow_mark[f] = stamp;
                    s.flows.push(fid);
                    for nl in self.flow_path[f] {
                        let ni = nl.index();
                        if self.link_mark[ni] == stamp {
                            continue;
                        }
                        self.link_mark[ni] = stamp;
                        if self.link_usage[ni] > self.usable(nl) * (1.0 - FRONTIER_MARGIN) {
                            self.link_local[ni] = s.comp_links.len() as u32;
                            s.comp_links.push(nl);
                        } else {
                            self.link_local[ni] = BOUNDARY_BASE + s.boundary.len() as u32;
                            s.boundary.push((nl, 0.0));
                        }
                    }
                }
            }
            // A forced flow must always be solved (it needs a fresh Schedule
            // even at an unchanged rate). It is normally discovered through
            // its access links; this guard only matters if every link on its
            // path is unconstrained, where it trivially runs at its own
            // ceiling.
            for &fid in forced {
                let f = fid as usize;
                if self.flow_forced[f] && self.flow_mark[f] != stamp {
                    self.flow_mark[f] = stamp;
                    s.flows.push(fid);
                }
            }
            if s.flows.is_empty() {
                break;
            }

            // ---- Solver inputs: local link states, adjacency, cached ceilings.
            s.links.clear();
            if s.link_members.len() < s.comp_links.len() {
                s.link_members.resize_with(s.comp_links.len(), Vec::new);
            }
            for (li, &l) in s.comp_links.iter().enumerate() {
                s.links.push(LinkState {
                    capacity: self.usable(l),
                    unfrozen: 0,
                    frozen_usage: 0.0,
                });
                s.link_members[li].clear();
            }
            s.flow_links.clear();
            s.caps.clear();
            for (i, &fid) in s.flows.iter().enumerate() {
                let f = fid as usize;
                let mut ls = [NO_LINK; 3];
                for (slot, l) in self.flow_path[f].into_iter().enumerate() {
                    let local = self.link_local[l.index()];
                    if local < BOUNDARY_BASE {
                        s.links[local as usize].unfrozen += 1;
                        s.link_members[local as usize].push(i as u32);
                        ls[slot] = local;
                    }
                }
                s.flow_links.push(ls);
                s.caps.push(self.flow_ceiling[f]);
            }
            max_min_rates(
                &s.caps,
                &s.flow_links,
                &mut s.links,
                &s.link_members,
                &mut s.fill,
                &mut s.rates,
                &mut s.frozen,
            );

            // ---- Verify: no boundary link may end up saturated. Only a link
            // whose usage rises can cross the threshold it was under.
            for (&fid, &solved) in s.flows.iter().zip(&s.rates) {
                let f = fid as usize;
                let old_rate = self.flow_rate[f];
                let Some(new_rate) = applied_rate(old_rate, solved, self.flow_forced[f]) else {
                    continue;
                };
                for l in self.flow_path[f] {
                    let local = self.link_local[l.index()];
                    if (BOUNDARY_BASE..NO_LINK).contains(&local) {
                        s.boundary[(local - BOUNDARY_BASE) as usize].1 += new_rate - old_rate;
                    }
                }
            }
            let verified = s.comp_links.len();
            for &(l, delta) in &s.boundary {
                let filled = self.link_usage[l.index()] + delta;
                if delta > 0.0 && filled > self.usable(l) * (1.0 - FRONTIER_MARGIN) {
                    // Its slot stays behind unused: no path names it any more.
                    self.link_local[l.index()] = s.comp_links.len() as u32;
                    s.comp_links.push(l);
                }
            }
            if s.comp_links.len() == verified {
                break;
            }
            grows += 1;
            s.boundary.iter_mut().for_each(|b| b.1 = 0.0);
        }
        self.scratch = s;
        grows
    }

    /// Every link with a registered flow: the seeds of a from-scratch solve,
    /// which therefore has no boundary.
    fn flow_bearing_links(&self) -> Vec<LinkId> {
        (0..self.link_flows.len() as u32)
            .map(LinkId)
            .filter(|l| !self.link_flows[l.index()].is_empty())
            .collect()
    }

    /// Proves the solve `self.scratch` holds against the unpruned one: solves
    /// the whole network (every flow-bearing link a seed) and asserts that
    /// every flow of the frontier solve got the same rate and that no other
    /// registered flow would change rate. Debug builds run it on every solve
    /// — so the debug test suite cross-checks every solve of every run —
    /// release builds never; tests call it directly.
    ///
    /// "The same rate" is the same bits, with one exception the fill itself
    /// makes: it sweeps links whose saturation levels lie within its tie
    /// tolerance ([`SAT_EPS_REL`], [`SAT_EPS_ABS`]) in one round, at the lower
    /// level, so a link inside the frontier that ties with one outside it
    /// can be priced an ulp apart by the two solves (`C/3` against
    /// `(C − C/3)/2` on equal-capacity access links). Returns how many
    /// solved flows differ that way.
    #[cfg(any(test, debug_assertions))]
    fn check_solve_against_unpruned(&mut self) -> usize {
        let frontier = std::mem::take(&mut self.scratch);
        self.solve_component(&self.flow_bearing_links(), &[]);
        let unpruned = std::mem::replace(&mut self.scratch, frontier);
        let mut solved = vec![f64::NAN; self.conns.len()];
        for (&fid, &rate) in self.scratch.flows.iter().zip(&self.scratch.rates) {
            solved[fid as usize] = rate;
        }
        let mut ties = 0;
        for (&fid, &whole) in unpruned.flows.iter().zip(&unpruned.rates) {
            let (rate, held) = (solved[fid as usize], self.flow_rate[fid as usize]);
            if rate.is_nan() {
                let moves = applied_rate(held, whole, false).is_some();
                assert!(
                    !moves,
                    "outside flow {fid} holds {held}, unpruned solve {whole}"
                );
            } else if rate.to_bits() != whole.to_bits() {
                ties += 1;
                let tie = rate.min(whole) * SAT_EPS_REL + SAT_EPS_ABS;
                assert!(
                    (rate - whole).abs() <= tie,
                    "flow {fid}: solved {rate}, unpruned {whole}"
                );
            }
        }
        ties
    }
}

/// The rate the apply loop gives a flow that holds `old` and was solved at
/// `solved` — `None` if it keeps `old`: the change is within the
/// [`RATE_EPSILON`] hysteresis and the flow is not `forced`.
fn applied_rate(old: f64, solved: f64, forced: bool) -> Option<f64> {
    let new = solved.max(MIN_RATE);
    ((new - old).abs() > old * RATE_EPSILON || forced).then_some(new)
}

/// Working state of one link during progressive filling.
#[derive(Debug, Clone)]
struct LinkState {
    /// Usable capacity (loss-discounted, minus cross traffic).
    capacity: f64,
    /// Number of not-yet-frozen flows crossing the link.
    unfrozen: u32,
    /// Capacity consumed by flows already frozen on this link.
    frozen_usage: f64,
}

impl LinkState {
    /// The water level at which this link saturates given its current frozen
    /// usage: `frozen_usage + unfrozen * level == capacity`.
    fn saturation_level(&self) -> f64 {
        debug_assert!(self.unfrozen > 0);
        (self.capacity - self.frozen_usage) / f64::from(self.unfrozen)
    }
}

/// A link's saturation level as a heap key: the level's bits remapped so
/// that integer order is [`f64::total_cmp`]'s (the remapping is the one
/// `total_cmp` applies, and its own inverse). With the link as the heap's
/// tie-break, `(level, link)` is a total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Level(i64);

impl Level {
    fn new(level: f64) -> Self {
        Level(Self::remap(level.to_bits() as i64))
    }

    fn get(self) -> f64 {
        f64::from_bits(Self::remap(self.0) as u64)
    }

    /// Flips every bit but the sign of a negative value's bits, so that more
    /// negative floats become smaller integers.
    fn remap(bits: i64) -> i64 {
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }
}

/// The ordered-filling working set, reused across solves.
#[derive(Debug, Clone, Default)]
struct FillOrder {
    /// `(ceiling, flow)` sorted ascending; the solver walks it with a cursor.
    ceilings: Vec<(f64, u32)>,
    /// Links that still have unfrozen flows, by `(saturation level, link)`.
    sat: IndexedHeap<Level>,
    /// Ceiling freezes of the current round, sorted ascending by flow index
    /// before freezing so the per-link `frozen_usage` sums accumulate in the
    /// same order as the historical full-rescan solver (bit-identical rates).
    cand: Vec<u32>,
}

/// Progressive filling: raises one common water level over all flows; a flow
/// freezes at its own ceiling (`caps`) or at the level where a link on its
/// path saturates. Writes the max-min fair rate of each flow into `rates`
/// (reused caller buffers; `link_members` lists each link's flows, and a
/// [`NO_LINK`] slot in `flow_links` is ignored — it names a boundary or
/// unconstrained link, which the caller knows not to saturate).
///
/// Instead of rescanning every flow and link per round, two ordered
/// structures give the next stopping point. Ceilings never change during a
/// solve, so they are sorted once and walked by a cursor that steps over
/// flows a link froze first. Saturation levels do change — but only for the
/// links of the flow being frozen — so they live in an [`IndexedHeap`] keyed
/// by [`Level`], whose key is fixed in place on every freeze and removed
/// when the link's last flow freezes. Within a round, ceiling freezes happen
/// in ascending flow order, links saturate in ascending `(level, link)` order
/// and saturation freezes all hand out the identical `level`, so the
/// floating-point accumulation into `frozen_usage` replays the historical
/// full-rescan order exactly: rates are bit-identical, in
/// O((flows + links) log(flows + links)) per solve.
///
/// A link counts as saturated when its level is within a combined
/// absolute+relative tolerance of the water level
/// (`level * (1 + SAT_EPS_REL) + SAT_EPS_ABS`): the absolute term keeps the
/// test meaningful at `level == 0`, where a purely relative tolerance
/// degenerates to exact equality (see [`SAT_EPS_ABS`]).
fn max_min_rates(
    caps: &[f64],
    flow_links: &[[u32; 3]],
    links: &mut [LinkState],
    link_members: &[Vec<u32>],
    fill: &mut FillOrder,
    rates: &mut Vec<f64>,
    frozen: &mut Vec<bool>,
) {
    let n = caps.len();
    rates.clear();
    rates.resize(n, 0.0);
    frozen.clear();
    frozen.resize(n, false);
    let FillOrder {
        ceilings,
        sat,
        cand,
    } = fill;
    ceilings.clear();
    ceilings.extend(caps.iter().enumerate().map(|(i, &c)| (c, i as u32)));
    ceilings.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    sat.rebuild(
        links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.unfrozen > 0)
            .map(|(li, l)| (li as u32, Level::new(l.saturation_level()))),
    );
    let mut cursor = 0;
    let mut remaining = n;
    let mut level = 0.0f64;

    // Freezing helper as a closure is blocked by borrow rules; a macro keeps
    // the link bookkeeping (including heap maintenance) in one place. A link
    // absent from the heap is the one whose saturation is being swept.
    macro_rules! freeze {
        ($i:expr, $rate:expr) => {{
            let i: usize = $i;
            let r: f64 = $rate;
            rates[i] = r;
            frozen[i] = true;
            remaining -= 1;
            for &li in &flow_links[i] {
                if li == NO_LINK {
                    continue;
                }
                let l = &mut links[li as usize];
                l.unfrozen -= 1;
                l.frozen_usage += r;
                if !sat.contains(li) {
                    continue;
                }
                if l.unfrozen > 0 {
                    sat.set_key(li, Level::new(l.saturation_level()));
                } else {
                    sat.remove(li);
                }
            }
        }};
    }

    while remaining > 0 {
        // The next stopping point: the lowest unfrozen flow ceiling or link
        // saturation level at or above the current water level.
        while cursor < n && frozen[ceilings[cursor].1 as usize] {
            cursor += 1;
        }
        let mut next = f64::INFINITY;
        if cursor < n {
            next = next.min(ceilings[cursor].0);
        }
        if let Some((sl, _)) = sat.peek() {
            next = next.min(sl.get());
        }
        level = next.max(level);
        let mut any = false;

        // Flows that hit their own ceiling freeze at the ceiling, in
        // ascending flow order (see `FillOrder::cand`).
        cand.clear();
        while cursor < n {
            let (cap, flow) = ceilings[cursor];
            if cap > level {
                break;
            }
            cursor += 1;
            if !frozen[flow as usize] {
                cand.push(flow);
            }
        }
        cand.sort_unstable();
        for &fi in cand.iter() {
            freeze!(fi as usize, caps[fi as usize]);
            any = true;
        }

        // Links that saturate at (or, through floating-point drift, just
        // below) the level freeze their remaining flows at the level. One
        // saturation can lower another link's level; the freeze above already
        // fixed those keys, so sweeping until the heap's minimum clears the
        // tolerance takes the cascade to fixpoint.
        let thr = level * (1.0 + SAT_EPS_REL) + SAT_EPS_ABS;
        while let Some((sl, li)) = sat.peek() {
            if sl.get() > thr {
                break;
            }
            sat.pop();
            for &fi in &link_members[li as usize] {
                let i = fi as usize;
                if !frozen[i] {
                    freeze!(i, level);
                }
            }
            any = true;
        }
        if !any {
            // Unreachable by construction (the level was chosen as an
            // achieved minimum), but guarantees termination outright.
            for i in 0..n {
                if !frozen[i] {
                    freeze!(i, level);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
