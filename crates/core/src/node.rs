//! The Bullet′ node: the protocol state machine run on every participant.
//!
//! One [`BulletPrimeNode`] instance exists per emulated host. The source
//! (tree root) pushes each block once, round-robin over its control-tree
//! children, skipping children whose pipe is full (§3.3.5); every node —
//! source included — serves explicit block requests in FIFO order; receivers
//! discover candidate senders through RanSub, maintain an adaptive peer set
//! (§3.3.1), keep each sender's pipe full with the XCP-style outstanding
//! controller (§3.3.3), order their requests with the configured strategy
//! (§3.3.2) and stay up to date through incremental diffs (§3.3.4).

use std::collections::{BTreeSet, VecDeque};

use desim::SimTime;
use dissem_codec::{BlockBitmap, BlockId};
use netsim::{BlockReceipt, Ctx, NodeId, ProbeStats, Protocol};
use overlay::{ControlTree, NodeSummary, RanSubAgent, RanSubEmit, Sample};

use crate::config::{self, Config};
use crate::messages::Msg;
use crate::peer_map::PeerMap;
use crate::peering::{PeerManager, PeerObservation};
use crate::request::RequestManager;

/// Bullet′'s timer vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// Start a new RanSub epoch.
    RanSub,
    /// Housekeeping: stale-request release, request refresh, idle-diff flush.
    Housekeeping,
}

/// Whether this node is the origin of the file or a downloader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The single node that initially holds the file.
    Source,
    /// A downloading participant.
    Receiver,
}

/// Sender-side state about one of our receivers.
#[derive(Debug, Clone)]
struct ReceiverState {
    /// How many of the node's arrivals this receiver has been offered: the
    /// arrivals from absolute index `flushed` on are what its next diff is
    /// drawn from.
    flushed: usize,
    /// Bytes whose transmission to this receiver completed since last epoch.
    bytes_since_epoch: u64,
    /// The receiver's self-reported total incoming bandwidth (bytes/second).
    their_incoming_bw: f64,
}

impl ReceiverState {
    fn new(flushed: usize) -> Self {
        ReceiverState {
            flushed,
            bytes_since_epoch: 0,
            their_incoming_bw: 0.0,
        }
    }
}

/// The blocks a diff may still announce (§3.3.4): every block that arrived
/// and was not a duplicate, in arrival order, from the first one some
/// receiver has not been offered. Indices are absolute — `start` is the
/// arrival index of the front entry — so a receiver's `flushed` cursor stays
/// valid when the front is dropped. The log holds O(unflushed) entries, not
/// one per block of the file.
#[derive(Debug, Clone, Default)]
struct ArrivalLog {
    window: VecDeque<BlockId>,
    start: usize,
}

impl ArrivalLog {
    /// One past the arrival index of the latest block.
    fn end(&self) -> usize {
        self.start + self.window.len()
    }

    fn push(&mut self, block: BlockId) {
        self.window.push_back(block);
    }

    /// The arrivals from absolute index `from` (at least `start`) on.
    fn since(&self, from: usize) -> impl Iterator<Item = BlockId> + '_ {
        self.window.range(from - self.start..).copied()
    }

    /// Drops the arrivals before absolute index `offered` (between `start`
    /// and `end()`).
    fn drop_before(&mut self, offered: usize) {
        self.window.drain(..offered - self.start);
        self.start = offered;
    }
}

/// Source-only state: the non-duplicating round-robin push (§3.3.5).
#[derive(Debug, Clone)]
struct SourceState {
    next_block: u32,
    rr_cursor: usize,
}

/// A Bullet′ participant.
#[derive(Debug, Clone)]
pub struct BulletPrimeNode {
    id: NodeId,
    cfg: Config,
    /// The control-tree root (= the source), the rendezvous every node knows;
    /// orphans reattach here when their tree parent fails.
    root: NodeId,
    /// The RanSub agent; its tree children are also the source's push
    /// targets, in round-robin order.
    ransub: RanSubAgent,
    have: BlockBitmap,
    /// The arrivals some receiver has not been offered yet.
    arrivals: ArrivalLog,
    completion_target: u32,
    block_space: u32,

    receivers: PeerMap<ReceiverState>,
    pending_peer_requests: BTreeSet<NodeId>,
    /// The senders, one record each: what they offer, what is outstanding
    /// to them and their windows and rates.
    requester: RequestManager,
    peer_mgr: PeerManager,
    source: Option<SourceState>,

    /// Epoch bookkeeping for bandwidth observations.
    epoch_started_at: SimTime,
    /// Block counters of [`Protocol::probe_stats`]; the peer counts are
    /// filled in there.
    stats: ProbeStats,
}

impl BulletPrimeNode {
    /// Creates the node running on `id`, given the shared control tree.
    /// Node 0 (the tree root) is the source.
    pub fn new(id: NodeId, tree: &ControlTree, cfg: Config) -> Self {
        let block_space = cfg.block_space();
        let is_source = id == tree.root();
        let have = if is_source {
            BlockBitmap::full(block_space)
        } else {
            BlockBitmap::new(block_space)
        };
        let source = is_source.then_some(SourceState {
            next_block: 0,
            rr_cursor: 0,
        });
        BulletPrimeNode {
            id,
            root: tree.root(),
            ransub: RanSubAgent::new(id, tree, cfg.ransub_subset_size),
            have,
            arrivals: ArrivalLog::default(),
            completion_target: cfg.completion_target(),
            block_space,
            receivers: PeerMap::new(),
            pending_peer_requests: BTreeSet::new(),
            requester: RequestManager::new(
                cfg.request_strategy,
                cfg.outstanding_policy,
                block_space,
            ),
            peer_mgr: PeerManager::new(cfg.peer_policy),
            source,
            epoch_started_at: SimTime::ZERO,
            cfg,
            stats: ProbeStats::default(),
        }
    }

    /// This node's role: the tree root is the source.
    pub fn role(&self) -> Role {
        if self.id == self.root {
            Role::Source
        } else {
            Role::Receiver
        }
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of distinct blocks currently held.
    pub fn blocks_held(&self) -> u32 {
        self.have.count()
    }

    /// True for the source from the start: it holds every block.
    fn is_download_complete(&self) -> bool {
        self.have.count() >= self.completion_target
    }

    // ------------------------------------------------------------------
    // Source push (§3.3.5).
    // ------------------------------------------------------------------

    fn source_push(&mut self, ctx: &mut Ctx<'_, Self>) {
        let Some(src) = self.source.as_mut() else {
            return;
        };
        let children = self.ransub.children();
        if children.is_empty() || src.next_block >= self.block_space {
            return;
        }
        // Blocks queued by this call, per position in `children`:
        // `Ctx::pending_to` does not see them until the handler returns.
        let mut queued_now = vec![0usize; children.len()];
        'outer: while src.next_block < self.block_space {
            // Find a child whose pipe has room, starting from the round-robin
            // cursor so every child gets an equal share of distinct blocks.
            for probe in 0..children.len() {
                let position = (src.rr_cursor + probe) % children.len();
                let child = children[position];
                // A child that has not joined (or is gone) would swallow the
                // whole stream through its forever-empty pipe.
                if !ctx.peer_active(child) {
                    continue;
                }
                let pending = ctx.pending_to(child) + queued_now[position];
                if pending < config::SOURCE_PIPE_BLOCKS {
                    let block = BlockId(src.next_block);
                    let bytes = u64::from(self.cfg.file.encoded_block_size(block));
                    ctx.queue_block(child, block, bytes);
                    queued_now[position] += 1;
                    src.next_block += 1;
                    src.rr_cursor = (position + 1) % children.len();
                    continue 'outer;
                }
            }
            // Every child's pipe is full; resume when a block completes.
            break;
        }
    }

    // ------------------------------------------------------------------
    // RanSub plumbing.
    // ------------------------------------------------------------------

    fn own_summary(&self) -> NodeSummary {
        NodeSummary {
            node: self.id.0,
            have_count: self.have.count(),
            has_everything: self.have.is_full(),
        }
    }

    fn emit_ransub(&mut self, ctx: &mut Ctx<'_, Self>, emits: Vec<RanSubEmit>) {
        for emit in emits {
            match emit {
                RanSubEmit::CollectToParent {
                    parent,
                    sample,
                    epoch,
                } => {
                    ctx.send(parent, Msg::RansubCollect { sample, epoch });
                }
                RanSubEmit::DistributeToChild {
                    child,
                    sample,
                    epoch,
                } => {
                    ctx.send(child, Msg::RansubDistribute { sample, epoch });
                }
                RanSubEmit::Deliver { sample, .. } => {
                    self.handle_epoch(ctx, sample);
                }
            }
        }
    }

    /// Reacts to the arrival of this epoch's random subset: run the peering
    /// strategy, enact its decisions, and try to fill open sender slots with
    /// candidates from the subset (§3.3.1).
    fn handle_epoch(&mut self, ctx: &mut Ctx<'_, Self>, sample: Sample) {
        let now = ctx.now();
        let elapsed = (now - self.epoch_started_at).as_secs_f64().max(1e-3);
        self.epoch_started_at = now;

        // The epoch's observations; its counters start again from zero.
        let sender_obs = self.requester.end_epoch(elapsed);
        let receiver_obs: Vec<PeerObservation> = self
            .receivers
            .iter_mut()
            .map(|(peer, r)| PeerObservation {
                peer,
                bandwidth: std::mem::take(&mut r.bytes_since_epoch) as f64 / elapsed,
                their_total_incoming: Some(r.their_incoming_bw),
            })
            .collect();

        let decision = self.peer_mgr.on_epoch(&sender_obs, &receiver_obs);

        for peer in decision.drop_senders {
            self.drop_sender(ctx, peer, true);
        }
        for peer in decision.drop_receivers {
            self.drop_receiver(ctx, peer, true);
        }

        // Try to acquire new senders from the delivered subset.
        if !self.is_download_complete() {
            let mut candidates: Vec<&NodeSummary> = sample
                .entries
                .iter()
                .filter(|e| {
                    e.node != self.id.0
                        && ctx.peer_active(e.node_id())
                        && !self.requester.is_sender(e.node_id())
                        && !self.pending_peer_requests.contains(&e.node_id())
                        && (e.has_everything || e.have_count > 0)
                })
                .collect();
            // Prefer peers with the most data to offer. The sort is stable and
            // there is no random tie-break: equal counts keep the subset's
            // order, so nodes that drew overlapping subsets ask the same
            // best-stocked peers and most of them are turned away
            // (ROADMAP.md, item 2: the PeerRequest stampede).
            candidates.sort_by_key(|e| std::cmp::Reverse(e.have_count));
            for e in candidates.into_iter().take(decision.sender_slots) {
                let peer = e.node_id();
                self.pending_peer_requests.insert(peer);
                ctx.send(
                    peer,
                    Msg::PeerRequest {
                        have_count: self.have.count(),
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Peering maintenance.
    // ------------------------------------------------------------------

    /// Removes `child` from the tree links, and so from the push rotation,
    /// emitting whatever the unblocked collect wave produces.
    fn drop_tree_child(&mut self, ctx: &mut Ctx<'_, Self>, child: NodeId) {
        let emits = {
            let rng = ctx.rng();
            self.ransub.on_child_failed(child, rng)
        };
        self.emit_ransub(ctx, emits);
    }

    fn drop_sender(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId, notify: bool) {
        if self.requester.remove_sender(peer) && notify {
            ctx.send(peer, Msg::PeerClose);
        }
    }

    fn drop_receiver(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId, notify: bool) {
        if self.receivers.remove(peer).is_some() {
            self.trim_arrivals();
            ctx.close_connection(peer);
            if notify {
                ctx.send(peer, Msg::PeerClose);
            }
        }
    }

    fn accept_receiver(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        self.receivers
            .get_or_insert_with(peer, || ReceiverState::new(self.arrivals.end()));
        let available = self.have.clone();
        ctx.send(peer, Msg::PeerAccept { available });
    }

    fn add_sender(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId, available: &BlockBitmap) {
        self.pending_peer_requests.remove(&peer);
        if self
            .requester
            .add_sender(peer, available.iter(), &self.have)
        {
            self.issue_requests(ctx, peer);
        }
    }

    // ------------------------------------------------------------------
    // Requesting (§3.3.2 + §3.3.3).
    // ------------------------------------------------------------------

    fn issue_requests(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        if self.is_download_complete() {
            return;
        }
        let now = ctx.now();
        if let Some(msg) = self
            .requester
            .next_request(peer, &self.have, now, ctx.rng())
        {
            ctx.send(peer, msg);
        }
    }

    // ------------------------------------------------------------------
    // Diffs (§3.3.4).
    // ------------------------------------------------------------------

    /// Sends `peer` the blocks that arrived since its last diff. The one
    /// diff emitter: block arrival, `DiffRequest` and housekeeping all end
    /// here.
    ///
    /// Each block is logged once, when it first arrives, and a receiver's
    /// cursor starts at the end of the log when its `PeerAccept` lists every
    /// block held, so no block reaches a receiver twice (§3.3.4).
    fn flush_diff(
        ctx: &mut Ctx<'_, Self>,
        peer: NodeId,
        arrivals: &ArrivalLog,
        r: &mut ReceiverState,
    ) {
        let blocks: Vec<BlockId> = arrivals.since(r.flushed).collect();
        r.flushed = arrivals.end();
        if !blocks.is_empty() {
            ctx.send(peer, Msg::Diff { blocks });
        }
    }

    /// Logs a new block for the receivers' next diffs and flushes them to
    /// receivers whose request pipeline from us is empty (self-clocking
    /// diffs).
    fn propagate_availability(&mut self, ctx: &mut Ctx<'_, Self>, block: BlockId) {
        self.arrivals.push(block);
        if !self.cfg.lazy_diffs {
            for (peer, r) in self.receivers.iter_mut() {
                if ctx.pending_to(peer) == 0 {
                    Self::flush_diff(ctx, peer, &self.arrivals, r);
                }
            }
        }
        self.trim_arrivals();
    }

    /// Drops the arrivals every receiver has been offered: no diff reads
    /// them again. Runs after every flush and every dropped receiver.
    fn trim_arrivals(&mut self) {
        let offered = self.receivers.values().map(|r| r.flushed).min();
        self.arrivals
            .drop_before(offered.unwrap_or(self.arrivals.end()));
    }
}

impl Protocol for BulletPrimeNode {
    type Msg = Msg;
    type Timer = Timer;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.epoch_started_at = ctx.now();
        ctx.set_timer(config::RANSUB_PERIOD, Timer::RanSub);
        ctx.set_timer(self.cfg.housekeeping_period(), Timer::Housekeeping);
        // A node initialised after t = 0 is a late joiner: its
        // construction-time tree children have long since registered with
        // whoever was present while it was absent (ultimately the root), so
        // keeping them would block every collect wave through this node on
        // reports that now flow elsewhere. Start childless; actual children
        // (re)appear through TreeAttach.
        if ctx.now() > SimTime::ZERO {
            self.ransub.clear_children();
        }
        // Register with the tree parent. For nodes present from t = 0 this
        // is an idempotent no-op at the parent; for late joiners it re-adds
        // us to a parent that pruned us while we were absent. If the parent
        // itself departed while we were absent (its failure notification
        // never reached us), reattach at the root instead — departed nodes
        // never come back.
        if let Some(parent) = self.ransub.parent() {
            let target = if ctx.peer_active(parent) {
                parent
            } else {
                self.root
            };
            self.ransub.set_parent(Some(target));
            ctx.send(target, Msg::TreeAttach);
        }
        self.source_push(ctx);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Msg) {
        match msg {
            Msg::RansubCollect { sample, epoch } => {
                let emits = {
                    let rng = ctx.rng();
                    self.ransub.on_collect(from, sample, epoch, rng)
                };
                self.emit_ransub(ctx, emits);
            }
            Msg::RansubDistribute { sample, epoch } => {
                let emits = {
                    let rng = ctx.rng();
                    self.ransub.on_distribute(sample, epoch, rng)
                };
                self.emit_ransub(ctx, emits);
            }
            Msg::PeerRequest { .. } => {
                if self.receivers.len() < self.peer_mgr.max_receivers()
                    && !self.receivers.contains_key(from)
                {
                    self.accept_receiver(ctx, from);
                } else {
                    ctx.send(from, Msg::PeerReject);
                }
            }
            Msg::PeerAccept { available } => {
                self.add_sender(ctx, from, &available);
            }
            Msg::PeerReject => {
                self.pending_peer_requests.remove(&from);
            }
            Msg::PeerClose => {
                // The peer tears down whichever relationship exists.
                self.drop_sender(ctx, from, false);
                self.drop_receiver(ctx, from, false);
            }
            Msg::TreeAttach => {
                // An orphaned node rejoins the tree here (only the root
                // receives these). It becomes a push target and a RanSub
                // child from the next epoch on.
                self.ransub.add_child(from);
            }
            Msg::Diff { blocks } => {
                if self.requester.on_advertised(from, blocks, &self.have) {
                    self.issue_requests(ctx, from);
                }
            }
            Msg::DiffRequest => {
                if let Some(r) = self.receivers.get_mut(from) {
                    Self::flush_diff(ctx, from, &self.arrivals, r);
                    self.trim_arrivals();
                }
            }
            Msg::BlockRequest {
                blocks,
                incoming_bw,
            } => {
                if let Some(r) = self.receivers.get_mut(from) {
                    r.their_incoming_bw = incoming_bw as f64;
                }
                for block in blocks {
                    if self.have.contains(block) {
                        let bytes = u64::from(self.cfg.file.encoded_block_size(block));
                        ctx.queue_block(from, block, bytes);
                    }
                }
            }
        }
    }

    fn on_block_received(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, receipt: BlockReceipt) {
        let block = receipt.block;
        let duplicate = self.have.contains(block);
        self.stats.record_arrival(receipt.bytes, duplicate);
        // Request bookkeeping, and the sender's accounting and flow control.
        let block_size = f64::from(self.cfg.file.block_bytes);
        self.requester
            .on_block_received(from, &receipt, ctx.now(), block_size);

        if !duplicate {
            self.have.insert(block);
            self.propagate_availability(ctx, block);
        }

        // A slot opened towards this sender (and possibly others, handled by
        // the housekeeping timer).
        self.issue_requests(ctx, from);
    }

    fn on_block_sent(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId, block: BlockId) {
        let bytes = u64::from(self.cfg.file.encoded_block_size(block));
        if let Some(r) = self.receivers.get_mut(to) {
            r.bytes_since_epoch += bytes;
        }
        self.source_push(ctx);
    }

    fn on_peer_failed(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        // React immediately instead of waiting for the bandwidth-utility trim
        // at the next RanSub epoch (§3.3.1): the peer is unreachable, so any
        // relationship with it only wastes request slots and pipe space.
        self.pending_peer_requests.remove(&peer);
        // A failed control-tree child must not keep absorbing the source's
        // fresh blocks (queueing to it is a no-op, so its "pipe" would look
        // forever empty and swallow the round-robin), and a collect wave
        // must not wait for a dead child.
        self.drop_tree_child(ctx, peer);
        // Tree repair: if our control-tree parent died, the whole subtree
        // under us would be cut off from every future distribute wave.
        // Reattach at the root (the source — the one address every
        // participant knows), mirroring the overlay tree's repair protocol.
        if self.ransub.parent() == Some(peer) {
            self.ransub.set_parent(Some(self.root));
            ctx.send(self.root, Msg::TreeAttach);
        }
        let was_sender = self.requester.remove_sender(peer);
        self.drop_receiver(ctx, peer, false);
        if was_sender {
            // Requests outstanding to the failed sender were just released;
            // re-pipeline them towards the survivors right away.
            let senders: Vec<NodeId> = self.requester.senders().collect();
            for s in senders {
                self.issue_requests(ctx, s);
            }
        }
        self.source_push(ctx);
    }

    fn on_shutdown(&mut self, ctx: &mut Ctx<'_, Self>) {
        // Graceful goodbye: tell both sides of every peering so they re-peer
        // without waiting for a timeout.
        let peers: BTreeSet<NodeId> = self
            .requester
            .senders()
            .chain(self.receivers.keys())
            .collect();
        ctx.send_to_many(peers, &Msg::PeerClose);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Timer) {
        match timer {
            Timer::RanSub => {
                // Prune children that are gone or have not joined yet, so the
                // collect wave is never blocked on a silent child; a joiner
                // re-registers with TreeAttach when it (re)appears.
                let silent: Vec<NodeId> = self
                    .ransub
                    .children()
                    .iter()
                    .copied()
                    .filter(|&c| !ctx.peer_active(c))
                    .collect();
                for child in silent {
                    self.drop_tree_child(ctx, child);
                }
                let summary = self.own_summary();
                let emits = {
                    let rng = ctx.rng();
                    self.ransub.begin_epoch(summary, rng)
                };
                self.emit_ransub(ctx, emits);
                ctx.set_timer(config::RANSUB_PERIOD, Timer::RanSub);
            }
            Timer::Housekeeping => {
                // Release requests stuck behind a stalled sender so the blocks
                // become requestable elsewhere.
                self.requester
                    .release_stale(ctx.now(), config::REQUEST_TIMEOUT);
                // Refresh the request pipeline towards every sender and flush
                // any diffs whose receivers have gone idle.
                let senders: Vec<NodeId> = self.requester.senders().collect();
                for peer in senders {
                    self.issue_requests(ctx, peer);
                }
                for (peer, r) in self.receivers.iter_mut() {
                    if r.flushed < self.arrivals.end() && ctx.pending_to(peer) == 0 {
                        Self::flush_diff(ctx, peer, &self.arrivals, r);
                    }
                }
                self.trim_arrivals();
                self.source_push(ctx);
                ctx.set_timer(self.cfg.housekeeping_period(), Timer::Housekeeping);
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.is_download_complete()
    }

    fn probe_stats(&self) -> ProbeStats {
        ProbeStats {
            senders: self.requester.sender_count(),
            receivers: self.receivers.len(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::RngFactory;
    use dissem_codec::FileSpec;
    use rand::rngs::StdRng;
    use std::collections::BTreeMap;

    fn small_config() -> Config {
        Config::new(FileSpec::new(64 * 1024, 16 * 1024))
    }

    #[test]
    fn source_and_receivers_are_assigned_by_tree_position() {
        let tree = ControlTree::random(5, 3, &RngFactory::new(1));
        let cfg = small_config();
        let src = BulletPrimeNode::new(NodeId(0), &tree, cfg.clone());
        let rcv = BulletPrimeNode::new(NodeId(3), &tree, cfg);
        assert_eq!(src.role(), Role::Source);
        assert_eq!(rcv.role(), Role::Receiver);
        assert!(src.is_complete(), "the source always reports complete");
        assert!(!rcv.is_complete());
        assert_eq!(src.blocks_held(), 4);
        assert_eq!(rcv.blocks_held(), 0);
    }

    /// Block arrival, `DiffRequest` and the housekeeping tick all flush
    /// through `flush_diff`: from the same state each sends the same one
    /// `Msg::Diff` and leaves the same log behind.
    #[test]
    fn arrival_diff_request_and_housekeeping_flush_the_same_diff() {
        use netsim::{topology, Command, Network, WireSize};
        use rand::SeedableRng;

        let tree = ControlTree::random(4, 2, &RngFactory::new(4));
        let cfg = Config::new(FileSpec::new(128 * 1024, 16 * 1024));
        let (me, receiver, sender) = (NodeId(1), NodeId(2), NodeId(3));
        let idle = Network::new(topology::constrained_access(4));
        // A block queued towards the receiver holds back the diffs that
        // arrivals would send it.
        let mut busy = Network::new(topology::constrained_access(4));
        busy.queue_block(SimTime::ZERO, me, receiver, BlockId(0), 16 * 1024);
        let now = SimTime::from_secs_f64(1.0);
        let arrive = |node: &mut BulletPrimeNode, ctx: &mut Ctx<'_, BulletPrimeNode>, b| {
            let receipt = BlockReceipt {
                block: BlockId(b),
                bytes: 16 * 1024,
                in_front: 0,
                wasted: 0.0,
            };
            node.on_block_received(ctx, sender, receipt);
        };

        type Hook<'a> = &'a dyn Fn(&mut BulletPrimeNode, &mut Ctx<'_, BulletPrimeNode>);
        // Blocks 0 and 1 arrive before the receiver is accepted, so its
        // `PeerAccept` lists them; the `logged` blocks arrive while it is
        // busy. Then `hook` runs with the receiver idle.
        let flush = |logged: &[u32], hook: Hook<'_>| {
            let mut node = BulletPrimeNode::new(me, &tree, cfg.clone());
            let mut rng = StdRng::seed_from_u64(9);
            let mut set_up = Vec::new();
            let mut ctx = Ctx::new(me, now, &busy, &[true; 4], &mut rng, &mut set_up);
            arrive(&mut node, &mut ctx, 0);
            arrive(&mut node, &mut ctx, 1);
            node.on_control(&mut ctx, receiver, Msg::PeerRequest { have_count: 0 });
            logged.iter().for_each(|&b| arrive(&mut node, &mut ctx, b));
            assert!(set_up.iter().all(|command| !matches!(
                command,
                Command::SendControl {
                    msg: Msg::Diff { .. },
                    ..
                }
            )));
            let mut commands = Vec::new();
            let mut ctx = Ctx::new(me, now, &idle, &[true; 4], &mut rng, &mut commands);
            hook(&mut node, &mut ctx);
            let diffs: Vec<(NodeId, Vec<BlockId>, usize)> = commands
                .iter()
                .filter_map(|command| match command {
                    Command::SendControl { to, msg } => match msg {
                        Msg::Diff { blocks } => Some((*to, blocks.clone(), msg.wire_size())),
                        _ => None,
                    },
                    _ => None,
                })
                .collect();
            let flushed = node.receivers.get(receiver).expect("accepted").flushed;
            (
                diffs,
                flushed,
                node.arrivals.start,
                node.arrivals.window.clone(),
            )
        };

        let arrival = flush(&[3], &|node, ctx| arrive(node, ctx, 5));
        let blocks = vec![BlockId(3), BlockId(5)];
        let bytes = Msg::Diff {
            blocks: blocks.clone(),
        }
        .wire_size();
        assert_eq!(arrival.0, vec![(receiver, blocks, bytes)]);
        assert_eq!((arrival.1, arrival.2), (4, 4), "every arrival was offered");
        assert!(arrival.3.is_empty());
        let on_request = flush(&[3, 5], &|node, ctx| {
            node.on_control(ctx, receiver, Msg::DiffRequest)
        });
        assert_eq!(on_request, arrival);
        let on_tick = flush(&[3, 5], &|node, ctx| {
            node.on_timer(ctx, Timer::Housekeeping)
        });
        assert_eq!(on_tick, arrival);
    }

    /// A receiver accepted after some arrivals learns of them in its
    /// `PeerAccept`; its diffs carry only the blocks that arrive later.
    #[test]
    fn a_receiver_accepted_late_is_sent_only_later_arrivals() {
        use netsim::{topology, Command, Network};
        use rand::SeedableRng;

        let tree = ControlTree::random(4, 2, &RngFactory::new(4));
        let cfg = Config::new(FileSpec::new(128 * 1024, 16 * 1024));
        let net = Network::new(topology::constrained_access(4));
        let (me, receiver, sender) = (NodeId(1), NodeId(2), NodeId(3));
        let mut node = BulletPrimeNode::new(me, &tree, cfg);
        let mut rng = StdRng::seed_from_u64(9);
        let mut commands = Vec::new();
        let now = SimTime::from_secs_f64(1.0);
        let mut ctx = Ctx::new(me, now, &net, &[true; 4], &mut rng, &mut commands);
        let arrive = |node: &mut BulletPrimeNode, ctx: &mut Ctx<'_, BulletPrimeNode>, b| {
            let receipt = BlockReceipt {
                block: BlockId(b),
                bytes: 16 * 1024,
                in_front: 0,
                wasted: 0.0,
            };
            node.on_block_received(ctx, sender, receipt);
        };
        arrive(&mut node, &mut ctx, 4);
        arrive(&mut node, &mut ctx, 0);
        node.on_control(&mut ctx, receiver, Msg::PeerRequest { have_count: 0 });
        arrive(&mut node, &mut ctx, 6);
        node.on_control(&mut ctx, receiver, Msg::DiffRequest);
        node.on_timer(&mut ctx, Timer::Housekeeping);
        arrive(&mut node, &mut ctx, 2);
        let to_receiver: Vec<(&str, Vec<BlockId>)> = commands
            .iter()
            .filter_map(|command| match command {
                Command::SendControl { to, msg } if *to == receiver => Some(msg),
                _ => None,
            })
            .map(|msg| match msg {
                Msg::PeerAccept { available } => ("accept", available.iter().collect()),
                Msg::Diff { blocks } => ("diff", blocks.clone()),
                other => panic!("the receiver was sent {other:?}"),
            })
            .collect();
        let blocks = |ids: &[u32]| ids.iter().copied().map(BlockId).collect::<Vec<_>>();
        let (held, later, last) = (blocks(&[0, 4]), blocks(&[6]), blocks(&[2]));
        assert_eq!(
            to_receiver,
            [("accept", held), ("diff", later), ("diff", last)]
        );
    }

    /// A `PeerAccept` carries the sender's bitmap where it carried the list
    /// `have.iter().collect()`. Its wire size is the list's (`HDR + 4 + 4 ·
    /// count`, a `Diff` of that list's), and the receiver's request state
    /// after the accept is the one the list gave: the same blocks advertised
    /// in the same order, so the same first `BlockRequest`.
    #[test]
    fn a_bitmap_peer_accept_advertises_what_the_list_did() {
        use netsim::{topology, Command, Network, WireSize};
        use rand::{Rng, SeedableRng};

        let tree = ControlTree::random(4, 2, &RngFactory::new(5));
        let net = Network::new(topology::constrained_access(4));
        let (me, sender) = (NodeId(1), NodeId(2));
        let now = SimTime::from_secs_f64(1.0);
        let mut r = StdRng::seed_from_u64(0xacce);
        for case in 0..40 {
            let mut cfg = Config::new(FileSpec::new(200 * 1024, 1024));
            if case % 2 == 0 {
                cfg.request_strategy = config::RequestStrategy::FirstEncountered;
            }
            let space = cfg.block_space();
            let mut theirs = BlockBitmap::new(space);
            let mut node = BulletPrimeNode::new(me, &tree, cfg);
            for b in (0..space).map(BlockId) {
                if r.gen_bool(0.4) {
                    theirs.insert(b);
                }
                if r.gen_bool(0.2) {
                    node.have.insert(b);
                }
            }
            let list: Vec<BlockId> = theirs.iter().collect();
            let accept = Msg::PeerAccept { available: theirs };
            let as_list = Msg::Diff {
                blocks: list.clone(),
            };
            assert_eq!(accept.wire_size(), as_list.wire_size(), "case {case}");
            assert_eq!(accept.wire_size(), 9 + 4 + 4 * list.len(), "case {case}");

            let mut reference = node.requester.clone();
            let seed = r.gen::<u64>();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut commands = Vec::new();
            let mut ctx = Ctx::new(me, now, &net, &[true; 4], &mut rng, &mut commands);
            node.on_control(&mut ctx, sender, accept);

            assert!(reference.add_sender(sender, list, &node.have));
            let mut rng = StdRng::seed_from_u64(seed);
            let want = match reference.next_request(sender, &node.have, now, &mut rng) {
                Some(Msg::BlockRequest { blocks, .. }) => blocks,
                _ => Vec::new(),
            };
            assert_eq!(node.requester, reference, "case {case}: request state");
            let requested: Vec<&Vec<BlockId>> = commands
                .iter()
                .filter_map(|command| match command {
                    Command::SendControl {
                        to,
                        msg: Msg::BlockRequest { blocks, .. },
                    } if *to == sender => Some(blocks),
                    _ => None,
                })
                .collect();
            assert!(!want.is_empty(), "case {case}: premise, blocks to request");
            assert_eq!(requested, [&want], "case {case}");
        }
    }

    /// The arrival log as it was before it kept only the unflushed window:
    /// every arrival since the start, each receiver a cursor into it and
    /// the blocks it has heard of. `flush` is the full-log `flush_diff`,
    /// which also leaves out every block the receiver has heard of; the node
    /// keeps no such set, so sending the same diffs shows that its cursor
    /// alone never offers a block twice.
    #[derive(Default)]
    struct FullLog {
        log: Vec<BlockId>,
        have: BTreeSet<BlockId>,
        receivers: BTreeMap<NodeId, (usize, BTreeSet<BlockId>)>,
        diffs: Vec<(NodeId, Vec<BlockId>)>,
    }

    impl FullLog {
        fn flush(&mut self, peer: NodeId) {
            let Some((flushed, advertised)) = self.receivers.get_mut(&peer) else {
                return;
            };
            let blocks: Vec<BlockId> = self.log[*flushed..]
                .iter()
                .copied()
                .filter(|b| !advertised.contains(b))
                .collect();
            *flushed = self.log.len();
            if !blocks.is_empty() {
                advertised.extend(&blocks);
                self.diffs.push((peer, blocks));
            }
        }

        /// Flushes every receiver `ready` admits, in id order, as block
        /// arrival and the housekeeping tick do.
        fn flush_all(&mut self, ready: impl Fn(NodeId, usize) -> bool) {
            let peers: Vec<NodeId> = self.receivers.keys().copied().collect();
            for peer in peers {
                if ready(peer, self.receivers[&peer].0) {
                    self.flush(peer);
                }
            }
        }
    }

    /// Random runs of arrivals (duplicates included), the three flushes,
    /// late accepts and dropped receivers send the same diffs from the
    /// windowed log as from the full one. Some receivers have blocks queued
    /// towards them, so only a `DiffRequest` flushes them and the window
    /// stays open behind their cursors. After every step the window starts
    /// at the slowest receiver's cursor: it holds no arrival every receiver
    /// has been offered.
    #[test]
    fn the_windowed_log_sends_the_diffs_of_the_full_log() {
        use netsim::{topology, Command, Network};
        use rand::{Rng, SeedableRng};

        let n = 10;
        let tree = ControlTree::random(n, 3, &RngFactory::new(7));
        let me = NodeId(1);
        let peers: Vec<NodeId> = (2..n as u32).map(NodeId).collect();
        let mut r = StdRng::seed_from_u64(0xd1ff);
        let mut widest = 0;
        for case in 0..60 {
            let mut cfg = Config::new(FileSpec::new(48 * 1024, 1024));
            cfg.lazy_diffs = case % 3 == 0;
            let mut net = Network::new(topology::constrained_access(n));
            let busy: BTreeSet<NodeId> =
                peers.iter().copied().filter(|_| r.gen_bool(0.3)).collect();
            for &peer in &busy {
                net.queue_block(SimTime::ZERO, me, peer, BlockId(0), 1024);
                assert!(net.pending_blocks(me, peer) > 0);
            }
            let mut node = BulletPrimeNode::new(me, &tree, cfg.clone());
            assert_eq!(node.role(), Role::Receiver);
            let mut full = FullLog::default();
            let mut rng = StdRng::seed_from_u64(case);
            let mut commands = Vec::new();
            for step in 0..300 {
                let now = SimTime::from_secs_f64(f64::from(step));
                let mut ctx = Ctx::new(me, now, &net, &[true; 10], &mut rng, &mut commands);
                let peer = peers[r.gen_range(0..peers.len())];
                let idle = |peer: NodeId| !busy.contains(&peer);
                match r.gen_range(0..10u32) {
                    0..=3 => {
                        let block = BlockId(r.gen_range(0..48));
                        let receipt = BlockReceipt {
                            block,
                            bytes: 1024,
                            in_front: 0,
                            wasted: 0.0,
                        };
                        node.on_block_received(&mut ctx, NodeId(0), receipt);
                        if full.have.insert(block) {
                            full.log.push(block);
                            if !cfg.lazy_diffs {
                                full.flush_all(|peer, _| idle(peer));
                            }
                        }
                    }
                    4 => {
                        node.on_control(&mut ctx, peer, Msg::DiffRequest);
                        full.flush(peer);
                    }
                    5 => {
                        node.on_timer(&mut ctx, Timer::Housekeeping);
                        let end = full.log.len();
                        full.flush_all(|peer, flushed| flushed < end && idle(peer));
                    }
                    6 | 7 => {
                        node.on_control(&mut ctx, peer, Msg::PeerRequest { have_count: 0 });
                        let state = (full.log.len(), full.have.clone());
                        full.receivers.entry(peer).or_insert(state);
                    }
                    _ => {
                        node.on_control(&mut ctx, peer, Msg::PeerClose);
                        full.receivers.remove(&peer);
                    }
                }
                let cursors: Vec<(NodeId, usize)> =
                    node.receivers.iter().map(|(p, r)| (p, r.flushed)).collect();
                let want: Vec<(NodeId, usize)> =
                    full.receivers.iter().map(|(&p, r)| (p, r.0)).collect();
                assert_eq!(cursors, want, "case {case}, step {step}");
                assert_eq!(node.arrivals.end(), full.log.len());
                let slowest = cursors.iter().map(|c| c.1).min();
                assert_eq!(
                    node.arrivals.start,
                    slowest.unwrap_or(full.log.len()),
                    "case {case}, step {step}: the window starts at the slowest cursor"
                );
                widest = widest.max(node.arrivals.window.len());
            }
            let diffs: Vec<(NodeId, Vec<BlockId>)> = commands
                .into_iter()
                .filter_map(|command| match command {
                    Command::SendControl {
                        to,
                        msg: Msg::Diff { blocks },
                    } => Some((to, blocks)),
                    _ => None,
                })
                .collect();
            assert!(!diffs.is_empty(), "case {case}: premise, diffs were sent");
            assert_eq!(diffs, full.diffs, "case {case}");
        }
        assert!(widest > 1, "premise: the window held unflushed arrivals");
    }

    /// A graceful leaver says goodbye once to each peer, whether that peer
    /// sends to it, receives from it or both, and does nothing else.
    #[test]
    fn shutdown_sends_one_peer_close_to_each_peer_and_nothing_else() {
        use netsim::{topology, Command, Network};
        use rand::SeedableRng;

        let tree = ControlTree::random(6, 2, &RngFactory::new(6));
        let mut node = BulletPrimeNode::new(NodeId(1), &tree, small_config());
        for sender in [2, 3] {
            let none = std::iter::empty();
            node.requester.add_sender(NodeId(sender), none, &node.have);
        }
        for receiver in [3, 5] {
            node.receivers
                .get_or_insert_with(NodeId(receiver), || ReceiverState::new(0));
        }
        let net = Network::new(topology::constrained_access(6));
        let mut rng = StdRng::seed_from_u64(6);
        let mut commands = Vec::new();
        let mut ctx = Ctx::new(
            NodeId(1),
            SimTime::ZERO,
            &net,
            &[true; 6],
            &mut rng,
            &mut commands,
        );
        node.on_shutdown(&mut ctx);
        let closed: Vec<NodeId> = commands
            .iter()
            .map(|command| match command {
                Command::SendControl {
                    to,
                    msg: Msg::PeerClose,
                } => *to,
                other => panic!("on_shutdown recorded {other:?}"),
            })
            .collect();
        assert_eq!(closed, [2, 3, 5].map(NodeId));
    }

    #[test]
    fn peer_targets_start_at_configured_initial() {
        let tree = ControlTree::random(4, 2, &RngFactory::new(3));
        let node = BulletPrimeNode::new(NodeId(1), &tree, small_config());
        let targets = (node.peer_mgr.max_senders(), node.peer_mgr.max_receivers());
        assert_eq!(targets, (10, 10));
        let stats = node.probe_stats();
        assert_eq!((stats.senders, stats.receivers), (0, 0));
    }
}
