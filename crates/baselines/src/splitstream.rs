//! A SplitStream-like baseline (paper §5, compared in Figs 4, 5, 14).
//!
//! SplitStream splits the content into `k` stripes and pushes each stripe
//! down its own tree; the forest is built so that every node is an interior
//! node in (at most) one tree, spreading the forwarding load. The property
//! the paper leans on is structural: a slow or lossy link high up in one
//! stripe tree throttles that entire stripe for the whole subtree beneath it,
//! and no mechanism re-routes around it. Like the paper's methodology, the
//! content is treated as source-encoded: a node completes once it has
//! received `(1 + 0.04) · n` distinct blocks.

use std::collections::{BTreeMap, HashMap, VecDeque};

use desim::SimDuration;
use dissem_codec::{BlockBitmap, BlockId, FileSpec};
use netsim::{BlockReceipt, Ctx, NodeId, ProbeStats, Protocol, Runner, Topology, WireSize};
use rand::seq::SliceRandom;

use crate::ASSUMED_ENCODING_OVERHEAD;

/// Number of stripes (and stripe trees).
pub const DEFAULT_STRIPES: usize = 8;
/// Interior fan-out of each stripe tree.
pub const STRIPE_FANOUT: usize = 4;
/// Blocks kept in flight towards each child per stripe.
const PUSH_WINDOW: usize = 3;

/// SplitStream's timer vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsTimer {
    /// Housekeeping: drain stalled backlogs, keep the source injecting.
    Keepalive,
}

/// SplitStream needs no dynamic control traffic in this model; the forest is
/// computed at start-up. The only message is a completion-irrelevant
/// placeholder kept for protocol-trait compatibility.
#[derive(Debug, Clone)]
pub enum SsMsg {}

impl WireSize for SsMsg {
    fn wire_size(&self) -> usize {
        0
    }

    fn kind(&self) -> &'static str {
        // Uninhabited: no value of `SsMsg` exists to be traced.
        match *self {}
    }
}

/// The stripe forest: for every stripe, each node's children. Built once per
/// swarm; a node is handed its own child lists and keeps nothing else of it.
#[derive(Debug)]
pub struct StripeForest {
    /// `children[stripe][node]` — the node's children in that stripe's tree.
    children: Vec<Vec<Vec<NodeId>>>,
    stripes: usize,
}

impl StripeForest {
    /// Builds a forest of `stripes` trees over `n` nodes rooted at node 0.
    ///
    /// Interior nodes of stripe `s` are (preferentially) the nodes whose index
    /// is congruent to `s` modulo the stripe count, which yields the
    /// interior-node-disjointness SplitStream aims for; remaining nodes attach
    /// as leaves.
    pub fn build(n: usize, stripes: usize, rng: &desim::RngFactory) -> Self {
        assert!(n >= 2, "need at least a source and one receiver");
        assert!(stripes >= 1);
        let mut rng = rng.stream("splitstream.forest");
        let mut children = vec![vec![Vec::new(); n]; stripes];
        for (s, tree) in children.iter_mut().enumerate() {
            // Interior candidates for this stripe, excluding the root.
            let mut interior: Vec<u32> = (1..n as u32)
                .filter(|i| (*i as usize) % stripes == s)
                .collect();
            interior.shuffle(&mut rng);
            let mut leaves: Vec<u32> = (1..n as u32)
                .filter(|i| (*i as usize) % stripes != s)
                .collect();
            leaves.shuffle(&mut rng);

            // Chain of attachment points: the root, then interior nodes in
            // breadth-first order as their slots fill.
            let mut attach: Vec<u32> = vec![0];
            let mut slots: HashMap<u32, usize> = HashMap::new();
            slots.insert(0, STRIPE_FANOUT);
            let place = |node: u32,
                         attach: &mut Vec<u32>,
                         slots: &mut HashMap<u32, usize>,
                         tree: &mut Vec<Vec<NodeId>>,
                         becomes_interior: bool| {
                // Find the first attachment point with a free slot; if the
                // stripe has too few interior nodes for the population (small
                // deployments), exceed the deepest attachment point's fanout
                // rather than failing.
                let parent = attach
                    .iter()
                    .position(|p| slots.get(p).copied().unwrap_or(0) > 0)
                    .map(|pos| attach[pos])
                    .unwrap_or_else(|| *attach.last().expect("attach is never empty"));
                if let Some(free) = slots.get_mut(&parent) {
                    *free = free.saturating_sub(1);
                }
                tree[parent as usize].push(NodeId(node));
                if becomes_interior {
                    attach.push(node);
                    slots.insert(node, STRIPE_FANOUT);
                }
            };
            for node in interior {
                place(node, &mut attach, &mut slots, tree, true);
            }
            for node in leaves {
                place(node, &mut attach, &mut slots, tree, false);
            }
        }
        StripeForest { children, stripes }
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// Children of `node` in `stripe`'s tree.
    pub fn children(&self, stripe: usize, node: NodeId) -> &[NodeId] {
        &self.children[stripe][node.index()]
    }
}

/// Which of `stripes` stripes a block belongs to.
fn stripe_of(block: BlockId, stripes: usize) -> usize {
    block.index() % stripes
}

/// A SplitStream participant.
#[derive(Debug, Clone)]
pub struct SplitStreamNode {
    id: NodeId,
    file: FileSpec,
    /// `children[stripe]` — this node's children in that stripe's tree.
    children: Vec<Vec<NodeId>>,
    have: BlockBitmap,
    /// Per-child queue of blocks awaiting a push slot.
    backlog: BTreeMap<NodeId, VecDeque<BlockId>>,
    completion_target: u32,
    block_space: u32,
    /// Source bookkeeping: next block to inject.
    next_inject: u32,
    /// Block counters of [`Protocol::probe_stats`]; the peer counts are
    /// filled in there.
    stats: ProbeStats,
}

impl SplitStreamNode {
    /// Creates the node with its children in each stripe's tree; node 0 is
    /// the source.
    pub fn new(id: NodeId, file: FileSpec, children: Vec<Vec<NodeId>>) -> Self {
        let n = file.num_blocks();
        let completion_target = file.completion_target(ASSUMED_ENCODING_OVERHEAD);
        // The source injects a slightly longer encoded stream than strictly
        // needed so stragglers are not starved of distinct blocks.
        let block_space = (f64::from(n) * (1.0 + 2.0 * ASSUMED_ENCODING_OVERHEAD)).ceil() as u32;
        let have = if id == NodeId(0) {
            BlockBitmap::full(block_space)
        } else {
            BlockBitmap::new(block_space)
        };
        SplitStreamNode {
            id,
            file,
            children,
            have,
            backlog: BTreeMap::new(),
            completion_target,
            block_space,
            next_inject: 0,
            stats: ProbeStats::default(),
        }
    }

    /// Number of distinct blocks held.
    pub fn blocks_held(&self) -> u32 {
        self.have.count()
    }

    fn is_source(&self) -> bool {
        self.id == NodeId(0)
    }

    fn download_done(&self) -> bool {
        self.have.count() >= self.completion_target
    }

    /// Pushes queued blocks towards `child` while its pipe has room.
    fn drain_child(&mut self, ctx: &mut Ctx<'_, Self>, child: NodeId) {
        let Some(queue) = self.backlog.get_mut(&child) else {
            return;
        };
        let mut budget = PUSH_WINDOW.saturating_sub(ctx.pending_to(child));
        while budget > 0 {
            let Some(block) = queue.pop_front() else {
                break;
            };
            let bytes = u64::from(self.file.encoded_block_size(block));
            ctx.queue_block(child, block, bytes);
            budget -= 1;
        }
    }

    /// This node's children in the tree of `block`'s stripe.
    fn children_for(&self, block: BlockId) -> &[NodeId] {
        &self.children[stripe_of(block, self.children.len())]
    }

    /// Enqueues `block` for every child in its stripe tree and pushes what fits.
    fn forward(&mut self, ctx: &mut Ctx<'_, Self>, block: BlockId) {
        for child in self.children_for(block).to_vec() {
            self.backlog.entry(child).or_default().push_back(block);
            self.drain_child(ctx, child);
        }
    }

    /// Source: keep injecting the encoded stream into the stripe trees.
    fn source_inject(&mut self, ctx: &mut Ctx<'_, Self>) {
        if !self.is_source() {
            return;
        }
        // Keep a bounded number of blocks buffered per child so a slow stripe
        // does not absorb the entire stream into its backlog at t = 0.
        while self.next_inject < self.block_space {
            let block = BlockId(self.next_inject);
            let busiest = self
                .children_for(block)
                .iter()
                .map(|c| ctx.pending_to(*c) + self.backlog.get(c).map(VecDeque::len).unwrap_or(0))
                .max()
                .unwrap_or(0);
            if busiest >= PUSH_WINDOW * 2 {
                break;
            }
            self.forward(ctx, block);
            self.next_inject += 1;
        }
    }
}

impl Protocol for SplitStreamNode {
    type Msg = SsMsg;
    type Timer = SsTimer;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.source_inject(ctx);
        ctx.set_timer(SimDuration::from_secs(1), SsTimer::Keepalive);
    }

    fn on_control(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, msg: SsMsg) {
        match msg {}
    }

    fn on_block_received(&mut self, ctx: &mut Ctx<'_, Self>, _from: NodeId, receipt: BlockReceipt) {
        let block = receipt.block;
        let duplicate = self.have.contains(block);
        self.stats.record_arrival(receipt.bytes, duplicate);
        if duplicate {
            return;
        }
        self.have.insert(block);
        // Forward down our stripe subtree regardless of our own completion.
        self.forward(ctx, block);
    }

    fn on_block_sent(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId, _block: BlockId) {
        self.drain_child(ctx, to);
        self.source_inject(ctx);
    }

    fn on_peer_failed(&mut self, _ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        // Stop forwarding to the dead child; if the peer was our parent in
        // some stripe we simply stop receiving that stripe (no repair).
        self.backlog.remove(&peer);
        for kids in &mut self.children {
            kids.retain(|&c| c != peer);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: SsTimer) {
        match timer {
            SsTimer::Keepalive => {
                // Drain any backlog that stalled (e.g. after a bandwidth change).
                let children: Vec<NodeId> = self.backlog.keys().copied().collect();
                for child in children {
                    self.drain_child(ctx, child);
                }
                self.source_inject(ctx);
                ctx.set_timer(SimDuration::from_secs(1), SsTimer::Keepalive);
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.download_done()
    }

    fn probe_stats(&self) -> ProbeStats {
        // One parent per stripe tree (none for the source); children across
        // every stripe this node forwards on.
        let senders = if self.is_source() {
            0
        } else {
            self.children.len()
        };
        ProbeStats {
            senders,
            receivers: self.children.iter().map(Vec::len).sum(),
            ..self.stats
        }
    }
}

/// Builds the SplitStream node set for a topology.
pub fn build_nodes(
    topo: &Topology,
    file: FileSpec,
    rng: &desim::RngFactory,
) -> Vec<SplitStreamNode> {
    let forest = StripeForest::build(topo.len(), DEFAULT_STRIPES, rng);
    (0..topo.len() as u32)
        .map(|i| {
            let children = (0..forest.stripes())
                .map(|stripe| forest.children(stripe, NodeId(i)).to_vec())
                .collect();
            SplitStreamNode::new(NodeId(i), file, children)
        })
        .collect()
}

/// Builds a ready-to-run runner for a SplitStream experiment. The source
/// holds the whole encoded stream, so it is complete from t = 0.
pub fn build_runner(
    topo: Topology,
    file: FileSpec,
    rng: &desim::RngFactory,
) -> Runner<SplitStreamNode> {
    let nodes = build_nodes(&topo, file, rng);
    Runner::new(netsim::Network::new(topo), nodes, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::RngFactory;
    use netsim::{topology, StopReason};

    #[test]
    fn forest_reaches_every_node_in_every_stripe() {
        let rng = RngFactory::new(5);
        let forest = StripeForest::build(40, 8, &rng);
        for stripe in 0..8 {
            let mut seen = [false; 40];
            let mut stack = vec![NodeId(0)];
            seen[0] = true;
            while let Some(x) = stack.pop() {
                for &c in forest.children(stripe, x) {
                    assert!(!seen[c.index()], "node visited twice in stripe {stripe}");
                    seen[c.index()] = true;
                    stack.push(c);
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "stripe {stripe} tree does not span all nodes"
            );
        }
    }

    #[test]
    fn interior_load_is_spread_across_stripes() {
        let rng = RngFactory::new(6);
        let n = 64;
        let forest = StripeForest::build(n, 8, &rng);
        // No non-root node should be interior (have children) in many stripes.
        for node in 1..n as u32 {
            let interior_in = (0..8)
                .filter(|&s| !forest.children(s, NodeId(node)).is_empty())
                .count();
            assert!(
                interior_in <= 2,
                "node {node} is interior in {interior_in} stripes; SplitStream aims for 1"
            );
        }
    }

    #[test]
    fn stripes_partition_blocks() {
        let counts: Vec<usize> = (0..8)
            .map(|s| {
                (0..800u32)
                    .filter(|b| stripe_of(BlockId(*b), 8) == s)
                    .count()
            })
            .collect();
        assert!(counts.iter().all(|&c| c == 100));
    }

    #[test]
    fn splitstream_completes_a_small_download() {
        let rng = RngFactory::new(9);
        let topo = topology::modelnet_mesh(10, 0.005, &rng);
        let mut runner = build_runner(topo, FileSpec::new(512 * 1024, 16 * 1024), &rng);
        let report = runner.run(SimDuration::from_secs(3_600));
        assert_eq!(report.reason, StopReason::AllComplete, "{report:?}");
        // Trees never deliver the same block twice to a node.
        for node in runner.nodes().iter().skip(1) {
            assert_eq!(node.probe_stats().duplicate_blocks, 0);
        }
    }

    /// SplitStream has no goodbye: once started, no node of the forest
    /// (source, interior or leaf) records anything on shutdown.
    #[test]
    fn shutdown_records_no_command() {
        use desim::SimTime;
        use netsim::Network;
        use rand::{rngs::StdRng, SeedableRng};

        let rng = RngFactory::new(9);
        let topo = topology::modelnet_mesh(10, 0.0, &rng);
        let mut nodes = build_nodes(&topo, FileSpec::new(512 * 1024, 16 * 1024), &rng);
        let net = Network::new(topo);
        let active = [true; 10];
        let mut node_rng = StdRng::seed_from_u64(9);
        for node in &mut nodes {
            let id = node.id;
            let mut started = Vec::new();
            node.on_init(&mut Ctx::new(
                id,
                SimTime::ZERO,
                &net,
                &active,
                &mut node_rng,
                &mut started,
            ));
            let mut farewell = Vec::new();
            node.on_shutdown(&mut Ctx::new(
                id,
                SimTime::ZERO,
                &net,
                &active,
                &mut node_rng,
                &mut farewell,
            ));
            assert!(farewell.is_empty(), "node {id:?} recorded {farewell:?}");
        }
    }
}
