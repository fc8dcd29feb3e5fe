//! RanSub: periodic distribution of changing, uniformly random subsets of
//! per-node state over the control tree (paper §3.2.2).
//!
//! Every epoch (5 seconds in Bullet′) the root starts a **collect** wave:
//! each leaf reports a summary of itself; interior nodes wait for their
//! children, merge the reported samples (weighted by subtree size so the
//! result stays uniform over the subtree) together with their own summary,
//! and forward a compacted sample upward. Once the root has merged every
//! subtree it starts the **distribute** wave, sending a random subset down
//! the tree; each interior node re-mixes the incoming subset with the samples
//! it collected from its other children so that different nodes receive
//! different (but still uniformly distributed) subsets.
//!
//! The [`RanSubAgent`] encapsulates this state machine in a
//! message-transport-agnostic way: protocols feed it incoming collect /
//! distribute payloads and it returns the messages to emit, so both Bullet
//! and Bullet′ reuse it unchanged.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use netsim::NodeId;
use rand::Rng;

use crate::tree::ControlTree;

/// Application state advertised through RanSub: enough for a receiver to
/// judge whether a node is worth peering with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSummary {
    /// The advertised node.
    pub node: u32,
    /// Number of distinct blocks the node currently holds.
    pub have_count: u32,
    /// True once the node holds the entire file (the source advertises itself
    /// this way after pushing every block once).
    pub has_everything: bool,
}

impl NodeSummary {
    /// Wire size of one summary entry in bytes.
    pub const WIRE_SIZE: usize = 9;

    /// The advertised node as a [`NodeId`].
    pub fn node_id(&self) -> NodeId {
        NodeId(self.node)
    }
}

/// A weighted sample of node summaries flowing up (collect) or down
/// (distribute) the control tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// The sampled summaries.
    pub entries: Vec<NodeSummary>,
    /// Number of nodes this sample represents (its subtree population during
    /// collect; the whole overlay during distribute).
    pub weight: u32,
}

impl Sample {
    /// An empty sample representing zero nodes.
    pub fn empty() -> Self {
        Sample {
            entries: Vec::new(),
            weight: 0,
        }
    }

    /// Wire size of the sample in bytes.
    pub fn wire_size(&self) -> usize {
        8 + self.entries.len() * NodeSummary::WIRE_SIZE
    }
}

/// Merges weighted samples into a single sample of at most `target` entries.
///
/// Each input sample is an (approximately) uniform sample of a disjoint
/// population of `weight` nodes; the merge draws entries so that every node
/// in the union remains equally likely to appear, then deduplicates.
///
/// Generic over [`Borrow`] so callers can pass groups by value
/// (`&[Sample]`) or — on the per-epoch hot path, where copying every
/// child's sample per merge would be the dominant cost — by reference
/// (`&[&Sample]`). The merge itself is O(total entries), and every input on
/// the tree paths is already compacted to the subset size, so one epoch
/// costs O(children) merges of fixed-size samples: no whole-subtree copies.
pub fn merge_samples<R: Rng + ?Sized, S: Borrow<Sample>>(
    rng: &mut R,
    target: usize,
    groups: &[S],
) -> Sample {
    let total_weight: u32 = groups.iter().map(|g| g.borrow().weight).sum();
    // Weighted sampling without replacement via exponential jumps
    // (Efraimidis–Spirakis keys): one key per entry, weighted by the
    // population the entry stands in for.
    let total_entries = groups.iter().map(|g| g.borrow().entries.len()).sum();
    let mut keyed: Vec<(f64, NodeSummary)> = Vec::with_capacity(total_entries);
    for g in groups {
        let g = g.borrow();
        if g.entries.is_empty() {
            continue;
        }
        let per_entry = f64::from(g.weight) / g.entries.len() as f64;
        for e in &g.entries {
            let u: f64 = rng.gen_range(1e-12..1.0);
            keyed.push((u.powf(1.0 / per_entry.max(1e-9)), *e));
        }
    }
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));

    // At most `target` (the subset size, 10) entries are kept, so a scan of
    // them finds a repeated node faster than a hash set is built.
    let mut entries: Vec<NodeSummary> = Vec::with_capacity(target);
    for (_, e) in keyed {
        if entries.len() >= target {
            break;
        }
        if !entries.iter().any(|kept| kept.node == e.node) {
            entries.push(e);
        }
    }
    Sample {
        entries,
        weight: total_weight,
    }
}

/// Messages the agent asks the embedding protocol to emit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RanSubEmit {
    /// Send a collect payload to the parent.
    CollectToParent {
        /// Destination (the node's tree parent).
        parent: NodeId,
        /// Collected sample for the subtree rooted here.
        sample: Sample,
        /// Epoch number.
        epoch: u64,
    },
    /// Send a distribute payload to a child.
    DistributeToChild {
        /// Destination child.
        child: NodeId,
        /// The subset the child should receive.
        sample: Sample,
        /// Epoch number.
        epoch: u64,
    },
    /// The local node's subset for this epoch is ready.
    Deliver {
        /// The subset delivered to the local application (peering strategy).
        sample: Sample,
        /// Epoch number.
        epoch: u64,
    },
}

/// Per-node RanSub state machine.
#[derive(Debug, Clone)]
pub struct RanSubAgent {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    subset_size: usize,
    epoch: u64,
    /// Collect samples received from children for the current epoch.
    collected: BTreeMap<NodeId, Sample>,
    /// Our own summary for the current epoch.
    own: Option<NodeSummary>,
    /// True once this epoch's collect wave has been completed (forwarded to
    /// the parent or, at the root, turned into the distribute wave); guards
    /// against re-emitting when a child is removed after the fact.
    wave_done: bool,
}

impl RanSubAgent {
    /// Creates the agent for `node` given its position in the control tree.
    pub fn new(node: NodeId, tree: &ControlTree, subset_size: usize) -> Self {
        RanSubAgent {
            parent: tree.parent(node),
            children: tree.children(node).to_vec(),
            subset_size,
            epoch: 0,
            collected: BTreeMap::new(),
            own: None,
            wave_done: false,
        }
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// This node's current tree parent (`None` at the root).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// This node's current tree children.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Re-parents this node (tree repair after the parent failed).
    pub fn set_parent(&mut self, parent: Option<NodeId>) {
        self.parent = parent;
    }

    /// Adopts `child` (tree repair: an orphaned node reattached here). The
    /// child starts counting towards collect-wave completion from the next
    /// epoch; the current wave, if already complete, is unaffected.
    pub fn add_child(&mut self, child: NodeId) {
        if !self.children.contains(&child) {
            self.children.push(child);
        }
    }

    /// Forgets all children (tree repair: a node that joins the overlay late
    /// must not wait on construction-time children that re-registered with
    /// another parent while it was absent; real children re-attach).
    pub fn clear_children(&mut self) {
        self.children.clear();
        self.collected.clear();
    }

    /// Starts a new epoch at this node with its current application summary.
    /// Returns the messages to emit: leaves immediately report to their
    /// parent; the root of a two-node tree may even deliver immediately.
    pub fn begin_epoch<R: Rng + ?Sized>(
        &mut self,
        summary: NodeSummary,
        rng: &mut R,
    ) -> Vec<RanSubEmit> {
        self.epoch += 1;
        self.collected.clear();
        self.own = Some(summary);
        self.wave_done = false;
        self.try_complete_collect(rng)
    }

    /// Removes a dead child from the tree links. Without this, an epoch whose
    /// collect wave is waiting on the crashed child would block forever — and
    /// with it every distribute below this node. If the removal completes the
    /// current wave, the resulting messages are returned.
    pub fn on_child_failed<R: Rng + ?Sized>(
        &mut self,
        child: NodeId,
        rng: &mut R,
    ) -> Vec<RanSubEmit> {
        let before = self.children.len();
        self.children.retain(|&c| c != child);
        if self.children.len() == before {
            return Vec::new(); // Not one of our children.
        }
        self.collected.remove(&child);
        self.try_complete_collect(rng)
    }

    /// Handles a collect payload from a child.
    pub fn on_collect<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        sample: Sample,
        epoch: u64,
        rng: &mut R,
    ) -> Vec<RanSubEmit> {
        if epoch > self.epoch {
            // A child can be one epoch ahead if our timer is late; adopt the
            // newer epoch so the wave is not lost.
            self.epoch = epoch;
            self.collected.clear();
            self.wave_done = false;
        }
        // A *behind* child still delivers its freshest data: nodes that
        // joined the overlay late run a permanently lagging epoch counter,
        // so re-stamp their reports into the current epoch instead of
        // dropping them (which would block every wave through this node).
        self.collected.insert(from, sample);
        self.try_complete_collect(rng)
    }

    /// Handles a distribute payload from the parent: delivers the local
    /// subset and forwards re-mixed subsets to children.
    pub fn on_distribute<R: Rng + ?Sized>(
        &mut self,
        sample: Sample,
        epoch: u64,
        rng: &mut R,
    ) -> Vec<RanSubEmit> {
        let mut out = Vec::with_capacity(1 + self.children.len());
        out.push(RanSubEmit::Deliver {
            sample: sample.clone(),
            epoch,
        });
        let own_sample = self.own.map(|own| Sample {
            entries: vec![own],
            weight: 1,
        });
        let mut groups: Vec<&Sample> = Vec::with_capacity(2 + self.collected.len());
        for &child in &self.children {
            // Re-mix the incoming subset with what the *other* children (and
            // we ourselves) reported, so each child sees a different subset.
            // All groups are borrowed: each child's merge reads the collected
            // samples in place instead of copying them.
            groups.clear();
            groups.push(&sample);
            if let Some(own) = &own_sample {
                groups.push(own);
            }
            for (&c, s) in &self.collected {
                if c != child {
                    groups.push(s);
                }
            }
            let mixed = merge_samples(rng, self.subset_size, &groups);
            out.push(RanSubEmit::DistributeToChild {
                child,
                sample: mixed,
                epoch,
            });
        }
        out
    }

    /// If every child has reported for the current epoch, produce either the
    /// upward collect message (interior node) or the distribute wave (root).
    fn try_complete_collect<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<RanSubEmit> {
        let Some(own) = self.own else {
            return Vec::new();
        };
        if self.wave_done || self.collected.len() < self.children.len() {
            return Vec::new();
        }
        self.wave_done = true;
        let own_sample = Sample {
            entries: vec![own],
            weight: 1,
        };
        let mut groups: Vec<&Sample> = Vec::with_capacity(1 + self.collected.len());
        groups.push(&own_sample);
        groups.extend(self.collected.values());
        let merged = merge_samples(rng, self.subset_size, &groups);

        match self.parent {
            Some(parent) => vec![RanSubEmit::CollectToParent {
                parent,
                sample: merged,
                epoch: self.epoch,
            }],
            None => {
                // Root: the collect wave is complete; start distribution.
                self.on_distribute(merged, self.epoch, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::RngFactory;
    use rand::SeedableRng;

    fn summary(node: u32, have: u32) -> NodeSummary {
        NodeSummary {
            node,
            have_count: have,
            has_everything: false,
        }
    }

    #[test]
    fn merge_respects_target_and_dedups() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Sample {
            entries: (0..10).map(|i| summary(i, 0)).collect(),
            weight: 10,
        };
        let b = Sample {
            entries: (5..15).map(|i| summary(i, 0)).collect(),
            weight: 10,
        };
        let merged = merge_samples(&mut rng, 8, &[a, b]);
        assert_eq!(merged.entries.len(), 8);
        assert_eq!(merged.weight, 20);
        let nodes: std::collections::HashSet<u32> = merged.entries.iter().map(|e| e.node).collect();
        assert_eq!(nodes.len(), 8, "no duplicates after merge");
    }

    #[test]
    fn merge_is_roughly_uniform() {
        // Two groups of very different sizes must be represented roughly in
        // proportion to their populations.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let big = Sample {
            entries: (0..30).map(|i| summary(i, 0)).collect(),
            weight: 90,
        };
        let small = Sample {
            entries: (100..110).map(|i| summary(i, 0)).collect(),
            weight: 10,
        };
        let mut from_big = 0usize;
        let trials = 400;
        for _ in 0..trials {
            let merged = merge_samples(&mut rng, 10, &[big.clone(), small.clone()]);
            from_big += merged.entries.iter().filter(|e| e.node < 100).count();
        }
        let frac = from_big as f64 / (trials * 10) as f64;
        assert!(
            (0.80..0.98).contains(&frac),
            "expected ~90% of entries from the large group, got {frac}"
        );
    }

    /// Runs one full epoch over an arbitrary tree by hand-delivering the
    /// emitted messages, and returns the subset delivered at each node.
    fn run_epoch(tree: &ControlTree, subset: usize, seed: u64) -> Vec<Option<Sample>> {
        let n = tree.len();
        let factory = RngFactory::new(seed);
        let mut rngs: Vec<_> = (0..n)
            .map(|i| factory.stream_indexed("ransub", i as u64))
            .collect();
        let mut agents: Vec<RanSubAgent> = (0..n as u32)
            .map(|i| RanSubAgent::new(NodeId(i), tree, subset))
            .collect();
        let mut delivered: Vec<Option<Sample>> = vec![None; n];
        let mut queue: Vec<RanSubEmit> = Vec::new();
        // Every node begins its epoch (ordering does not matter).
        for i in (0..n).rev() {
            let s = summary(i as u32, i as u32);
            let emitted = agents[i].begin_epoch(s, &mut rngs[i]);
            annotate(&mut queue, i, emitted, &mut delivered);
        }
        while let Some(msg) = queue.pop() {
            match msg {
                RanSubEmit::CollectToParent {
                    parent,
                    sample,
                    epoch,
                } => {
                    // Sender is implicit; find it by scanning children lists.
                    let sender = find_sender(tree, parent, &sample);
                    let p = parent.index();
                    let emitted = agents[p].on_collect(sender, sample, epoch, &mut rngs[p]);
                    annotate(&mut queue, p, emitted, &mut delivered);
                }
                RanSubEmit::DistributeToChild {
                    child,
                    sample,
                    epoch,
                } => {
                    let c = child.index();
                    let emitted = agents[c].on_distribute(sample, epoch, &mut rngs[c]);
                    annotate(&mut queue, c, emitted, &mut delivered);
                }
                RanSubEmit::Deliver { .. } => unreachable!("handled in annotate"),
            }
        }
        return delivered;

        fn annotate(
            queue: &mut Vec<RanSubEmit>,
            node: usize,
            emitted: Vec<RanSubEmit>,
            delivered: &mut [Option<Sample>],
        ) {
            for e in emitted {
                if let RanSubEmit::Deliver { sample, .. } = e {
                    delivered[node] = Some(sample);
                } else {
                    queue.push(e);
                }
            }
        }

        /// Identifies which child of `parent` sent `sample` — in the real
        /// protocols the transport supplies the sender, so the test only
        /// needs a stand-in that picks the child whose subtree contains the
        /// sample's first entry.
        fn find_sender(tree: &ControlTree, parent: NodeId, sample: &Sample) -> NodeId {
            let first = sample
                .entries
                .first()
                .expect("samples are never empty")
                .node;
            for &c in tree.children(parent) {
                if subtree_contains(tree, c, first) {
                    return c;
                }
            }
            panic!("no child of {parent} contains node {first}");
        }

        fn subtree_contains(tree: &ControlTree, root: NodeId, target: u32) -> bool {
            if root.0 == target {
                return true;
            }
            tree.children(root)
                .iter()
                .any(|&c| subtree_contains(tree, c, target))
        }
    }

    #[test]
    fn full_epoch_delivers_subsets_to_every_node() {
        let tree = ControlTree::random(30, 3, &RngFactory::new(4));
        let delivered = run_epoch(&tree, 8, 9);
        for (i, d) in delivered.iter().enumerate() {
            let d = d
                .as_ref()
                .unwrap_or_else(|| panic!("node {i} got no subset"));
            assert!(!d.entries.is_empty());
            assert!(d.entries.len() <= 8);
            // The sample must only reference real nodes.
            for e in &d.entries {
                assert!(e.node < 30);
            }
        }
        // Different nodes should not all receive the identical subset.
        let distinct: std::collections::HashSet<Vec<u32>> = delivered
            .iter()
            .map(|d| d.as_ref().unwrap().entries.iter().map(|e| e.node).collect())
            .collect();
        assert!(
            distinct.len() > 1,
            "re-mixing should diversify per-node subsets"
        );
    }

    #[test]
    fn epochs_advance_and_behind_collects_are_restamped() {
        let tree = ControlTree::from_parents(vec![None, Some(NodeId(0)), Some(NodeId(0))]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut root = RanSubAgent::new(NodeId(0), &tree, 5);
        assert!(root.parent().is_none());
        let out = root.begin_epoch(summary(0, 100), &mut rng);
        assert!(out.is_empty(), "root with unreported children must wait");
        assert_eq!(root.epoch(), 1);

        // A behind (epoch 0) collect counts as the child's current report —
        // late joiners run permanently lagging epoch counters — but one
        // report alone does not complete a two-child wave.
        let behind = root.on_collect(
            NodeId(1),
            Sample {
                entries: vec![summary(1, 1)],
                weight: 1,
            },
            0,
            &mut rng,
        );
        assert!(behind.is_empty());

        // The second child's report completes the wave, even though the
        // first child's was re-stamped from an older epoch.
        let out = root.on_collect(
            NodeId(2),
            Sample {
                entries: vec![summary(2, 2)],
                weight: 1,
            },
            1,
            &mut rng,
        );
        let delivers = out
            .iter()
            .filter(|e| matches!(e, RanSubEmit::Deliver { .. }))
            .count();
        let dists = out
            .iter()
            .filter(|e| matches!(e, RanSubEmit::DistributeToChild { .. }))
            .count();
        assert_eq!(delivers, 1);
        assert_eq!(dists, 2);
        assert_eq!(root.epoch(), 1, "behind collects never advance the epoch");
    }

    #[test]
    fn child_failure_unblocks_a_waiting_collect_wave() {
        let tree = ControlTree::from_parents(vec![None, Some(NodeId(0)), Some(NodeId(0))]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut root = RanSubAgent::new(NodeId(0), &tree, 5);
        assert!(root.begin_epoch(summary(0, 100), &mut rng).is_empty());
        // Child 1 reports; the wave still waits on child 2.
        let out = root.on_collect(
            NodeId(1),
            Sample {
                entries: vec![summary(1, 1)],
                weight: 1,
            },
            1,
            &mut rng,
        );
        assert!(out.is_empty());
        // Child 2 crashes: the wave completes with the survivors.
        let out = root.on_child_failed(NodeId(2), &mut rng);
        assert!(
            out.iter().any(|e| matches!(e, RanSubEmit::Deliver { .. })),
            "root must deliver once the dead child stops being waited on: {out:?}"
        );
        // The dead child gets no distribute; the survivor does.
        for e in &out {
            if let RanSubEmit::DistributeToChild { child, .. } = e {
                assert_eq!(*child, NodeId(1));
            }
        }
        // Removing an unrelated node is a no-op.
        assert!(root.on_child_failed(NodeId(9), &mut rng).is_empty());
    }

    #[test]
    fn completed_wave_is_not_reemitted_after_child_failure() {
        let tree = ControlTree::from_parents(vec![None, Some(NodeId(0)), Some(NodeId(0))]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut root = RanSubAgent::new(NodeId(0), &tree, 5);
        root.begin_epoch(summary(0, 100), &mut rng);
        for c in [1u32, 2] {
            root.on_collect(
                NodeId(c),
                Sample {
                    entries: vec![summary(c, c)],
                    weight: 1,
                },
                1,
                &mut rng,
            );
        }
        // The wave already completed; a late failure must not re-run it.
        assert!(root.on_child_failed(NodeId(2), &mut rng).is_empty());
        // The next epoch only waits for the surviving child.
        assert!(root.begin_epoch(summary(0, 100), &mut rng).is_empty());
        let out = root.on_collect(
            NodeId(1),
            Sample {
                entries: vec![summary(1, 1)],
                weight: 1,
            },
            2,
            &mut rng,
        );
        assert!(out.iter().any(|e| matches!(e, RanSubEmit::Deliver { .. })));
    }

    #[test]
    fn reattached_orphan_counts_from_the_next_epoch() {
        let tree = ControlTree::from_parents(vec![None, Some(NodeId(0))]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut root = RanSubAgent::new(NodeId(0), &tree, 5);
        root.add_child(NodeId(7)); // orphan adopted via tree repair
        root.add_child(NodeId(7)); // idempotent
        root.begin_epoch(summary(0, 1), &mut rng);
        let out = root.on_collect(
            NodeId(1),
            Sample {
                entries: vec![summary(1, 1)],
                weight: 1,
            },
            1,
            &mut rng,
        );
        assert!(
            out.is_empty(),
            "the wave now waits for the adopted child too"
        );
        let out = root.on_collect(
            NodeId(7),
            Sample {
                entries: vec![summary(7, 3)],
                weight: 1,
            },
            1,
            &mut rng,
        );
        let dists: Vec<_> = out
            .iter()
            .filter(|e| matches!(e, RanSubEmit::DistributeToChild { .. }))
            .collect();
        assert_eq!(dists.len(), 2, "both children receive distributes: {out:?}");
    }

    #[test]
    fn leaf_reports_immediately_on_epoch_start() {
        let tree = ControlTree::from_parents(vec![None, Some(NodeId(0))]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut leaf = RanSubAgent::new(NodeId(1), &tree, 5);
        let out = leaf.begin_epoch(summary(1, 7), &mut rng);
        assert_eq!(out.len(), 1);
        match &out[0] {
            RanSubEmit::CollectToParent {
                parent,
                sample,
                epoch,
            } => {
                assert_eq!(*parent, NodeId(0));
                assert_eq!(*epoch, 1);
                assert_eq!(sample.entries, vec![summary(1, 7)]);
                assert_eq!(sample.weight, 1);
            }
            other => panic!("unexpected emit {other:?}"),
        }
    }
}
