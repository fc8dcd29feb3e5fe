//! The overlay control tree.
//!
//! Bullet′ (like Bullet before it) joins every participant into a simple
//! random tree rooted at the source. The tree carries only *control*
//! traffic — RanSub collect/distribute waves — plus the source's block pushes
//! to its direct children; the high-volume data mesh is layered on top of it
//! by the peering strategy.

use desim::RngFactory;
use netsim::NodeId;
use rand::seq::SliceRandom;

/// An overlay tree over a contiguous id range `base..base + n`, rooted at
/// `base` (the source). Trees built with [`ControlTree::random`] or
/// [`ControlTree::from_parents`] cover `0..n`; [`ControlTree::random_rooted`]
/// places the tree anywhere in a larger topology, so several independent
/// meshes can coexist in one emulation (the shared-bottleneck scenarios).
#[derive(Debug, Clone)]
pub struct ControlTree {
    /// First (root) node id of the member range.
    base: u32,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

impl ControlTree {
    /// Builds a random tree over `n` nodes with at most `max_degree` children
    /// per node, rooted at node 0.
    ///
    /// Nodes join in a random order and each picks a uniformly random parent
    /// among the already-joined nodes that still have a free child slot,
    /// mirroring the "random tree" join procedure of the MACEDON toolkit.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `max_degree == 0`.
    pub fn random(n: usize, max_degree: usize, rng: &RngFactory) -> Self {
        Self::random_over(rng.stream("overlay.tree"), 0, n, max_degree)
    }

    /// Builds a random tree over the id range `base.0..base.0 + n`, rooted at
    /// `base`: the multi-mesh variant of [`ControlTree::random`]. Each mesh
    /// of one emulation gets its own RNG stream (indexed by the base id), so
    /// concurrent meshes are independently — and reproducibly — shaped.
    ///
    /// ```
    /// use desim::RngFactory;
    /// use netsim::NodeId;
    /// use overlay::ControlTree;
    ///
    /// // Two meshes of 8 nodes each in one 16-node emulation.
    /// let rng = RngFactory::new(1);
    /// let a = ControlTree::random_rooted(NodeId(0), 8, 4, &rng);
    /// let b = ControlTree::random_rooted(NodeId(8), 8, 4, &rng);
    /// assert_eq!(a.root(), NodeId(0));
    /// assert_eq!(b.root(), NodeId(8));
    /// assert!(b.members().all(|m| !a.contains(m)));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `max_degree == 0`.
    pub fn random_rooted(base: NodeId, n: usize, max_degree: usize, rng: &RngFactory) -> Self {
        Self::random_over(
            rng.stream_indexed("overlay.tree", u64::from(base.0)),
            base.0,
            n,
            max_degree,
        )
    }

    fn random_over(mut rng: impl rand::Rng, base: u32, n: usize, max_degree: usize) -> Self {
        assert!(n >= 2, "a control tree needs at least two nodes");
        assert!(max_degree >= 1, "max_degree must be at least 1");
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];

        // Join order: receivers in random order (ids relative to the base).
        let mut order: Vec<u32> = (1..n as u32).collect();
        order.shuffle(&mut rng);

        // Candidates with a free slot.
        let mut open: Vec<u32> = vec![0];
        for node in order {
            // Pick a random open node as parent.
            let pick = *open
                .as_slice()
                .choose(&mut rng)
                .expect("there is always at least one open node");
            parent[node as usize] = Some(NodeId(base + pick));
            children[pick as usize].push(NodeId(base + node));
            if children[pick as usize].len() >= max_degree {
                open.retain(|&x| x != pick);
            }
            open.push(node);
        }
        ControlTree {
            base,
            parent,
            children,
        }
    }

    /// Builds an explicit tree from a parent table (index 0 must be the root).
    ///
    /// # Panics
    ///
    /// Panics if node 0 has a parent, another node lacks one, or the edges do
    /// not form a tree reaching every node.
    pub fn from_parents(parents: Vec<Option<NodeId>>) -> Self {
        let n = parents.len();
        assert!(n >= 2);
        assert!(parents[0].is_none(), "the root must not have a parent");
        let mut children = vec![Vec::new(); n];
        for (i, p) in parents.iter().enumerate() {
            if i == 0 {
                continue;
            }
            let p = p.unwrap_or_else(|| panic!("node {i} has no parent"));
            children[p.index()].push(NodeId(i as u32));
        }
        let tree = ControlTree {
            base: 0,
            parent: parents,
            children,
        };
        // Validate connectivity.
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        while let Some(x) = stack.pop() {
            if std::mem::replace(&mut seen[x.index()], true) {
                panic!("cycle detected in control tree");
            }
            stack.extend(tree.children(x).iter().copied());
        }
        assert!(
            seen.iter().all(|&s| s),
            "control tree does not reach every node"
        );
        tree
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns true if the tree is empty (never for constructed trees).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root (the first id of the member range; the source).
    pub fn root(&self) -> NodeId {
        NodeId(self.base)
    }

    /// Returns true if `node` lies in this tree's member range.
    pub fn contains(&self, node: NodeId) -> bool {
        node.0 >= self.base && ((node.0 - self.base) as usize) < self.parent.len()
    }

    /// Index of `node` into the member tables.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a member of this tree.
    fn idx(&self, node: NodeId) -> usize {
        assert!(self.contains(node), "{node} is not a member of this tree");
        (node.0 - self.base) as usize
    }

    /// Parent of `node` (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[self.idx(node)]
    }

    /// Children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[self.idx(node)]
    }

    /// Number of nodes in the subtree rooted at `node` (including itself).
    pub fn subtree_size(&self, node: NodeId) -> usize {
        1 + self
            .children(node)
            .iter()
            .map(|&c| self.subtree_size(c))
            .sum::<usize>()
    }

    /// Depth of `node` (root = 0).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 0;
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Iterator over the member node ids, root first.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(|i| NodeId(self.base + i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_tree_is_connected_and_respects_degree() {
        let rng = RngFactory::new(17);
        let tree = ControlTree::random(100, 4, &rng);
        assert_eq!(tree.len(), 100);
        assert_eq!(tree.subtree_size(tree.root()), 100);
        for i in 0..100u32 {
            assert!(tree.children(NodeId(i)).len() <= 4);
            if i != 0 {
                assert!(tree.parent(NodeId(i)).is_some());
            }
        }
        assert!(tree.parent(NodeId(0)).is_none());
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        let a = ControlTree::random(50, 6, &RngFactory::new(1));
        let b = ControlTree::random(50, 6, &RngFactory::new(1));
        let c = ControlTree::random(50, 6, &RngFactory::new(2));
        for i in 0..50u32 {
            assert_eq!(a.parent(NodeId(i)), b.parent(NodeId(i)));
        }
        assert!((0..50u32).any(|i| a.parent(NodeId(i)) != c.parent(NodeId(i))));
    }

    #[test]
    fn depth_and_height_consistent() {
        let tree = ControlTree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(3)),
        ]);
        assert_eq!(tree.depth(NodeId(0)), 0);
        assert_eq!(tree.depth(NodeId(4)), 3);
        assert_eq!(tree.members().map(|n| tree.depth(n)).max(), Some(3));
        assert!(tree.children(NodeId(4)).is_empty());
        assert!(!tree.children(NodeId(1)).is_empty());
        assert_eq!(tree.subtree_size(NodeId(1)), 3);
    }

    #[test]
    fn rooted_tree_spans_its_member_range_only() {
        let rng = RngFactory::new(21);
        let tree = ControlTree::random_rooted(NodeId(32), 32, 4, &rng);
        assert_eq!(tree.len(), 32);
        assert_eq!(tree.root(), NodeId(32));
        assert!(tree.parent(NodeId(32)).is_none());
        assert_eq!(tree.subtree_size(tree.root()), 32);
        for node in tree.members() {
            assert!(tree.contains(node));
            assert!(node.0 >= 32 && node.0 < 64);
            for &c in tree.children(node) {
                assert!(c.0 >= 32 && c.0 < 64, "children stay in range");
            }
            if node != tree.root() {
                let p = tree.parent(node).expect("non-root has a parent");
                assert!(p.0 >= 32 && p.0 < 64, "parents stay in range");
            }
        }
        assert!(!tree.contains(NodeId(0)));
        assert!(!tree.contains(NodeId(64)));
        // Trees at different bases are shaped independently (distinct RNG
        // streams), and deterministically per base.
        let a = ControlTree::random_rooted(NodeId(0), 32, 4, &RngFactory::new(21));
        let again = ControlTree::random_rooted(NodeId(32), 32, 4, &RngFactory::new(21));
        assert!(
            (0..32u32).any(|i| {
                a.parent(NodeId(i)).map(|p| p.0) != tree.parent(NodeId(32 + i)).map(|p| p.0 - 32)
            }),
            "different bases should draw different shapes"
        );
        for node in tree.members() {
            assert_eq!(tree.parent(node), again.parent(node));
        }
    }

    #[test]
    #[should_panic(expected = "not a member of this tree")]
    fn out_of_range_lookup_rejected() {
        let tree = ControlTree::random_rooted(NodeId(10), 4, 2, &RngFactory::new(3));
        tree.parent(NodeId(2));
    }

    #[test]
    fn degree_one_tree_is_a_chain() {
        let tree = ControlTree::random(10, 1, &RngFactory::new(9));
        assert_eq!(tree.members().map(|n| tree.depth(n)).max(), Some(9));
        for i in 0..10u32 {
            assert!(tree.children(NodeId(i)).len() <= 1);
        }
    }

    #[test]
    #[should_panic(expected = "does not reach every node")]
    fn disconnected_tree_rejected() {
        ControlTree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(3)),
            Some(NodeId(2)),
        ]);
    }
}
