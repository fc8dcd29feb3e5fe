//! Node builders for whole Bullet′ deployments.
//!
//! The experiment harness, the examples and the baselines all need the same
//! two steps: build a control tree over the topology and instantiate one
//! protocol node per member. This module packages those steps; the harness's
//! `Workload::runner` hands the nodes to the runner.

use desim::RngFactory;
use netsim::{Network, NodeId, Runner, Topology};
use overlay::ControlTree;

use crate::config::Config;
use crate::node::BulletPrimeNode;

/// Default fan-out of the control tree (the source pushes fresh blocks to
/// this many direct children).
pub const CONTROL_TREE_DEGREE: usize = 10;

/// Builds a Bullet′ deployment over `topo`: a random control tree rooted at
/// node 0 and one [`BulletPrimeNode`] per host, all sharing `cfg`.
pub fn build_nodes(topo: &Topology, cfg: &Config, rng: &RngFactory) -> Vec<BulletPrimeNode> {
    let tree = ControlTree::random(topo.len(), CONTROL_TREE_DEGREE, rng);
    build_nodes_with_tree(topo, &tree, cfg)
}

/// Builds one [`BulletPrimeNode`] per host over an explicit control tree.
pub fn build_nodes_with_tree(
    topo: &Topology,
    tree: &ControlTree,
    cfg: &Config,
) -> Vec<BulletPrimeNode> {
    assert_eq!(
        tree.len(),
        topo.len(),
        "control tree and topology sizes differ"
    );
    tree_nodes(tree, cfg)
}

/// One [`BulletPrimeNode`] per member of `tree`, root first, all under
/// `cfg`.
pub(crate) fn tree_nodes(tree: &ControlTree, cfg: &Config) -> Vec<BulletPrimeNode> {
    tree.members()
        .map(|id| BulletPrimeNode::new(id, tree, cfg.clone()))
        .collect()
}

/// Builds a ready-to-run [`Runner`] for a Bullet′ experiment on `topo`:
/// [`build_nodes`] handed to [`Runner::new`]. The harness assembles a closed
/// run from [`build_nodes`] in `Workload::runner`; this runner is for the
/// callers that hold no workload: the quickstart example, the service slot
/// pool, and the benchmark harness (`benchmark/src/workloads.rs`), whose
/// self-test checks its spelled-out set-up against this one.
///
/// The source (node 0) holds the file, so it is complete from t = 0 and
/// [`Runner::run`] stops once every *receiver* finishes. It is also the slot
/// pool of a service run, whose placeholder nodes are never initialised:
/// [`run_service`](netsim::run_service) deactivates every slot and installs
/// each cohort's nodes itself.
pub fn build_runner(topo: Topology, cfg: &Config, rng: &RngFactory) -> Runner<BulletPrimeNode> {
    let nodes = build_nodes(&topo, cfg, rng);
    Runner::new(Network::new(topo), nodes, rng)
}

/// Builds the nodes of **several concurrent, independent Bullet′ meshes**
/// on one topology: `group_sizes` partitions the node ids into contiguous
/// groups, each with its own control tree, RanSub overlay and source (the
/// group's first id). The meshes never exchange control or data traffic —
/// they only contend for the emulated links, which is exactly what the
/// shared-bottleneck scenarios (`fig18`) measure. Every group's source holds
/// the file, so it is complete from t = 0.
///
/// # Panics
///
/// Panics if the group sizes do not sum to the topology size or any group
/// has fewer than two nodes.
pub fn build_group_nodes(
    topo: &Topology,
    cfg: &Config,
    rng: &RngFactory,
    group_sizes: &[usize],
) -> Vec<BulletPrimeNode> {
    assert_eq!(
        group_sizes.iter().sum::<usize>(),
        topo.len(),
        "group sizes must partition the topology"
    );
    let mut nodes = Vec::with_capacity(topo.len());
    let mut base = 0u32;
    for &size in group_sizes {
        assert!(size >= 2, "every mesh needs a source and a receiver");
        let tree = ControlTree::random_rooted(NodeId(base), size, CONTROL_TREE_DEGREE, rng);
        nodes.extend(tree_nodes(&tree, cfg));
        base += size as u32;
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Role;
    use dissem_codec::FileSpec;
    use netsim::topology;

    #[test]
    fn builder_assigns_exactly_one_source() {
        let rng = RngFactory::new(7);
        let topo = topology::constrained_access(12);
        let cfg = Config::new(FileSpec::new(256 * 1024, 16 * 1024));
        let nodes = build_nodes(&topo, &cfg, &rng);
        assert_eq!(nodes.len(), 12);
        let sources = nodes.iter().filter(|n| n.role() == Role::Source).count();
        assert_eq!(sources, 1);
        assert_eq!(nodes[0].role(), Role::Source);
    }

    #[test]
    fn group_runner_partitions_into_independent_meshes() {
        let rng = RngFactory::new(5);
        let topo = topology::constrained_access(10);
        let cfg = Config::new(FileSpec::new(128 * 1024, 16 * 1024));
        let nodes = build_group_nodes(&topo, &cfg, &rng, &[6, 4]);
        assert_eq!(nodes.len(), 10);
        // Exactly the first node of each group is a source.
        for (i, node) in nodes.iter().enumerate() {
            let expected = if i == 0 || i == 6 {
                Role::Source
            } else {
                Role::Receiver
            };
            assert_eq!(node.role(), expected, "node {i}");
        }
    }

    #[test]
    #[should_panic(expected = "partition the topology")]
    fn group_sizes_must_cover_the_topology() {
        let rng = RngFactory::new(5);
        let topo = topology::constrained_access(10);
        let cfg = Config::new(FileSpec::new(64 * 1024, 16 * 1024));
        let _ = build_group_nodes(&topo, &cfg, &rng, &[6, 5]);
    }

    #[test]
    #[should_panic(expected = "sizes differ")]
    fn mismatched_tree_is_rejected() {
        let rng = RngFactory::new(7);
        let topo = topology::constrained_access(5);
        let tree = ControlTree::random(6, 3, &rng);
        let cfg = Config::new(FileSpec::new(64 * 1024, 16 * 1024));
        let _ = build_nodes_with_tree(&topo, &tree, &cfg);
    }
}
