//! `overlay` — the control-plane substrate shared by Bullet and Bullet′.
//!
//! Two pieces live here:
//!
//! * [`tree`] — the random overlay **control tree** used for joining the
//!   system and carrying control information (paper §3.1, step 1);
//! * [`ransub`] — **RanSub**, the decentralized protocol that periodically
//!   delivers changing, uniformly random subsets of node summaries to every
//!   participant over that tree (paper §3.2.2), which the peering strategies
//!   use to discover candidate senders and receivers.
//!
//! Both are transport-agnostic libraries: the dissemination protocols embed
//! them and map the emitted actions onto their own control messages.

#![forbid(unsafe_code)]

pub mod ransub;
pub mod tree;

pub use ransub::{merge_samples, NodeSummary, RanSubAgent, RanSubEmit, Sample};
pub use tree::ControlTree;

#[cfg(test)]
mod proptests {
    use super::*;
    use desim::RngFactory;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        /// Random control trees are always connected, acyclic (by
        /// construction: `n-1` edges + connectivity) and respect the degree cap.
        #[test]
        fn random_trees_well_formed(n in 2usize..120, degree in 1usize..8, seed in any::<u64>()) {
            let tree = ControlTree::random(n, degree, &RngFactory::new(seed));
            prop_assert_eq!(tree.subtree_size(tree.root()), n);
            for i in 0..n as u32 {
                prop_assert!(tree.children(netsim::NodeId(i)).len() <= degree);
            }
            // Every non-root node reaches the root by following parents.
            for i in 1..n as u32 {
                prop_assert!(tree.depth(netsim::NodeId(i)) <= n);
            }
        }

        /// Sample merging never exceeds the target size, never invents nodes,
        /// never duplicates a node, and sums the weights.
        #[test]
        fn merge_samples_invariants(
            sizes in proptest::collection::vec(1u32..40, 1..6),
            target in 1usize..20,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut groups = Vec::new();
            let mut next_node = 0u32;
            for (gi, sz) in sizes.iter().enumerate() {
                let entries: Vec<NodeSummary> = (0..*sz).map(|_| {
                    let s = NodeSummary { node: next_node, have_count: gi as u32, has_everything: false };
                    next_node += 1;
                    s
                }).collect();
                groups.push(Sample { entries, weight: *sz });
            }
            let merged = merge_samples(&mut rng, target, &groups);
            prop_assert!(merged.entries.len() <= target);
            prop_assert_eq!(merged.weight, sizes.iter().sum::<u32>());
            let mut seen = std::collections::HashSet::new();
            for e in &merged.entries {
                prop_assert!(e.node < next_node, "merge invented a node");
                prop_assert!(seen.insert(e.node), "merge duplicated a node");
            }
        }
    }
}
