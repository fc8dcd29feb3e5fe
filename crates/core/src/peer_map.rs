//! The node's peer tables: a map keyed by [`NodeId`] that holds only its
//! entries.
//!
//! A Bullet′ node keeps a handful of senders and receivers (at most
//! [`crate::config::MAX_PEERS`] each), and its tables change far less often
//! than they are read. A `BTreeMap` spends an 11-slot leaf on five entries;
//! [`PeerMap`] is one vector of `(peer, value)` pairs sorted by peer, whose
//! capacity equals its length, and it iterates in the `BTreeMap`'s ascending
//! order.

use netsim::NodeId;

/// A sorted-vector map from peer to `V` with capacity equal to length.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct PeerMap<V> {
    entries: Vec<(NodeId, V)>,
}

impl<V> PeerMap<V> {
    pub(crate) fn new() -> Self {
        PeerMap {
            entries: Vec::new(),
        }
    }

    /// `Ok(index)` of `peer`'s entry, or `Err(index)` where it would go.
    fn find(&self, peer: NodeId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&peer, |&(p, _)| p)
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn contains_key(&self, peer: NodeId) -> bool {
        self.get(peer).is_some()
    }

    pub(crate) fn get(&self, peer: NodeId) -> Option<&V> {
        self.find(peer).ok().map(|i| &self.entries[i].1)
    }

    pub(crate) fn get_mut(&mut self, peer: NodeId) -> Option<&mut V> {
        self.find(peer).ok().map(|i| &mut self.entries[i].1)
    }

    /// `peer`'s value, inserting `make()` first if it has none.
    pub(crate) fn get_or_insert_with(&mut self, peer: NodeId, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(peer) {
            Ok(i) => i,
            Err(i) => {
                self.entries.reserve_exact(1);
                self.entries.insert(i, (peer, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    pub(crate) fn remove(&mut self, peer: NodeId) -> Option<V> {
        let i = self.find(peer).ok()?;
        let (_, value) = self.entries.remove(i);
        self.entries.shrink_to_fit();
        Some(value)
    }

    /// The entries in ascending peer order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.entries.iter().map(|(p, v)| (*p, v))
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut V)> {
        self.entries.iter_mut().map(|(p, v)| (*p, v))
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(p, _)| p)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Random inserts, updates, removes, lookups and walks agree with a
    /// `BTreeMap`, and the map's capacity equals its length after every step.
    #[test]
    fn a_peer_map_behaves_as_a_btree_map_with_capacity_equal_to_length() {
        let mut r = StdRng::seed_from_u64(0x9ee5);
        for case in 0..40 {
            let mut map: PeerMap<u64> = PeerMap::new();
            let mut reference: BTreeMap<NodeId, u64> = BTreeMap::new();
            let keys = r.gen_range(1..40u32);
            for step in 0..400 {
                let peer = NodeId(r.gen_range(0..keys));
                let value = r.gen::<u64>();
                match r.gen_range(0..6u32) {
                    0..=2 => {
                        let got = *map.get_or_insert_with(peer, || value);
                        assert_eq!(got, *reference.entry(peer).or_insert(value));
                    }
                    3 => assert_eq!(map.remove(peer), reference.remove(&peer)),
                    4 => {
                        if let (Some(v), Some(w)) = (map.get_mut(peer), reference.get_mut(&peer)) {
                            *v ^= value;
                            *w ^= value;
                        }
                    }
                    _ => {
                        map.iter_mut().for_each(|(_, v)| *v = v.wrapping_add(1));
                        reference.values_mut().for_each(|v| *v = v.wrapping_add(1));
                    }
                }
                let at = format!("case {case}, step {step}");
                assert_eq!(map.len(), reference.len(), "{at}");
                assert_eq!(map.entries.capacity(), map.len(), "{at}: capacity");
                assert_eq!(
                    map.contains_key(peer),
                    reference.contains_key(&peer),
                    "{at}"
                );
                assert_eq!(map.get(peer), reference.get(&peer), "{at}");
                let walked: Vec<(NodeId, u64)> = map.iter().map(|(p, &v)| (p, v)).collect();
                let want: Vec<(NodeId, u64)> = reference.iter().map(|(&p, &v)| (p, v)).collect();
                assert_eq!(walked, want, "{at}: iteration order");
                assert!(map.keys().eq(reference.keys().copied()), "{at}");
                assert!(map.values().eq(reference.values()), "{at}");
                assert!(map.iter_mut().map(|(p, v)| (p, *v)).eq(want), "{at}");
                assert_eq!(map.clone().entries.capacity(), map.len(), "{at}: a clone");
            }
        }
    }
}
