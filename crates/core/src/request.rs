//! The request strategy (paper §2.4, §3.3.2).
//!
//! A receiver keeps, per sender, the list of blocks that sender has
//! advertised and the receiver still needs, plus a global map of requests
//! currently outstanding anywhere. When a request slot opens towards a
//! sender, the strategy orders that sender's candidates and picks the head of
//! the list:
//!
//! * **first-encountered** — discovery order (the strawman; leads to low
//!   block diversity);
//! * **random** — uniformly random order;
//! * **rarest** — fewest advertising senders first, deterministic tie-break;
//! * **rarest-random** — fewest advertising senders first, ties broken
//!   uniformly at random (Bullet′'s default).
//!
//! A block is requested from at most one sender at a time; requests that stay
//! outstanding past a generous timeout are released so another sender can
//! provide the block (the paper notes that cancelling in-flight blocks is
//! impractical, so the timeout is insurance against pathological stalls, not
//! an optimisation).

use std::collections::BTreeMap;

use desim::{SimDuration, SimTime};
use dissem_codec::{BlockBitmap, BlockId};
use netsim::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::RequestStrategy;

/// Per-sender availability bookkeeping.
#[derive(Debug, Clone)]
struct SenderAvailability {
    /// Blocks in the order their availability was discovered (what preserves
    /// the first-encountered semantics and the RNG-keyed candidate order).
    order: Vec<BlockId>,
    /// Membership bitmap for O(1) lookups and word-level counting.
    bits: BlockBitmap,
    /// Number of `in_flight` entries addressed to this sender. Every such
    /// entry names a registered sender — requests are only issued to one, and
    /// removing a sender releases its requests — so the count lives and dies
    /// with this record.
    outstanding: usize,
}

impl SenderAvailability {
    fn new(block_space: u32) -> Self {
        SenderAvailability {
            order: Vec::new(),
            bits: BlockBitmap::new(block_space),
            outstanding: 0,
        }
    }
}

/// A request currently outstanding to some sender.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    to: NodeId,
    since: SimTime,
}

/// A candidate under selection, packed so that integer order is the order
/// of `((rarity, draw), block)`: the strategy's key in the top 96 bits, then
/// the block id, which makes the order total. One 16-byte compare per
/// candidate instead of a three-field tuple's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pick(u128);

impl Pick {
    const NONE: Pick = Pick(0);

    fn new((rarity, draw): (u8, u64), block: BlockId) -> Self {
        Pick(u128::from(rarity) << 96 | u128::from(draw) << 32 | u128::from(block.0))
    }

    fn block(self) -> BlockId {
        BlockId(self.0 as u32)
    }
}

/// Selections of up to this many blocks keep their picks on the stack. The
/// measured traffic asks for 1.0–1.1 blocks per call; a larger `count` (a
/// window reopening all at once) pays one allocation.
const STACK_PICKS: usize = 8;

/// At most this many senders are registered at once, so that a block's
/// rarity — the number of registered senders advertising it — fits in a
/// byte. Bullet′ keeps at most [`crate::config::MAX_PEERS`] (25).
const MAX_SENDERS: usize = u8::MAX as usize;

/// Receiver-side request state across all senders.
#[derive(Debug, Clone)]
pub struct RequestManager {
    strategy: RequestStrategy,
    /// Number of senders currently advertising each block: at most the
    /// number registered, which is at most [`MAX_SENDERS`].
    rarity: Vec<u8>,
    available: BTreeMap<NodeId, SenderAvailability>,
    in_flight: BTreeMap<BlockId, InFlight>,
    /// Bitmap mirror of `in_flight`'s keys, for O(1) membership tests and
    /// word-level candidate counting.
    in_flight_bits: BlockBitmap,
}

impl RequestManager {
    /// Creates a manager for a block space of `block_space` ids.
    pub fn new(strategy: RequestStrategy, block_space: u32) -> Self {
        RequestManager {
            strategy,
            rarity: vec![0; block_space as usize],
            available: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            in_flight_bits: BlockBitmap::new(block_space),
        }
    }

    fn block_space(&self) -> u32 {
        self.rarity.len() as u32
    }

    /// The configured strategy.
    pub fn strategy(&self) -> RequestStrategy {
        self.strategy
    }

    /// Registers a new sender with no known availability yet.
    pub fn add_sender(&mut self, peer: NodeId) {
        let space = self.block_space();
        register(&mut self.available, peer, space);
    }

    /// Removes a sender; its advertised blocks stop counting towards rarity
    /// and any requests outstanding to it are released. Returns the released
    /// blocks.
    pub fn remove_sender(&mut self, peer: NodeId) -> Vec<BlockId> {
        if let Some(av) = self.available.remove(&peer) {
            for b in av.bits.iter() {
                unadvertise(&mut self.rarity[b.index()]);
            }
        }
        let released: Vec<BlockId> = self
            .in_flight
            .iter()
            .filter(|(_, f)| f.to == peer)
            .map(|(b, _)| *b)
            .collect();
        for b in &released {
            self.in_flight.remove(b);
            self.in_flight_bits.remove(*b);
        }
        released
    }

    /// Records that `peer` advertised `blocks`. Blocks the receiver already
    /// holds are ignored.
    pub fn on_advertised(&mut self, peer: NodeId, blocks: &[BlockId], have: &BlockBitmap) {
        let space = self.block_space();
        let entry = register(&mut self.available, peer, space);
        for &b in blocks {
            if have.contains(b) || b.index() >= self.rarity.len() {
                continue;
            }
            if entry.bits.insert(b) {
                entry.order.push(b);
                self.rarity[b.index()] += 1;
            }
        }
    }

    /// Records a block arrival (from anywhere): clears its outstanding entry
    /// and drops it from every sender's candidate list.
    pub fn on_block_received(&mut self, block: BlockId) {
        if let Some(f) = self.in_flight.remove(&block) {
            self.in_flight_bits.remove(block);
            self.request_closed(f.to);
        }
        for av in self.available.values_mut() {
            if av.bits.remove(block) {
                unadvertise(&mut self.rarity[block.index()]);
            }
        }
        // `order` vectors are compacted lazily during selection.
    }

    /// Number of blocks `peer` has advertised that we still need and have not
    /// requested anywhere (an estimate of how soon we will run out of
    /// candidates for this sender).
    pub fn useful_candidates(&self, peer: NodeId, have: &BlockBitmap) -> usize {
        // Word-level: |advertised & !have & !in_flight|, a few cache lines
        // instead of a per-block set walk.
        self.available
            .get(&peer)
            .map(|av| {
                av.bits
                    .words()
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| {
                        let h = have.words().get(i).copied().unwrap_or(0);
                        let f = self.in_flight_bits.words().get(i).copied().unwrap_or(0);
                        (a & !h & !f).count_ones() as usize
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Number of requests currently outstanding to `peer`.
    pub fn outstanding_to(&self, peer: NodeId) -> usize {
        self.available.get(&peer).map_or(0, |av| av.outstanding)
    }

    /// Accounts for an `in_flight` entry addressed to `peer` going away.
    fn request_closed(&mut self, peer: NodeId) {
        let av = self
            .available
            .get_mut(&peer)
            .expect("an outstanding request names a registered sender");
        av.outstanding -= 1;
    }

    /// Total number of requests outstanding anywhere.
    pub fn outstanding_total(&self) -> usize {
        self.in_flight.len()
    }

    /// Chooses up to `count` blocks to request from `peer`, marks them
    /// outstanding and returns them in request order: the `count` smallest
    /// `(key, block)` among the sender's candidates, ascending.
    ///
    /// One pass over the sender's discovery list does all of it: blocks that
    /// arrived or left the set are compacted away, and every remaining block
    /// not in flight is keyed — one RNG draw per candidate, in discovery
    /// order, for the two random strategies, exactly as a full sort of the
    /// candidates would draw them — and offered to a `count`-long ascending
    /// buffer. First-encountered keys a candidate by its position, so the
    /// same buffer keeps the first `count`.
    pub fn select_requests(
        &mut self,
        peer: NodeId,
        count: usize,
        have: &BlockBitmap,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Vec<BlockId> {
        let Some(av) = self.available.get_mut(&peer) else {
            return Vec::new();
        };
        // No more picks than there are blocks to pick from.
        let count = count.min(av.order.len());
        if count == 0 {
            return Vec::new();
        }
        let mut on_stack = [Pick::NONE; STACK_PICKS];
        let mut on_heap = Vec::new();
        let picks: &mut [Pick] = if count <= STACK_PICKS {
            &mut on_stack[..count]
        } else {
            on_heap.resize(count, Pick::NONE);
            &mut on_heap
        };
        let mut picked = 0;

        let strategy = self.strategy;
        let (bits, in_flight, rarity) = (&av.bits, &self.in_flight_bits, &self.rarity);
        let mut position = 0u64;
        av.order.retain(|&b| {
            if !bits.contains(b) || have.contains(b) {
                return false;
            }
            if !in_flight.contains(b) {
                let key = match strategy {
                    RequestStrategy::FirstEncountered => {
                        position += 1;
                        (0, position)
                    }
                    RequestStrategy::Random => (0, rng.gen()),
                    RequestStrategy::Rarest => (rarity[b.index()], 0),
                    RequestStrategy::RarestRandom => (rarity[b.index()], rng.gen()),
                };
                picked = offer(picks, picked, Pick::new(key, b));
            }
            true
        });

        let chosen: Vec<BlockId> = picks[..picked].iter().map(|p| p.block()).collect();
        for &b in &chosen {
            let request = InFlight {
                to: peer,
                since: now,
            };
            if self.in_flight.insert(b, request).is_none() {
                av.outstanding += 1;
            }
            self.in_flight_bits.insert(b);
        }
        chosen
    }

    /// Releases requests that have been outstanding longer than `timeout`, so
    /// the blocks become eligible for re-requesting from other senders.
    /// Returns `(sender, block)` pairs for the released requests.
    pub fn release_stale(&mut self, now: SimTime, timeout: SimDuration) -> Vec<(NodeId, BlockId)> {
        let mut released = Vec::new();
        self.in_flight.retain(|&block, f| {
            if now.saturating_since(f.since) >= timeout {
                released.push((f.to, block));
                false
            } else {
                true
            }
        });
        for &(to, b) in &released {
            self.in_flight_bits.remove(b);
            self.request_closed(to);
        }
        released
    }
}

/// `peer`'s record in `available`, registering it if it is new: the one
/// place a sender is registered.
///
/// # Panics
///
/// Panics if [`MAX_SENDERS`] senders are registered already.
fn register(
    available: &mut BTreeMap<NodeId, SenderAvailability>,
    peer: NodeId,
    block_space: u32,
) -> &mut SenderAvailability {
    let registered = available.len();
    available.entry(peer).or_insert_with(|| {
        assert!(
            registered < MAX_SENDERS,
            "at most {MAX_SENDERS} senders, so that a rarity fits in a byte"
        );
        SenderAvailability::new(block_space)
    })
}

/// Takes one advertising sender off a block's rarity. Every decrement
/// undoes an increment made when that sender's advertisement was recorded,
/// so the count cannot already be zero.
fn unadvertise(rarity: &mut u8) {
    debug_assert!(*rarity > 0, "a rarity decrement without its increment");
    *rarity -= 1;
}

/// Offers `item` to a bounded ascending buffer: `picks[..len]` holds the
/// smallest items offered so far, at most `picks.len()` (≥ 1) of them.
/// Returns the new `len`.
fn offer(picks: &mut [Pick], mut len: usize, item: Pick) -> usize {
    if len == picks.len() {
        if item >= picks[len - 1] {
            return len;
        }
        len -= 1;
    }
    let at = picks[..len].partition_point(|p| *p < item);
    picks.copy_within(at..len, at + 1);
    picks[at] = item;
    len + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn ids(v: &[u32]) -> Vec<BlockId> {
        v.iter().copied().map(BlockId).collect()
    }

    #[test]
    fn first_encountered_respects_discovery_order() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 100);
        let have = BlockBitmap::new(100);
        rm.add_sender(NodeId(1));
        rm.on_advertised(NodeId(1), &ids(&[5, 3, 9]), &have);
        rm.on_advertised(NodeId(1), &ids(&[1]), &have);
        let got = rm.select_requests(NodeId(1), 3, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[5, 3, 9]));
    }

    #[test]
    fn rarest_prefers_under_replicated_blocks() {
        let mut rm = RequestManager::new(RequestStrategy::Rarest, 100);
        let have = BlockBitmap::new(100);
        for p in 1..=3u32 {
            rm.add_sender(NodeId(p));
        }
        // Block 7 is advertised by all three peers; block 8 by two; block 9 by one.
        rm.on_advertised(NodeId(1), &ids(&[7, 8, 9]), &have);
        rm.on_advertised(NodeId(2), &ids(&[7, 8]), &have);
        rm.on_advertised(NodeId(3), &ids(&[7]), &have);
        let got = rm.select_requests(NodeId(1), 3, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[9, 8, 7]));
    }

    #[test]
    fn rarest_random_breaks_ties_randomly_but_respects_rarity() {
        let mut rm = RequestManager::new(RequestStrategy::RarestRandom, 1000);
        let have = BlockBitmap::new(1000);
        rm.add_sender(NodeId(1));
        rm.add_sender(NodeId(2));
        // 50 blocks with rarity 2, one block (999) with rarity 1.
        let common: Vec<u32> = (0..50).collect();
        rm.on_advertised(NodeId(1), &ids(&common), &have);
        rm.on_advertised(NodeId(2), &ids(&common), &have);
        rm.on_advertised(NodeId(1), &ids(&[999]), &have);
        let got = rm.select_requests(NodeId(1), 1, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[999]), "the uniquely rare block goes first");

        // Tie-break randomness: two fresh managers with different RNG seeds
        // pick different heads among equally-rare blocks.
        let pick = |seed: u64| -> BlockId {
            let mut rm = RequestManager::new(RequestStrategy::RarestRandom, 1000);
            let have = BlockBitmap::new(1000);
            rm.add_sender(NodeId(1));
            rm.on_advertised(NodeId(1), &ids(&common), &have);
            let mut r = StdRng::seed_from_u64(seed);
            rm.select_requests(NodeId(1), 1, &have, SimTime::ZERO, &mut r)[0]
        };
        let picks: std::collections::HashSet<u32> = (0..20).map(|s| pick(s).0).collect();
        assert!(
            picks.len() > 3,
            "random tie-break should spread choices, got {picks:?}"
        );
    }

    #[test]
    fn blocks_are_not_double_requested_across_senders() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1));
        rm.add_sender(NodeId(2));
        rm.on_advertised(NodeId(1), &ids(&[0, 1, 2]), &have);
        rm.on_advertised(NodeId(2), &ids(&[0, 1, 2]), &have);
        let a = rm.select_requests(NodeId(1), 2, &have, SimTime::ZERO, &mut rng());
        let b = rm.select_requests(NodeId(2), 3, &have, SimTime::ZERO, &mut rng());
        assert_eq!(a, ids(&[0, 1]));
        assert_eq!(
            b,
            ids(&[2]),
            "blocks outstanding to peer 1 must not be re-requested"
        );
        assert_eq!(rm.outstanding_to(NodeId(1)), 2);
        assert_eq!(rm.outstanding_to(NodeId(2)), 1);
        assert_eq!(rm.outstanding_total(), 3);
    }

    #[test]
    fn received_and_already_held_blocks_are_skipped() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 10);
        let mut have = BlockBitmap::new(10);
        have.insert(BlockId(0));
        rm.add_sender(NodeId(1));
        rm.on_advertised(NodeId(1), &ids(&[0, 1, 2]), &have);
        rm.on_block_received(BlockId(1));
        let mut have2 = have.clone();
        have2.insert(BlockId(1));
        let got = rm.select_requests(NodeId(1), 5, &have2, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[2]));
    }

    #[test]
    fn removing_a_sender_releases_its_outstanding_requests() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1));
        rm.add_sender(NodeId(2));
        rm.on_advertised(NodeId(1), &ids(&[0, 1]), &have);
        rm.on_advertised(NodeId(2), &ids(&[0, 1]), &have);
        let _ = rm.select_requests(NodeId(1), 2, &have, SimTime::ZERO, &mut rng());
        let released = rm.remove_sender(NodeId(1));
        assert_eq!(released.len(), 2);
        assert_eq!(rm.outstanding_total(), 0);
        // Blocks can now be requested from the other sender.
        let got = rm.select_requests(NodeId(2), 2, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got.len(), 2);
        assert!(!rm.available.contains_key(&NodeId(1)));
    }

    #[test]
    fn stale_requests_are_released_after_timeout() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1));
        rm.on_advertised(NodeId(1), &ids(&[0]), &have);
        let _ = rm.select_requests(NodeId(1), 1, &have, SimTime::ZERO, &mut rng());
        let none = rm.release_stale(SimTime::from_secs_f64(5.0), SimDuration::from_secs(30));
        assert!(none.is_empty());
        let released = rm.release_stale(SimTime::from_secs_f64(31.0), SimDuration::from_secs(30));
        assert_eq!(released, vec![(NodeId(1), BlockId(0))]);
        assert_eq!(rm.outstanding_total(), 0);
    }

    #[test]
    fn useful_candidates_counts_unrequested_needed_blocks() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1));
        rm.on_advertised(NodeId(1), &ids(&[0, 1, 2, 3]), &have);
        assert_eq!(rm.useful_candidates(NodeId(1), &have), 4);
        let _ = rm.select_requests(NodeId(1), 2, &have, SimTime::ZERO, &mut rng());
        assert_eq!(rm.useful_candidates(NodeId(1), &have), 2);
    }

    #[test]
    fn out_of_range_advertisements_are_ignored() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 4);
        let have = BlockBitmap::new(4);
        rm.add_sender(NodeId(1));
        rm.on_advertised(NodeId(1), &ids(&[2, 9]), &have);
        let got = rm.select_requests(NodeId(1), 5, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[2]));
    }

    #[test]
    #[should_panic(expected = "at most 255 senders")]
    fn a_rarity_fits_in_a_byte_because_senders_are_capped() {
        let mut rm = RequestManager::new(RequestStrategy::RarestRandom, 4);
        let have = BlockBitmap::new(4);
        for p in 0..MAX_SENDERS as u32 {
            rm.on_advertised(NodeId(p), &ids(&[3]), &have);
        }
        assert_eq!(rm.rarity[3], u8::MAX);
        // Re-registering a known sender is not a new registration.
        rm.add_sender(NodeId(0));
        rm.add_sender(NodeId(MAX_SENDERS as u32));
    }

    const STRATEGIES: [RequestStrategy; 4] = [
        RequestStrategy::FirstEncountered,
        RequestStrategy::Random,
        RequestStrategy::Rarest,
        RequestStrategy::RarestRandom,
    ];

    /// `select_requests` as a full sort: the same candidates, the same key
    /// draws in the same order, every candidate ordered by `(key, block)`.
    fn full_sort_reference(
        rm: &RequestManager,
        peer: NodeId,
        count: usize,
        have: &BlockBitmap,
        rng: &mut StdRng,
    ) -> Vec<BlockId> {
        let av = &rm.available[&peer];
        let candidates = av.order.iter().copied().filter(|b| {
            av.bits.contains(*b) && !have.contains(*b) && !rm.in_flight_bits.contains(*b)
        });
        let mut keyed: Vec<((u8, u64), BlockId)> = candidates
            .map(|b| {
                let key = match rm.strategy {
                    RequestStrategy::FirstEncountered => (0, 0),
                    RequestStrategy::Random => (0, rng.gen()),
                    RequestStrategy::Rarest => (rm.rarity[b.index()], 0),
                    RequestStrategy::RarestRandom => (rm.rarity[b.index()], rng.gen()),
                };
                (key, b)
            })
            .collect();
        if rm.strategy != RequestStrategy::FirstEncountered {
            keyed.sort();
        }
        keyed.into_iter().take(count).map(|(_, b)| b).collect()
    }

    /// A manager in a random state: `senders` peers with random overlapping
    /// advertisements, some blocks held, some received since, some already
    /// requested from a random sender.
    fn random_state(
        strategy: RequestStrategy,
        space: u32,
        senders: u32,
        r: &mut StdRng,
    ) -> (RequestManager, BlockBitmap) {
        let mut rm = RequestManager::new(strategy, space);
        let mut have = BlockBitmap::new(space);
        for b in 0..space {
            if r.gen_bool(0.2) {
                have.insert(BlockId(b));
            }
        }
        for p in 1..=senders {
            let advertised: Vec<BlockId> = (0..space)
                .filter(|_| r.gen_bool(0.5))
                .map(BlockId)
                .collect();
            // Two batches, the second shuffled in, so discovery order is not
            // block order.
            let (first, second) = advertised.split_at(advertised.len() / 2);
            rm.on_advertised(NodeId(p), second, &have);
            rm.on_advertised(NodeId(p), first, &have);
        }
        for b in 0..space {
            if !have.contains(BlockId(b)) && r.gen_bool(0.1) {
                have.insert(BlockId(b));
                rm.on_block_received(BlockId(b));
            }
        }
        for _ in 0..r.gen_range(0..4u32) {
            let peer = NodeId(r.gen_range(1..=senders));
            let n = r.gen_range(1..6usize);
            rm.select_requests(peer, n, &have, SimTime::ZERO, r);
        }
        (rm, have)
    }

    #[test]
    fn partial_selection_equals_a_full_sort_on_the_same_key() {
        let mut r = StdRng::seed_from_u64(0x5e1ec7);
        for case in 0..400 {
            let strategy = STRATEGIES[case % 4];
            let space = r.gen_range(1..200u32);
            let senders = r.gen_range(1..5u32);
            let (mut rm, have) = random_state(strategy, space, senders, &mut r);
            let peer = NodeId(r.gen_range(1..=senders));
            let count = r.gen_range(1..12usize);

            let seed = r.gen::<u64>();
            let mut ref_rng = StdRng::seed_from_u64(seed);
            let want = full_sort_reference(&rm, peer, count, &have, &mut ref_rng);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = rm.select_requests(peer, count, &have, SimTime::ZERO, &mut rng);

            assert_eq!(got, want, "{strategy:?}, case {case}");
            assert_eq!(
                rng.gen::<u64>(),
                ref_rng.gen::<u64>(),
                "{strategy:?}, case {case}: a different number of RNG draws"
            );
        }
    }

    /// The same oracle where the bounded buffer is not the common case: a
    /// `count` that meets or exceeds the candidates, and one up to the default
    /// `max_outstanding` (past `STACK_PICKS`). Also the compaction
    /// post-condition: the discovery list afterwards is the old one filtered
    /// by `advertised ∧ ¬have`, order kept, in-flight blocks included.
    #[test]
    fn selection_equals_a_full_sort_when_count_covers_the_candidates_or_the_window() {
        let mut r = StdRng::seed_from_u64(0xc0_ffee);
        for case in 0..400 {
            let strategy = STRATEGIES[case % 4];
            let space = r.gen_range(1..200u32);
            let senders = r.gen_range(1..5u32);
            let (mut rm, have) = random_state(strategy, space, senders, &mut r);
            let peer = NodeId(r.gen_range(1..=senders));
            let candidates = rm.useful_candidates(peer, &have);
            let count = match (case / 4) % 4 {
                0 => candidates.max(1),
                1 => candidates + 1,
                2 => 50,
                _ => r.gen_range(STACK_PICKS..=50),
            };

            let av = &rm.available[&peer];
            let compacted: Vec<BlockId> = av
                .order
                .iter()
                .copied()
                .filter(|b| av.bits.contains(*b) && !have.contains(*b))
                .collect();
            let seed = r.gen::<u64>();
            let mut ref_rng = StdRng::seed_from_u64(seed);
            let want = full_sort_reference(&rm, peer, count, &have, &mut ref_rng);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = rm.select_requests(peer, count, &have, SimTime::ZERO, &mut rng);

            assert_eq!(got, want, "{strategy:?}, case {case}, count {count}");
            assert_eq!(
                got.len(),
                count.min(candidates),
                "{strategy:?}, case {case}"
            );
            assert_eq!(
                rng.gen::<u64>(),
                ref_rng.gen::<u64>(),
                "{strategy:?}, case {case}: a different number of RNG draws"
            );
            assert_eq!(
                rm.available[&peer].order, compacted,
                "{strategy:?}, case {case}: compaction"
            );
        }
    }

    #[test]
    fn per_sender_outstanding_count_matches_a_scan_of_in_flight() {
        let mut r = StdRng::seed_from_u64(0x0075_7a4d);
        for case in 0..60 {
            let space = 64;
            let senders = 4u32;
            let mut rm = RequestManager::new(STRATEGIES[case % 4], space);
            let mut have = BlockBitmap::new(space);
            let mut now = SimTime::ZERO;
            for _ in 0..200 {
                now += SimDuration::from_secs(1);
                let peer = NodeId(r.gen_range(1..=senders));
                let block = BlockId(r.gen_range(0..space));
                match r.gen_range(0..6u32) {
                    0 => {
                        let blocks: Vec<BlockId> = (0..space)
                            .filter(|_| r.gen_bool(0.3))
                            .map(BlockId)
                            .collect();
                        rm.on_advertised(peer, &blocks, &have);
                    }
                    1 | 2 => {
                        let n = r.gen_range(0..5usize);
                        rm.select_requests(peer, n, &have, now, &mut r);
                    }
                    3 => {
                        have.insert(block);
                        rm.on_block_received(block);
                    }
                    4 => {
                        rm.release_stale(now, SimDuration::from_secs(r.gen_range(5..40u64)));
                    }
                    _ => {
                        rm.remove_sender(peer);
                        if r.gen_bool(0.5) {
                            rm.add_sender(peer);
                        }
                    }
                }
                let mut total = 0;
                for p in 0..=senders + 1 {
                    let scanned = rm.in_flight.values().filter(|f| f.to == NodeId(p)).count();
                    assert_eq!(
                        rm.outstanding_to(NodeId(p)),
                        scanned,
                        "case {case}, peer {p}"
                    );
                    total += scanned;
                }
                assert_eq!(rm.outstanding_total(), total);
            }
        }
    }
}
