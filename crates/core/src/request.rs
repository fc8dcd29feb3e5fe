//! A receiver's senders and its request strategy (paper §3.3.2–3.3.3).
//!
//! A receiver keeps one record per sender: the blocks that sender has
//! advertised and the receiver still needs, the requests outstanding to it,
//! and the window and delivery rate that decide how many more it is asked
//! for. Across senders it keeps each block's rarity and a map of requests
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
use netsim::{BlockReceipt, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::{OutstandingPolicy, RequestStrategy};
use crate::flow::OutstandingController;
use crate::messages::Msg;
use crate::peer_map::PeerMap;
use crate::peering::PeerObservation;

/// Everything a receiver knows about one of its senders.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
struct Sender {
    /// Blocks in the order their availability was discovered (what preserves
    /// the first-encountered semantics and the RNG-keyed candidate order).
    /// Its capacity is at most 4× its length after every selection.
    order: Vec<BlockId>,
    /// Membership bitmap for O(1) lookups and word-level counting.
    bits: BlockBitmap,
    /// Number of `in_flight` entries addressed to this sender. Every such
    /// entry names a registered sender — requests are only issued to one, and
    /// removing a sender releases its requests — so the count lives and dies
    /// with this record.
    outstanding: usize,
    /// How many requests to keep outstanding to this sender (§3.3.3).
    ctl: OutstandingController,
    /// Bytes received from this sender since the last RanSub epoch.
    bytes_since_epoch: u64,
    /// Exponentially weighted delivery-rate estimate (bytes/second).
    ewma_rate: f64,
    last_arrival: Option<SimTime>,
    /// True if we already asked for a diff and have not received one since.
    diff_requested: bool,
}

impl Sender {
    fn new(policy: OutstandingPolicy, block_space: u32) -> Self {
        Sender {
            order: Vec::new(),
            bits: BlockBitmap::new(block_space),
            outstanding: 0,
            ctl: OutstandingController::new(policy),
            bytes_since_epoch: 0,
            ewma_rate: 1_000.0,
            last_arrival: None,
            diff_requested: false,
        }
    }

    /// Adds `blocks`, in the order given, to what this sender offers. Blocks
    /// the receiver already holds are ignored.
    fn advertise(
        &mut self,
        blocks: impl IntoIterator<Item = BlockId>,
        have: &BlockBitmap,
        rarity: &mut [u8],
    ) {
        for b in blocks {
            if have.contains(b) || b.index() >= rarity.len() {
                continue;
            }
            if self.bits.insert(b) {
                self.order.push(b);
                rarity[b.index()] += 1;
            }
        }
    }

    /// Accounts for a block that arrived from this sender: its rate
    /// estimate, its epoch bytes and its window.
    fn on_arrival(&mut self, now: SimTime, receipt: &BlockReceipt, block_size: f64) {
        if let Some(last) = self.last_arrival {
            let dt = (now - last).as_secs_f64();
            if dt > 1e-6 {
                let inst = receipt.bytes as f64 / dt;
                self.ewma_rate = 0.7 * self.ewma_rate + 0.3 * inst;
            }
        }
        self.last_arrival = Some(now);
        self.bytes_since_epoch += receipt.bytes;
        self.ctl.on_block_received(
            receipt.block,
            receipt.in_front,
            receipt.wasted,
            self.ewma_rate,
            block_size,
            self.outstanding as u32,
        );
    }
}

/// A request currently outstanding to some sender.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
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

/// A receiver's senders and the request state they share.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct RequestManager {
    /// The window policy a new sender's controller starts with.
    policy: OutstandingPolicy,
    /// One record per registered sender, in ascending peer order.
    senders: PeerMap<Sender>,
    pool: Pool,
}

/// What every sender's selection reads: the strategy, each block's rarity
/// and the requests in flight anywhere.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
struct Pool {
    strategy: RequestStrategy,
    /// Number of senders currently advertising each block: at most the
    /// number registered, which is at most [`MAX_SENDERS`].
    rarity: Vec<u8>,
    in_flight: BTreeMap<BlockId, InFlight>,
    /// Bitmap mirror of `in_flight`'s keys, for O(1) membership tests and
    /// word-level candidate counting.
    in_flight_bits: BlockBitmap,
}

impl RequestManager {
    /// Creates a manager for a block space of `block_space` ids, whose
    /// senders' windows follow `policy`.
    pub fn new(strategy: RequestStrategy, policy: OutstandingPolicy, block_space: u32) -> Self {
        RequestManager {
            policy,
            senders: PeerMap::new(),
            pool: Pool {
                strategy,
                rarity: vec![0; block_space as usize],
                in_flight: BTreeMap::new(),
                in_flight_bits: BlockBitmap::new(block_space),
            },
        }
    }

    /// True if `peer` is a registered sender.
    pub fn is_sender(&self, peer: NodeId) -> bool {
        self.senders.contains_key(peer)
    }

    /// Number of registered senders.
    pub fn sender_count(&self) -> usize {
        self.senders.len()
    }

    /// The registered senders, in ascending order.
    pub fn senders(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.senders.keys()
    }

    /// Registers `peer` as a sender offering `offered` (a `PeerAccept`'s
    /// bitmap, in ascending order). Returns false, and changes nothing, if
    /// it is registered already.
    ///
    /// # Panics
    ///
    /// Panics if 255 senders are registered already, so that a block's
    /// rarity fits in a byte.
    pub fn add_sender(
        &mut self,
        peer: NodeId,
        offered: impl IntoIterator<Item = BlockId>,
        have: &BlockBitmap,
    ) -> bool {
        if self.senders.contains_key(peer) {
            return false;
        }
        assert!(
            self.senders.len() < MAX_SENDERS,
            "at most {MAX_SENDERS} senders, so that a rarity fits in a byte"
        );
        let block_space = self.pool.rarity.len() as u32;
        self.senders
            .get_or_insert_with(peer, || Sender::new(self.policy, block_space))
            .advertise(offered, have, &mut self.pool.rarity);
        true
    }

    /// Removes a sender; its advertised blocks stop counting towards rarity
    /// and any requests outstanding to it are released. Returns false if it
    /// was not registered.
    pub fn remove_sender(&mut self, peer: NodeId) -> bool {
        let Some(s) = self.senders.remove(peer) else {
            return false;
        };
        for b in s.bits.iter() {
            unadvertise(&mut self.pool.rarity[b.index()]);
        }
        let in_flight_bits = &mut self.pool.in_flight_bits;
        self.pool.in_flight.retain(|&b, f| {
            if f.to == peer {
                in_flight_bits.remove(b);
            }
            f.to != peer
        });
        true
    }

    /// Records a `Diff` from `peer`: it advertised `blocks`, in the order
    /// given, and may be asked for a diff again. Blocks the receiver already
    /// holds are ignored. Returns false, and changes nothing, if `peer` is
    /// not a registered sender.
    pub fn on_advertised(
        &mut self,
        peer: NodeId,
        blocks: impl IntoIterator<Item = BlockId>,
        have: &BlockBitmap,
    ) -> bool {
        let Some(s) = self.senders.get_mut(peer) else {
            return false;
        };
        s.diff_requested = false;
        s.advertise(blocks, have, &mut self.pool.rarity);
        true
    }

    /// Records the arrival of `receipt`'s block from `from`: clears its
    /// outstanding entry, drops it from every sender's candidates and, if
    /// `from` is a sender, accounts for the arrival in its record (rate,
    /// epoch bytes and window; `block_size` is the nominal block size).
    pub fn on_block_received(
        &mut self,
        from: NodeId,
        receipt: &BlockReceipt,
        now: SimTime,
        block_size: f64,
    ) {
        let block = receipt.block;
        let requested_from = self.pool.in_flight.remove(&block).map(|f| f.to);
        self.pool.in_flight_bits.remove(block);
        // One walk over the records does all three; `order` vectors are
        // compacted lazily during selection.
        for (peer, s) in self.senders.iter_mut() {
            if requested_from == Some(peer) {
                s.outstanding -= 1;
            }
            if s.bits.remove(block) {
                unadvertise(&mut self.pool.rarity[block.index()]);
            }
            if peer == from {
                s.on_arrival(now, receipt, block_size);
            }
        }
    }

    /// The request that refills `peer`'s window, if it has room (§3.3.3): a
    /// `BlockRequest` for the blocks the strategy picks, or, when `peer` has
    /// nothing left to offer, one `DiffRequest` until its next diff. `None`
    /// if `peer` is not a registered sender.
    pub fn next_request(
        &mut self,
        peer: NodeId,
        have: &BlockBitmap,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Option<Msg> {
        let s = self.senders.get_mut(peer)?;
        let window = s.ctl.window() as usize;
        if s.outstanding >= window {
            return None;
        }
        let blocks = self
            .pool
            .select(peer, s, window - s.outstanding, have, now, rng);
        if blocks.is_empty() {
            if s.diff_requested || self.pool.useful_candidates(s, have) > 0 {
                return None;
            }
            s.diff_requested = true;
            return Some(Msg::DiffRequest);
        }
        if s.ctl.wants_mark() {
            s.ctl.note_requested(blocks[0]);
        }
        // The total is summed in ascending peer order.
        let incoming: f64 = self.senders.values().map(|s| s.ewma_rate).sum();
        Some(Msg::BlockRequest {
            blocks,
            incoming_bw: incoming as u64,
        })
    }

    /// Each sender's delivery rate over the epoch that just ended, `elapsed`
    /// seconds long, in ascending peer order; the epoch's byte counts start
    /// again from zero.
    pub fn end_epoch(&mut self, elapsed: f64) -> Vec<PeerObservation> {
        self.senders
            .iter_mut()
            .map(|(peer, s)| PeerObservation {
                peer,
                bandwidth: std::mem::take(&mut s.bytes_since_epoch) as f64 / elapsed,
                their_total_incoming: None,
            })
            .collect()
    }

    /// Releases requests that have been outstanding longer than `timeout`, so
    /// the blocks become eligible for re-requesting from other senders. A
    /// sender whose request is released stops waiting for its marked block.
    pub fn release_stale(&mut self, now: SimTime, timeout: SimDuration) {
        let (senders, in_flight_bits) = (&mut self.senders, &mut self.pool.in_flight_bits);
        self.pool.in_flight.retain(|&block, f| {
            if now.saturating_since(f.since) < timeout {
                return true;
            }
            in_flight_bits.remove(block);
            let s = senders
                .get_mut(f.to)
                .expect("an outstanding request names a registered sender");
            s.outstanding -= 1;
            s.ctl.clear_mark();
            false
        });
    }
}

impl Pool {
    /// Chooses up to `count` blocks to request from `peer`, whose record is
    /// `s`, marks them outstanding and returns them in request order: the
    /// `count` smallest `(key, block)` among the sender's candidates,
    /// ascending.
    ///
    /// One pass over the sender's discovery list does all of it: blocks that
    /// arrived or left the set are compacted away, and every remaining block
    /// not in flight is keyed — one RNG draw per candidate, in discovery
    /// order, for the two random strategies, exactly as a full sort of the
    /// candidates would draw them — and offered to a `count`-long ascending
    /// buffer. First-encountered keys a candidate by its position, so the
    /// same buffer keeps the first `count`. A list that compaction leaves
    /// with more than 4× its length in capacity shrinks to 2× its length.
    fn select(
        &mut self,
        peer: NodeId,
        s: &mut Sender,
        count: usize,
        have: &BlockBitmap,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Vec<BlockId> {
        // No more picks than there are blocks to pick from.
        let count = count.min(s.order.len());
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
        let (bits, in_flight, rarity) = (&s.bits, &self.in_flight_bits, &self.rarity);
        let mut position = 0u64;
        s.order.retain(|&b| {
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
        let kept = s.order.len();
        if s.order.capacity() > 4 * kept {
            s.order.shrink_to(2 * kept);
        }

        let chosen: Vec<BlockId> = picks[..picked].iter().map(|p| p.block()).collect();
        for &b in &chosen {
            let request = InFlight {
                to: peer,
                since: now,
            };
            if self.in_flight.insert(b, request).is_none() {
                s.outstanding += 1;
            }
            self.in_flight_bits.insert(b);
        }
        chosen
    }

    /// Number of blocks `s` has advertised that we still need and have not
    /// requested anywhere (an estimate of how soon we will run out of
    /// candidates for this sender).
    fn useful_candidates(&self, s: &Sender, have: &BlockBitmap) -> usize {
        // Word-level: |advertised & !have & !in_flight|, a few cache lines
        // instead of a per-block set walk.
        s.bits
            .words()
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let h = have.words().get(i).copied().unwrap_or(0);
                let f = self.in_flight_bits.words().get(i).copied().unwrap_or(0);
                (a & !h & !f).count_ones() as usize
            })
            .sum()
    }
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

    fn manager(strategy: RequestStrategy, block_space: u32) -> RequestManager {
        RequestManager::new(strategy, OutstandingPolicy::Dynamic, block_space)
    }

    /// `block` arrives from `from`.
    fn receive(rm: &mut RequestManager, from: NodeId, block: BlockId) {
        let receipt = BlockReceipt {
            block,
            bytes: 1024,
            in_front: 1,
            wasted: 0.0,
        };
        rm.on_block_received(from, &receipt, SimTime::ZERO, 1024.0);
    }

    /// The strategy's choice of up to `count` blocks from `peer`, nothing if
    /// it is not a registered sender.
    fn select(
        rm: &mut RequestManager,
        peer: NodeId,
        count: usize,
        have: &BlockBitmap,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Vec<BlockId> {
        match rm.senders.get_mut(peer) {
            Some(s) => rm.pool.select(peer, s, count, have, now, rng),
            None => Vec::new(),
        }
    }

    fn outstanding_to(rm: &RequestManager, peer: NodeId) -> usize {
        rm.senders.get(peer).map_or(0, |s| s.outstanding)
    }

    fn useful_candidates(rm: &RequestManager, peer: NodeId, have: &BlockBitmap) -> usize {
        rm.senders
            .get(peer)
            .map_or(0, |s| rm.pool.useful_candidates(s, have))
    }

    #[test]
    fn first_encountered_respects_discovery_order() {
        let mut rm = manager(RequestStrategy::FirstEncountered, 100);
        let have = BlockBitmap::new(100);
        rm.add_sender(NodeId(1), ids(&[5, 3, 9]), &have);
        rm.on_advertised(NodeId(1), ids(&[1]), &have);
        let got = select(&mut rm, NodeId(1), 3, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[5, 3, 9]));
    }

    #[test]
    fn rarest_prefers_under_replicated_blocks() {
        let mut rm = manager(RequestStrategy::Rarest, 100);
        let have = BlockBitmap::new(100);
        // Block 7 is advertised by all three peers; block 8 by two; block 9 by one.
        rm.add_sender(NodeId(1), ids(&[7, 8, 9]), &have);
        rm.add_sender(NodeId(2), ids(&[7, 8]), &have);
        rm.add_sender(NodeId(3), ids(&[7]), &have);
        let got = select(&mut rm, NodeId(1), 3, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[9, 8, 7]));
    }

    #[test]
    fn rarest_random_breaks_ties_randomly_but_respects_rarity() {
        let mut rm = manager(RequestStrategy::RarestRandom, 1000);
        let have = BlockBitmap::new(1000);
        // 50 blocks with rarity 2, one block (999) with rarity 1.
        let common: Vec<u32> = (0..50).collect();
        rm.add_sender(NodeId(1), ids(&common), &have);
        rm.add_sender(NodeId(2), ids(&common), &have);
        rm.on_advertised(NodeId(1), ids(&[999]), &have);
        let got = select(&mut rm, NodeId(1), 1, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[999]), "the uniquely rare block goes first");

        // Tie-break randomness: two fresh managers with different RNG seeds
        // pick different heads among equally-rare blocks.
        let pick = |seed: u64| -> BlockId {
            let mut rm = manager(RequestStrategy::RarestRandom, 1000);
            let have = BlockBitmap::new(1000);
            rm.add_sender(NodeId(1), ids(&common), &have);
            let mut r = StdRng::seed_from_u64(seed);
            select(&mut rm, NodeId(1), 1, &have, SimTime::ZERO, &mut r)[0]
        };
        let picks: std::collections::HashSet<u32> = (0..20).map(|s| pick(s).0).collect();
        assert!(
            picks.len() > 3,
            "random tie-break should spread choices, got {picks:?}"
        );
    }

    #[test]
    fn blocks_are_not_double_requested_across_senders() {
        let mut rm = manager(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1), ids(&[0, 1, 2]), &have);
        rm.add_sender(NodeId(2), ids(&[0, 1, 2]), &have);
        let a = select(&mut rm, NodeId(1), 2, &have, SimTime::ZERO, &mut rng());
        let b = select(&mut rm, NodeId(2), 3, &have, SimTime::ZERO, &mut rng());
        assert_eq!(a, ids(&[0, 1]));
        assert_eq!(
            b,
            ids(&[2]),
            "blocks outstanding to peer 1 must not be re-requested"
        );
        assert_eq!(outstanding_to(&rm, NodeId(1)), 2);
        assert_eq!(outstanding_to(&rm, NodeId(2)), 1);
        assert_eq!(rm.pool.in_flight.len(), 3);
    }

    #[test]
    fn received_and_already_held_blocks_are_skipped() {
        let mut rm = manager(RequestStrategy::FirstEncountered, 10);
        let mut have = BlockBitmap::new(10);
        have.insert(BlockId(0));
        rm.add_sender(NodeId(1), ids(&[0, 1, 2]), &have);
        receive(&mut rm, NodeId(1), BlockId(1));
        let mut have2 = have.clone();
        have2.insert(BlockId(1));
        let got = select(&mut rm, NodeId(1), 5, &have2, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[2]));
    }

    #[test]
    fn removing_a_sender_releases_its_outstanding_requests() {
        let mut rm = manager(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1), ids(&[0, 1]), &have);
        rm.add_sender(NodeId(2), ids(&[0, 1]), &have);
        let _ = select(&mut rm, NodeId(1), 2, &have, SimTime::ZERO, &mut rng());
        assert_eq!(rm.pool.in_flight.len(), 2);
        assert!(rm.remove_sender(NodeId(1)));
        assert!(!rm.remove_sender(NodeId(1)), "removed already");
        assert_eq!(rm.pool.in_flight.len(), 0);
        assert_eq!(rm.pool.in_flight_bits.count(), 0);
        // Blocks can now be requested from the other sender.
        let got = select(&mut rm, NodeId(2), 2, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got.len(), 2);
        assert!(!rm.is_sender(NodeId(1)));
    }

    #[test]
    fn stale_requests_are_released_after_timeout() {
        let mut rm = manager(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1), ids(&[0]), &have);
        let _ = select(&mut rm, NodeId(1), 1, &have, SimTime::ZERO, &mut rng());
        let requested = rm.pool.in_flight.clone();
        rm.release_stale(SimTime::from_secs_f64(5.0), SimDuration::from_secs(30));
        assert_eq!(rm.pool.in_flight, requested, "nothing is stale yet");
        assert_eq!(requested.keys().collect::<Vec<_>>(), [&BlockId(0)]);
        rm.release_stale(SimTime::from_secs_f64(31.0), SimDuration::from_secs(30));
        assert!(rm.pool.in_flight.is_empty());
        assert_eq!(outstanding_to(&rm, NodeId(1)), 0);
        // The released block can be requested again.
        let again = select(&mut rm, NodeId(1), 1, &have, SimTime::ZERO, &mut rng());
        assert_eq!(again, ids(&[0]));
    }

    #[test]
    fn useful_candidates_counts_unrequested_needed_blocks() {
        let mut rm = manager(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1), ids(&[0, 1, 2, 3]), &have);
        assert_eq!(useful_candidates(&rm, NodeId(1), &have), 4);
        let _ = select(&mut rm, NodeId(1), 2, &have, SimTime::ZERO, &mut rng());
        assert_eq!(useful_candidates(&rm, NodeId(1), &have), 2);
    }

    #[test]
    fn out_of_range_advertisements_are_ignored() {
        let mut rm = manager(RequestStrategy::FirstEncountered, 4);
        let have = BlockBitmap::new(4);
        rm.add_sender(NodeId(1), ids(&[2, 9]), &have);
        let got = select(&mut rm, NodeId(1), 5, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[2]));
    }

    #[test]
    #[should_panic(expected = "at most 255 senders")]
    fn a_rarity_fits_in_a_byte_because_senders_are_capped() {
        let mut rm = manager(RequestStrategy::RarestRandom, 4);
        let have = BlockBitmap::new(4);
        for p in 0..MAX_SENDERS as u32 {
            rm.add_sender(NodeId(p), ids(&[3]), &have);
        }
        assert_eq!(rm.pool.rarity[3], u8::MAX);
        // Re-registering a known sender is not a new registration.
        assert!(!rm.add_sender(NodeId(0), ids(&[3]), &have));
        rm.add_sender(NodeId(MAX_SENDERS as u32), ids(&[]), &have);
    }

    const STRATEGIES: [RequestStrategy; 4] = [
        RequestStrategy::FirstEncountered,
        RequestStrategy::Random,
        RequestStrategy::Rarest,
        RequestStrategy::RarestRandom,
    ];

    /// The selection as a full sort: the same candidates, the same key draws
    /// in the same order, every candidate ordered by `(key, block)`.
    fn full_sort_reference(
        rm: &RequestManager,
        peer: NodeId,
        count: usize,
        have: &BlockBitmap,
        rng: &mut StdRng,
    ) -> Vec<BlockId> {
        let s = rm.senders.get(peer).expect("a registered sender");
        let pool = &rm.pool;
        let candidates = s.order.iter().copied().filter(|b| {
            s.bits.contains(*b) && !have.contains(*b) && !pool.in_flight_bits.contains(*b)
        });
        let mut keyed: Vec<((u8, u64), BlockId)> = candidates
            .map(|b| {
                let key = match pool.strategy {
                    RequestStrategy::FirstEncountered => (0, 0),
                    RequestStrategy::Random => (0, rng.gen()),
                    RequestStrategy::Rarest => (pool.rarity[b.index()], 0),
                    RequestStrategy::RarestRandom => (pool.rarity[b.index()], rng.gen()),
                };
                (key, b)
            })
            .collect();
        if pool.strategy != RequestStrategy::FirstEncountered {
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
        let mut rm = manager(strategy, space);
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
            rm.add_sender(NodeId(p), second.iter().copied(), &have);
            rm.on_advertised(NodeId(p), first.iter().copied(), &have);
        }
        for b in 0..space {
            if !have.contains(BlockId(b)) && r.gen_bool(0.1) {
                have.insert(BlockId(b));
                receive(&mut rm, NodeId(0), BlockId(b));
            }
        }
        for _ in 0..r.gen_range(0..4u32) {
            let peer = NodeId(r.gen_range(1..=senders));
            let n = r.gen_range(1..6usize);
            select(&mut rm, peer, n, &have, SimTime::ZERO, r);
        }
        (rm, have)
    }

    /// Every discovery list holds at most 4× its length in capacity.
    fn lists_are_tight(rm: &RequestManager) -> bool {
        rm.senders
            .values()
            .all(|s| s.order.capacity() <= 4 * s.order.len())
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
            let got = select(&mut rm, peer, count, &have, SimTime::ZERO, &mut rng);

            assert_eq!(got, want, "{strategy:?}, case {case}");
            assert_eq!(
                rng.gen::<u64>(),
                ref_rng.gen::<u64>(),
                "{strategy:?}, case {case}: a different number of RNG draws"
            );
            assert!(lists_are_tight(&rm), "{strategy:?}, case {case}: capacity");
        }
    }

    /// The same oracle where the bounded buffer is not the common case: a
    /// `count` that meets or exceeds the candidates, and one up to the default
    /// `max_outstanding` (past `STACK_PICKS`). Also the compaction
    /// post-condition: the discovery list afterwards is the old one filtered
    /// by `advertised ∧ ¬have`, order kept, in-flight blocks included, and
    /// holds at most 4× its length in capacity, as every other list does.
    #[test]
    fn selection_equals_a_full_sort_when_count_covers_the_candidates_or_the_window() {
        let mut r = StdRng::seed_from_u64(0xc0_ffee);
        for case in 0..400 {
            let strategy = STRATEGIES[case % 4];
            let space = r.gen_range(1..200u32);
            let senders = r.gen_range(1..5u32);
            let (mut rm, have) = random_state(strategy, space, senders, &mut r);
            let peer = NodeId(r.gen_range(1..=senders));
            let candidates = useful_candidates(&rm, peer, &have);
            let count = match (case / 4) % 4 {
                0 => candidates.max(1),
                1 => candidates + 1,
                2 => 50,
                _ => r.gen_range(STACK_PICKS..=50),
            };

            let order = |rm: &RequestManager| rm.senders.get(peer).map(|s| s.order.clone());
            let s = rm.senders.get(peer).expect("a registered sender");
            let compacted: Vec<BlockId> = s
                .order
                .iter()
                .copied()
                .filter(|b| s.bits.contains(*b) && !have.contains(*b))
                .collect();
            let seed = r.gen::<u64>();
            let mut ref_rng = StdRng::seed_from_u64(seed);
            let want = full_sort_reference(&rm, peer, count, &have, &mut ref_rng);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = select(&mut rm, peer, count, &have, SimTime::ZERO, &mut rng);

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
                order(&rm),
                Some(compacted),
                "{strategy:?}, case {case}: compaction"
            );
            assert!(lists_are_tight(&rm), "{strategy:?}, case {case}: capacity");
        }
    }

    /// A list that compaction leaves with more than 4× its length in
    /// capacity shrinks to 2× its length; one left fuller keeps its capacity.
    #[test]
    fn a_compacted_discovery_list_gives_back_its_space() {
        let mut rm = manager(RequestStrategy::FirstEncountered, 128);
        let mut have = BlockBitmap::new(128);
        rm.add_sender(NodeId(1), (0..128).map(BlockId), &have);
        let mut receive_and_select = |blocks: std::ops::Range<u32>| {
            for b in blocks.map(BlockId) {
                have.insert(b);
                receive(&mut rm, NodeId(1), b);
            }
            select(&mut rm, NodeId(1), 1, &have, SimTime::ZERO, &mut rng());
            let order = rm.senders.get(NodeId(1)).map(|s| &s.order);
            order.map(|order| (order.len(), order.capacity()))
        };
        assert_eq!(receive_and_select(0..0), Some((128, 128)));
        assert_eq!(receive_and_select(0..100), Some((28, 56)), "shrunk");
        // Block 100 is in flight and stays listed.
        assert_eq!(receive_and_select(101..111), Some((18, 56)), "kept");
        assert_eq!(receive_and_select(100..128), Some((0, 0)), "emptied");
    }

    /// Random registrations, diffs, selections (the strategy's and the
    /// window's), arrivals, releases and removals. After every step each
    /// sender's outstanding count equals a scan of the requests in flight,
    /// and each block's rarity equals the number of registered senders
    /// whose offer holds it.
    #[test]
    fn per_sender_outstanding_count_matches_a_scan_of_in_flight() {
        let mut r = StdRng::seed_from_u64(0x0075_7a4d);
        for case in 0..60 {
            let space = 64;
            let senders = 4u32;
            let mut rm = manager(STRATEGIES[case % 4], space);
            let mut have = BlockBitmap::new(space);
            let mut now = SimTime::ZERO;
            for step in 0..200 {
                now += SimDuration::from_secs(1);
                let peer = NodeId(r.gen_range(1..=senders));
                let block = BlockId(r.gen_range(0..space));
                match r.gen_range(0..6u32) {
                    0 => {
                        let blocks: Vec<BlockId> = (0..space)
                            .filter(|_| r.gen_bool(0.3))
                            .map(BlockId)
                            .collect();
                        if !rm.add_sender(peer, blocks.iter().copied(), &have) {
                            rm.on_advertised(peer, blocks, &have);
                        }
                    }
                    1 => {
                        let n = r.gen_range(0..5usize);
                        select(&mut rm, peer, n, &have, now, &mut r);
                    }
                    2 => {
                        rm.next_request(peer, &have, now, &mut r);
                    }
                    3 => {
                        have.insert(block);
                        receive(&mut rm, peer, block);
                    }
                    4 => {
                        rm.release_stale(now, SimDuration::from_secs(r.gen_range(5..40u64)));
                    }
                    _ => {
                        rm.remove_sender(peer);
                        if r.gen_bool(0.5) {
                            rm.add_sender(peer, ids(&[]), &have);
                        }
                    }
                }
                let at = format!("case {case}, step {step}");
                let mut total = 0;
                for p in 0..=senders + 1 {
                    let scanned = rm
                        .pool
                        .in_flight
                        .values()
                        .filter(|f| f.to == NodeId(p))
                        .count();
                    assert_eq!(outstanding_to(&rm, NodeId(p)), scanned, "{at}, peer {p}");
                    total += scanned;
                }
                assert_eq!(rm.pool.in_flight.len(), total, "{at}");
                for b in (0..space).map(BlockId) {
                    let offering = rm.senders.values().filter(|s| s.bits.contains(b)).count();
                    let rarity = usize::from(rm.pool.rarity[b.index()]);
                    assert_eq!(rarity, offering, "{at}, block {}: rarity", b.0);
                }
            }
        }
    }
}
