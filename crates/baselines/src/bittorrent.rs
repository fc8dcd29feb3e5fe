//! A BitTorrent-like baseline (paper §5, compared in Figs 4, 5, 14).
//!
//! This models the BitTorrent the paper compared against: a central tracker
//! (co-located with the seed) hands out random peer lists; peers exchange
//! bitfields and `Have` announcements; upload slots are governed by
//! tit-for-tat choking with a periodically rotated optimistic unchoke; piece
//! selection is strict rarest-first; and — the property the paper calls out —
//! every knob is a hard-coded constant: a fixed number of connections, a
//! fixed number of upload slots and a fixed five outstanding requests per
//! peer, with no adaptation to network conditions.

use std::collections::{BTreeMap, BTreeSet};

use desim::SimDuration;
use dissem_codec::{BlockBitmap, BlockId, FileSpec};
use netsim::{BlockReceipt, Ctx, NodeId, ProbeStats, Protocol, Topology, WireSize};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// BitTorrent's timer vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtTimer {
    /// Recompute the choke set.
    Choke,
    /// Rotate the optimistic unchoke.
    Optimistic,
    /// Housekeeping: request refresh, tracker re-announce.
    Keepalive,
}

/// Maximum number of neighbours to hold connections with.
pub const MAX_CONNECTIONS: usize = 20;
/// Number of peers the tracker returns per announce.
pub const TRACKER_PEERS: usize = 40;
/// Number of regular (tit-for-tat) upload slots.
pub const UPLOAD_SLOTS: usize = 4;
/// Fixed number of outstanding requests per peer.
pub const OUTSTANDING_PER_PEER: usize = 5;
/// Number of 16 KB sub-piece blocks per BitTorrent piece (256 KB pieces).
/// Data can only be shared onward at piece granularity, which is the
/// standard BitTorrent behaviour and one of the costs the paper's
/// comparison includes.
pub const PIECE_BLOCKS: u32 = 16;
/// Choke-recomputation interval.
pub const CHOKE_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Optimistic-unchoke rotation interval.
pub const OPTIMISTIC_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// What a BitTorrent node is configured with: the file. Everything else is
/// the classic constants above — hard-coded, which is the point of the
/// baseline.
#[derive(Debug, Clone)]
pub struct BitTorrentConfig {
    /// The file being distributed.
    pub file: FileSpec,
}

impl BitTorrentConfig {
    /// The configuration for `file`.
    pub fn new(file: FileSpec) -> Self {
        BitTorrentConfig { file }
    }
}

/// BitTorrent control messages.
#[derive(Debug, Clone)]
pub enum BtMsg {
    /// Announce to the tracker and ask for peers.
    TrackerRequest,
    /// Tracker reply: a random subset of known participants.
    TrackerResponse {
        /// The peers to try connecting to.
        peers: Vec<NodeId>,
    },
    /// Open a neighbour relationship; carries the sender's piece bitfield.
    Handshake {
        /// Pieces the initiating peer has completed.
        bitfield: Vec<u32>,
    },
    /// Reply to a handshake with our own piece bitfield.
    HandshakeAck {
        /// Pieces the accepting peer has completed.
        bitfield: Vec<u32>,
    },
    /// Announce completion of one piece to a neighbour.
    Have {
        /// The newly completed piece.
        piece: u32,
    },
    /// We would like to download from the recipient.
    Interested,
    /// The recipient may no longer request blocks from us.
    Choke,
    /// The recipient may request blocks from us.
    Unchoke,
    /// Request blocks (served only while unchoked).
    Request {
        /// Blocks requested, in order.
        blocks: Vec<BlockId>,
    },
}

impl WireSize for BtMsg {
    fn wire_size(&self) -> usize {
        const HDR: usize = 9;
        match self {
            BtMsg::TrackerRequest | BtMsg::Interested | BtMsg::Choke | BtMsg::Unchoke => HDR,
            BtMsg::TrackerResponse { peers } => HDR + 6 * peers.len(),
            BtMsg::Handshake { bitfield } | BtMsg::HandshakeAck { bitfield } => {
                HDR + 4 + bitfield.len().div_ceil(2)
            }
            BtMsg::Have { .. } => HDR + 4,
            BtMsg::Request { blocks } => HDR + 4 * blocks.len(),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            BtMsg::TrackerRequest => "tracker_request",
            BtMsg::TrackerResponse { .. } => "tracker_response",
            BtMsg::Handshake { .. } => "handshake",
            BtMsg::HandshakeAck { .. } => "handshake_ack",
            BtMsg::Have { .. } => "have",
            BtMsg::Interested => "interested",
            BtMsg::Choke => "choke",
            BtMsg::Unchoke => "unchoke",
            BtMsg::Request { .. } => "request",
        }
    }
}

/// Per-neighbour state.
#[derive(Debug, Clone)]
struct Neighbour {
    /// Pieces the neighbour has completed (from bitfield + Have messages), a
    /// bitmap over piece ids.
    has_pieces: BlockBitmap,
    /// We are choking them (they may not request from us).
    am_choking: bool,
    /// They are choking us.
    peer_choking: bool,
    /// We are interested in their data.
    am_interested: bool,
    /// Bytes received from them in the current choke window (tit-for-tat input).
    bytes_from: u64,
    /// Bytes we finished sending to them in the current choke window.
    bytes_to: u64,
    /// Blocks we have requested from them and not yet received (at most
    /// [`OUTSTANDING_PER_PEER`], no block twice).
    outstanding: Vec<BlockId>,
}

impl Neighbour {
    fn new(num_pieces: u32) -> Self {
        Neighbour {
            has_pieces: BlockBitmap::new(num_pieces),
            am_choking: true,
            peer_choking: true,
            am_interested: false,
            bytes_from: 0,
            bytes_to: 0,
            outstanding: Vec::new(),
        }
    }
}

/// A BitTorrent participant. Node 0 is the seed and also answers tracker
/// announces.
#[derive(Debug, Clone)]
pub struct BitTorrentNode {
    id: NodeId,
    cfg: BitTorrentConfig,
    have: BlockBitmap,
    /// Number of blocks still missing from each piece.
    piece_missing: Vec<u32>,
    neighbours: BTreeMap<NodeId, Neighbour>,
    /// Per piece, the number of neighbours holding it: raised when a piece
    /// is newly set in a neighbour's `has_pieces`, lowered for each of its
    /// pieces when a neighbour is removed.
    rarity: Vec<u32>,
    /// Blocks requested anywhere (avoid duplicate requests before endgame).
    in_flight: BlockBitmap,
    /// Tracker state (only used on node 0): every node that has announced.
    swarm: Vec<NodeId>,
    optimistic: Option<NodeId>,
    /// Block counters of [`Protocol::probe_stats`]; the peer counts are
    /// filled in there.
    stats: ProbeStats,
}

impl BitTorrentNode {
    /// Creates a node; node 0 is the seed/tracker.
    pub fn new(id: NodeId, cfg: BitTorrentConfig) -> Self {
        let n = cfg.file.num_blocks();
        let num_pieces = n.div_ceil(PIECE_BLOCKS);
        let piece_missing = if id == NodeId(0) {
            vec![0; num_pieces as usize]
        } else {
            (0..num_pieces)
                .map(|p| PIECE_BLOCKS.min(n - p * PIECE_BLOCKS))
                .collect()
        };
        let have = if id == NodeId(0) {
            BlockBitmap::full(n)
        } else {
            BlockBitmap::new(n)
        };
        BitTorrentNode {
            id,
            cfg,
            have,
            piece_missing,
            neighbours: BTreeMap::new(),
            rarity: vec![0; num_pieces as usize],
            in_flight: BlockBitmap::new(n),
            swarm: Vec::new(),
            optimistic: None,
            stats: ProbeStats::default(),
        }
    }

    /// True if this node is the initial seed.
    pub fn is_seed(&self) -> bool {
        self.id == NodeId(0)
    }

    /// Number of blocks currently held.
    pub fn blocks_held(&self) -> u32 {
        self.have.count()
    }

    fn piece_of(&self, block: BlockId) -> u32 {
        block.0 / PIECE_BLOCKS
    }

    /// Pieces this node has fully downloaded (only these may be shared onward).
    fn bitfield(&self) -> Vec<u32> {
        self.piece_missing
            .iter()
            .enumerate()
            .filter(|(_, &missing)| missing == 0)
            .map(|(p, _)| p as u32)
            .collect()
    }

    fn download_done(&self) -> bool {
        self.have.is_full()
    }

    fn num_pieces(&self) -> u32 {
        self.piece_missing.len() as u32
    }

    /// Number of blocks in `piece` (the last piece may be short).
    fn piece_blocks(&self, piece: u32) -> u32 {
        PIECE_BLOCKS.min(self.cfg.file.num_blocks() - piece * PIECE_BLOCKS)
    }

    /// Blocks of `piece` that we are missing and that are not in flight, in
    /// ascending order.
    fn wanted_blocks(&self, piece: u32) -> impl Iterator<Item = BlockId> + '_ {
        let start = piece * PIECE_BLOCKS;
        (start..start + self.piece_blocks(piece))
            .map(BlockId)
            .filter(|&b| !self.have.contains(b) && !self.in_flight.contains(b))
    }

    /// Issues rarest-first requests to every neighbour that has unchoked us,
    /// keeping the hard-coded number of requests outstanding per peer.
    fn issue_requests(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.download_done() {
            return;
        }
        let peers: Vec<NodeId> = self.neighbours.keys().copied().collect();
        for peer in peers {
            self.issue_requests_to(ctx, peer);
        }
    }

    fn issue_requests_to(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        if self.download_done() {
            return;
        }
        let Some(n) = self.neighbours.get(&peer) else {
            return;
        };
        if n.peer_choking || n.outstanding.len() >= OUTSTANDING_PER_PEER {
            return;
        }
        let want = OUTSTANDING_PER_PEER - n.outstanding.len();
        // Candidate pieces: the peer has completed them, we still need blocks
        // from them. Every piece the peer holds draws its random tie-break, in
        // ascending order, before those with nothing wanted are dropped, so
        // the draws do not depend on what we hold or have in flight. Strict
        // priority: finish partially downloaded pieces first so they become
        // shareable (`false` sorts first), then go rarest-first among
        // untouched pieces; sub-piece blocks are then requested in order.
        let rng: &mut StdRng = ctx.rng();
        let mut pieces: Vec<(bool, u32, u64, u32)> = n
            .has_pieces
            .iter()
            .map(|BlockId(p)| (p, rng.gen::<u64>()))
            .filter(|&(p, _)| self.wanted_blocks(p).next().is_some())
            .map(|(p, tie)| {
                let untouched = self.piece_missing[p as usize] == self.piece_blocks(p);
                (untouched, self.rarity[p as usize], tie, p)
            })
            .collect();
        #[cfg(debug_assertions)]
        self.check_rarity_against_neighbours(&pieces);
        pieces.sort_unstable_by_key(|&(untouched, r, t, _)| (untouched, r, t));
        let chosen: Vec<BlockId> = pieces
            .iter()
            .flat_map(|&(.., p)| self.wanted_blocks(p))
            .take(want)
            .collect();
        if chosen.is_empty() {
            return;
        }
        let n = self.neighbours.get_mut(&peer).expect("checked above");
        for &b in &chosen {
            n.outstanding.push(b);
            self.in_flight.insert(b);
        }
        ctx.send(peer, BtMsg::Request { blocks: chosen });
    }

    /// Debug builds recount each candidate piece's holders from the
    /// neighbours' bitmaps and assert the counter agrees, so every run of
    /// the debug suite checks the increments and the decrements.
    #[cfg(debug_assertions)]
    fn check_rarity_against_neighbours(&self, pieces: &[(bool, u32, u64, u32)]) {
        for &(_, rarity, _, p) in pieces {
            let holders = self
                .neighbours
                .values()
                .filter(|n| n.has_pieces.contains(BlockId(p)))
                .count();
            assert_eq!(rarity as usize, holders, "rarity counter of piece {p}");
        }
    }

    /// Recomputes the choke set: the top uploaders (for a downloader) or top
    /// downloaders (for the seed) get the regular slots; everyone else is
    /// choked except the optimistic unchoke.
    fn recompute_chokes(&mut self, ctx: &mut Ctx<'_, Self>) {
        let mut ranked: Vec<(u64, u64, NodeId)> = {
            let rng: &mut StdRng = ctx.rng();
            self.neighbours
                .iter()
                .map(|(&peer, n)| {
                    let score = if self.download_done() {
                        n.bytes_to // Seeds reward fast downloaders.
                    } else {
                        n.bytes_from // Leechers reciprocate good uploaders.
                    };
                    // Random tie-break so idle periods do not always favour the
                    // same (lowest-id) peers.
                    (score, rng.gen::<u64>(), peer)
                })
                .collect()
        };
        ranked.sort_unstable_by_key(|(score, tie, _)| (std::cmp::Reverse(*score), *tie));
        let unchoked: BTreeSet<NodeId> = ranked
            .iter()
            .take(UPLOAD_SLOTS)
            .map(|(_, _, p)| *p)
            .chain(self.optimistic)
            .collect();
        let peers: Vec<NodeId> = self.neighbours.keys().copied().collect();
        for peer in peers {
            let n = self
                .neighbours
                .get_mut(&peer)
                .expect("iterating existing keys");
            let should_choke = !unchoked.contains(&peer);
            if n.am_choking != should_choke {
                n.am_choking = should_choke;
                ctx.send(
                    peer,
                    if should_choke {
                        BtMsg::Choke
                    } else {
                        BtMsg::Unchoke
                    },
                );
            }
            // Reset the tit-for-tat window.
            n.bytes_from = 0;
            n.bytes_to = 0;
        }
    }

    fn rotate_optimistic(&mut self, ctx: &mut Ctx<'_, Self>) {
        let choked: Vec<NodeId> = self
            .neighbours
            .iter()
            .filter(|(_, n)| n.am_choking)
            .map(|(&p, _)| p)
            .collect();
        self.optimistic = {
            let rng: &mut StdRng = ctx.rng();
            choked.choose(rng).copied()
        };
        if let Some(peer) = self.optimistic {
            let n = self
                .neighbours
                .get_mut(&peer)
                .expect("chosen from existing");
            if n.am_choking {
                n.am_choking = false;
                ctx.send(peer, BtMsg::Unchoke);
            }
        }
    }

    /// Unchokes `peer` immediately if we still have a free regular slot.
    fn greedy_unchoke(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        let unchoked = self.neighbours.values().filter(|n| !n.am_choking).count();
        if unchoked >= UPLOAD_SLOTS {
            return;
        }
        if let Some(n) = self.neighbours.get_mut(&peer) {
            if n.am_choking {
                n.am_choking = false;
                ctx.send(peer, BtMsg::Unchoke);
            }
        }
    }

    fn connect_to(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        if peer == self.id
            || self.neighbours.contains_key(&peer)
            || self.neighbours.len() >= MAX_CONNECTIONS
        {
            return;
        }
        self.neighbours
            .insert(peer, Neighbour::new(self.num_pieces()));
        ctx.send(
            peer,
            BtMsg::Handshake {
                bitfield: self.bitfield(),
            },
        );
    }

    /// Records that `peer` holds `pieces` (its bitfield or one `Have`). A
    /// peer distributes the same `FileSpec`, so every piece id is below
    /// [`Self::num_pieces`] (the bitmap insert panics otherwise).
    fn note_peer_pieces(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId, pieces: &[u32]) {
        let Some(n) = self.neighbours.get_mut(&peer) else {
            return;
        };
        let mut becomes_interesting = false;
        for &p in pieces {
            if n.has_pieces.insert(BlockId(p)) {
                self.rarity[p as usize] += 1;
            }
            becomes_interesting |= self.piece_missing[p as usize] > 0;
        }
        if becomes_interesting && !n.am_interested {
            n.am_interested = true;
            ctx.send(peer, BtMsg::Interested);
        }
        if becomes_interesting {
            self.issue_requests_to(ctx, peer);
        }
    }
}

impl Protocol for BitTorrentNode {
    type Msg = BtMsg;
    type Timer = BtTimer;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.is_seed() {
            self.swarm.push(self.id);
        } else {
            ctx.send(NodeId(0), BtMsg::TrackerRequest);
        }
        // The first choke evaluation happens soon after start-up (real clients
        // unchoke interested peers as soon as slots are free); subsequent ones
        // follow the standard 10 s / 30 s cadence.
        ctx.set_timer(SimDuration::from_secs(1), BtTimer::Choke);
        ctx.set_timer(SimDuration::from_secs(5), BtTimer::Optimistic);
        ctx.set_timer(SimDuration::from_secs(2), BtTimer::Keepalive);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: BtMsg) {
        match msg {
            BtMsg::TrackerRequest => {
                // Only the tracker (node 0) handles announces.
                if !self.is_seed() {
                    return;
                }
                let mut peers = self.swarm.clone();
                {
                    let rng: &mut StdRng = ctx.rng();
                    peers.shuffle(rng);
                }
                peers.truncate(TRACKER_PEERS);
                if !self.swarm.contains(&from) {
                    self.swarm.push(from);
                }
                ctx.send(from, BtMsg::TrackerResponse { peers });
            }
            BtMsg::TrackerResponse { peers } => {
                for peer in peers {
                    self.connect_to(ctx, peer);
                }
            }
            BtMsg::Handshake { bitfield } => {
                // Accept the connection (BitTorrent accepts beyond its own
                // initiation cap as long as slots remain).
                if !self.neighbours.contains_key(&from)
                    && self.neighbours.len() < MAX_CONNECTIONS * 2
                {
                    self.neighbours
                        .insert(from, Neighbour::new(self.num_pieces()));
                }
                if self.neighbours.contains_key(&from) {
                    ctx.send(
                        from,
                        BtMsg::HandshakeAck {
                            bitfield: self.bitfield(),
                        },
                    );
                    self.note_peer_pieces(ctx, from, &bitfield);
                    self.greedy_unchoke(ctx, from);
                }
            }
            BtMsg::HandshakeAck { bitfield } => {
                self.note_peer_pieces(ctx, from, &bitfield);
                self.greedy_unchoke(ctx, from);
            }
            BtMsg::Have { piece } => {
                self.note_peer_pieces(ctx, from, &[piece]);
            }
            BtMsg::Interested => {
                // Interest only matters for slot allocation refinements we do
                // not model; recorded implicitly through requests.
            }
            BtMsg::Choke => {
                if let Some(n) = self.neighbours.get_mut(&from) {
                    n.peer_choking = true;
                    // Outstanding requests to a choking peer are abandoned.
                    for b in n.outstanding.drain(..) {
                        self.in_flight.remove(b);
                    }
                }
            }
            BtMsg::Unchoke => {
                if let Some(n) = self.neighbours.get_mut(&from) {
                    n.peer_choking = false;
                }
                self.issue_requests_to(ctx, from);
            }
            BtMsg::Request { blocks } => {
                let serve = self
                    .neighbours
                    .get(&from)
                    .map(|n| !n.am_choking)
                    .unwrap_or(false);
                if !serve {
                    return;
                }
                for block in blocks {
                    let piece_complete = self
                        .piece_missing
                        .get(self.piece_of(block) as usize)
                        .map(|&m| m == 0)
                        .unwrap_or(false);
                    if piece_complete && self.have.contains(block) {
                        let bytes = u64::from(self.cfg.file.block_size(block));
                        ctx.queue_block(from, block, bytes);
                    }
                }
            }
        }
    }

    fn on_block_received(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, receipt: BlockReceipt) {
        let block = receipt.block;
        let duplicate = self.have.contains(block);
        self.in_flight.remove(block);
        if let Some(n) = self.neighbours.get_mut(&from) {
            n.outstanding.retain(|&b| b != block);
            n.bytes_from += receipt.bytes;
        }
        self.stats.record_arrival(receipt.bytes, duplicate);
        if !duplicate {
            self.have.insert(block);
            let piece = self.piece_of(block);
            let missing = &mut self.piece_missing[piece as usize];
            *missing = missing.saturating_sub(1);
            if *missing == 0 {
                // A completed piece may be announced and shared onward: the
                // classic `Have` flood, one identical message per neighbour.
                ctx.send_to_many(self.neighbours.keys().copied(), &BtMsg::Have { piece });
            }
        }
        self.issue_requests_to(ctx, from);
    }

    fn on_block_sent(&mut self, _ctx: &mut Ctx<'_, Self>, to: NodeId, block: BlockId) {
        let bytes = u64::from(self.cfg.file.block_size(block));
        if let Some(n) = self.neighbours.get_mut(&to) {
            n.bytes_to += bytes;
        }
    }

    fn on_peer_failed(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        // Connection reset: forget the neighbour and free its request slots
        // so the blocks become requestable from the survivors.
        if let Some(n) = self.neighbours.remove(&peer) {
            for b in n.outstanding {
                self.in_flight.remove(b);
            }
            for BlockId(p) in n.has_pieces.iter() {
                self.rarity[p as usize] -= 1;
            }
        }
        if self.optimistic == Some(peer) {
            self.optimistic = None;
        }
        // The tracker stops handing out the dead peer.
        self.swarm.retain(|&p| p != peer);
        self.issue_requests(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: BtTimer) {
        match timer {
            BtTimer::Choke => {
                self.recompute_chokes(ctx);
                ctx.set_timer(CHOKE_INTERVAL, BtTimer::Choke);
            }
            BtTimer::Optimistic => {
                self.rotate_optimistic(ctx);
                ctx.set_timer(OPTIMISTIC_INTERVAL, BtTimer::Optimistic);
            }
            BtTimer::Keepalive => {
                // Refresh requests (lost opportunities due to choke changes) and
                // re-announce to the tracker if we are starved of neighbours.
                self.issue_requests(ctx);
                if !self.is_seed() && self.neighbours.len() < MAX_CONNECTIONS / 2 {
                    ctx.send(NodeId(0), BtMsg::TrackerRequest);
                }
                ctx.set_timer(SimDuration::from_secs(2), BtTimer::Keepalive);
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.download_done()
    }

    fn probe_stats(&self) -> ProbeStats {
        // The BitTorrent mesh is symmetric: every neighbour is both a
        // potential sender and a potential receiver.
        ProbeStats {
            senders: self.neighbours.len(),
            receivers: self.neighbours.len(),
            ..self.stats
        }
    }
}

/// Builds one BitTorrent node per host; node 0 is the seed and tracker. The
/// seed holds every piece, so it is complete from t = 0.
pub fn build_nodes(topo: &Topology, file: FileSpec) -> Vec<BitTorrentNode> {
    let cfg = BitTorrentConfig::new(file);
    (0..topo.len() as u32)
        .map(|i| BitTorrentNode::new(NodeId(i), cfg.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use netsim::{topology, Command, Network};
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn seed_starts_full_and_leechers_empty() {
        let cfg = BitTorrentConfig::new(FileSpec::new(160 * 1024, 16 * 1024));
        let seed = BitTorrentNode::new(NodeId(0), cfg.clone());
        let leech = BitTorrentNode::new(NodeId(3), cfg);
        assert!(seed.is_seed());
        assert!(seed.is_complete());
        assert_eq!(seed.blocks_held(), 10);
        assert!(!leech.is_complete());
        assert_eq!(leech.blocks_held(), 0);
    }

    #[test]
    fn wire_sizes_are_reasonable() {
        let bf = BtMsg::Handshake {
            bitfield: (0..64).collect(),
        };
        assert_eq!(bf.wire_size(), 9 + 4 + 32);
        let req = BtMsg::Request {
            blocks: vec![BlockId(1), BlockId(2)],
        };
        assert_eq!(req.wire_size(), 9 + 8);
    }

    #[test]
    fn pieces_group_blocks_and_gate_sharing() {
        let cfg = BitTorrentConfig::new(FileSpec::new(512 * 1024, 16 * 1024));
        let seed = BitTorrentNode::new(NodeId(0), cfg.clone());
        // 32 blocks, 16 per piece -> 2 pieces, all complete at the seed.
        assert_eq!(seed.bitfield(), vec![0, 1]);
        let leech = BitTorrentNode::new(NodeId(1), cfg);
        assert!(leech.bitfield().is_empty());
        assert_eq!(leech.piece_missing, vec![16, 16]);
        assert_eq!(leech.wanted_blocks(1).count(), 16);
    }

    #[test]
    fn defaults_match_bittorrent_constants() {
        // Cohen 2003: 4 tit-for-tat slots re-chosen every 10 s, the
        // optimistic one rotated every 30 s, 5 requests pipelined per peer.
        assert_eq!(UPLOAD_SLOTS, 4);
        assert_eq!(OUTSTANDING_PER_PEER, 5);
        assert_eq!(CHOKE_INTERVAL, SimDuration::from_secs(10));
        assert_eq!(OPTIMISTIC_INTERVAL, SimDuration::from_secs(30));
    }

    /// Nodes behind the test network: the node under test is 1, its
    /// neighbours are drawn from the others.
    const NODES: usize = 8;
    const ME: NodeId = NodeId(1);

    fn leecher(blocks: u32) -> BitTorrentNode {
        let file = FileSpec::new(u64::from(blocks) * 16 * 1024, 16 * 1024);
        BitTorrentNode::new(ME, BitTorrentConfig::new(file))
    }

    /// Runs `hook` on `node` through a fresh `Ctx` over `net` and returns
    /// the commands it recorded.
    fn drive(
        node: &mut BitTorrentNode,
        net: &Network,
        rng: &mut StdRng,
        hook: impl FnOnce(&mut BitTorrentNode, &mut Ctx<'_, BitTorrentNode>),
    ) -> Vec<Command<BtMsg, BtTimer>> {
        let mut commands = Vec::new();
        let active = [true; NODES];
        let mut ctx = Ctx::new(ME, SimTime::ZERO, net, &active, rng, &mut commands);
        hook(node, &mut ctx);
        commands
    }

    /// The blocks of the `Request` sent to `peer`, if one was.
    fn request_to(commands: &[Command<BtMsg, BtTimer>], peer: NodeId) -> Option<Vec<BlockId>> {
        commands.iter().find_map(|command| match command {
            Command::SendControl {
                to,
                msg: BtMsg::Request { blocks },
            } if *to == peer => Some(blocks.clone()),
            _ => None,
        })
    }

    fn arrival(block: BlockId) -> BlockReceipt {
        BlockReceipt {
            block,
            bytes: 16 * 1024,
            in_front: 0,
            wasted: 0.0,
        }
    }

    /// The request selection as it was before the rarity counter, kept as
    /// the oracle of the counted one: a `BTreeSet` of pieces per neighbour
    /// and of blocks in flight, `piece_rarity` scanning every neighbour's
    /// set, then the same ranking and fill. Returns what
    /// `issue_requests_to(peer)` must request, drawing from `rng` as it must.
    fn reference_request(
        node: &BitTorrentNode,
        peer: NodeId,
        rng: &mut StdRng,
    ) -> Option<Vec<BlockId>> {
        if node.download_done() {
            return None;
        }
        let n = node.neighbours.get(&peer)?;
        if n.peer_choking || n.outstanding.len() >= OUTSTANDING_PER_PEER {
            return None;
        }
        let want = OUTSTANDING_PER_PEER - n.outstanding.len();
        let has_pieces: BTreeMap<NodeId, BTreeSet<u32>> = node
            .neighbours
            .iter()
            .map(|(&id, n)| (id, n.has_pieces.iter().map(|b| b.0).collect()))
            .collect();
        let in_flight: BTreeSet<BlockId> = node.in_flight.iter().collect();
        let num_blocks = node.cfg.file.num_blocks();
        let piece_rarity = |piece: u32| {
            has_pieces
                .values()
                .filter(|pieces| pieces.contains(&piece))
                .count()
        };
        let wanted_blocks_of_piece = |piece: u32| -> Vec<BlockId> {
            let start = piece * PIECE_BLOCKS;
            let end = (start + PIECE_BLOCKS).min(num_blocks);
            (start..end)
                .map(BlockId)
                .filter(|b| !node.have.contains(*b) && !in_flight.contains(b))
                .collect()
        };
        let mut pieces: Vec<(bool, usize, u64, u32)> = has_pieces[&peer]
            .iter()
            .map(|&p| (false, 0, rng.gen::<u64>(), p))
            .collect();
        for entry in &mut pieces {
            let piece = entry.3;
            let total = PIECE_BLOCKS.min(num_blocks - piece * PIECE_BLOCKS);
            entry.0 = node.piece_missing[piece as usize] == total;
            entry.1 = piece_rarity(piece);
        }
        pieces.sort_unstable_by_key(|(untouched, r, t, _)| (*untouched, *r, *t));
        let mut chosen = Vec::new();
        for (_, _, _, piece) in pieces {
            for b in wanted_blocks_of_piece(piece) {
                if chosen.len() >= want {
                    break;
                }
                chosen.push(b);
            }
        }
        (!chosen.is_empty()).then_some(chosen)
    }

    proptest! {
        /// Random node states built through the handlers — bitfields,
        /// duplicate `Have`s, unchokes and chokes, block arrivals (partial
        /// pieces, blocks in flight) and failed neighbours that may come
        /// back. After every step every piece's counter equals its holders,
        /// and a request to one neighbour, unchoked with free slots, sends
        /// what the scan-based reference computes and leaves the node's RNG
        /// in the same state.
        #[test]
        fn counted_selection_matches_the_scanning_reference(
            blocks in 1u32..70,
            ops in proptest::collection::vec((0u8..7, 0u8..7, any::<u16>()), 0..60),
        ) {
            let net = Network::new(topology::constrained_access(NODES));
            let mut rng = StdRng::seed_from_u64(u64::from(blocks));
            let mut node = leecher(blocks);
            let np = node.num_pieces();
            let nb = node.cfg.file.num_blocks();
            let peer_of = |k: u8| NodeId(if k == 0 { 0 } else { u32::from(k) + 1 });
            for (kind, k, arg) in ops {
                let peer = peer_of(k);
                let arg = u32::from(arg);
                drive(&mut node, &net, &mut rng, |node, ctx| match kind {
                    0 => {
                        let bitfield = (0..np).filter(|p| arg >> p & 1 == 1).collect();
                        node.on_control(ctx, peer, BtMsg::Handshake { bitfield });
                    }
                    1 => node.on_control(ctx, peer, BtMsg::Have { piece: arg % np }),
                    2 => node.on_control(ctx, peer, BtMsg::Unchoke),
                    3 => node.on_control(ctx, peer, BtMsg::Choke),
                    4 => {
                        let outstanding = node
                            .neighbours
                            .get(&peer)
                            .map(|n| n.outstanding.clone())
                            .unwrap_or_default();
                        let block = match outstanding.len() {
                            0 => BlockId(arg % nb),
                            len => outstanding[arg as usize % len],
                        };
                        node.on_block_received(ctx, peer, arrival(block));
                    }
                    5 => node.on_peer_failed(ctx, peer),
                    _ => node.on_timer(ctx, BtTimer::Keepalive),
                });
                for p in 0..np {
                    let holders = node
                        .neighbours
                        .values()
                        .filter(|n| n.has_pieces.contains(BlockId(p)))
                        .count();
                    prop_assert_eq!(node.rarity[p as usize] as usize, holders);
                }
                // The probed neighbour has unchoked us and some of its request
                // slots are free; the requests dropped from them stay in flight.
                let neighbours: Vec<NodeId> = node.neighbours.keys().copied().collect();
                let probe = match neighbours.len() {
                    0 => peer_of(k),
                    len => neighbours[(arg >> 8) as usize % len],
                };
                let mut counted = node.clone();
                if let Some(n) = counted.neighbours.get_mut(&probe) {
                    n.peer_choking = false;
                    n.outstanding.truncate((arg >> 4) as usize % OUTSTANDING_PER_PEER);
                }
                let mut reference_rng = rng.clone();
                let expected = reference_request(&counted, probe, &mut reference_rng);
                let mut counted_rng = rng.clone();
                let commands = drive(&mut counted, &net, &mut counted_rng, |node, ctx| {
                    node.issue_requests_to(ctx, probe)
                });
                prop_assert_eq!(request_to(&commands, probe), expected);
                prop_assert_eq!(counted_rng, reference_rng);
            }
        }
    }

    /// `node` with `peer` as a neighbour holding `pieces`, still choking us.
    fn with_neighbour(
        node: &mut BitTorrentNode,
        net: &Network,
        rng: &mut StdRng,
        peer: NodeId,
        pieces: &[u32],
    ) {
        let bitfield = pieces.to_vec();
        drive(node, net, rng, |node, ctx| {
            node.on_control(ctx, peer, BtMsg::Handshake { bitfield })
        });
    }

    #[test]
    fn a_partially_downloaded_piece_is_requested_before_an_untouched_one() {
        let net = Network::new(topology::constrained_access(NODES));
        let mut rng = StdRng::seed_from_u64(1);
        let mut node = leecher(48);
        with_neighbour(&mut node, &net, &mut rng, NodeId(2), &[0, 1, 2]);
        // Piece 1 is the most common and one block of it has arrived.
        for peer in 3..6 {
            with_neighbour(&mut node, &net, &mut rng, NodeId(peer), &[1]);
        }
        drive(&mut node, &net, &mut rng, |node, ctx| {
            node.on_block_received(ctx, NodeId(3), arrival(BlockId(16)))
        });
        let commands = drive(&mut node, &net, &mut rng, |node, ctx| {
            node.on_control(ctx, NodeId(2), BtMsg::Unchoke)
        });
        let partial: Vec<BlockId> = (17..22).map(BlockId).collect();
        assert_eq!(request_to(&commands, NodeId(2)), Some(partial));
    }

    #[test]
    fn among_untouched_pieces_the_rarest_goes_first() {
        // 34 blocks: pieces 0 and 1 of 16 blocks, piece 2 of two.
        let net = Network::new(topology::constrained_access(NODES));
        let mut rng = StdRng::seed_from_u64(2);
        let mut node = leecher(34);
        with_neighbour(&mut node, &net, &mut rng, NodeId(2), &[0, 1, 2]);
        with_neighbour(&mut node, &net, &mut rng, NodeId(3), &[0, 1]);
        with_neighbour(&mut node, &net, &mut rng, NodeId(4), &[0]);
        assert_eq!(node.rarity, vec![3, 2, 1]);
        let commands = drive(&mut node, &net, &mut rng, |node, ctx| {
            node.on_control(ctx, NodeId(2), BtMsg::Unchoke)
        });
        let rarest_first = [32, 33, 16, 17, 18].map(BlockId).to_vec();
        assert_eq!(request_to(&commands, NodeId(2)), Some(rarest_first));
    }

    #[test]
    fn one_call_draws_one_value_per_piece_the_peer_holds() {
        let net = Network::new(topology::constrained_access(NODES));
        let mut rng = StdRng::seed_from_u64(3);
        let mut node = leecher(64);
        with_neighbour(&mut node, &net, &mut rng, NodeId(2), &[0, 1, 3]);
        // Piece 0 is complete: the peer still holds it, nothing in it is
        // wanted, and it still draws.
        for b in 0..16 {
            drive(&mut node, &net, &mut rng, |node, ctx| {
                node.on_block_received(ctx, NodeId(3), arrival(BlockId(b)))
            });
        }
        let mut expected = rng.clone();
        let holds = node.neighbours[&NodeId(2)].has_pieces.count();
        for _ in 0..holds {
            expected.gen::<u64>();
        }
        let commands = drive(&mut node, &net, &mut rng, |node, ctx| {
            node.on_control(ctx, NodeId(2), BtMsg::Unchoke)
        });
        assert!(request_to(&commands, NodeId(2)).is_some());
        assert_eq!(holds, 3);
        assert_eq!(rng, expected);
    }

    /// BitTorrent has no goodbye: a leaver with neighbours and requests in
    /// flight records nothing on shutdown, so the swarm sees a leave as a
    /// crash.
    #[test]
    fn shutdown_records_no_command() {
        let net = Network::new(topology::constrained_access(NODES));
        let mut rng = StdRng::seed_from_u64(4);
        let mut node = leecher(48);
        with_neighbour(&mut node, &net, &mut rng, NodeId(2), &[0, 1, 2]);
        with_neighbour(&mut node, &net, &mut rng, NodeId(3), &[1]);
        let requested = drive(&mut node, &net, &mut rng, |node, ctx| {
            node.on_control(ctx, NodeId(2), BtMsg::Unchoke)
        });
        assert!(request_to(&requested, NodeId(2)).is_some());
        let commands = drive(&mut node, &net, &mut rng, |node, ctx| node.on_shutdown(ctx));
        assert!(commands.is_empty(), "on_shutdown recorded {commands:?}");
    }
}
