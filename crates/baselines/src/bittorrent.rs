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
use netsim::{BlockReceipt, Ctx, NodeId, ProbeStats, Protocol, TimerToken, WireSize};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// BitTorrent's timer vocabulary (see [`netsim::TimerToken`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtTimer {
    /// Recompute the choke set.
    Choke,
    /// Rotate the optimistic unchoke.
    Optimistic,
    /// Housekeeping: request refresh, tracker re-announce.
    Keepalive,
}

impl TimerToken for BtTimer {
    fn encode(&self) -> u64 {
        match self {
            BtTimer::Choke => 0,
            BtTimer::Optimistic => 1,
            BtTimer::Keepalive => 2,
        }
    }

    fn decode(bits: u64) -> Self {
        match bits {
            0 => BtTimer::Choke,
            1 => BtTimer::Optimistic,
            2 => BtTimer::Keepalive,
            other => panic!("not a BitTorrent timer token: {other}"),
        }
    }
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
    /// We no longer need anything the recipient has.
    NotInterested,
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
            BtMsg::TrackerRequest
            | BtMsg::Interested
            | BtMsg::NotInterested
            | BtMsg::Choke
            | BtMsg::Unchoke => HDR,
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
            BtMsg::NotInterested => "not_interested",
            BtMsg::Choke => "choke",
            BtMsg::Unchoke => "unchoke",
            BtMsg::Request { .. } => "request",
        }
    }
}

/// Per-neighbour state.
#[derive(Debug, Clone, Default)]
struct Neighbour {
    /// Pieces the neighbour has completed (from bitfield + Have messages).
    has_pieces: BTreeSet<u32>,
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
    /// Blocks we have requested from them and not yet received.
    outstanding: BTreeSet<BlockId>,
}

impl Neighbour {
    fn new() -> Self {
        Neighbour {
            am_choking: true,
            peer_choking: true,
            ..Default::default()
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
    /// Blocks requested anywhere (avoid duplicate requests before endgame).
    in_flight: BTreeSet<BlockId>,
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
            in_flight: BTreeSet::new(),
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

    fn piece_rarity(&self, piece: u32) -> usize {
        self.neighbours
            .values()
            .filter(|n| n.has_pieces.contains(&piece))
            .count()
    }

    /// Blocks of `piece` that we are missing and that are not in flight.
    fn wanted_blocks_of_piece(&self, piece: u32) -> Vec<BlockId> {
        let start = piece * PIECE_BLOCKS;
        let end = (start + PIECE_BLOCKS).min(self.cfg.file.num_blocks());
        (start..end)
            .map(BlockId)
            .filter(|b| !self.have.contains(*b) && !self.in_flight.contains(b))
            .collect()
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
        // from them. Pieces are ranked strictly rarest-first with a random
        // tie-break; sub-piece blocks are then requested in order.
        let mut pieces: Vec<(bool, usize, u64, u32)> = {
            let candidate_pieces: Vec<u32> = n.has_pieces.iter().copied().collect();
            let rng: &mut StdRng = ctx.rng();
            candidate_pieces
                .into_iter()
                .map(|p| (false, 0usize, rng.gen::<u64>(), p))
                .collect()
        };
        for entry in &mut pieces {
            let piece = entry.3;
            // Strict priority: finish partially downloaded pieces first so they
            // become shareable, then go rarest-first among untouched pieces.
            let total = PIECE_BLOCKS.min(self.cfg.file.num_blocks() - piece * PIECE_BLOCKS);
            let missing = self.piece_missing[piece as usize];
            entry.0 = missing == total; // false (=first) when partially done
            entry.1 = self.piece_rarity(piece);
        }
        pieces.sort_unstable_by_key(|(untouched, r, t, _)| (*untouched, *r, *t));
        let mut chosen: Vec<BlockId> = Vec::new();
        for (_, _, _, piece) in pieces {
            if chosen.len() >= want {
                break;
            }
            for b in self.wanted_blocks_of_piece(piece) {
                if chosen.len() >= want {
                    break;
                }
                chosen.push(b);
            }
        }
        if chosen.is_empty() {
            return;
        }
        let n = self.neighbours.get_mut(&peer).expect("checked above");
        for &b in &chosen {
            n.outstanding.insert(b);
            self.in_flight.insert(b);
        }
        ctx.send(peer, BtMsg::Request { blocks: chosen });
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
                    let score = if self.is_seed() || self.download_done() {
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
        self.neighbours.insert(peer, Neighbour::new());
        ctx.send(
            peer,
            BtMsg::Handshake {
                bitfield: self.bitfield(),
            },
        );
    }

    fn note_peer_pieces(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId, pieces: &[u32]) {
        let mut becomes_interesting = false;
        let missing: Vec<bool> = pieces
            .iter()
            .map(|&p| self.piece_missing.get(p as usize).copied().unwrap_or(0) > 0)
            .collect();
        if let Some(n) = self.neighbours.get_mut(&peer) {
            for (&p, &still_missing) in pieces.iter().zip(missing.iter()) {
                n.has_pieces.insert(p);
                if still_missing {
                    becomes_interesting = true;
                }
            }
            if becomes_interesting && !n.am_interested {
                n.am_interested = true;
                ctx.send(peer, BtMsg::Interested);
            }
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
                    self.neighbours.insert(from, Neighbour::new());
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
            BtMsg::Interested | BtMsg::NotInterested => {
                // Interest only matters for slot allocation refinements we do
                // not model; recorded implicitly through requests.
            }
            BtMsg::Choke => {
                if let Some(n) = self.neighbours.get_mut(&from) {
                    n.peer_choking = true;
                    // Outstanding requests to a choking peer are abandoned.
                    for b in std::mem::take(&mut n.outstanding) {
                        self.in_flight.remove(&b);
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
        self.in_flight.remove(&block);
        if let Some(n) = self.neighbours.get_mut(&from) {
            n.outstanding.remove(&block);
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
                self.in_flight.remove(&b);
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
        self.is_seed() || self.download_done()
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(leech.wanted_blocks_of_piece(1).len(), 16);
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
}
