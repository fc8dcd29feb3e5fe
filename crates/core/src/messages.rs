//! Bullet′'s control-message vocabulary.
//!
//! Data blocks never travel inside these messages — they go through the
//! emulator's per-connection block queues. Control messages carry peering
//! handshakes, availability diffs, block requests and RanSub samples; their
//! [`WireSize`] is what the emulator charges as control overhead.

use dissem_codec::{BlockBitmap, BlockId};
use netsim::WireSize;
use overlay::Sample;

/// A control message exchanged between Bullet′ nodes.
#[derive(Debug, Clone)]
pub enum Msg {
    /// RanSub collect payload travelling from a child to its tree parent.
    RansubCollect {
        /// Collected sample of the child's subtree.
        sample: Sample,
        /// Epoch number.
        epoch: u64,
    },
    /// RanSub distribute payload travelling from a parent to a tree child.
    RansubDistribute {
        /// The subset the child should adopt and re-mix.
        sample: Sample,
        /// Epoch number.
        epoch: u64,
    },
    /// "Please become one of my senders" — sent by a prospective receiver.
    PeerRequest {
        /// How many blocks the requester already has. The sender does not
        /// read it (its `PeerAccept` lists every block it holds); it stays
        /// because its 4 bytes are part of the message's wire size.
        have_count: u32,
    },
    /// Positive reply to [`Msg::PeerRequest`]: the initial file info.
    PeerAccept {
        /// Every block the sender currently has: a copy of its bitmap. On
        /// the wire it is the list of those blocks, in ascending order.
        available: BlockBitmap,
    },
    /// Negative reply to [`Msg::PeerRequest`] (receiver slots exhausted).
    PeerReject,
    /// Tear down the peering in whichever direction it exists.
    PeerClose,
    /// Incremental availability diff: blocks newly available at the sender.
    Diff {
        /// Newly available blocks (never previously advertised to this peer).
        blocks: Vec<BlockId>,
    },
    /// Receiver → sender: "I am about to run out of request candidates, send
    /// me a diff now."
    DiffRequest,
    /// Orphan → root: "my control-tree parent failed, adopt me as a child"
    /// (the emulator's stand-in for the overlay tree's repair protocol).
    TreeAttach,
    /// Receiver → sender: ordered request for specific blocks.
    BlockRequest {
        /// The blocks to queue, in the order the receiver wants them served.
        blocks: Vec<BlockId>,
        /// The receiver's current total incoming bandwidth estimate in
        /// bytes/second; the sender uses it when ranking receivers for
        /// trimming (§3.3.1).
        incoming_bw: u64,
    },
}

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        // 1-byte tag + 8-byte session/packet header on everything.
        const HDR: usize = 9;
        match self {
            Msg::RansubCollect { sample, .. } | Msg::RansubDistribute { sample, .. } => {
                HDR + 8 + sample.wire_size()
            }
            Msg::PeerRequest { .. } => HDR + 4,
            Msg::PeerAccept { available } => HDR + 4 + 4 * available.count() as usize,
            Msg::PeerReject | Msg::PeerClose | Msg::DiffRequest | Msg::TreeAttach => HDR,
            Msg::Diff { blocks } => HDR + 4 + 4 * blocks.len(),
            Msg::BlockRequest { blocks, .. } => HDR + 12 + 4 * blocks.len(),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Msg::RansubCollect { .. } => "ransub_collect",
            Msg::RansubDistribute { .. } => "ransub_distribute",
            Msg::PeerRequest { .. } => "peer_request",
            Msg::PeerAccept { .. } => "peer_accept",
            Msg::PeerReject => "peer_reject",
            Msg::PeerClose => "peer_close",
            Msg::Diff { .. } => "diff",
            Msg::DiffRequest => "diff_request",
            Msg::TreeAttach => "tree_attach",
            Msg::BlockRequest { .. } => "block_request",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay::NodeSummary;

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = Msg::Diff {
            blocks: vec![BlockId(0)],
        };
        let large = Msg::Diff {
            blocks: (0..100).map(BlockId).collect(),
        };
        assert!(large.wire_size() > small.wire_size());
        assert_eq!(large.wire_size() - small.wire_size(), 99 * 4);

        let empty = Msg::PeerReject;
        assert!(empty.wire_size() < small.wire_size());

        let sample = Sample {
            entries: vec![
                NodeSummary {
                    node: 1,
                    have_count: 2,
                    has_everything: false
                };
                10
            ],
            weight: 10,
        };
        let ransub = Msg::RansubDistribute { sample, epoch: 3 };
        assert!(ransub.wire_size() > 9 + 8 + 8);
    }

    #[test]
    fn block_request_accounts_for_bandwidth_hint() {
        let a = Msg::BlockRequest {
            blocks: vec![],
            incoming_bw: 0,
        };
        assert_eq!(a.wire_size(), 9 + 12);
    }
}
