//! The per-sender outstanding-request controller (paper §3.3.3, Fig 3).
//!
//! The receiver decides, per sender, how many block requests to keep
//! outstanding. Too few and the sender's pipe drains between requests (fatal
//! on high bandwidth-delay-product paths, Fig 10); too many and a sudden
//! slowdown strands a long queue of blocks behind a slow connection (Fig 12).
//!
//! Bullet′ adapts the window with a controller borrowed from XCP's efficiency
//! controller: the sender reports, with every block, how many blocks were
//! queued in front of it (`in_front`) and the wasted time associated with it
//! (`wasted` — negative when the sender sat idle waiting for a request,
//! positive when the block waited in the queue). The controller drives the
//! system towards exactly one block queued in front of the socket buffer,
//! using the gain constants `alpha = 0.4`, `beta = 0.226` for which the XCP
//! control loop is provably stable. After each adjustment the next request is
//! *marked* and no further adjustment happens until the marked block arrives,
//! so the controller observes the effect of its last decision before acting
//! again.
//!
//! One case is left open by the paper's pseudocode (a block with positive
//! wait *and* more than one block in front of it, where applying the
//! wasted-time term would double-count the queue it waited behind, as the
//! text notes); we apply only the excess-queue term there, which preserves
//! the "decrease when over-queued" intent without double counting.

use dissem_codec::BlockId;

use crate::config::{OutstandingPolicy, INITIAL_OUTSTANDING, MAX_OUTSTANDING};

/// XCP-derived proportional gain applied to the wasted-time term.
pub const ALPHA: f64 = 0.4;
/// XCP-derived gain applied to the excess-queue term.
pub const BETA: f64 = 0.226;

/// Per-sender controller for the number of outstanding block requests.
#[derive(Debug, Clone, PartialEq)]
pub struct OutstandingController {
    policy: OutstandingPolicy,
    /// Current (real-valued) desired number of outstanding blocks.
    desired: f64,
    /// Block whose arrival we are waiting for before adjusting again.
    marked: Option<BlockId>,
    /// Set after an adjustment: the next request issued should be marked.
    wants_mark: bool,
}

impl OutstandingController {
    /// Creates a controller with the given policy: a dynamic one starts at
    /// [`INITIAL_OUTSTANDING`], a fixed one at its window.
    pub fn new(policy: OutstandingPolicy) -> Self {
        let desired = match policy {
            OutstandingPolicy::Dynamic => f64::from(INITIAL_OUTSTANDING),
            OutstandingPolicy::Fixed(k) => f64::from(k),
        };
        OutstandingController {
            policy,
            desired,
            marked: None,
            wants_mark: false,
        }
    }

    /// The current per-sender request budget, in whole blocks.
    ///
    /// The paper takes the ceiling whenever the value is increased so that the
    /// request rate can actually saturate the TCP connection; we apply the
    /// ceiling uniformly, clamped to `[1, MAX_OUTSTANDING]`.
    pub fn window(&self) -> u32 {
        (self.desired.ceil().max(1.0) as u32).min(MAX_OUTSTANDING)
    }

    /// True when the controller wants the next issued request to be marked.
    pub fn wants_mark(&self) -> bool {
        self.wants_mark
    }

    /// Records that `block` was just requested and consumes a pending mark.
    pub fn note_requested(&mut self, block: BlockId) {
        if self.wants_mark && self.marked.is_none() {
            self.marked = Some(block);
            self.wants_mark = false;
        }
    }

    /// Forgets the marked block (e.g. when the peering to this sender is torn
    /// down and re-established, or the marked request timed out elsewhere).
    pub fn clear_mark(&mut self) {
        self.marked = None;
        self.wants_mark = false;
    }

    /// Feeds one block receipt into the controller.
    ///
    /// * `block` — the block that arrived;
    /// * `in_front` / `wasted` — the sender-side measurements carried with it;
    /// * `bandwidth` — the receiver's current estimate of this sender's
    ///   delivery rate in bytes/second;
    /// * `block_size` — the nominal block size in bytes;
    /// * `outstanding_now` — how many requests are currently outstanding to
    ///   this sender (the `requested` of the paper's pseudocode).
    pub fn on_block_received(
        &mut self,
        block: BlockId,
        in_front: u32,
        wasted: f64,
        bandwidth: f64,
        block_size: f64,
        outstanding_now: u32,
    ) {
        if let OutstandingPolicy::Fixed(_) = self.policy {
            return;
        }
        // If an adjustment is in flight, wait for the marked block.
        if let Some(marked) = self.marked {
            if marked == block {
                self.marked = None;
            }
            return;
        }

        // Fig 3: ManageOutstanding(sender, block). Start one deeper than what
        // is currently outstanding, then apply the XCP-style corrections.
        let mut desired = f64::from(outstanding_now) + 1.0;
        let excess_queue = f64::from(in_front.saturating_sub(1));
        let wasted_blocks = wasted * bandwidth / block_size.max(1.0);
        if wasted <= 0.0 || in_front <= 1 {
            // Idle gap (negative => grows the window) or a wait with no
            // excess queue (positive => shrinks it).
            desired -= ALPHA * wasted_blocks;
        }
        if in_front > 1 {
            // Excess queue ahead of this block; do not double-count its
            // service time through the wasted term.
            desired -= BETA * excess_queue;
        }

        // Growth is rate-limited: a long idle gap usually means the receiver
        // had nothing to request (an availability gap), not that the window is
        // too small, so the window opens by at most two blocks per observed
        // delivery. Decreases are applied in full — reacting slowly to a
        // slowdown is exactly the failure mode of Fig 12.
        let desired = desired.min(self.desired + 2.0);
        let clamped = desired.clamp(1.0, f64::from(MAX_OUTSTANDING));
        if (clamped - self.desired).abs() > f64::EPSILON {
            self.desired = clamped;
            // Observe the effect before adjusting again.
            self.wants_mark = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dynamic() -> OutstandingController {
        OutstandingController::new(OutstandingPolicy::Dynamic)
    }

    #[test]
    fn initial_window_matches_paper_default() {
        assert_eq!(dynamic().window(), 3);
        let fixed = OutstandingController::new(OutstandingPolicy::Fixed(15));
        assert_eq!(fixed.window(), 15);
    }

    #[test]
    fn idle_sender_grows_the_window() {
        let mut c = dynamic();
        // The sender was idle for 0.1 s at 1 MB/s with 16 KB blocks: it could
        // have sent ~6 more blocks; the window must grow.
        c.on_block_received(BlockId(0), 0, -0.1, 1_000_000.0, 16_384.0, 3);
        assert!(
            c.window() > 3,
            "window should grow after idle time, got {}",
            c.window()
        );
    }

    #[test]
    fn queue_wait_shrinks_the_window() {
        let mut c = dynamic();
        // Grow it first.
        c.on_block_received(BlockId(0), 0, -0.5, 1_000_000.0, 16_384.0, 3);
        let grown = c.window();
        assert!(grown > 3);
        assert!(c.wants_mark());
        c.note_requested(BlockId(1));
        c.on_block_received(BlockId(1), 0, 0.0, 1_000_000.0, 16_384.0, grown);
        // A block that waited 2 s with nothing else in front: strong signal to
        // shrink (the link slowed down).
        c.on_block_received(BlockId(2), 1, 2.0, 100_000.0, 16_384.0, grown);
        assert!(
            c.window() < grown,
            "window should shrink, got {}",
            c.window()
        );
    }

    #[test]
    fn deep_queue_shrinks_via_excess_queue_term() {
        let mut c = dynamic();
        // wasted > 0 and in_front > 1: only the beta term applies.
        c.on_block_received(BlockId(0), 12, 1.5, 500_000.0, 16_384.0, 3);
        // desired = 3 + 1 - 0.226 * 11 = 1.51 → ceil 2.
        assert_eq!(c.window(), 2);
    }

    #[test]
    fn excess_queue_without_wait_shrinks_gently() {
        let mut c = dynamic();
        // wasted <= 0 and in_front > 1: both terms apply; with zero wasted the
        // alpha term is zero.
        c.on_block_received(BlockId(0), 4, 0.0, 500_000.0, 16_384.0, 3);
        // desired = 3 + 1 - 0.226 * 3 = 3.32 → ceil 4.
        assert_eq!(c.window(), 4);
    }

    #[test]
    fn marked_block_gates_adjustments() {
        let mut c = dynamic();
        c.on_block_received(BlockId(0), 0, -1.0, 1_000_000.0, 16_384.0, 3);
        let w = c.window();
        assert!(c.wants_mark());
        c.note_requested(BlockId(7));
        assert!(!c.wants_mark());
        // Receipts of other blocks do not adjust while the mark is pending.
        c.on_block_received(BlockId(1), 0, -1.0, 1_000_000.0, 16_384.0, w);
        c.on_block_received(BlockId(2), 0, -1.0, 1_000_000.0, 16_384.0, w);
        assert_eq!(c.window(), w);
        // The marked block's arrival clears the gate (but does not itself adjust).
        c.on_block_received(BlockId(7), 0, -1.0, 1_000_000.0, 16_384.0, w);
        assert_eq!(c.window(), w);
        // The next receipt adjusts again.
        c.on_block_received(BlockId(3), 0, -1.0, 1_000_000.0, 16_384.0, w);
        assert!(c.window() >= w);
    }

    #[test]
    fn window_respects_bounds() {
        let mut c = dynamic();
        for i in 0..200u32 {
            let out = c.window();
            c.on_block_received(BlockId(i), 0, -10.0, 10_000_000.0, 8_192.0, out);
            if c.wants_mark() {
                c.note_requested(BlockId(1000 + i));
                c.on_block_received(BlockId(1000 + i), 0, 0.0, 10_000_000.0, 8_192.0, out);
            }
        }
        assert_eq!(c.window(), 50, "repeated idle reports saturate at the cap");

        let mut c = dynamic();
        for i in 0..200u32 {
            let out = c.window();
            c.on_block_received(BlockId(i), 50, 10.0, 10_000_000.0, 8_192.0, out);
            if c.wants_mark() {
                c.note_requested(BlockId(1000 + i));
                c.on_block_received(BlockId(1000 + i), 0, 0.0, 10_000_000.0, 8_192.0, out);
            }
        }
        assert!(c.window() >= 1);
        assert!(
            c.window() <= 3,
            "persistent deep queues drive the window down"
        );
    }

    #[test]
    fn fixed_policy_never_moves() {
        let mut c = OutstandingController::new(OutstandingPolicy::Fixed(5));
        c.on_block_received(BlockId(0), 0, -5.0, 1_000_000.0, 16_384.0, 5);
        c.on_block_received(BlockId(1), 20, 5.0, 1_000_000.0, 16_384.0, 5);
        assert_eq!(c.window(), 5);
        assert!(!c.wants_mark());
    }

    #[test]
    fn clear_mark_resets_gating() {
        let mut c = dynamic();
        c.on_block_received(BlockId(0), 0, -1.0, 1_000_000.0, 16_384.0, 3);
        c.note_requested(BlockId(9));
        c.clear_mark();
        let w = c.window();
        c.on_block_received(BlockId(1), 0, -1.0, 1_000_000.0, 16_384.0, w);
        assert!(
            c.window() >= w,
            "adjustments resume after clearing the mark"
        );
    }
}
