//! `Timed<P>`: a delegating [`Protocol`] wrapper that times every hook call.
//!
//! Built on [`Ctx::retarget`] exactly as `netsim::conformance::Instrumented`
//! is: the wrapper shares the inner protocol's message and timer types, so
//! it can stand in for `P` under the real [`netsim::Runner`] and the run is
//! behaviourally identical to a bare one (the traced pass checks that the
//! canonical reports match). Per-call times are summed into one
//! `(calls, ns)` bucket per hook kind — a span per call would cost more than
//! most calls do.
//!
//! The buckets are process-global because the service layer replaces nodes
//! when it recycles slots: per-node buckets would be dropped with the node.
//! The harness runs one timed simulation at a time, so [`reset`] before and
//! [`take`] after a run delimit it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dissem_codec::BlockId;
use netsim::{BlockReceipt, Ctx, NodeId, ProbeStats, Protocol};

/// The hook kinds that get a bucket of their own. `on_init`,
/// `on_peer_failed` and `on_shutdown` share [`Hook::Other`]: they fire a
/// handful of times per node and run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hook {
    /// [`Protocol::on_control`].
    Control,
    /// [`Protocol::on_block_received`].
    BlockReceived,
    /// [`Protocol::on_block_sent`].
    BlockSent,
    /// [`Protocol::on_timer`].
    Timer,
    /// Every other hook.
    Other,
}

impl Hook {
    /// All bucketed hooks, in declaration order.
    pub const ALL: [Hook; 5] = [
        Hook::Control,
        Hook::BlockReceived,
        Hook::BlockSent,
        Hook::Timer,
        Hook::Other,
    ];

    /// The hook's name in span files and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Hook::Control => "on_control",
            Hook::BlockReceived => "on_block_received",
            Hook::BlockSent => "on_block_sent",
            Hook::Timer => "on_timer",
            Hook::Other => "other",
        }
    }
}

static CALLS: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];
static NANOS: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];

/// What the hooks of one timed run cost: calls and summed nanoseconds per
/// hook kind, indexed by [`Hook`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookTotals {
    /// Calls per hook kind.
    pub calls: [u64; 5],
    /// Summed wall nanoseconds per hook kind.
    pub nanos: [u64; 5],
}

impl HookTotals {
    /// Seconds spent in `hook`.
    pub fn secs(&self, hook: Hook) -> f64 {
        self.nanos[hook as usize] as f64 / 1e9
    }

    /// Calls of `hook`.
    pub fn calls(&self, hook: Hook) -> u64 {
        self.calls[hook as usize]
    }

    /// Seconds spent in all hooks together.
    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Zeroes the buckets before a timed run.
pub fn reset() {
    for i in 0..5 {
        CALLS[i].store(0, Ordering::Relaxed);
        NANOS[i].store(0, Ordering::Relaxed);
    }
}

/// Reads the buckets after a timed run.
pub fn take() -> HookTotals {
    let mut totals = HookTotals::default();
    for i in 0..5 {
        totals.calls[i] = CALLS[i].load(Ordering::Relaxed);
        totals.nanos[i] = NANOS[i].load(Ordering::Relaxed);
    }
    totals
}

#[inline]
fn timed<R>(hook: Hook, call: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = call();
    let nanos = started.elapsed().as_nanos() as u64;
    // Statistics only: nothing is published through these counters.
    CALLS[hook as usize].fetch_add(1, Ordering::Relaxed);
    NANOS[hook as usize].fetch_add(nanos, Ordering::Relaxed);
    out
}

/// The wrapper. `Timed<P>` implements [`Protocol`] with `P`'s own message
/// and timer types and forwards every hook to the wrapped instance.
#[derive(Debug, Clone)]
pub struct Timed<P: Protocol>(pub P);

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Timer = P::Timer;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
        timed(Hook::Other, || self.0.on_init(&mut ctx.retarget()));
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg) {
        timed(Hook::Control, || {
            self.0.on_control(&mut ctx.retarget(), from, msg)
        });
    }

    fn on_block_received(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, receipt: BlockReceipt) {
        timed(Hook::BlockReceived, || {
            self.0.on_block_received(&mut ctx.retarget(), from, receipt)
        });
    }

    fn on_block_sent(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId, block: BlockId) {
        timed(Hook::BlockSent, || {
            self.0.on_block_sent(&mut ctx.retarget(), to, block)
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Self::Timer) {
        timed(Hook::Timer, || self.0.on_timer(&mut ctx.retarget(), timer));
    }

    fn on_peer_failed(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        timed(Hook::Other, || {
            self.0.on_peer_failed(&mut ctx.retarget(), peer)
        });
    }

    fn on_shutdown(&mut self, ctx: &mut Ctx<'_, Self>) {
        timed(Hook::Other, || self.0.on_shutdown(&mut ctx.retarget()));
    }

    fn is_complete(&self) -> bool {
        self.0.is_complete()
    }

    fn probe_stats(&self) -> ProbeStats {
        self.0.probe_stats()
    }
}
