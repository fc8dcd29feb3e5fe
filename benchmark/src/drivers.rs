//! Layer drivers: the harness calls one layer's public functions directly,
//! with an operation mix sized from the workload's own counts.
//!
//! A driver yields a **unit cost** (ns per operation). Multiplied by the
//! workload's operation count and divided by its run time that gives an
//! **estimated share** — a model, kept apart from the shares the harness
//! measures with spans. Each driver runs a fixed number of operations so
//! that its inputs, like the workloads', depend on the seed alone.

use std::hint::black_box;
use std::time::Instant;

use desim::{EventKey, EventQueue, RngFactory, SimDuration, SimTime};
use dissem_codec::{BlockBitmap, BlockId, DiffTracker};
use netsim::{ChangeSchedule, ConnUpdate, Network, NodeId, Topology};
use overlay::{ControlTree, NodeSummary, RanSubAgent, RanSubEmit};
use rand::Rng;

/// The queue traffic of a run, read from its metrics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueMix {
    /// Events dispatched.
    pub pops: u64,
    /// Events scheduled.
    pub pushes: u64,
    /// Events cancelled.
    pub cancels: u64,
    /// Events moved.
    pub reschedules: u64,
    /// Deepest the queue got.
    pub max_pending: u64,
}

impl QueueMix {
    /// All queue operations together.
    pub fn ops(&self) -> u64 {
        self.pops + self.pushes + self.cancels + self.reschedules
    }
}

/// `desim.queue`: the classic hold model on an `EventQueue<u32>` kept
/// `mix.max_pending` deep — pop the earliest event, push a successor — with
/// cancels and reschedules of random live events mixed in at the workload's
/// own ratio to pops. Returns ns per queue operation.
pub fn queue_ns_per_op(mix: &QueueMix, rng: &RngFactory) -> f64 {
    const HOLDS: u64 = 200_000;
    let mut rng = rng.stream("bench.driver.queue");
    let depth = mix.max_pending.clamp(16, 1 << 20) as usize;
    let pops = mix.pops.max(1) as f64;
    let cancel_p = (mix.cancels as f64 / pops).min(1.0);
    let move_p = (mix.reschedules as f64 / pops).min(1.0);

    let mut queue: EventQueue<u32> = EventQueue::new();
    // The payload is the event's slot in `keys`, so a pop tells which key
    // died and where its successor's key goes.
    let mut keys: Vec<EventKey> = (0..depth)
        .map(|slot| {
            let at = SimTime::from_secs_f64(rng.gen::<f64>());
            queue.push(at, slot as u32)
        })
        .collect();

    let mut ops = 0u64;
    let started = Instant::now();
    for _ in 0..HOLDS {
        let (now, slot) = queue.pop().expect("the hold model never drains");
        let later = now + SimDuration::from_secs_f64(rng.gen::<f64>());
        keys[slot as usize] = queue.push(later, slot);
        ops += 2;
        if rng.gen::<f64>() < cancel_p {
            let victim = rng.gen_range(0..depth);
            if queue.cancel(keys[victim]).is_some() {
                let at = now + SimDuration::from_secs_f64(rng.gen::<f64>());
                keys[victim] = queue.push(at, victim as u32);
                ops += 2;
            }
        }
        if rng.gen::<f64>() < move_p {
            let victim = rng.gen_range(0..depth);
            let at = now + SimDuration::from_secs_f64(rng.gen::<f64>());
            if queue.reschedule(keys[victim], at) {
                ops += 1;
            }
        }
    }
    let nanos = started.elapsed().as_nanos() as f64;
    black_box(queue.len());
    nanos / ops as f64
}

/// A fluid-only network under load: `flows` distinct ordered pairs, each
/// with a block in flight and one queued behind it, and the completion
/// events the runner would hold for them.
struct FluidLoad {
    net: Network,
    pending: EventQueue<u32>,
    keys: Vec<Option<EventKey>>,
    now: SimTime,
    next_block: u32,
}

const DRIVER_BLOCK_BYTES: u64 = 16 * 1024;

impl FluidLoad {
    fn new(topo: Topology, flows: usize, rng: &RngFactory) -> Self {
        let n = topo.len() as u32;
        let mut rng = rng.stream("bench.driver.network");
        let mut load = FluidLoad {
            net: Network::new(topo),
            pending: EventQueue::new(),
            keys: Vec::new(),
            now: SimTime::ZERO,
            next_block: 0,
        };
        let wanted = flows.clamp(1, (n as usize) * (n as usize - 1) / 2);
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < wanted {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b && seen.insert((a, b)) {
                load.queue(NodeId(a), NodeId(b));
                load.queue(NodeId(a), NodeId(b));
            }
        }
        load
    }

    fn queue(&mut self, from: NodeId, to: NodeId) {
        let block = BlockId(self.next_block);
        self.next_block += 1;
        let updates = self
            .net
            .queue_block(self.now, from, to, block, DRIVER_BLOCK_BYTES);
        self.apply(updates);
    }

    fn apply(&mut self, updates: Vec<ConnUpdate>) {
        for update in updates {
            match update {
                ConnUpdate::Schedule { fid, at, .. } => {
                    let f = fid as usize;
                    if self.keys.len() <= f {
                        self.keys.resize(f + 1, None);
                    }
                    let moved = self.keys[f].is_some_and(|key| self.pending.reschedule(key, at));
                    if !moved {
                        self.keys[f] = Some(self.pending.push(at, fid));
                    }
                }
                ConnUpdate::Cancel { fid, .. } => {
                    if let Some(key) = self.keys.get_mut(fid as usize).and_then(Option::take) {
                        self.pending.cancel(key);
                    }
                }
            }
        }
    }

    /// Completes the block that finishes first and queues another on the
    /// same connection, as a saturated sender would.
    fn complete_next(&mut self) {
        let (at, fid) = self
            .pending
            .pop()
            .expect("every flow has a block in flight");
        self.now = at;
        self.keys[fid as usize] = None;
        let (done, updates) = self
            .net
            .on_block_done_by_id(at, fid)
            .expect("the completion event belongs to a live flow");
        self.apply(updates);
        self.queue(done.from, done.to);
    }
}

/// `netsim.network`: the fluid model alone on the workload's topology —
/// `flows` saturated connections, blocks completed in finish order through
/// `queue_block` / `on_block_done_by_id` (the pattern of
/// `netsim/tests/fairness_oracle.rs`, without a protocol above it). Returns
/// ns per completed block.
pub fn network_ns_per_block_done(topo: Topology, flows: usize, rng: &RngFactory) -> f64 {
    const BLOCKS: u32 = 4_000;
    let mut load = FluidLoad::new(topo, flows, rng);
    let started = Instant::now();
    for _ in 0..BLOCKS {
        load.complete_next();
    }
    let nanos = started.elapsed().as_nanos() as f64;
    black_box(load.net.live_flows());
    nanos / f64::from(BLOCKS)
}

/// `netsim.network` under link changes: applies each batch of `schedule` to
/// the loaded topology and re-prices the touched paths
/// (`LinkChangeBatch::apply` + `Network::reprice_paths`), completing a few
/// blocks in between so the next batch meets a settled allocation. Returns
/// ns per batch.
pub fn network_ns_per_reprice(
    topo: Topology,
    flows: usize,
    schedule: &ChangeSchedule,
    rng: &RngFactory,
) -> f64 {
    let mut load = FluidLoad::new(topo, flows, rng);
    let mut nanos = 0u128;
    let mut batches = 0u32;
    for (_, batch) in schedule.iter().take(12) {
        for _ in 0..50 {
            load.complete_next();
        }
        let started = Instant::now();
        let pairs = batch.apply(load.net.topology_mut());
        let updates = load.net.reprice_paths(load.now, &pairs);
        nanos += started.elapsed().as_nanos();
        load.apply(updates);
        batches += 1;
    }
    if batches == 0 {
        0.0
    } else {
        nanos as f64 / f64::from(batches)
    }
}

/// `overlay.ransub`: whole collect + distribute epochs over
/// `ControlTree::random(nodes, 10)`, delivered in memory (the pattern of
/// `run_epoch` in `ransub.rs`'s tests; the emitting node is the sender the
/// transport would supply). Returns ns per node and epoch.
pub fn ransub_ns_per_node_epoch(nodes: usize, subset: usize, rng: &RngFactory) -> f64 {
    let tree = ControlTree::random(nodes, 10, rng);
    let mut rngs: Vec<_> = (0..nodes)
        .map(|i| rng.stream_indexed("bench.driver.ransub", i as u64))
        .collect();
    let mut agents: Vec<RanSubAgent> = (0..nodes as u32)
        .map(|i| RanSubAgent::new(NodeId(i), &tree, subset))
        .collect();
    let epochs = (40_000 / nodes).clamp(2, 200);
    let mut delivered = 0u64;
    let mut inbox: Vec<(usize, RanSubEmit)> = Vec::new();

    let started = Instant::now();
    for epoch in 0..epochs {
        for i in (0..nodes).rev() {
            let summary = NodeSummary {
                node: i as u32,
                have_count: (epoch * 7 + i) as u32,
                has_everything: i == 0,
            };
            let emitted = agents[i].begin_epoch(summary, &mut rngs[i]);
            inbox.extend(emitted.into_iter().map(|e| (i, e)));
        }
        while let Some((sender, msg)) = inbox.pop() {
            let (at, emitted) = match msg {
                RanSubEmit::CollectToParent {
                    parent,
                    sample,
                    epoch,
                } => {
                    let p = parent.index();
                    let out =
                        agents[p].on_collect(NodeId(sender as u32), sample, epoch, &mut rngs[p]);
                    (p, out)
                }
                RanSubEmit::DistributeToChild {
                    child,
                    sample,
                    epoch,
                } => {
                    let c = child.index();
                    (c, agents[c].on_distribute(sample, epoch, &mut rngs[c]))
                }
                RanSubEmit::Deliver { .. } => {
                    delivered += 1;
                    continue;
                }
            };
            inbox.extend(emitted.into_iter().map(|e| (at, e)));
        }
    }
    let nanos = started.elapsed().as_nanos() as f64;
    assert_eq!(
        delivered,
        (epochs * nodes) as u64,
        "every node gets a subset every epoch"
    );
    nanos / (epochs * nodes) as f64
}

/// Two bitmaps of `k` blocks at a mid-download fill: each holds a random
/// ~half of the file.
fn half_full_pair(k: u32, rng: &RngFactory) -> (BlockBitmap, BlockBitmap) {
    let mut rng = rng.stream("bench.driver.bitmap");
    let mut mine = BlockBitmap::new(k);
    let mut theirs = BlockBitmap::new(k);
    for id in 0..k {
        if rng.gen::<f64>() < 0.5 {
            mine.insert(BlockId(id));
        }
        if rng.gen::<f64>() < 0.5 {
            theirs.insert(BlockId(id));
        }
    }
    (mine, theirs)
}

/// `dissem_codec.bitmap`: what a request decision does with two bitmaps of
/// the workload's `k` — count what the peer can offer (`difference_count`)
/// and walk it (`and_not_iter`). Returns ns per diff.
pub fn bitmap_ns_per_diff(k: u32, rng: &RngFactory) -> f64 {
    const DIFFS: u32 = 20_000;
    let (mine, theirs) = half_full_pair(k, rng);
    let mut sink = 0u64;
    let started = Instant::now();
    for _ in 0..DIFFS {
        let (a, b) = (black_box(&theirs), black_box(&mine));
        sink += u64::from(a.difference_count(b));
        sink += a.and_not_iter(b).map(|id| u64::from(id.0)).sum::<u64>();
    }
    let nanos = started.elapsed().as_nanos() as f64;
    black_box(sink);
    nanos / f64::from(DIFFS)
}

/// `dissem_codec.diff`: a sender advertising a growing bitmap of the
/// workload's `k` to one receiver through `DiffTracker::next_diff`, eight
/// new blocks per advert. Returns ns per advert.
pub fn diff_ns_per_advert(k: u32, rng: &RngFactory) -> f64 {
    const ROUNDS: u32 = 200;
    let mut rng = rng.stream("bench.driver.diff");
    let mut order: Vec<u32> = (0..k).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut adverts = 0u64;
    let mut sink = 0usize;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        let mut have = BlockBitmap::new(k);
        let mut tracker = DiffTracker::new();
        for chunk in order.chunks(8) {
            for &id in chunk {
                have.insert(BlockId(id));
            }
            sink += tracker.next_diff(black_box(&have), usize::MAX).blocks.len();
            adverts += 1;
        }
    }
    let nanos = started.elapsed().as_nanos() as f64;
    assert_eq!(
        sink,
        (ROUNDS * k) as usize,
        "every block is advertised once"
    );
    nanos / adverts as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::topology;

    #[test]
    fn drivers_return_positive_unit_costs() {
        let rng = RngFactory::new(3);
        let mix = QueueMix {
            pops: 1000,
            pushes: 1100,
            cancels: 100,
            reschedules: 300,
            max_pending: 64,
        };
        assert_eq!(mix.ops(), 2500);
        assert!(queue_ns_per_op(&mix, &rng) > 0.0);
        let topo = topology::modelnet_mesh(8, 0.03, &rng);
        assert!(network_ns_per_block_done(topo.clone(), 20, &rng) > 0.0);
        let schedule = netsim::dynamics::correlated_decrease_schedule(
            8,
            SimDuration::from_secs(20),
            SimDuration::from_secs(100),
            &rng,
        );
        assert!(network_ns_per_reprice(topo.clone(), 20, &schedule, &rng) > 0.0);
        assert_eq!(network_ns_per_reprice(topo, 20, &Vec::new(), &rng), 0.0);
        assert!(ransub_ns_per_node_epoch(30, 10, &rng) > 0.0);
        assert!(bitmap_ns_per_diff(128, &rng) > 0.0);
        assert!(diff_ns_per_advert(128, &rng) > 0.0);
    }
}
