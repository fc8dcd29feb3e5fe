//! Criterion micro-benchmarks for the core data structures and algorithms:
//! block bitmaps, RanSub sample merging, the flow-control step, the
//! discrete-event engine, the fluid solver and the request strategy.
//!
//! These are wall-clock benchmarks of the *implementation* (the figures
//! measure emulated protocol behaviour, not host CPU time). Each says which
//! ledger metric of the `benchmark/` harness it predicts, or that no harness
//! driver covers it; one that would re-measure a harness workload or driver
//! does not belong here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use bullet_prime::{OutstandingController, OutstandingPolicy, RequestManager, RequestStrategy};
use desim::{EventKey, EventQueue, RngFactory, SimDuration, SimTime, Simulator};
use dissem_codec::{BlockBitmap, BlockId};
use netsim::{topology, ConnUpdate, Network, NodeId};
use overlay::{merge_samples, NodeSummary, Sample};

// `difference_count` predicts `dissem_codec.bitmap.ns_per_diff`, which the
// harness reads at its workloads' k <= 1280; this is the paper's k = 6400.
fn bench_bitmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap");
    let n = 6400u32; // The paper's 100 MB / 16 KB block count.
    group.bench_function("insert_and_count_6400", |b| {
        b.iter(|| {
            let mut bm = BlockBitmap::new(n);
            for i in (0..n).step_by(3) {
                bm.insert(BlockId(i));
            }
            bm.count()
        })
    });
    let mut a = BlockBitmap::new(n);
    let mut bbm = BlockBitmap::new(n);
    for i in 0..n {
        if i % 2 == 0 {
            a.insert(BlockId(i));
        }
        if i % 3 == 0 {
            bbm.insert(BlockId(i));
        }
    }
    group.bench_function("difference_count_6400", |b| {
        b.iter(|| a.difference_count(&bbm))
    });
    group.finish();
}

// `merge_samples` is the inner step of `overlay.ransub.ns_per_node_epoch`,
// which the harness times over whole epochs; no driver isolates the merge.
fn bench_ransub_merge(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let groups: Vec<Sample> = (0..8)
        .map(|g| Sample {
            entries: (0..10)
                .map(|i| NodeSummary {
                    node: g * 100 + i,
                    have_count: i,
                    has_everything: false,
                })
                .collect(),
            weight: 12,
        })
        .collect();
    c.bench_function("ransub_merge_8x10", |b| {
        b.iter(|| merge_samples(&mut rng, 10, &groups).entries.len())
    });
}

// No harness driver covers the flow controller alone.
fn bench_flow_controller(c: &mut Criterion) {
    c.bench_function("flow_controller_100k_updates", |b| {
        b.iter(|| {
            let mut ctl = OutstandingController::new(OutstandingPolicy::Dynamic, 3, 50);
            for i in 0..100_000u32 {
                let wasted = if i % 3 == 0 { -0.01 } else { 0.02 };
                ctl.on_block_received(
                    BlockId(i % 640),
                    i % 7,
                    wasted,
                    500_000.0,
                    16_384.0,
                    ctl.window(),
                );
                if ctl.wants_mark() {
                    ctl.note_requested(BlockId(i % 640 + 1));
                }
            }
            ctl.window()
        })
    });
}

// No harness driver covers `Simulator` schedule + step (`desim.queue.ns_per_op`
// is the bare queue in the hold model, `benchmark/src/drivers.rs`).
fn bench_event_engine(c: &mut Criterion) {
    c.bench_function("desim_schedule_run_100k", |b| {
        b.iter(|| {
            let mut sim: Simulator<u32> = Simulator::new();
            for i in 0..100_000u32 {
                sim.schedule_at(SimTime::from_nanos(u64::from(i % 9973) * 1000), i);
            }
            let mut count = 0u32;
            while sim.step().is_some() {
                count += 1;
            }
            count
        })
    });
}

/// Saturated flows on a fluid-only network, with the completion events the
/// runner would hold for them: blocks complete in finish order and the
/// sender queues the next one (the pattern of `netsim/tests/fairness_oracle.rs`,
/// without a protocol above it).
struct FluidLoad {
    net: Network,
    pending: EventQueue<u32>,
    keys: Vec<Option<EventKey>>,
    now: SimTime,
    next_block: u32,
}

impl FluidLoad {
    fn queue(&mut self, from: NodeId, to: NodeId) {
        let block = BlockId(self.next_block);
        self.next_block += 1;
        let updates = self.net.queue_block(self.now, from, to, block, 16 * 1024);
        self.apply(updates);
    }

    fn apply(&mut self, updates: Vec<ConnUpdate>) {
        for update in updates {
            match update {
                ConnUpdate::Schedule { fid, at } => {
                    let f = fid as usize;
                    if self.keys.len() <= f {
                        self.keys.resize(f + 1, None);
                    }
                    let moved = self.keys[f].is_some_and(|key| self.pending.reschedule(key, at));
                    if !moved {
                        self.keys[f] = Some(self.pending.push(at, fid));
                    }
                }
                ConnUpdate::Cancel { .. } => unreachable!("the load closes no connection"),
            }
        }
    }

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

/// The fluid solver under the `dyn_mesh` shape: every node of a 60-node lossy
/// mesh streams to six peers, one block at a time, so each completion takes a
/// flow idle and its successor block brings it back — about four in ten of
/// those transitions re-solve a component. Predicts
/// `netsim.network.est_share` on `dyn_mesh`.
///
/// ISSUE 21 (discovery crosses only links that are saturated now, verifies
/// the rest after the fill): the same 17,244 solves over 20,000 completions
/// sweep 56 flows and 13 links each where the connected, saturable closure
/// had 204 flows and 75 links (largest 217 / 79 → 103 / 24), and one solve
/// in three takes a growth round. Per 500 completions, medians of four
/// alternating runs on the reference host: 13.89, 13.87, 14.24, 13.92 ms →
/// 4.90, 4.10, 4.32, 4.13 ms.
fn bench_fluid_solver(c: &mut Criterion) {
    const NODES: u32 = 60;
    let rng = RngFactory::new(17);
    let mut load = FluidLoad {
        net: Network::new(topology::modelnet_mesh(NODES as usize, 0.03, &rng)),
        pending: EventQueue::new(),
        keys: Vec::new(),
        now: SimTime::ZERO,
        next_block: 0,
    };
    for from in 0..NODES {
        for step in [1, 7, 13, 22, 31, 44] {
            load.queue(NodeId(from), NodeId((from + step) % NODES));
        }
    }
    c.bench_function("fluid_solve_mesh60", |b| {
        b.iter(|| {
            for _ in 0..500 {
                load.complete_next();
            }
            load.net.solver_stats().full_solves
        })
    });
}

/// Rarest-random selection (§3.3.2), one sender's candidates in, the 1 or 8
/// rarest out. Ten senders each advertise a random half of the k blocks; the
/// receiver still misses `missing` of them, so the sender under selection
/// offers about `missing / 2` candidates. Two points are sized to the traffic
/// the harness workloads generate — 15 candidates per call at k = 128 on
/// `swarm_scale`, 52 at k = 1280 on `dyn_mesh`, 1.0–1.1 blocks asked for —
/// and two keep the worst case, a receiver that holds nothing yet (~640
/// candidates). The picks are released again so every iteration meets the
/// same state.
///
/// Predicts `bullet_prime.node.on_block_received_share`: every arrival ends
/// in `issue_requests`, whose cost is this call. Per select, ISSUE 12's
/// partial selection over a keyed `Vec` → ISSUE 17's one fused pass (medians
/// of four alternating runs on the reference host): 13 candidates 0.33 →
/// 0.17 µs, 65 candidates 1.04 → 0.72 µs, 661 candidates 6.3 → 5.1 µs at
/// count 1 and 8.5 → 6.5 µs at count 8. With it the ledger share went 0.32 →
/// 0.26 on `swarm_scale` and 0.27 → 0.21 on `dyn_mesh`
/// (`docs/PERFORMANCE.md`); in a run the same call costs about three times
/// the bench's figure, because there the node's state is cold in cache.
fn bench_request_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("request_select");
    for (k, missing, count) in [
        (128u32, 32usize, 1usize),
        (1280, 128, 1),
        (1280, 1280, 1),
        (1280, 1280, 8),
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut needed: Vec<u32> = (0..k).collect();
        needed.shuffle(&mut rand::rngs::StdRng::seed_from_u64(23));
        let mut have = BlockBitmap::full(k);
        for &block in &needed[..missing] {
            have.remove(BlockId(block));
        }
        let mut manager = RequestManager::new(RequestStrategy::RarestRandom, k);
        for peer in 1..=10u32 {
            let blocks: Vec<BlockId> = (0..k).filter(|_| rng.gen_bool(0.5)).map(BlockId).collect();
            manager.on_advertised(NodeId(peer), &blocks, &have);
        }
        let candidates = manager.useful_candidates(NodeId(1), &have);
        group.bench_with_input(
            BenchmarkId::new(format!("k{k}_candidates{candidates}"), count),
            &count,
            |b, &count| {
                b.iter(|| {
                    let mut picked = 0;
                    for _ in 0..100 {
                        picked += manager
                            .select_requests(NodeId(1), count, &have, SimTime::ZERO, &mut rng)
                            .len();
                        manager.release_stale(SimTime::ZERO, SimDuration::ZERO);
                    }
                    picked
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bitmap,
    bench_ransub_merge,
    bench_flow_controller,
    bench_event_engine,
    bench_fluid_solver,
    bench_request_select
);
criterion_main!(benches);
