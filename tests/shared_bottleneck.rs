//! Acceptance tests for the global max-min fair fluid model: traffic from
//! independent overlay meshes crossing the same core link must contend
//! there, and the contention must be fair.
//!
//! The per-path TCP-equation model of earlier revisions priced every core
//! path independently — two meshes crossing the same lossy 2 Mbps core link
//! did not contend at all. These tests pin the headline behaviour of the
//! fluid model at both altitudes: a deterministic flood workload (exact
//! halving) and full Bullet′ meshes (approximate halving end to end).

use bullet_repro::bullet_bench::{CommonOpts, Dynamics, SystemRun, TopologyKind, Workload};
use bullet_repro::desim::{RngFactory, SimDuration};
use bullet_repro::dissem_codec::{BlockBitmap, BlockId, FileSpec};
use bullet_repro::netsim::units::mbps;
use bullet_repro::netsim::{
    topology, BlockReceipt, Ctx, Network, NodeId, Protocol, Runner, StopReason, WireSize,
};

/// A minimal "mesh": one source floods a file to its receivers directly,
/// keeping a fixed window queued per receiver. Deterministic and fluid-rate
/// bound, so the shared-bottleneck arithmetic is exact.
struct Flood {
    id: NodeId,
    source: NodeId,
    receivers: Vec<NodeId>,
    spec: FileSpec,
    window: usize,
    have: BlockBitmap,
    next_to_send: Vec<u32>,
}

#[derive(Debug)]
enum NoMsg {}

impl WireSize for NoMsg {
    fn wire_size(&self) -> usize {
        0
    }
}

impl Flood {
    fn new(id: NodeId, source: NodeId, receivers: Vec<NodeId>, spec: FileSpec) -> Self {
        let have = if id == source {
            BlockBitmap::full(spec.num_blocks())
        } else {
            BlockBitmap::new(spec.num_blocks())
        };
        let n = receivers.len();
        Flood {
            id,
            source,
            receivers,
            spec,
            window: 4,
            have,
            next_to_send: vec![0; n],
        }
    }

    fn fill_pipe(&mut self, ctx: &mut Ctx<'_, Self>, slot: usize) {
        let to = self.receivers[slot];
        let mut queued_now = 0usize;
        while ctx.pending_to(to) + queued_now < self.window
            && self.next_to_send[slot] < self.spec.num_blocks()
        {
            let b = BlockId(self.next_to_send[slot]);
            ctx.queue_block(to, b, u64::from(self.spec.block_size(b)));
            self.next_to_send[slot] += 1;
            queued_now += 1;
        }
    }
}

impl Protocol for Flood {
    type Msg = NoMsg;
    type Timer = ();

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.id == self.source {
            for slot in 0..self.receivers.len() {
                self.fill_pipe(ctx, slot);
            }
        }
    }

    fn on_control(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: NoMsg) {}

    fn on_block_received(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, r: BlockReceipt) {
        self.have.insert(r.block);
    }

    fn on_block_sent(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        to: NodeId,
        _block: bullet_repro::dissem_codec::BlockId,
    ) {
        if self.id == self.source {
            if let Some(slot) = self.receivers.iter().position(|&r| r == to) {
                self.fill_pipe(ctx, slot);
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.have.is_full()
    }
}

/// Runs `groups` flood meshes (each: 1 source + `receivers` receivers) over
/// one shared 2 Mbps core and returns the slowest completion time.
fn flood_over_shared_core(groups: usize, receivers: usize, file_kb: u64) -> f64 {
    let per_mesh = 1 + receivers;
    let n = groups * per_mesh;
    let rng = RngFactory::new(7);
    let topo = topology::shared_core_mesh(n, mbps(2.0), 0.0, &rng);
    let spec = FileSpec::new(file_kb * 1024, 16 * 1024);
    let nodes: Vec<Flood> = (0..n as u32)
        .map(|i| {
            let group = i as usize / per_mesh;
            let base = (group * per_mesh) as u32;
            let members: Vec<NodeId> = (base + 1..base + per_mesh as u32).map(NodeId).collect();
            Flood::new(NodeId(i), NodeId(base), members, spec)
        })
        .collect();
    let mut runner = Runner::new(Network::new(topo), nodes, &rng);
    for g in 0..groups {
        runner.exempt_from_completion(NodeId((g * per_mesh) as u32));
    }
    let report = runner.run(SimDuration::from_secs(100_000));
    assert_eq!(report.reason, StopReason::AllComplete);
    report
        .completion_secs
        .iter()
        .flatten()
        .copied()
        .fold(0.0, f64::max)
}

#[test]
fn concurrent_meshes_share_core_bottleneck() {
    // One mesh over the shared 2 Mbps core link, then two: the fluid model
    // must make every flow contend on the shared link, so the same per-mesh
    // workload takes ~twice as long — the ModelNet-style behaviour the
    // per-path model could not express (it would show ~x1).
    let single = flood_over_shared_core(1, 3, 512);
    let dual = flood_over_shared_core(2, 3, 512);
    let ratio = dual / single;
    assert!(
        (1.7..=2.3).contains(&ratio),
        "two meshes over one core link must each converge to ~half the \
         single-mesh rate (single {single:.1}s, dual {dual:.1}s, x{ratio:.2})"
    );
    // Sanity: the single mesh is itself core-bound, not access-bound — the
    // aggregate rate approaches the 2 Mbps (250 KB/s) shared capacity.
    let total_bytes = 3.0 * 512.0 * 1024.0;
    let aggregate = total_bytes / single;
    assert!(
        aggregate > 0.75 * 250_000.0,
        "single mesh should nearly fill the shared core ({aggregate:.0} B/s)"
    );
}

#[test]
fn concurrent_bullet_meshes_contend_end_to_end() {
    // The same comparison through the full stack: real Bullet′ meshes, two
    // of them in one runner. The protocol layer adds control traffic and
    // adaptivity noise, so the tolerance is wider than the flood check's,
    // but concurrency must still cost roughly a factor of two.
    let opts = CommonOpts {
        time_limit: 50_000.0,
        ..CommonOpts::default()
    };
    let topology = TopologyKind::SharedCore {
        core: mbps(2.0),
        loss: 0.0,
    };
    let file = FileSpec::new(512 * 1024, 16 * 1024);
    let alone = Workload::new(&opts, topology, 6, file, Dynamics::Static);
    let single = SystemRun::from_report(&alone.report());
    assert_eq!(single.unfinished, 0, "single mesh completes");
    let single_slowest = single.times.iter().copied().fold(0.0, f64::max);

    let two = Workload {
        nodes: 12,
        groups: 2,
        ..alone
    };
    let report = two.report();
    let dual = [0..6, 6..12].map(|mesh| SystemRun::from_range(&report, mesh));
    for (i, run) in dual.iter().enumerate() {
        assert_eq!(run.unfinished, 0, "mesh {i} completes");
        assert_eq!(run.times.len(), 5, "mesh {i} has five receivers");
        let slowest = run.times.iter().copied().fold(0.0, f64::max);
        let ratio = slowest / single_slowest;
        assert!(
            ratio > 1.3,
            "mesh {i} must pay for the shared bottleneck \
             (single {single_slowest:.1}s, concurrent {slowest:.1}s, x{ratio:.2})"
        );
        assert!(
            ratio < 3.5,
            "mesh {i} should not collapse beyond fair sharing \
             (single {single_slowest:.1}s, concurrent {slowest:.1}s, x{ratio:.2})"
        );
    }
}
