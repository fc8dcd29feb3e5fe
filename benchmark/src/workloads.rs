//! The five workloads: how each is set up, run dark, checked, and turned
//! into one [`Pass`] of end-to-end numbers.
//!
//! A *pass* is one seeded simulation (for `systems4` four, for `lab_sweep`
//! one nine-cell sweep) built and run through the crates' public functions
//! only. A run makes several passes, each with another seed derived from
//! `--seed`, because one seed is one draw from a heavy-tailed distribution:
//! on `dyn_mesh` the host time of two seeds differs by 13 % (IQR) and the
//! swarm's median download time by 20 %, so a single simulation per run
//! would make every metric follow the seed rather than the code.

use baselines::{bullet_orig, splitstream, BitTorrentConfig, BitTorrentNode};
use bullet_bench::alloc_track;
use bullet_bench::systems::paper_dynamic_schedule;
use bullet_bench::CommonOpts;
use bullet_lab::{Registry, SweepReport};
use bullet_prime::builder::CONTROL_TREE_DEGREE;
use bullet_prime::{build_nodes_with_tree, BulletPrimeNode, Config, ServiceSwarms};
use desim::{RngFactory, SimDuration, SimTime};
use dissem_codec::FileSpec;
use netsim::{
    mbps, run_service, topology, ArrivalGen, ChangeSchedule, CountingSink, MetricsSnapshot,
    Network, NodeId, Protocol, RunReport, Runner, ServiceConfig, ServiceReport, StopReason,
    SwarmShape, SwarmSource, Topology,
};
use overlay::ControlTree;

use crate::stats::{fnv1a64, percentile};
use crate::timed::{self, HookTotals};
use crate::trace::now_ns;

/// Every workload moves 16 KiB blocks, the paper's block size.
pub const BLOCK_BYTES: u32 = 16 * 1024;
/// Virtual-time limit of a closed run; none of the workloads gets near it.
const LIMIT_SECS: u64 = 7_200;

/// `dyn_mesh`: the fig05 default cell — 60 nodes, 20 MiB (k = 1280).
pub const DYN_NODES: usize = 60;
const DYN_FILE_BYTES: u64 = 20 << 20;

/// `swarm_scale`: the `BENCH_scale` shape — 500 nodes, 2 MiB (k = 128).
/// Small enough for some thirty seeds in a run: one seed's median download
/// time is a draw from a distribution 20 % wide (IQR) at any swarm size.
pub const SWARM_NODES: usize = 500;
/// The size of the scaling point the ledger compares it with.
pub const SWARM_SCALED_NODES: usize = 4_000;
const SWARM_FILE_BYTES: u64 = 2 << 20;

/// `service_knee`: the fig21 pool — 48 slots in 4 segments over one shared
/// 16 Mbps core, files of 1–2 MiB, cohorts of 10–12.
pub const SERVICE_POOL: usize = 48;
const SERVICE_SEGMENT_SLOTS: usize = 12;
const SERVICE_FILE_BYTES: u64 = 2 << 20;

/// `systems4`: the fig04 comparison — 36 nodes, 8 MiB (k = 512), static.
pub const SYSTEMS_NODES: usize = 36;
const SYSTEMS_FILE_BYTES: u64 = 8 << 20;

/// `lab_sweep`: registry scenario `fig05w` — 36 nodes, 8 MiB, 3 variants ×
/// 3 seeds.
pub const LAB_NODES: usize = 36;
const LAB_FILE_MB: f64 = 8.0;
const LAB_SEEDS: u64 = 3;

/// The file of a closed workload.
pub fn file_of(workload: &str) -> FileSpec {
    let bytes = match workload {
        "dyn_mesh" => DYN_FILE_BYTES,
        "swarm_scale" => SWARM_FILE_BYTES,
        "service_knee" => SERVICE_FILE_BYTES,
        "systems4" => SYSTEMS_FILE_BYTES,
        "lab_sweep" => (LAB_FILE_MB * 1024.0 * 1024.0) as u64,
        other => panic!("unknown workload {other}"),
    };
    FileSpec::new(bytes, BLOCK_BYTES)
}

/// When an arrival schedule offers swarms to the service pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServicePlan {
    /// Virtual seconds between arrivals (evenly spaced: Poisson bursts make
    /// the queueing delay of one seed say nothing about the next).
    pub spacing_secs: f64,
    /// Number of arrivals.
    pub arrivals: usize,
    /// End of the service window. Late enough for the last arrival to
    /// finish, so that no operation fails.
    pub horizon_secs: f64,
}

/// The end-to-end plan: one swarm every 10 s is the load at which the
/// 4-segment pool is about to saturate (3–4 swarms in flight).
pub const SERVICE_EDGE: ServicePlan = ServicePlan {
    spacing_secs: 10.0,
    arrivals: 96,
    horizon_secs: 1_200.0,
};
/// fig21's lightest load (16 per 1000 s): the pool mostly idle.
pub const SERVICE_LIGHT: ServicePlan = ServicePlan {
    spacing_secs: 62.5,
    arrivals: 16,
    horizon_secs: 1_200.0,
};
/// Past the knee (125 per 1000 s): all four segments busy, arrivals queue.
pub const SERVICE_SATURATED: ServicePlan = ServicePlan {
    spacing_secs: 8.0,
    arrivals: 64,
    horizon_secs: 900.0,
};

/// The seed of pass `index` of a run: `--seed` itself first, so that one
/// pass at the default seed is the simulation `golden.json` records.
pub fn pass_seed(seed: u64, index: u32) -> u64 {
    if index == 0 {
        seed
    } else {
        crate::stats::splitmix64(seed ^ u64::from(index).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Time marks of one simulation, nanoseconds on the trace clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marks {
    /// Set-up begins.
    pub start: u64,
    /// The topology is built.
    pub topo_end: u64,
    /// The control tree is built (equals `topo_end` where there is none).
    pub tree_end: u64,
    /// Protocol nodes, schedule, `Network::new`, `Runner::new` are done: the
    /// next thing that happens is the first dispatch.
    pub setup_end: u64,
    /// The report is finished.
    pub run_end: u64,
}

impl Marks {
    fn secs(from: u64, to: u64) -> f64 {
        to.saturating_sub(from) as f64 / 1e9
    }
    /// Everything before the first dispatch.
    pub fn setup_s(&self) -> f64 {
        Self::secs(self.start, self.setup_end)
    }
    /// First dispatch to finished report.
    pub fn run_s(&self) -> f64 {
        Self::secs(self.setup_end, self.run_end)
    }
    /// Topology construction.
    pub fn topo_s(&self) -> f64 {
        Self::secs(self.start, self.topo_end)
    }
    /// Control-tree construction.
    pub fn tree_s(&self) -> f64 {
        Self::secs(self.topo_end, self.tree_end)
    }
    /// Protocol nodes, schedule, network and runner construction.
    pub fn runner_build_s(&self) -> f64 {
        Self::secs(self.tree_end, self.setup_end)
    }
}

/// What the ledger needs from one simulation, closed or open.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Which system ran (`bullet_prime`, `bittorrent`, …).
    pub system: &'static str,
    /// Its time marks.
    pub marks: Marks,
    /// Events dispatched.
    pub events: u64,
    /// The runner's counters and gauges after the run.
    pub metrics: MetricsSnapshot,
    /// Heap allocations between first dispatch and finished report.
    pub allocs: u64,
    /// Hook buckets (all zero unless the nodes were [`timed::Timed`]).
    pub hooks: HookTotals,
    /// Directed links of the topology.
    pub links: usize,
    /// Blocks the receivers needed: receivers × k.
    pub useful_blocks: u64,
    /// Records the counting trace sink accepted (0 without one).
    pub trace_records: u64,
}

/// One closed simulation: its probe and its report.
#[derive(Debug, Clone)]
pub struct ClosedSim {
    /// The ledger's view.
    pub probe: Probe,
    /// The runner's report.
    pub report: RunReport,
}

/// A closed simulation that can be set up and run any number of times. The
/// four systems' node types differ, so the harness holds these boxed.
pub trait ClosedSpec {
    /// Sets the simulation up and drops it again: the host seconds that took.
    fn set_up_secs(&self, seed: u64) -> f64;
    /// Sets the simulation up, runs it to the end and reports.
    fn run(&self, seed: u64) -> ClosedSim;
}

/// A closed simulation in public calls only: topology function → overlay +
/// protocol nodes → `Network::new` → `Runner::new` → `Runner::run`. `wrap`
/// is the identity for a dark pass and [`timed::Timed`] for the
/// instrumented one, so both take the same path.
struct Closed<P, T, N, X, S> {
    system: &'static str,
    file: FileSpec,
    topo: T,
    /// Builds the protocol nodes; also returns the mark at which their
    /// overlay (the control tree) was done.
    nodes: N,
    wrap: X,
    schedule: S,
    counting_sink: bool,
    node_type: std::marker::PhantomData<fn(P)>,
}

/// A set-up simulation: the next thing that happens to it is the first
/// dispatch.
struct SetUp<W: Protocol> {
    runner: Runner<W>,
    marks: Marks,
    links: usize,
    receivers: u64,
}

impl<P, W, T, N, X, S> Closed<P, T, N, X, S>
where
    W: Protocol,
    T: Fn(&RngFactory) -> Topology,
    N: Fn(&Topology, &RngFactory) -> (Vec<P>, u64),
    X: Fn(P) -> W,
    S: Fn(&RngFactory) -> ChangeSchedule,
{
    fn set_up(&self, seed: u64) -> SetUp<W> {
        let rng = RngFactory::new(seed);
        let start = now_ns();
        let topo = (self.topo)(&rng);
        let links = topo.num_links();
        let receivers = topo.len() as u64 - 1;
        let topo_end = now_ns();
        let (nodes, tree_end) = (self.nodes)(&topo, &rng);
        let nodes: Vec<W> = nodes.into_iter().map(&self.wrap).collect();
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        // Node 0 is the source in every system.
        runner.exempt_from_completion(NodeId(0));
        for (at, batch) in (self.schedule)(&rng) {
            runner.schedule_link_change(at, batch);
        }
        if self.counting_sink {
            runner.set_trace_sink(Box::new(CountingSink::new()));
        }
        SetUp {
            runner,
            marks: Marks {
                start,
                topo_end,
                tree_end,
                setup_end: now_ns(),
                run_end: 0,
            },
            links,
            receivers,
        }
    }
}

impl<P, W, T, N, X, S> ClosedSpec for Closed<P, T, N, X, S>
where
    W: Protocol,
    T: Fn(&RngFactory) -> Topology,
    N: Fn(&Topology, &RngFactory) -> (Vec<P>, u64),
    X: Fn(P) -> W,
    S: Fn(&RngFactory) -> ChangeSchedule,
{
    fn set_up_secs(&self, seed: u64) -> f64 {
        self.set_up(seed).marks.setup_s()
    }

    fn run(&self, seed: u64) -> ClosedSim {
        let SetUp {
            mut runner,
            mut marks,
            links,
            receivers,
        } = self.set_up(seed);
        timed::reset();
        let allocs_before = alloc_track::allocs();
        let report = runner.run(SimDuration::from_secs(LIMIT_SECS));
        marks.run_end = now_ns();
        ClosedSim {
            probe: Probe {
                system: self.system,
                marks,
                events: report.events,
                metrics: report.metrics.clone(),
                allocs: alloc_track::allocs() - allocs_before,
                hooks: timed::take(),
                links,
                useful_blocks: receivers * u64::from(self.file.num_blocks()),
                trace_records: report.trace_records,
            },
            report,
        }
    }
}

fn boxed<'a, P: 'a, W: Protocol + 'a>(
    system: &'static str,
    file: FileSpec,
    topo: impl Fn(&RngFactory) -> Topology + 'a,
    nodes: impl Fn(&Topology, &RngFactory) -> (Vec<P>, u64) + 'a,
    wrap: impl Fn(P) -> W + 'a,
) -> Box<dyn ClosedSpec + 'a> {
    Box::new(Closed {
        system,
        file,
        topo,
        nodes,
        wrap,
        schedule: |_: &RngFactory| Vec::new(),
        counting_sink: false,
        node_type: std::marker::PhantomData,
    })
}

/// Bullet′ nodes over a random control tree, the tree's end mark taken
/// apart from the nodes'.
fn bullet_prime_nodes(
    file: FileSpec,
) -> impl Fn(&Topology, &RngFactory) -> (Vec<BulletPrimeNode>, u64) {
    move |topo, rng| {
        let tree = ControlTree::random(topo.len(), CONTROL_TREE_DEGREE, rng);
        let tree_end = now_ns();
        (
            build_nodes_with_tree(topo, &tree, &Config::new(file)),
            tree_end,
        )
    }
}

/// A Bullet′ swarm of `nodes` on the lossy ModelNet mesh, no dynamics: the
/// shape of a `systems4` system, of a calm `lab_sweep` cell (whose set-up is
/// `bullet_bench::warmup`'s in public calls), and of the self-tests' runs.
pub fn mesh_spec<'a, W: Protocol + 'a>(
    nodes: usize,
    file: FileSpec,
    wrap: impl Fn(BulletPrimeNode) -> W + 'a,
) -> Box<dyn ClosedSpec + 'a> {
    boxed(
        "bullet_prime",
        file,
        move |rng| topology::modelnet_mesh(nodes, 0.03, rng),
        bullet_prime_nodes(file),
        wrap,
    )
}

/// The `dyn_mesh` simulation: the mesh under the paper's §4.1 schedule,
/// optionally with the runner's own counting trace sink installed.
pub fn dyn_mesh_spec<'a, W: Protocol + 'a>(
    wrap: impl Fn(BulletPrimeNode) -> W + 'a,
    counting_sink: bool,
) -> Box<dyn ClosedSpec + 'a> {
    let file = file_of("dyn_mesh");
    Box::new(Closed {
        system: "bullet_prime",
        file,
        topo: |rng: &RngFactory| topology::modelnet_mesh(DYN_NODES, 0.03, rng),
        nodes: bullet_prime_nodes(file),
        wrap,
        schedule: |rng: &RngFactory| paper_dynamic_schedule(DYN_NODES, LIMIT_SECS as f64, rng),
        counting_sink,
        node_type: std::marker::PhantomData,
    })
}

/// The `swarm_scale` simulation at `nodes` participants.
pub fn swarm_spec<'a, W: Protocol + 'a>(
    nodes: usize,
    wrap: impl Fn(BulletPrimeNode) -> W + 'a,
) -> Box<dyn ClosedSpec + 'a> {
    let file = file_of("swarm_scale");
    boxed(
        "bullet_prime",
        file,
        move |rng| topology::uniform_swarm(nodes, rng),
        bullet_prime_nodes(file),
        wrap,
    )
}

/// Wraps each of the four systems' node types; a closure cannot be generic
/// over them.
pub trait Wrap {
    /// The wrapped protocol.
    type Out<P: Protocol>: Protocol;
    /// Wraps one node.
    fn wrap<P: Protocol>(&self, node: P) -> Self::Out<P>;
}

/// The dark pass: nodes run bare.
pub struct Bare;
impl Wrap for Bare {
    type Out<P: Protocol> = P;
    fn wrap<P: Protocol>(&self, node: P) -> P {
        node
    }
}

/// The instrumented pass: every node inside a [`timed::Timed`].
pub struct Instrumented;
impl Wrap for Instrumented {
    type Out<P: Protocol> = timed::Timed<P>;
    fn wrap<P: Protocol>(&self, node: P) -> timed::Timed<P> {
        timed::Timed(node)
    }
}

/// The baselines build their overlay inside their node constructors, so it
/// has no mark of its own: the tree span is empty.
fn untimed_overlay<P>(nodes: Vec<P>) -> (Vec<P>, u64) {
    (nodes, now_ns())
}

/// The `systems4` simulations: Bullet′, Bullet, BitTorrent, SplitStream on
/// the same seeded mesh (the order `SystemKind::all()` lists them), each
/// built as `bullet_bench::systems::run_system` builds it.
pub fn systems4_specs<X: Wrap>(wrap: &X) -> Vec<Box<dyn ClosedSpec + '_>> {
    let file = file_of("systems4");
    let mesh = |rng: &RngFactory| topology::modelnet_mesh(SYSTEMS_NODES, 0.03, rng);
    vec![
        mesh_spec(SYSTEMS_NODES, file, |n| wrap.wrap(n)),
        boxed(
            "bullet_orig",
            file,
            mesh,
            move |topo, rng| untimed_overlay(bullet_orig::build_nodes(topo, file, rng)),
            |n| wrap.wrap(n),
        ),
        boxed(
            "bittorrent",
            file,
            mesh,
            move |topo, _| {
                let cfg = BitTorrentConfig::new(file);
                untimed_overlay(
                    (0..topo.len() as u32)
                        .map(|i| BitTorrentNode::new(NodeId(i), cfg.clone()))
                        .collect(),
                )
            },
            |n| wrap.wrap(n),
        ),
        boxed(
            "splitstream",
            file,
            mesh,
            move |topo, rng| untimed_overlay(splitstream::build_nodes(topo, file, rng)),
            |n| wrap.wrap(n),
        ),
    ]
}

/// One open-system simulation.
#[derive(Debug, Clone)]
pub struct ServiceSim {
    /// The ledger's view.
    pub probe: Probe,
    /// The service manager's report.
    pub report: ServiceReport,
}

/// A [`ServiceSwarms`] whose built nodes pass through `wrap`.
struct WrappedSwarms<F> {
    inner: ServiceSwarms,
    wrap: F,
}

impl<W: Protocol, F: Fn(BulletPrimeNode) -> W> SwarmSource<W> for WrappedSwarms<F> {
    fn shape(&mut self, index: usize) -> SwarmShape {
        SwarmSource::<BulletPrimeNode>::shape(&mut self.inner, index)
    }

    fn build(&mut self, base: NodeId, shape: &SwarmShape) -> Vec<W> {
        SwarmSource::<BulletPrimeNode>::build(&mut self.inner, base, shape)
            .into_iter()
            .map(&self.wrap)
            .collect()
    }
}

/// A set-up service pool: everything `run_service` takes.
struct ServiceSetUp<W: Protocol, F> {
    runner: Runner<W>,
    source: WrappedSwarms<F>,
    cfg: ServiceConfig,
    arrivals: ArrivalGen,
    rng: RngFactory,
    marks: Marks,
    links: usize,
}

/// Builds the fig21 slot pool: `bullet_prime::build_service_runner` and
/// `bullet_bench`'s fig21 cell spelled out in public calls, so that the
/// stages can be timed and the nodes wrapped.
fn service_set_up<W: Protocol, F: Fn(BulletPrimeNode) -> W + Copy>(
    seed: u64,
    plan: &ServicePlan,
    wrap: F,
) -> ServiceSetUp<W, F> {
    let rng = RngFactory::new(seed);
    let start = now_ns();
    let topo = topology::shared_core_mesh(SERVICE_POOL, mbps(16.0), 0.0, &rng);
    let links = topo.num_links();
    let core = topo.core_link(NodeId(0), NodeId(1));
    let topo_end = now_ns();
    let template = Config::new(file_of("service_knee"));
    let tree = ControlTree::random(topo.len(), CONTROL_TREE_DEGREE, &rng);
    let tree_end = now_ns();
    // One placeholder per slot; every slot is re-populated per admission.
    let nodes: Vec<W> = (0..topo.len() as u32)
        .map(|i| wrap(BulletPrimeNode::new(NodeId(i), &tree, template.clone())))
        .collect();
    let runner = Runner::new(Network::new(topo), nodes, &rng);
    let source = WrappedSwarms {
        inner: ServiceSwarms::new(
            template,
            &rng,
            (SERVICE_SEGMENT_SLOTS - 2, SERVICE_SEGMENT_SLOTS),
            (SERVICE_FILE_BYTES / 2, SERVICE_FILE_BYTES),
        ),
        wrap,
    };
    let cfg = ServiceConfig {
        horizon: SimTime::from_secs_f64(plan.horizon_secs),
        warmup: SimTime::from_secs_f64(0.15 * plan.horizon_secs),
        tick: SimDuration::from_secs_f64(plan.horizon_secs / 60.0),
        segment_slots: SERVICE_SEGMENT_SLOTS,
        max_arrivals: plan.arrivals,
        core: Some(core),
    };
    let arrivals = ArrivalGen::Trace(
        (1..=plan.arrivals)
            .map(|i| SimTime::from_secs_f64(i as f64 * plan.spacing_secs))
            .collect(),
    );
    ServiceSetUp {
        runner,
        source,
        cfg,
        arrivals,
        rng,
        marks: Marks {
            start,
            topo_end,
            tree_end,
            setup_end: now_ns(),
            run_end: 0,
        },
        links,
    }
}

/// Sets the slot pool up and drives it with `plan` through `run_service`.
pub fn service_sim<W: Protocol>(
    seed: u64,
    plan: &ServicePlan,
    wrap: impl Fn(BulletPrimeNode) -> W + Copy,
) -> ServiceSim {
    let mut pool = service_set_up(seed, plan, wrap);
    timed::reset();
    let allocs_before = alloc_track::allocs();
    let report = run_service(
        &mut pool.runner,
        &pool.cfg,
        &pool.arrivals,
        &mut pool.source,
        &pool.rng,
    );
    pool.marks.run_end = now_ns();
    let useful_blocks = report
        .cohorts
        .iter()
        .map(|c| {
            (c.size as u64 - 1) * u64::from(FileSpec::new(c.file_bytes, BLOCK_BYTES).num_blocks())
        })
        .sum();
    ServiceSim {
        probe: Probe {
            system: "bullet_prime",
            marks: pool.marks,
            events: report.events,
            metrics: pool.runner.metrics_snapshot(),
            allocs: alloc_track::allocs() - allocs_before,
            hooks: timed::take(),
            links: pool.links,
            useful_blocks,
            trace_records: 0,
        },
        report,
    }
}

/// One lab sweep.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// `start` → `setup_end` is `Registry::standard()` plus option and seed
    /// set-up; `setup_end` → `run_end` is `run_sweep_with`.
    pub marks: Marks,
    /// The executor's report.
    pub report: SweepReport,
}

/// Workers of the end-to-end sweep: two, never more than the host has.
pub fn lab_threads() -> usize {
    crate::spec::workload("lab_sweep")
        .expect("lab_sweep is declared")
        .threads()
}

/// What a sweep needs before its first cell starts: the registry that holds
/// scenario `fig05w`, the options every cell starts from, and three
/// consecutive seeds from `seed` (the lab's own seed plan).
fn sweep_set_up(seed: u64) -> (Registry, CommonOpts, Vec<u64>, Marks) {
    let start = now_ns();
    let registry = Registry::standard();
    let base = lab_opts(seed);
    let seeds: Vec<u64> = (0..LAB_SEEDS).map(|i| seed.wrapping_add(i)).collect();
    let marks = Marks {
        start,
        topo_end: start,
        tree_end: start,
        setup_end: now_ns(),
        run_end: 0,
    };
    (registry, base, seeds, marks)
}

/// The options of a `lab_sweep` cell at `seed`.
pub fn lab_opts(seed: u64) -> CommonOpts {
    CommonOpts {
        nodes: Some(LAB_NODES),
        file_mb: Some(LAB_FILE_MB),
        seed,
        ..CommonOpts::default()
    }
}

/// Runs registry scenario `fig05w` over three consecutive seeds from `seed`.
pub fn sweep_run(seed: u64, threads: usize, share: bool) -> SweepRun {
    let (registry, base, seeds, mut marks) = sweep_set_up(seed);
    let scenario = registry
        .get("fig05w")
        .expect("fig05w is a registry scenario");
    let report = bullet_lab::run_sweep_with(scenario, &base, &seeds, threads, share);
    marks.run_end = now_ns();
    SweepRun { marks, report }
}

/// The end-to-end numbers of one dark pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds before the first dispatch.
    pub setup_s: f64,
    /// Host seconds from first dispatch to finished report.
    pub run_wall_s: f64,
    /// Live-heap high-water mark of the pass.
    pub peak_heap_bytes: u64,
    /// Completion times of the operations that completed, virtual seconds
    /// (service: latency from arrival, one entry per receiver).
    pub times: Vec<f64>,
    /// Useful bits delivered (duplicates excluded).
    pub useful_bits: f64,
    /// Virtual seconds they took: to the last completion.
    pub virtual_secs: f64,
    /// Operations attempted: receivers (service: arriving swarms).
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// FNV-1a of the canonical report(s).
    pub digest: u64,
}

impl Pass {
    /// Median completion time.
    pub fn p50(&self) -> f64 {
        percentile(&self.times, 0.5)
    }
    /// 90th-percentile completion time.
    pub fn p90(&self) -> f64 {
        percentile(&self.times, 0.9)
    }
    /// Useful bits per virtual second: the paper's "high bandwidth".
    pub fn goodput_bps(&self) -> f64 {
        self.useful_bits / self.virtual_secs
    }
}

/// The correctness gate of a closed simulation: it stopped because every
/// receiver completed, and the receivers were handed at least the blocks
/// they needed.
pub fn check_closed(sim: &ClosedSim) -> Result<(), String> {
    let system = sim.probe.system;
    if sim.report.reason != StopReason::AllComplete {
        return Err(format!(
            "{system}: stopped on {:?}, not AllComplete",
            sim.report.reason
        ));
    }
    let unfinished = sim
        .report
        .completion_secs
        .iter()
        .skip(1)
        .filter(|c| c.is_none())
        .count();
    if unfinished > 0 {
        return Err(format!("{system}: {unfinished} receivers unfinished"));
    }
    let delivered = sim.report.metrics.counter("blocks_delivered").unwrap_or(0);
    if delivered < sim.probe.useful_blocks {
        return Err(format!(
            "{system}: {delivered} blocks delivered, receivers needed {}",
            sim.probe.useful_blocks
        ));
    }
    Ok(())
}

fn closed_pass(sims: &[ClosedSim], file: FileSpec, peak_heap_bytes: u64) -> Result<Pass, String> {
    for sim in sims {
        check_closed(sim)?;
    }
    // `sim_*` are Bullet′'s (the first system); host costs sum over all.
    let primary = &sims[0].report;
    let times: Vec<f64> = primary
        .completion_secs
        .iter()
        .skip(1)
        .flatten()
        .copied()
        .collect();
    let canonical: String = sims.iter().map(|s| s.report.canonical()).collect();
    Ok(Pass {
        setup_s: sims.iter().map(|s| s.probe.marks.setup_s()).sum(),
        run_wall_s: sims.iter().map(|s| s.probe.marks.run_s()).sum(),
        peak_heap_bytes,
        useful_bits: (times.len() as u64 * file.file_bytes * 8) as f64,
        virtual_secs: times.iter().copied().fold(0.0, f64::max),
        attempted: sims
            .iter()
            .map(|s| s.report.completion_secs.len() as u64 - 1)
            .sum(),
        failed: 0,
        times,
        digest: fnv1a64(canonical.as_bytes()),
    })
}

/// Turns a service report into a pass. A swarm that arrived but was not
/// reaped by the horizon is a failed operation, counted and not hidden.
pub fn service_pass(sim: &ServiceSim, peak_heap_bytes: u64) -> Result<Pass, String> {
    let report = &sim.report;
    if report.cohorts.is_empty() {
        return Err("service: no swarm completed".to_string());
    }
    if report.admitted != report.completed + report.in_flight_at_end {
        return Err(format!(
            "service: {} admitted but {} completed + {} in flight",
            report.admitted, report.completed, report.in_flight_at_end
        ));
    }
    // `ServiceReport::latency_quantile`'s sample: each cohort's median
    // latency from arrival, weighted by its receivers.
    let times: Vec<f64> = report
        .cohorts
        .iter()
        .flat_map(|c| std::iter::repeat_n(c.p50_secs, c.size - 1))
        .collect();
    let useful_bytes: u64 = report
        .cohorts
        .iter()
        .map(|c| (c.size as u64 - 1) * c.file_bytes)
        .sum();
    Ok(Pass {
        setup_s: sim.probe.marks.setup_s(),
        run_wall_s: sim.probe.marks.run_s(),
        peak_heap_bytes,
        times,
        useful_bits: (useful_bytes * 8) as f64,
        virtual_secs: report
            .cohorts
            .iter()
            .map(|c| c.reaped_secs)
            .fold(0.0, f64::max),
        attempted: report.arrivals as u64,
        failed: (report.arrivals - report.completed) as u64,
        digest: fnv1a64(report.canonical().as_bytes()),
    })
}

/// Turns a sweep report into a pass, pooling all cells' receivers.
pub fn sweep_pass(run: &SweepRun, peak_heap_bytes: u64) -> Result<Pass, String> {
    let cells = &run.report.cells;
    if cells.len() as u64 != 3 * LAB_SEEDS {
        return Err(format!(
            "lab_sweep: {} cells, expected {}",
            cells.len(),
            3 * LAB_SEEDS
        ));
    }
    let mut times = Vec::new();
    let mut virtual_secs = 0.0;
    for cell in cells {
        // The first series is the cell's download-time CDF; a cell with
        // stragglers says so in its label.
        let cdf = cell
            .figure
            .series
            .first()
            .ok_or("lab_sweep: a cell has no series")?;
        if cdf.label.contains("unfinished") || cdf.points.len() != LAB_NODES - 1 {
            return Err(format!(
                "lab_sweep: cell {}/{} did not complete: {} ({} points)",
                cell.point,
                cell.seed,
                cdf.label,
                cdf.points.len()
            ));
        }
        times.extend(cdf.points.iter().map(|p| p.0));
        virtual_secs += cdf.max_x();
    }
    let file = file_of("lab_sweep");
    Ok(Pass {
        setup_s: run.marks.setup_s(),
        run_wall_s: run.marks.run_s(),
        peak_heap_bytes,
        useful_bits: (times.len() as u64 * file.file_bytes * 8) as f64,
        virtual_secs,
        attempted: times.len() as u64,
        failed: 0,
        times,
        digest: fnv1a64(run.report.to_canonical_json().as_bytes()),
    })
}

/// Set-ups a pass times: the one it runs and this many more that it drops.
/// Set-up takes milliseconds (microseconds for `lab_sweep`), so one reading
/// says little; the pass reports the median of all of them.
const EXTRA_SET_UPS: usize = 6;

/// One dark pass of `workload` at simulation seed `seed`: set up, run
/// untraced, check, summarise. An `Err` is a correctness violation.
pub fn dark_pass(workload: &str, seed: u64) -> Result<Pass, String> {
    // The high-water mark of this pass alone: above what the harness itself
    // holds (earlier passes' results) when the pass begins.
    let held = alloc_track::live_bytes();
    alloc_track::reset_peak();
    let peak = || alloc_track::peak_bytes().saturating_sub(held);
    let bare = |n: BulletPrimeNode| n;
    let closed = |specs: Vec<Box<dyn ClosedSpec + '_>>| {
        let sims: Vec<ClosedSim> = specs.iter().map(|s| s.run(seed)).collect();
        let pass = closed_pass(&sims, file_of(workload), peak());
        let again = || specs.iter().map(|s| s.set_up_secs(seed)).sum();
        (
            pass,
            (0..EXTRA_SET_UPS).map(|_| again()).collect::<Vec<f64>>(),
        )
    };
    let (pass, mut set_ups) = match workload {
        "dyn_mesh" => closed(vec![dyn_mesh_spec(bare, false)]),
        "swarm_scale" => closed(vec![swarm_spec(SWARM_NODES, bare)]),
        "systems4" => closed(systems4_specs(&Bare)),
        "service_knee" => {
            let sim = service_sim(seed, &SERVICE_EDGE, bare);
            let pass = service_pass(&sim, peak());
            let again = || service_set_up(seed, &SERVICE_EDGE, bare).marks.setup_s();
            (pass, (0..EXTRA_SET_UPS).map(|_| again()).collect())
        }
        "lab_sweep" => {
            let run = sweep_run(seed, lab_threads(), true);
            let pass = sweep_pass(&run, peak());
            let again = || sweep_set_up(seed).3.setup_s();
            (pass, (0..EXTRA_SET_UPS).map(|_| again()).collect())
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let mut pass = pass?;
    set_ups.push(pass.setup_s);
    pass.setup_s = crate::stats::median(&set_ups);
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::{Hook, Timed};

    /// The hook buckets are process-global and every run resets them, so
    /// the tests that run a simulation take turns.
    static ONE_RUN_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// An 8-node, 256 KiB Bullet′ run, bare or wrapped.
    fn tiny<W: Protocol>(wrap: impl Fn(BulletPrimeNode) -> W) -> ClosedSim {
        let _turn = ONE_RUN_AT_A_TIME
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        mesh_spec(8, FileSpec::new(256 * 1024, BLOCK_BYTES), wrap).run(11)
    }

    #[test]
    fn timed_wrapper_is_passive_on_an_8_node_run() {
        let bare = tiny(|n| n);
        let timed = tiny(Timed);
        check_closed(&bare).unwrap();
        assert_eq!(bare.report.canonical(), timed.report.canonical());
        // The bare run leaves the buckets empty, the wrapped one fills them.
        assert_eq!(bare.probe.hooks, HookTotals::default());
        assert!(timed.probe.hooks.calls(Hook::BlockReceived) >= bare.probe.useful_blocks);
        assert!(timed.probe.hooks.calls(Hook::Timer) > 0);
        assert!(timed.probe.hooks.total_secs() > 0.0);
        assert!(timed.probe.hooks.total_secs() <= timed.probe.marks.run_s());
    }

    #[test]
    fn harness_set_up_matches_the_crates_own_builder() {
        // `closed_sim` spells `bullet_prime::build_runner` out; the two must
        // simulate the same thing.
        let ours = tiny(|n| n);
        let rng = RngFactory::new(11);
        let topo = topology::modelnet_mesh(8, 0.03, &rng);
        let cfg = Config::new(FileSpec::new(256 * 1024, BLOCK_BYTES));
        let mut runner = bullet_prime::build_runner(topo, &cfg, &rng);
        let theirs = runner.run(SimDuration::from_secs(LIMIT_SECS));
        assert_eq!(ours.report.canonical(), theirs.canonical());
    }

    #[test]
    fn pass_seeds_start_at_the_given_seed_and_do_not_repeat() {
        assert_eq!(pass_seed(7, 0), 7);
        let seeds: std::collections::BTreeSet<u64> = (0..32).map(|i| pass_seed(7, i)).collect();
        assert_eq!(seeds.len(), 32);
        assert_ne!(pass_seed(7, 1), pass_seed(8, 1));
    }

    #[test]
    fn marks_split_set_up_into_its_stages() {
        let m = Marks {
            start: 1_000,
            topo_end: 3_000,
            tree_end: 4_000,
            setup_end: 9_000,
            run_end: 1_000_009_000,
        };
        assert_eq!(
            (m.topo_s(), m.tree_s(), m.runner_build_s()),
            (2e-6, 1e-6, 5e-6)
        );
        assert_eq!((m.setup_s(), m.run_s()), (8e-6, 1.0));
    }
}
