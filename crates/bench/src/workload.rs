//! The value a scenario *is*: its workload.
//!
//! A [`Workload`] names one cell of the paper's evaluation grid as data — the
//! topology family with its loss and capacity parameters, the node count, the
//! file, the dynamics, the probe tick, the time limit and the seed — and this
//! module is the only place that turns one into a run: it builds the
//! topology, calls the system's builder, installs the trace sink and the
//! probe and schedules the dynamics. Figures, `lab trace`, `lab sweep`'s
//! warm-prefix forking and `tests/wall_clock.rs` all call it, so they cannot
//! disagree about what a scenario runs. [`ServiceWorkload`] is the same for the open-system
//! scenarios (fig21 / fig22): a slot pool over a shared core served by
//! generator-driven swarm arrivals.

use std::ops::Range;

use baselines::{bittorrent, bullet_orig, splitstream};
use bullet_prime::{BulletPrimeNode, Config, FlashShape, ServiceSwarms};
use desim::{RngFactory, SimDuration, SimTime};
use dissem_codec::FileSpec;
use netsim::dynamics::{
    correlated_decrease_schedule, crash_wave_schedule, cross_traffic_square_wave,
    flash_crowd_schedule,
};
use netsim::{
    mbps, run_service, topology, ArrivalGen, BytesPerSec, ChangeSchedule, CrossSchedule, Network,
    NodeId, NodeSchedule, Protocol, RunReport, Runner, ServiceConfig, ServiceReport, Snapshot,
    Topology, TraceSink,
};

use crate::cdf::Series;
use crate::opts::CommonOpts;
use crate::systems::{cascade_schedule, SystemKind};

/// Which emulated topology a workload runs on, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// The standard ModelNet full mesh, per-link loss uniform in
    /// `[0, max_loss]`.
    ModelNetMesh {
        /// Upper end of the per-link loss range.
        max_loss: f64,
    },
    /// 800 Kbps access links, no losses.
    ConstrainedAccess,
    /// 10 Mbps / 100 ms high bandwidth-delay-product clique.
    HighBdpClique {
        /// Upper end of the per-link loss range.
        max_loss: f64,
    },
    /// The Fig 12 cascade: the last node is a victim behind dedicated links.
    Cascade,
    /// PlanetLab-like wide-area site bandwidths.
    PlanetLabLike,
    /// Every core path rides one shared bottleneck link.
    SharedCore {
        /// Capacity of the shared link.
        core: BytesPerSec,
        /// Loss rate of the shared link.
        loss: f64,
    },
    /// O(n) uniform unconstrained core for large swarms.
    UniformSwarm,
}

impl TopologyKind {
    /// Short human-readable tag used by `lab list`.
    pub fn tag(self) -> &'static str {
        match self {
            TopologyKind::ModelNetMesh { .. } => "modelnet-mesh",
            TopologyKind::ConstrainedAccess => "constrained-access",
            TopologyKind::HighBdpClique { .. } => "high-bdp-clique",
            TopologyKind::Cascade => "cascade",
            TopologyKind::PlanetLabLike => "planetlab-like",
            TopologyKind::SharedCore { .. } => "shared-core",
            TopologyKind::UniformSwarm => "uniform-swarm",
        }
    }
}

/// Which scripted changes a workload applies while it runs.
///
/// The churn variants place their window relative to the *calm median*: the
/// median download time of the same workload without dynamics, so
/// "mid-transfer" stays mid-transfer at every scale. `None` measures it with
/// one extra calm run; a caller that already ran it passes the value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dynamics {
    /// No scripted changes (losses may still apply).
    Static,
    /// The §4.1 correlated bandwidth decreases.
    BandwidthChanges {
        /// Seconds between decreases; `None` applies none (the control
        /// variant of a family that shares a quiet prefix).
        period: Option<f64>,
        /// Seconds the run proceeds undisturbed first: the decreases start
        /// one `period` after it, and runs that differ only in dynamics are
        /// identical (and can be forked from one checkpoint) up to here.
        quiet: f64,
    },
    /// Fig 12: one more of the victim's links degrades to 100 Kbps every
    /// `period` seconds.
    CascadingDegrade {
        /// Seconds between degradations.
        period: f64,
    },
    /// `fraction` of the receivers crash at instants spread over 20%–60% of
    /// the calm median.
    CrashWave {
        /// Fraction of the receivers that crash.
        fraction: f64,
        /// See [`Dynamics`].
        calm_median: Option<f64>,
    },
    /// Only the source and a quarter of the receivers start; the rest join
    /// over 25%–75% of the calm median.
    FlashCrowd {
        /// See [`Dynamics`].
        calm_median: Option<f64>,
    },
    /// An unresponsive stream occupies `rate` of the shared core on a square
    /// wave, switching every `period` seconds.
    CrossTraffic {
        /// Occupancy while the wave is on.
        rate: BytesPerSec,
        /// Seconds between wave boundaries.
        period: f64,
    },
}

impl Dynamics {
    /// Short human-readable tag used by `lab list`.
    pub fn tag(self) -> &'static str {
        match self {
            Dynamics::Static => "static",
            Dynamics::BandwidthChanges { .. } => "bandwidth-changes",
            Dynamics::CascadingDegrade { .. } => "cascading-degrade",
            Dynamics::CrashWave { .. } => "crash-wave",
            Dynamics::FlashCrowd { .. } => "flash-crowd",
            Dynamics::CrossTraffic { .. } => "cross-traffic",
        }
    }

    /// Seconds before the first scripted change can land (0 when the
    /// dynamics may act from the start).
    pub fn quiet(self) -> f64 {
        match self {
            Dynamics::BandwidthChanges { quiet, .. } => quiet,
            _ => 0.0,
        }
    }
}

/// One closed-system run, as data. See the module documentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The emulated topology.
    pub topology: TopologyKind,
    /// Number of nodes, sources included.
    pub nodes: usize,
    /// Number of concurrent independent meshes the nodes are split into,
    /// equal sizes, each with its own source (1: a single mesh).
    pub groups: usize,
    /// The file every mesh disseminates.
    pub file: FileSpec,
    /// The scripted changes.
    pub dynamics: Dynamics,
    /// Stats-probe sampling tick in virtual seconds, if the run is observed.
    pub tick: Option<f64>,
    /// Virtual-time limit in seconds.
    pub limit: f64,
    /// Experiment seed.
    pub seed: u64,
}

/// A workload's dynamics materialised as what a built runner is given: the
/// probe, the quiet prefix and the three schedules.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Stats-probe tick, if any.
    pub tick: Option<SimDuration>,
    /// End of the quiet prefix; the schedules are handed over at this
    /// instant.
    pub quiet: SimTime,
    /// Bandwidth changes.
    pub links: ChangeSchedule,
    /// Joins, leaves and crashes. Nodes with a join start inactive.
    pub nodes: NodeSchedule,
    /// Cross-traffic occupancy changes.
    pub cross: CrossSchedule,
}

impl Plan {
    /// Installs the probe and runs the quiet prefix.
    fn warm<P: Protocol>(&self, runner: &mut Runner<P>) {
        if let Some(tick) = self.tick {
            runner.record_timeseries(tick);
        }
        // Without a quiet prefix the schedules go in before anything runs,
        // the nodes' initialisation included.
        if self.quiet > SimTime::ZERO {
            runner.advance_until(self.quiet);
        }
    }

    /// Hands the schedules over to the runner.
    fn schedule<P: Protocol>(self, runner: &mut Runner<P>) {
        for (at, batch) in self.links {
            runner.schedule_link_change(at, batch);
        }
        for (at, event) in self.nodes {
            runner.schedule_node_event(at, event);
        }
        for (at, change) in self.cross {
            runner.schedule_cross_traffic(at, change);
        }
    }
}

/// A simulated-and-checkpointed quiet prefix, shared by the runs that differ
/// only in dynamics (see [`Workload::shares_prefix_with`]).
pub struct WarmPrefix {
    /// The checkpoint every such run resumes from.
    pub snap: Snapshot<BulletPrimeNode>,
}

impl Workload {
    /// A single-mesh, unobserved workload with `opts`' time limit and seed.
    pub fn new(
        opts: &CommonOpts,
        topology: TopologyKind,
        nodes: usize,
        file: FileSpec,
        dynamics: Dynamics,
    ) -> Self {
        Workload {
            topology,
            nodes,
            groups: 1,
            file,
            dynamics,
            tick: None,
            limit: opts.time_limit,
            seed: opts.seed,
        }
    }

    /// The factory every random choice of the run derives from.
    pub fn rng(&self) -> RngFactory {
        RngFactory::new(self.seed)
    }

    /// Bullet′'s default configuration for the workload's file.
    pub fn config(&self) -> Config {
        Config::new(self.file)
    }

    /// The same workload without dynamics or probe.
    pub fn calm(&self) -> Workload {
        Workload {
            dynamics: Dynamics::Static,
            tick: None,
            ..*self
        }
    }

    /// Builds the topology.
    pub fn topology(&self) -> Topology {
        let (n, rng) = (self.nodes, self.rng());
        match self.topology {
            TopologyKind::ModelNetMesh { max_loss } => topology::modelnet_mesh(n, max_loss, &rng),
            TopologyKind::ConstrainedAccess => topology::constrained_access(n),
            TopologyKind::HighBdpClique { max_loss } => {
                topology::high_bdp_clique(n, max_loss, &rng)
            }
            TopologyKind::Cascade => topology::cascade_topology(n - 1),
            TopologyKind::PlanetLabLike => topology::planetlab_like(n, &rng),
            TopologyKind::SharedCore { core, loss } => {
                topology::shared_core_mesh(n, core, loss, &rng)
            }
            TopologyKind::UniformSwarm => topology::uniform_swarm(n, &rng),
        }
    }

    /// Materialises the dynamics. A churn variant without a calm median
    /// simulates the calm run to measure it.
    pub fn plan(&self) -> Plan {
        let rng = self.rng();
        let secs = SimDuration::from_secs_f64;
        let calm_median = |given: Option<f64>| {
            given.unwrap_or_else(|| self.calm().run_system(SystemKind::BulletPrime).median())
        };
        let mut plan = Plan {
            tick: self.tick.map(SimDuration::from_secs_f64),
            quiet: SimTime::from_secs_f64(self.dynamics.quiet()),
            ..Plan::default()
        };
        match self.dynamics {
            Dynamics::Static | Dynamics::BandwidthChanges { period: None, .. } => {}
            Dynamics::BandwidthChanges {
                period: Some(period),
                quiet,
            } => {
                let horizon = secs((self.limit - quiet).max(0.0));
                plan.links = correlated_decrease_schedule(self.nodes, secs(period), horizon, &rng)
                    .into_iter()
                    .map(|(at, batch)| (at + secs(quiet), batch))
                    .collect();
            }
            Dynamics::CascadingDegrade { period } => {
                plan.links = cascade_schedule(self.nodes - 1, period);
            }
            Dynamics::CrashWave {
                fraction,
                calm_median: given,
            } => {
                let median = calm_median(given);
                plan.nodes = crash_wave_schedule(
                    self.nodes,
                    fraction,
                    SimTime::from_secs_f64(0.2 * median),
                    SimTime::from_secs_f64(0.6 * median),
                    &rng,
                );
            }
            Dynamics::FlashCrowd { calm_median: given } => {
                let median = calm_median(given);
                plan.nodes = flash_crowd_schedule(
                    self.nodes,
                    1 + (self.nodes - 1) / 4, // the source and 25% of the receivers
                    SimTime::from_secs_f64(0.25 * median),
                    SimTime::from_secs_f64(0.75 * median),
                );
            }
            Dynamics::CrossTraffic { rate, period } => {
                plan.cross = cross_traffic_square_wave(
                    (NodeId(0), NodeId(1)),
                    rate,
                    secs(period),
                    secs(self.limit),
                );
            }
        }
        plan
    }

    /// Builds the topology, calls the system's node builder `build`, makes
    /// the runner, installs `sink` and the probe, runs the quiet prefix and
    /// schedules the dynamics: a runner ready for [`Workload::run`]. The only
    /// place a closed run is assembled, so a sink sees the whole run,
    /// whatever the system.
    pub fn runner<P: Protocol>(
        &self,
        build: impl FnOnce(&Topology, &RngFactory) -> Vec<P>,
        sink: Option<Box<dyn TraceSink>>,
    ) -> Runner<P> {
        let (topo, rng) = (self.topology(), self.rng());
        let nodes = build(&topo, &rng);
        let mut runner = Runner::new(Network::new(topo), nodes, &rng);
        if let Some(sink) = sink {
            runner.set_trace_sink(sink);
        }
        let plan = self.plan();
        plan.warm(&mut runner);
        plan.schedule(&mut runner);
        runner
    }

    /// [`Workload::runner`] for Bullet′ under `cfg`, one runner hosting all
    /// `groups` meshes.
    pub fn bullet_prime(
        &self,
        cfg: &Config,
        sink: Option<Box<dyn TraceSink>>,
    ) -> Runner<BulletPrimeNode> {
        let build = |topo: &Topology, rng: &RngFactory| {
            if self.groups > 1 {
                let sizes = vec![self.nodes / self.groups; self.groups];
                bullet_prime::build_group_nodes(topo, cfg, rng, &sizes)
            } else {
                bullet_prime::build_nodes(topo, cfg, rng)
            }
        };
        self.runner(build, sink)
    }

    /// Runs a runner built for this workload to the time limit.
    pub fn run<P: Protocol>(&self, runner: &mut Runner<P>) -> RunReport {
        runner.run_until(SimTime::from_secs_f64(self.limit))
    }

    /// The report of the default-configuration Bullet′ run.
    pub fn report(&self) -> RunReport {
        self.run(&mut self.bullet_prime(&self.config(), None))
    }

    /// Runs one of the four compared systems with its default configuration.
    pub fn run_system(&self, kind: SystemKind) -> SystemRun {
        SystemRun::from_report(&self.system_report(kind, None))
    }

    /// The report of `kind`'s default run, `sink` installed: the only place
    /// that maps a [`SystemKind`] to its builder.
    fn system_report(&self, kind: SystemKind, sink: Option<Box<dyn TraceSink>>) -> RunReport {
        let file = self.file;
        match kind {
            SystemKind::BulletPrime => self.run(&mut self.bullet_prime(&self.config(), sink)),
            SystemKind::BulletOriginal => self
                .run(&mut self.runner(|topo, rng| bullet_orig::build_nodes(topo, file, rng), sink)),
            SystemKind::BitTorrent => {
                self.run(&mut self.runner(|topo, _| bittorrent::build_nodes(topo, file), sink))
            }
            SystemKind::SplitStream => self
                .run(&mut self.runner(|topo, rng| splitstream::build_nodes(topo, file, rng), sink)),
        }
    }

    /// True if the two runs are one run up to the end of a common quiet
    /// prefix: they are equal up to `dynamics`, and the dynamics leave the
    /// same non-empty prefix undisturbed.
    pub fn shares_prefix_with(&self, other: &Workload) -> bool {
        self.dynamics.quiet() > 0.0
            && self.dynamics.quiet() == other.dynamics.quiet()
            && Workload {
                dynamics: other.dynamics,
                ..*self
            } == *other
    }

    /// Simulates the quiet prefix of the default Bullet′ run and checkpoints
    /// it.
    pub fn prefix(&self) -> WarmPrefix {
        // The prefix is all of the family's control variant that precedes
        // the instant its dynamics would be scheduled at.
        let control = Workload {
            dynamics: Dynamics::BandwidthChanges {
                period: None,
                quiet: self.dynamics.quiet(),
            },
            ..*self
        };
        WarmPrefix {
            snap: control.bullet_prime(&self.config(), None).checkpoint(),
        }
    }

    /// The default Bullet′ run continued from `prefix` (which a workload
    /// that [shares it](Workload::shares_prefix_with) simulated): canonically
    /// byte-identical to [`Workload::report`].
    pub fn fork(&self, prefix: &WarmPrefix) -> RunReport {
        let mut runner = Runner::resume(prefix.snap.clone());
        self.plan().schedule(&mut runner);
        self.run(&mut runner)
    }
}

/// Per-receiver completion times of one mesh of a run.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Completion times (seconds) of the receivers that stayed to the end.
    /// Those that did not finish within the limit are reported at the
    /// end-of-run time; those that left or crashed can never finish and are
    /// left out, so under churn the times describe the *survivors*.
    pub times: Vec<f64>,
    /// Number of receivers that did not finish within the limit.
    pub unfinished: usize,
    /// Virtual end time of the run.
    pub end_time: f64,
}

impl SystemRun {
    /// The mesh occupying the node ids in `mesh`, whose first is its source.
    pub fn from_range(report: &RunReport, mesh: Range<usize>) -> Self {
        let end = report.end_time.as_secs_f64();
        let mut unfinished = 0;
        let times = report.completion_secs[mesh.clone()]
            .iter()
            .zip(&report.departed[mesh])
            .skip(1)
            .filter(|(_, &departed)| !departed)
            .map(|(c, _)| {
                c.unwrap_or_else(|| {
                    unfinished += 1;
                    end
                })
            })
            .collect();
        SystemRun {
            times,
            unfinished,
            end_time: end,
        }
    }

    /// A single-mesh run: node 0 is the source.
    pub fn from_report(report: &RunReport) -> Self {
        Self::from_range(report, 0..report.completion_secs.len())
    }

    /// Median completion time.
    pub fn median(&self) -> f64 {
        Series::cdf("", &self.times).quantile(0.5)
    }
}

/// Capacity of the shared core every service pool runs over.
pub(crate) const SERVICE_CORE_MBPS: f64 = 16.0;

/// Cap on the arrivals a service run materialises from its generator.
const SERVICE_MAX_ARRIVALS: usize = 256;

/// One open-system service run, as data: a slot pool over a shared
/// 16 Mbps core, each arriving swarm claiming one segment for its lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceWorkload {
    /// Slots in the pool.
    pub pool: usize,
    /// Slots per segment; `pool / segment_slots` swarms run concurrently.
    pub segment_slots: usize,
    /// Inclusive cohort-size range (source included), drawn per swarm.
    pub sizes: (usize, usize),
    /// Inclusive file-size range in bytes, drawn per swarm.
    pub files: (u64, u64),
    /// Block size of every swarm's file.
    pub block: u32,
    /// Where swarms come from.
    pub arrivals: ArrivalGen,
    /// How every swarm after the first populates its segment (see
    /// [`ServiceSwarms::flash`]).
    pub flash: Option<FlashShape>,
    /// End of the service window, seconds.
    pub horizon: f64,
    /// Start of the steady-state measurement window, seconds.
    pub warmup: f64,
    /// Sampling tick, seconds.
    pub tick: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl ServiceWorkload {
    /// Bullet′'s configuration for the largest file; every swarm gets a
    /// clone with its drawn file installed.
    fn template(&self) -> Config {
        Config::new(FileSpec::new(self.files.1, self.block))
    }

    /// Builds the slot pool over the shared core and installs `sink`: a
    /// runner ready for [`ServiceWorkload::serve`]. The only place an open
    /// run is assembled, so a sink sees the whole service.
    pub fn runner(&self, sink: Option<Box<dyn TraceSink>>) -> Runner<BulletPrimeNode> {
        let rng = RngFactory::new(self.seed);
        let topo = topology::shared_core_mesh(self.pool, mbps(SERVICE_CORE_MBPS), 0.0, &rng);
        let mut runner = bullet_prime::build_runner(topo, &self.template(), &rng);
        if let Some(sink) = sink {
            runner.set_trace_sink(sink);
        }
        runner
    }

    /// Serves arriving swarms on a runner built by
    /// [`ServiceWorkload::runner`] until the horizon.
    pub fn serve(&self, runner: &mut Runner<BulletPrimeNode>) -> ServiceReport {
        let rng = RngFactory::new(self.seed);
        let core = runner.network().topology().core_link(NodeId(0), NodeId(1));
        let mut source = ServiceSwarms::new(self.template(), &rng, self.sizes, self.files);
        source.flash = self.flash.clone();
        let cfg = ServiceConfig {
            horizon: SimTime::from_secs_f64(self.horizon),
            warmup: SimTime::from_secs_f64(self.warmup),
            tick: SimDuration::from_secs_f64(self.tick),
            segment_slots: self.segment_slots,
            max_arrivals: SERVICE_MAX_ARRIVALS,
            core: Some(core),
        };
        run_service(runner, &cfg, &self.arrivals, &mut source, &rng)
    }

    /// Runs the service to its horizon, unobserved.
    pub fn run(&self) -> ServiceReport {
        self.serve(&mut self.runner(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::paper_dynamic_schedule;

    #[test]
    fn a_warm_prefix_is_a_plain_shareable_value() {
        // Holds because a snapshot is data all the way down: nothing in
        // netsim writes `Send` or `Sync` to make it so.
        fn shareable<T: Clone + Send + Sync>() {}
        shareable::<Snapshot<BulletPrimeNode>>();
    }

    fn tiny(dynamics: Dynamics) -> Workload {
        let opts = CommonOpts {
            time_limit: 1800.0,
            ..CommonOpts::default()
        };
        Workload::new(
            &opts,
            TopologyKind::ModelNetMesh { max_loss: 0.03 },
            8,
            FileSpec::new(256 * 1024, 16 * 1024),
            dynamics,
        )
    }

    fn debug<T: std::fmt::Debug>(value: &T) -> String {
        format!("{value:?}")
    }

    #[test]
    fn static_and_control_dynamics_schedule_nothing() {
        for dynamics in [
            Dynamics::Static,
            Dynamics::BandwidthChanges {
                period: None,
                quiet: 10.0,
            },
        ] {
            let plan = tiny(dynamics).plan();
            assert!(plan.links.is_empty() && plan.nodes.is_empty() && plan.cross.is_empty());
            assert_eq!(plan.quiet, SimTime::from_secs_f64(dynamics.quiet()));
        }
    }

    #[test]
    fn bandwidth_changes_are_the_section_4_1_schedule_shifted_past_the_quiet_prefix() {
        let w = tiny(Dynamics::BandwidthChanges {
            period: Some(20.0),
            quiet: 0.0,
        });
        let paper = paper_dynamic_schedule(8, 1800.0, &w.rng());
        assert_eq!(debug(&w.plan().links), debug(&paper));
        assert_eq!(paper[0].0, SimTime::from_secs_f64(20.0));
    }

    #[test]
    fn every_variant_schedule_starts_after_the_warmup() {
        use crate::warmup::{fig05w_workload, FIG05W_VARIANTS, FIG05W_WARMUP_SECS};
        let opts = CommonOpts {
            nodes: Some(6),
            time_limit: 1800.0,
            ..CommonOpts::default()
        };
        for (label, period) in FIG05W_VARIANTS {
            let links = fig05w_workload(&opts, label).unwrap().plan().links;
            assert!(
                links
                    .iter()
                    .all(|(at, _)| at.as_secs_f64() > FIG05W_WARMUP_SECS),
                "variant '{label}' schedules a change inside the shared prefix"
            );
            // The non-calm variants must have something to apply, one period
            // into what remains of the run.
            match period {
                None => assert!(links.is_empty()),
                Some(period) => assert_eq!(
                    links[0].0,
                    SimTime::from_secs_f64(FIG05W_WARMUP_SECS + period)
                ),
            }
        }
    }

    #[test]
    fn cascade_and_cross_traffic_land_where_their_helpers_put_them() {
        let mut w = tiny(Dynamics::CascadingDegrade { period: 2.5 });
        w.topology = TopologyKind::Cascade;
        assert_eq!(w.topology().len(), 8);
        let links = w.plan().links;
        assert_eq!(debug(&links), debug(&cascade_schedule(7, 2.5)));
        assert_eq!(links.len(), 6, "one per sender of the victim");

        let rate = mbps(2.0);
        let plan = tiny(Dynamics::CrossTraffic { rate, period: 4.0 }).plan();
        let wave = cross_traffic_square_wave(
            (NodeId(0), NodeId(1)),
            rate,
            SimDuration::from_secs(4),
            SimDuration::from_secs(1800),
        );
        assert_eq!(plan.cross, wave);
        assert!(plan.links.is_empty() && plan.nodes.is_empty());
    }

    #[test]
    fn churn_windows_scale_with_the_calm_median_and_joiners_start_inactive() {
        let at = SimTime::from_secs_f64;
        let crash = tiny(Dynamics::CrashWave {
            fraction: 0.25,
            calm_median: Some(10.0),
        });
        let expected = crash_wave_schedule(8, 0.25, at(2.0), at(6.0), &crash.rng());
        assert_eq!(crash.plan().nodes, expected);
        assert_eq!(expected.len(), 2);
        let runner = crash.bullet_prime(&crash.config(), None);
        assert!((0..8).all(|i| runner.is_active(NodeId(i))), "victims start");

        let flash = tiny(Dynamics::FlashCrowd {
            calm_median: Some(10.0),
        });
        let expected = flash_crowd_schedule(8, 2, at(2.5), at(7.5));
        assert_eq!(flash.plan().nodes, expected);
        let runner = flash.bullet_prime(&flash.config(), None);
        for i in 0..8 {
            assert_eq!(runner.is_active(NodeId(i)), i < 2, "node {i}");
        }

        // Without a given median the calm run is measured.
        let measured = tiny(Dynamics::FlashCrowd { calm_median: None });
        let median = measured.calm().run_system(SystemKind::BulletPrime).median();
        assert!(median > 0.0);
        assert_eq!(
            measured.plan().nodes,
            tiny(Dynamics::FlashCrowd {
                calm_median: Some(median)
            })
            .plan()
            .nodes
        );
    }

    #[test]
    fn forked_run_matches_the_uninterrupted_one() {
        let mut w = tiny(Dynamics::BandwidthChanges {
            period: Some(1.0),
            quiet: 2.0,
        });
        w.tick = Some(1.0);
        let control = Workload {
            dynamics: Dynamics::BandwidthChanges {
                period: None,
                quiet: 2.0,
            },
            ..w
        };
        assert!(w.shares_prefix_with(&control));
        let prefix = control.prefix();
        assert_eq!(w.fork(&prefix).canonical(), w.report().canonical());
        assert_eq!(
            control.fork(&prefix).canonical(),
            control.report().canonical()
        );
        assert_ne!(w.report().canonical(), control.report().canonical());
    }

    #[test]
    fn traced_canonical_equals_dark_for_every_system() {
        let w = tiny(Dynamics::Static);
        for kind in SystemKind::all() {
            let dark = w.system_report(kind, None);
            // No builder exempts the source: it holds the file, so the runner
            // marks it complete at t = 0, and the run still ends when the
            // receivers finish.
            assert_eq!(dark.completion_secs[0], Some(0.0), "{kind:?}");
            assert_eq!(dark.reason, netsim::StopReason::AllComplete, "{kind:?}");
            let sink = Box::new(netsim::CountingSink::new());
            let traced = w.system_report(kind, Some(sink));
            assert_eq!(traced.canonical(), dark.canonical(), "{kind:?}");
            assert!(traced.trace_records > 0, "{kind:?}: the sink saw nothing");
            assert_eq!(dark.trace_records, 0, "{kind:?}");
        }
    }

    #[test]
    fn prefix_sharing_needs_equality_up_to_dynamics_and_a_quiet_prefix() {
        let variant = |period, seed, nodes| Workload {
            seed,
            nodes,
            ..tiny(Dynamics::BandwidthChanges {
                period,
                quiet: 10.0,
            })
        };
        let calm = variant(None, 1, 8);
        assert!(calm.shares_prefix_with(&variant(Some(20.0), 1, 8)));
        assert!(calm.shares_prefix_with(&variant(Some(8.0), 1, 8)));
        assert!(calm.shares_prefix_with(&calm));
        assert!(!calm.shares_prefix_with(&variant(None, 2, 8)), "seed");
        assert!(
            !calm.shares_prefix_with(&variant(Some(20.0), 1, 9)),
            "nodes"
        );
        let shorter = Workload {
            dynamics: Dynamics::BandwidthChanges {
                period: Some(20.0),
                quiet: 5.0,
            },
            ..calm
        };
        assert!(!calm.shares_prefix_with(&shorter), "quiet prefix");
        let undisturbed = tiny(Dynamics::Static);
        assert!(!undisturbed.shares_prefix_with(&undisturbed), "no prefix");
    }

    #[test]
    fn meshes_of_a_group_run_are_read_by_range_and_departed_nodes_left_out() {
        let mut w = tiny(Dynamics::Static);
        w.topology = TopologyKind::SharedCore {
            core: mbps(4.0),
            loss: 0.0,
        };
        w.groups = 2;
        let report = w.report();
        for mesh in [0..4, 4..8] {
            let run = SystemRun::from_range(&report, mesh);
            assert_eq!((run.times.len(), run.unfinished), (3, 0));
        }

        let crash = tiny(Dynamics::CrashWave {
            fraction: 0.5,
            calm_median: None,
        });
        let report = crash.report();
        let departed = report.departed.iter().filter(|&&d| d).count();
        assert_eq!(departed, crash.plan().nodes.len());
        assert_eq!(SystemRun::from_report(&report).times.len(), 7 - departed);
    }

    #[test]
    fn traced_service_equals_dark_for_every_open_cell() {
        use crate::experiments::{fig21_cells, fig22_cells};
        let opts = CommonOpts {
            nodes: Some(8),
            file_mb: Some(0.25),
            time_limit: 600.0,
            ..CommonOpts::default()
        };
        for (label, cell) in fig21_cells(&opts).into_iter().chain(fig22_cells(&opts)) {
            let mut runner = cell.runner(Some(Box::new(netsim::CountingSink::new())));
            let traced = cell.serve(&mut runner);
            assert_eq!(traced.canonical(), cell.run().canonical(), "{label}");
            let sink = runner.take_trace_sink::<netsim::CountingSink>();
            let recorded = sink.expect("the sink stays installed").recorded();
            assert!(recorded > 0, "{label}: the sink saw nothing");
        }
    }
}
