//! Golden digests: the FNV-1a hash of the canonical report of one small,
//! fixed-seed run per system, committed as constants.
//!
//! `tests/determinism.rs` shows that a run equals *itself*; this file pins
//! runs to what they were when the digests were recorded, so a refactor or an
//! optimisation of the emulator (event queue, fluid solver, request
//! selection, ...) is correct iff this file passes unedited. A change that is
//! *meant* to alter behaviour re-records the constants in the same commit and
//! says so.
//!
//! The closed runs put all four systems on a 12-node lossy ModelNet-style
//! mesh under the §4.1 bandwidth-change schedule (so full re-solves, the
//! reprice path and the request strategy all run); the open run is a
//! two-swarm service cell over a shared core (admission, retire, flow-row
//! recycling). ci.sh runs the file again with `--release`: the optimised
//! build the benchmark measures must produce the same bytes.

use bullet_repro::baselines::{bullet_orig, splitstream, BitTorrentConfig, BitTorrentNode};
use bullet_repro::bullet_bench::systems::paper_dynamic_schedule;
use bullet_repro::bullet_prime::{build_nodes, build_runner, Config, ServiceSwarms};
use bullet_repro::desim::{RngFactory, SimDuration, SimTime};
use bullet_repro::dissem_codec::file::fnv1a;
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::netsim::{
    mbps, run_service, topology, ArrivalGen, Network, NodeId, Protocol, Runner, ServiceConfig,
    Topology,
};

const SEED: u64 = 20050410;
const NODES: usize = 12;
const HORIZON_SECS: f64 = 3_600.0;

fn file() -> FileSpec {
    FileSpec::new(8 * 1024 * 1024, 16 * 1024)
}

/// Runs `build` on the fixed mesh under the §4.1 schedule and checks the
/// report's digest.
fn check_closed<P: Protocol>(
    label: &str,
    expected: u64,
    build: impl FnOnce(Topology, &RngFactory) -> Runner<P>,
) {
    let rng = RngFactory::new(SEED);
    let topo = topology::modelnet_mesh(NODES, 0.02, &rng);
    let mut runner = build(topo, &rng);
    for (at, batch) in paper_dynamic_schedule(NODES, HORIZON_SECS, &rng) {
        runner.schedule_link_change(at, batch);
    }
    let report = runner.run(SimDuration::from_secs_f64(HORIZON_SECS));
    assert!(
        report.completion_fraction(1) == 1.0,
        "{label}: every receiver finishes: {:?}",
        report.reason
    );
    assert!(
        report.metrics.counter("link_changes") >= Some(1)
            && report.metrics.counter("solver_full_solves") >= Some(100),
        "{label}: the run must see a bandwidth change and full re-solves: {:?}",
        report.metrics.counters
    );
    let got = fnv1a(report.canonical().as_bytes());
    assert_eq!(
        got, expected,
        "{label}: canonical RunReport digest moved: got {got:#018x}, recorded {expected:#018x}"
    );
}

#[test]
fn bullet_prime_matches_its_golden_digest() {
    check_closed("Bullet'", 0x4847_c14f_a019_f06d, |topo, rng| {
        build_runner(topo, &Config::new(file()), rng)
    });
}

#[test]
fn bullet_matches_its_golden_digest() {
    check_closed("Bullet", 0xe246_35bf_2bc0_62f6, |topo, rng| {
        let nodes = bullet_orig::build_nodes(&topo, file(), rng);
        Runner::new(Network::new(topo), nodes, rng)
    });
}

#[test]
fn bittorrent_matches_its_golden_digest() {
    check_closed("BitTorrent", 0x81dc_8bf0_e4af_c82f, |topo, rng| {
        let cfg = BitTorrentConfig::new(file());
        let nodes: Vec<BitTorrentNode> = (0..topo.len() as u32)
            .map(|i| BitTorrentNode::new(NodeId(i), cfg.clone()))
            .collect();
        let mut runner = Runner::new(Network::new(topo), nodes, rng);
        runner.exempt_from_completion(NodeId(0));
        runner
    });
}

#[test]
fn splitstream_matches_its_golden_digest() {
    check_closed("SplitStream", 0xd5a5_d4e9_e572_5113, |topo, rng| {
        let nodes = splitstream::build_nodes(&topo, file(), rng);
        Runner::new(Network::new(topo), nodes, rng)
    });
}

#[test]
fn two_swarm_service_run_matches_its_golden_digest() {
    let rng = RngFactory::new(SEED);
    let topo = topology::shared_core_mesh(16, mbps(20.0), 0.0, &rng);
    let template = Config::new(FileSpec::new(256 * 1024, 16 * 1024));
    let nodes = build_nodes(&topo, &template, &rng);
    let mut runner = Runner::new(Network::new(topo), nodes, &rng);
    let mut source = ServiceSwarms::new(template, &rng, (4, 6), (128 * 1024, 256 * 1024));
    let cfg = ServiceConfig {
        horizon: SimTime::from_secs_f64(600.0),
        warmup: SimTime::from_secs_f64(60.0),
        tick: SimDuration::from_secs(10),
        segment_slots: 8,
        max_arrivals: 4,
        core: None,
    };
    let gen = ArrivalGen::Trace(vec![SimTime::ZERO, SimTime::from_secs_f64(10.0)]);
    let report = run_service(&mut runner, &cfg, &gen, &mut source, &rng);
    assert_eq!(report.admitted, 2, "both trace arrivals admitted");
    let got = fnv1a(report.canonical().as_bytes());
    let expected = 0x7431_9bea_4f46_b2e6;
    assert_eq!(
        got, expected,
        "service: canonical ServiceReport digest moved: got {got:#018x}, recorded {expected:#018x}"
    );
}
