//! Workspace-level determinism regression: the whole stack — topology
//! generation, the discrete-event engine, every protocol implementation and
//! the harness — must be a pure function of the `RngFactory` seed.
//!
//! Each check runs the same experiment twice from identical seeds and
//! requires the *byte-identical* debug rendering of the result, which covers
//! every field (per-node completion times at full `f64` precision, event
//! counts, end times and stop reasons). A change that breaks this is almost
//! always an accidental source of nondeterminism (iteration over an unordered
//! map, RNG stream shared across components, time-order tie broken by
//! allocation order, ...) and would silently invalidate every figure.

use bullet_repro::bullet_bench::{CommonOpts, Dynamics, SystemKind, TopologyKind, Workload};
use bullet_repro::bullet_prime::{build_runner, Config, ServiceSwarms};
use bullet_repro::desim::{RngFactory, SimDuration, SimTime};
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::netsim::{
    mbps, run_service, topology, ArrivalGen, RunReport, ServiceConfig, ServiceReport,
};

const NODES: usize = 10;
const SEED: u64 = 20050410;

fn file() -> FileSpec {
    FileSpec::new(256 * 1024, 16 * 1024)
}

fn bullet_prime_report(seed: u64) -> RunReport {
    let rng = RngFactory::new(seed);
    let topo = topology::modelnet_mesh(NODES, 0.01, &rng);
    let cfg = Config::new(file());
    let mut runner = build_runner(topo, &cfg, &rng);
    runner.run(SimDuration::from_secs(3_600))
}

#[test]
fn bullet_prime_run_reports_are_byte_identical() {
    let a = format!("{:?}", bullet_prime_report(SEED));
    let b = format!("{:?}", bullet_prime_report(SEED));
    assert_eq!(a, b, "same seed must reproduce the RunReport byte for byte");

    let c = format!("{:?}", bullet_prime_report(SEED + 1));
    assert_ne!(a, c, "a different seed should not reproduce the same run");
}

fn service_report(seed: u64) -> ServiceReport {
    // A two-swarm open-system run over a shared core: arrivals, admission,
    // cohort activation, completion and retirement all on the clock.
    let rng = RngFactory::new(seed);
    let topo = topology::shared_core_mesh(16, mbps(20.0), 0.0, &rng);
    let template = Config::new(file());
    let mut runner = build_runner(topo, &template, &rng);
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
    run_service(&mut runner, &cfg, &gen, &mut source, &rng)
}

#[test]
fn open_system_service_runs_are_byte_identical() {
    let a = service_report(SEED);
    let b = service_report(SEED);
    assert_eq!(
        a.canonical(),
        b.canonical(),
        "same seed must reproduce the ServiceReport byte for byte"
    );
    assert_eq!(a.admitted, 2, "both trace arrivals admitted: {a:?}");

    let c = service_report(SEED + 1);
    assert_ne!(
        a.canonical(),
        c.canonical(),
        "a different seed should not reproduce the same service run"
    );
}

#[test]
fn all_four_systems_are_deterministic() {
    for kind in SystemKind::all() {
        let run = |seed: u64| {
            let opts = CommonOpts {
                seed,
                time_limit: 3_600.0,
                ..CommonOpts::default()
            };
            let topology = TopologyKind::ModelNetMesh { max_loss: 0.01 };
            Workload::new(&opts, topology, NODES, file(), Dynamics::Static).run_system(kind)
        };
        let a = format!("{:?}", run(SEED));
        let b = format!("{:?}", run(SEED));
        assert_eq!(
            a,
            b,
            "{}: same seed must reproduce the run byte for byte",
            kind.label()
        );
    }
}
