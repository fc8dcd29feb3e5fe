//! Cross-crate integration tests: full dissemination runs spanning the
//! emulator, the overlay substrate, Bullet′ and the baselines.

use bullet_repro::bullet_bench::{
    CommonOpts, Dynamics, SystemKind, SystemRun, TopologyKind, Workload,
};
use bullet_repro::bullet_prime::{OutstandingPolicy, PeerSetPolicy};
use bullet_repro::desim::SimDuration;
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::netsim::NodeId;

const LIMIT: SimDuration = SimDuration::from_secs(3_600);

/// The lossy ModelNet mesh every test here runs on.
fn mesh(nodes: usize, max_loss: f64, seed: u64, file: FileSpec, dynamics: Dynamics) -> Workload {
    let opts = CommonOpts {
        seed,
        time_limit: LIMIT.as_secs_f64(),
        ..CommonOpts::default()
    };
    let topology = TopologyKind::ModelNetMesh { max_loss };
    Workload::new(&opts, topology, nodes, file, dynamics)
}

#[test]
fn bullet_prime_beats_the_physical_floor_but_not_by_magic() {
    let file = FileSpec::from_mb_kb(4, 16);
    let w = mesh(20, 0.02, 1, file, Dynamics::Static);
    let floor = file.file_bytes as f64 / w.topology().node(NodeId(1)).down;
    let run = SystemRun::from_report(&w.report());
    assert_eq!(run.unfinished, 0);
    for &t in &run.times {
        assert!(
            t >= floor,
            "a receiver finished faster ({t:.1}s) than its access link allows ({floor:.1}s)"
        );
        assert!(
            t < 40.0 * floor,
            "a receiver took implausibly long: {t:.1}s"
        );
    }
}

#[test]
fn every_system_disseminates_the_same_workload() {
    let file = FileSpec::from_mb_kb(2, 16);
    let w = mesh(12, 0.01, 3, file, Dynamics::Static);
    for kind in SystemKind::all() {
        let run = w.run_system(kind);
        assert_eq!(run.times.len(), 11, "{kind:?}");
        assert_eq!(run.unfinished, 0, "{kind:?} left receivers unfinished");
    }
}

#[test]
fn cross_system_runs_share_no_state() {
    // Running two systems back to back with the same seed gives the same
    // Bullet' results as running Bullet' alone — nothing leaks through globals.
    let w = mesh(8, 0.01, 9, FileSpec::from_mb_kb(1, 16), Dynamics::Static);
    let solo = w.run_system(SystemKind::BulletPrime).times;
    let _noise = w.run_system(SystemKind::BitTorrent);
    let again = w.run_system(SystemKind::BulletPrime).times;
    assert_eq!(solo, again);
}

#[test]
fn bandwidth_changes_slow_fixed_configurations_down() {
    // Under the paper's correlated-decrease scenario, a statically configured
    // Bullet' should not be faster than it was on the static network.
    let file = FileSpec::from_mb_kb(4, 16);
    let median = |dynamics: Dynamics| {
        let w = mesh(16, 0.02, 17, file, dynamics);
        let mut cfg = w.config();
        cfg.peer_policy = PeerSetPolicy::Fixed(6);
        cfg.outstanding_policy = OutstandingPolicy::Fixed(3);
        SystemRun::from_report(&w.run(&mut w.bullet_prime(&cfg, None))).median()
    };
    let static_net = median(Dynamics::Static);
    let dynamic_net = median(Dynamics::BandwidthChanges {
        period: Some(10.0),
        quiet: 0.0,
    });
    assert!(
        dynamic_net >= static_net * 0.95,
        "cumulative bandwidth cuts should not speed the download up (static {static_net:.1}s, dynamic {dynamic_net:.1}s)"
    );
}

#[test]
fn encoded_and_unencoded_bullet_prime_both_complete() {
    for encoded in [false, true] {
        let w = mesh(10, 0.01, 23, FileSpec::from_mb_kb(2, 16), Dynamics::Static);
        let mut cfg = w.config();
        if encoded {
            cfg.transfer_mode = bullet_repro::bullet_prime::TransferMode::Encoded { epsilon: 0.04 };
        }
        let mut runner = w.bullet_prime(&cfg, None);
        let run = SystemRun::from_report(&w.run(&mut runner));
        assert_eq!(run.unfinished, 0, "encoded={encoded}");
        let needed = cfg.completion_target();
        for node in runner.nodes().iter().skip(1) {
            assert!(node.blocks_held() >= needed, "encoded={encoded}");
        }
    }
}
