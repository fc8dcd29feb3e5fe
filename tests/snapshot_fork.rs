//! The snapshot/fork contract, pinned for every shipped protocol:
//! `checkpoint-at-t → resume → run-to-end` produces a [`RunReport`] whose
//! canonical form is **byte-identical** to the uninterrupted run's —
//! completion times, end time, stop reason, metrics snapshot and the
//! probe-built time series included. Checked at two split points per system:
//! mid-join (t = 2 s, the mesh is still forming) and mid-dynamics (t = 12 s,
//! after the first correlated bandwidth decrease has fired), plus a
//! fork-divergence test proving that two runners forked from one snapshot
//! share no state one can observe of the other, and a test in which forks
//! of one snapshot draw their §4.1 schedule, whose table of batch start
//! states they share, in turn and on two threads.

use bullet_repro::baselines::{bittorrent, bullet_orig, splitstream, BitTorrentNode};
use bullet_repro::bullet_prime::{self, Config};
use bullet_repro::desim::{RngFactory, SimDuration, SimTime};
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::netsim::{
    dynamics, topology, ChangeSchedule, Network, Protocol, RunReport, Runner, StopReason, Topology,
};
use std::sync::Barrier;

const NODES: usize = 6;
const SEED: u64 = 20050410;
const LIMIT_SECS: f64 = 1800.0;
/// Mid-join split: the mesh is still forming, transfers barely started.
const MID_JOIN_SECS: f64 = 2.0;
/// Mid-dynamics split: past the first correlated decrease (period 10 s),
/// while every system is still mid-transfer.
const MID_DYNAMICS_SECS: f64 = 12.0;

fn file() -> FileSpec {
    // Large enough that every system is still mid-transfer at the 12 s
    // split (a 256 KiB file finishes in well under 20 virtual seconds at
    // this scale).
    FileSpec::new(1024 * 1024, 16 * 1024)
}

/// The §4.1 correlated-decrease schedule at test scale: first batch at 10 s,
/// so the mid-dynamics split lands after at least one change has fired.
fn schedule(rng: &RngFactory) -> ChangeSchedule {
    dynamics::correlated_decrease_schedule(
        NODES,
        SimDuration::from_secs(10),
        SimDuration::from_secs(120),
        rng,
    )
}

/// Builds one of the four systems with the dynamics schedule applied and the
/// stats probe installed (so checkpoints carry probe state too), then hands
/// the runner to `f`.
fn with_system<P, R>(build: impl Fn(&RngFactory) -> Runner<P>, f: impl FnOnce(Runner<P>) -> R) -> R
where
    P: Protocol,
{
    let rng = RngFactory::new(SEED);
    let mut runner = build(&rng);
    for (at, batch) in schedule(&rng) {
        runner.schedule_link_change(at, batch);
    }
    runner.record_timeseries(SimDuration::from_secs(2));
    f(runner)
}

/// The contract itself: run uninterrupted; run again but checkpoint at
/// `split`, drop the original, resume from the snapshot and finish. The two
/// canonical reports must be byte-identical.
fn assert_roundtrip_identical<P>(name: &str, split: f64, build: impl Fn(&RngFactory) -> Runner<P>)
where
    P: Protocol + Clone,
    P::Msg: Clone,
{
    let straight: RunReport = with_system(&build, |mut runner| {
        runner.run_until(SimTime::from_secs_f64(LIMIT_SECS))
    });

    let staged: RunReport = with_system(&build, |mut runner| {
        let reason = runner.advance_until(SimTime::from_secs_f64(split));
        assert_eq!(
            reason,
            StopReason::TimeLimit,
            "{name}: the run ended before the {split} s split — the split is \
             not mid-run and the test would be vacuous"
        );
        let snap = runner.checkpoint();
        drop(runner); // The original must not be needed once snapshotted.
        let mut resumed = Runner::resume(snap);
        resumed.run_until(SimTime::from_secs_f64(LIMIT_SECS))
    });

    assert_eq!(
        staged.canonical(),
        straight.canonical(),
        "{name}: checkpoint at {split} s + resume diverged from the \
         uninterrupted run"
    );
    // The identity above includes the probe series; make sure it is actually
    // in play (a None == None comparison would prove nothing about probes).
    assert!(
        straight.timeseries.is_some(),
        "{name}: the probe series must be part of the compared reports"
    );
}

/// A runner over the test's lossy mesh with the nodes `build` makes for it.
fn on_mesh<P: Protocol>(rng: &RngFactory, build: impl FnOnce(&Topology) -> Vec<P>) -> Runner<P> {
    let topo = topology::modelnet_mesh(NODES, 0.03, rng);
    let nodes = build(&topo);
    Runner::new(Network::new(topo), nodes, rng)
}

fn build_bullet_prime(rng: &RngFactory) -> Runner<bullet_prime::BulletPrimeNode> {
    on_mesh(rng, |topo| {
        bullet_prime::build_nodes(topo, &Config::new(file()), rng)
    })
}

// Original Bullet is Bullet′ pinned to the SOSP '03 parameters
// (`bullet_config`), so its runner carries the same node type.
fn build_bullet_orig(rng: &RngFactory) -> Runner<bullet_prime::BulletPrimeNode> {
    on_mesh(rng, |topo| bullet_orig::build_nodes(topo, file(), rng))
}

fn build_bittorrent(rng: &RngFactory) -> Runner<BitTorrentNode> {
    on_mesh(rng, |topo| bittorrent::build_nodes(topo, file()))
}

fn build_splitstream(rng: &RngFactory) -> Runner<splitstream::SplitStreamNode> {
    on_mesh(rng, |topo| splitstream::build_nodes(topo, file(), rng))
}

#[test]
fn bullet_prime_roundtrips_at_both_splits() {
    assert_roundtrip_identical("BulletPrime", MID_JOIN_SECS, build_bullet_prime);
    assert_roundtrip_identical("BulletPrime", MID_DYNAMICS_SECS, build_bullet_prime);
}

#[test]
fn bullet_original_roundtrips_at_both_splits() {
    assert_roundtrip_identical("Bullet", MID_JOIN_SECS, build_bullet_orig);
    assert_roundtrip_identical("Bullet", MID_DYNAMICS_SECS, build_bullet_orig);
}

#[test]
fn bittorrent_roundtrips_at_both_splits() {
    assert_roundtrip_identical("BitTorrent", MID_JOIN_SECS, build_bittorrent);
    assert_roundtrip_identical("BitTorrent", MID_DYNAMICS_SECS, build_bittorrent);
}

#[test]
fn splitstream_roundtrips_at_both_splits() {
    assert_roundtrip_identical("SplitStream", MID_JOIN_SECS, build_splitstream);
    assert_roundtrip_identical("SplitStream", MID_DYNAMICS_SECS, build_splitstream);
}

#[test]
fn forks_from_one_snapshot_share_no_mutable_state() {
    // One warm snapshot; two different post-split dynamics. If forks shared
    // any mutable state (protocol maps, RNG streams, the flow table, probe
    // buffers), running one would perturb the other — so run the "quiet"
    // variant, then the "harsh" variant, then the "quiet" variant again, and
    // demand the two quiet runs agree while the harsh one differs.
    let rng = RngFactory::new(SEED);
    let mut runner = build_bullet_prime(&rng);
    runner.record_timeseries(SimDuration::from_secs(2));
    runner.advance_until(SimTime::from_secs_f64(10.0));
    let snap = runner.checkpoint();

    let quiet = |snap: &_| {
        let mut forked: Runner<bullet_prime::BulletPrimeNode> = Runner::resume(Clone::clone(snap));
        forked.run_until(SimTime::from_secs_f64(LIMIT_SECS))
    };
    let harsh = |snap: &_| {
        let mut forked: Runner<bullet_prime::BulletPrimeNode> = Runner::resume(Clone::clone(snap));
        let rng = RngFactory::new(SEED);
        for (at, batch) in dynamics::correlated_decrease_schedule(
            NODES,
            SimDuration::from_secs(8),
            SimDuration::from_secs(120),
            &rng,
        ) {
            let shifted = at + SimDuration::from_secs(10);
            forked.schedule_link_change(shifted, batch);
        }
        forked.run_until(SimTime::from_secs_f64(LIMIT_SECS))
    };

    let quiet_before = quiet(&snap);
    let harsh_report = harsh(&snap);
    let quiet_after = quiet(&snap);

    assert_eq!(
        quiet_before.canonical(),
        quiet_after.canonical(),
        "running a sibling fork in between changed a later fork's outcome — \
         forks share mutable state"
    );
    assert_ne!(
        harsh_report.canonical(),
        quiet_before.canonical(),
        "the harsh dynamics had no effect — the divergence check is vacuous"
    );
}

#[test]
fn forks_drawing_one_schedule_in_turn_or_on_two_threads_equal_the_straight_run() {
    // A §4.1 schedule's batches share one table of start states, filled by
    // whichever holder draws a batch first. A snapshot taken after the first
    // batch has fired carries the table with it; its forks then draw the
    // later batches, one after the other or at once, and each must run as
    // if it had never been forked.
    let straight = with_system(build_bullet_prime, |mut runner| {
        runner.run_until(SimTime::from_secs_f64(LIMIT_SECS))
    });
    let checkpointed = || {
        with_system(build_bullet_prime, |mut runner| {
            let reason = runner.advance_until(SimTime::from_secs_f64(MID_DYNAMICS_SECS));
            assert_eq!(reason, StopReason::TimeLimit, "the split is mid-run");
            runner.checkpoint()
        })
    };
    let finish = |snap| Runner::resume(snap).run_until(SimTime::from_secs_f64(LIMIT_SECS));

    let snap = checkpointed();
    let in_turn = [finish(snap.clone()), finish(snap)];
    let snap = checkpointed();
    let start = Barrier::new(2);
    let threaded: Vec<RunReport> = std::thread::scope(|scope| {
        let forks: Vec<_> = (0..2)
            .map(|_| {
                let (snap, start) = (snap.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    finish(snap)
                })
            })
            .collect();
        forks
            .into_iter()
            .map(|fork| fork.join().expect("the fork ran"))
            .collect()
    });
    for (how, report) in ["first in turn", "second in turn"]
        .iter()
        .zip(&in_turn)
        .chain(["first thread", "second thread"].iter().zip(&threaded))
    {
        assert_eq!(
            report.canonical(),
            straight.canonical(),
            "the {how} fork diverged from the uninterrupted run"
        );
    }
}
