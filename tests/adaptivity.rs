//! Integration tests for the paper's central claim: the adaptive mechanisms
//! (dynamic peer sets, dynamic outstanding windows, rarest-random requests)
//! hold up across network conditions where any single static choice breaks
//! down.

use bullet_repro::bullet_bench::{CommonOpts, Dynamics, SystemRun, TopologyKind, Workload};
use bullet_repro::bullet_prime::{Config, OutstandingPolicy, PeerSetPolicy, RequestStrategy};
use bullet_repro::dissem_codec::FileSpec;

fn workload(
    topology: TopologyKind,
    nodes: usize,
    seed: u64,
    file: FileSpec,
    dynamics: Dynamics,
) -> Workload {
    let opts = CommonOpts {
        seed,
        ..CommonOpts::default()
    };
    Workload::new(&opts, topology, nodes, file, dynamics)
}

/// Completion times of Bullet' under the default configuration after `tweak`.
fn run_with(w: &Workload, tweak: impl FnOnce(&mut Config)) -> SystemRun {
    let mut cfg = w.config();
    tweak(&mut cfg);
    let run = SystemRun::from_report(&w.run(&mut w.bullet_prime(&cfg, None)));
    assert_eq!(run.unfinished, 0);
    run
}

/// Fig 9's point: on a constrained-access topology more peers are *not*
/// better, and the dynamic policy must stay within striking distance of the
/// best static choice.
#[test]
fn dynamic_peering_tracks_the_best_static_choice_on_constrained_access() {
    let w = workload(
        TopologyKind::ConstrainedAccess,
        24,
        31,
        FileSpec::from_mb_kb(2, 16),
        Dynamics::Static,
    );
    let small = run_with(&w, |c| c.peer_policy = PeerSetPolicy::Fixed(6)).median();
    let large = run_with(&w, |c| c.peer_policy = PeerSetPolicy::Fixed(14)).median();
    let dynamic = run_with(&w, |_| {}).median();
    let best = small.min(large);
    assert!(
        dynamic <= best * 1.35,
        "dynamic ({dynamic:.1}s) should track the best static choice ({best:.1}s)"
    );
}

/// Fig 10's point: on clean high-bandwidth-delay-product paths a tiny fixed
/// outstanding window cannot fill the pipe; the dynamic controller must beat
/// it and approach a generously sized fixed window.
#[test]
fn dynamic_outstanding_fills_high_bdp_pipes() {
    let w = workload(
        TopologyKind::HighBdpClique { max_loss: 0.0 },
        12,
        37,
        FileSpec::new(4 * 1024 * 1024, 8 * 1024),
        Dynamics::Static,
    );
    let tiny = run_with(&w, |c| c.outstanding_policy = OutstandingPolicy::Fixed(1)).median();
    let large = run_with(&w, |c| c.outstanding_policy = OutstandingPolicy::Fixed(50)).median();
    let dynamic = run_with(&w, |_| {}).median();
    assert!(
        dynamic < tiny,
        "dynamic ({dynamic:.1}s) must beat a one-block window ({tiny:.1}s) on high-BDP paths"
    );
    assert!(
        dynamic <= large * 1.5,
        "dynamic ({dynamic:.1}s) should be in the same league as a 50-block window ({large:.1}s)"
    );
}

/// Fig 12's point: when a peer's dedicated links degrade one after another,
/// having committed 50 outstanding blocks to each connection hurts the victim
/// compared with the adaptive controller.
#[test]
fn dynamic_outstanding_limits_damage_from_cascading_slowdowns() {
    // The reduced 12 MB download lasts ~10 s at 10 Mbps, so degrade one link
    // every 2 s to reproduce the paper's "most links degraded before the
    // victim finishes" situation.
    let w = workload(
        TopologyKind::Cascade,
        8,
        41,
        FileSpec::new(12 * 1024 * 1024, 8 * 1024),
        Dynamics::CascadingDegrade { period: 2.0 },
    );
    let victim_time = |tweak: fn(&mut Config)| {
        let run = run_with(&w, |c| {
            c.peer_policy = PeerSetPolicy::Fixed(6);
            tweak(c);
        });
        // The victim is the last node and by construction the slowest.
        run.times.iter().cloned().fold(0.0f64, f64::max)
    };
    let overcommitted = victim_time(|c| c.outstanding_policy = OutstandingPolicy::Fixed(50));
    let dynamic = victim_time(|_| {});
    assert!(
        dynamic <= overcommitted * 1.05,
        "dynamic ({dynamic:.1}s) should not lose to a 50-block window ({overcommitted:.1}s) under cascading slowdowns"
    );
}

/// Fig 6's point: request ordering matters; rarest-random must not lose to
/// first-encountered, which destroys block diversity.
#[test]
fn rarest_random_requests_do_not_lose_to_first_encountered() {
    let w = workload(
        TopologyKind::ModelNetMesh { max_loss: 0.03 },
        24,
        43,
        FileSpec::from_mb_kb(4, 16),
        Dynamics::Static,
    );
    let first = run_with(&w, |c| {
        c.request_strategy = RequestStrategy::FirstEncountered
    })
    .median();
    let rarest_random = run_with(&w, |_| {}).median();
    assert!(
        rarest_random <= first * 1.10,
        "rarest-random ({rarest_random:.1}s) should not lose to first-encountered ({first:.1}s)"
    );
}
