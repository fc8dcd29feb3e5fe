//! Protocol-trait conformance: every dissemination system in the workspace
//! must uphold the runner's lifecycle contract, not just its own unit tests.
//!
//! The reusable harness lives in `netsim::conformance`: it wraps each node in
//! an instrumented delegating adapter, drives a scripted churn scenario (one
//! crash, one later graceful leave) through the real runner, and asserts the
//! trait-level invariants — `on_init` exactly once, timers re-armed by their
//! handlers keep firing, `on_peer_failed` reaches every survivor, and
//! farewell control messages sent from `on_shutdown` are still transmitted.
//! This file instantiates it against all four systems.

use bullet_repro::baselines::{bittorrent, bullet_orig, splitstream};
use bullet_repro::bullet_prime::{self, Config};
use bullet_repro::desim::{RngFactory, SimTime};
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::netsim::conformance::{check_lifecycle, Outcome, Scenario};
use bullet_repro::netsim::{topology, Network, NodeId, Protocol, StopReason, Topology};

const NODES: usize = 10;
const SEED: u64 = 20050410;

fn file() -> FileSpec {
    FileSpec::new(4 * 1024 * 1024, 16 * 1024)
}

/// Crash node 2 early, leave node 4 once peering is warm (the first RanSub
/// epoch lands at t = 5 s), cap well past both.
fn scenario() -> Scenario {
    Scenario {
        crash: NodeId(2),
        crash_at: SimTime::from_secs_f64(6.0),
        leave: NodeId(4),
        leave_at: SimTime::from_secs_f64(12.0),
        limit: SimTime::from_secs_f64(900.0),
    }
}

fn run_conformance<P: Protocol>(
    label: &str,
    nodes: Vec<P>,
    rng: &RngFactory,
    topo: Topology,
) -> Outcome<P> {
    check_lifecycle(label, Network::new(topo), nodes, rng, scenario())
}

#[test]
fn bullet_prime_conforms() {
    let rng = RngFactory::new(SEED);
    let topo = topology::modelnet_mesh(NODES, 0.01, &rng);
    let cfg = Config::new(file());
    let nodes = bullet_prime::build_nodes(&topo, &cfg, &rng);
    let outcome = run_conformance("bullet-prime", nodes, &rng, topo);
    // Bullet′ says goodbye: the leaver must have peered by t = 20 s and its
    // PeerClose farewells must reach the survivors.
    assert!(
        outcome.stats[4].farewell_msgs > 0,
        "the leaver should have peers to bid farewell to"
    );
    assert!(outcome.farewell_transmitted);
    // Tree repair + immediate re-peering: churn must not stop the survivors.
    assert_eq!(
        outcome.report.reason,
        StopReason::AllComplete,
        "{:?}",
        outcome.report
    );
}

#[test]
fn bullet_original_conforms() {
    let rng = RngFactory::new(SEED);
    let topo = topology::modelnet_mesh(NODES, 0.01, &rng);
    let nodes = bullet_orig::build_nodes(&topo, file(), &rng);
    let outcome = run_conformance("bullet-original", nodes, &rng, topo);
    assert_eq!(
        outcome.report.reason,
        StopReason::AllComplete,
        "{:?}",
        outcome.report
    );
}

#[test]
fn bittorrent_conforms() {
    let rng = RngFactory::new(SEED);
    let topo = topology::modelnet_mesh(NODES, 0.01, &rng);
    let nodes = bittorrent::build_nodes(&topo, file());
    let outcome = run_conformance("bittorrent", nodes, &rng, topo);
    // BitTorrent has no goodbye protocol: a leave looks like a crash to the
    // swarm, so no farewell may be *recorded* (transmission is then vacuous).
    assert_eq!(outcome.stats[4].farewell_msgs, 0);
    assert_eq!(
        outcome.report.reason,
        StopReason::AllComplete,
        "{:?}",
        outcome.report
    );
}

#[test]
fn splitstream_conforms() {
    let rng = RngFactory::new(SEED);
    let topo = topology::modelnet_mesh(NODES, 0.01, &rng);
    let nodes = splitstream::build_nodes(&topo, file(), &rng);
    let outcome = run_conformance("splitstream", nodes, &rng, topo);
    // SplitStream upholds the lifecycle contract but has no repair: children
    // of a departed interior node lose that stripe for good, so the run is
    // not expected to reach AllComplete — that structural weakness is the
    // paper's point, not a conformance failure.
    assert_eq!(outcome.stats[4].farewell_msgs, 0);
}
