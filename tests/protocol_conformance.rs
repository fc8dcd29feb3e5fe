//! The four systems' churn contract, read off their traces.
//!
//! Each system runs on one 10-node ModelNet mesh, built and observed the way
//! every closed run is (`Workload::runner` with a `RingSink` installed), while
//! node 2 crashes at 6 s and node 4 leaves gracefully at 12 s. The checks read
//! nothing but the ring's records, the run report and, for (e), the
//! runner's network:
//!
//! - (a) every survivor's re-armed timers keep firing: at least two `timer`
//!   records each;
//! - (b) after a node's `node_crash` / `node_leave` record, no `msg` is
//!   delivered to it, no `block_received` lands at it and no `block_sent`
//!   names it at either end;
//! - (c) Bullet′ says goodbye, and so does Bullet, which runs Bullet′'s node
//!   with fixed parameters: a `peer_close` from the leaver reaches a survivor
//!   at or after the leave;
//! - (d) the run outlives the leave, and Bullet′, Bullet and BitTorrent still
//!   complete every survivor;
//! - (e) at the end no connection joins a departed node and a survivor, in
//!   either direction: departure released their flow rows.
//!
//! The runner's own side of the contract (`on_init` once, `on_peer_failed` to
//! every survivor, `on_shutdown` on the leaver only) is pinned by `netsim`'s
//! lifecycle tests, and what each system sends from `on_shutdown` by its own
//! unit tests.

use bullet_repro::baselines::{bittorrent, bullet_orig, splitstream};
use bullet_repro::bullet_bench::{Dynamics, TopologyKind, Workload};
use bullet_repro::desim::SimTime;
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::netsim::{
    NodeEvent, NodeId, Protocol, RingSink, RunReport, Runner, StopReason, TraceEvent, TraceRecord,
    TraceSink,
};

const NODES: u32 = 10;
const CRASH: u32 = 2;
const CRASH_AT: f64 = 6.0;
const LEAVE: u32 = 4;
/// Late enough that peering is warm: the first RanSub epoch lands at 5 s.
const LEAVE_AT: f64 = 12.0;

fn workload() -> Workload {
    Workload {
        topology: TopologyKind::ModelNetMesh { max_loss: 0.01 },
        nodes: NODES as usize,
        groups: 1,
        file: FileSpec::new(4 * 1024 * 1024, 16 * 1024),
        dynamics: Dynamics::Static,
        tick: None,
        limit: 900.0,
        seed: 20050410,
    }
}

fn ring() -> Option<Box<dyn TraceSink>> {
    Some(Box::new(RingSink::new(usize::MAX)))
}

fn survivors() -> impl Iterator<Item = u32> {
    (0..NODES).filter(|&n| n != CRASH && n != LEAVE)
}

/// Crashes node 2 and makes node 4 leave on a runner `workload()` built with
/// `ring()`, runs it, checks (e), and returns the report and every record.
fn churn<P: Protocol>(label: &str, mut runner: Runner<P>) -> (RunReport, Vec<TraceRecord>) {
    let (crash_at, leave_at) = (
        SimTime::from_secs_f64(CRASH_AT),
        SimTime::from_secs_f64(LEAVE_AT),
    );
    runner.schedule_node_event(crash_at, NodeEvent::Crash(NodeId(CRASH)));
    runner.schedule_node_event(leave_at, NodeEvent::Leave(NodeId(LEAVE)));
    let report = workload().run(&mut runner);
    assert!(
        report.end_time >= leave_at,
        "{label}: the run ended at {:?}, before the scripted leave",
        report.end_time
    );
    for departed in [CRASH, LEAVE].map(NodeId) {
        for survivor in survivors().map(NodeId) {
            let net = runner.network();
            assert!(
                net.connection(survivor, departed).is_none()
                    && net.connection(departed, survivor).is_none(),
                "{label}: a connection between survivor {survivor:?} and departed \
                 {departed:?} outlived the departure"
            );
        }
    }
    let ring = runner
        .take_trace_sink::<RingSink>()
        .expect("a ring went in");
    assert_eq!(
        ring.dropped(),
        0,
        "{label}: the ring must hold the whole run"
    );
    (report, ring.into_records())
}

/// (a) Every survivor's timers keep firing.
fn check_timers_keep_firing(label: &str, records: &[TraceRecord]) {
    for survivor in survivors() {
        let fired = records
            .iter()
            .filter(|r| matches!(r.ev, TraceEvent::Timer { node, .. } if node == survivor))
            .count();
        assert!(
            fired >= 2,
            "{label}: survivor {survivor} saw {fired} timer(s); a timer re-armed \
             from its handler must keep firing"
        );
    }
}

/// (b) Nothing reaches a node, or leaves it as a block, once it has gone.
fn check_nothing_reaches_the_departed(label: &str, records: &[TraceRecord]) {
    let mut gone = vec![false; NODES as usize];
    for rec in records {
        let (a, b) = match rec.ev {
            TraceEvent::NodeCrash { node } | TraceEvent::NodeLeave { node } => {
                gone[node as usize] = true;
                continue;
            }
            TraceEvent::Msg { to, .. } => (to, to),
            TraceEvent::BlockReceived { node, .. } => (node, node),
            TraceEvent::BlockSent { from, to, .. } => (from, to),
            _ => continue,
        };
        assert!(
            !gone[a as usize] && !gone[b as usize],
            "{label}: {rec:?} names a node that has departed"
        );
    }
}

/// (c) A `peer_close` from the leaver reaches a survivor at or after the
/// leave.
fn check_farewell_reaches_a_survivor(label: &str, records: &[TraceRecord]) {
    let farewell = records.iter().any(|r| {
        r.t >= LEAVE_AT
            && matches!(r.ev, TraceEvent::Msg { from: LEAVE, to, msg: "peer_close", .. }
                if survivors().any(|s| s == to))
    });
    assert!(
        farewell,
        "{label}: no peer_close from the leaver reached a survivor"
    );
}

/// (a) and (b), which every system upholds.
fn check_churn_contract(label: &str, records: &[TraceRecord]) {
    check_timers_keep_firing(label, records);
    check_nothing_reaches_the_departed(label, records);
}

#[test]
fn bullet_prime_conforms() {
    let w = workload();
    let (report, records) = churn("bullet-prime", w.bullet_prime(&w.config(), ring()));
    check_churn_contract("bullet-prime", &records);
    check_farewell_reaches_a_survivor("bullet-prime", &records);
    // Tree repair + immediate re-peering: churn must not stop the survivors.
    assert_eq!(report.reason, StopReason::AllComplete, "{report:?}");
}

#[test]
fn bullet_original_conforms() {
    let w = workload();
    let runner = w.runner(
        |topo, rng| bullet_orig::build_nodes(topo, w.file, rng),
        ring(),
    );
    let (report, records) = churn("bullet-original", runner);
    check_churn_contract("bullet-original", &records);
    check_farewell_reaches_a_survivor("bullet-original", &records);
    assert_eq!(report.reason, StopReason::AllComplete, "{report:?}");
}

#[test]
fn bittorrent_conforms() {
    let w = workload();
    let runner = w.runner(|topo, _| bittorrent::build_nodes(topo, w.file), ring());
    let (report, records) = churn("bittorrent", runner);
    // BitTorrent has no goodbye: a leave looks like a crash to the swarm.
    check_churn_contract("bittorrent", &records);
    assert_eq!(report.reason, StopReason::AllComplete, "{report:?}");
}

#[test]
fn splitstream_conforms() {
    let w = workload();
    let runner = w.runner(
        |topo, rng| splitstream::build_nodes(topo, w.file, rng),
        ring(),
    );
    let (_, records) = churn("splitstream", runner);
    // SplitStream upholds the contract but has no repair: children of a
    // departed interior node lose that stripe for good, so the run is not
    // expected to reach AllComplete. That structural weakness is the paper's
    // point, not a conformance failure.
    check_churn_contract("splitstream", &records);
}
