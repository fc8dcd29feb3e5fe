use super::*;
use crate::topology::{constrained_access, shared_core_mesh, NodeSpec, PathSpec};
use crate::units::mbps;
use desim::RngFactory;

fn two_node_topo(core_mbps: f64, access_mbps: f64) -> Topology {
    let node = NodeSpec {
        up: mbps(access_mbps),
        down: mbps(access_mbps),
        access_delay: SimDuration::from_millis(1),
    };
    let path = PathSpec {
        bw: mbps(core_mbps),
        delay: SimDuration::from_millis(10),
        loss: 0.0,
    };
    Topology::new(vec![node; 2], vec![vec![path; 2]; 2])
}

/// Extracts the completion time of the `Schedule` update for `from → to`.
fn sched_at(net: &Network, updates: &[ConnUpdate], from: NodeId, to: NodeId) -> SimTime {
    let want = net.flow_id(from, to).expect("the pair has a flow");
    updates
        .iter()
        .find_map(|u| match *u {
            ConnUpdate::Schedule { fid, at } if fid == want => Some(at),
            _ => None,
        })
        .expect("a Schedule update for the pair")
}

#[test]
fn single_block_completes_at_expected_rate() {
    let mut net = Network::new(two_node_topo(2.0, 6.0));
    let now = SimTime::ZERO;
    let r = net.queue_block(now, NodeId(0), NodeId(1), BlockId(0), 250_000);
    assert_eq!(r.len(), 1);
    // Slow start dominates a fresh connection, so completion takes longer
    // than the raw 1-second serialisation at 2 Mbps (250 KB / 250 KB/s).
    let at = sched_at(&net, &r, NodeId(0), NodeId(1));
    let finish = at.as_secs_f64();
    assert!(
        finish > 1.0,
        "finish {finish} should exceed the raw serialisation time"
    );
    assert!(finish < 10.0, "finish {finish} unreasonably late");
    let (done, _) = net
        .on_block_done(at, NodeId(0), NodeId(1))
        .expect("block in flight");
    assert_eq!(done.block, BlockId(0));
    assert_eq!(done.bytes, 250_000);
    assert_eq!(done.in_front, 0);
    assert!(
        done.wasted <= 0.0,
        "first block on an idle connection has idle-gap wasted time"
    );
}

#[test]
fn completion_without_inflight_is_rejected() {
    let mut net = Network::new(two_node_topo(2.0, 6.0));
    // No connection at all.
    assert!(net
        .on_block_done(SimTime::ZERO, NodeId(0), NodeId(1))
        .is_none());
    let r = net.queue_block(SimTime::ZERO, NodeId(0), NodeId(1), BlockId(0), 16_384);
    // Queueing a second block on an active connection produces no update:
    // the live completion event is untouched.
    let r2 = net.queue_block(SimTime::ZERO, NodeId(0), NodeId(1), BlockId(1), 16_384);
    assert!(r2.is_empty());
    // Draining both blocks empties the connection; a further completion
    // has nothing in flight and is rejected.
    let at = sched_at(&net, &r, NodeId(0), NodeId(1));
    let (_, u1) = net.on_block_done(at, NodeId(0), NodeId(1)).unwrap();
    let at1 = sched_at(&net, &u1, NodeId(0), NodeId(1));
    let (_, _) = net.on_block_done(at1, NodeId(0), NodeId(1)).unwrap();
    assert!(net.on_block_done(at1, NodeId(0), NodeId(1)).is_none());
}

#[test]
fn queued_blocks_report_in_front_and_wait() {
    let mut net = Network::new(two_node_topo(2.0, 6.0));
    let t0 = SimTime::ZERO;
    let r = net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), 16_384);
    net.queue_block(t0, NodeId(0), NodeId(1), BlockId(1), 16_384);
    net.queue_block(t0, NodeId(0), NodeId(1), BlockId(2), 16_384);
    assert_eq!(net.pending_blocks(NodeId(0), NodeId(1)), 3);

    // Complete the first block.
    let at0 = sched_at(&net, &r, NodeId(0), NodeId(1));
    let (b0, r1) = net.on_block_done(at0, NodeId(0), NodeId(1)).unwrap();
    assert_eq!(b0.in_front, 0);
    // The second block starts immediately and reports one block in front.
    let at1 = sched_at(&net, &r1, NodeId(0), NodeId(1));
    let (b1, r2) = net.on_block_done(at1, NodeId(0), NodeId(1)).unwrap();
    assert_eq!(b1.block, BlockId(1));
    assert_eq!(b1.in_front, 1);
    assert!(
        b1.wasted > 0.0,
        "queued block should report positive waiting time"
    );
    let at2 = sched_at(&net, &r2, NodeId(0), NodeId(1));
    let (b2, _) = net.on_block_done(at2, NodeId(0), NodeId(1)).unwrap();
    assert_eq!(b2.in_front, 2);
}

#[test]
fn concurrent_connections_share_access_link() {
    // Constrained access topology: 800 Kbps uplink, 10 Mbps core.
    let mut net = Network::new(constrained_access(3));
    let t0 = SimTime::ZERO;
    let r1 = net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), 100_000);
    let single_rate = net.current_rate(NodeId(0), NodeId(1)).unwrap();
    let _r2 = net.queue_block(t0, NodeId(0), NodeId(2), BlockId(1), 100_000);
    let shared_rate = net.current_rate(NodeId(0), NodeId(1)).unwrap();
    assert!(
        shared_rate < single_rate,
        "adding a second outgoing flow must reduce the first one's share"
    );
    assert!(sched_at(&net, &r1, NodeId(0), NodeId(1)) > t0);
}

#[test]
fn flows_contend_on_a_shared_core_link() {
    // Two disjoint sender/receiver pairs whose only common constraint is
    // the shared 2 Mbps core: under the old per-path model they would
    // not contend at all.
    let rng = RngFactory::new(1);
    let mut net = Network::new(shared_core_mesh(4, mbps(2.0), 0.0, &rng));
    let t0 = SimTime::ZERO;
    let big = 5_000_000;
    // Mature flow 0 → 1 past slow start by completing one large block.
    let r = net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), big);
    net.queue_block(t0, NodeId(0), NodeId(1), BlockId(1), big);
    let at = sched_at(&net, &r, NodeId(0), NodeId(1));
    net.on_block_done(at, NodeId(0), NodeId(1)).unwrap();
    let alone = net.current_rate(NodeId(0), NodeId(1)).unwrap();
    assert!(
        (alone - mbps(2.0)).abs() < 1.0,
        "a lone mature flow fills the shared core ({alone})"
    );
    let updates = net.queue_block(at, NodeId(2), NodeId(3), BlockId(2), big);
    // The established flow is re-priced by the newcomer's arrival.
    let _ = sched_at(&net, &updates, NodeId(2), NodeId(3));
    let shared = net.current_rate(NodeId(0), NodeId(1)).unwrap();
    assert!(
        shared < alone,
        "a disjoint pair crossing the same core link must steal share \
         (alone {alone}, shared {shared})"
    );
}

#[test]
fn capped_flows_release_share_to_their_competitors() {
    // Max-min, not equal split: a flow held below the fair share by its
    // own ceiling (here: slow start on a fresh connection over a long
    // path) leaves the rest of the link to its competitor.
    let node = NodeSpec {
        up: 100_000.0,
        down: 100_000.0,
        access_delay: SimDuration::from_millis(2),
    };
    let path = PathSpec {
        bw: mbps(10.0),
        delay: SimDuration::from_millis(100),
        loss: 0.0,
    };
    let mut net = Network::new(Topology::new(vec![node; 3], vec![vec![path; 3]; 3]));
    let t0 = SimTime::ZERO;
    // Flow A: matured by completing a 100 KB block.
    let r = net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), 100_000);
    net.queue_block(t0, NodeId(0), NodeId(1), BlockId(1), 400_000);
    let at = sched_at(&net, &r, NodeId(0), NodeId(1));
    net.on_block_done(at, NodeId(0), NodeId(1)).unwrap();
    // Flow B: brand new at the same sender, window-limited over the
    // ~208 ms RTT (slow-start cap ≈ 21 KB/s, well below the 50 KB/s
    // fair share of the 100 KB/s uplink).
    net.queue_block(at, NodeId(0), NodeId(2), BlockId(2), 400_000);
    let a = net.current_rate(NodeId(0), NodeId(1)).unwrap();
    let b = net.current_rate(NodeId(0), NodeId(2)).unwrap();
    let uplink = 100_000.0;
    assert!(
        b < uplink / 2.0,
        "the slow-starting flow must sit below the fair share (b {b})"
    );
    assert!(
        a > uplink / 2.0 + 1.0,
        "the uncapped flow must claim the capped flow's leftover ({a})"
    );
    assert!(
        a + b <= uplink * (1.0 + 1e-6),
        "conservation on the uplink ({a} + {b})"
    );
}

#[test]
fn cross_traffic_takes_core_capacity_and_returns_it() {
    let rng = RngFactory::new(2);
    let mut net = Network::new(shared_core_mesh(3, mbps(2.0), 0.0, &rng));
    let t0 = SimTime::ZERO;
    // Mature the flow past slow start by completing one large block.
    let r = net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), 5_000_000);
    net.queue_block(t0, NodeId(0), NodeId(1), BlockId(1), 50_000_000);
    let t1 = sched_at(&net, &r, NodeId(0), NodeId(1));
    net.on_block_done(t1, NodeId(0), NodeId(1)).unwrap();
    let clean = net.current_rate(NodeId(0), NodeId(1)).unwrap();

    // A CBR stream occupying half the core.
    let updates = net.set_cross_traffic(t1, (NodeId(0), NodeId(1)), mbps(1.0));
    assert_eq!(updates.len(), 1, "the flow is re-priced: {updates:?}");
    let squeezed = net.current_rate(NodeId(0), NodeId(1)).unwrap();
    assert!(
        squeezed < clean * 0.6,
        "cross traffic must take its share (clean {clean}, squeezed {squeezed})"
    );
    let link = net.topology().core_link(NodeId(0), NodeId(1));
    assert_eq!(net.cross_traffic(link), mbps(1.0));

    // Switching it off restores the rate.
    net.set_cross_traffic(t1, (NodeId(0), NodeId(1)), 0.0);
    let restored = net.current_rate(NodeId(0), NodeId(1)).unwrap();
    assert!((restored - clean).abs() < clean * 1e-6);
}

#[test]
fn repricing_is_scoped_to_the_connected_component() {
    // Flows 0→1 and 2→3 share no link (dedicated cores, distinct access
    // links): starting/stopping one must not emit updates for the other.
    let mut net = Network::new(constrained_access(4));
    let t0 = SimTime::ZERO;
    net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), 1_000_000);
    let updates = net.queue_block(t0, NodeId(2), NodeId(3), BlockId(1), 1_000_000);
    assert_eq!(
        updates.len(),
        1,
        "only the new flow's component is touched: {updates:?}"
    );
    let _ = sched_at(&net, &updates, NodeId(2), NodeId(3));
    let disconnected = net.flow_id(NodeId(0), NodeId(1));
    let updates = net.close_connection(SimTime::from_secs_f64(1.0), NodeId(2), NodeId(3));
    assert!(
        !updates
            .iter()
            .any(|u| matches!(u, ConnUpdate::Schedule { fid, .. } if Some(*fid) == disconnected)),
        "the disconnected flow must not be re-priced: {updates:?}"
    );
}

#[test]
fn unsaturable_links_do_not_couple_components() {
    // Two fresh (slow-start-capped) flows share the sender's 10 Mbps uplink,
    // but their combined ceilings cannot come close to filling it — the
    // uplink is a boundary link before and after, so a change on one flow's
    // core must not drag the other flow into the solve.
    let node = NodeSpec {
        up: mbps(10.0),
        down: mbps(10.0),
        access_delay: SimDuration::from_millis(1),
    };
    let path = PathSpec {
        bw: mbps(10.0),
        delay: SimDuration::from_millis(10),
        loss: 0.0,
    };
    let mut paths = vec![vec![path; 3]; 3];
    // A narrow dedicated core for 0 → 1, so cross traffic can squeeze it.
    paths[0][1].bw = 80_000.0;
    let mut net = Network::new(Topology::new(vec![node; 3], paths));
    let t0 = SimTime::ZERO;
    net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), 4_000_000);
    net.queue_block(t0, NodeId(0), NodeId(2), BlockId(1), 4_000_000);
    let witness = net.current_rate(NodeId(0), NodeId(2)).unwrap();

    // Cross traffic eats most of the narrow core: flow 0→1 must be
    // re-priced, and *only* it — the shared uplink is far from full (both
    // fresh flows at their ceilings use a fraction of 10 Mbps), so the
    // component stops there instead of crossing to flow 0→2.
    let updates = net.set_cross_traffic(t0, (NodeId(0), NodeId(1)), 50_000.0);
    assert_eq!(
        updates.len(),
        1,
        "only the squeezed flow is re-priced: {updates:?}"
    );
    let _ = sched_at(&net, &updates, NodeId(0), NodeId(1));
    assert!(
        net.current_rate(NodeId(0), NodeId(1)).unwrap() < 40_000.0,
        "the squeezed flow dropped to the residual core capacity"
    );
    assert_eq!(
        net.current_rate(NodeId(0), NodeId(2)).unwrap().to_bits(),
        witness.to_bits(),
        "the flow behind the quiet uplink keeps its exact rate"
    );

    // The incremental state still matches a from-scratch solve
    // (reprice_all seeds every flow-bearing link, so nothing is boundary).
    assert!(
        net.reprice_all(t0).is_empty(),
        "the frontier must not leave a stale allocation behind"
    );
}

#[test]
fn closing_a_connection_cancels_and_restores_shares() {
    let mut net = Network::new(constrained_access(3));
    let t0 = SimTime::ZERO;
    net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), 1_000_000);
    net.queue_block(t0, NodeId(0), NodeId(2), BlockId(1), 1_000_000);
    let shared = net.current_rate(NodeId(0), NodeId(1)).unwrap();
    let later = SimTime::from_secs_f64(1.0);
    let closed = net.flow_id(NodeId(0), NodeId(2)).unwrap();
    let rs = net.close_connection(later, NodeId(0), NodeId(2));
    assert!(
        rs.contains(&ConnUpdate::Cancel { fid: closed }),
        "closing an active connection cancels its completion event: {rs:?}"
    );
    // ... and re-prices the survivor.
    let _ = sched_at(&net, &rs, NodeId(0), NodeId(1));
    let alone = net.current_rate(NodeId(0), NodeId(1)).unwrap();
    assert!(alone > shared);
    assert_eq!(net.pending_blocks(NodeId(0), NodeId(2)), 0);
    // Closing an idle connection produces nothing.
    assert!(net.close_connection(later, NodeId(0), NodeId(2)).is_empty());
}

/// An idle connection holds no queue buffer: not once its last block has
/// completed with nothing queued, and not once it is closed with blocks
/// queued. Either way the next `queue_block` starts its block at once and
/// schedules the completion.
#[test]
fn idle_connections_hold_no_queue_buffer() {
    let mut net = Network::new(constrained_access(3));
    let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
    let buffer = |net: &Network, to| {
        net.connection(a, to)
            .expect("a connection")
            .queue
            .capacity()
    };
    let mut now = SimTime::ZERO;
    let mut updates = net.queue_block(now, a, b, BlockId(0), 16_384);
    net.queue_block(now, a, b, BlockId(1), 16_384);
    net.queue_block(now, a, b, BlockId(2), 16_384);
    assert!(buffer(&net, b) > 0, "premise: blocks queued");
    for _ in 0..3 {
        now = sched_at(&net, &updates, a, b);
        updates = net.on_block_done(now, a, b).expect("a block in flight").1;
    }
    assert_eq!(net.pending_blocks(a, b), 0);
    assert_eq!(buffer(&net, b), 0, "drained");

    net.queue_block(now, a, c, BlockId(3), 16_384);
    net.queue_block(now, a, c, BlockId(4), 16_384);
    assert!(buffer(&net, c) > 0, "premise: a block queued");
    net.close_connection(now, a, c);
    assert_eq!(buffer(&net, c), 0, "closed");

    for to in [b, c] {
        let updates = net.queue_block(now, a, to, BlockId(5), 16_384);
        assert!(sched_at(&net, &updates, a, to) > now, "{to:?}");
        assert_eq!(net.pending_blocks(a, to), 1, "{to:?}");
    }
}

#[test]
fn release_flows_for_tears_down_both_directions() {
    let mut net = Network::new(constrained_access(4));
    let t0 = SimTime::ZERO;
    net.queue_block(t0, NodeId(1), NodeId(0), BlockId(0), 500_000);
    net.queue_block(t0, NodeId(1), NodeId(2), BlockId(1), 500_000);
    net.queue_block(t0, NodeId(3), NodeId(1), BlockId(2), 500_000);
    net.queue_block(t0, NodeId(0), NodeId(2), BlockId(3), 500_000);
    let updates = net.release_flows_for(SimTime::from_secs_f64(0.5), NodeId(1));
    let cancels: Vec<_> = updates
        .iter()
        .filter(|u| matches!(u, ConnUpdate::Cancel { .. }))
        .collect();
    assert_eq!(
        cancels.len(),
        3,
        "all three connections touching node 1: {updates:?}"
    );
    assert_eq!(net.pending_blocks(NodeId(1), NodeId(0)), 0);
    assert_eq!(net.pending_blocks(NodeId(1), NodeId(2)), 0);
    assert_eq!(net.pending_blocks(NodeId(3), NodeId(1)), 0);
    // Their rows are released; unrelated connections keep flowing.
    assert!(net.connection(NodeId(1), NodeId(0)).is_none());
    assert!(net.connection(NodeId(3), NodeId(1)).is_none());
    assert_eq!(net.live_flows(), 1);
    assert_eq!(net.pending_blocks(NodeId(0), NodeId(2)), 1);
}

/// The flow table hashes an ordered pair as one packed key: `a → b` and
/// `b → a` stay distinct rows, and a release hands back exactly the rows that
/// touch the node, in ascending `(from, to)` order whatever the map's layout.
#[test]
fn each_direction_of_a_pair_is_its_own_flow_row() {
    let mut net = Network::new(constrained_access(5));
    let t0 = SimTime::ZERO;
    let (a, b) = (NodeId(1), NodeId(3));
    net.queue_block(t0, a, b, BlockId(0), 100_000);
    net.queue_block(t0, a, b, BlockId(1), 100_000);
    assert_eq!((net.pending_blocks(a, b), net.pending_blocks(b, a)), (2, 0));
    assert!(net.connection(b, a).is_none());
    net.queue_block(t0, b, a, BlockId(2), 100_000);
    assert_eq!((net.pending_blocks(a, b), net.pending_blocks(b, a)), (2, 1));
    assert_eq!(net.live_flows(), 2);

    for (i, (from, to)) in [(4, 1), (1, 0), (0, 3), (2, 4), (1, 4)]
        .into_iter()
        .enumerate()
    {
        net.queue_block(t0, NodeId(from), NodeId(to), BlockId(3 + i as u32), 100_000);
    }
    assert_eq!(net.live_flows(), 7);
    let touching: Vec<u32> = [(1, 0), (1, 3), (1, 4), (3, 1), (4, 1)]
        .into_iter()
        .map(|(from, to)| net.flow_id(NodeId(from), NodeId(to)).unwrap())
        .collect();
    let updates = net.release_flows_for(SimTime::from_secs_f64(0.1), a);
    let cancelled: Vec<u32> = updates
        .iter()
        .filter_map(|u| match *u {
            ConnUpdate::Cancel { fid } => Some(fid),
            ConnUpdate::Schedule { .. } => None,
        })
        .collect();
    assert_eq!(cancelled, touching);
    assert_eq!(net.live_flows(), 2);
    assert_eq!(net.pending_blocks(NodeId(0), NodeId(3)), 1);
    assert_eq!(net.pending_blocks(NodeId(2), NodeId(4)), 1);
}

#[test]
fn reprice_paths_after_bandwidth_change() {
    let mut net = Network::new(two_node_topo(2.0, 6.0));
    let t0 = SimTime::ZERO;
    let r = net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), 2_000_000);
    let original_finish = sched_at(&net, &r, NodeId(0), NodeId(1));
    // Halve the core bandwidth at t = 1s.
    let t1 = SimTime::from_secs_f64(1.0);
    net.topology_mut()
        .set_core_bw(NodeId(0), NodeId(1), mbps(1.0));
    let rs = net.reprice_paths(t1, &[(NodeId(0), NodeId(1))]);
    assert_eq!(rs.len(), 1);
    assert!(
        sched_at(&net, &rs, NodeId(0), NodeId(1)) > original_finish,
        "less bandwidth must push completion later"
    );
}

#[test]
fn traffic_counters_accumulate() {
    let mut net = Network::new(two_node_topo(2.0, 6.0));
    let mut rng = RngFactory::new(1).stream("ctl");
    let d = net.control_delay(&mut rng, NodeId(0), NodeId(1), 100);
    assert!(d > SimDuration::ZERO);
    assert_eq!(net.traffic(NodeId(0)).control_bytes_out, 100);
    assert_eq!(net.traffic(NodeId(1)).control_bytes_in, 100);
}

#[test]
#[should_panic(expected = "cannot stream blocks to itself")]
fn self_connection_rejected() {
    let mut net = Network::new(two_node_topo(2.0, 6.0));
    net.queue_block(SimTime::ZERO, NodeId(0), NodeId(0), BlockId(0), 10);
}

/// Builds the per-link member lists for a direct solver call.
fn members_of(flow_links: &[[u32; 3]], num_links: usize) -> Vec<Vec<u32>> {
    (0..num_links)
        .map(|li| {
            (0..flow_links.len())
                .filter(|&i| flow_links[i].contains(&(li as u32)))
                .map(|i| i as u32)
                .collect()
        })
        .collect()
}

#[test]
fn level_orders_exactly_as_total_cmp() {
    let grid = [
        -f64::NAN,
        f64::NEG_INFINITY,
        -1.5,
        -5e-324,
        -0.0,
        0.0,
        5e-324,
        0.25,
        f64::INFINITY,
        f64::NAN,
    ];
    for a in grid {
        assert_eq!(Level::new(a).get().to_bits(), a.to_bits(), "{a} round trip");
        for b in grid {
            assert_eq!(
                Level::new(a).cmp(&Level::new(b)),
                a.total_cmp(&b),
                "{a} vs {b}"
            );
            assert_eq!(Level::new(a) == Level::new(b), a.to_bits() == b.to_bits());
        }
    }
    assert!(Level::new(-0.0) < Level::new(0.0), "-0.0 sorts below +0.0");

    // Equal levels tie on the link, whichever was entered first.
    let mut sat = IndexedHeap::default();
    sat.rebuild([
        (3, Level::new(0.5)),
        (1, Level::new(0.5)),
        (2, Level::new(f64::INFINITY)),
    ]);
    sat.push(0, Level::new(0.0));
    let order: Vec<u32> = std::iter::from_fn(|| sat.pop().map(|(_, link)| link)).collect();
    assert_eq!(order, [0, 1, 3, 2]);
}

#[test]
fn progressive_filling_matches_hand_solved_example() {
    // The worked 3-flow example of docs/NETWORK_MODEL.md: links L1 (cap
    // 10, flows A+B), L2 (cap 6, flows B+C); C capped at 2.
    // Level 2: C freezes at its cap. Level 4: L2 saturates (2 + 4 = 6),
    // B freezes at 4. Level 6: L1 saturates (4 + 6 = 10), A freezes at 6.
    let caps = [f64::INFINITY, f64::INFINITY, 2.0];
    // Give every flow three link slots (the solver's path shape) by
    // padding with per-flow private links of ample capacity.
    let flow_links = [[0u32, 2, 3], [0, 1, 4], [1, 2, 5]];
    let mut links = vec![
        LinkState {
            capacity: 10.0,
            unfrozen: 2,
            frozen_usage: 0.0,
        },
        LinkState {
            capacity: 6.0,
            unfrozen: 2,
            frozen_usage: 0.0,
        },
        LinkState {
            capacity: 100.0,
            unfrozen: 2,
            frozen_usage: 0.0,
        },
        LinkState {
            capacity: 100.0,
            unfrozen: 1,
            frozen_usage: 0.0,
        },
        LinkState {
            capacity: 100.0,
            unfrozen: 1,
            frozen_usage: 0.0,
        },
        LinkState {
            capacity: 100.0,
            unfrozen: 1,
            frozen_usage: 0.0,
        },
    ];
    let link_members = members_of(&flow_links, links.len());
    let mut fill = FillOrder::default();
    let mut rates = Vec::new();
    let mut frozen = Vec::new();
    max_min_rates(
        &caps,
        &flow_links,
        &mut links,
        &link_members,
        &mut fill,
        &mut rates,
        &mut frozen,
    );
    assert!((rates[0] - 6.0).abs() < 1e-9, "A: {rates:?}");
    assert!((rates[1] - 4.0).abs() < 1e-9, "B: {rates:?}");
    assert!((rates[2] - 2.0).abs() < 1e-9, "C: {rates:?}");
}

#[test]
fn fully_occupied_link_freezes_its_flows_at_level_zero() {
    // Regression for the saturation tolerance: a link whose usable
    // capacity is a hair above zero (cross traffic ate everything) has a
    // saturation level of ~5e-16 — *above* zero. A purely relative
    // tolerance (`level * (1 + 1e-12)`) degenerates to exact equality at
    // level 0 and misses it, burning an extra round to hand out
    // denormal-sized rates; the combined absolute+relative tolerance
    // freezes everything at exactly 0.0 in the first round.
    let caps = [0.0, 5.0, 5.0];
    let flow_links = [
        [0u32, NO_LINK, NO_LINK],
        [1, NO_LINK, NO_LINK],
        [1, NO_LINK, NO_LINK],
    ];
    let mut links = vec![
        LinkState {
            capacity: 100.0,
            unfrozen: 1,
            frozen_usage: 0.0,
        },
        LinkState {
            capacity: 1e-15,
            unfrozen: 2,
            frozen_usage: 0.0,
        },
    ];
    let link_members = vec![vec![0u32], vec![1, 2]];
    let mut fill = FillOrder::default();
    let mut rates = Vec::new();
    let mut frozen = Vec::new();
    max_min_rates(
        &caps,
        &flow_links,
        &mut links,
        &link_members,
        &mut fill,
        &mut rates,
        &mut frozen,
    );
    assert_eq!(rates[0], 0.0, "cap-frozen at its zero ceiling: {rates:?}");
    assert_eq!(rates[1], 0.0, "fully occupied link: {rates:?}");
    assert_eq!(rates[2], 0.0, "fully occupied link: {rates:?}");
}

/// The chain of the frontier tests: A = 0 has a 10 KB/s uplink carrying
/// A→C and A→D; B = 1 has a 6.5 KB/s uplink carrying B→C; C = 2's downlink
/// takes `c_down`. Everything else is wide, and the fresh-connection
/// slow-start ceiling (~180 KB/s at this RTT) binds nobody. Returns the
/// network with all three flows running: A→C 5000, A→D 5000, B→C 6500.
fn chain_behind_a_quiet_downlink(c_down: f64) -> Network {
    let mk = |up: f64, down: f64| NodeSpec {
        up,
        down,
        access_delay: SimDuration::from_millis(1),
    };
    let nodes = vec![
        mk(10_000.0, 1e9),
        mk(6_500.0, 1e9),
        mk(1e9, c_down),
        mk(1e9, 1e9),
    ];
    let wide = PathSpec {
        bw: 1e9,
        delay: SimDuration::from_millis(10),
        loss: 0.0,
    };
    let mut net = Network::new(Topology::new(nodes, vec![vec![wide; 4]; 4]));
    let t0 = SimTime::ZERO;
    net.queue_block(t0, NodeId(0), NodeId(2), BlockId(0), 1_000_000);
    net.queue_block(t0, NodeId(0), NodeId(3), BlockId(1), 1_000_000);
    net.queue_block(t0, NodeId(1), NodeId(2), BlockId(2), 1_000_000);
    let rate = |f: u32, t: u32| net.current_rate(NodeId(f), NodeId(t)).unwrap();
    assert_eq!(
        (rate(0, 2), rate(0, 3), rate(1, 2)),
        (5_000.0, 5_000.0, 6_500.0)
    );
    net
}

#[test]
fn a_departure_that_fills_a_quiet_downlink_reprices_the_flows_behind_it() {
    // C's 12 KB/s downlink carries 11.5: not full, so when A→D goes idle the
    // solve seeded at A's uplink stops there and prices A→C at the whole
    // uplink — which overfills the downlink. Verification must pull it in,
    // find B→C behind it and settle both at the downlink's fair share.
    let mut net = chain_behind_a_quiet_downlink(12_000.0);
    let before = net.solver_stats();
    let (_, updates) = net
        .on_block_done(SimTime::from_secs_f64(1.0), NodeId(0), NodeId(3))
        .unwrap();
    let _ = sched_at(&net, &updates, NodeId(0), NodeId(2));
    let _ = sched_at(&net, &updates, NodeId(1), NodeId(2));
    assert_eq!(net.current_rate(NodeId(0), NodeId(2)), Some(6_000.0));
    assert_eq!(net.current_rate(NodeId(1), NodeId(2)), Some(6_000.0));
    let after = net.solver_stats();
    assert_eq!(after.full_solves, before.full_solves + 1, "one solve");
    assert!(after.frontier_grows > before.frontier_grows);
    assert_eq!(after.solved_flows, before.solved_flows + 2, "final size");
    assert_eq!(net.check_solve_against_unpruned(), 0);
    assert!(
        net.reprice_all(SimTime::from_secs_f64(1.0)).is_empty(),
        "the grown solve is the from-scratch allocation"
    );
}

#[test]
fn a_boundary_link_that_stays_quiet_keeps_the_flows_behind_it_out() {
    // The mirror: a 20 KB/s downlink holds A→C at the full uplink plus B→C
    // with room to spare, so B→C is neither solved nor re-priced.
    let mut net = chain_behind_a_quiet_downlink(20_000.0);
    let before = net.solver_stats();
    let witness = net.current_rate(NodeId(1), NodeId(2)).unwrap();
    let (_, updates) = net
        .on_block_done(SimTime::from_secs_f64(1.0), NodeId(0), NodeId(3))
        .unwrap();
    assert_eq!(updates.len(), 1, "only A→C is re-priced: {updates:?}");
    let _ = sched_at(&net, &updates, NodeId(0), NodeId(2));
    assert_eq!(net.current_rate(NodeId(0), NodeId(2)), Some(10_000.0));
    assert_eq!(
        net.current_rate(NodeId(1), NodeId(2)).map(f64::to_bits),
        Some(witness.to_bits())
    );
    let after = net.solver_stats();
    assert_eq!(after.frontier_grows, before.frontier_grows);
    assert_eq!(after.solved_flows, before.solved_flows + 1, "A→C alone");
    assert_eq!(net.check_solve_against_unpruned(), 0);
    assert!(net.reprice_all(SimTime::from_secs_f64(1.0)).is_empty());
}

/// How many `Schedule`s each flow got in `updates`, by flow id.
fn schedules_per_flow(updates: &[ConnUpdate]) -> std::collections::BTreeMap<u32, usize> {
    let mut per_flow = std::collections::BTreeMap::new();
    for u in updates {
        if let ConnUpdate::Schedule { fid, .. } = *u {
            *per_flow.entry(fid).or_insert(0) += 1;
        }
    }
    per_flow
}

/// Node 0's 10 KB/s uplink carrying one flow, 0 → 1, at the whole uplink
/// (the fresh-connection ceiling, ~180 KB/s at this RTT, binds nobody).
fn saturated_uplink() -> Network {
    let node = |up: f64| NodeSpec {
        up,
        down: 1e9,
        access_delay: SimDuration::from_millis(1),
    };
    let mut nodes = vec![node(1e9); 6];
    nodes[0] = node(10_000.0);
    let wide = PathSpec {
        bw: 1e9,
        delay: SimDuration::from_millis(10),
        loss: 0.0,
    };
    let mut net = Network::new(Topology::new(nodes, vec![vec![wide; 6]; 6]));
    net.queue_block(SimTime::ZERO, NodeId(0), NodeId(1), BlockId(0), 1_000_000);
    assert_eq!(net.current_rate(NodeId(0), NodeId(1)), Some(10_000.0));
    net
}

#[test]
fn flows_opened_on_a_saturated_uplink_in_one_instant_share_one_solve() {
    let mut net = saturated_uplink();
    let mut twin = net.clone();
    let before = net.solver_stats();
    let t1 = SimTime::from_secs_f64(1.0);
    assert!(net.open_instant(t1));
    assert!(!net.open_instant(t1), "an open instant stays open");
    let mut updates = Vec::new();
    for to in 2..6 {
        updates.extend(net.queue_block(t1, NodeId(0), NodeId(to), BlockId(to), 100_000));
        twin.queue_block(t1, NodeId(0), NodeId(to), BlockId(to), 100_000);
    }
    assert!(updates.is_empty(), "nothing is solved before the settle");
    updates.extend(net.settle(t1));
    assert!(!net.instant_open());

    let after = net.solver_stats();
    assert_eq!(after.full_solves, before.full_solves + 1, "one solve");
    assert_eq!(after.fast_admit, before.fast_admit, "no admission skips it");
    let per_flow = schedules_per_flow(&updates);
    assert_eq!(
        per_flow.len(),
        5,
        "the four new flows and 0 → 1: {updates:?}"
    );
    assert!(
        per_flow.values().all(|&n| n == 1),
        "one Schedule each: {updates:?}"
    );
    for to in 1..6 {
        let rate = net.current_rate(NodeId(0), NodeId(to)).unwrap();
        assert_eq!(rate, 2_000.0, "an equal fifth of the uplink");
        let one_by_one = twin.current_rate(NodeId(0), NodeId(to)).unwrap();
        assert_eq!(rate.to_bits(), one_by_one.to_bits());
    }
    assert!(twin.solver_stats().full_solves > after.full_solves);
}

#[test]
fn a_flow_opened_and_closed_in_one_instant_is_never_scheduled() {
    let mut net = saturated_uplink();
    let t1 = SimTime::from_secs_f64(1.0);
    net.open_instant(t1);
    // The uplink is full, so the new flow waits for the settle's solve...
    assert!(net
        .queue_block(t1, NodeId(0), NodeId(2), BlockId(1), 100_000)
        .is_empty());
    let fid = net.flow_id(NodeId(0), NodeId(2)).unwrap();
    // ... and is closed before it: it had no event, so the cancel finds none.
    let closed = net.close_connection(t1, NodeId(0), NodeId(2));
    assert_eq!(closed, vec![ConnUpdate::Cancel { fid }]);
    let settled = net.settle(t1);
    assert!(
        !settled
            .iter()
            .any(|u| matches!(u, ConnUpdate::Schedule { fid: f, .. } if *f == fid)),
        "a closed flow gets no Schedule: {settled:?}"
    );
    assert_eq!(net.pending_blocks(NodeId(0), NodeId(2)), 0);
    assert_eq!(net.current_rate(NodeId(0), NodeId(1)), Some(10_000.0));
}

#[test]
fn settle_with_nothing_pending_is_a_no_op() {
    let mut net = saturated_uplink();
    let before = net.solver_stats();
    let t1 = SimTime::from_secs_f64(1.0);
    assert!(net.settle(t1).is_empty(), "no instant open");
    net.open_instant(t1);
    assert!(
        net.settle(t1).is_empty(),
        "an instant that recorded nothing"
    );
    assert_eq!(net.solver_stats(), before);
    assert_eq!(net.current_rate(NodeId(0), NodeId(1)), Some(10_000.0));
}

#[test]
fn a_flow_that_would_fit_waits_for_the_solve_already_owed() {
    // Receiver 3's 300 KB/s downlink carries 1 → 3 at its 100 KB/s core.
    // Within one instant that core widens to 250 KB/s (a solve is owed) and
    // 0 → 3 opens with a ceiling (~180 KB/s) that fits the downlink's stale
    // slack. Admitting it there would schedule it at its ceiling, and the
    // settle would move it again: 1 → 3 grows into the downlink, which
    // then splits 150 / 150.
    let node = |down: f64| NodeSpec {
        up: 1e9,
        down,
        access_delay: SimDuration::from_millis(1),
    };
    let mut nodes = vec![node(1e9); 4];
    nodes[3] = node(300_000.0);
    let wide = PathSpec {
        bw: 1e9,
        delay: SimDuration::from_millis(10),
        loss: 0.0,
    };
    let mut paths = vec![vec![wide; 4]; 4];
    paths[1][3].bw = 100_000.0;
    let mut net = Network::new(Topology::new(nodes, paths));
    net.queue_block(SimTime::ZERO, NodeId(1), NodeId(3), BlockId(0), 10_000_000);
    assert_eq!(net.current_rate(NodeId(1), NodeId(3)), Some(100_000.0));

    let before = net.solver_stats();
    let t1 = SimTime::from_secs_f64(1.0);
    net.open_instant(t1);
    net.topology_mut()
        .set_core_bw(NodeId(1), NodeId(3), 250_000.0);
    let mut updates = net.reprice_paths(t1, &[(NodeId(1), NodeId(3))]);
    updates.extend(net.queue_block(t1, NodeId(0), NodeId(3), BlockId(1), 1_000_000));
    updates.extend(net.settle(t1));

    assert_eq!(net.solver_stats().fast_admit, before.fast_admit);
    let per_flow = schedules_per_flow(&updates);
    assert_eq!(per_flow.len(), 2, "{updates:?}");
    assert!(
        per_flow.values().all(|&n| n == 1),
        "one Schedule each: {updates:?}"
    );
    assert_eq!(net.current_rate(NodeId(0), NodeId(3)), Some(150_000.0));
    assert_eq!(net.current_rate(NodeId(1), NodeId(3)), Some(150_000.0));
}

/// `fairness_oracle`'s topology: heterogeneous access links, one core
/// capacity, loss on a third of the pairs, and with `shared` one bottleneck
/// link under every "even" ordered pair.
fn oracle_topology(n: usize, access_step: u64, core_kb: u64, loss: f64, shared: bool) -> Topology {
    use crate::units::kbps;
    let nodes: Vec<NodeSpec> = (0..n as u64)
        .map(|i| NodeSpec {
            up: kbps(400.0 + (i * access_step % 1600) as f64),
            down: kbps(600.0 + ((i + 1) * access_step % 1600) as f64),
            access_delay: SimDuration::from_millis(1),
        })
        .collect();
    let core = (0..n)
        .map(|a| {
            (0..n)
                .map(|b| PathSpec {
                    bw: kbps(core_kb as f64),
                    delay: SimDuration::from_millis(5 + ((a * 7 + b * 3) % 40) as u64),
                    loss: if (a + b) % 3 == 0 { loss } else { 0.0 },
                })
                .collect()
        })
        .collect();
    let mut topo = Topology::new(nodes, core);
    if shared {
        let pairs: Vec<(NodeId, NodeId)> = (0..n as u32)
            .flat_map(|a| (0..n as u32).map(move |b| (NodeId(a), NodeId(b))))
            .filter(|(a, b)| a != b && (a.0 + b.0) % 2 == 0)
            .collect();
        topo.share_core(&pairs, kbps(core_kb as f64), loss);
    }
    topo
}

proptest::proptest! {
    /// Every solve of a random history hands its flows the bits the unpruned
    /// solve hands them and leaves every flow outside the frontier where the
    /// unpruned solve would: `fairness_oracle`'s networks and operations,
    /// plus a link whose cross traffic takes all of it (capacity zero).
    /// Release builds run the check here; debug builds run it inside every
    /// `resolve` as well.
    #[test]
    fn frontier_solve_equals_the_unpruned_solve_bit_for_bit(
        n in 3usize..7,
        access_step in 1u64..997,
        core_kb in 200u64..3_000,
        shared in proptest::prelude::any::<bool>(),
        ops in proptest::collection::vec(
            (
                0u8..6,
                proptest::prelude::any::<u8>(),
                proptest::prelude::any::<u8>(),
                proptest::prelude::any::<u16>(),
            ),
            1..80,
        ),
    ) {
        let loss = if shared { 0.02 } else { 0.0 };
        let mut net = Network::new(oracle_topology(n, access_step, core_kb, loss, shared));
        let mut now = SimTime::ZERO;
        for (i, &(kind, x, y, mag)) in ops.iter().enumerate() {
            now += SimDuration::from_millis(100);
            let a = NodeId(u32::from(x) % n as u32);
            let b = NodeId(u32::from(y) % n as u32);
            if a == b {
                continue;
            }
            let solves = net.solver_stats().full_solves;
            match kind {
                // Start (or extend) a flow — twice as likely as the rest.
                0 | 1 => {
                    net.queue_block(now, a, b, BlockId(i as u32), 20_000 + u64::from(mag) * 400);
                }
                // Complete the in-flight block of a → b, if it has one.
                2 => {
                    net.on_block_done(now, a, b);
                }
                3 => {
                    net.close_connection(now, a, b);
                }
                // Re-size (often: cut) the core link carrying a → b.
                4 => {
                    let bw = crate::units::kbps(100.0 + f64::from(mag % 2000));
                    net.topology_mut().set_core_bw(a, b, bw);
                    net.reprice_paths(now, &[(a, b)]);
                }
                // Cross traffic on the core link: up to all of its capacity.
                5 => {
                    let link = net.topology().core_link(a, b);
                    let cap = net.topology().link_capacity(link);
                    net.set_cross_traffic(now, (a, b), cap * f64::from(mag % 5) / 4.0);
                }
                _ => unreachable!("kind is generated in 0..6"),
            }
            if net.solver_stats().full_solves > solves {
                assert_eq!(net.check_solve_against_unpruned(), 0, "op {i}: {:?}", ops[i]);
            }
        }
    }
}

/// Solver inputs shaped like the components `resolve` builds from the
/// `fairness_oracle` topologies: `n` hosts with heterogeneous access links,
/// a core link per ordered pair or one shared core for the "even" pairs, and
/// each flow crossing uplink, core, downlink. `flows` are `(from, to, ceiling
/// pick, pruned-slot mask)`; ceilings come from a coarse grid so ties are the
/// rule, and `dead_link` gets capacity zero (cross traffic ate it all).
fn random_component(
    n: usize,
    access_step: u64,
    core_kb: u64,
    shared: bool,
    dead_link: usize,
    flows: &[(u8, u8, u8, u8)],
) -> (Vec<f64>, Vec<[u32; 3]>, Vec<LinkState>) {
    let shared_core = 2 * n + n * n;
    let num_links = shared_core + 1;
    let mut capacity = vec![0.0f64; num_links];
    for i in 0..n {
        capacity[i] = crate::units::kbps(400.0 + (i as u64 * access_step % 1600) as f64);
        capacity[n + i] = crate::units::kbps(600.0 + ((i as u64 + 1) * access_step % 1600) as f64);
    }
    for c in &mut capacity[2 * n..] {
        *c = crate::units::kbps(core_kb as f64);
    }
    capacity[dead_link % num_links] = 0.0;

    let mut caps = Vec::new();
    let mut flow_links = Vec::new();
    for &(a, b, pick, prune) in flows {
        let (a, b) = (usize::from(a) % n, usize::from(b) % n);
        if a == b {
            continue;
        }
        let core = if shared && (a + b) % 2 == 0 {
            shared_core
        } else {
            2 * n + a * n + b
        };
        let mut path = [a as u32, core as u32, (n + b) as u32];
        let cap = match pick % 8 {
            0 => 0.0,
            1 => f64::INFINITY,
            p => 15_000.0 * f64::from(p),
        };
        if cap.is_finite() {
            for (slot, l) in path.iter_mut().enumerate() {
                if prune & (1 << slot) != 0 {
                    *l = NO_LINK;
                }
            }
        }
        caps.push(cap);
        flow_links.push(path);
    }
    let links = capacity
        .iter()
        .enumerate()
        .map(|(li, &capacity)| LinkState {
            capacity,
            unfrozen: flow_links
                .iter()
                .filter(|p| p.contains(&(li as u32)))
                .count() as u32,
            frozen_usage: 0.0,
        })
        .collect();
    (caps, flow_links, links)
}

proptest::proptest! {
    /// The cursor + indexed-heap solver hands out bit-identical rates to the
    /// parent's lazy-heap solver, and leaves the links in the same state.
    #[test]
    fn solver_matches_the_lazy_heap_reference_bit_for_bit(
        n in 3usize..8,
        access_step in 1u64..997,
        core_kb in 100u64..3_000,
        shared in proptest::prelude::any::<bool>(),
        dead_link in 0usize..200,
        flows in proptest::collection::vec(
            (
                proptest::prelude::any::<u8>(),
                proptest::prelude::any::<u8>(),
                proptest::prelude::any::<u8>(),
                0u8..8,
            ),
            1..80,
        ),
    ) {
        let (caps, flow_links, links) =
            random_component(n, access_step, core_kb, shared, dead_link, &flows);
        let link_members = members_of(&flow_links, links.len());

        let mut want_links = links.clone();
        let (mut want, mut frozen) = (Vec::new(), Vec::new());
        lazy_heap_reference::max_min_rates(
            &caps,
            &flow_links,
            &mut want_links,
            &link_members,
            &mut lazy_heap_reference::SolverHeaps::default(),
            &mut want,
            &mut frozen,
        );

        let mut got_links = links;
        let mut got = Vec::new();
        max_min_rates(
            &caps,
            &flow_links,
            &mut got_links,
            &link_members,
            &mut FillOrder::default(),
            &mut got,
            &mut frozen,
        );

        let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "rates differ: {got:?} vs {want:?}");
        for (g, w) in got_links.iter().zip(&want_links) {
            assert_eq!(g.unfrozen, w.unfrozen);
            assert_eq!(g.frozen_usage.to_bits(), w.frozen_usage.to_bits());
        }
    }
}

/// The parent commit's solver, verbatim: the same progressive filling driven
/// by two lazily-invalidated `BinaryHeap`s (stale saturation entries skipped
/// by per-link versions). Kept as the reference the cursor + indexed-heap
/// solver must reproduce bit for bit.
mod lazy_heap_reference {
    use super::super::{LinkState, NO_LINK, SAT_EPS_ABS, SAT_EPS_REL};
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;

    /// Total-order wrapper so `f64` keys can live in a [`BinaryHeap`].
    #[derive(Debug, Clone, Copy)]
    struct OrdF64(f64);

    impl PartialEq for OrdF64 {
        fn eq(&self, other: &Self) -> bool {
            self.0.total_cmp(&other.0) == Ordering::Equal
        }
    }
    impl Eq for OrdF64 {}
    impl PartialOrd for OrdF64 {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for OrdF64 {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    /// Min-heap entry: a flow's own ceiling. Entries for already-frozen flows are
    /// skipped lazily at pop time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct CapEntry {
        cap: OrdF64,
        flow: u32,
    }

    /// Min-heap entry: a link's saturation level at push time. Every state change
    /// of a link bumps its version, so stale entries are skipped lazily.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct SatEntry {
        sat: OrdF64,
        link: u32,
        version: u32,
    }

    /// The ordered-filling working set, reused across solves.
    #[derive(Debug, Clone, Default)]
    pub(super) struct SolverHeaps {
        cap_heap: BinaryHeap<Reverse<CapEntry>>,
        sat_heap: BinaryHeap<Reverse<SatEntry>>,
        /// Per-link entry version; a heap entry is live iff its version matches.
        link_version: Vec<u32>,
        /// Ceiling freezes of the current round, sorted ascending by flow index
        /// before freezing so the per-link `frozen_usage` sums accumulate in the
        /// same order as the historical full-rescan solver (bit-identical rates).
        cand: Vec<u32>,
    }

    /// Progressive filling: raises one common water level over all flows; a flow
    /// freezes at its own ceiling (`caps`) or at the level where a link on its
    /// path saturates. Writes the max-min fair rate of each flow into `rates`
    /// (reused caller buffers; `link_members` lists each link's flows, and a
    /// [`NO_LINK`] slot in `flow_links` is ignored — it names a pruned link that
    /// can never saturate).
    ///
    /// Instead of rescanning every flow and link per round, two min-heaps track
    /// the next stopping point: one over unfrozen flow ceilings, one over link
    /// saturation levels (lazily invalidated via per-link versions — each freeze
    /// pushes a fresh entry and bumps the version, so stale entries are skipped
    /// at pop time). Within a round, ceiling freezes happen in ascending flow
    /// order and saturation freezes all hand out the identical `level`, so the
    /// floating-point accumulation into `frozen_usage` replays the historical
    /// full-rescan order exactly: rates are bit-identical, in
    /// O((flows + links) log(flows + links)) per solve.
    ///
    /// A link counts as saturated when its level is within a combined
    /// absolute+relative tolerance of the water level
    /// (`level * (1 + SAT_EPS_REL) + SAT_EPS_ABS`): the absolute term keeps the
    /// test meaningful at `level == 0`, where a purely relative tolerance
    /// degenerates to exact equality (see [`SAT_EPS_ABS`]).
    pub(super) fn max_min_rates(
        caps: &[f64],
        flow_links: &[[u32; 3]],
        links: &mut [LinkState],
        link_members: &[Vec<u32>],
        heaps: &mut SolverHeaps,
        rates: &mut Vec<f64>,
        frozen: &mut Vec<bool>,
    ) {
        let n = caps.len();
        rates.clear();
        rates.resize(n, 0.0);
        frozen.clear();
        frozen.resize(n, false);
        let SolverHeaps {
            cap_heap,
            sat_heap,
            link_version,
            cand,
        } = heaps;
        cap_heap.clear();
        sat_heap.clear();
        link_version.clear();
        link_version.resize(links.len(), 0);
        for (i, &c) in caps.iter().enumerate() {
            cap_heap.push(Reverse(CapEntry {
                cap: OrdF64(c),
                flow: i as u32,
            }));
        }
        for (li, l) in links.iter().enumerate() {
            if l.unfrozen > 0 {
                sat_heap.push(Reverse(SatEntry {
                    sat: OrdF64(l.saturation_level()),
                    link: li as u32,
                    version: 0,
                }));
            }
        }
        let mut remaining = n;
        let mut level = 0.0f64;

        // Freezing helper as a closure is blocked by borrow rules; a macro keeps
        // the link bookkeeping (including heap maintenance) in one place.
        macro_rules! freeze {
            ($i:expr, $rate:expr) => {{
                let i: usize = $i;
                let r: f64 = $rate;
                rates[i] = r;
                frozen[i] = true;
                remaining -= 1;
                for &li in &flow_links[i] {
                    if li == NO_LINK {
                        continue;
                    }
                    let li = li as usize;
                    links[li].unfrozen -= 1;
                    links[li].frozen_usage += r;
                    link_version[li] = link_version[li].wrapping_add(1);
                    if links[li].unfrozen > 0 {
                        sat_heap.push(Reverse(SatEntry {
                            sat: OrdF64(links[li].saturation_level()),
                            link: li as u32,
                            version: link_version[li],
                        }));
                    }
                }
            }};
        }

        while remaining > 0 {
            // The next stopping point: the lowest unfrozen flow ceiling or live
            // link saturation level at or above the current water level.
            let cap_top = loop {
                match cap_heap.peek() {
                    Some(&Reverse(e)) if frozen[e.flow as usize] => {
                        cap_heap.pop();
                    }
                    Some(&Reverse(e)) => break Some(e.cap.0),
                    None => break None,
                }
            };
            let sat_top = loop {
                match sat_heap.peek() {
                    Some(&Reverse(e)) => {
                        let li = e.link as usize;
                        if e.version != link_version[li] || links[li].unfrozen == 0 {
                            sat_heap.pop();
                        } else {
                            break Some(e.sat.0);
                        }
                    }
                    None => break None,
                }
            };
            let mut next = f64::INFINITY;
            if let Some(c) = cap_top {
                next = next.min(c);
            }
            if let Some(sl) = sat_top {
                next = next.min(sl);
            }
            level = next.max(level);
            let mut any = false;

            // Flows that hit their own ceiling freeze at the ceiling, in
            // ascending flow order (see `SolverHeaps::cand`).
            cand.clear();
            while let Some(&Reverse(e)) = cap_heap.peek() {
                if e.cap.0 > level {
                    break;
                }
                cap_heap.pop();
                if !frozen[e.flow as usize] {
                    cand.push(e.flow);
                }
            }
            cand.sort_unstable();
            for &fi in cand.iter() {
                let i = fi as usize;
                if !frozen[i] {
                    freeze!(i, caps[i]);
                    any = true;
                }
            }

            // Links that saturate at (or, through floating-point drift, just
            // below) the level freeze their remaining flows at the level. One
            // saturation can lower another link's level; the freeze above already
            // pushed the updated entries, so popping until the heap's minimum
            // clears the tolerance sweeps the cascade to fixpoint.
            let thr = level * (1.0 + SAT_EPS_REL) + SAT_EPS_ABS;
            while let Some(&Reverse(e)) = sat_heap.peek() {
                let li = e.link as usize;
                if e.version != link_version[li] || links[li].unfrozen == 0 {
                    sat_heap.pop();
                    continue;
                }
                if e.sat.0 > thr {
                    break;
                }
                sat_heap.pop();
                for &fi in &link_members[li] {
                    let i = fi as usize;
                    if !frozen[i] {
                        freeze!(i, level);
                    }
                }
                any = true;
            }
            if !any {
                // Unreachable by construction (the level was chosen as an
                // achieved minimum), but guarantees termination outright.
                for i in 0..n {
                    if !frozen[i] {
                        freeze!(i, level);
                    }
                }
            }
        }
    }
}
