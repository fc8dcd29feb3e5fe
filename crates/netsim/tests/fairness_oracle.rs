//! Property-based oracle for the global max-min fair fluid model.
//!
//! Random topologies (heterogeneous access links, dedicated and shared core
//! links, loss) are driven through random operation sequences — flow starts,
//! block completions, connection closes, bandwidth changes, cross-traffic
//! changes — and after every operation three invariants must hold:
//!
//! 1. **Conservation** — no link carries more than its usable capacity
//!    (loss-discounted, minus cross traffic);
//! 2. **Max-min optimality** — every active flow is either at its own TCP
//!    ceiling or bottlenecked at some *saturated* link on its path where no
//!    competing flow holds a larger rate (increasing it would require
//!    decreasing a smaller-or-equal flow);
//! 3. **Incremental = from-scratch** — re-solving everything from scratch
//!    ([`Network::reprice_all`]) reproduces the incrementally maintained
//!    rates, so component-scoped repricing never drifts from the global
//!    optimum.
//!
//! The instant oracle runs the same operations inside random virtual
//! instants ([`Network::open_instant`] … [`Network::settle`], one solve per
//! instant) and checks, after every settle, invariants 1 and 2 and that the
//! allocation equals the one a twin network solving after every operation
//! holds.

use desim::{RngFactory, SimTime};
use dissem_codec::BlockId;
use netsim::units::kbps;
use netsim::{topology, Network, NodeId, NodeSpec, PathSpec, Topology};
use proptest::prelude::*;

/// Relative tolerance for the invariant checks: the solver is exact modulo
/// floating point and the deliberate `RATE_EPSILON` re-schedule damping.
const TOL: f64 = 1e-6;

/// Builds a deterministic heterogeneous topology from generator knobs:
/// per-node access capacities cycle through `access` steps, core links get
/// `core` capacity, and when `shared` is true every "even" ordered pair is
/// remapped onto one shared bottleneck link.
fn build_topology(n: usize, access_step: u64, core_kb: u64, loss: f64, shared: bool) -> Topology {
    let nodes: Vec<NodeSpec> = (0..n)
        .map(|i| NodeSpec {
            up: kbps(400.0 + (i as u64 * access_step % 1600) as f64),
            down: kbps(600.0 + ((i as u64 + 1) * access_step % 1600) as f64),
            access_delay: desim::SimDuration::from_millis(1),
        })
        .collect();
    let mut core = Vec::with_capacity(n);
    for a in 0..n {
        let mut row = Vec::with_capacity(n);
        for b in 0..n {
            row.push(PathSpec {
                bw: kbps(core_kb as f64),
                delay: desim::SimDuration::from_millis(5 + ((a * 7 + b * 3) % 40) as u64),
                loss: if (a + b) % 3 == 0 { loss } else { 0.0 },
            });
        }
        core.push(row);
    }
    let mut topo = Topology::new(nodes, core);
    if shared {
        let pairs: Vec<(NodeId, NodeId)> = (0..n as u32)
            .flat_map(|a| (0..n as u32).map(move |b| (NodeId(a), NodeId(b))))
            .filter(|(a, b)| a != b && (a.0 + b.0) % 2 == 0)
            .collect();
        if !pairs.is_empty() {
            topo.share_core(&pairs, kbps(core_kb as f64), loss);
        }
    }
    topo
}

/// The active flows of `net`, in deterministic order.
fn active_flows(net: &Network, n: usize) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            if a == b {
                continue;
            }
            if let Some(c) = net.connection(NodeId(a), NodeId(b)) {
                if c.is_active() {
                    out.push((NodeId(a), NodeId(b)));
                }
            }
        }
    }
    out
}

/// A flow's own TCP ceiling, recomputed from public state: the Mathis loss
/// limit and the slow-start window limit.
fn flow_ceiling(net: &Network, from: NodeId, to: NodeId) -> f64 {
    let topo = net.topology();
    let path = netsim::tcp::TcpPath {
        bottleneck: f64::INFINITY,
        rtt: topo.rtt(from, to),
        loss: topo.path(from, to).loss,
    };
    let acked = net.connection(from, to).expect("flow exists").bytes_acked();
    path.mathis_cap().min(path.slow_start_cap(acked))
}

/// Checks conservation and max-min optimality over the current allocation.
fn check_invariants(net: &Network, n: usize) {
    let topo = net.topology();
    let flows = active_flows(net, n);

    // Per-link usage and flow count from the test's own bookkeeping.
    let mut usage = vec![0.0f64; topo.num_links()];
    let mut crossing = vec![0.0f64; topo.num_links()];
    for &(a, b) in &flows {
        let rate = net.current_rate(a, b).unwrap();
        for l in topo.links_on_path(a, b) {
            usage[l.index()] += rate;
            crossing[l.index()] += 1.0;
        }
    }

    let usable = |l: netsim::LinkId| (topo.link_capacity(l) - net.cross_traffic(l)).max(1.0);

    // 1. Conservation. A link cut below its cross traffic keeps a usable
    //    capacity of 1 B/s, and the model floors every flow's rate at 1 B/s
    //    too (a connection never stalls completely), so such a link may
    //    carry 1 B/s per flow.
    for l in (0..topo.num_links() as u32).map(netsim::LinkId) {
        let cap = usable(l).max(crossing[l.index()]);
        prop_assert!(
            usage[l.index()] <= cap * (1.0 + TOL) + 1e-6,
            "link {l:?} over capacity: {} > {cap}",
            usage[l.index()]
        );
    }

    // 2. Max-min optimality: every flow is ceiling-limited or bottlenecked
    //    at a saturated link where it is (one of) the largest flows.
    for &(a, b) in &flows {
        let rate = net.current_rate(a, b).unwrap();
        let ceiling = flow_ceiling(net, a, b);
        if rate >= ceiling * (1.0 - TOL) {
            continue; // capped by its own TCP ceiling
        }
        let mut bottlenecked = false;
        for l in topo.links_on_path(a, b) {
            let cap = usable(l);
            let saturated = usage[l.index()] >= cap * (1.0 - TOL) - 1e-6;
            if !saturated {
                continue;
            }
            let max_on_link = flows
                .iter()
                .filter(|&&(x, y)| topo.links_on_path(x, y).contains(&l))
                .map(|&(x, y)| net.current_rate(x, y).unwrap())
                .fold(0.0f64, f64::max);
            if rate >= max_on_link * (1.0 - TOL) {
                bottlenecked = true;
                break;
            }
        }
        prop_assert!(
            bottlenecked,
            "flow {a}→{b} at {rate} (ceiling {ceiling}) has no saturated \
             bottleneck link where it is maximal"
        );
    }
}

/// One generated operation, decoded modulo the current state:
/// `(kind, x, y, magnitude)`.
type Op = (u8, u8, u8, u16);

/// Applies one generated operation to `net` at `now`; `block` is the id a
/// started block gets.
fn apply_op(net: &mut Network, n: usize, now: SimTime, block: u32, &(kind, x, y, mag): &Op) {
    let a = NodeId(u32::from(x) % n as u32);
    let b = NodeId(u32::from(y) % n as u32);
    match kind {
        // Start (or extend) a flow.
        0 => {
            if a != b {
                let bytes = 20_000 + u64::from(mag) * 400;
                net.queue_block(now, a, b, BlockId(block), bytes);
            }
        }
        // Complete the in-flight block of some active flow.
        1 => {
            let flows = active_flows(net, n);
            if !flows.is_empty() {
                let (f, t) = flows[usize::from(mag) % flows.len()];
                net.on_block_done(now, f, t);
            }
        }
        // Close a connection.
        2 => {
            if a != b {
                net.close_connection(now, a, b);
            }
        }
        // Re-size the core link carrying a → b.
        3 => {
            if a != b {
                let bw = kbps(100.0 + f64::from(mag % 2000));
                net.topology_mut().set_core_bw(a, b, bw);
                net.reprice_paths(now, &[(a, b)]);
            }
        }
        // Cross traffic occupying up to ~half of the core link.
        4 => {
            if a != b {
                let link = net.topology().core_link(a, b);
                let cap = net.topology().link_capacity(link);
                let rate = cap * f64::from(mag % 128) / 256.0;
                net.set_cross_traffic(now, (a, b), rate);
            }
        }
        _ => unreachable!("kind is generated in 0..5"),
    }
}

/// 3. Incremental = from-scratch: a full re-solve must not move any rate.
fn check_from_scratch(net: &mut Network, n: usize, now: SimTime) {
    let before: Vec<_> = active_flows(net, n)
        .into_iter()
        .map(|(a, b)| ((a, b), net.current_rate(a, b).unwrap()))
        .collect();
    net.reprice_all(now);
    for ((a, b), old) in before {
        let new = net.current_rate(a, b).unwrap();
        prop_assert!(
            (new - old).abs() <= old * TOL,
            "incremental drift on {a}→{b}: {old} vs from-scratch {new}"
        );
    }
}

fn run_scenario(n: usize, access_step: u64, core_kb: u64, loss: f64, shared: bool, ops: &[Op]) {
    let topo = build_topology(n, access_step, core_kb, loss, shared);
    let mut net = Network::new(topo);
    let mut now = SimTime::ZERO;

    for (i, op) in ops.iter().enumerate() {
        now += desim::SimDuration::from_millis(100);
        apply_op(&mut net, n, now, i as u32, op);
        check_invariants(&net, n);
    }
    check_from_scratch(&mut net, n, now);
}

/// How far a rate solved once per instant may sit from the same rate solved
/// once per operation: the apply loop keeps a flow's rate through changes
/// within its 1e-9 relative hysteresis, so two histories that reach the same
/// optimum may hold values that far apart (the fill's own tie tolerance,
/// 1e-12 relative, is far inside it).
const TWIN_TOL: f64 = 2e-9;

/// The operations of `instants` — each an operation and whether the instant
/// ends after it — applied to one network inside open instants and to a
/// twin one at a time. After every settle the instant network must satisfy
/// the invariants and hold the twin's allocation.
fn run_instants(
    n: usize,
    access_step: u64,
    core_kb: u64,
    loss: f64,
    shared: bool,
    instants: &[(Op, u8)],
) {
    let topo = build_topology(n, access_step, core_kb, loss, shared);
    let mut net = Network::new(topo.clone());
    let mut twin = Network::new(topo);
    let mut now = SimTime::ZERO;

    for (i, (op, cut)) in instants.iter().enumerate() {
        if !net.instant_open() {
            now += desim::SimDuration::from_millis(100);
            net.open_instant(now);
        }
        apply_op(&mut net, n, now, i as u32, op);
        apply_op(&mut twin, n, now, i as u32, op);
        if *cut == 0 || i + 1 == instants.len() {
            net.settle(now);
            check_invariants(&net, n);
            let flows = active_flows(&net, n);
            prop_assert_eq!(&flows, &active_flows(&twin, n));
            for (a, b) in flows {
                let (got, want) = (net.current_rate(a, b), twin.current_rate(a, b));
                let (got, want) = (got.unwrap(), want.unwrap());
                prop_assert!(
                    (got - want).abs() <= want * TWIN_TOL,
                    "{a}→{b}: {got} solved per instant, {want} per operation"
                );
            }
        }
    }
    check_from_scratch(&mut net, n, now);
}

proptest! {
    /// Random dedicated-link topologies under random operation sequences.
    #[test]
    fn dedicated_core_allocations_are_max_min_fair(
        n in 3usize..7,
        access_step in 1u64..997,
        core_kb in 200u64..3_000,
        ops in proptest::collection::vec(
            (0u8..5, any::<u8>(), any::<u8>(), any::<u16>()), 1..60),
    ) {
        run_scenario(n, access_step, core_kb, 0.0, false, &ops);
    }

    /// Shared-bottleneck topologies with loss: the discount, the shared
    /// contention and the Mathis ceilings must all compose correctly.
    #[test]
    fn shared_core_allocations_are_max_min_fair(
        n in 3usize..7,
        access_step in 1u64..997,
        core_kb in 200u64..3_000,
        ops in proptest::collection::vec(
            (0u8..5, any::<u8>(), any::<u8>(), any::<u16>()), 1..60),
    ) {
        run_scenario(n, access_step, core_kb, 0.02, true, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The instant oracle: the same operations, cut into random instants
    /// (one in four operations ends one), each settled with one solve. Every
    /// settle leaves a max-min fair allocation equal to the one the twin
    /// reaches solving after every operation, on both kinds of topology.
    #[test]
    fn one_solve_per_instant_equals_one_solve_per_operation(
        n in 3usize..7,
        access_step in 1u64..997,
        core_kb in 200u64..3_000,
        shared in any::<bool>(),
        instants in proptest::collection::vec(
            ((0u8..5, any::<u8>(), any::<u8>(), any::<u16>()), 0u8..4), 1..80),
    ) {
        let loss = if shared { 0.02 } else { 0.0 };
        run_instants(n, access_step, core_kb, loss, shared, &instants);
    }
}

/// Deterministic regression: the worked three-flow example from
/// `docs/NETWORK_MODEL.md`, checked through the public API end to end.
#[test]
fn worked_example_allocates_6_4_2() {
    // Node 0 has a 10 KB/s uplink carrying flows A (0→1) and B (0→2); B and
    // C (3→2) share node 2's 6 KB/s downlink; C is ceiling-capped at ~2 KB/s
    // by slow start over a long RTT. Expected max-min rates: C = 2 (cap),
    // B = 4 (downlink saturates at level 4), A = 6 (uplink saturates).
    let mk = |up: f64, down: f64, delay_ms: u64| NodeSpec {
        up,
        down,
        access_delay: desim::SimDuration::from_millis(delay_ms),
    };
    let nodes = vec![
        mk(10_000.0, 1e9, 1),
        mk(1e9, 1e9, 1),
        mk(1e9, 6_000.0, 1),
        mk(1e9, 1e9, 1),
    ];
    let wide = PathSpec {
        bw: 1e9,
        delay: desim::SimDuration::from_millis(10),
        loss: 0.0,
    };
    let mut core = vec![vec![wide; 4]; 4];
    // C's path is long enough (both directions contribute to the RTT) that
    // its fresh-connection slow-start cap (INIT_CWND / rtt = 4380 B / 2.204 s)
    // is ~1987 B/s < the fair share.
    core[3][2].delay = desim::SimDuration::from_millis(1_100);
    core[2][3].delay = desim::SimDuration::from_millis(1_100);
    let mut net = Network::new(Topology::new(nodes, core));

    let t0 = SimTime::ZERO;
    net.queue_block(t0, NodeId(0), NodeId(1), BlockId(0), 1_000_000); // A
    net.queue_block(t0, NodeId(0), NodeId(2), BlockId(1), 1_000_000); // B
    net.queue_block(t0, NodeId(3), NodeId(2), BlockId(2), 1_000_000); // C

    let rate = |f: u32, t: u32| net.current_rate(NodeId(f), NodeId(t)).unwrap();
    let c = rate(3, 2);
    let b = rate(0, 2);
    let a = rate(0, 1);
    assert!((c - 1987.3).abs() < 1.0, "C pinned by its ceiling: {c}");
    assert!(
        (b - (6_000.0 - c)).abs() < 1.0,
        "B takes the downlink rest: {b}"
    );
    assert!(
        (a - (10_000.0 - b)).abs() < 1.0,
        "A takes the uplink rest: {a}"
    );
}

/// Determinism: the same operation sequence replays to identical rates.
#[test]
fn identical_histories_give_identical_allocations() {
    let run = || {
        let rng = RngFactory::new(9);
        let topo = topology::shared_core_mesh(5, kbps(1_600.0), 0.01, &rng);
        let mut net = Network::new(topo);
        let mut now = SimTime::ZERO;
        for i in 0..40u32 {
            now += desim::SimDuration::from_millis(250);
            let a = NodeId(i % 5);
            let b = NodeId((i + 1 + i / 7) % 5);
            if a == b {
                continue;
            }
            match i % 4 {
                0 | 1 => {
                    net.queue_block(now, a, b, BlockId(i), 30_000 + u64::from(i) * 1_000);
                }
                2 => {
                    net.on_block_done(now, a, b);
                }
                _ => {
                    net.set_cross_traffic(now, (a, b), f64::from(i % 3) * 20_000.0);
                }
            }
        }
        let mut rates = Vec::new();
        for a in 0..5u32 {
            for b in 0..5u32 {
                if let Some(r) = net.current_rate(NodeId(a), NodeId(b)) {
                    rates.push((a, b, r.to_bits()));
                }
            }
        }
        rates
    };
    assert_eq!(run(), run(), "bit-identical allocations per history");
}
