//! Emulated topologies and their link graph.
//!
//! The paper runs every controlled experiment on a **fully interconnected
//! mesh**: each pair of overlay participants is joined by a core link with
//! its own bandwidth, propagation delay and loss rate, and each node
//! additionally has inbound and outbound access links. This module describes
//! such topologies and provides generators for every configuration the
//! evaluation uses (§4.1, §4.4, §4.5, §4.7).
//!
//! ## The link graph
//!
//! Beyond the per-pair path table, a topology exposes an explicit set of
//! **directed links** ([`LinkId`]), the capacity constraints of the global
//! max-min fluid model (see [`crate::network`] and `docs/NETWORK_MODEL.md`):
//!
//! * one **access uplink** and one **access downlink** per node, with the
//!   capacities of its [`NodeSpec`];
//! * a set of **core links**. By default every ordered pair owns a dedicated
//!   core link (the paper's ModelNet meshes), but pairs can be remapped onto
//!   a **shared** core link with [`Topology::share_core`] — the substrate of
//!   the shared-bottleneck and cross-traffic scenarios (`fig18`/`fig19`).
//!
//! The path from `a` to `b` traverses exactly three links: `a`'s uplink, the
//! core link `link_of(a → b)`, and `b`'s downlink
//! ([`Topology::links_on_path`]). A core link's usable capacity is discounted
//! by its loss rate ([`Topology::link_capacity`]): a fraction `loss` of every
//! transmitted byte is retransmission overhead that the fluid model charges
//! as lost capacity.

use desim::{RngFactory, SimDuration};
use rand::Rng;

use crate::units::{kbps, mbps, BytesPerSec};

/// Identifier of an emulated end host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Access-link characteristics of one end host.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// Outbound (uplink) capacity in bytes/second.
    pub up: BytesPerSec,
    /// Inbound (downlink) capacity in bytes/second.
    pub down: BytesPerSec,
    /// One-way access-link propagation delay.
    pub access_delay: SimDuration,
}

/// Directional core-path characteristics between a pair of hosts.
#[derive(Debug, Clone, Copy)]
pub struct PathSpec {
    /// Core-link capacity in bytes/second.
    pub bw: BytesPerSec,
    /// One-way core propagation delay.
    pub delay: SimDuration,
    /// Packet loss probability on the core link, in `[0, 1)`.
    pub loss: f64,
}

/// Identifier of a directed link in a topology's link graph: the unit of
/// capacity sharing in the global max-min fluid model.
///
/// Link ids are dense: for an `n`-node topology, ids `0..n` are the access
/// uplinks, `n..2n` the access downlinks, and `2n..` the core links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Numeric index into per-link tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A directed core link: the capacity and loss every path mapped onto it
/// shares. A pair's [`PathSpec`] reads both from here.
#[derive(Debug, Clone)]
struct CoreLink {
    /// Raw capacity in bytes/second.
    capacity: BytesPerSec,
    /// Packet loss probability, in `[0, 1)`; discounts the usable capacity.
    loss: f64,
}

/// Sentinel for the unused diagonal of the pair → core-link table.
const NO_LINK: u32 = u32::MAX;

/// How the core of the mesh is represented.
///
/// The paper's controlled experiments need per-pair state (dedicated core
/// links with individual bandwidth/delay/loss, remappable onto shared
/// bottlenecks), which costs O(n²) memory — fine at ModelNet scale (tens of
/// nodes), prohibitive at 10⁴. Large-swarm scaling runs (`fig20`) instead use
/// a **uniform** core: one unconstrained shared link and per-pair delays
/// derived from O(n) per-node jitter, so the whole topology is O(n).
#[derive(Debug, Clone)]
enum CoreModel {
    /// Explicit per-pair delay table and core-link graph.
    Dense {
        /// `delay[a][b]` is the core propagation delay from `a` to `b`. The
        /// diagonal is unused.
        delay: Vec<Vec<SimDuration>>,
        /// The core links; by construction every off-diagonal pair starts
        /// with a dedicated one ([`Topology::share_core`] remaps pairs onto
        /// shared ones).
        core_links: Vec<CoreLink>,
        /// `link_of[a][b]` is the index (into `core_links`) of the core link
        /// the `a → b` path rides. The diagonal holds [`NO_LINK`].
        link_of: Vec<Vec<u32>>,
    },
    /// One shared, unconstrained core link (id `2n`) carrying every pair;
    /// `path(a, b)` is synthesised as `bw = +inf`, a uniform `loss`, and
    /// `delay = jitter[a] + jitter[b]`.
    Uniform {
        /// Per-node half-delays; the `a → b` core delay is their sum.
        jitter: Vec<SimDuration>,
        /// Uniform core loss rate (bounds every flow's Mathis ceiling).
        loss: f64,
    },
}

/// A complete emulated topology: per-node access links plus a directional
/// core path for every ordered pair, backed by an explicit link graph.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    core_model: CoreModel,
}

impl Topology {
    /// Builds a topology by asking `spec` for the core path of every ordered
    /// pair `a != b`, in row-major order (so a generator that draws from RNG
    /// streams draws in that order). Every pair gets a dedicated core link
    /// with the capacity and loss of its [`PathSpec`].
    ///
    /// # Panics
    ///
    /// Panics with fewer than two nodes.
    pub fn from_fn(nodes: Vec<NodeSpec>, mut spec: impl FnMut(usize, usize) -> PathSpec) -> Self {
        let n = nodes.len();
        assert!(n >= 2, "a topology needs at least two nodes");
        let mut delay = vec![vec![SimDuration::ZERO; n]; n];
        let mut core_links = Vec::with_capacity(n * n - n);
        let mut link_of = vec![vec![NO_LINK; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let path = spec(a, b);
                delay[a][b] = path.delay;
                link_of[a][b] = core_links.len() as u32;
                core_links.push(CoreLink {
                    capacity: path.bw,
                    loss: path.loss,
                });
            }
        }
        Topology {
            nodes,
            core_model: CoreModel::Dense {
                delay,
                core_links,
                link_of,
            },
        }
    }

    /// [`Topology::from_fn`] over an explicit path table; the diagonal of
    /// `core` is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not an `n x n` matrix for `n = nodes.len()`.
    pub fn new(nodes: Vec<NodeSpec>, core: Vec<Vec<PathSpec>>) -> Self {
        let n = nodes.len();
        assert_eq!(core.len(), n, "core matrix must be n x n");
        for row in &core {
            assert_eq!(row.len(), n, "core matrix must be n x n");
        }
        Self::from_fn(nodes, |a, b| core[a][b])
    }

    /// Builds an O(n)-memory topology for large-swarm scaling runs: `n`
    /// identical access links and a single **unconstrained** shared core
    /// link carrying every ordered pair (no per-pair state). The `a → b`
    /// core delay is `jitter[a] + jitter[b]`.
    ///
    /// The resulting topology rejects per-pair core surgery:
    /// [`Topology::set_core_bw`], [`Topology::scale_core_bw`] and
    /// [`Topology::share_core`] panic on it.
    ///
    /// # Panics
    ///
    /// Panics if `jitter.len() != nodes.len()` or fewer than two nodes.
    pub fn new_uniform(nodes: Vec<NodeSpec>, jitter: Vec<SimDuration>, loss: f64) -> Self {
        let n = nodes.len();
        assert!(n >= 2, "a topology needs at least two nodes");
        assert_eq!(jitter.len(), n, "one jitter entry per node");
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        Topology {
            nodes,
            core_model: CoreModel::Uniform { jitter, loss },
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true if the topology has no hosts (never true for constructed
    /// topologies; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// Access-link spec of `node`.
    pub fn node(&self, node: NodeId) -> &NodeSpec {
        &self.nodes[node.index()]
    }

    /// Core path spec from `a` to `b`, synthesised from the pair's delay and
    /// the core link it rides. A node reaches itself over no link: no
    /// capacity limit, no delay, no loss.
    pub fn path(&self, a: NodeId, b: NodeId) -> PathSpec {
        let (bw, loss) = match &self.core_model {
            _ if a == b => (f64::INFINITY, 0.0),
            CoreModel::Dense {
                core_links,
                link_of,
                ..
            } => {
                let link = &core_links[link_of[a.index()][b.index()] as usize];
                (link.capacity, link.loss)
            }
            CoreModel::Uniform { loss, .. } => (f64::INFINITY, *loss),
        };
        let delay = self.core_delay(a, b);
        PathSpec { bw, delay, loss }
    }

    /// Sets the capacity of the core link carrying `a → b` to `bw`
    /// (bytes/second, floored at 1). On a shared link this affects **every**
    /// pair mapped onto it. Returns the changed link so callers can re-price
    /// flows on it.
    pub fn set_core_bw(&mut self, a: NodeId, b: NodeId, bw: BytesPerSec) -> LinkId {
        let j = self.core_link_index(a, b);
        let CoreModel::Dense { core_links, .. } = &mut self.core_model else {
            unreachable!("core_link_index rejects uniform-core topologies");
        };
        core_links[j].capacity = bw.max(1.0);
        self.core_link_id(j)
    }

    /// Multiplies the capacity of the core link carrying `a → b` by `factor`
    /// (result floored at 1 byte/second). See [`Topology::set_core_bw`] for
    /// shared-link semantics.
    pub fn scale_core_bw(&mut self, a: NodeId, b: NodeId, factor: f64) -> LinkId {
        let bw = (self.path(a, b).bw * factor).max(1.0);
        self.set_core_bw(a, b, bw)
    }

    /// Remaps the given ordered pairs onto one **shared** core link of the
    /// given capacity and loss rate, creating it (the pairs keep their
    /// delays). Returns the new link's id.
    ///
    /// Construction-time only: a [`crate::Network`] sizes its per-link tables
    /// once, in [`crate::Network::new`], so the topology must have all its
    /// links by then (debug builds assert it at every solve).
    ///
    /// ```
    /// use netsim::units::mbps;
    /// use netsim::{topology, NodeId};
    ///
    /// let mut topo = topology::constrained_access(4);
    /// let shared = topo.share_core(
    ///     &[(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))],
    ///     mbps(2.0),
    ///     0.0,
    /// );
    /// // Both pairs now ride — and contend on — the same 2 Mbps link.
    /// assert_eq!(topo.core_link(NodeId(0), NodeId(1)), shared);
    /// assert_eq!(topo.core_link(NodeId(2), NodeId(3)), shared);
    /// assert_eq!(topo.link_capacity(shared), mbps(2.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or names a diagonal pair.
    pub fn share_core(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        capacity: BytesPerSec,
        loss: f64,
    ) -> LinkId {
        assert!(
            !pairs.is_empty(),
            "a shared core link needs at least one pair"
        );
        let CoreModel::Dense {
            core_links,
            link_of,
            ..
        } = &mut self.core_model
        else {
            panic!("a uniform-core topology has no per-pair core links to remap");
        };
        let j = core_links.len();
        for &(a, b) in pairs {
            assert!(a != b, "a core link cannot join a node to itself");
            link_of[a.index()][b.index()] = j as u32;
        }
        core_links.push(CoreLink {
            capacity: capacity.max(1.0),
            loss,
        });
        self.core_link_id(j)
    }

    /// Total number of directed links: `2n` access links plus the core links
    /// (a single shared one on uniform-core topologies).
    pub fn num_links(&self) -> usize {
        let core = match &self.core_model {
            CoreModel::Dense { core_links, .. } => core_links.len(),
            CoreModel::Uniform { .. } => 1,
        };
        2 * self.nodes.len() + core
    }

    /// The access uplink of `node`.
    pub fn uplink(&self, node: NodeId) -> LinkId {
        LinkId(node.0)
    }

    /// The access downlink of `node`.
    pub fn downlink(&self, node: NodeId) -> LinkId {
        LinkId(self.nodes.len() as u32 + node.0)
    }

    /// The core link the `a → b` path rides.
    pub fn core_link(&self, a: NodeId, b: NodeId) -> LinkId {
        match &self.core_model {
            CoreModel::Dense { .. } => self.core_link_id(self.core_link_index(a, b)),
            CoreModel::Uniform { .. } => {
                assert!(a != b, "no core link joins a node to itself");
                self.core_link_id(0)
            }
        }
    }

    /// The three links the `a → b` path traverses, in path order: `a`'s
    /// uplink, the core link, `b`'s downlink.
    pub fn links_on_path(&self, a: NodeId, b: NodeId) -> [LinkId; 3] {
        [self.uplink(a), self.core_link(a, b), self.downlink(b)]
    }

    /// Usable capacity of `link` in bytes/second. Access links carry their
    /// raw [`NodeSpec`] capacity; a core link's raw capacity is discounted by
    /// its loss rate (`capacity * (1 - loss)`): lost packets are retransmitted
    /// and the retransmissions occupy the link.
    pub fn link_capacity(&self, link: LinkId) -> BytesPerSec {
        let n = self.nodes.len();
        let i = link.index();
        if i < n {
            self.nodes[i].up
        } else if i < 2 * n {
            self.nodes[i - n].down
        } else {
            match &self.core_model {
                CoreModel::Dense { core_links, .. } => {
                    let l = &core_links[i - 2 * n];
                    (l.capacity * (1.0 - l.loss)).max(1.0)
                }
                CoreModel::Uniform { .. } => f64::INFINITY,
            }
        }
    }

    fn core_link_index(&self, a: NodeId, b: NodeId) -> usize {
        let CoreModel::Dense { link_of, .. } = &self.core_model else {
            panic!("a uniform-core topology has no per-pair core links to remap");
        };
        let j = link_of[a.index()][b.index()];
        assert!(j != NO_LINK, "no core link joins a node to itself");
        j as usize
    }

    fn core_link_id(&self, core_index: usize) -> LinkId {
        LinkId((2 * self.nodes.len() + core_index) as u32)
    }

    /// One-way end-to-end propagation delay from `a` to `b` (access + core +
    /// access).
    pub fn one_way_delay(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.nodes[a.index()].access_delay
            + self.core_delay(a, b)
            + self.nodes[b.index()].access_delay
    }

    /// Core propagation delay from `a` to `b` (zero to itself).
    fn core_delay(&self, a: NodeId, b: NodeId) -> SimDuration {
        match &self.core_model {
            _ if a == b => SimDuration::ZERO,
            CoreModel::Dense { delay, .. } => delay[a.index()][b.index()],
            CoreModel::Uniform { jitter, .. } => jitter[a.index()] + jitter[b.index()],
        }
    }

    /// Round-trip time between `a` and `b`.
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.one_way_delay(a, b) + self.one_way_delay(b, a)
    }
}

fn uniform_delay_ms<R: Rng>(rng: &mut R, lo: f64, hi: f64) -> SimDuration {
    SimDuration::from_secs_f64(rng.gen_range(lo..=hi) / 1000.0)
}

/// The paper's main ModelNet configuration (§4.1): `n` nodes in a full mesh,
/// 6 Mbps access links (1 ms delay), 2 Mbps core links with 5–200 ms
/// propagation delay and uniform random loss in `[0, max_loss]` (3% in the
/// paper), fixed per link for the whole experiment.
pub fn modelnet_mesh(n: usize, max_loss: f64, rng: &RngFactory) -> Topology {
    let mut loss_rng = rng.stream("topology.loss");
    let mut delay_rng = rng.stream("topology.delay");
    let nodes = vec![
        NodeSpec {
            up: mbps(6.0),
            down: mbps(6.0),
            access_delay: SimDuration::from_millis(1),
        };
        n
    ];
    Topology::from_fn(nodes, |_, _| PathSpec {
        bw: mbps(2.0),
        delay: uniform_delay_ms(&mut delay_rng, 5.0, 200.0),
        loss: loss_rng.gen_range(0.0..=max_loss.max(0.0)),
    })
}

/// The constrained-access topology of Fig 9: ample core bandwidth (10 Mbps,
/// 1 ms) but 800 Kbps access links and no random loss.
pub fn constrained_access(n: usize) -> Topology {
    let nodes = vec![
        NodeSpec {
            up: kbps(800.0),
            down: kbps(800.0),
            access_delay: SimDuration::from_millis(1),
        };
        n
    ];
    Topology::from_fn(nodes, |_, _| PathSpec {
        bw: mbps(10.0),
        delay: SimDuration::from_millis(1),
        loss: 0.0,
    })
}

/// The flow-control topology of Figs 10–11: `n` participants joined by
/// 10 Mbps, 100 ms links (high bandwidth-delay product), with uniform random
/// loss in `[0, max_loss]` on the core (0 for Fig 10, 1.5% for Fig 11).
pub fn high_bdp_clique(n: usize, max_loss: f64, rng: &RngFactory) -> Topology {
    let mut loss_rng = rng.stream("topology.loss");
    let nodes = vec![
        NodeSpec {
            up: mbps(10.0),
            down: mbps(10.0),
            access_delay: SimDuration::from_millis(1),
        };
        n
    ];
    Topology::from_fn(nodes, |_, _| PathSpec {
        bw: mbps(10.0),
        delay: SimDuration::from_millis(50),
        loss: if max_loss <= 0.0 {
            0.0
        } else {
            loss_rng.gen_range(0.0..=max_loss)
        },
    })
}

/// The cascading-slowdown topology of Fig 12: `fast_nodes + 1` participants
/// (the source plus `fast_nodes - 1` well-connected peers) joined by 10 Mbps,
/// 1 ms links, plus one final "victim" node reached over dedicated 5 Mbps,
/// 100 ms links.
pub fn cascade_topology(fast_nodes: usize) -> Topology {
    let n = fast_nodes + 1;
    let victim = n - 1;
    // Every participant (including the source) has a 10 Mbps access link, so
    // fresh data enters the well-connected group at 10 Mbps and the victim's
    // dedicated 5 Mbps links are initially not the bottleneck.
    let mut nodes = vec![
        NodeSpec {
            up: mbps(10.0),
            down: mbps(10.0),
            access_delay: SimDuration::from_micros(100),
        };
        n
    ];
    // The victim only downloads; give it headroom so its own access link is
    // never the limit (the experiment is about its dedicated core paths).
    nodes[victim] = NodeSpec {
        up: mbps(10.0),
        down: mbps(30.0),
        access_delay: SimDuration::from_micros(100),
    };
    Topology::from_fn(nodes, |a, b| {
        if a == victim || b == victim {
            PathSpec {
                bw: mbps(5.0),
                delay: SimDuration::from_millis(50),
                loss: 0.0,
            }
        } else {
            PathSpec {
                bw: mbps(10.0),
                delay: SimDuration::from_micros(500),
                loss: 0.0,
            }
        }
    })
}

/// A PlanetLab-like wide-area topology (§4.7): heterogeneous access links
/// drawn from a long-tailed mix of site classes, transcontinental RTTs and a
/// small background loss rate. No two "sites" share bottlenecks, mirroring
/// the paper's one-node-per-site deployment.
pub fn planetlab_like(n: usize, rng: &RngFactory) -> Topology {
    let mut class_rng = rng.stream("topology.pl.class");
    let mut delay_rng = rng.stream("topology.pl.delay");
    let mut loss_rng = rng.stream("topology.pl.loss");

    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        // Site classes: well-provisioned university (10 Mbps), DSL-ish (2 Mbps),
        // congested international (1 Mbps).
        let class: f64 = class_rng.gen();
        let (up, down) = if class < 0.6 {
            (mbps(10.0), mbps(10.0))
        } else if class < 0.9 {
            (mbps(2.0), mbps(4.0))
        } else {
            (mbps(1.0), mbps(1.5))
        };
        nodes.push(NodeSpec {
            up,
            down,
            access_delay: SimDuration::from_millis(1),
        });
    }
    Topology::from_fn(nodes, |_, _| PathSpec {
        // Wide-area cores rarely bottleneck below the access links.
        bw: mbps(20.0),
        delay: uniform_delay_ms(&mut delay_rng, 10.0, 150.0),
        loss: loss_rng.gen_range(0.0..=0.01),
    })
}

/// A mesh whose entire core is **one shared bottleneck link**: `n` nodes
/// with 6 Mbps access links (1 ms delay) whose every ordered pair rides a
/// single core link of `core` bytes/second with loss rate `loss`; per-pair
/// propagation delays are uniform in 5–200 ms like the ModelNet mesh. This is
/// the substrate of the shared-bottleneck (`fig18`) and cross-traffic
/// (`fig19`) scenarios: all overlay traffic — from however many concurrent
/// meshes — contends for the one core link.
pub fn shared_core_mesh(n: usize, core: BytesPerSec, loss: f64, rng: &RngFactory) -> Topology {
    let mut delay_rng = rng.stream("topology.shared.delay");
    let nodes = vec![
        NodeSpec {
            up: mbps(6.0),
            down: mbps(6.0),
            access_delay: SimDuration::from_millis(1),
        };
        n
    ];
    let mut topo = Topology::from_fn(nodes, |_, _| PathSpec {
        bw: core,
        delay: uniform_delay_ms(&mut delay_rng, 5.0, 200.0),
        loss,
    });
    let pairs: Vec<(NodeId, NodeId)> = (0..n as u32)
        .flat_map(|a| (0..n as u32).filter_map(move |b| (a != b).then_some((NodeId(a), NodeId(b)))))
        .collect();
    topo.share_core(&pairs, core, loss);
    topo
}

/// The large-swarm scaling topology (`fig20`): `n` well-provisioned nodes
/// (20 Mbps access links, 1 ms delay) over a **uniform, unconstrained** core
/// with 3% loss and wide-area delays. The whole topology is O(n) in memory —
/// per-pair core delays are `jitter[a] + jitter[b]` with per-node jitter
/// uniform in 20–100 ms (pair delays 40–200 ms), where a dense mesh at
/// n = 10⁴ would need ~10⁸ path entries.
///
/// The parameters are chosen so every flow is limited by its own TCP
/// (Mathis) ceiling rather than by link contention: at 3% loss the ceiling
/// of even the fastest pair (≈ 84 ms RTT) is ≈ 120 KB/s, so a node needs
/// 20+ concurrent transfers before its 2.5 MB/s access link could saturate
/// — more than Bullet′'s peer-set sizes reach. The fluid solver therefore
/// finds no saturated link to cross and reprices are O(1), which
/// is exactly the regime a scaling run wants: the emulator's per-event cost,
/// not the solver's component size, is what is being measured.
pub fn uniform_swarm(n: usize, rng: &RngFactory) -> Topology {
    let mut delay_rng = rng.stream("topology.uniform.delay");
    let nodes = vec![
        NodeSpec {
            up: mbps(20.0),
            down: mbps(20.0),
            access_delay: SimDuration::from_millis(1),
        };
        n
    ];
    let jitter = (0..n)
        .map(|_| uniform_delay_ms(&mut delay_rng, 20.0, 100.0))
        .collect();
    Topology::new_uniform(nodes, jitter, 0.03)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_asks_for_each_ordered_pair_once_in_row_major_order() {
        let mut asked = Vec::new();
        let t = Topology::from_fn(constrained_access(3).nodes, |a, b| {
            asked.push((a, b));
            PathSpec {
                bw: mbps((10 * a + b) as f64),
                delay: SimDuration::from_millis(1),
                loss: 0.0,
            }
        });
        assert_eq!(asked, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
        assert_eq!(t.path(NodeId(2), NodeId(1)).bw, mbps(21.0));
    }

    #[test]
    fn modelnet_mesh_matches_paper_parameters() {
        let rng = RngFactory::new(1);
        let t = modelnet_mesh(20, 0.03, &rng);
        assert_eq!(t.len(), 20);
        for id in t.node_ids() {
            assert_eq!(t.node(id).up, mbps(6.0));
            assert_eq!(t.node(id).access_delay, SimDuration::from_millis(1));
        }
        let mut max_loss: f64 = 0.0;
        let mut max_delay = SimDuration::ZERO;
        for a in t.node_ids() {
            for b in t.node_ids() {
                if a == b {
                    continue;
                }
                let p = t.path(a, b);
                assert_eq!(p.bw, mbps(2.0));
                assert!(p.loss >= 0.0 && p.loss <= 0.03);
                assert!(p.delay >= SimDuration::from_millis(5));
                assert!(p.delay <= SimDuration::from_millis(200));
                max_loss = max_loss.max(p.loss);
                max_delay = max_delay.max(p.delay);
            }
        }
        assert!(max_loss > 0.0, "some link should have loss");
        assert!(
            max_delay > SimDuration::from_millis(100),
            "delays should span the range"
        );
    }

    #[test]
    fn topology_is_deterministic_per_seed() {
        let a = modelnet_mesh(10, 0.03, &RngFactory::new(7));
        let b = modelnet_mesh(10, 0.03, &RngFactory::new(7));
        let c = modelnet_mesh(10, 0.03, &RngFactory::new(8));
        let n0 = NodeId(0);
        let n5 = NodeId(5);
        assert_eq!(a.path(n0, n5).loss, b.path(n0, n5).loss);
        assert_eq!(a.path(n0, n5).delay, b.path(n0, n5).delay);
        assert!(
            a.path(n0, n5).loss != c.path(n0, n5).loss
                || a.path(n0, n5).delay != c.path(n0, n5).delay
        );
    }

    #[test]
    fn rtt_adds_both_directions() {
        let t = constrained_access(4);
        let rtt = t.rtt(NodeId(0), NodeId(1));
        // 2 * (1ms access + 1ms core + 1ms access) = 6ms.
        assert_eq!(rtt, SimDuration::from_millis(6));
    }

    #[test]
    fn cascade_topology_shapes() {
        let t = cascade_topology(7);
        assert_eq!(t.len(), 8);
        let victim = NodeId(7);
        assert_eq!(t.path(NodeId(0), victim).bw, mbps(5.0));
        assert_eq!(t.path(NodeId(0), NodeId(1)).bw, mbps(10.0));
        assert_eq!(t.node(NodeId(0)).up, mbps(10.0));
        assert_eq!(t.node(victim).down, mbps(30.0));
    }

    #[test]
    fn planetlab_like_is_heterogeneous() {
        let t = planetlab_like(41, &RngFactory::new(3));
        let ups: std::collections::BTreeSet<u64> =
            t.node_ids().map(|id| t.node(id).up as u64).collect();
        assert!(
            ups.len() > 1,
            "access bandwidths should differ across sites"
        );
    }

    #[test]
    fn dedicated_links_mirror_path_specs() {
        let t = constrained_access(3);
        assert_eq!(t.num_links(), 2 * 3 + 6, "2n access + n(n-1) core links");
        let a = NodeId(0);
        let b = NodeId(1);
        assert_eq!(t.link_capacity(t.uplink(a)), kbps(800.0));
        assert_eq!(t.link_capacity(t.downlink(b)), kbps(800.0));
        assert_eq!(t.link_capacity(t.core_link(a, b)), mbps(10.0));
        // Paths traverse uplink, core, downlink in order; directions are
        // distinct links.
        let [up, core, down] = t.links_on_path(a, b);
        assert_eq!(up, t.uplink(a));
        assert_eq!(core, t.core_link(a, b));
        assert_eq!(down, t.downlink(b));
        assert_ne!(t.core_link(a, b), t.core_link(b, a));
    }

    #[test]
    fn set_core_bw_updates_link_and_path_views() {
        let mut t = constrained_access(3);
        let link = t.set_core_bw(NodeId(0), NodeId(1), mbps(1.0));
        assert_eq!(t.path(NodeId(0), NodeId(1)).bw, mbps(1.0));
        assert_eq!(t.link_capacity(link), mbps(1.0));
        // Other pairs untouched.
        assert_eq!(t.path(NodeId(1), NodeId(0)).bw, mbps(10.0));
        t.scale_core_bw(NodeId(0), NodeId(1), 0.5);
        assert_eq!(t.path(NodeId(0), NodeId(1)).bw, mbps(0.5));
    }

    #[test]
    fn shared_core_joins_pairs_onto_one_link() {
        let mut t = constrained_access(4);
        let link = t.share_core(
            &[(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))],
            mbps(2.0),
            0.01,
        );
        assert_eq!(t.core_link(NodeId(0), NodeId(1)), link);
        assert_eq!(t.core_link(NodeId(2), NodeId(3)), link);
        // Unmapped pairs keep their dedicated links.
        assert_ne!(t.core_link(NodeId(1), NodeId(0)), link);
        // The per-pair view mirrors the shared link.
        assert_eq!(t.path(NodeId(0), NodeId(1)).bw, mbps(2.0));
        assert_eq!(t.path(NodeId(2), NodeId(3)).loss, 0.01);
        // Loss discounts the usable capacity.
        assert!((t.link_capacity(link) - mbps(2.0) * 0.99).abs() < 1e-9);
        // A capacity change through either pair reaches every mapped pair.
        t.set_core_bw(NodeId(0), NodeId(1), mbps(1.0));
        assert_eq!(t.path(NodeId(2), NodeId(3)).bw, mbps(1.0));
    }

    #[test]
    fn shared_core_mesh_has_one_core_bottleneck() {
        let rng = RngFactory::new(4);
        let t = shared_core_mesh(6, mbps(2.0), 0.0, &rng);
        let shared = t.core_link(NodeId(0), NodeId(1));
        for a in t.node_ids() {
            for b in t.node_ids() {
                if a == b {
                    continue;
                }
                assert_eq!(t.core_link(a, b), shared);
            }
        }
        assert_eq!(t.link_capacity(shared), mbps(2.0));
        assert_eq!(t.node(NodeId(3)).up, mbps(6.0));
        // Delays still vary per pair.
        assert_ne!(
            t.path(NodeId(0), NodeId(1)).delay,
            t.path(NodeId(0), NodeId(2)).delay
        );
    }

    #[test]
    #[should_panic(expected = "no core link joins a node to itself")]
    fn diagonal_core_link_rejected() {
        let t = constrained_access(3);
        t.core_link(NodeId(1), NodeId(1));
    }

    #[test]
    fn uniform_swarm_is_o_n_with_one_shared_core() {
        let rng = RngFactory::new(11);
        let t = uniform_swarm(50, &rng);
        assert_eq!(t.len(), 50);
        // One shared core link after the 2n access links.
        assert_eq!(t.num_links(), 2 * 50 + 1);
        let shared = t.core_link(NodeId(0), NodeId(1));
        assert_eq!(shared, LinkId(100));
        for a in [NodeId(0), NodeId(7), NodeId(49)] {
            for b in [NodeId(1), NodeId(23)] {
                if a == b {
                    continue;
                }
                assert_eq!(t.core_link(a, b), shared);
                let p = t.path(a, b);
                assert!(p.bw.is_infinite());
                assert_eq!(p.loss, 0.03);
                assert!(p.delay >= SimDuration::from_millis(40));
                assert!(p.delay <= SimDuration::from_millis(200));
            }
        }
        assert!(t.link_capacity(shared).is_infinite());
        assert_eq!(t.link_capacity(t.uplink(NodeId(3))), mbps(20.0));
        // Delays are symmetric (jitter[a] + jitter[b]) and deterministic.
        assert_eq!(
            t.path(NodeId(2), NodeId(9)).delay,
            t.path(NodeId(9), NodeId(2)).delay
        );
        let t2 = uniform_swarm(50, &RngFactory::new(11));
        assert_eq!(
            t.path(NodeId(2), NodeId(9)).delay,
            t2.path(NodeId(2), NodeId(9)).delay
        );
    }

    #[test]
    #[should_panic(expected = "uniform-core topology")]
    fn uniform_swarm_rejects_core_surgery() {
        let mut t = uniform_swarm(4, &RngFactory::new(1));
        t.set_core_bw(NodeId(0), NodeId(1), mbps(1.0));
    }

    #[test]
    #[should_panic(expected = "uniform-core topology")]
    fn uniform_swarm_rejects_share_core() {
        let mut t = uniform_swarm(4, &RngFactory::new(1));
        t.share_core(&[(NodeId(0), NodeId(1))], mbps(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_topology_rejected() {
        Topology::new(
            vec![NodeSpec {
                up: 1.0,
                down: 1.0,
                access_delay: SimDuration::ZERO,
            }],
            vec![vec![PathSpec {
                bw: 1.0,
                delay: SimDuration::ZERO,
                loss: 0.0,
            }]],
        );
    }
}
