//! Dynamic network scenarios (paper §4.1, §4.5) and node churn.
//!
//! Two scripted bandwidth-change scenarios drive the "dynamic" halves of the
//! evaluation:
//!
//! * [`correlated_decrease_schedule`] — the paper's main synthetic change
//!   model: every `period` (20 s), half of the participants are chosen at
//!   random, and for each of them the core links *from* a random half of the
//!   other participants are cut to 50% of their current value. Changes are
//!   cumulative and never reversed.
//! * [`cascading_degrade_schedule`] — the Fig 12 scenario: every 25 s another
//!   one of the victim node's dedicated sender links is reduced to 100 Kbps
//!   until every path to the victim has been degraded.
//!
//! Beyond link dynamics, this module also defines the **node-lifecycle**
//! vocabulary ([`NodeEvent`], [`NodeSchedule`]) and two churn scenario
//! builders for a peer-to-peer dissemination workload:
//!
//! * [`crash_wave_schedule`] — a fraction of the receivers crashes (no
//!   goodbye, connections reset) at instants spread over a window;
//! * [`flash_crowd_schedule`] — only a core group is present at t = 0 and
//!   the remaining receivers join in a wave over a window.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use desim::{RngFactory, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::topology::{NodeId, Topology};
use crate::units::{kbps, BytesPerSec};

/// How a single directional core link changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandwidthChange {
    /// Multiply the current core bandwidth by this factor.
    Scale(f64),
    /// Set the core bandwidth to this absolute value (bytes/second).
    Set(BytesPerSec),
}

/// A batch of directional link changes that take effect at one instant.
///
/// A batch is either a list of `(from, to, change)` triples or a §4.1
/// correlated decrease, which holds only its index in its schedule and a
/// handle to the schedule's table of batch start states, and draws its list
/// when it is applied. Clones share the table; each entry of it is a pure
/// function of the seed and the batch index, so a clone draws the same list
/// as the original whichever of them draws first.
#[derive(Debug, Clone)]
pub struct LinkChangeBatch {
    changes: Changes,
}

/// What a batch changes: a list, or the recipe of a correlated decrease.
#[derive(Debug, Clone)]
enum Changes {
    /// Cascade and hand-built batches.
    Listed(Vec<(NodeId, NodeId, BandwidthChange)>),
    /// Batch `index` of a §4.1 schedule, drawn by [`draw_correlated`] from
    /// the state `starts` holds for its start.
    Correlated {
        index: usize,
        starts: Arc<StartStates>,
    },
}

/// The `dynamics.correlated` stream's state at the start of each batch of
/// one §4.1 schedule, known as far as the schedule's batches have been drawn.
///
/// `known[k]` is batch k's start. Batch 0's is the seeded stream; drawing
/// batch k records batch k + 1's, and an unknown start is reached by walking
/// forward from the last known one through [`draw_correlated`], output
/// discarded. Entries are only appended, and each is a pure function of the
/// seed and the index, so it does not matter which clone or thread writes it.
struct StartStates {
    /// Participants of every batch.
    n: usize,
    known: Mutex<Vec<StdRng>>,
}

impl StartStates {
    fn known(&self) -> MutexGuard<'_, Vec<StdRng>> {
        // An entry is pushed whole, so a panic elsewhere leaves it consistent.
        self.known.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Batch `index`'s start state, walking forward to it if it is unknown.
    fn start(&self, index: usize) -> StdRng {
        let mut known = self.known();
        while known.len() <= index {
            let mut rng = known.last().expect("batch 0's start is known").clone();
            draw_correlated(self.n, &mut rng, |_| {});
            known.push(rng);
        }
        known[index].clone()
    }

    /// Records `state` as batch `index`'s start unless it is known already.
    fn record(&self, index: usize, state: StdRng) {
        let mut known = self.known();
        if known.len() == index {
            known.push(state);
        }
    }
}

impl fmt::Debug for StartStates {
    /// The participant count and batch 0's start: the table's identity, which
    /// does not change as it fills.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StartStates")
            .field("n", &self.n)
            .field("first", &self.known()[0])
            .finish()
    }
}

impl LinkChangeBatch {
    /// A batch applying `changes`, in order: `(from, to, change)` triples
    /// acting on the core path `from → to`.
    pub fn new(changes: Vec<(NodeId, NodeId, BandwidthChange)>) -> Self {
        LinkChangeBatch {
            changes: Changes::Listed(changes),
        }
    }

    /// The batch's `(from, to, change)` triples in the order [`apply`]
    /// applies them; a correlated decrease is drawn anew on every call.
    ///
    /// [`apply`]: LinkChangeBatch::apply
    pub fn changes(&self) -> Vec<(NodeId, NodeId, BandwidthChange)> {
        let mut list = Vec::with_capacity(self.len());
        self.for_each(|change| list.push(change));
        list
    }

    /// Applies the batch to `topo` and returns the affected ordered pairs so
    /// the caller can re-price live connections. Changes act on the **core
    /// link** carrying each pair: on the paper's dedicated-link meshes that
    /// is exactly the pair's private link; on a shared-core topology a change
    /// through any mapped pair re-sizes the shared link itself. A `Scale` is
    /// applied **at most once per underlying link per batch** — a batch that
    /// halves ten pairs riding one shared link halves that link once, it does
    /// not cut it to 1/1024th.
    pub fn apply(&self, topo: &mut Topology) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::with_capacity(self.len());
        let mut scaled: HashSet<crate::topology::LinkId> = HashSet::new();
        self.for_each(|(from, to, change)| {
            match change {
                BandwidthChange::Scale(f) => {
                    let link = topo.core_link(from, to);
                    if scaled.insert(link) {
                        topo.scale_core_bw(from, to, f);
                    }
                }
                BandwidthChange::Set(v) => {
                    topo.set_core_bw(from, to, v);
                }
            };
            pairs.push((from, to));
        });
        pairs
    }

    /// Number of ordered pairs the batch changes. On a shared core many
    /// pairs ride one link, so this can exceed the number of links changed.
    pub fn len(&self) -> usize {
        match &self.changes {
            Changes::Listed(list) => list.len(),
            Changes::Correlated { starts, .. } => {
                let n = starts.n;
                n / 2 * (n.saturating_sub(1) / 2)
            }
        }
    }

    /// True when the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands each triple to `f`, in order.
    fn for_each(&self, f: impl FnMut((NodeId, NodeId, BandwidthChange))) {
        match &self.changes {
            Changes::Listed(list) => list.iter().copied().for_each(f),
            Changes::Correlated { index, starts } => {
                let mut rng = starts.start(*index);
                draw_correlated(starts.n, &mut rng, f);
                starts.record(index + 1, rng);
            }
        }
    }
}

/// A scheduled scenario: batches of link changes with their activation times.
pub type ChangeSchedule = Vec<(SimTime, LinkChangeBatch)>;

/// The paper's correlated, cumulative bandwidth-decrease scenario.
///
/// Every `period`, 50% of the `n` participants are selected uniformly at
/// random; for each selected participant, the core links from a randomly
/// chosen 50% of the *other* participants towards it are cut to half of
/// their current value (the reverse direction is unaffected). The schedule
/// covers `[period, horizon]`.
///
/// Nothing is drawn here. Each batch starts where the one before it ended,
/// and its start is computed once, when a batch is first drawn: see
/// [`LinkChangeBatch`].
pub fn correlated_decrease_schedule(
    n: usize,
    period: SimDuration,
    horizon: SimDuration,
    rng: &RngFactory,
) -> ChangeSchedule {
    assert!(
        !period.is_zero(),
        "the correlated decrease needs a positive period"
    );
    let starts = Arc::new(StartStates {
        n,
        known: Mutex::new(vec![rng.stream("dynamics.correlated")]),
    });
    let mut schedule = Vec::new();
    let mut t = SimTime::ZERO + period;
    let end = SimTime::ZERO + horizon;
    while t <= end {
        let batch = LinkChangeBatch {
            changes: Changes::Correlated {
                index: schedule.len(),
                starts: Arc::clone(&starts),
            },
        };
        schedule.push((t, batch));
        t += period;
    }
    schedule
}

/// Draws one correlated-decrease batch among `n` participants from `rng`:
/// half of them are victims, and each victim's core links from half of the
/// others are halved. Hands each `(sender, victim, change)` to `emit` in draw
/// order.
fn draw_correlated(
    n: usize,
    rng: &mut StdRng,
    mut emit: impl FnMut((NodeId, NodeId, BandwidthChange)),
) {
    let all: Vec<u32> = (0..n as u32).collect();
    let mut victims = all.clone();
    victims.shuffle(rng);
    let mut others = Vec::with_capacity(n);
    for &v in &victims[..n / 2] {
        others.clear();
        others.extend(all.iter().copied().filter(|&x| x != v));
        others.shuffle(rng);
        for &s in &others[..others.len() / 2] {
            emit((NodeId(s), NodeId(v), BandwidthChange::Scale(0.5)));
        }
    }
}

/// A scheduled change of the background (cross-traffic) load on a core link:
/// from the activation instant on, an unresponsive CBR-like stream occupies
/// `rate` bytes/second of the core link carrying `via.0 → via.1` (use
/// `rate = 0` to switch it off). The fluid model subtracts the occupancy from
/// the link's usable capacity, so overlay flows crossing the link are
/// squeezed — and win the capacity back the moment the wave ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossTraffic {
    /// Names the core link by an ordered pair mapped onto it. On a
    /// shared-core topology any mapped pair names the same link.
    pub via: (NodeId, NodeId),
    /// Occupied bandwidth in bytes/second.
    pub rate: BytesPerSec,
}

/// A scheduled cross-traffic scenario: occupancy changes with their
/// activation times.
pub type CrossSchedule = Vec<(SimTime, CrossTraffic)>;

/// A square wave of cross traffic on the core link carrying `via`: starting
/// from an idle link, the background stream switches **on** (occupying
/// `rate`) at `period`, off at `2 × period`, on again at `3 × period`, …,
/// for every boundary within `horizon`. The fig19 scenario drives Bullet′
/// against exactly this pattern.
pub fn cross_traffic_square_wave(
    via: (NodeId, NodeId),
    rate: BytesPerSec,
    period: SimDuration,
    horizon: SimDuration,
) -> CrossSchedule {
    assert!(!period.is_zero(), "the square wave needs a positive period");
    let mut schedule = Vec::new();
    let mut t = SimTime::ZERO + period;
    let end = SimTime::ZERO + horizon;
    let mut on = true;
    while t <= end {
        schedule.push((
            t,
            CrossTraffic {
                via,
                rate: if on { rate } else { 0.0 },
            },
        ));
        on = !on;
        t += period;
    }
    schedule
}

/// A node-lifecycle transition scheduled against the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEvent {
    /// The node becomes a participant. Scheduled before the run starts, it
    /// also keeps the node absent until then.
    Join(NodeId),
    /// The node leaves gracefully: it gets an `on_shutdown` callback, then
    /// its connections are torn down.
    Leave(NodeId),
    /// The node crashes: connections are reset with no goodbye.
    Crash(NodeId),
}

impl NodeEvent {
    /// The node this event concerns.
    pub fn node(self) -> NodeId {
        match self {
            NodeEvent::Join(n) | NodeEvent::Leave(n) | NodeEvent::Crash(n) => n,
        }
    }
}

/// A scheduled churn scenario: lifecycle events with their activation times.
pub type NodeSchedule = Vec<(SimTime, NodeEvent)>;

/// Builds a crash wave: `fraction` of the receivers (nodes `1..n`, never the
/// source) crash at instants spread evenly over `[start, end]`. The victims
/// are chosen uniformly at random; events are returned in activation order.
pub fn crash_wave_schedule(
    n: usize,
    fraction: f64,
    start: SimTime,
    end: SimTime,
    rng: &RngFactory,
) -> NodeSchedule {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    assert!(end >= start, "crash window must not be inverted");
    let mut rng = rng.stream("dynamics.crash_wave");
    let mut receivers: Vec<u32> = (1..n as u32).collect();
    receivers.shuffle(&mut rng);
    let victims = ((n.saturating_sub(1)) as f64 * fraction).round() as usize;
    let window = end - start;
    receivers
        .into_iter()
        .take(victims)
        .enumerate()
        .map(|(i, v)| {
            // Spread instants evenly; `victims == 1` crashes at the start.
            let t = start + window.mul_f64(i as f64 / victims.max(2).saturating_sub(1) as f64);
            (t, NodeEvent::Crash(NodeId(v)))
        })
        .collect()
}

/// Builds a flash-crowd join wave: nodes `initial..n` are absent at t = 0 and
/// join at instants spread evenly over `[start, end]`, in index order.
/// Scheduling the joins on a runner that has not started keeps those nodes
/// absent until they join.
pub fn flash_crowd_schedule(
    n: usize,
    initial: usize,
    start: SimTime,
    end: SimTime,
) -> NodeSchedule {
    assert!(initial >= 1, "the source must be present from the start");
    assert!(end >= start, "join window must not be inverted");
    let joiners = n.saturating_sub(initial);
    let window = end - start;
    (initial..n)
        .enumerate()
        .map(|(i, node)| {
            let t = start + window.mul_f64(i as f64 / joiners.max(2).saturating_sub(1) as f64);
            (t, NodeEvent::Join(NodeId(node as u32)))
        })
        .collect()
}

/// The Fig 12 cascading-slowdown scenario: the victim (last node) has
/// dedicated links from `senders` peers; every `period` (25 s in the paper)
/// one more of those links is degraded to 100 Kbps, in index order.
pub fn cascading_degrade_schedule(
    senders: &[NodeId],
    victim: NodeId,
    period: SimDuration,
) -> ChangeSchedule {
    let mut schedule = Vec::new();
    let mut t = SimTime::ZERO + period;
    for &s in senders {
        let batch = LinkChangeBatch::new(vec![(s, victim, BandwidthChange::Set(kbps(100.0)))]);
        schedule.push((t, batch));
        t += period;
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::constrained_access;
    use crate::units::mbps;
    use std::sync::Barrier;

    #[test]
    fn correlated_schedule_has_expected_shape() {
        let rng = RngFactory::new(5);
        let sched = correlated_decrease_schedule(
            20,
            SimDuration::from_secs(20),
            SimDuration::from_secs(100),
            &rng,
        );
        assert_eq!(sched.len(), 5, "one batch per period within the horizon");
        for (i, (t, batch)) in sched.iter().enumerate() {
            assert_eq!(t.as_secs_f64(), 20.0 * (i + 1) as f64);
            // 10 victims x 9 or 10 senders each (others.len()/2 = 9).
            assert_eq!(batch.len(), 10 * 9);
            let changes = batch.changes();
            assert_eq!(changes.len(), 10 * 9, "the drawn list is as long as len()");
            for &(from, to, change) in &changes {
                assert_ne!(from, to);
                assert_eq!(change, BandwidthChange::Scale(0.5));
            }
        }
    }

    #[test]
    fn correlated_schedule_is_deterministic() {
        let a = correlated_decrease_schedule(
            10,
            SimDuration::from_secs(20),
            SimDuration::from_secs(40),
            &RngFactory::new(9),
        );
        let b = correlated_decrease_schedule(
            10,
            SimDuration::from_secs(20),
            SimDuration::from_secs(40),
            &RngFactory::new(9),
        );
        assert_eq!(a.len(), 2);
        assert_eq!(a.len(), b.len());
        for ((_, ba), (_, bb)) in a.iter().zip(b.iter()) {
            let drawn = ba.changes();
            assert_eq!(drawn.len(), 5 * 4);
            assert_eq!(drawn, bb.changes());
        }
        assert_ne!(a[0].1.changes(), a[1].1.changes(), "batches draw afresh");
    }

    type Change = (NodeId, NodeId, BandwidthChange);

    /// The schedule as it was built before batches were drawn when applied:
    /// every batch's list materialised up front. The lazy schedule must draw
    /// exactly these lists.
    fn eager_reference(
        n: usize,
        period: SimDuration,
        horizon: SimDuration,
        rng: &RngFactory,
    ) -> Vec<(SimTime, Vec<Change>)> {
        let mut rng = rng.stream("dynamics.correlated");
        let mut schedule = Vec::new();
        let mut t = SimTime::ZERO + period;
        let end = SimTime::ZERO + horizon;
        let all: Vec<u32> = (0..n as u32).collect();
        while t <= end {
            let mut batch = Vec::new();
            let mut victims = all.clone();
            victims.shuffle(&mut rng);
            let victims = &victims[..n / 2];
            for &v in victims {
                let mut others: Vec<u32> = all.iter().copied().filter(|&x| x != v).collect();
                others.shuffle(&mut rng);
                let senders = &others[..others.len() / 2];
                for &s in senders {
                    batch.push((NodeId(s), NodeId(v), BandwidthChange::Scale(0.5)));
                }
            }
            schedule.push((t, batch));
            t += period;
        }
        schedule
    }

    #[test]
    fn lazy_draw_equals_the_eager_reference() {
        for n in [2, 3, 7, 20, 60] {
            for seed in [1, 9, 20050410] {
                for (period, horizon) in [(20, 19), (20, 20), (20, 100), (8, 400)] {
                    let (period, horizon) = (
                        SimDuration::from_secs(period),
                        SimDuration::from_secs(horizon),
                    );
                    let rng = RngFactory::new(seed);
                    let lazy = correlated_decrease_schedule(n, period, horizon, &rng);
                    let eager = eager_reference(n, period, horizon, &rng);
                    assert_eq!(lazy.len(), eager.len(), "n {n} seed {seed}");
                    let mut topo = constrained_access(n);
                    for ((t, batch), (te, list)) in lazy.iter().zip(&eager) {
                        assert_eq!(t, te);
                        assert_eq!(batch.changes(), *list, "n {n} seed {seed} t {t:?}");
                        assert_eq!(batch.len(), list.len());
                        assert_eq!(batch.len(), n / 2 * ((n - 1) / 2));
                        assert_eq!(batch.is_empty(), list.is_empty());
                        assert_eq!(batch.clone().changes(), *list, "a clone draws the same");
                        let pairs: Vec<_> = list.iter().map(|&(from, to, _)| (from, to)).collect();
                        assert_eq!(batch.apply(&mut topo), pairs);
                    }
                    // A fresh schedule per order, so each order fills the
                    // start table itself.
                    for (order, indices) in draw_orders(eager.len()) {
                        let lazy = correlated_decrease_schedule(n, period, horizon, &rng);
                        for k in indices {
                            assert_eq!(
                                lazy[k].1.changes(),
                                eager[k].1,
                                "n {n} seed {seed} {order}: batch {k}"
                            );
                        }
                    }
                    let original = correlated_decrease_schedule(n, period, horizon, &rng);
                    let clone = original.clone();
                    drop(original);
                    for ((_, batch), (_, list)) in clone.iter().zip(&eager) {
                        assert_eq!(
                            batch.changes(),
                            *list,
                            "n {n} seed {seed}: a clone drawn after its original is dropped"
                        );
                    }
                }
            }
        }
    }

    /// The orders besides the schedule's own in which
    /// `lazy_draw_equals_the_eager_reference` draws `len` batches.
    fn draw_orders(len: usize) -> [(&'static str, Vec<usize>); 3] {
        let mid = len / 2;
        [
            ("reverse", (0..len).rev().collect()),
            ("middle-first", (mid..len).chain(0..mid).collect()),
            ("each twice", (0..len).flat_map(|k| [k, k]).collect()),
        ]
    }

    #[test]
    fn two_threads_drawing_clones_of_one_schedule_get_the_eager_lists() {
        let (period, horizon) = (SimDuration::from_secs(8), SimDuration::from_secs(400));
        for seed in [1, 9, 20050410] {
            let rng = RngFactory::new(seed);
            let eager = eager_reference(20, period, horizon, &rng);
            // A barrier ends each round. In turn, thread k % 2 alone draws
            // batch k in round k, so every start it reads the other thread
            // recorded; at once, both draw in every round, racing to record.
            for at_once in [false, true] {
                let schedule = correlated_decrease_schedule(20, period, horizon, &rng);
                let barrier = Barrier::new(2);
                let drawn: Vec<(usize, Vec<Change>)> = std::thread::scope(|scope| {
                    let threads: Vec<_> = (0..2)
                        .map(|parity| {
                            let (schedule, barrier) = (schedule.clone(), &barrier);
                            scope.spawn(move || {
                                let mut drawn = Vec::new();
                                for round in 0..schedule.len() {
                                    let k = if at_once { 2 * round + parity } else { round };
                                    if (at_once || round % 2 == parity) && k < schedule.len() {
                                        drawn.push((k, schedule[k].1.changes()));
                                    }
                                    barrier.wait();
                                }
                                drawn
                            })
                        })
                        .collect();
                    threads
                        .into_iter()
                        .flat_map(|thread| thread.join().expect("the thread drew"))
                        .collect()
                });
                assert_eq!(drawn.len(), eager.len());
                for (k, list) in drawn {
                    assert_eq!(list, eager[k].1, "seed {seed} at once {at_once}: batch {k}");
                }
            }
        }
    }

    #[test]
    fn building_and_sizing_a_schedule_records_no_start_beyond_the_first() {
        let schedule = correlated_decrease_schedule(
            60,
            SimDuration::from_secs(20),
            SimDuration::from_secs(7200),
            &RngFactory::new(3),
        );
        assert_eq!(schedule.len(), 360);
        let before = format!("{schedule:?}");
        let Changes::Correlated { starts, .. } = &schedule[0].1.changes else {
            panic!("a §4.1 batch is a correlated decrease");
        };
        for (k, (_, batch)) in schedule.iter().enumerate() {
            assert_eq!(batch.len(), 30 * 29);
            assert!(!batch.is_empty());
            let Changes::Correlated { index, starts: own } = &batch.changes else {
                panic!("a §4.1 batch is a correlated decrease");
            };
            assert_eq!(*index, k);
            assert!(Arc::ptr_eq(own, starts), "one table per schedule");
        }
        assert_eq!(starts.known().len(), 1, "only batch 0's start is known");
        schedule[2].1.changes();
        assert_eq!(
            starts.known().len(),
            4,
            "drawing batch 2 records batch 3's start"
        );
        assert_eq!(
            format!("{schedule:?}"),
            before,
            "Debug does not show the fill"
        );
    }

    #[test]
    #[should_panic(expected = "positive period")]
    fn correlated_schedule_rejects_a_zero_period() {
        correlated_decrease_schedule(
            10,
            SimDuration::ZERO,
            SimDuration::from_secs(40),
            &RngFactory::new(1),
        );
    }

    #[test]
    fn apply_scales_and_sets_bandwidth() {
        let mut topo = constrained_access(4);
        let before = topo.path(NodeId(0), NodeId(1)).bw;
        let batch = LinkChangeBatch::new(vec![
            (NodeId(0), NodeId(1), BandwidthChange::Scale(0.5)),
            (NodeId(2), NodeId(3), BandwidthChange::Set(kbps(100.0))),
        ]);
        let pairs = batch.apply(&mut topo);
        assert_eq!(pairs, vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
        assert_eq!(topo.path(NodeId(0), NodeId(1)).bw, before * 0.5);
        assert_eq!(topo.path(NodeId(2), NodeId(3)).bw, kbps(100.0));
        // Reverse directions untouched.
        assert_eq!(topo.path(NodeId(1), NodeId(0)).bw, mbps(10.0));
    }

    #[test]
    fn batch_scales_a_shared_link_once() {
        // Ten pairs of one batch riding one shared core link: the link is
        // halved once, not ten times (successive *batches* still compound).
        let mut topo = crate::topology::shared_core_mesh(6, mbps(2.0), 0.0, &RngFactory::new(1));
        let batch = LinkChangeBatch::new(
            (1..6)
                .flat_map(|v| {
                    [
                        (NodeId(0), NodeId(v), BandwidthChange::Scale(0.5)),
                        (NodeId(v), NodeId(0), BandwidthChange::Scale(0.5)),
                    ]
                })
                .collect(),
        );
        batch.apply(&mut topo);
        assert_eq!(topo.path(NodeId(0), NodeId(1)).bw, mbps(1.0));
        batch.apply(&mut topo);
        assert_eq!(topo.path(NodeId(2), NodeId(0)).bw, mbps(0.5));
    }

    #[test]
    fn cumulative_scaling_compounds() {
        let mut topo = constrained_access(3);
        let batch = LinkChangeBatch::new(vec![(NodeId(0), NodeId(1), BandwidthChange::Scale(0.5))]);
        batch.apply(&mut topo);
        batch.apply(&mut topo);
        assert_eq!(topo.path(NodeId(0), NodeId(1)).bw, mbps(10.0) * 0.25);
    }

    #[test]
    fn square_wave_alternates_on_and_off() {
        let via = (NodeId(0), NodeId(1));
        let wave = cross_traffic_square_wave(
            via,
            1000.0,
            SimDuration::from_secs(20),
            SimDuration::from_secs(100),
        );
        assert_eq!(wave.len(), 5, "boundaries at 20, 40, 60, 80, 100 s");
        for (i, (t, ct)) in wave.iter().enumerate() {
            assert_eq!(t.as_secs_f64(), 20.0 * (i + 1) as f64);
            assert_eq!(ct.via, via);
            let expected = if i % 2 == 0 { 1000.0 } else { 0.0 };
            assert_eq!(ct.rate, expected, "boundary {i} toggles the wave");
        }
        // A horizon shorter than one period produces no boundary at all.
        assert!(cross_traffic_square_wave(
            via,
            1000.0,
            SimDuration::from_secs(20),
            SimDuration::from_secs(19)
        )
        .is_empty());
    }

    #[test]
    fn crash_wave_picks_receivers_within_the_window() {
        let rng = RngFactory::new(12);
        let sched = crash_wave_schedule(
            20,
            0.25,
            SimTime::from_secs_f64(10.0),
            SimTime::from_secs_f64(30.0),
            &rng,
        );
        assert_eq!(sched.len(), 5, "25% of 19 receivers rounds to 5");
        let mut seen = std::collections::BTreeSet::new();
        for (t, ev) in &sched {
            assert!(matches!(ev, NodeEvent::Crash(_)));
            let node = ev.node();
            assert_ne!(node.0, 0, "the source never crashes");
            assert!(node.0 < 20);
            assert!(seen.insert(node.0), "each victim crashes once");
            assert!(*t >= SimTime::from_secs_f64(10.0));
            assert!(*t <= SimTime::from_secs_f64(30.0));
        }
        // Deterministic for a seed.
        let again = crash_wave_schedule(
            20,
            0.25,
            SimTime::from_secs_f64(10.0),
            SimTime::from_secs_f64(30.0),
            &RngFactory::new(12),
        );
        assert_eq!(sched, again);
        // Zero fraction crashes nobody.
        assert!(crash_wave_schedule(20, 0.0, SimTime::ZERO, SimTime::ZERO, &rng).is_empty());
    }

    #[test]
    fn crash_wave_edge_fractions_and_node_sets() {
        let rng = RngFactory::new(3);
        let start = SimTime::from_secs_f64(5.0);
        let end = SimTime::from_secs_f64(9.0);

        // 0%: nobody crashes, whatever the window.
        assert!(crash_wave_schedule(20, 0.0, start, end, &rng).is_empty());

        // 100%: every receiver crashes exactly once; the source survives;
        // the wave spans the whole window (first victim at start, last at
        // end).
        let all = crash_wave_schedule(20, 1.0, start, end, &rng);
        assert_eq!(all.len(), 19);
        let mut victims: Vec<u32> = all.iter().map(|(_, ev)| ev.node().0).collect();
        victims.sort_unstable();
        assert_eq!(victims, (1..20).collect::<Vec<u32>>());
        assert_eq!(all.first().unwrap().0, start);
        assert_eq!(all.last().unwrap().0, end);
        for w in all.windows(2) {
            assert!(w[0].0 <= w[1].0, "activation order");
        }

        // Empty / source-only node sets: nothing to crash, even at 100%.
        assert!(crash_wave_schedule(0, 1.0, start, end, &rng).is_empty());
        assert!(crash_wave_schedule(1, 1.0, start, end, &rng).is_empty());

        // A single victim crashes at the window start, not somewhere
        // undefined inside it.
        let one = crash_wave_schedule(9, 0.125, start, end, &rng);
        assert_eq!(one.len(), 1, "12.5% of 8 receivers is one victim");
        assert_eq!(one[0].0, start);
    }

    #[test]
    fn crash_wave_at_t_zero_is_valid() {
        // A zero-width window at t = 0: every victim crashes at the origin,
        // which the runner treats as "crashed before doing anything".
        let rng = RngFactory::new(8);
        let wave = crash_wave_schedule(10, 0.5, SimTime::ZERO, SimTime::ZERO, &rng);
        assert_eq!(wave.len(), 5, "50% of 9 receivers rounds to 5");
        assert!(wave.iter().all(|(t, _)| *t == SimTime::ZERO));
        assert!(wave
            .iter()
            .all(|(_, ev)| matches!(ev, NodeEvent::Crash(n) if n.0 != 0)));
    }

    #[test]
    fn flash_crowd_edge_groups() {
        let start = SimTime::from_secs_f64(2.0);
        let end = SimTime::from_secs_f64(6.0);

        // Everyone present from the start: nobody joins late.
        assert!(flash_crowd_schedule(10, 10, start, end).is_empty());
        // `initial > n` (a core group larger than the experiment): joiner
        // range is empty rather than inverted.
        assert!(flash_crowd_schedule(5, 8, start, end).is_empty());

        // A single late joiner arrives at the window start.
        let one = flash_crowd_schedule(10, 9, start, end);
        assert_eq!(one, vec![(start, NodeEvent::Join(NodeId(9)))]);

        // Zero-width window at t = 0: everyone "joins" at the origin.
        let at_zero = flash_crowd_schedule(6, 2, SimTime::ZERO, SimTime::ZERO);
        assert_eq!(at_zero.len(), 4);
        assert!(at_zero.iter().all(|(t, _)| *t == SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "source must be present")]
    fn flash_crowd_requires_a_source() {
        flash_crowd_schedule(5, 0, SimTime::ZERO, SimTime::ZERO);
    }

    #[test]
    fn flash_crowd_joins_everyone_after_the_core_group() {
        let sched = flash_crowd_schedule(
            10,
            4,
            SimTime::from_secs_f64(5.0),
            SimTime::from_secs_f64(15.0),
        );
        assert_eq!(sched.len(), 6, "nodes 4..10 join");
        for (i, (t, ev)) in sched.iter().enumerate() {
            assert_eq!(*ev, NodeEvent::Join(NodeId(4 + i as u32)));
            assert!(*t >= SimTime::from_secs_f64(5.0) && *t <= SimTime::from_secs_f64(15.0));
        }
        assert_eq!(sched[0].0, SimTime::from_secs_f64(5.0));
        assert_eq!(sched[5].0, SimTime::from_secs_f64(15.0));
        // Times are non-decreasing (activation order).
        for w in sched.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn cascading_schedule_degrades_one_link_per_period() {
        let senders: Vec<NodeId> = (0..6).map(NodeId).collect();
        let sched = cascading_degrade_schedule(&senders, NodeId(7), SimDuration::from_secs(25));
        assert_eq!(sched.len(), 6);
        assert_eq!(sched[0].0.as_secs_f64(), 25.0);
        assert_eq!(sched[5].0.as_secs_f64(), 150.0);
        for (i, (_, batch)) in sched.iter().enumerate() {
            assert_eq!(batch.len(), 1);
            assert_eq!(batch.changes()[0].0, NodeId(i as u32));
            assert_eq!(batch.changes()[0].1, NodeId(7));
        }
    }
}
