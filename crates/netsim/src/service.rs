//! Open-system service mode: generator-driven continuous swarms.
//!
//! Every experiment below `fig21` is a *closed* system: a fixed population
//! starts at t = 0, downloads one file, and the run ends when the last
//! receiver finishes. Real dissemination deployments are *open*: swarms keep
//! arriving, finish, and release their network share while new ones are
//! admitted. This module drives a [`Runner`] as such an open system:
//!
//! * [`ArrivalGen`] — where swarms come from: a Poisson process of a given
//!   offered rate, or a deterministic trace replayed exactly;
//! * [`SwarmSource`] — how a swarm looks: the caller draws per-swarm cohort
//!   sizes and file sizes from its own seeded distributions and builds the
//!   protocol instances for the slot range the manager assigns;
//! * [`ServiceConfig`] + [`run_service`] — the lifecycle manager: the node
//!   pool is partitioned into fixed-capacity contiguous *segments*; each
//!   arriving swarm claims the lowest free segment (FIFO-queueing behind a
//!   full pool — the queue is what bends the knee in the offered-load
//!   sweep), runs to completion over the shared contended topology, and is
//!   then retired, releasing its timers, in-flight events and flow-table
//!   rows for the next cohort (see [`Runner::retire`]);
//! * [`ServiceReport`] — steady-state results: sustained goodput over the
//!   post-warmup measurement window, per-cohort completion percentiles, and
//!   an admitted/completed/in-flight/utilisation time-series.
//!
//! Everything is a pure function of the seed: arrivals, shapes, join spreads
//! and the interleaving of swarms are all drawn from [`RngFactory`] streams,
//! so a service run is replayable and byte-identical across hosts and thread
//! counts, exactly like a closed [`RunReport`](crate::RunReport).
//!
//! ### Measurement semantics
//!
//! Per-receiver completion latency is measured from the swarm's *arrival*
//! (not its admission), so time spent queueing for a free segment counts —
//! the open-system response-time convention. Sustained goodput is the total
//! useful-byte production of the whole pool between the warmup boundary and
//! the horizon, divided by that window; bytes banked by cohorts that retire
//! mid-window are accumulated before their slots are recycled, so nothing is
//! lost to reuse.

use std::collections::VecDeque;

use desim::{RngFactory, SimDuration, SimTime};
use rand::Rng;

use crate::dynamics::NodeEvent;
use crate::probe::{quantile_index, TimeSeries};
use crate::protocol::Protocol;
use crate::runner::Runner;
use crate::topology::{LinkId, NodeId};

/// Where swarms come from.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalGen {
    /// Memoryless arrivals at `rate_per_sec` swarms per virtual second
    /// (exponential inter-arrival times, drawn from the factory's
    /// `"service.arrivals"` stream).
    Poisson {
        /// Offered swarm-arrival rate, swarms per virtual second.
        rate_per_sec: f64,
    },
    /// A deterministic arrival trace, replayed exactly (must be sorted
    /// ascending).
    Trace(Vec<SimTime>),
}

/// Materialises the arrival instants within `horizon`, capped at
/// `max_arrivals`. Pure function of the generator and the factory seed, so
/// tests can assert the closed-form statistics of the Poisson stream and the
/// exact replay of a trace without running any swarm.
///
/// # Panics
///
/// Panics on a non-positive Poisson rate or an unsorted trace.
pub fn arrival_schedule(
    gen: &ArrivalGen,
    horizon: SimTime,
    max_arrivals: usize,
    rng: &RngFactory,
) -> Vec<SimTime> {
    match gen {
        ArrivalGen::Poisson { rate_per_sec } => {
            assert!(*rate_per_sec > 0.0, "Poisson arrival rate must be positive");
            let mut stream = rng.stream("service.arrivals");
            let mut t = 0.0f64;
            let mut out = Vec::new();
            while out.len() < max_arrivals {
                // gen::<f64>() is uniform on [0, 1); flip it so the argument
                // of ln is never zero.
                let u: f64 = stream.gen();
                t += -(1.0 - u).ln() / rate_per_sec;
                if t > horizon.as_secs_f64() {
                    break;
                }
                out.push(SimTime::from_secs_f64(t));
            }
            out
        }
        ArrivalGen::Trace(times) => {
            assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "arrival trace must be sorted ascending"
            );
            times
                .iter()
                .filter(|&&t| t <= horizon)
                .take(max_arrivals)
                .copied()
                .collect()
        }
    }
}

/// The shape of one arriving swarm, drawn by the [`SwarmSource`].
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmShape {
    /// Slots the swarm occupies, source included. Must be at least 2 and at
    /// most the segment capacity.
    pub size: usize,
    /// Bytes of the file this swarm disseminates (informational; the
    /// source's built nodes embody it).
    pub file_bytes: u64,
    /// Slots active at admission (source included, so at least 1). The
    /// remaining `size - initial` receivers join spread over
    /// `join_window_secs` — a flash crowd when `initial` is small.
    pub initial: usize,
    /// Window (seconds after admission) over which the late joiners arrive,
    /// uniformly. Ignored when `initial == size`.
    pub join_window_secs: f64,
}

/// Builds the swarms the service admits. Implementations draw shapes from
/// their own seeded streams (index is the 0-based arrival number, so draws
/// are independent of admission timing) and construct protocol instances
/// for the contiguous slot range `[base, base + shape.size)`; the first slot
/// is the swarm's source.
pub trait SwarmSource<P: Protocol> {
    /// Draws the shape of the `index`-th arriving swarm.
    fn shape(&mut self, index: usize) -> SwarmShape;

    /// Builds the protocol instances for a swarm occupying the slot range
    /// starting at `base`. Must return exactly `shape.size` nodes, in slot
    /// order (the node for `base` first). The node for `base` is the source:
    /// it holds the file, so it reports [`Protocol::is_complete`] from its
    /// admission on, and nothing exempts it from the completion condition.
    fn build(&mut self, base: NodeId, shape: &SwarmShape) -> Vec<P>;
}

/// Configuration of a service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// End of the service window: arrivals and measurement stop here.
    pub horizon: SimTime,
    /// Start of the steady-state measurement window. Goodput earned before
    /// the warmup boundary is excluded from the sustained figure.
    pub warmup: SimTime,
    /// Cadence of the admitted/completed/in-flight/utilisation samples (and
    /// the bound on how long a finished swarm can linger before it is
    /// reaped).
    pub tick: SimDuration,
    /// Slots per segment: the fixed capacity unit an arriving swarm claims.
    /// The pool serves `pool_size / segment_slots` swarms concurrently.
    pub segment_slots: usize,
    /// Hard cap on the number of arrivals materialised from the generator.
    pub max_arrivals: usize,
    /// The contended core link, if the topology has one: sampled into
    /// [`ServiceSample::core_utilisation`].
    pub core: Option<LinkId>,
}

/// One steady-state sample of the whole service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSample {
    /// Virtual time of the sample, seconds.
    pub time_secs: f64,
    /// Swarms admitted so far (cumulative).
    pub admitted: usize,
    /// Swarms completed and reaped so far (cumulative).
    pub completed: usize,
    /// Swarms occupying a segment at the instant.
    pub in_flight: usize,
    /// Swarms waiting for a free segment at the instant.
    pub queued: usize,
    /// Load / capacity of the configured core link, in `[0, 1]` under
    /// fluid-model invariants (0 when no core link is configured).
    pub core_utilisation: f64,
    /// Service-wide useful goodput over the elapsed tick, bits per second.
    pub goodput_bps: f64,
}

/// Completion summary of one reaped cohort. Latencies are measured from the
/// swarm's *arrival* instant, so segment-queueing delay is included.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortReport {
    /// The cohort's unique id, from 1 in admission order.
    pub cohort: u32,
    /// Slots the swarm occupied, source included.
    pub size: usize,
    /// Bytes of the file it disseminated.
    pub file_bytes: u64,
    /// When the swarm arrived (seconds).
    pub arrival_secs: f64,
    /// When it was admitted to a segment (equals `arrival_secs` unless it
    /// queued).
    pub admit_secs: f64,
    /// When the manager reaped it (at most one tick after its last receiver
    /// finished).
    pub reaped_secs: f64,
    /// Median receiver completion latency, seconds since arrival.
    pub p50_secs: f64,
    /// 90th-percentile receiver completion latency.
    pub p90_secs: f64,
    /// 99th-percentile receiver completion latency.
    pub p99_secs: f64,
}

/// Results of a service run. Every field is a deterministic function of the
/// configuration and seed — like [`RunReport`](crate::RunReport), the report
/// is carried through byte-identity comparisons via its `Debug` form (see
/// [`ServiceReport::canonical`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// The service window, seconds.
    pub horizon_secs: f64,
    /// The warmup boundary, seconds.
    pub warmup_secs: f64,
    /// Useful bytes produced pool-wide inside the measurement window.
    pub steady_useful_bytes: u64,
    /// `steady_useful_bytes` as a rate over the measurement window, bits
    /// per second: the sustained-goodput figure of merit.
    pub sustained_goodput_bps: f64,
    /// Arrivals materialised within the horizon.
    pub arrivals: usize,
    /// Swarms admitted to a segment.
    pub admitted: usize,
    /// Swarms that completed and were reaped.
    pub completed: usize,
    /// Swarms still occupying a segment at the horizon.
    pub in_flight_at_end: usize,
    /// Swarms still queueing for a segment at the horizon.
    pub queued_at_end: usize,
    /// Peak number of concurrently admitted swarms.
    pub max_concurrent: usize,
    /// Per-cohort completion summaries, in reap order.
    pub cohorts: Vec<CohortReport>,
    /// Whole-service samples, one per tick from t = 0.
    pub samples: Vec<ServiceSample>,
    /// Total simulator events processed.
    pub events: u64,
    /// The per-slot probe series, if the caller asked for one via
    /// [`Runner::record_timeseries`] before the run.
    pub timeseries: Option<TimeSeries>,
}

impl ServiceReport {
    /// Canonical string form for byte-identity comparisons.
    pub fn canonical(&self) -> String {
        format!("{self:?}")
    }

    /// `q`-quantile of the per-cohort median completion latency across all
    /// reaped cohorts, weighted by receiver count. `None` if nothing
    /// completed.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        let mut all: Vec<f64> = Vec::new();
        for c in &self.cohorts {
            for _ in 0..c.size.saturating_sub(1) {
                all.push(c.p50_secs);
            }
        }
        if all.is_empty() {
            return None;
        }
        all.sort_by(f64::total_cmp);
        Some(all[quantile_index(all.len(), q)])
    }
}

struct ActiveSwarm {
    cohort: u32,
    base: u32,
    size: usize,
    file_bytes: u64,
    arrival: SimTime,
    admit: SimTime,
}

struct QueuedSwarm {
    index: usize,
    arrival: SimTime,
}

/// Drives `runner` as an open system: swarms arrive per `gen`, are shaped
/// and built by `source`, and contend for the runner's topology until
/// `cfg.horizon`. The runner must be freshly constructed (virtual time 0);
/// every slot is deactivated here, so the pool's placeholder nodes are never
/// initialised — slots only come alive when a cohort is admitted.
///
/// # Panics
///
/// Panics if the runner is not at virtual time zero, if the pool is smaller
/// than one segment, or if a drawn shape violates its documented bounds.
pub fn run_service<P, S>(
    runner: &mut Runner<P>,
    cfg: &ServiceConfig,
    gen: &ArrivalGen,
    source: &mut S,
    rng: &RngFactory,
) -> ServiceReport
where
    P: Protocol,
    S: SwarmSource<P>,
{
    assert_eq!(
        runner.now(),
        SimTime::ZERO,
        "service mode needs a fresh runner"
    );
    assert!(cfg.segment_slots >= 2, "a segment needs source + receiver");
    assert!(cfg.warmup < cfg.horizon, "warmup must precede the horizon");
    let tick = cfg.tick;
    assert!(tick > SimDuration::ZERO, "tick must be positive");
    let pool = runner.nodes().len();
    let segments = pool / cfg.segment_slots;
    assert!(segments >= 1, "pool smaller than one segment");

    for i in 0..pool as u32 {
        runner.set_inactive_at_start(NodeId(i));
    }
    runner.set_run_to_limit(true);

    let arrivals = arrival_schedule(gen, cfg.horizon, cfg.max_arrivals, rng);

    // Lowest-base-first free list (kept sorted descending so `pop` yields
    // the lowest base): admission order over segments is deterministic and
    // independent of which swarm freed which segment.
    let mut free: Vec<u32> = (0..segments as u32)
        .rev()
        .map(|s| s * cfg.segment_slots as u32)
        .collect();
    let mut queue: VecDeque<QueuedSwarm> = VecDeque::new();
    let mut active: Vec<ActiveSwarm> = Vec::new();
    let mut cohorts: Vec<CohortReport> = Vec::new();
    let mut samples: Vec<ServiceSample> = Vec::new();

    let mut next_cohort: u32 = 1;
    let mut next_arrival = 0usize;
    let mut admitted = 0usize;
    let mut max_concurrent = 0usize;
    let mut retired_useful: u64 = 0;
    let mut warmup_useful: Option<u64> = None;
    let mut prev_total: u64 = 0;
    let mut prev_sample_t = 0.0f64;
    let mut next_tick = SimTime::ZERO;

    loop {
        // Advance to the next instant the manager must act at.
        let mut boundary = cfg.horizon;
        if warmup_useful.is_none() && cfg.warmup < boundary {
            boundary = boundary.min(cfg.warmup);
        }
        if next_tick < boundary {
            boundary = next_tick;
        }
        if let Some(&t) = arrivals.get(next_arrival) {
            if t < boundary {
                boundary = t;
            }
        }
        runner.advance_until(boundary);
        let now = runner.now();

        // Reap swarms whose receivers have all finished: bank their useful
        // bytes, then recycle their slots (timers cancelled, flows released,
        // stale events fenced off by the slot-incarnation bump).
        let mut i = 0;
        while i < active.len() {
            let done = (active[i].base + 1..active[i].base + active[i].size as u32)
                .all(|s| runner.completion_time(NodeId(s)).is_some());
            if !done {
                i += 1;
                continue;
            }
            let swarm = active.swap_remove(i);
            let mut latencies: Vec<f64> = Vec::with_capacity(swarm.size - 1);
            let slots: Vec<NodeId> = (swarm.base..swarm.base + swarm.size as u32)
                .map(NodeId)
                .collect();
            for &slot in &slots {
                retired_useful += runner.node(slot).probe_stats().useful_bytes;
                if slot.0 != swarm.base {
                    let t = runner
                        .completion_time(slot)
                        .expect("reaped swarm has complete receivers");
                    latencies.push((t - swarm.arrival).as_secs_f64());
                }
            }
            runner.retire(&slots);
            latencies.sort_by(f64::total_cmp);
            cohorts.push(CohortReport {
                cohort: swarm.cohort,
                size: swarm.size,
                file_bytes: swarm.file_bytes,
                arrival_secs: swarm.arrival.as_secs_f64(),
                admit_secs: swarm.admit.as_secs_f64(),
                reaped_secs: now.as_secs_f64(),
                p50_secs: latencies[quantile_index(latencies.len(), 0.5)],
                p90_secs: latencies[quantile_index(latencies.len(), 0.9)],
                p99_secs: latencies[quantile_index(latencies.len(), 0.99)],
            });
            free.push(swarm.base);
            free.sort_unstable_by(|a, b| b.cmp(a));
        }

        // Enqueue arrivals that are due, then admit while segments are free.
        // Arrivals cease at the horizon; swarms already in flight keep
        // running only up to the horizon itself.
        if now < cfg.horizon {
            while arrivals.get(next_arrival).is_some_and(|&t| t <= now) {
                queue.push_back(QueuedSwarm {
                    index: next_arrival,
                    arrival: arrivals[next_arrival],
                });
                next_arrival += 1;
            }
            while let Some(&base) = free.last() {
                let Some(next) = queue.pop_front() else { break };
                free.pop();
                let shape = source.shape(next.index);
                assert!(
                    shape.size >= 2 && shape.size <= cfg.segment_slots,
                    "swarm size {} outside [2, {}]",
                    shape.size,
                    cfg.segment_slots
                );
                let initial = shape.initial.clamp(1, shape.size);
                let nodes = source.build(NodeId(base), &shape);
                assert_eq!(nodes.len(), shape.size, "source built a wrong-size swarm");
                let cohort = next_cohort;
                next_cohort += 1;
                for (off, fresh) in nodes.into_iter().enumerate() {
                    let slot = NodeId(base + off as u32);
                    runner.replace_node(slot, fresh);
                }
                let initial_slots: Vec<NodeId> =
                    (0..initial as u32).map(|off| NodeId(base + off)).collect();
                runner.activate_cohort(&initial_slots);
                if initial < shape.size {
                    // Late joiners: the flash-crowd tail, spread uniformly
                    // over the join window from a per-cohort stream so the
                    // spread is independent of every other draw.
                    let mut jr = rng.stream_indexed("service.joins", u64::from(cohort));
                    for off in initial as u32..shape.size as u32 {
                        let dt = jr.gen::<f64>() * shape.join_window_secs.max(0.0);
                        runner.schedule_node_event(
                            now + SimDuration::from_secs_f64(dt),
                            NodeEvent::Join(NodeId(base + off)),
                        );
                    }
                }
                active.push(ActiveSwarm {
                    cohort,
                    base,
                    size: shape.size,
                    file_bytes: shape.file_bytes,
                    arrival: next.arrival,
                    admit: now,
                });
                admitted += 1;
                max_concurrent = max_concurrent.max(active.len());
            }
        }

        // Pool-wide useful-byte total: everything banked by reaped cohorts
        // plus the live counters of currently-admitted slots.
        let live_useful: u64 = active
            .iter()
            .flat_map(|s| s.base..s.base + s.size as u32)
            .map(|s| runner.node(NodeId(s)).probe_stats().useful_bytes)
            .sum();
        let total_useful = retired_useful + live_useful;

        if warmup_useful.is_none() && now >= cfg.warmup {
            warmup_useful = Some(total_useful);
        }

        if now >= next_tick {
            let t = now.as_secs_f64();
            let dt = t - prev_sample_t;
            let core_utilisation = cfg.core.map_or(0.0, |link| {
                let cap = runner.network().topology().link_capacity(link);
                if cap > 0.0 {
                    runner.network().link_load(link) / cap
                } else {
                    0.0
                }
            });
            samples.push(ServiceSample {
                time_secs: t,
                admitted,
                completed: cohorts.len(),
                in_flight: active.len(),
                queued: queue.len(),
                core_utilisation,
                goodput_bps: if dt > 0.0 {
                    (total_useful - prev_total) as f64 * 8.0 / dt
                } else {
                    0.0
                },
            });
            prev_total = total_useful;
            prev_sample_t = t;
            next_tick += tick;
        }

        if now >= cfg.horizon {
            let window = (cfg.horizon - cfg.warmup).as_secs_f64().max(1e-9);
            let steady = total_useful.saturating_sub(warmup_useful.unwrap_or(total_useful));
            runner.set_run_to_limit(false);
            return ServiceReport {
                horizon_secs: cfg.horizon.as_secs_f64(),
                warmup_secs: cfg.warmup.as_secs_f64(),
                steady_useful_bytes: steady,
                sustained_goodput_bps: steady as f64 * 8.0 / window,
                arrivals: arrivals.len(),
                admitted,
                completed: cohorts.len(),
                in_flight_at_end: active.len(),
                queued_at_end: queue.len(),
                max_concurrent,
                cohorts,
                samples,
                events: runner.events_processed(),
                timeseries: runner.take_timeseries(),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{BlockReceipt, Network};
    use crate::probe::ProbeStats;
    use crate::protocol::{Ctx, WireSize};
    use crate::runner::StopReason;
    use crate::topology;
    use dissem_codec::{BlockBitmap, BlockId, FileSpec};

    #[test]
    fn poisson_interarrivals_match_the_closed_form() {
        // Exponential(λ): mean 1/λ, variance 1/λ². 4000 draws keep the
        // sample statistics within a few percent of the closed form.
        let rng = RngFactory::new(20050410);
        let rate = 0.5;
        let times = arrival_schedule(
            &ArrivalGen::Poisson { rate_per_sec: rate },
            SimTime::from_secs_f64(1e9),
            4000,
            &rng,
        );
        assert_eq!(times.len(), 4000);
        let instants: Vec<f64> = std::iter::once(0.0)
            .chain(times.iter().map(|t| t.as_secs_f64()))
            .collect();
        let gaps: Vec<f64> = instants.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.05 / rate,
            "sample mean {mean} too far from {}",
            1.0 / rate
        );
        assert!(
            (var - 1.0 / (rate * rate)).abs() < 0.2 / (rate * rate),
            "sample variance {var} too far from {}",
            1.0 / (rate * rate)
        );
        // The schedule is a pure function of the seed.
        let again = arrival_schedule(
            &ArrivalGen::Poisson { rate_per_sec: rate },
            SimTime::from_secs_f64(1e9),
            4000,
            &rng,
        );
        assert_eq!(times, again);
    }

    #[test]
    fn trace_arrivals_replay_exactly() {
        let rng = RngFactory::new(1);
        let trace = vec![
            SimTime::from_secs_f64(0.5),
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(7.25),
        ];
        let sched = arrival_schedule(
            &ArrivalGen::Trace(trace.clone()),
            SimTime::from_secs_f64(5.0),
            100,
            &rng,
        );
        assert_eq!(sched, &trace[..3], "horizon-filtered exact replay");
        let capped = arrival_schedule(
            &ArrivalGen::Trace(trace.clone()),
            SimTime::from_secs_f64(100.0),
            2,
            &rng,
        );
        assert_eq!(capped, &trace[..2], "max_arrivals caps the schedule");
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn unsorted_traces_are_rejected() {
        let rng = RngFactory::new(1);
        let _ = arrival_schedule(
            &ArrivalGen::Trace(vec![
                SimTime::from_secs_f64(2.0),
                SimTime::from_secs_f64(1.0),
            ]),
            SimTime::from_secs_f64(10.0),
            10,
            &rng,
        );
    }

    /// Minimal swarm protocol for service tests: the segment's source floods
    /// every receiver in its range directly, with a keep-alive timer so
    /// timer-leak regressions are visible.
    #[derive(Clone)]
    struct MiniSwarm {
        id: NodeId,
        base: u32,
        size: usize,
        spec: FileSpec,
        have: BlockBitmap,
        next_to_send: Vec<u32>,
        bytes: u64,
    }

    #[derive(Debug, Clone)]
    enum NoMsg {}

    impl WireSize for NoMsg {
        fn wire_size(&self) -> usize {
            0
        }
    }

    impl MiniSwarm {
        fn new(id: NodeId, base: u32, size: usize, spec: FileSpec) -> Self {
            let have = if id.0 == base {
                BlockBitmap::full(spec.num_blocks())
            } else {
                BlockBitmap::new(spec.num_blocks())
            };
            MiniSwarm {
                id,
                base,
                size,
                spec,
                have,
                next_to_send: vec![0; size],
                bytes: 0,
            }
        }

        fn is_source(&self) -> bool {
            self.id.0 == self.base
        }

        fn fill(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId) {
            let idx = (to.0 - self.base) as usize;
            let mut queued = 0usize;
            while ctx.pending_to(to) + queued < 2 && self.next_to_send[idx] < self.spec.num_blocks()
            {
                let b = BlockId(self.next_to_send[idx]);
                ctx.queue_block(to, b, u64::from(self.spec.block_size(b)));
                self.next_to_send[idx] += 1;
                queued += 1;
            }
        }
    }

    impl Protocol for MiniSwarm {
        type Msg = NoMsg;
        type Timer = ();

        fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
            // The flood starts from the first timer tick, not from on_init:
            // at admission the source is activated before its receivers, and
            // blocks queued towards inactive peers are discarded by design.
            ctx.set_timer(SimDuration::from_secs(1), ());
        }

        fn on_control(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: NoMsg) {}

        fn on_block_received(&mut self, _c: &mut Ctx<'_, Self>, _f: NodeId, r: BlockReceipt) {
            if self.have.insert(r.block) {
                self.bytes += r.bytes;
            }
        }

        fn on_block_sent(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId, _block: BlockId) {
            if self.is_source() {
                self.fill(ctx, to);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _t: ()) {
            // Re-arms forever; only retirement may stop it. Timer-leak
            // regressions show up as pending events after the last reap.
            ctx.set_timer(SimDuration::from_secs(1), ());
            if self.is_source() {
                for off in 1..self.size as u32 {
                    self.fill(ctx, NodeId(self.base + off));
                }
            }
        }

        fn is_complete(&self) -> bool {
            self.have.is_full()
        }

        fn probe_stats(&self) -> ProbeStats {
            ProbeStats {
                useful_bytes: self.bytes,
                ..Default::default()
            }
        }
    }

    struct MiniSource {
        spec: FileSpec,
        size: usize,
    }

    impl SwarmSource<MiniSwarm> for MiniSource {
        fn shape(&mut self, _index: usize) -> SwarmShape {
            SwarmShape {
                size: self.size,
                file_bytes: self.spec.file_bytes,
                initial: self.size,
                join_window_secs: 0.0,
            }
        }

        fn build(&mut self, base: NodeId, shape: &SwarmShape) -> Vec<MiniSwarm> {
            (0..shape.size)
                .map(|i| MiniSwarm::new(NodeId(base.0 + i as u32), base.0, shape.size, self.spec))
                .collect()
        }
    }

    fn mini_runner(pool: usize) -> Runner<MiniSwarm> {
        let rng = RngFactory::new(20050410);
        let topo = topology::constrained_access(pool);
        let spec = FileSpec::new(64 * 1024, 16 * 1024);
        let nodes: Vec<MiniSwarm> = (0..pool)
            .map(|i| MiniSwarm::new(NodeId(i as u32), 0, pool, spec))
            .collect();
        Runner::new(Network::new(topo), nodes, &rng)
    }

    fn mini_cfg(horizon: f64, segment_slots: usize) -> ServiceConfig {
        ServiceConfig {
            horizon: SimTime::from_secs_f64(horizon),
            warmup: SimTime::from_secs_f64(horizon * 0.25),
            tick: SimDuration::from_secs(5),
            segment_slots,
            max_arrivals: 64,
            core: None,
        }
    }

    #[test]
    fn swarm_teardown_releases_events_and_flows() {
        // Leak regression (the reason `retire` exists): after each swarm is
        // reaped, the event queue and the flow table must return to their
        // idle baselines — a leak would grow them per cohort and eventually
        // poison a long service run.
        let mut runner = mini_runner(4);
        let spec = FileSpec::new(64 * 1024, 16 * 1024);
        let mut source = MiniSource { spec, size: 4 };
        let rng = RngFactory::new(20050410);
        let gen = ArrivalGen::Trace(vec![
            SimTime::from_secs_f64(0.0),
            SimTime::from_secs_f64(40.0),
            SimTime::from_secs_f64(80.0),
        ]);
        let report = run_service(&mut runner, &mini_cfg(120.0, 4), &gen, &mut source, &rng);
        assert_eq!(report.admitted, 3);
        assert_eq!(
            report.completed, 3,
            "all three sequential swarms finish well within their slot: {report:?}"
        );
        assert_eq!(
            runner.network().live_flows(),
            0,
            "retired cohorts must release every flow-table row"
        );
        assert_eq!(
            runner.pending_events(),
            0,
            "retired cohorts must leave no timers or deliveries pending"
        );
    }

    #[test]
    fn checkpoints_carry_the_open_system_state() {
        // The closed-run round trips of `tests/snapshot_fork.rs` never touch
        // slot incarnations, per-node timer keys, released flow ids, the
        // probe's per-slot baselines or run-to-limit. Here one cohort is
        // retired with blocks on the wire and a second takes over its slots;
        // the run is checkpointed once while those stale blocks are still in
        // flight and once in the middle of the second cohort's download.
        let spec = FileSpec::new(256 * 1024, 16 * 1024);
        let limit = SimTime::from_secs_f64(60.0);
        let tick = SimDuration::from_secs(2);
        let counter =
            |r: &Runner<MiniSwarm>, name: &str| r.metrics_snapshot().counter(name).unwrap_or(0);
        let on_the_wire =
            |r: &Runner<MiniSwarm>| counter(r, "blocks_sent") - counter(r, "blocks_delivered");
        let drive = |checkpointed: bool| {
            let fork = |runner: Runner<MiniSwarm>| {
                if checkpointed {
                    Runner::resume(runner.checkpoint())
                } else {
                    runner
                }
            };
            // First cohort: the pool's own nodes, active from t = 0.
            let mut runner = mini_runner(4);
            runner.set_run_to_limit(true);
            runner.record_timeseries(tick);
            let slots: Vec<NodeId> = (0..4).map(NodeId).collect();
            // Stop at the first millisecond boundary after the probe's first
            // tick with a block between its sender and its receiver (delivery
            // takes 3 ms here).
            while runner.now() < SimTime::ZERO + tick || on_the_wire(&runner) == 0 {
                let next = runner.now() + SimDuration::from_millis(1);
                assert!(next < limit, "premise: the first cohort sends blocks");
                runner.advance_until(next);
            }
            let stale = on_the_wire(&runner);
            runner.retire(&slots);
            for &slot in &slots {
                runner.replace_node(slot, MiniSwarm::new(slot, 0, 4, spec));
            }
            runner.activate_cohort(&slots);
            let mut runner = fork(runner);
            assert_eq!(on_the_wire(&runner), stale, "still in flight at the fork");

            // The first probe tick after the replacement.
            let reason = runner.advance_until(SimTime::ZERO + tick + tick);
            assert_eq!(reason, StopReason::TimeLimit);
            let fresh = runner.node(NodeId(1)).bytes;
            assert!(fresh > 0, "premise: mid-download");
            assert!(runner.completion_time(NodeId(1)).is_none());
            let mut runner = fork(runner);

            let report = runner.run_until(limit);
            assert_eq!(
                report.reason,
                StopReason::TimeLimit,
                "run-to-limit survives"
            );
            assert!(report.completion_secs[1..].iter().all(Option::is_some));
            // Every block of the second cohort arrived, so what is still
            // missing is what the first cohort had on the wire: dropped at
            // delivery because the slot incarnation moved on.
            assert_eq!(on_the_wire(&runner), stale);
            runner.retire(&slots);
            assert_eq!(runner.pending_events(), 1, "only the probe tick is left");
            (report, fresh)
        };
        let (straight, fresh) = drive(false);
        assert_eq!(drive(true).0.canonical(), straight.canonical());
        // `replace_node` restarted slot 1's byte baseline: the first sample
        // after it is the fresh node's bytes over the tick, not their excess
        // over what the previous occupant had banked by the sample before.
        let series = straight.timeseries.expect("probe installed");
        let node1 = |t: f64| {
            let sample = series.samples.iter().find(|s| s.time_secs == t);
            sample.expect("a sample every tick").nodes[1].goodput_bps
        };
        assert!(
            node1(2.0) > 0.0,
            "premise: the previous occupant banked bytes"
        );
        assert_eq!(node1(4.0), fresh as f64 * 8.0 / 2.0);
    }

    #[test]
    fn queued_swarms_wait_for_a_free_segment() {
        // One segment, two simultaneous arrivals: the second swarm queues
        // and is admitted only after the first retires.
        let mut runner = mini_runner(4);
        let spec = FileSpec::new(64 * 1024, 16 * 1024);
        let mut source = MiniSource { spec, size: 4 };
        let rng = RngFactory::new(20050410);
        let gen = ArrivalGen::Trace(vec![SimTime::ZERO, SimTime::ZERO]);
        let report = run_service(&mut runner, &mini_cfg(160.0, 4), &gen, &mut source, &rng);
        assert_eq!(report.admitted, 2);
        assert_eq!(report.completed, 2, "{report:?}");
        let second = &report.cohorts[1];
        assert_eq!(second.arrival_secs, 0.0);
        assert!(
            second.admit_secs >= report.cohorts[0].reaped_secs,
            "queued swarm admitted only after the first frees the segment: {report:?}"
        );
        assert!(
            second.p50_secs > report.cohorts[0].p50_secs,
            "queueing delay counts into completion latency"
        );
    }

    #[test]
    fn service_runs_are_deterministic() {
        let run = || {
            let mut runner = mini_runner(8);
            runner.record_timeseries(SimDuration::from_secs(10));
            let spec = FileSpec::new(64 * 1024, 16 * 1024);
            let mut source = MiniSource { spec, size: 4 };
            let rng = RngFactory::new(20050410);
            let gen = ArrivalGen::Poisson { rate_per_sec: 0.04 };
            run_service(&mut runner, &mini_cfg(400.0, 4), &gen, &mut source, &rng).canonical()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sustained_goodput_counts_only_the_measurement_window() {
        let mut runner = mini_runner(4);
        let spec = FileSpec::new(64 * 1024, 16 * 1024);
        let mut source = MiniSource { spec, size: 4 };
        let rng = RngFactory::new(20050410);
        // A single swarm that finishes during warmup: nothing of it may leak
        // into the steady-state figure.
        let gen = ArrivalGen::Trace(vec![SimTime::ZERO]);
        let cfg = ServiceConfig {
            horizon: SimTime::from_secs_f64(200.0),
            warmup: SimTime::from_secs_f64(100.0),
            tick: SimDuration::from_secs(5),
            segment_slots: 4,
            max_arrivals: 8,
            core: None,
        };
        let report = run_service(&mut runner, &cfg, &gen, &mut source, &rng);
        assert_eq!(report.completed, 1);
        assert!(
            report.cohorts[0].reaped_secs < 100.0,
            "premise: the swarm must finish inside warmup: {report:?}"
        );
        assert_eq!(report.steady_useful_bytes, 0);
        assert_eq!(report.sustained_goodput_bps, 0.0);
    }

    #[test]
    fn replayed_service_traces_reproduce_the_live_goodput_series() {
        // The offline path: `replay_goodput` over a service run's trace must
        // rebuild the live probe's series, including the cohort reset when a
        // retired slot is re-populated by a later swarm (node_join zeroes the
        // slot's cumulative count). Three sequential swarms over one segment
        // exercise exactly that re-population.
        use crate::trace::{replay_goodput, RingSink, TraceRecord, TraceSink};

        let pool = 4;
        let mut runner = mini_runner(pool);
        runner.set_trace_sink(Box::new(RingSink::new(1 << 16)));
        runner.record_timeseries(SimDuration::from_secs(5));
        let spec = FileSpec::new(64 * 1024, 16 * 1024);
        let mut source = MiniSource { spec, size: 4 };
        let rng = RngFactory::new(20050410);
        let gen = ArrivalGen::Trace(vec![
            SimTime::ZERO,
            SimTime::from_secs_f64(40.0),
            SimTime::from_secs_f64(80.0),
        ]);
        let report = run_service(&mut runner, &mini_cfg(120.0, 4), &gen, &mut source, &rng);
        assert_eq!(report.completed, 3, "premise: all three swarms finish");

        let ring = runner
            .take_trace_sink::<RingSink>()
            .expect("a ring was installed");
        assert_eq!(ring.dropped(), 0, "ring must hold the whole trace");
        let records: Vec<TraceRecord> = ring.into_records();
        let replay =
            replay_goodput(&records, pool).expect("an untraced-prefix-free stream replays");

        let live = report.timeseries.as_ref().expect("timeseries recorded");
        assert_eq!(
            replay.len(),
            live.samples.len(),
            "replay must see one probe_tick per live sample"
        );
        for (r, l) in replay.iter().zip(&live.samples) {
            assert_eq!(r.time_secs, l.time_secs);
            assert_eq!(r.goodput_bps.len(), l.nodes.len());
            for (node, (got, want)) in r
                .goodput_bps
                .iter()
                .zip(l.nodes.iter().map(|n| n.goodput_bps))
                .enumerate()
            {
                let tol = 1e-6 * want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= tol,
                    "t={}s node {node}: replay {got} vs live {want}",
                    r.time_secs
                );
            }
        }
        assert!(
            replay
                .iter()
                .any(|s| s.goodput_bps.iter().any(|&g| g > 0.0)),
            "premise: the series must contain non-zero goodput"
        );
    }
}
