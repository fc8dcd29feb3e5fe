//! The traced pass: one instrumented repetition of a workload, its extra
//! comparison points and the layer drivers, turned into the per-layer
//! metrics of [`crate::spec::PER_LAYER`].
//!
//! Three kinds of number, kept apart: **counts** read from reports,
//! **measured** shares from spans the harness timed (hooks through
//! [`Timed`], stages through time marks), and **estimated** shares from
//! layer drivers (`*.est_share`: unit cost × count ÷ run time).
//! `netsim.runner.residual_share` is what neither explains.

use std::collections::BTreeMap;

use bullet_bench::systems::paper_dynamic_schedule;
use bullet_prime::Config;
use desim::{RngFactory, SimDuration, SimTime};
use netsim::{topology, ChangeSchedule, Runner, Topology};

use crate::calib;
use crate::drivers::{self, QueueMix};
use crate::spec::{self, DEFAULT_SEED};
use crate::stats::percentile;
use crate::timed::{Hook, Timed};
use crate::trace::{now_ns, Recorder};
use crate::workloads::{
    self, check_closed, dark_pass, file_of, Bare, ClosedSim, ClosedSpec, Instrumented, Pass, Probe,
    SweepRun,
};

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

fn put(out: &mut Metrics, name: &'static str, value: f64) {
    assert!(
        spec::per_layer(name).is_some(),
        "undeclared per-layer metric {name}"
    );
    out.insert(name, if value.is_finite() { value } else { 0.0 });
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Records the spans of one simulation: `workload` › `setup` › the three
/// build stages, and `run` › one aggregate per hook bucket.
fn record_sim(rec: &mut Recorder, rep: &str, probe: &Probe) {
    let m = &probe.marks;
    let root = rec.span(
        &format!("workload[{}]", probe.system),
        rep,
        None,
        m.start,
        m.run_end,
    );
    let setup = rec.span("setup", rep, Some(root), m.start, m.setup_end);
    rec.span(
        "netsim.topology.build",
        rep,
        Some(setup),
        m.start,
        m.topo_end,
    );
    rec.span(
        "overlay.tree.build",
        rep,
        Some(setup),
        m.topo_end,
        m.tree_end,
    );
    rec.span(
        "netsim.runner.build",
        rep,
        Some(setup),
        m.tree_end,
        m.setup_end,
    );
    let run = rec.span("run", rep, Some(root), m.setup_end, m.run_end);
    for hook in Hook::ALL {
        if probe.hooks.calls(hook) > 0 {
            rec.aggregate(
                &format!("{}.{}", probe.system, hook.name()),
                run,
                probe.hooks.calls(hook),
                probe.hooks.nanos[hook as usize],
            );
        }
    }
}

/// What the layer drivers need to know about a workload.
struct Shape {
    /// The workload's topology at this seed.
    topo: Topology,
    /// Participants.
    nodes: usize,
    /// Blocks per file.
    k: u32,
    /// The link-change schedule, if the workload has one, and how many of
    /// its batches a run applies.
    schedule: ChangeSchedule,
    link_changes: f64,
}

fn counter(probes: &[Probe], name: &str) -> u64 {
    probes.iter().filter_map(|p| p.metrics.counter(name)).sum()
}

fn gauge(probes: &[Probe], name: &str) -> u64 {
    probes
        .iter()
        .filter_map(|p| p.metrics.gauge(name))
        .max()
        .unwrap_or(0)
}

/// The metrics every workload reports, from its dark and its timed
/// simulation(s) — one each, four each for `systems4`. The first probe of
/// either slice is Bullet′.
fn common(
    out: &mut Metrics,
    rec: &mut Recorder,
    dark: &[Probe],
    timed: &[Probe],
    shape: Shape,
    seed: u64,
) {
    for probe in dark {
        record_sim(rec, "dark", probe);
    }
    for probe in timed {
        record_sim(rec, "timed", probe);
    }
    let rng = RngFactory::new(seed);
    let run_dark: f64 = dark.iter().map(|p| p.marks.run_s()).sum();
    let run_timed: f64 = timed.iter().map(|p| p.marks.run_s()).sum();
    let run_ns = run_dark * 1e9;
    let events: u64 = dark.iter().map(|p| p.events).sum();

    // desim.queue: exact traffic from the engine's own stats, unit cost
    // from the hold model at that depth and mix.
    let mix = QueueMix {
        pops: events,
        pushes: counter(dark, "events_scheduled"),
        cancels: counter(dark, "events_cancelled"),
        reschedules: counter(dark, "events_rescheduled"),
        max_pending: gauge(dark, "max_pending_events"),
    };
    let (queue_ns, _) = rec.time("driver.desim.queue", "drivers", || {
        drivers::queue_ns_per_op(&mix, &rng)
    });
    let queue_share = ratio(queue_ns * mix.ops() as f64, run_ns);
    put(out, "desim.queue.ops", mix.ops() as f64);
    put(out, "desim.queue.max_pending", mix.max_pending as f64);
    put(out, "desim.queue.ns_per_op", queue_ns);
    put(out, "desim.queue.est_share", queue_share);

    // netsim.topology / overlay.tree / netsim.runner set-up stages.
    put(
        out,
        "netsim.topology.build_s",
        dark.iter().map(|p| p.marks.topo_s()).sum(),
    );
    put(out, "netsim.topology.links", dark[0].links as f64);
    put(out, "overlay.tree.build_s", dark[0].marks.tree_s());
    put(
        out,
        "netsim.runner.build_s",
        dark.iter().map(|p| p.marks.runner_build_s()).sum(),
    );

    // netsim.network: solver activity, then the fluid-only driver.
    let full = counter(dark, "solver_full_solves");
    let fast = counter(dark, "solver_fast_admit")
        + counter(dark, "solver_fast_remove")
        + counter(dark, "solver_fast_growth");
    put(out, "netsim.network.full_solves", full as f64);
    put(
        out,
        "netsim.network.fast_path_share",
        ratio(fast as f64, (fast + full) as f64),
    );
    put(
        out,
        "netsim.network.flows_per_full_solve",
        ratio(counter(dark, "solver_flows_solved") as f64, full as f64),
    );
    put(
        out,
        "netsim.network.max_comp_flows",
        gauge(dark, "solver_max_comp_flows") as f64,
    );
    let flows = gauge(dark, "max_active_conns") as usize;
    let (block_ns, _) = rec.time("driver.netsim.network.block_done", "drivers", || {
        drivers::network_ns_per_block_done(shape.topo.clone(), flows, &rng)
    });
    let network_share = ratio(block_ns * counter(dark, "blocks_sent") as f64, run_ns);
    put(out, "netsim.network.ns_per_block_done", block_ns);
    put(out, "netsim.network.est_share", network_share);
    let mut reprice_share = 0.0;
    if !shape.schedule.is_empty() {
        let (reprice_ns, _) = rec.time("driver.netsim.network.reprice", "drivers", || {
            drivers::network_ns_per_reprice(shape.topo.clone(), flows, &shape.schedule, &rng)
        });
        rec.count("netsim.network.ns_per_reprice", reprice_ns);
        reprice_share = ratio(reprice_ns * shape.link_changes, run_ns);
        put(out, "netsim.network.reprice_est_share", reprice_share);
    }

    // netsim.runner: events and what the run costs beside the hooks.
    let hooks_secs: f64 = timed.iter().map(|p| p.hooks.total_secs()).sum();
    let hooks_share = ratio(hooks_secs, run_timed);
    put(out, "netsim.runner.events", events as f64);
    put(
        out,
        "netsim.runner.events_per_sec",
        ratio(events as f64, run_dark),
    );
    put(
        out,
        "netsim.runner.ns_per_event",
        ratio(run_ns, events as f64),
    );
    put(
        out,
        "netsim.runner.allocs_per_event",
        ratio(
            dark.iter().map(|p| p.allocs).sum::<u64>() as f64,
            events as f64,
        ),
    );
    put(out, "netsim.runner.self_s", run_timed - hooks_secs);
    put(
        out,
        "netsim.runner.residual_share",
        1.0 - hooks_share - queue_share - network_share - reprice_share,
    );
    put(
        out,
        "bench.harness.trace_overhead_ratio",
        ratio(run_timed, run_dark),
    );

    // bullet_prime.node: Bullet′'s hooks against Bullet′'s own run.
    let bp = &timed[0];
    let bp_run = bp.marks.run_s();
    put(
        out,
        "bullet_prime.node.hooks_share",
        ratio(bp.hooks.total_secs(), bp_run),
    );
    let per_hook: [(Hook, &'static str, &'static str); 4] = [
        (
            Hook::Control,
            "bullet_prime.node.on_control_share",
            "bullet_prime.node.on_control_calls",
        ),
        (
            Hook::BlockReceived,
            "bullet_prime.node.on_block_received_share",
            "bullet_prime.node.on_block_received_calls",
        ),
        (
            Hook::BlockSent,
            "bullet_prime.node.on_block_sent_share",
            "bullet_prime.node.on_block_sent_calls",
        ),
        (
            Hook::Timer,
            "bullet_prime.node.on_timer_share",
            "bullet_prime.node.on_timer_calls",
        ),
    ];
    for (hook, share, calls) in per_hook {
        put(out, share, ratio(bp.hooks.secs(hook), bp_run));
        put(out, calls, bp.hooks.calls(hook) as f64);
    }
    let delivered = dark[0].metrics.counter("blocks_delivered").unwrap_or(0) as f64;
    put(
        out,
        "bullet_prime.node.dup_block_share",
        1.0 - ratio(dark[0].useful_blocks as f64, delivered),
    );
    put(
        out,
        "bullet_prime.node.control_bytes_per_block",
        ratio(
            dark[0].metrics.counter("control_bytes").unwrap_or(0) as f64,
            delivered,
        ),
    );

    // overlay.ransub and dissem_codec: what the hooks call into, at the
    // workload's own N and k (and Bullet′'s released subset size).
    let subset = Config::new(file_of("dyn_mesh")).ransub_subset_size;
    let (ransub_ns, _) = rec.time("driver.overlay.ransub", "drivers", || {
        drivers::ransub_ns_per_node_epoch(shape.nodes, subset, &rng)
    });
    put(out, "overlay.ransub.ns_per_node_epoch", ransub_ns);
    let (bitmap_ns, _) = rec.time("driver.dissem_codec.bitmap", "drivers", || {
        drivers::bitmap_ns_per_diff(shape.k, &rng)
    });
    put(out, "dissem_codec.bitmap.ns_per_diff", bitmap_ns);
    let (diff_ns, _) = rec.time("driver.dissem_codec.diff", "drivers", || {
        drivers::diff_ns_per_advert(shape.k, &rng)
    });
    put(out, "dissem_codec.diff.ns_per_advert", diff_ns);
}

fn same_answer(what: &str, a: &str, b: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: canonical reports differ"))
    }
}

fn probes(sims: &[ClosedSim]) -> Vec<Probe> {
    sims.iter().map(|s| s.probe.clone()).collect()
}

/// Dark and timed closed simulations must be complete and identical:
/// instrumentation is passive.
fn check_pair(dark: &[ClosedSim], timed: &[ClosedSim]) -> Result<(), String> {
    for (d, t) in dark.iter().zip(timed) {
        check_closed(d)?;
        check_closed(t)?;
        same_answer(
            &format!("{}: Timed<P> run vs dark run", d.probe.system),
            &d.report.canonical(),
            &t.report.canonical(),
        )?;
    }
    Ok(())
}

fn dyn_mesh(out: &mut Metrics, rec: &mut Recorder, seed: u64) -> Result<(), String> {
    let dark = [workloads::dyn_mesh_spec(|n| n, false).run(seed)];
    let timed = [workloads::dyn_mesh_spec(Timed, false).run(seed)];
    check_pair(&dark, &timed)?;
    // One more repetition with the runner's own trace channel on: the
    // observability layer's perturbs-nothing and ≤ 1.5× contracts.
    let traced = workloads::dyn_mesh_spec(|n| n, true).run(seed);
    same_answer(
        "dyn_mesh: CountingSink run vs dark run",
        &dark[0].report.canonical(),
        &traced.report.canonical(),
    )?;
    let m = &traced.probe.marks;
    rec.span("run[netsim.trace]", "sink", None, m.setup_end, m.run_end);
    put(
        out,
        "netsim.trace.overhead_ratio",
        ratio(m.run_s(), dark[0].probe.marks.run_s()),
    );
    put(
        out,
        "netsim.trace.records",
        traced.probe.trace_records as f64,
    );

    let rng = RngFactory::new(seed);
    let shape = Shape {
        topo: topology::modelnet_mesh(workloads::DYN_NODES, 0.03, &rng),
        nodes: workloads::DYN_NODES,
        k: file_of("dyn_mesh").num_blocks(),
        schedule: paper_dynamic_schedule(workloads::DYN_NODES, 400.0, &rng),
        link_changes: counter(&probes(&dark), "link_changes") as f64,
    };
    common(out, rec, &probes(&dark), &probes(&timed), shape, seed);
    Ok(())
}

fn swarm_scale(out: &mut Metrics, rec: &mut Recorder, seed: u64) -> Result<(), String> {
    let dark = [workloads::swarm_spec(workloads::SWARM_NODES, |n| n).run(seed)];
    let timed = [workloads::swarm_spec(workloads::SWARM_NODES, Timed).run(seed)];
    check_pair(&dark, &timed)?;
    // The scaling point: the same swarm eight times the size. How far
    // events/s falls on the way is the decay ROADMAP wants explained.
    let big = workloads::swarm_spec(workloads::SWARM_SCALED_NODES, |n| n).run(seed);
    check_closed(&big)?;
    let m = &big.probe.marks;
    rec.span("run[scaled]", "scale", None, m.setup_end, m.run_end);
    rec.count("netsim.runner.events[scaled]", big.probe.events as f64);
    let eps = |sim: &ClosedSim| ratio(sim.probe.events as f64, sim.probe.marks.run_s());
    put(
        out,
        "netsim.runner.eps_decay",
        ratio(eps(&dark[0]), eps(&big)),
    );

    let rng = RngFactory::new(seed);
    let shape = Shape {
        topo: topology::uniform_swarm(workloads::SWARM_NODES, &rng),
        nodes: workloads::SWARM_NODES,
        k: file_of("swarm_scale").num_blocks(),
        schedule: Vec::new(),
        link_changes: 0.0,
    };
    common(out, rec, &probes(&dark), &probes(&timed), shape, seed);
    Ok(())
}

fn service_knee(out: &mut Metrics, rec: &mut Recorder, seed: u64) -> Result<(), String> {
    let dark = workloads::service_sim(seed, &workloads::SERVICE_EDGE, |n| n);
    let timed = workloads::service_sim(seed, &workloads::SERVICE_EDGE, Timed);
    workloads::service_pass(&dark, 0)?;
    same_answer(
        "service_knee: Timed<P> run vs dark run",
        &dark.report.canonical(),
        &timed.report.canonical(),
    )?;
    put(
        out,
        "netsim.service.max_concurrent",
        dark.report.max_concurrent as f64,
    );
    put(
        out,
        "netsim.service.queued_at_end",
        dark.report.queued_at_end as f64,
    );
    // The same pool lightly loaded and past the knee: events/s light ÷
    // saturated is the service-mode decay ROADMAP wants explained.
    let light = workloads::service_sim(seed, &workloads::SERVICE_LIGHT, |n| n);
    let saturated = workloads::service_sim(seed, &workloads::SERVICE_SATURATED, |n| n);
    for (name, sim) in [("light", &light), ("saturated", &saturated)] {
        let m = &sim.probe.marks;
        rec.span(
            &format!("run[{name}]"),
            "load",
            None,
            m.setup_end,
            m.run_end,
        );
        rec.count(
            &format!("netsim.runner.events[{name}]"),
            sim.probe.events as f64,
        );
        rec.count(
            &format!("netsim.service.max_concurrent[{name}]"),
            sim.report.max_concurrent as f64,
        );
    }
    let eps = |sim: &workloads::ServiceSim| ratio(sim.probe.events as f64, sim.probe.marks.run_s());
    put(
        out,
        "netsim.service.eps_decay",
        ratio(eps(&light), eps(&saturated)),
    );

    let rng = RngFactory::new(seed);
    let shape = Shape {
        topo: topology::shared_core_mesh(workloads::SERVICE_POOL, netsim::mbps(16.0), 0.0, &rng),
        nodes: workloads::SERVICE_POOL,
        k: file_of("service_knee").num_blocks(),
        schedule: Vec::new(),
        link_changes: 0.0,
    };
    common(out, rec, &[dark.probe], &[timed.probe], shape, seed);
    Ok(())
}

fn systems4(out: &mut Metrics, rec: &mut Recorder, seed: u64) -> Result<(), String> {
    let run_all = |specs: Vec<Box<dyn ClosedSpec + '_>>| {
        specs.iter().map(|s| s.run(seed)).collect::<Vec<_>>()
    };
    let dark = run_all(workloads::systems4_specs(&Bare));
    let timed = run_all(workloads::systems4_specs(&Instrumented));
    check_pair(&dark, &timed)?;

    let total: f64 = dark.iter().map(|s| s.probe.marks.run_s()).sum();
    let p50 = |sim: &ClosedSim| {
        let times: Vec<f64> = sim
            .report
            .completion_secs
            .iter()
            .skip(1)
            .flatten()
            .copied()
            .collect();
        percentile(&times, 0.5)
    };
    let ours = p50(&dark[0]);
    let run_share = [
        "baselines.bullet_prime.run_share",
        "baselines.bullet_orig.run_share",
        "baselines.bittorrent.run_share",
        "baselines.splitstream.run_share",
    ];
    let over_ours = [
        "baselines.bullet_orig.p50_over_bullet_prime",
        "baselines.bittorrent.p50_over_bullet_prime",
        "baselines.splitstream.p50_over_bullet_prime",
    ];
    for (i, sim) in dark.iter().enumerate() {
        put(out, run_share[i], ratio(sim.probe.marks.run_s(), total));
        if i > 0 {
            put(out, over_ours[i - 1], ratio(p50(sim), ours));
        }
    }
    // The paper's headline: the best of the others over Bullet′ (> 1).
    let best_other = dark[1..].iter().map(p50).fold(f64::INFINITY, f64::min);
    put(
        out,
        "baselines.best_other_over_bullet_prime",
        ratio(best_other, ours),
    );
    for (name, sim) in [
        ("baselines.bittorrent.hooks_share", &timed[2]),
        ("baselines.splitstream.hooks_share", &timed[3]),
    ] {
        put(
            out,
            name,
            ratio(sim.probe.hooks.total_secs(), sim.probe.marks.run_s()),
        );
    }

    let rng = RngFactory::new(seed);
    let shape = Shape {
        topo: topology::modelnet_mesh(workloads::SYSTEMS_NODES, 0.03, &rng),
        nodes: workloads::SYSTEMS_NODES,
        k: file_of("systems4").num_blocks(),
        schedule: Vec::new(),
        link_changes: 0.0,
    };
    common(out, rec, &probes(&dark), &probes(&timed), shape, seed);
    Ok(())
}

fn record_sweep(rec: &mut Recorder, rep: &str, run: &SweepRun) {
    let m = &run.marks;
    let root = rec.span("workload[lab_sweep]", rep, None, m.start, m.run_end);
    rec.span("setup", rep, Some(root), m.start, m.setup_end);
    let sweep = rec.span("run", rep, Some(root), m.setup_end, m.run_end);
    // One aggregate per cell, from the executor's own per-cell telemetry.
    for cell in &run.report.cells {
        rec.aggregate(
            &format!("cell[{}/{}]", cell.point, cell.seed),
            sweep,
            1,
            (cell.wall_clock_secs * 1e9) as u64,
        );
    }
}

fn lab_sweep(out: &mut Metrics, rec: &mut Recorder, seed: u64) -> Result<(), String> {
    let threads = workloads::lab_threads();
    let shared = workloads::sweep_run(seed, threads, true);
    let serial = workloads::sweep_run(seed, 1, true);
    let fresh = workloads::sweep_run(seed, 1, false);
    workloads::sweep_pass(&shared, 0)?;
    let canonical = shared.report.to_canonical_json();
    same_answer(
        "lab_sweep: 1 thread vs 2",
        &canonical,
        &serial.report.to_canonical_json(),
    )?;
    same_answer(
        "lab_sweep: sharing on vs off",
        &canonical,
        &fresh.report.to_canonical_json(),
    )?;
    record_sweep(rec, "threads", &shared);
    record_sweep(rec, "serial", &serial);
    record_sweep(rec, "fresh", &fresh);

    let cell_secs: f64 = shared.report.cells.iter().map(|c| c.wall_clock_secs).sum();
    put(
        out,
        "bullet_lab.executor.cells",
        shared.report.cells.len() as f64,
    );
    put(
        out,
        "bullet_lab.executor.speedup_t2",
        ratio(serial.marks.run_s(), shared.marks.run_s()),
    );
    put(
        out,
        "bullet_lab.executor.overhead_share",
        1.0 - ratio(cell_secs, threads as f64 * shared.marks.run_s()),
    );
    put(
        out,
        "bullet_bench.warmup.saved_share",
        ratio(serial.report.warmup_secs_saved, fresh.marks.run_s()),
    );
    put(
        out,
        "bullet_bench.warmup.shared_over_fresh",
        ratio(serial.marks.run_s(), fresh.marks.run_s()),
    );

    // netsim.snapshot: one warm-up prefix simulated, then checkpointed and
    // resumed at the split — what a fork costs against what it saves.
    let opts = workloads::lab_opts(seed);
    let (prefix, prefix_s) = rec.time("bullet_bench.warmup.prefix", "snapshot", || {
        bullet_bench::warmup::fig05w_prefix(&opts)
    });
    let (runner, resume_s) = rec.time("netsim.snapshot.resume", "snapshot", || {
        Runner::resume(prefix.snap.clone())
    });
    let (_snap, checkpoint_s) = rec.time("netsim.snapshot.checkpoint", "snapshot", || {
        runner.checkpoint()
    });
    put(
        out,
        "netsim.snapshot.checkpoint_over_prefix",
        ratio(checkpoint_s, prefix_s),
    );
    put(
        out,
        "netsim.snapshot.resume_over_prefix",
        ratio(resume_s, prefix_s),
    );

    // The layers below the executor, from one cell run directly.
    let dark = [workloads::mesh_spec(workloads::LAB_NODES, file_of("lab_sweep"), |n| n).run(seed)];
    let timed = [workloads::mesh_spec(workloads::LAB_NODES, file_of("lab_sweep"), Timed).run(seed)];
    check_pair(&dark, &timed)?;
    let rng = RngFactory::new(seed);
    let period = SimDuration::from_secs(20);
    // The probed cell is the calm one. Of the three variants one changes
    // links every 20 s and one every 8 s, so a cell of this length applies
    // on average this many batches:
    let cell_secs = dark[0].report.end_time.as_secs_f64();
    let shape = Shape {
        topo: topology::modelnet_mesh(workloads::LAB_NODES, 0.03, &rng),
        nodes: workloads::LAB_NODES,
        k: file_of("lab_sweep").num_blocks(),
        schedule: netsim::dynamics::correlated_decrease_schedule(
            workloads::LAB_NODES,
            period,
            SimTime::from_secs_f64(400.0) - SimTime::ZERO,
            &rng,
        ),
        link_changes: (cell_secs / 20.0 + cell_secs / 8.0) / 3.0,
    };
    common(out, rec, &probes(&dark), &probes(&timed), shape, seed);
    Ok(())
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; 0 where there is no procfs.
fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields 14 and 15, counted after the parenthesised command name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// The digest `golden.json` records for `workload` at the default seed.
pub fn golden_digest(workload: &str) -> Option<u64> {
    let golden = include_str!("../golden.json");
    let key = format!("\"{workload}\": \"");
    let at = golden.find(&key)? + key.len();
    let hex = &golden[at..at + golden[at..].find('"')?];
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// Whether the default-seed pass still gives the recorded answer. A
/// mismatch is shouted, not failed: a change of behaviour is legitimate and
/// the `sim_*` bounds judge it — but a change meant only to speed the
/// emulator up has just been told that it changed the answer.
pub fn golden_match(workload: &str, default_seed_pass: &Pass) -> bool {
    let matches = golden_digest(workload) == Some(default_seed_pass.digest);
    if !matches {
        eprintln!(
            "GOLDEN MISMATCH on {workload}: the default-seed pass digests to {:#018x}, golden.json has {}. \
             The simulated answer changed; if that is intended, refresh it with `benchmark/run.sh golden`.",
            default_seed_pass.digest,
            golden_digest(workload).map_or("nothing".to_string(), |d| format!("{d:#018x}")),
        );
    }
    matches
}

/// The traced pass of `workload` at simulation seed `seed`: every per-layer
/// metric measured on it, and its spans in `rec`. An `Err` is a correctness
/// violation.
pub fn traced_pass(workload: &str, seed: u64, rec: &mut Recorder) -> Result<Metrics, String> {
    let mut out = Metrics::new();
    let kernel_before = calib::kernel_secs();
    let cpu_before = cpu_secs();
    let started = now_ns();
    // The default-seed pass goes first: it is the golden check, and it warms
    // the allocator and the caches so that the dark repetition below does
    // not pay for being the first simulation of the process.
    let golden = dark_pass(workload, DEFAULT_SEED)?;
    put(
        &mut out,
        "bench.harness.golden_match",
        f64::from(u8::from(golden_match(workload, &golden))),
    );
    match workload {
        "dyn_mesh" => dyn_mesh(&mut out, rec, seed)?,
        "swarm_scale" => swarm_scale(&mut out, rec, seed)?,
        "service_knee" => service_knee(&mut out, rec, seed)?,
        "systems4" => systems4(&mut out, rec, seed)?,
        "lab_sweep" => lab_sweep(&mut out, rec, seed)?,
        other => return Err(format!("unknown workload {other}")),
    }
    let wall = (now_ns() - started) as f64 / 1e9;
    rec.span("traced_pass", "all", None, started, now_ns());
    put(&mut out, "bench.harness.traced_pass_s", wall);
    put(
        &mut out,
        "bench.harness.cpu_over_wall",
        ratio(cpu_secs() - cpu_before, wall),
    );
    // Host times in the ledger are as measured; this says how far from
    // quiet the host was while they were taken.
    put(
        &mut out,
        "bench.harness.host_factor",
        calib::host_factor(kernel_before, calib::kernel_secs()),
    );
    Ok(out)
}
