//! Smoke tests for the scenario lab: the registry covers every figure, the
//! parallel sweep executor is byte-deterministic across thread counts, the
//! probe-driven time-series scenario produces a usable series, and the
//! observability layer (trace + probe, `lab trace`) interleaves
//! with all of it without perturbing the simulation.

use bullet_repro::bullet_bench::{experiments, CommonOpts};
use bullet_repro::bullet_lab::{
    check_replay, run_sweep, run_sweep_with, traced_run, Body, Presentation, Registry, Scenario,
};
use bullet_repro::bullet_prime::{build_runner, Config};
use bullet_repro::desim::{RngFactory, SimDuration};
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::netsim::{topology, RingSink, TraceEvent, TraceSink};

fn tiny() -> CommonOpts {
    CommonOpts {
        nodes: Some(6),
        file_mb: Some(0.25),
        time_limit: 1800.0,
        ..CommonOpts::default()
    }
}

#[test]
fn registry_lists_every_scenario() {
    let reg = Registry::standard();
    let names = reg.names();
    let expected = [
        "fig04", "fig05", "fig05ts", "fig05w", "fig06", "fig07", "fig08", "fig09", "fig10",
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
        "fig21", "fig22",
    ];
    assert_eq!(names.len(), expected.len());
    for name in expected {
        let sc = reg
            .get(name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        assert_eq!(sc.name, name);
        assert!(!sc.title.is_empty());
        assert!(!sc.sweep.points.is_empty());
        assert!(sc.sweep.seeds.count > 0);
    }
}

#[test]
fn four_thread_fig05_sweep_is_byte_identical_to_one_thread() {
    // The acceptance scenario: fig05 (all four systems under bandwidth
    // changes) swept across 4 seeds, at smoke scale. Every cell is an
    // independent deterministic simulation, so the merged JSON must not
    // depend on how many workers executed the cells.
    let fig05 = Scenario::new(
        "fig05",
        "overall comparison under bandwidth changes (smoke scale)",
        Body::Closed {
            workload: experiments::fig05_workload,
            figure: Presentation::Study(experiments::overall_comparison),
        },
    );
    let seeds = [20050410, 20050411, 20050412, 20050413];
    let serial = run_sweep(&fig05, &tiny(), &seeds, 1);
    let parallel = run_sweep(&fig05, &tiny(), &seeds, 4);
    assert_eq!(serial.cells.len(), 4);
    let a = serial.to_canonical_json();
    let b = parallel.to_canonical_json();
    assert!(!a.is_empty());
    assert_eq!(a, b, "thread count leaked into the sweep output");
    // The full rendering carries the per-cell wall-clock telemetry (which is
    // schedule-dependent and therefore excluded from the identity above).
    assert!(serial.to_json().contains("wall_clock_secs"));
    assert!(!a.contains("wall_clock_secs"));
    // Different seeds genuinely produce different cells (the sweep is not
    // vacuously identical).
    assert_ne!(
        serial.cells[0].figure.to_json(),
        serial.cells[1].figure.to_json(),
        "distinct seeds must differ"
    );
}

#[test]
fn fig05w_prefix_sharing_is_byte_identical_to_fresh_runs_at_any_thread_count() {
    // The snapshot/fork acceptance scenario: the fig05w sweep (three
    // dynamics variants per seed sharing one warm-up prefix) with prefix
    // sharing ON — one simulated warm-up per seed, every cell forked from
    // the checkpoint — must render canonically byte-identical to the same
    // sweep with sharing OFF (every cell simulated uninterrupted from
    // t = 0), at 1 and at 4 worker threads.
    let reg = Registry::standard();
    let sc = reg.get("fig05w").expect("registered");
    let seeds = [20050410, 20050411];

    let reference = run_sweep_with(sc, &tiny(), &seeds, 1, false).to_canonical_json();
    assert!(!reference.is_empty());
    for threads in [1, 4] {
        let shared = run_sweep_with(sc, &tiny(), &seeds, threads, true);
        assert_eq!(
            shared.to_canonical_json(),
            reference,
            "forked sweep at {threads} thread(s) diverged from the uninterrupted runs"
        );
        // One warm-up per seed (the three variants differ only by label),
        // every cell forked.
        assert_eq!(shared.prefix_cells, seeds.len());
        assert_eq!(shared.forked_cells, 3 * seeds.len());
        assert!(
            shared.warmup_secs_saved > 0.0,
            "sharing must actually save warm-up wall clock"
        );
    }
    let fresh_parallel = run_sweep_with(sc, &tiny(), &seeds, 4, false);
    assert_eq!(fresh_parallel.to_canonical_json(), reference);

    // The variants genuinely diverge after the split (same seed, different
    // post-warm-up dynamics), or the identity above would be vacuous.
    let shared = run_sweep_with(sc, &tiny(), &seeds, 1, true);
    // Cells are point-major, seed-minor: [0] = calm/seed0, [4] = storm/seed0.
    assert_ne!(
        shared.cells[0].figure.to_json(),
        shared.cells[4].figure.to_json(),
        "calm and storm dynamics must produce different figures"
    );
}

#[test]
fn lab_run_fig05ts_produces_a_bandwidth_over_time_series() {
    // The probe-driven scenario must be reachable through the registry (what
    // `lab run fig05ts` executes) and deliver non-empty goodput-over-time
    // series with aligned sampling instants.
    let reg = Registry::standard();
    let mut opts = tiny();
    opts.tick = Some(1.0);
    let fig = reg.get("fig05ts").expect("registered").run(&opts);
    assert_eq!(fig.series.len(), 5);
    assert!(fig.series[0].label.contains("goodput"));
    let n = fig.series[0].points.len();
    assert!(n >= 3, "expected several probe samples, got {n}");
    for s in &fig.series {
        assert_eq!(s.points.len(), n, "series share sampling instants");
    }
    // Some receiver actually made progress in the observation window.
    assert!(fig.series[0].points.iter().any(|&(_, y)| y > 0.0));
}

#[test]
fn lab_run_fig18_and_fig19_are_reachable_through_the_registry() {
    // The shared-bottleneck and cross-traffic scenarios (what `lab run
    // fig18` / `lab run fig19` execute) at smoke scale.
    let reg = Registry::standard();
    let opts = tiny();

    let f18 = reg.get("fig18").expect("registered").run(&opts);
    assert_eq!(f18.series.len(), 3, "single mesh + two concurrent meshes");
    assert!(f18.series[0].label.contains("single mesh"));
    // The quantitative ~x2 slowdown is pinned (at a controlled scale, where
    // slow start and random delays do not dominate) by
    // tests/shared_bottleneck.rs; here every mesh just has to finish.
    for s in &f18.series {
        assert!(!s.points.is_empty(), "{} is empty", s.label);
        assert!(!s.label.contains("unfinished"), "{}", s.label);
    }

    let mut opts = tiny();
    opts.tick = Some(1.0);
    let f19 = reg.get("fig19").expect("registered").run(&opts);
    assert_eq!(f19.series.len(), 4, "goodput mean/p10/p90 + the wave");
    assert!(f19.series[3].label.contains("cross-traffic"));
    assert!(
        f19.series[3].points.iter().any(|&(_, y)| y > 0.0),
        "at least one wave boundary lands inside the run"
    );
    assert!(f19.series[0].points.iter().any(|&(_, y)| y > 0.0));
}

#[test]
fn lab_run_fig20_completes_a_thousand_node_join_only_swarm() {
    // One point of the fig20 scaling trajectory, end to end through the
    // registry: a 1,000-node join-only swarm on the O(n) uniform core must
    // run to AllComplete — every receiver finishes, none are reported
    // unfinished — and stay deterministic per seed.
    let reg = Registry::standard();
    let opts = CommonOpts {
        nodes: Some(1_000),
        file_mb: Some(0.125),
        ..CommonOpts::default()
    };
    let fig = reg.get("fig20").expect("registered").run(&opts);
    // --nodes collapses the trajectory to one CDF plus the events series.
    assert_eq!(fig.series.len(), 2);
    let cdf = &fig.series[0];
    assert_eq!(cdf.label, "BulletPrime, N=1000", "no receiver unfinished");
    assert_eq!(cdf.points.len(), 999, "one CDF point per receiver");
    assert!(cdf.points.iter().all(|&(t, _)| t > 0.0));
    assert_eq!(fig.series[1].points[0].0, 1000.0);
    assert!(fig.series[1].points[0].1 > 0.0, "events were counted");

    let again = reg.get("fig20").expect("registered").run(&opts);
    assert_eq!(
        fig.to_json(),
        again.to_json(),
        "fig20 must be deterministic"
    );
}

#[test]
fn thousand_node_swarm_interleaves_probe_and_trace() {
    // The fig20 workload traced at N = 1,000: the probe samples every tick
    // *while* the trace stream records every delivery, and the two
    // observation channels must agree — replaying the per-node goodput from
    // nothing but `block_received` + `probe_tick` records reproduces the
    // live StatsProbe series at swarm scale, dense node ids and all.
    let reg = Registry::standard();
    let fig20 = reg.get("fig20").expect("registered");
    let opts = CommonOpts {
        nodes: Some(1_000),
        file_mb: Some(0.125),
        tick: Some(5.0),
        ..CommonOpts::default()
    };
    let run = traced_run(fig20, &opts, 1 << 22).expect("fig20 is traceable");
    assert_eq!(run.workload.nodes, 1_000);
    assert_eq!(run.dropped, 0, "the default-sized ring must not overflow");
    assert_eq!(run.recorded, run.report.trace_records);
    assert!(
        run.records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::ProbeTick)),
        "probe ticks must appear inside the trace stream"
    );
    let series = run.report.timeseries.as_ref().expect("probe installed");
    assert_eq!(series.samples[0].nodes.len(), 1_000);
    let msg = check_replay(&run.records, series, run.workload.nodes).expect("replay must match");
    assert!(msg.contains("1000 nodes"), "{msg}");
    // The trace is ordered: seq is non-decreasing across the whole stream.
    assert!(
        run.records.windows(2).all(|w| w[0].seq <= w[1].seq),
        "records must replay in dispatch order"
    );
}

#[test]
fn overflowing_ring_sink_does_not_affect_the_simulation() {
    // A sink that drops records (here: a 32-record ring under a run emitting
    // thousands) must leave the simulation untouched — tracing is passive
    // observation, and backpressure from a full sink cannot exist. The
    // canonical report (trace_records zeroed) must be byte-identical to the
    // untraced run's.
    let workload = |sink_capacity: Option<usize>| {
        let rng = RngFactory::new(20050410);
        let topo = topology::modelnet_mesh(8, 0.01, &rng);
        let cfg = Config::new(FileSpec::new(512 * 1024, 16 * 1024));
        let mut runner = build_runner(topo, &cfg, &rng);
        if let Some(cap) = sink_capacity {
            runner.set_trace_sink(Box::new(RingSink::new(cap)));
        }
        let report = runner.run(SimDuration::from_secs(3_600));
        (report, runner.take_trace_sink::<RingSink>())
    };
    let (untraced, _) = workload(None);
    let (traced, ring) = workload(Some(32));
    let ring = ring.expect("a ring was installed");
    assert!(
        traced.trace_records > 32,
        "the tiny ring must actually have overflowed for this test to bite"
    );
    assert_eq!(ring.recorded(), traced.trace_records);
    assert_eq!(ring.len(), 32, "the ring kept what fits");
    assert_eq!(ring.dropped(), traced.trace_records - 32);
    assert_eq!(
        traced.canonical(),
        untraced.canonical(),
        "a dropping sink perturbed the simulation"
    );
    // The non-canonical reports differ only by the trace-record count.
    assert_ne!(traced.trace_records, untraced.trace_records);
    assert_eq!(untraced.trace_records, 0);
}

#[test]
fn four_thread_lab_serve_fig21_is_byte_identical_to_one_thread() {
    // The open-system acceptance scenario: fig21's service cells at smoke
    // scale. Each offered-load cell is one deterministic service simulation
    // that shares nothing with the others, so running the four on four
    // threads gives the reports running them in turn does — and the top-load
    // cell must be a genuinely open system: many swarms admitted over the
    // shared core, overlapping in time.
    let opts = CommonOpts {
        nodes: Some(16),
        file_mb: Some(0.25),
        time_limit: 900.0,
        ..CommonOpts::default()
    };
    let cells = experiments::fig21_cells(&opts);
    assert_eq!(cells.len(), experiments::FIG21_LOADS.len());
    let serial: Vec<String> = cells.iter().map(|(_, c)| c.run().canonical()).collect();
    let parallel: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = cells
            .iter()
            .map(|(_, cell)| scope.spawn(|| cell.run().canonical()))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(serial, parallel, "threads leaked into the service runs");

    let top = cells.last().expect("cells are non-empty").1.run();
    assert!(
        top.admitted >= 8,
        "the top load must admit at least 8 swarms: {top:?}"
    );
    assert!(
        top.max_concurrent >= 2,
        "swarms must overlap on the shared core: {top:?}"
    );
    assert!(
        top.completed > 0 && top.sustained_goodput_bps > 0.0,
        "{top:?}"
    );
    // Cells genuinely differ across loads (the sweep is not vacuous).
    assert_ne!(serial[0], serial[1], "distinct offered loads must differ");
}

#[test]
fn lab_serve_fig22_overlaps_the_flash_crowd_with_the_warm_swarm() {
    // fig22's service cell at smoke scale: the flash crowd must land while
    // the warm swarm is still in flight (that is the scenario's point), and
    // both cohorts must complete with the flash cohort's latency carrying the
    // join stagger.
    // 8 MB file: at this 16-slot pool the shared core drains ~12 Mbps, so a
    // 4 MB warm transfer would finish in ~20 s — before the flash lands at
    // t = 30 s. Doubling the file keeps the warm swarm in flight past it.
    let opts = CommonOpts {
        nodes: Some(16),
        file_mb: Some(8.0),
        time_limit: 1800.0,
        ..CommonOpts::default()
    };
    let cells = experiments::fig22_cells(&opts);
    assert_eq!(cells.len(), 1);
    let report = &cells[0].1.run();
    assert_eq!(report.admitted, 2, "{report:?}");
    assert_eq!(report.completed, 2, "{report:?}");
    assert_eq!(
        report.max_concurrent, 2,
        "the flash crowd must overlap the warm swarm: {report:?}"
    );
    // Cohorts are reported in reap order; the warm swarm — admitted first —
    // always carries tag 1.
    let warm = report.cohorts.iter().find(|c| c.cohort == 1).unwrap();
    let flash = report.cohorts.iter().find(|c| c.cohort != 1).unwrap();
    assert_eq!(warm.arrival_secs, 0.0);
    assert!(flash.arrival_secs > 0.0);
    assert!(
        flash.p90_secs > warm.p90_secs,
        "the flash cohort's tail carries the join stagger: {report:?}"
    );
}

#[test]
fn default_sweeps_of_the_overall_comparisons_scale_swarm_size() {
    let reg = Registry::standard();
    for name in ["fig04", "fig05"] {
        let sweep = &reg.get(name).unwrap().sweep;
        assert_eq!(sweep.points.len(), 3, "{name}");
        let nodes: Vec<usize> = sweep.points.iter().filter_map(|p| p.nodes).collect();
        assert_eq!(nodes, vec![20, 40, 60], "{name}");
    }
}
