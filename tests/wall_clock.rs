//! Wall-clock contracts. Each test times two runs of a registry workload in
//! this process and compares them, so no baseline is needed, but the
//! comparison means something only on the optimised build with nothing else
//! running: a debug build ignores the file, and ci.sh runs it as
//! `cargo test --release --test wall_clock -- --test-threads=1`.

use std::time::Instant;

use bullet_repro::bullet_bench::experiments::fig05_workload;
use bullet_repro::bullet_bench::CommonOpts;
use bullet_repro::bullet_lab::{run_sweep, Registry, SeedPlan};
use bullet_repro::netsim::{CountingSink, TraceSink};

fn timed<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = run();
    (out, started.elapsed().as_secs_f64())
}

/// The overhead contract of `docs/OBSERVABILITY.md`: fig05's Bullet′ run at
/// 30 nodes / 16 MiB, under the §4.1 bandwidth-change schedule, dark and then
/// traced into a counting sink and nothing else. Tracing changes no byte of
/// the canonical report and costs at most 1.5× the dark wall clock.
#[test]
#[cfg_attr(debug_assertions, ignore = "compares wall clocks: run with --release")]
fn tracing_fig05_changes_nothing_and_costs_at_most_one_and_a_half_times_dark() {
    let opts = CommonOpts {
        nodes: Some(30),
        file_mb: Some(16.0),
        time_limit: 7_200.0,
        ..CommonOpts::default()
    };
    let w = fig05_workload(&opts, "default").expect("fig05 has one point");
    let observed = |traced: bool| {
        timed(|| {
            let sink = traced.then(|| Box::new(CountingSink::new()) as Box<dyn TraceSink>);
            w.run(&mut w.bullet_prime(&w.config(), sink))
        })
    };
    let (dark, dark_wall) = observed(false);
    let (traced, traced_wall) = observed(true);
    assert!(traced.trace_records > 0, "the sink saw nothing");
    assert_eq!(
        traced.canonical(),
        dark.canonical(),
        "fig05 run of {} events: tracing changed the run",
        dark.events
    );
    let ratio = traced_wall / dark_wall.max(1e-9);
    eprintln!(
        "fig05 run of {} events: traced ({} records) {traced_wall:.3}s, {ratio:.2}x the dark \
         run's {dark_wall:.3}s (ceiling 1.5x)",
        dark.events, traced.trace_records
    );
    assert!(ratio <= 1.5, "tracing cost {ratio:.2}x the dark run");
}

/// fig05's sweep (its three swarm sizes, two seeds, 2 MiB) on one worker and
/// on four: the same canonical bytes, and four workers at least 1.5× faster.
/// A host without four threads cannot run four workers without
/// oversubscription, so there the test says so and checks nothing.
#[test]
#[cfg_attr(debug_assertions, ignore = "compares wall clocks: run with --release")]
fn four_workers_sweep_fig05_at_least_one_and_a_half_times_faster_than_one() {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host_threads < 4 {
        eprintln!(
            "4-thread scaling floor not applied: it needs a host with >= 4 threads, \
             this one offers {host_threads}"
        );
        return;
    }
    let registry = Registry::standard();
    let scenario = registry.get("fig05").expect("a registered scenario");
    let opts = CommonOpts {
        file_mb: Some(2.0),
        time_limit: 3_600.0,
        ..CommonOpts::default()
    };
    let plan = SeedPlan {
        count: 2,
        ..SeedPlan::default()
    };
    let seeds = plan.seeds().expect("two seeds from the default base");
    let sweep = |threads| timed(|| run_sweep(scenario, &opts, &seeds, threads));
    let (serial, serial_wall) = sweep(1);
    let (wide, wide_wall) = sweep(4);
    assert_eq!(
        serial.to_canonical_json(),
        wide.to_canonical_json(),
        "4-thread vs 1-thread fig05 sweep of {} cells",
        serial.cells.len()
    );
    let speedup = serial_wall / wide_wall.max(1e-9);
    eprintln!(
        "4-thread sweep {speedup:.2}x the 1-thread sweep (floor 1.5x), {host_threads} host threads"
    );
    assert!(speedup >= 1.5, "4 workers only {speedup:.2}x one");
}
