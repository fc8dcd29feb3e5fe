//! `lab bench`: the four committed perf records and the checks on them.
//!
//! Takes no arguments. Runs four fixed workloads, each a registry scenario's
//! own workload at fixed options, writes one record per workload into the
//! current directory, prints one line per check and fails (exit status 1)
//! when a check does:
//!
//! | record | workload | checks |
//! |---|---|---|
//! | `BENCH_events.json` | fig05 at 30 nodes / 16 MiB, dark then traced into a counting sink | traced canonical = dark canonical; traced / dark ≤ 1.5× (`docs/OBSERVABILITY.md`) |
//! | `BENCH_scale.json` | fig20 at N = 1,000 / 5,000 / 10,000 | every point ends `AllComplete` |
//! | `BENCH_service.json` | the fig21 loads, 48 slots, 2 MiB, 1200 s | — |
//! | `BENCH_sweep.json` | the fig05 sweep at 1 and 4 threads, 2 seeds, 2 MiB; the fig05w sweep forked and fresh | canonical identical across thread counts; forked = fresh; 4 threads ≥ 1.5× on a host with ≥ 4 |
//!
//! Every check compares two values measured in this process, so none needs a
//! baseline. Comparing a commit against its parent is the paired benchmark
//! run's job (`BENCHMARK.json`, `benchmark/`), and the deterministic fields
//! of these records are pinned exactly by `tests/golden_digests.rs` and
//! `tests/golden_figures.rs`.
//!
//! `run_allocs` and `peak_alloc_bytes` read `bullet_bench::alloc_track`,
//! which counts only in a binary that installs its allocator (`lab` does).

use std::time::Instant;

use bullet_bench::alloc_track;
use bullet_bench::experiments::{fig05_workload, fig20_workload, fig21_cells, FIG21_LOADS};
use bullet_bench::{CommonOpts, ServiceWorkload, Workload};
use netsim::{CountingSink, RunReport};

use crate::cli::partition_thread_counts;
use crate::executor::run_sweep_with;
use crate::registry::Registry;
use crate::scenario::SeedPlan;
use crate::views::{
    rounded, write_record, CellTiming, EventsRecord, ScalePoint, ScaleRecord, ServicePoint,
    ServiceRecord, SkippedRun, SnapshotRecord, SweepRecord, SweepRun, TraceCheck,
};

const USAGE: &str = "usage: lab bench   (no options: four fixed workloads, BENCH_*.json written \
to the current directory; `lab sweep <scenario> --threads N` times an arbitrary sweep)";

/// One line of `lab bench`'s verdict: `Err` is a failed check, `Ok` one that
/// passed or that this host cannot make (its line says so).
type Check = Result<String, String>;

fn check(passed: bool, line: String) -> Check {
    if passed {
        Ok(line)
    } else {
        Err(line)
    }
}

/// Two canonical renderings of what must be the same simulation.
fn same_canonical(what: &str, reference: &str, other: &str) -> Check {
    check(reference == other, format!("{what}: canonical identical"))
}

/// The overhead contract of `docs/OBSERVABILITY.md`.
fn trace_overhead(ratio: f64) -> Check {
    let line = format!("traced run {ratio:.2}x the dark run (ceiling 1.5x)");
    check(ratio <= 1.5, line)
}

fn all_complete(points: &[ScalePoint]) -> Check {
    let reasons: Vec<&str> = points.iter().map(|p| p.stop_reason.as_str()).collect();
    let line = format!("scale points end {reasons:?}");
    check(reasons.iter().all(|&r| r == "AllComplete"), line)
}

/// `speedup` is 1-thread over 4-thread wall clock of the fig05 sweep, `None`
/// when the 4-thread run was skipped. Only a host that can run four workers
/// is held to the floor.
fn thread_scaling(host_threads: usize, speedup: Option<f64>) -> Check {
    match speedup {
        Some(s) if host_threads >= 4 => {
            let line = format!("4-thread sweep {s:.2}x the 1-thread sweep (floor 1.5x)");
            check(s >= 1.5, line)
        }
        _ => Ok(format!(
            "4-thread scaling floor not applied: it needs a host with >= 4 threads, \
             this one offers {host_threads}"
        )),
    }
}

fn timed<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = run();
    (out, started.elapsed().as_secs_f64())
}

/// Builds and runs `w`'s default Bullet′ run, optionally with a counting
/// trace sink: the report, its wall-clock seconds and the allocations of
/// building and running it.
fn observed_run(w: &Workload, traced: bool) -> (RunReport, f64, u64) {
    let allocs_before = alloc_track::allocs();
    let (report, wall) = timed(|| {
        let mut runner = w.bullet_prime_with(&w.config(), |runner| {
            if traced {
                runner.set_trace_sink(Box::new(CountingSink::new()));
            }
        });
        w.run(&mut runner)
    });
    (report, wall, alloc_track::allocs() - allocs_before)
}

/// The events record: fig05's workload at `opts`, dark and then traced.
fn events_record(opts: &CommonOpts) -> (EventsRecord, Vec<Check>) {
    let w = fig05_workload(opts, "default").expect("fig05 has one point");
    alloc_track::reset_peak();
    let (dark, wall, run_allocs) = observed_run(&w, false);
    let peak_alloc_bytes = alloc_track::peak_bytes();
    let (traced, traced_wall, _) = observed_run(&w, true);
    let identity = same_canonical(
        "traced vs dark fig05 run",
        &dark.canonical(),
        &traced.canonical(),
    );
    let record = EventsRecord {
        benchmark: "fig05-style dynamics-heavy run",
        seed: w.seed,
        nodes: w.nodes,
        file_bytes: w.file.file_bytes,
        block_bytes: w.file.block_bytes,
        events_processed: dark.events,
        run_allocs,
        peak_alloc_bytes,
        wall_clock_secs: rounded(wall, 3),
        virtual_end_secs: rounded(dark.end_time.as_secs_f64(), 6),
        stop_reason: format!("{:?}", dark.reason),
        metrics: dark.metrics,
        trace: TraceCheck {
            trace_records: traced.trace_records,
            trace_wall_clock_secs: rounded(traced_wall, 3),
            trace_overhead_ratio: rounded(traced_wall / wall.max(1e-9), 3),
            canonical_identical: identity.is_ok(),
        },
    };
    let overhead = trace_overhead(record.trace.trace_overhead_ratio);
    (record, vec![identity, overhead])
}

/// The scale record: fig20's workload at each swarm size.
fn scale_record(sizes: &[usize]) -> (ScaleRecord, Vec<Check>) {
    let shape = fig20_workload(&CommonOpts::default(), "default").expect("fig20 has one point");
    let point = |&nodes: &usize| {
        alloc_track::reset_peak();
        let (report, wall) = timed(|| Workload { nodes, ..shape }.report());
        eprintln!("scale N={nodes}: {} events in {wall:.2}s", report.events);
        ScalePoint {
            nodes,
            events_processed: report.events,
            events_per_sec: rounded(report.events as f64 / wall.max(1e-9), 0),
            wall_clock_secs: rounded(wall, 3),
            peak_alloc_bytes: alloc_track::peak_bytes(),
            virtual_end_secs: rounded(report.end_time.as_secs_f64(), 6),
            stop_reason: format!("{:?}", report.reason),
        }
    };
    let record = ScaleRecord {
        benchmark: "fig20-style join-only swarm on the uniform core",
        seed: shape.seed,
        file_bytes: shape.file.file_bytes,
        block_bytes: shape.file.block_bytes,
        points: sizes.iter().map(point).collect(),
    };
    let complete = all_complete(&record.points);
    (record, vec![complete])
}

/// The service record: fig21's cells at `opts`, one service run per load.
/// Everything but the wall clock is deterministic and pinned by the golden
/// digests, so there is nothing to check here.
fn service_record(opts: &CommonOpts) -> ServiceRecord {
    let cells = fig21_cells(opts);
    let point = |cell: &ServiceWorkload, load: f64| {
        let (report, wall) = timed(|| cell.run());
        eprintln!(
            "service load {load}: {} events in {wall:.2}s",
            report.events
        );
        ServicePoint {
            offered_per_1000s: load,
            sustained_goodput_bps: rounded(report.sustained_goodput_bps, 1),
            arrivals: report.arrivals,
            admitted: report.admitted,
            completed: report.completed,
            in_flight_at_end: report.in_flight_at_end,
            queued_at_end: report.queued_at_end,
            max_concurrent: report.max_concurrent,
            p50_latency_secs: rounded(report.latency_quantile(0.5).unwrap_or(0.0), 3),
            p90_latency_secs: rounded(report.latency_quantile(0.9).unwrap_or(0.0), 3),
            events_processed: report.events,
            wall_clock_secs: rounded(wall, 3),
        }
    };
    ServiceRecord {
        benchmark: "fig21-style open-system offered-load sweep",
        seed: opts.seed,
        pool_nodes: cells[0].1.pool,
        horizon_secs: cells[0].1.horizon,
        points: (cells.iter().zip(FIG21_LOADS))
            .map(|((_, cell), load)| point(cell, load))
            .collect(),
    }
}

/// The sweep record: fig05's sweep at 1 and 4 worker threads — those of them
/// `host_threads` can run without oversubscription — and fig05w's sweep with
/// warm-prefix sharing on and off, single-threaded.
fn sweep_record(
    registry: &Registry,
    opts: &CommonOpts,
    seed_count: usize,
    host_threads: usize,
) -> (SweepRecord, Vec<Check>) {
    let sweep = |name: &str, threads: usize, share: bool| {
        let scenario = registry.get(name).expect("a registered scenario");
        let plan = SeedPlan {
            count: seed_count,
            ..scenario.sweep.seeds
        };
        timed(|| run_sweep_with(scenario, opts, &plan.seeds(), threads, share))
    };

    let (thread_counts, oversubscribed) = partition_thread_counts(&[1, 4], host_threads);
    let sweeps: Vec<_> = thread_counts
        .iter()
        .map(|&threads| sweep("fig05", threads, true))
        .collect();
    let (serial, serial_wall) = &sweeps[0];
    let mut checks: Vec<Check> = (thread_counts.iter().zip(&sweeps).skip(1))
        .map(|(threads, (wide, _))| {
            same_canonical(
                &format!("{threads}-thread vs 1-thread fig05 sweep"),
                &serial.to_canonical_json(),
                &wide.to_canonical_json(),
            )
        })
        .collect();
    let speedup = sweeps.get(1).map(|(_, wall)| serial_wall / wall.max(1e-9));
    checks.push(thread_scaling(host_threads, speedup));

    let (forked, forked_wall) = sweep("fig05w", 1, true);
    let (fresh, fresh_wall) = sweep("fig05w", 1, false);
    let fork = same_canonical(
        "forked vs fresh fig05w sweep",
        &fresh.to_canonical_json(),
        &forked.to_canonical_json(),
    );
    let record = SweepRecord {
        scenario: serial.scenario.clone(),
        seeds: seed_count,
        cells: serial.cells.len(),
        host_threads,
        runs: thread_counts
            .iter()
            .zip(&sweeps)
            .map(|(&threads, (report, wall))| SweepRun {
                threads,
                wall_clock_secs: rounded(*wall, 3),
                cells: report
                    .cells
                    .iter()
                    .map(|c| CellTiming {
                        point: c.point.clone(),
                        seed: c.seed,
                        wall_clock_secs: rounded(c.wall_clock_secs, 3),
                    })
                    .collect(),
            })
            .collect(),
        skipped: oversubscribed
            .into_iter()
            .map(|threads| SkippedRun {
                threads,
                reason: format!("host offers {host_threads} thread(s)"),
            })
            .collect(),
        snapshot: SnapshotRecord {
            scenario: forked.scenario,
            canonical_matches_fresh: fork.is_ok(),
            prefix_cells: forked.prefix_cells,
            forked_cells: forked.forked_cells,
            warmup_secs_saved: rounded(forked.warmup_secs_saved, 3),
            shared_wall_clock_secs: rounded(forked_wall, 3),
            fresh_wall_clock_secs: rounded(fresh_wall, 3),
        },
    };
    checks.push(fork);
    (record, checks)
}

/// The `lab bench` subcommand. `Ok` carries the exit status: 0, or 1 when a
/// check failed (the records are written either way).
pub(crate) fn bench(registry: &Registry, args: &[String]) -> Result<i32, String> {
    if !args.is_empty() {
        return Err(USAGE.to_string());
    }
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = |nodes, file_mb, time_limit| CommonOpts {
        nodes,
        file_mb: Some(file_mb),
        time_limit,
        ..CommonOpts::default()
    };

    let (events, mut checks) = events_record(&opts(Some(30), 16.0, 7_200.0));
    write_record(&events, "BENCH_events.json")?;
    let (scale, found) = scale_record(&[1_000, 5_000, 10_000]);
    write_record(&scale, "BENCH_scale.json")?;
    checks.extend(found);
    let service = service_record(&opts(Some(48), 2.0, 1_200.0));
    write_record(&service, "BENCH_service.json")?;
    let (sweep, found) = sweep_record(registry, &opts(None, 2.0, 3_600.0), 2, host_threads);
    write_record(&sweep, "BENCH_sweep.json")?;
    checks.extend(found);

    println!("wrote BENCH_events.json BENCH_scale.json BENCH_service.json BENCH_sweep.json");
    for check in &checks {
        match check {
            Ok(line) => println!("ok    {line}"),
            Err(line) => println!("FAIL  {line}"),
        }
    }
    Ok(i32::from(checks.iter().any(Result::is_err)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_check_fails_on_the_values_it_exists_to_catch() {
        assert!(trace_overhead(1.49).is_ok());
        assert!(trace_overhead(1.51).is_err());

        let point = |reason: &str| ScalePoint {
            nodes: 1_000,
            events_processed: 1,
            events_per_sec: 1.0,
            wall_clock_secs: 1.0,
            peak_alloc_bytes: 1,
            virtual_end_secs: 1.0,
            stop_reason: reason.to_string(),
        };
        assert!(all_complete(&[point("AllComplete")]).is_ok());
        assert!(all_complete(&[point("AllComplete"), point("TimeLimit")]).is_err());

        assert!(thread_scaling(4, Some(1.6)).is_ok());
        assert!(thread_scaling(4, Some(1.4)).is_err());
        // A narrower host is told the floor was not applied, whatever it measured.
        for speedup in [Some(1.0), None] {
            let line = thread_scaling(2, speedup).unwrap();
            assert!(line.contains("not applied"), "{line}");
        }

        // The traced, thread-count and fork legs all compare canonical
        // strings through this one function.
        assert!(same_canonical("leg", "a", "a").is_ok());
        assert!(same_canonical("leg", "a", "b").is_err());
    }

    /// `lab bench` measures the registry's workloads, not look-alikes: at
    /// tiny sizes every builder's deterministic fields equal the workload's
    /// own run.
    #[test]
    fn records_carry_the_registry_workloads_own_runs() {
        let opts = CommonOpts {
            nodes: Some(8),
            file_mb: Some(0.25),
            time_limit: 300.0,
            ..CommonOpts::default()
        };

        let (events, checks) = events_record(&opts);
        let own = fig05_workload(&opts, "default").unwrap().report();
        assert_eq!(events.events_processed, own.events);
        assert_eq!(events.metrics, own.metrics);
        assert!(events.trace.canonical_identical);
        assert!(events.trace.trace_records > 0);
        assert_eq!(checks.len(), 2);

        let (scale, checks) = scale_record(&[24]);
        let own = fig20_workload(
            &CommonOpts {
                nodes: Some(24),
                ..CommonOpts::default()
            },
            "default",
        )
        .unwrap()
        .report();
        assert_eq!(scale.points[0].events_processed, own.events);
        assert_eq!(scale.points[0].stop_reason, format!("{:?}", own.reason));
        assert!(checks[0].is_ok());

        let service = service_record(&opts);
        let cells = fig21_cells(&opts);
        assert_eq!(service.points.len(), cells.len());
        for (point, (_, cell)) in service.points.iter().zip(&cells) {
            let own = cell.run();
            assert_eq!(point.events_processed, own.events);
            assert_eq!(point.completed, own.completed);
        }

        // A 1-thread host runs the serial sweep only; the fork leg always
        // runs: fig05w's three variants per seed fork from one prefix.
        let registry = Registry::standard();
        let (sweep, checks) = sweep_record(&registry, &opts, 1, 1);
        assert_eq!((sweep.scenario.as_str(), sweep.cells), ("fig05", 3));
        assert_eq!((sweep.runs.len(), sweep.skipped.len()), (1, 1));
        assert_eq!(sweep.snapshot.scenario, "fig05w");
        assert_eq!(sweep.snapshot.prefix_cells, 1);
        assert_eq!(sweep.snapshot.forked_cells, 3);
        assert!(sweep.snapshot.canonical_matches_fresh);
        assert!(checks.iter().all(Result::is_ok));

        // Told it has four threads, it runs both counts and compares them
        // (the scaling verdict is this machine's business).
        let (sweep, checks) = sweep_record(&registry, &opts, 1, 4);
        assert_eq!((sweep.runs.len(), sweep.skipped.len()), (2, 0));
        let identity = checks[0].as_ref().unwrap();
        assert!(identity.starts_with("4-thread vs 1-thread"), "{identity}");
    }
}
