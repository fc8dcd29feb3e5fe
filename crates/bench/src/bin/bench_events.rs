//! Emits a small JSON performance record (`BENCH_events.json`) for a
//! fixed-seed, dynamics-heavy Figure-5-style run, so successive PRs have a
//! perf trajectory to compare against: the number of simulator events
//! processed is a deterministic proxy for scheduler efficiency, the heap
//! allocation count is a deterministic proxy for per-event overhead, and the
//! wall-clock time tracks real cost on the machine that ran CI.
//!
//! The same workload then runs a **second** time with a counting trace sink
//! and the wall-clock profiler enabled. The record carries (a) whether the
//! traced run's canonical [`netsim::RunReport`] was byte-identical to the
//! untraced one — the observability layer's "tracing perturbs nothing"
//! contract — and (b) the traced/untraced wall-clock ratio, which ci.sh
//! gates at ≤ 1.5×.
//!
//! Usage: `bench_events [--out PATH]` (default `BENCH_events.json` in the
//! current directory). All workload parameters are fixed on purpose — the
//! point is comparability across commits, not configurability.

use std::time::Instant;

use bullet_bench::alloc_track::{self, CountingAlloc};
use bullet_bench::experiments::fig05_workload;
use bullet_bench::views::{out_path_arg, rounded, write_record, EventsRecord, TraceCheck};
use bullet_bench::{CommonOpts, Workload};
use netsim::{CountingSink, RunReport};

// Counts heap allocations (a deterministic proxy for the cost of the
// runner's dispatch path — stable to within a few allocations across runs)
// and the live-bytes high-water mark (the portable stand-in for peak RSS).
// Both are informational here; `bench_scale` gates the scaling trajectory.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Fixed workload: Figure 5's (synthetic correlated bandwidth decreases
/// every 20 s on a lossy mesh), the most reprice-heavy run in the suite, at
/// 30 nodes and 16 MiB.
const NODES: usize = 30;
const FILE_MB: f64 = 16.0;

fn workload() -> Workload {
    let opts = CommonOpts {
        nodes: Some(NODES),
        file_mb: Some(FILE_MB),
        ..CommonOpts::default()
    };
    fig05_workload(&opts, "default").expect("fig05 has one point")
}

/// Runs the fixed workload once, optionally traced + profiled, returning the
/// report, its wall-clock seconds, and the allocation count of building and
/// running it.
fn run_workload(traced: bool) -> (RunReport, f64, u64) {
    let w = workload();
    let started = Instant::now();
    let allocs_before = alloc_track::allocs();
    let mut runner = w.bullet_prime_with(&w.config(), |runner| {
        if traced {
            runner.set_trace_sink(Box::new(CountingSink::new()));
            runner.enable_profiling(10.0);
        }
    });
    let report = w.run(&mut runner);
    let wall = started.elapsed().as_secs_f64();
    let allocs = alloc_track::allocs() - allocs_before;
    if traced {
        if let Some(profile) = runner.take_profile() {
            eprintln!("traced-run wall-clock attribution:");
            for line in profile.lines() {
                eprintln!("  {line}");
            }
        }
    }
    (report, wall, allocs)
}

fn main() {
    let out_path = out_path_arg("bench_events", "BENCH_events.json");

    alloc_track::reset_peak();
    let (report, wall, allocs) = run_workload(false);
    let peak_bytes = alloc_track::peak_bytes();

    // Second run, traced + profiled: same seed, same schedule. Canonical
    // identity between the two reports is the observability layer's
    // perturbs-nothing contract (ci.sh fails on a mismatch); the wall-clock
    // ratio is its overhead contract (ci.sh gates ≤ 1.5×).
    let (traced_report, traced_wall, _) = run_workload(true);
    let canonical_identical = traced_report.canonical() == report.canonical();
    if !canonical_identical {
        eprintln!("WARNING: traced run diverged from the untraced run");
    }

    // `events_processed`, `run_allocs`, `peak_alloc_bytes`,
    // `virtual_end_secs` and `metrics` are deterministic for a given binary;
    // wall-clock fields are whatever the machine that last ran CI measured —
    // committed anyway so perf PRs leave a real time trajectory next to the
    // event counts (compare deltas on one machine, not absolute values
    // across machines).
    let w = workload();
    let record = EventsRecord {
        benchmark: "fig05-style dynamics-heavy run",
        seed: w.seed,
        nodes: w.nodes,
        file_bytes: w.file.file_bytes,
        block_bytes: w.file.block_bytes,
        events_processed: report.events,
        run_allocs: allocs,
        peak_alloc_bytes: peak_bytes,
        wall_clock_secs: rounded(wall, 3),
        virtual_end_secs: rounded(report.end_time.as_secs_f64(), 6),
        stop_reason: format!("{:?}", report.reason),
        metrics: report.metrics.clone(),
        trace: TraceCheck {
            trace_records: traced_report.trace_records,
            trace_wall_clock_secs: rounded(traced_wall, 3),
            trace_overhead_ratio: rounded(traced_wall / wall.max(1e-9), 3),
            canonical_identical,
        },
    };
    write_record(&record, &out_path);
}
