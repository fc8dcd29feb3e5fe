//! Emits a small JSON performance record (`BENCH_service.json`) for the
//! reduced fixed-seed fig21 offered-load sweep, so successive PRs have a
//! steady-state trajectory to compare against: the sustained goodput at the
//! top offered load is the open-system figure of merit (ci.sh fails if it
//! regresses by more than 10%), and the admission/queue counters plus the
//! per-load completion percentiles record how the service knee moves.
//!
//! Every field except `wall_clock_secs` is deterministic for a given binary
//! — each point is one seeded `netsim::run_service` simulation.
//!
//! Usage: `bench_service [--out PATH]` (default `BENCH_service.json` in the
//! current directory). All workload parameters are fixed on purpose — the
//! point is comparability across commits, not configurability.

use std::time::Instant;

use bullet_bench::experiments::{fig21_cells, FIG21_LOADS};
use bullet_bench::views::{out_path_arg, write_record, ServicePoint, ServiceRecord};
use bullet_bench::CommonOpts;

/// Fixed workload: the fig21 sweep at a reduced pool and horizon (the
/// scenario's own reduced defaults are sized for figure quality; this record
/// is re-generated on every CI run, so it trims the horizon further).
const SEED: u64 = 20050410;
const POOL_NODES: usize = 48;
const FILE_MB: f64 = 2.0;
const HORIZON_SECS: f64 = 1_200.0;

fn main() {
    let out_path = out_path_arg("bench_service", "BENCH_service.json");

    let opts = CommonOpts {
        seed: SEED,
        nodes: Some(POOL_NODES),
        file_mb: Some(FILE_MB),
        time_limit: HORIZON_SECS,
        ..CommonOpts::default()
    };
    let mut points = Vec::new();
    for ((_, cell), load) in fig21_cells(&opts).iter().zip(FIG21_LOADS) {
        let started = Instant::now();
        let report = cell.run();
        let wall = started.elapsed().as_secs_f64();
        eprintln!(
            "load {load}/1000s: {} admitted, {} completed, {:.3} Mbps sustained, {wall:.3}s wall",
            report.admitted,
            report.completed,
            report.sustained_goodput_bps / 1e6,
        );
        points.push(ServicePoint::from_report(load, &report, wall));
    }

    let record = ServiceRecord {
        benchmark: "fig21-style open-system offered-load sweep",
        seed: SEED,
        pool_nodes: POOL_NODES,
        horizon_secs: HORIZON_SECS,
        points,
    };
    write_record(&record, &out_path);
}
