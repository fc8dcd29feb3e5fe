//! Serde views of the four committed perf records `lab bench` writes
//! (`BENCH_events.json`, `BENCH_scale.json`, `BENCH_service.json`,
//! `BENCH_sweep.json`; see [`crate::bench`], their only producer).
//!
//! Plain structs with `#[derive(Serialize)]`, rendered with
//! [`serde_json::to_string_pretty`]. Wall-clock fields are rounded before
//! serialization so the committed records stay short and diffs stay
//! readable; deterministic fields are emitted exactly.

use netsim::MetricsSnapshot;
use serde::Serialize;

/// Rounds to `digits` decimal places (for wall-clock fields committed to the
/// repository — full f64 precision is noise there).
pub fn rounded(x: f64, digits: u32) -> f64 {
    let scale = 10f64.powi(digits as i32);
    (x * scale).round() / scale
}

/// Writes `record` to `path` as pretty JSON.
pub fn write_record(record: &impl Serialize, path: &str) -> Result<(), String> {
    let mut json = serde_json::to_string_pretty(record).expect("record serializes");
    json.push('\n');
    std::fs::write(path, json).map_err(|e| format!("failed to write {path}: {e}"))
}

/// The traced leg of the events record: the same fixed-seed workload run a
/// second time with a counting trace sink installed. It must produce a
/// byte-identical canonical `RunReport` at bounded wall-clock overhead
/// (`docs/OBSERVABILITY.md`).
#[derive(Debug, Clone, Serialize)]
pub struct TraceCheck {
    /// Records the counting sink accepted during the traced run.
    pub trace_records: u64,
    /// Wall-clock seconds of the traced run.
    pub trace_wall_clock_secs: f64,
    /// Traced wall-clock divided by untraced wall-clock (checked ≤ 1.5).
    pub trace_overhead_ratio: f64,
    /// Whether `RunReport::canonical` matched between the traced and
    /// untraced runs (checked).
    pub canonical_identical: bool,
}

/// The `BENCH_events.json` record: the fixed-seed dynamics-heavy run.
#[derive(Debug, Clone, Serialize)]
pub struct EventsRecord {
    /// Human-readable workload label.
    pub benchmark: &'static str,
    /// RNG seed of the fixed workload.
    pub seed: u64,
    /// Swarm size.
    pub nodes: usize,
    /// Disseminated file size in bytes.
    pub file_bytes: u64,
    /// Block size in bytes.
    pub block_bytes: u32,
    /// Simulator events processed (deterministic).
    pub events_processed: u64,
    /// Heap allocations during the run (deterministic, informational).
    pub run_allocs: u64,
    /// Live-heap high-water mark in bytes (deterministic, informational).
    pub peak_alloc_bytes: u64,
    /// Wall-clock seconds of the untraced run (machine-dependent).
    pub wall_clock_secs: f64,
    /// Virtual end time of the run in seconds (deterministic).
    pub virtual_end_secs: f64,
    /// `Debug` form of the stop reason (deterministic).
    pub stop_reason: String,
    /// The run's deterministic metrics snapshot (see
    /// `docs/OBSERVABILITY.md`).
    pub metrics: MetricsSnapshot,
    /// The traced-run identity/overhead check.
    pub trace: TraceCheck,
}

/// One swarm-size point of the `BENCH_scale.json` record.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    /// Swarm size of this point.
    pub nodes: usize,
    /// Simulator events processed (deterministic).
    pub events_processed: u64,
    /// Events per wall-clock second (machine-dependent).
    pub events_per_sec: f64,
    /// Wall-clock seconds (machine-dependent).
    pub wall_clock_secs: f64,
    /// Live-heap high-water mark in bytes (deterministic).
    pub peak_alloc_bytes: u64,
    /// Virtual end time in seconds (deterministic).
    pub virtual_end_secs: f64,
    /// `Debug` form of the stop reason (checked: `AllComplete`).
    pub stop_reason: String,
}

/// The `BENCH_scale.json` record: the fig20 workload per swarm size.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleRecord {
    /// Human-readable workload label.
    pub benchmark: &'static str,
    /// RNG seed of the fixed workload.
    pub seed: u64,
    /// Disseminated file size in bytes.
    pub file_bytes: u64,
    /// Block size in bytes.
    pub block_bytes: u32,
    /// One entry per swarm size, in run order.
    pub points: Vec<ScalePoint>,
}

/// One offered-load point of the `BENCH_service.json` record.
#[derive(Debug, Clone, Serialize)]
pub struct ServicePoint {
    /// Offered load of this point in swarm arrivals per 1000 virtual
    /// seconds.
    pub offered_per_1000s: f64,
    /// Sustained goodput past the warmup boundary, bits per second
    /// (deterministic).
    pub sustained_goodput_bps: f64,
    /// Swarm arrivals materialised within the horizon (deterministic).
    pub arrivals: usize,
    /// Swarms admitted to a segment (deterministic).
    pub admitted: usize,
    /// Swarms completed and reaped (deterministic).
    pub completed: usize,
    /// Swarms still occupying a segment at the horizon (deterministic).
    pub in_flight_at_end: usize,
    /// Swarms still queueing for a segment at the horizon (deterministic).
    pub queued_at_end: usize,
    /// Peak number of concurrently admitted swarms (deterministic).
    pub max_concurrent: usize,
    /// Median completion latency since arrival, seconds (deterministic;
    /// 0 when nothing completed).
    pub p50_latency_secs: f64,
    /// 90th-percentile completion latency since arrival (deterministic;
    /// 0 when nothing completed).
    pub p90_latency_secs: f64,
    /// Simulator events processed (deterministic).
    pub events_processed: u64,
    /// Wall-clock seconds (machine-dependent).
    pub wall_clock_secs: f64,
}

/// The `BENCH_service.json` record: the reduced fixed-seed fig21
/// offered-load sweep (one open-system service run per load point).
#[derive(Debug, Clone, Serialize)]
pub struct ServiceRecord {
    /// Human-readable workload label.
    pub benchmark: &'static str,
    /// RNG seed of the fixed workload.
    pub seed: u64,
    /// Slot-pool size shared by every point.
    pub pool_nodes: usize,
    /// Service horizon in virtual seconds.
    pub horizon_secs: f64,
    /// One entry per offered-load point, ascending.
    pub points: Vec<ServicePoint>,
}

/// The `BENCH_sweep.json` record: one sweep timed per worker-thread count
/// (and per cell within each run), plus the warm-prefix sharing leg.
/// `host_threads` records the parallelism the machine actually offered, and
/// `skipped` the thread counts the host could not genuinely run in parallel
/// (they are skipped, not timed — an oversubscribed "4-thread" run on a
/// narrower host would commit misleading flat numbers).
#[derive(Debug, Clone, Serialize)]
pub struct SweepRecord {
    /// The swept scenario.
    pub scenario: String,
    /// Seeds per parameter point.
    pub seeds: usize,
    /// Cells per run (points × seeds).
    pub cells: usize,
    /// `std::thread::available_parallelism` of the measuring host.
    pub host_threads: usize,
    /// One entry per thread count that ran.
    pub runs: Vec<SweepRun>,
    /// The thread counts that did not.
    pub skipped: Vec<SkippedRun>,
    /// The warm-prefix sharing leg.
    pub snapshot: SnapshotRecord,
}

/// One timed sweep of [`SweepRecord`].
#[derive(Debug, Clone, Serialize)]
pub struct SweepRun {
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock seconds of the whole sweep (machine-dependent).
    pub wall_clock_secs: f64,
    /// Wall clock per cell, in cell order.
    pub cells: Vec<CellTiming>,
}

/// Wall clock of one sweep cell inside one [`SweepRun`].
#[derive(Debug, Clone, Serialize)]
pub struct CellTiming {
    /// Parameter-point label.
    pub point: String,
    /// Experiment seed.
    pub seed: u64,
    /// Wall-clock seconds (machine-dependent).
    pub wall_clock_secs: f64,
}

/// A thread count the sweep leg did not run, and why.
#[derive(Debug, Clone, Serialize)]
pub struct SkippedRun {
    /// Worker threads.
    pub threads: usize,
    /// Why it was skipped.
    pub reason: String,
}

/// The warm-prefix sharing leg of [`SweepRecord`]: the warm-up scenario's
/// sweep with sharing on and off, single-threaded.
#[derive(Debug, Clone, Serialize)]
pub struct SnapshotRecord {
    /// The warm-up scenario.
    pub scenario: String,
    /// Whether the forked sweep's canonical rendering matched the
    /// uninterrupted one (checked).
    pub canonical_matches_fresh: bool,
    /// Shared warm-up prefixes simulated (deterministic).
    pub prefix_cells: usize,
    /// Cells forked from a shared prefix (deterministic).
    pub forked_cells: usize,
    /// Warm-up wall clock the sharing run did not re-simulate
    /// (machine-dependent).
    pub warmup_secs_saved: f64,
    /// Wall-clock seconds with sharing on (machine-dependent).
    pub shared_wall_clock_secs: f64,
    /// Wall-clock seconds with sharing off (machine-dependent).
    pub fresh_wall_clock_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_truncates_committed_noise() {
        assert_eq!(rounded(0.123456, 3), 0.123);
        assert_eq!(rounded(226123.7, 0), 226124.0);
    }
}
