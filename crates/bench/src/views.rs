//! Shared serde views for the committed perf records.
//!
//! `bench_events` and `bench_scale` used to hand-format their JSON with
//! `format!` templates; every added field meant duplicating brace-escaping
//! and comma bookkeeping in two binaries. These views are plain structs with
//! `#[derive(Serialize)]`, rendered with [`serde_json::to_string_pretty`] —
//! field declaration order is emission order, which the ci.sh extraction
//! patterns (`grep -o '"events_processed": *[0-9]*'`, the `"nodes": N` awk
//! anchor of the scale gate) rely on.
//!
//! Wall-clock fields are rounded before serialization so the committed
//! records stay short and diffs stay readable; deterministic fields are
//! emitted exactly.

use netsim::{MetricsSnapshot, RunReport, ServiceReport};
use serde::Serialize;

/// Rounds to `digits` decimal places (for wall-clock fields committed to the
/// repository — full f64 precision is noise there).
pub fn rounded(x: f64, digits: u32) -> f64 {
    let scale = 10f64.powi(digits as i32);
    (x * scale).round() / scale
}

/// The command line of a record binary whose only option is `--out PATH`:
/// the path, or `default`. Exits with the usage on anything else.
pub fn out_path_arg(bin: &str, default: &str) -> String {
    let mut args = std::env::args().skip(1);
    match (args.next().as_deref(), args.next(), args.next()) {
        (None, ..) => default.to_string(),
        (Some("--out"), Some(path), None) => path,
        _ => {
            eprintln!("usage: {bin} [--out PATH]");
            std::process::exit(2);
        }
    }
}

/// Prints `record` as pretty JSON and writes it to `path`; exits with status
/// 1 if the file cannot be written.
pub fn write_record(record: &impl Serialize, path: &str) {
    let mut json = serde_json::to_string_pretty(record).expect("record serializes");
    json.push('\n');
    print!("{json}");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

/// The traced-run identity check of `bench_events` (see ci.sh): the same
/// fixed-seed workload is run a second time with a counting trace sink and
/// the profiler enabled, and must produce a byte-identical canonical
/// [`RunReport`] at bounded wall-clock overhead.
#[derive(Debug, Clone, Serialize)]
pub struct TraceCheck {
    /// Records the counting sink accepted during the traced run.
    pub trace_records: u64,
    /// Wall-clock seconds of the traced run.
    pub trace_wall_clock_secs: f64,
    /// Traced wall-clock divided by untraced wall-clock (ci.sh gates ≤ 1.5).
    pub trace_overhead_ratio: f64,
    /// Whether [`RunReport::canonical`] matched between the traced and
    /// untraced runs (ci.sh fails if false).
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
    /// Simulator events processed (deterministic, gated ±10%).
    pub events_processed: u64,
    /// Heap allocations during the run (deterministic, informational).
    pub run_allocs: u64,
    /// Live-heap high-water mark in bytes (deterministic, informational).
    pub peak_alloc_bytes: u64,
    /// Wall-clock seconds of the untraced run (machine-dependent, gated
    /// absolutely at 0.72 s).
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
    /// Swarm size of this point (the awk anchor of the ci.sh scale gate —
    /// keep it the first field).
    pub nodes: usize,
    /// Simulator events processed (deterministic).
    pub events_processed: u64,
    /// Events per wall-clock second (machine-dependent, gated at N = 1000).
    pub events_per_sec: f64,
    /// Wall-clock seconds (machine-dependent).
    pub wall_clock_secs: f64,
    /// Live-heap high-water mark in bytes (deterministic).
    pub peak_alloc_bytes: u64,
    /// Virtual end time in seconds (deterministic).
    pub virtual_end_secs: f64,
    /// `Debug` form of the stop reason (must be `AllComplete`).
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

impl ScalePoint {
    /// Builds a point from a finished run's report and its measured wall
    /// clock, rounding the machine-dependent fields.
    pub fn from_report(nodes: usize, report: &RunReport, wall_secs: f64, peak_bytes: u64) -> Self {
        ScalePoint {
            nodes,
            events_processed: report.events,
            events_per_sec: rounded(report.events as f64 / wall_secs.max(1e-9), 0),
            wall_clock_secs: rounded(wall_secs, 3),
            peak_alloc_bytes: peak_bytes,
            virtual_end_secs: rounded(report.end_time.as_secs_f64(), 6),
            stop_reason: format!("{:?}", report.reason),
        }
    }
}

/// One offered-load point of the `BENCH_service.json` record.
#[derive(Debug, Clone, Serialize)]
pub struct ServicePoint {
    /// Offered load of this point in swarm arrivals per 1000 virtual
    /// seconds (the awk anchor of the ci.sh service gate — keep it the
    /// first field).
    pub offered_per_1000s: f64,
    /// Sustained goodput past the warmup boundary, bits per second
    /// (deterministic, gated ±10% at the top load).
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
    /// Wall-clock seconds (machine-dependent, informational).
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

impl ServicePoint {
    /// Builds a point from a finished service run's report and its measured
    /// wall clock, rounding the noisy fields.
    pub fn from_report(offered_per_1000s: f64, report: &ServiceReport, wall_secs: f64) -> Self {
        ServicePoint {
            offered_per_1000s,
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
            wall_clock_secs: rounded(wall_secs, 3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_record_keeps_the_ci_extraction_shape() {
        let record = ServiceRecord {
            benchmark: "test",
            seed: 1,
            pool_nodes: 48,
            horizon_secs: 1200.0,
            points: vec![ServicePoint {
                offered_per_1000s: 128.0,
                sustained_goodput_bps: 12081234.5,
                arrivals: 229,
                admitted: 171,
                completed: 167,
                in_flight_at_end: 4,
                queued_at_end: 58,
                max_concurrent: 4,
                p50_latency_secs: 207.5,
                p90_latency_secs: 418.5,
                events_processed: 1128352,
                wall_clock_secs: 6.333,
            }],
        };
        let json = serde_json::to_string_pretty(&record).unwrap();
        // The ci.sh service gate extracts the LAST sustained_goodput_bps
        // line (the top-load point); verify the `"key": value` shape.
        assert!(
            json.contains(r#""sustained_goodput_bps": 12081234.5"#),
            "{json}"
        );
        // The anchor field leads its point.
        let anchor = json.find(r#""offered_per_1000s": 128.0"#).unwrap();
        let goodput = json.find(r#""sustained_goodput_bps":"#).unwrap();
        assert!(anchor < goodput);
    }

    #[test]
    fn scale_record_keeps_the_ci_extraction_shape() {
        let record = ScaleRecord {
            benchmark: "test",
            seed: 1,
            file_bytes: 2,
            block_bytes: 3,
            points: vec![ScalePoint {
                nodes: 1000,
                events_processed: 42,
                events_per_sec: 226000.0,
                wall_clock_secs: 0.123,
                peak_alloc_bytes: 7,
                virtual_end_secs: 99.5,
                stop_reason: "AllComplete".to_string(),
            }],
        };
        let json = serde_json::to_string_pretty(&record).unwrap();
        // The awk anchor of the ci.sh scale gate: a line ending exactly in
        // `"nodes": 1000,` followed (later) by an `"events_per_sec"` line.
        assert!(
            json.lines().any(|l| l.trim() == r#""nodes": 1000,"#),
            "{json}"
        );
        let nodes_pos = json.find(r#""nodes": 1000,"#).unwrap();
        let eps_pos = json.find(r#""events_per_sec":"#).unwrap();
        assert!(nodes_pos < eps_pos);
        // The grep patterns of the events gate tolerate any digits after the
        // colon+space; verify the basic `"key": value` shape holds.
        assert!(json.contains(r#""events_processed": 42"#), "{json}");
    }

    #[test]
    fn rounding_truncates_committed_noise() {
        assert_eq!(rounded(0.123456, 3), 0.123);
        assert_eq!(rounded(226123.7, 0), 226124.0);
    }
}
