//! The `lab trace` subcommand: one scenario's Bullet′ workload run with the
//! full observability stack on — structured trace sink, stats probe and the
//! virtual-time profiler — followed by the analyzer pass.
//!
//! ```text
//! lab trace <scenario> [--json PATH] [--ring N] [--kind K] [--tail N] [figure options]
//! ```
//!
//! The run collects every [`TraceRecord`] in a bounded ring (`--ring`, a
//! memory cap: on overflow the *oldest* records drop, exactly like the
//! runner-side [`RingSink`]), prints the per-kind summary and the profiler's
//! wall-clock attribution, optionally writes the stream as JSONL (`--json`,
//! filtered to one record kind with `--kind`), and then **cross-checks the
//! trace against the probe**: [`replay_goodput`] rebuilds the per-node
//! goodput series from nothing but `block_received` and `probe_tick` records
//! and must reproduce the live [`StatsProbe`](netsim::StatsProbe) series
//! bit-for-bit. A complete trace that cannot replay the probe means the
//! instrumentation lies, so the mismatch is a hard error (for rings that
//! overflowed, or churn dynamics that reset cumulative counters, it degrades
//! to a warning).
//!
//! What is traced is the default-configuration Bullet′ run of the scenario's
//! own [`Workload`] — the value `lab run` presents — not the full
//! multi-system or multi-configuration comparison, which would interleave
//! unrelated streams. Scenarios without such a run are refused: the Shotgun
//! model (`fig15`) has nothing to emulate, and the open-system scenarios
//! belong to `lab serve`.

use std::cell::RefCell;
use std::rc::Rc;

use bullet_bench::{CommonOpts, Dynamics, Workload};
use netsim::{
    replay_goodput, summarize, ProfileReport, RingSink, RunReport, TimeSeries, TraceEvent,
    TraceRecord, TraceSink,
};

use crate::registry::Registry;
use crate::scenario::{Body, Scenario};

const USAGE: &str = "usage: lab trace <scenario> [--json PATH] [--ring N] [--kind K] [--tail N] \
[figure options]";

/// Default ring capacity: comfortably above any reduced-scale run's record
/// count, bounded so a `--full` trace cannot exhaust memory.
const DEFAULT_RING: usize = 1 << 22;

/// Flags peeled off before [`CommonOpts`] sees the rest.
#[derive(Debug)]
struct TraceArgs {
    json: Option<String>,
    ring: usize,
    kind: Option<String>,
    tail: usize,
    rest: Vec<String>,
}

impl Default for TraceArgs {
    fn default() -> Self {
        TraceArgs {
            json: None,
            ring: DEFAULT_RING,
            kind: None,
            tail: 0,
            rest: Vec::new(),
        }
    }
}

fn parse_trace_args(args: Vec<String>) -> Result<TraceArgs, String> {
    let mut out = TraceArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| -> Result<String, String> {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--json" => out.json = Some(value_for("--json")?),
            "--ring" => {
                out.ring = value_for("--ring")?
                    .parse()
                    .map_err(|_| format!("bad --ring\n{USAGE}"))?;
                if out.ring == 0 {
                    return Err(format!("--ring must be positive\n{USAGE}"));
                }
            }
            "--kind" => {
                let kind = value_for("--kind")?;
                if !TraceEvent::KINDS.contains(&kind.as_str()) {
                    return Err(format!(
                        "unknown record kind '{kind}'; one of: {}\n{USAGE}",
                        TraceEvent::KINDS.join(", ")
                    ));
                }
                out.kind = Some(kind);
            }
            "--tail" => {
                out.tail = value_for("--tail")?
                    .parse()
                    .map_err(|_| format!("bad --tail\n{USAGE}"))?;
            }
            other => out.rest.push(other.to_string()),
        }
    }
    Ok(out)
}

/// A [`TraceSink`] forwarding into a shared ring, so the CLI gets the records
/// back after the runner (which owns the boxed sink) is dropped.
struct SharedSink {
    ring: Rc<RefCell<RingSink>>,
}

impl TraceSink for SharedSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.ring.borrow_mut().record(rec);
    }

    fn recorded(&self) -> u64 {
        self.ring.borrow().recorded()
    }

    fn dropped(&self) -> u64 {
        self.ring.borrow().dropped()
    }
}

/// The result of one traced scenario run, records included.
#[derive(Debug)]
pub struct TracedRun {
    /// The run's report (probe time-series attached).
    pub report: RunReport,
    /// The profiler's wall-clock attribution.
    pub profile: Option<ProfileReport>,
    /// What ran.
    pub workload: Workload,
    /// The retained trace records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records the sink accepted in total.
    pub recorded: u64,
    /// Records the ring dropped on overflow (oldest first).
    pub dropped: u64,
}

/// The workload `lab trace` runs for `scenario`: its own, at its default
/// point, observed on a probe tick (`--tick`, default 2 s) if the scenario
/// does not observe it already — the replay check needs the probe series.
///
/// # Errors
///
/// Returns an error for scenarios without a Bullet′ run: the analytic model
/// and the open-system scenarios.
pub fn traced_workload(scenario: &Scenario, opts: &CommonOpts) -> Result<Workload, String> {
    match scenario.body {
        Body::Closed { workload, .. } => {
            let w = workload(opts, "default")?;
            Ok(Workload {
                tick: w.tick.or(Some(opts.tick.unwrap_or(2.0))),
                ..w
            })
        }
        Body::Open { .. } => Err(format!(
            "scenario '{}' is an open-system service run; use `lab serve {}` \
             (its ServiceReport carries the steady-state series a trace would)",
            scenario.name, scenario.name
        )),
        Body::Model(_) => Err(format!(
            "scenario '{}' runs the Shotgun tool, which has no Bullet' runner to trace",
            scenario.name
        )),
    }
}

/// Runs the default Bullet′ run of [`traced_workload`] with trace sink, probe
/// and profiler enabled, retaining up to `ring` records.
///
/// # Errors
///
/// Returns [`traced_workload`]'s errors.
pub fn traced_run(
    scenario: &Scenario,
    opts: &CommonOpts,
    ring: usize,
) -> Result<TracedRun, String> {
    let workload = traced_workload(scenario, opts)?;
    let shared = Rc::new(RefCell::new(RingSink::new(ring)));
    let mut runner = workload.bullet_prime_with(&workload.config(), |runner| {
        runner.set_trace_sink(Box::new(SharedSink {
            ring: Rc::clone(&shared),
        }));
        runner.enable_profiling(10.0);
    });
    let report = workload.run(&mut runner);
    let profile = runner.take_profile();
    drop(runner); // Releases the boxed sink, leaving `shared` sole owner.
    let ring = Rc::try_unwrap(shared)
        .map_err(|_| "trace ring still shared after the run".to_string())?
        .into_inner();
    let (recorded, dropped) = (ring.recorded(), ring.dropped());
    Ok(TracedRun {
        report,
        profile,
        workload,
        records: ring.into_records(),
        recorded,
        dropped,
    })
}

/// Compares the trace-replayed goodput series against the live probe's.
/// Returns a human-readable success summary, or the first mismatch.
pub fn check_replay(
    records: &[TraceRecord],
    series: &TimeSeries,
    nodes: usize,
) -> Result<String, String> {
    let replayed = replay_goodput(records, nodes)?;
    if replayed.len() != series.samples.len() {
        return Err(format!(
            "replay produced {} samples, the probe recorded {}",
            replayed.len(),
            series.samples.len()
        ));
    }
    for (r, s) in replayed.iter().zip(&series.samples) {
        if (r.time_secs - s.time_secs).abs() > 1e-9 {
            return Err(format!(
                "sample instants diverge: replayed t={:.6}s vs probe t={:.6}s",
                r.time_secs, s.time_secs
            ));
        }
        for (i, (rg, sn)) in r.goodput_bps.iter().zip(&s.nodes).enumerate() {
            // Both sides difference the same u64 counters over the same dt,
            // so the match is exact up to float noise.
            let tol = 1e-6 * sn.goodput_bps.abs().max(1.0);
            if (rg - sn.goodput_bps).abs() > tol {
                return Err(format!(
                    "t={:.1}s node {i}: replayed {:.1} bps vs probe {:.1} bps",
                    r.time_secs, rg, sn.goodput_bps
                ));
            }
        }
    }
    Ok(format!(
        "{} probe samples x {nodes} nodes reproduced from the trace",
        replayed.len()
    ))
}

/// The `lab trace` subcommand body.
pub fn trace(registry: &Registry, args: Vec<String>) -> Result<(), String> {
    let (name, rest) = crate::cli::take_scenario(args)?;
    let scenario = crate::cli::resolve(registry, &name)?;
    let targs = parse_trace_args(rest)?;
    let opts = CommonOpts::parse(targs.rest.clone())?;

    let run = traced_run(scenario, &opts, targs.ring)?;
    let keep = |rec: &&TraceRecord| match &targs.kind {
        Some(kind) => rec.ev.kind() == kind,
        None => true,
    };

    if let Some(path) = &targs.json {
        let mut out = String::new();
        let mut lines = 0u64;
        for rec in run.records.iter().filter(keep) {
            out.push_str(&serde_json::to_string(rec).expect("trace records always serialize"));
            out.push('\n');
            lines += 1;
        }
        std::fs::write(path, out).map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("wrote {path} ({lines} lines)");
    }

    println!(
        "trace {name}: {} nodes, {} events, virtual end {:.1}s ({:?})",
        run.workload.nodes,
        run.report.events,
        run.report.end_time.as_secs_f64(),
        run.report.reason,
    );
    println!(
        "records: {} emitted, {} dropped (ring capacity {}), {} retained",
        run.recorded,
        run.dropped,
        targs.ring,
        run.records.len()
    );
    let summary = summarize(&run.records);
    for (kind, count) in &summary.by_kind {
        println!("  {kind:<16} {count:>10}");
    }
    if let (Some(first), Some(last)) = (summary.first_t, summary.last_t) {
        println!("stream extent: {first:.3}s .. {last:.3}s");
    }

    if targs.tail > 0 {
        let shown: Vec<&TraceRecord> = run.records.iter().filter(keep).collect();
        let skip = shown.len().saturating_sub(targs.tail);
        for rec in &shown[skip..] {
            println!(
                "{}",
                serde_json::to_string(rec).expect("trace records always serialize")
            );
        }
    }

    let series = run
        .report
        .timeseries
        .as_ref()
        .expect("traced runs install the stats probe");
    // A churn run legitimately diverges: crashes reset cumulative counters
    // the replay cannot see. An overflowed ring lost the stream's head.
    let dynamics = run.workload.dynamics;
    let strict = run.dropped == 0
        && !matches!(
            dynamics,
            Dynamics::CrashWave { .. } | Dynamics::FlashCrowd { .. }
        );
    match check_replay(&run.records, series, run.workload.nodes) {
        Ok(msg) => println!("replay check: OK — {msg}"),
        Err(msg) if strict => return Err(format!("replay check FAILED: {msg}")),
        Err(msg) => println!(
            "replay check: skipped ({msg}; {} records dropped, {} dynamics)",
            run.dropped,
            dynamics.tag()
        ),
    }

    if let Some(profile) = &run.profile {
        println!(
            "profiler (wall-clock attribution, {} events):",
            run.report.events
        );
        for line in profile.lines() {
            println!("  {line}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_args_split_trace_flags_from_figure_flags() {
        let args = vec![
            "--json".to_string(),
            "out.jsonl".to_string(),
            "--ring".to_string(),
            "128".to_string(),
            "--kind".to_string(),
            "block_received".to_string(),
            "--tail".to_string(),
            "5".to_string(),
            "--nodes".to_string(),
            "8".to_string(),
        ];
        let parsed = parse_trace_args(args).unwrap();
        assert_eq!(parsed.json.as_deref(), Some("out.jsonl"));
        assert_eq!(parsed.ring, 128);
        assert_eq!(parsed.kind.as_deref(), Some("block_received"));
        assert_eq!(parsed.tail, 5);
        assert_eq!(parsed.rest, vec!["--nodes", "8"]);
        let opts = CommonOpts::parse(parsed.rest).unwrap();
        assert_eq!(opts.nodes, Some(8));
    }

    #[test]
    fn bogus_kind_and_zero_ring_are_usage_errors() {
        let err = parse_trace_args(vec!["--kind".to_string(), "bogus".to_string()]).unwrap_err();
        assert!(err.contains("unknown record kind"));
        assert!(err.contains("block_received"), "lists the vocabulary");
        let err = parse_trace_args(vec!["--ring".to_string(), "0".to_string()]).unwrap_err();
        assert!(err.contains("positive"));
    }

    #[test]
    fn shotgun_scenarios_are_not_traceable() {
        let registry = Registry::standard();
        let fig15 = registry.get("fig15").expect("registered");
        let err = traced_run(fig15, &CommonOpts::default(), 16).unwrap_err();
        assert!(err.contains("Shotgun"), "{err}");
    }

    #[test]
    fn open_system_scenarios_point_at_lab_serve() {
        let registry = Registry::standard();
        for name in ["fig21", "fig22"] {
            let sc = registry.get(name).expect("registered");
            let err = traced_run(sc, &CommonOpts::default(), 16).unwrap_err();
            assert!(err.contains("lab serve"), "{name}: {err}");
        }
    }

    #[test]
    fn tracing_runs_the_scenarios_own_workload_and_perturbs_nothing() {
        // For every scenario with a Bullet' run: what is traced is the
        // workload the figure presents, and the traced report is the bytes of
        // that workload run with no sink and no profiler.
        let registry = Registry::standard();
        let opts = CommonOpts {
            nodes: Some(8),
            file_mb: Some(0.25),
            time_limit: 1800.0,
            ..CommonOpts::default()
        };
        let mut traced = 0;
        for sc in registry.iter() {
            let Ok(workload) = traced_workload(sc, &opts) else {
                continue;
            };
            let run = traced_run(sc, &opts, DEFAULT_RING).unwrap();
            assert_eq!(run.workload, workload, "{}", sc.name);
            assert!(run.recorded > 0, "{}", sc.name);
            assert_eq!(
                run.report.canonical(),
                workload.report().canonical(),
                "{}: tracing perturbed the run",
                sc.name
            );
            traced += 1;
        }
        assert_eq!(traced, 18, "21 scenarios, one model, two open systems");
    }

    #[test]
    fn traced_workloads_are_the_figures_not_a_look_alike() {
        use bullet_bench::TopologyKind;
        let registry = Registry::standard();
        let traced = |name: &str, opts: &CommonOpts| {
            traced_workload(registry.get(name).expect("registered"), opts).unwrap()
        };
        let half_mb = CommonOpts {
            file_mb: Some(0.5),
            ..CommonOpts::default()
        };
        assert_eq!(traced("fig05", &half_mb).nodes, 60);
        let fig18 = traced("fig18", &CommonOpts::default());
        assert_eq!((fig18.nodes, fig18.groups), (32, 2), "two meshes");
        assert_eq!(
            fig18.topology,
            TopologyKind::SharedCore {
                core: netsim::mbps(2.0),
                loss: 0.01
            }
        );
        assert_eq!(
            traced("fig11", &CommonOpts::default()).topology,
            TopologyKind::HighBdpClique { max_loss: 0.015 }
        );
        // An unobserved scenario gains the probe the replay check needs; an
        // observed one keeps its own tick.
        assert_eq!(fig18.tick, Some(2.0));
        let ticked = CommonOpts {
            tick: Some(5.0),
            ..CommonOpts::default()
        };
        assert_eq!(traced("fig19", &ticked).tick, Some(5.0));
    }

    #[test]
    fn traced_fig05_replays_the_probe_series_from_the_ring() {
        // The acceptance check at smoke scale: the trace stream alone must
        // reproduce the StatsProbe goodput series.
        let registry = Registry::standard();
        let fig05 = registry.get("fig05").expect("registered");
        let opts = CommonOpts {
            nodes: Some(6),
            file_mb: Some(0.125),
            time_limit: 1800.0,
            tick: Some(1.0),
            ..CommonOpts::default()
        };
        let run = traced_run(fig05, &opts, DEFAULT_RING).unwrap();
        assert_eq!(run.dropped, 0, "smoke run must fit the default ring");
        assert_eq!(run.recorded as usize, run.records.len());
        assert!(run.records.len() > 100, "a real run emits many records");
        let series = run.report.timeseries.as_ref().expect("probe installed");
        let msg =
            check_replay(&run.records, series, run.workload.nodes).expect("replay must match");
        assert!(msg.contains("6 nodes"), "{msg}");
        // The profiler saw the run too.
        let profile = run.profile.expect("profiling was enabled");
        assert!(profile.total_nanos() > 0);
    }
}
