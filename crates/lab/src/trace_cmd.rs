//! The `lab trace` subcommand: one Bullet′ run of a scenario, closed or open,
//! with the observability stack on — structured trace sink and stats probe —
//! followed by the analyzer pass. Every answer is in virtual time; where the
//! *host's* time went is `benchmark/run.sh --workload W --trace 1`.
//!
//! ```text
//! lab trace <scenario> [--json PATH] [--ring N] [--kind K] [--tail N] [figure options]
//! ```
//!
//! The run collects every [`TraceRecord`] in a [`RingSink`] (`--ring`, a
//! memory cap: on overflow the *oldest* records drop), prints the per-kind
//! summary, optionally writes the stream as JSONL (`--json`, filtered to one
//! record kind with `--kind`), and then **cross-checks the trace against the
//! probe**: [`replay_goodput`] rebuilds the per-node goodput series from
//! nothing but `block_received` and `probe_tick` records and must reproduce
//! the live [`StatsProbe`](netsim::StatsProbe) series bit-for-bit, churn
//! runs included. A complete trace that cannot replay the probe means the
//! instrumentation lies, so the mismatch is a hard error; only a ring that
//! overflowed, and so lost the stream's head, degrades it to a warning. It
//! ends with what the run reported and the run's non-zero counters. For a
//! closed run the report is the per-receiver table — completion time, peer
//! counts, duplicate share, useful blocks, control bytes, slowest last: which
//! receiver was slow, and which mechanism was busy. For an open run it is
//! the cell's service summary, the block `lab run` prints under the figure.
//!
//! What is traced is one run the figure presents, not the full
//! multi-system, multi-configuration or multi-cell comparison, which would
//! interleave unrelated streams. For a closed scenario that is the
//! default-configuration Bullet′ run of its own [`Workload`]; for an open
//! one it is its last [`ServiceWorkload`] cell — fig21's top load, where the
//! knee is, or fig22's only cell — probed at the cell's tick, so the replay
//! check covers every slot of the pool.

use std::io::Write;

use bullet_bench::experiments::{service_summary, WorkloadFn};
use bullet_bench::{CommonOpts, ServiceWorkload, Workload};
use bullet_prime::{BulletPrimeNode, Role};
use desim::SimDuration;
use netsim::{
    replay_goodput, summarize, MetricsSnapshot, ProbeStats, Protocol, RingSink, RunReport, Runner,
    ServiceReport, TimeSeries, TraceEvent, TraceRecord, TraceSink,
};

use crate::cli::Stop;
use crate::registry::Registry;
use crate::scenario::{Body, Scenario};

const USAGE: &str = "usage: lab trace <scenario> [--json PATH] [--ring N] [--kind K] [--tail N] \
[figure options]";

/// Default ring capacity: comfortably above any reduced-scale run's record
/// count, bounded so a `--full` trace cannot exhaust memory.
const DEFAULT_RING: usize = 1 << 22;

/// Flags peeled off before [`CommonOpts`] sees the rest.
#[derive(Debug, Default)]
struct TraceArgs {
    json: Option<String>,
    /// `--ring`, if given ([`DEFAULT_RING`] if not).
    ring: Option<usize>,
    kind: Option<String>,
    tail: usize,
    rest: Vec<String>,
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
            "--ring" => match value_for("--ring")?.parse() {
                Ok(ring @ 1..) => out.ring = Some(ring),
                Ok(_) => return Err(format!("--ring must be positive\n{USAGE}")),
                Err(_) => return Err(format!("bad --ring\n{USAGE}")),
            },
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

/// Rows of the receiver table `lab trace` prints before the rest are
/// elided (the cap `service_summary` puts on cohorts).
const SHOWN_RECEIVERS: usize = 12;

/// One receiver of a traced run: a row of the table `lab trace` ends with.
#[derive(Debug)]
pub struct ReceiverRow {
    /// The receiver's node id.
    pub node: u32,
    /// When it completed, in virtual seconds ([`RunReport::completion_secs`]).
    pub done_secs: Option<f64>,
    /// Its block counters, and the senders / receivers it held when the run
    /// ended.
    pub stats: ProbeStats,
    /// Control bytes it sent / received.
    pub control_bytes: (u64, u64),
}

/// Every receiver of a finished run, fastest first and unfinished last.
fn receiver_rows(runner: &Runner<BulletPrimeNode>, report: &RunReport) -> Vec<ReceiverRow> {
    let receivers = runner.nodes().iter().filter(|n| n.role() == Role::Receiver);
    let mut rows: Vec<ReceiverRow> = receivers
        .map(|node| {
            let traffic = runner.network().traffic(node.id());
            ReceiverRow {
                node: node.id().0,
                done_secs: report.completion_secs[node.id().index()],
                stats: node.probe_stats(),
                control_bytes: (traffic.control_bytes_out, traffic.control_bytes_in),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        let done = |r: &ReceiverRow| r.done_secs.unwrap_or(f64::INFINITY);
        done(a).total_cmp(&done(b))
    });
    rows
}

/// The receiver table: the [`SHOWN_RECEIVERS`] slowest rows, slowest last.
fn receiver_table(rows: &[ReceiverRow]) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "{:>5} {:>10} {:>8} {:>8} {:>8} {:>9} {:>10} {:>10}\n",
        "node", "done(s)", "senders", "recvrs", "dup%", "blocks", "ctl_out", "ctl_in"
    );
    let elided = rows.len().saturating_sub(SHOWN_RECEIVERS);
    if elided > 0 {
        let _ = writeln!(out, "  ... {elided} faster receivers");
    }
    for r in &rows[elided..] {
        let _ = writeln!(
            out,
            "{:>5} {:>10.1} {:>8} {:>8} {:>8.1} {:>9} {:>10} {:>10}",
            r.node,
            r.done_secs.unwrap_or(f64::NAN),
            r.stats.senders,
            r.stats.receivers,
            r.stats.duplicate_ratio() * 100.0,
            r.stats.useful_blocks,
            r.control_bytes.0,
            r.control_bytes.1,
        );
    }
    out
}

/// What a traced run ran, and what it reported (probe series attached).
#[derive(Debug)]
pub enum Traced {
    /// A closed scenario's default Bullet′ run: its workload, its report and
    /// one row per receiver, fastest first.
    Closed(Workload, RunReport, Vec<ReceiverRow>),
    /// An open scenario's last cell — fig21's top load (the knee), fig22's
    /// only cell: its label, the cell and the service's report.
    Open(String, ServiceWorkload, ServiceReport),
}

/// The result of one traced scenario run, records included.
#[derive(Debug)]
pub struct TracedRun {
    /// What ran, and its report.
    pub traced: Traced,
    /// The retained trace records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records the sink accepted in total.
    pub recorded: u64,
    /// Records the ring dropped on overflow (oldest first).
    pub dropped: u64,
    /// The runner's metrics when the run ended.
    pub metrics: MetricsSnapshot,
}

impl TracedRun {
    /// The slots the probe sampled — every node of a closed run, the whole
    /// pool of an open one — and its series, which the trace must replay.
    pub fn probed(&self) -> (usize, &TimeSeries) {
        let (nodes, series) = match &self.traced {
            Traced::Closed(workload, report, _) => (workload.nodes, &report.timeseries),
            Traced::Open(_, cell, report) => (cell.pool, &report.timeseries),
        };
        (nodes, series.as_ref().expect("probe installed"))
    }
}

/// The workload `lab trace` runs for a closed scenario: its own, at its
/// default point, observed on a probe tick (`--tick`, default 2 s) if the
/// scenario does not observe it already — the replay check needs the probe
/// series.
///
/// # Errors
///
/// Returns the workload function's errors.
pub fn traced_workload(workload: WorkloadFn, opts: &CommonOpts) -> Result<Workload, String> {
    let w = workload(opts, "default")?;
    Ok(Workload {
        tick: w.tick.or(Some(opts.tick.unwrap_or(2.0))),
        ..w
    })
}

/// Runs `scenario` with trace sink and probe enabled, retaining up to `ring`
/// records: a closed scenario's [`traced_workload`] as its default Bullet′
/// run, an open scenario's last cell probed at the cell's tick.
///
/// # Errors
///
/// Returns [`traced_workload`]'s errors.
pub fn traced_run(
    scenario: &Scenario,
    opts: &CommonOpts,
    ring: usize,
) -> Result<TracedRun, String> {
    let sink = Box::new(RingSink::new(ring));
    let (traced, mut runner) = match scenario.body {
        Body::Closed { workload, .. } => {
            let workload = traced_workload(workload, opts)?;
            let mut runner = workload.bullet_prime(&workload.config(), Some(sink));
            let report = workload.run(&mut runner);
            let receivers = receiver_rows(&runner, &report);
            (Traced::Closed(workload, report, receivers), runner)
        }
        Body::Open { cells, .. } => {
            let (label, cell) = cells(opts).pop().expect("an open scenario has cells");
            let mut runner = cell.runner(Some(sink));
            runner.record_timeseries(SimDuration::from_secs_f64(cell.tick));
            let report = cell.serve(&mut runner);
            (Traced::Open(label, cell, report), runner)
        }
    };
    let ring = runner
        .take_trace_sink::<RingSink>()
        .expect("a ring was installed");
    Ok(TracedRun {
        traced,
        recorded: ring.recorded(),
        dropped: ring.dropped(),
        records: ring.into_records(),
        metrics: runner.metrics_snapshot(),
    })
}

/// Compares the trace-replayed goodput series against the live probe's.
/// Returns a human-readable success summary, or the first mismatch.
pub fn check_replay(
    records: &[TraceRecord],
    series: &TimeSeries,
    nodes: usize,
) -> Result<String, String> {
    if let Some(sample) = series.samples.first().filter(|s| s.nodes.len() != nodes) {
        let sampled = sample.nodes.len();
        return Err(format!(
            "replay over {nodes} nodes, the probe sampled {sampled}"
        ));
    }
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
pub(crate) fn trace(
    registry: &Registry,
    args: Vec<String>,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    let (scenario, rest) = crate::cli::take_scenario(registry, args)?;
    let name = scenario.name;
    let targs = parse_trace_args(rest)?;
    let opts = CommonOpts::parse(targs.rest.clone())?;

    let ring = targs.ring.unwrap_or(DEFAULT_RING);
    let run = traced_run(scenario, &opts, ring)?;
    let keep = |rec: &&TraceRecord| match &targs.kind {
        Some(kind) => rec.ev.kind() == kind,
        None => true,
    };

    if let Some(path) = &targs.json {
        let mut jsonl = String::new();
        let mut lines = 0u64;
        for rec in run.records.iter().filter(keep) {
            jsonl.push_str(&serde_json::to_string(rec).expect("trace records always serialize"));
            jsonl.push('\n');
            lines += 1;
        }
        std::fs::write(path, jsonl).map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("wrote {path} ({lines} lines)");
    }

    let (nodes, series) = run.probed();
    let (events, end, ended) = match &run.traced {
        Traced::Closed(_, r, _) => (
            r.events,
            r.end_time.as_secs_f64(),
            format!("{:?}", r.reason),
        ),
        Traced::Open(_, _, r) => (r.events, r.horizon_secs, "horizon".to_string()),
    };
    writeln!(
        out,
        "trace {name}: {nodes} nodes, {events} events, virtual end {end:.1}s ({ended})"
    )?;
    writeln!(
        out,
        "records: {} emitted, {} dropped (ring capacity {ring}), {} retained",
        run.recorded,
        run.dropped,
        run.records.len()
    )?;
    let summary = summarize(&run.records);
    for (kind, count) in &summary.by_kind {
        writeln!(out, "  {kind:<16} {count:>10}")?;
    }
    if let (Some(first), Some(last)) = (summary.first_t, summary.last_t) {
        writeln!(out, "stream extent: {first:.3}s .. {last:.3}s")?;
    }

    if targs.tail > 0 {
        let shown: Vec<&TraceRecord> = run.records.iter().filter(keep).collect();
        let skip = shown.len().saturating_sub(targs.tail);
        for rec in &shown[skip..] {
            let line = serde_json::to_string(rec).expect("trace records always serialize");
            writeln!(out, "{line}")?;
        }
    }

    // Only an overflowed ring, which lost the stream's head, may fail to
    // replay.
    match check_replay(&run.records, series, nodes) {
        Ok(msg) => writeln!(out, "replay check: OK — {msg}")?,
        Err(msg) if run.dropped == 0 => return Err(format!("replay check FAILED: {msg}").into()),
        Err(msg) => writeln!(
            out,
            "replay check: skipped ({msg}; {} records dropped)",
            run.dropped
        )?,
    }

    match &run.traced {
        Traced::Closed(_, _, receivers) => {
            writeln!(out, "receivers ({}):", receivers.len())?;
            write!(out, "{}", receiver_table(receivers))?;
        }
        Traced::Open(label, _, report) => write!(out, "{}", service_summary(label, report))?,
    }
    writeln!(out, "counters:")?;
    for &(name, value) in &run.metrics.counters {
        if value > 0 {
            writeln!(out, "  {name:<24} {value}")?;
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
        assert_eq!(parsed.ring, Some(128));
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
    fn fig15_traces_its_shotgun_run() {
        // Shotgun's side of fig15 is the Bullet′ run of its workload: it
        // traces, and the trace replays the probe series.
        let registry = Registry::standard();
        let fig15 = registry.get("fig15").expect("registered");
        let opts = CommonOpts {
            nodes: Some(6),
            file_mb: Some(0.125),
            ..CommonOpts::default()
        };
        let run = traced_run(fig15, &opts, DEFAULT_RING).unwrap();
        let Traced::Closed(workload, ..) = &run.traced else {
            panic!("fig15 is a closed scenario");
        };
        assert_eq!(workload.topology, bullet_bench::TopologyKind::PlanetLabLike);
        let (nodes, series) = run.probed();
        check_replay(&run.records, series, nodes).expect("replay must match");
    }

    #[test]
    fn open_scenarios_trace_their_last_cell_and_replay() {
        let registry = Registry::standard();
        let opts = CommonOpts {
            nodes: Some(12),
            file_mb: Some(0.25),
            time_limit: 300.0,
            ..CommonOpts::default()
        };
        for name in ["fig21", "fig22"] {
            let sc = registry.get(name).expect("registered");
            let Body::Open { cells, .. } = sc.body else {
                panic!("{name} is an open scenario");
            };
            let run = traced_run(sc, &opts, DEFAULT_RING).unwrap();
            let Traced::Open(label, cell, report) = &run.traced else {
                panic!("{name} traced as a closed run");
            };
            let last = cells(&opts).pop().unwrap();
            assert_eq!((label, cell), (&last.0, &last.1), "{name}");
            assert!(report.admitted > 0, "{name}: {report:?}");
            assert_eq!(run.dropped, 0, "{name}");
            let (nodes, series) = run.probed();
            assert_eq!(
                (nodes, series.samples[0].nodes.len()),
                (cell.pool, cell.pool)
            );
            let msg = check_replay(&run.records, series, nodes)
                .unwrap_or_else(|msg| panic!("{name}: {msg}"));
            assert!(msg.contains(&format!("x {} nodes", cell.pool)), "{msg}");
            // The trace command prints the cell's service summary where a
            // closed trace prints its receiver table.
            let mut out = Vec::new();
            let args = ["--nodes", "12", "--mb", "0.25", "--time-limit", "300"];
            let args = std::iter::once(name).chain(args).map(String::from);
            trace(&registry, args.collect(), &mut out).unwrap();
            let out = String::from_utf8(out).unwrap();
            assert!(out.contains("replay check: OK"), "{out}");
            assert!(out.contains(&format!("[{label}]\n  horizon 300s")), "{out}");
            assert!(!out.contains("receivers ("), "{out}");
        }
    }

    #[test]
    fn tracing_runs_the_scenarios_own_workload_and_perturbs_nothing() {
        // For every scenario: what is traced is the workload or cell the
        // figure presents, the trace replays its probe series (churn and
        // open scenarios included), and the traced report is the bytes of
        // the same run with no sink.
        let registry = Registry::standard();
        let opts = CommonOpts {
            nodes: Some(8),
            file_mb: Some(0.25),
            time_limit: 1800.0,
            ..CommonOpts::default()
        };
        let mut traced = 0;
        for sc in registry.iter() {
            let run = traced_run(sc, &opts, DEFAULT_RING).unwrap();
            assert!(run.recorded > 0, "{}", sc.name);
            assert_eq!(run.dropped, 0, "{}", sc.name);
            let (nodes, series) = run.probed();
            if let Err(msg) = check_replay(&run.records, series, nodes) {
                panic!("{}: {msg}", sc.name);
            }
            let (traced_report, dark_report) = match (&run.traced, sc.body) {
                (Traced::Closed(workload, report, _), Body::Closed { workload: own, .. }) => {
                    let own = traced_workload(own, &opts).unwrap();
                    assert_eq!(*workload, own, "{}", sc.name);
                    (report.canonical(), workload.report().canonical())
                }
                (Traced::Open(_, cell, report), Body::Open { .. }) => {
                    let mut dark = cell.runner(None);
                    dark.record_timeseries(SimDuration::from_secs_f64(cell.tick));
                    (report.canonical(), cell.serve(&mut dark).canonical())
                }
                _ => panic!("{}: traced as the other kind of run", sc.name),
            };
            assert_eq!(
                traced_report, dark_report,
                "{}: tracing perturbed the run",
                sc.name
            );
            traced += 1;
        }
        assert_eq!(traced, 21, "every scenario, open systems included");
    }

    #[test]
    fn replay_over_fewer_nodes_than_the_probe_sampled_fails() {
        let registry = Registry::standard();
        let opts = CommonOpts {
            nodes: Some(6),
            file_mb: Some(0.125),
            ..CommonOpts::default()
        };
        let run = traced_run(registry.get("fig04").unwrap(), &opts, DEFAULT_RING).unwrap();
        let (nodes, series) = run.probed();
        check_replay(&run.records, series, nodes).expect("replay must match");
        let err = check_replay(&run.records, series, nodes - 1).unwrap_err();
        assert!(
            err.contains("replay over 5 nodes, the probe sampled 6"),
            "{err}"
        );
    }

    #[test]
    fn traced_workloads_are_the_figures_not_a_look_alike() {
        use bullet_bench::TopologyKind;
        let registry = Registry::standard();
        let traced = |name: &str, opts: &CommonOpts| {
            let Body::Closed { workload, .. } = registry.get(name).expect("registered").body else {
                panic!("{name} is a closed scenario");
            };
            traced_workload(workload, opts).unwrap()
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
        let (nodes, series) = run.probed();
        let msg = check_replay(&run.records, series, nodes).expect("replay must match");
        assert!(msg.contains("6 nodes"), "{msg}");
        let Traced::Closed(workload, report, receivers) = &run.traced else {
            panic!("fig05 is a closed scenario");
        };
        assert_eq!(run.metrics, report.metrics, "the counters are the report's");
        // The receiver table: one row per receiver, the report's completion
        // times, fastest first.
        let mut ids: Vec<u32> = receivers.iter().map(|r| r.node).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 5], "every receiver, once");
        for row in receivers {
            assert_eq!(row.done_secs, report.completion_secs[row.node as usize]);
            assert_eq!(row.stats.useful_blocks as u32, workload.file.num_blocks());
        }
        let done: Vec<f64> = receivers.iter().filter_map(|r| r.done_secs).collect();
        assert_eq!(done.len(), 5, "the smoke run completes");
        assert!(
            done.windows(2).all(|w| w[0] <= w[1]),
            "slowest last: {done:?}"
        );
        assert_eq!(receiver_table(receivers).lines().count(), 6);
    }
}
