//! The `lab` command-line interface.
//!
//! ```text
//! lab list                         # every registered scenario, one per line
//! lab run <scenario> [fig opts]    # one run of the scenario's figure
//! lab sweep <scenario> [--threads N] [--seeds A,B,..] [--seed-count K]
//!                      [--json PATH] [fig opts]
//! lab bench <scenario> [--threads N,M,..] [--seed-count K]
//!           [--snapshot SCENARIO] [--out PATH]
//!                      [fig opts]   # sweep at each thread count, assert
//!                                   # byte-identical canonical output,
//!                                   # record wall-clock per thread and cell;
//!                                   # --snapshot additionally runs the named
//!                                   # warm-up scenario with prefix sharing
//!                                   # on and off and asserts the canonical
//!                                   # outputs match (fork-vs-fresh oracle)
//! lab serve <scenario> [--threads N,M,..] [--json PATH] [fig opts]
//!                                   # open-system service run (fig21/fig22):
//!                                   # generator-driven swarm arrivals, one
//!                                   # ServiceReport per cell (see `serve`)
//! lab trace <scenario> [--json PATH] [--ring N] [--kind K] [--tail N]
//!                      [fig opts]   # one traced + profiled run, per-kind
//!                                   # summary, JSONL export, probe replay
//!                                   # cross-check (see `trace_cmd`)
//! ```
//!
//! `[fig opts]` are the shared figure options (`--nodes`, `--mb`, `--seed`,
//! …) parsed by [`CommonOpts`]; lab-specific flags are peeled off first.

use std::time::Instant;

use bullet_bench::{emit, CommonOpts};

use crate::executor::{run_sweep, run_sweep_with};
use crate::registry::Registry;

pub(crate) const USAGE: &str = "usage: lab <list|run|sweep|bench|serve|trace> [scenario] [options]
  lab list
  lab run <scenario> [figure options; see lab run <scenario> --help]
  lab sweep <scenario> [--threads N] [--seeds A,B,..] [--seed-count K] [--json PATH] [figure options]
  lab bench <scenario> [--threads N,M,..] [--seed-count K] [--snapshot SCENARIO] [--out PATH] [figure options]
  lab serve <scenario> [--threads N,M,..] [--json PATH] [figure options]
  lab trace <scenario> [--json PATH] [--ring N] [--kind K] [--tail N] [figure options]";

/// Entry point of the `lab` binary: parses `args` (without `argv[0]`) and
/// runs the requested subcommand. Returns the process exit code.
pub fn lab_main<I: IntoIterator<Item = String>>(args: I) -> i32 {
    match dispatch(args) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

fn dispatch<I: IntoIterator<Item = String>>(args: I) -> Result<(), String> {
    let mut args: Vec<String> = args.into_iter().collect();
    if args.is_empty() {
        return Err(USAGE.to_string());
    }
    let command = args.remove(0);
    let registry = Registry::standard();
    match command.as_str() {
        "list" => {
            list(&registry);
            Ok(())
        }
        "run" => {
            let (name, rest) = take_scenario(args)?;
            let scenario = resolve(&registry, &name)?;
            let opts = CommonOpts::parse(rest)?;
            emit(&scenario.run(&opts), &opts);
            Ok(())
        }
        "sweep" => sweep(&registry, args),
        "bench" => bench(&registry, args),
        "serve" => crate::serve::serve(&registry, args),
        "trace" => crate::trace_cmd::trace(&registry, args),
        "--help" | "-h" | "help" => Err(USAGE.to_string()),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

pub(crate) fn take_scenario(mut args: Vec<String>) -> Result<(String, Vec<String>), String> {
    if args.is_empty() || args[0].starts_with('-') {
        return Err(format!("expected a scenario name\n{USAGE}"));
    }
    let name = args.remove(0);
    Ok((name, args))
}

pub(crate) fn resolve<'r>(
    registry: &'r Registry,
    name: &str,
) -> Result<&'r crate::scenario::Scenario, String> {
    registry.get(name).ok_or_else(|| {
        format!(
            "unknown scenario '{name}'; available: {}",
            registry.names().join(", ")
        )
    })
}

fn list(registry: &Registry) {
    use std::io::Write;
    // `lab list | head` closes our stdout mid-write; ignore the error
    // instead of panicking like `println!` would.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let header = format!(
        "{:<8} {:<18} {:<18} {:<14} title",
        "name", "topology", "dynamics", "sweep"
    );
    let _ = writeln!(out, "{header}");
    for sc in registry.iter() {
        let (topology, dynamics) = sc.tags();
        let _ = writeln!(
            out,
            "{:<8} {:<18} {:<18} {:<14} {}",
            sc.name,
            topology,
            dynamics,
            format!("{}pt x {}seed", sc.sweep.points.len(), sc.sweep.seeds.count),
            sc.title,
        );
    }
}

/// The `lab bench` record written to `--out` (BENCH_sweep.json in CI):
/// wall-clock per thread count (and per cell within each run) for one sweep.
/// The record only exists when the canonical byte-identity comparison passed
/// — a violation aborts with an error before anything is written.
/// `host_threads` records the parallelism the machine actually offered, and
/// `skipped` the requested thread counts the host could not genuinely run in
/// parallel (they are skipped, not timed — an oversubscribed "4-thread" run
/// on a single-core host would commit misleading flat numbers to the
/// baseline).
#[derive(Debug, serde::Serialize)]
struct BenchRecord {
    scenario: String,
    seeds: usize,
    cells: usize,
    host_threads: usize,
    runs: Vec<BenchRun>,
    skipped: Vec<SkippedRun>,
    /// Warm-prefix sharing check (`--snapshot <scenario>`): the named
    /// scenario runs with sharing on and off, the canonical renderings are
    /// asserted byte-identical (a mismatch aborts the bench before anything
    /// is written), and the sharing run's prefix telemetry lands here.
    snapshot: Option<SnapshotRecord>,
}

/// The `--snapshot` subsection of [`BenchRecord`]: forked-vs-fresh identity
/// plus how much warm-up wall clock the sharing executor saved.
#[derive(Debug, serde::Serialize)]
struct SnapshotRecord {
    scenario: String,
    /// Always true in a written record — a mismatch is a hard error.
    canonical_matches_fresh: bool,
    prefix_cells: usize,
    forked_cells: usize,
    warmup_secs_saved: f64,
    shared_wall_clock_secs: f64,
    fresh_wall_clock_secs: f64,
}

#[derive(Debug, serde::Serialize)]
struct BenchRun {
    threads: usize,
    wall_clock_secs: f64,
    cells: Vec<CellTiming>,
}

/// Wall clock of one sweep cell inside one bench run.
#[derive(Debug, serde::Serialize)]
struct CellTiming {
    point: String,
    seed: u64,
    wall_clock_secs: f64,
}

/// A requested thread count the bench did not run, and why.
#[derive(Debug, serde::Serialize)]
struct SkippedRun {
    threads: usize,
    reason: String,
}

/// Splits the requested bench thread counts into those the host can run
/// without oversubscription (`threads <= host_threads`) and those it cannot.
/// Single-threaded runs always pass: they measure the serial baseline and
/// cannot be oversubscribed.
fn partition_thread_counts(requested: &[usize], host_threads: usize) -> (Vec<usize>, Vec<usize>) {
    requested
        .iter()
        .copied()
        .partition(|&t| t <= host_threads.max(1))
}

/// Lab-specific flags peeled off before [`CommonOpts`] sees the rest.
#[derive(Debug, Default)]
pub(crate) struct SweepArgs {
    pub(crate) threads: Vec<usize>,
    pub(crate) seeds: Option<Vec<u64>>,
    pub(crate) seed_count: Option<usize>,
    pub(crate) json: Option<String>,
    pub(crate) out: Option<String>,
    pub(crate) snapshot: Option<String>,
    pub(crate) rest: Vec<String>,
}

pub(crate) fn parse_sweep_args(args: Vec<String>) -> Result<SweepArgs, String> {
    let mut out = SweepArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| -> Result<String, String> {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--threads" => {
                out.threads = parse_list(&value_for("--threads")?)?;
                if out.threads.contains(&0) {
                    return Err(format!("--threads values must be positive\n{USAGE}"));
                }
            }
            "--seeds" => out.seeds = Some(parse_list(&value_for("--seeds")?)?),
            "--seed-count" => {
                out.seed_count = Some(
                    value_for("--seed-count")?
                        .parse()
                        .map_err(|_| format!("bad --seed-count\n{USAGE}"))?,
                );
            }
            "--json" => out.json = Some(value_for("--json")?),
            "--out" => out.out = Some(value_for("--out")?),
            "--snapshot" => out.snapshot = Some(value_for("--snapshot")?),
            other => out.rest.push(other.to_string()),
        }
    }
    Ok(out)
}

fn parse_list<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("could not parse '{p}'\n{USAGE}"))
        })
        .collect()
}

/// The seed plan a sweep actually uses: explicit `--seeds` wins, then
/// `--seed-count` over the scenario's base seed (or `--seed`), then the
/// scenario's default plan re-based onto `--seed` if one was given.
fn effective_seeds(
    scenario: &crate::scenario::Scenario,
    sweep_args: &SweepArgs,
    opts: &CommonOpts,
    explicit_seed: bool,
) -> Vec<u64> {
    if let Some(seeds) = &sweep_args.seeds {
        return seeds.clone();
    }
    let mut plan = scenario.sweep.seeds;
    if explicit_seed {
        plan.base = opts.seed;
    }
    if let Some(count) = sweep_args.seed_count {
        plan.count = count;
    }
    plan.seeds()
}

fn sweep(registry: &Registry, args: Vec<String>) -> Result<(), String> {
    let (name, rest) = take_scenario(args)?;
    let scenario = resolve(registry, &name)?;
    let sweep_args = parse_sweep_args(rest)?;
    if sweep_args.out.is_some() {
        return Err(format!(
            "sweep writes its report with --json, not --out\n{USAGE}"
        ));
    }
    if sweep_args.snapshot.is_some() {
        return Err(format!(
            "--snapshot is a bench flag (sweep always shares warm prefixes)\n{USAGE}"
        ));
    }
    let explicit_seed = sweep_args.rest.iter().any(|a| a == "--seed");
    let opts = CommonOpts::parse(sweep_args.rest.clone())?;
    let threads = match sweep_args.threads.as_slice() {
        [] => 1,
        [n] => *n,
        _ => return Err(format!("sweep takes a single --threads value\n{USAGE}")),
    };
    let seeds = effective_seeds(scenario, &sweep_args, &opts, explicit_seed);

    let started = Instant::now();
    let report = run_sweep(scenario, &opts, &seeds, threads);
    let wall = started.elapsed().as_secs_f64();

    // Human summary to stdout; the deterministic artefact goes to --json.
    println!(
        "sweep {}: {} cells ({} points x {} seeds) on {} thread(s)",
        report.scenario,
        report.cells.len(),
        scenario.sweep.points.len(),
        seeds.len(),
        threads
    );
    for cell in &report.cells {
        let fig = &cell.figure;
        let slowest = fig
            .series
            .iter()
            .map(|s| s.max_x())
            .fold(f64::NAN, f64::max);
        println!(
            "  [{} seed {}] {} series, slowest {:.1}s, {:.3}s wall — {}",
            cell.point,
            cell.seed,
            fig.series.len(),
            slowest,
            cell.wall_clock_secs,
            fig.id
        );
    }
    eprintln!("wall_clock_secs: {wall:.3}");
    if let Some(path) = &sweep_args.json {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `lab bench`: the CI entry point. Runs the same sweep at each requested
/// thread count, *asserts* the canonical renderings are byte-identical (the
/// determinism guarantee the executor makes; per-cell wall-clock telemetry
/// is legitimately schedule-dependent and excluded), and writes a JSON
/// record of the wall-clock per thread count and per cell.
fn bench(registry: &Registry, args: Vec<String>) -> Result<(), String> {
    let (name, rest) = take_scenario(args)?;
    let scenario = resolve(registry, &name)?;
    let sweep_args = parse_sweep_args(rest)?;
    if sweep_args.json.is_some() {
        return Err(format!(
            "bench writes its record with --out, not --json\n{USAGE}"
        ));
    }
    let explicit_seed = sweep_args.rest.iter().any(|a| a == "--seed");
    let opts = CommonOpts::parse(sweep_args.rest.clone())?;
    let requested = if sweep_args.threads.is_empty() {
        vec![1, 4]
    } else {
        sweep_args.threads.clone()
    };
    let seeds = effective_seeds(scenario, &sweep_args, &opts, explicit_seed);

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (thread_counts, oversubscribed) = partition_thread_counts(&requested, host_threads);
    let mut record = BenchRecord {
        scenario: name.clone(),
        seeds: seeds.len(),
        cells: 0,
        host_threads,
        runs: Vec::new(),
        skipped: oversubscribed
            .into_iter()
            .map(|threads| {
                eprintln!(
                    "skipping {threads}-thread run: host offers only {host_threads} thread(s), \
                     the timing would be oversubscription noise"
                );
                SkippedRun {
                    threads,
                    reason: format!("host offers {host_threads} thread(s)"),
                }
            })
            .collect(),
        snapshot: None,
    };
    let mut reference: Option<String> = None;
    for &threads in &thread_counts {
        let started = Instant::now();
        let report = run_sweep(scenario, &opts, &seeds, threads);
        let wall = started.elapsed().as_secs_f64();
        let json = report.to_canonical_json();
        match &reference {
            None => reference = Some(json),
            Some(expected) => {
                if *expected != json {
                    return Err(format!(
                        "DETERMINISM VIOLATION: {threads}-thread sweep of {name} differs from \
                         {}-thread sweep",
                        thread_counts[0]
                    ));
                }
            }
        }
        record.cells = report.cells.len();
        record.runs.push(BenchRun {
            threads,
            wall_clock_secs: (wall * 1000.0).round() / 1000.0,
            cells: report
                .cells
                .iter()
                .map(|c| CellTiming {
                    point: c.point.clone(),
                    seed: c.seed,
                    wall_clock_secs: (c.wall_clock_secs * 1000.0).round() / 1000.0,
                })
                .collect(),
        });
        eprintln!("threads {threads}: {wall:.3}s wall clock");
    }

    if let Some(snap_name) = &sweep_args.snapshot {
        record.snapshot = Some(bench_snapshot(
            registry,
            snap_name,
            &sweep_args,
            &opts,
            explicit_seed,
        )?);
    }

    let json =
        serde_json::to_string_pretty(&record).expect("bench records are always serialisable");
    println!("{json}");
    if let Some(path) = &sweep_args.out {
        std::fs::write(path, &json).map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// The `--snapshot` leg of `lab bench`: runs the named warm-up scenario's
/// sweep with prefix sharing on and off (both single-threaded — the check
/// is about fork-vs-fresh identity, not parallelism, which the main bench
/// legs already assert) and *asserts* the canonical renderings are
/// byte-identical. A divergence is a hard error: the snapshot contract is
/// broken and nothing is written.
fn bench_snapshot(
    registry: &Registry,
    name: &str,
    sweep_args: &SweepArgs,
    opts: &CommonOpts,
    explicit_seed: bool,
) -> Result<SnapshotRecord, String> {
    let scenario = resolve(registry, name)?;
    let points = &scenario.sweep.points;
    if !points
        .iter()
        .any(|p| scenario.forkable(opts, p.label).is_some())
    {
        return Err(format!(
            "scenario '{name}' has no warm-up split point; --snapshot needs one (try fig05w)\n{USAGE}"
        ));
    }
    let seeds = effective_seeds(scenario, sweep_args, opts, explicit_seed);

    let started = Instant::now();
    let shared = run_sweep_with(scenario, opts, &seeds, 1, true);
    let shared_wall = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let fresh = run_sweep_with(scenario, opts, &seeds, 1, false);
    let fresh_wall = started.elapsed().as_secs_f64();

    if shared.to_canonical_json() != fresh.to_canonical_json() {
        return Err(format!(
            "SNAPSHOT DIVERGENCE: forked sweep of {name} differs from the uninterrupted sweep \
             — the checkpoint/resume contract is broken"
        ));
    }
    eprintln!(
        "snapshot {name}: {} prefixes -> {} forked cells, {:.3}s saved \
         (shared {shared_wall:.3}s vs fresh {fresh_wall:.3}s), canonical identical",
        shared.prefix_cells, shared.forked_cells, shared.warmup_secs_saved
    );
    let round = |s: f64| (s * 1000.0).round() / 1000.0;
    Ok(SnapshotRecord {
        scenario: name.to_string(),
        canonical_matches_fresh: true,
        prefix_cells: shared.prefix_cells,
        forked_cells: shared.forked_cells,
        warmup_secs_saved: round(shared.warmup_secs_saved),
        shared_wall_clock_secs: round(shared_wall),
        fresh_wall_clock_secs: round(fresh_wall),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SeedPlan;

    #[test]
    fn sweep_args_split_lab_flags_from_figure_flags() {
        let args = vec![
            "--threads".to_string(),
            "4".to_string(),
            "--nodes".to_string(),
            "8".to_string(),
            "--seeds".to_string(),
            "1,2,3".to_string(),
        ];
        let parsed = parse_sweep_args(args).unwrap();
        assert_eq!(parsed.threads, vec![4]);
        assert_eq!(parsed.seeds, Some(vec![1, 2, 3]));
        assert_eq!(parsed.rest, vec!["--nodes", "8"]);
        let opts = CommonOpts::parse(parsed.rest).unwrap();
        assert_eq!(opts.nodes, Some(8));
    }

    #[test]
    fn effective_seeds_priority_order() {
        let registry = Registry::standard();
        let sc = registry.get("fig13").unwrap();
        let opts = CommonOpts {
            seed: 42,
            ..CommonOpts::default()
        };

        // Explicit list wins outright.
        let mut args = SweepArgs {
            seeds: Some(vec![9, 8]),
            ..Default::default()
        };
        assert_eq!(effective_seeds(sc, &args, &opts, true), vec![9, 8]);

        // Otherwise the plan is re-based on --seed and resized by --seed-count.
        args.seeds = None;
        args.seed_count = Some(2);
        assert_eq!(effective_seeds(sc, &args, &opts, true), vec![42, 43]);

        // Without --seed the scenario's base applies.
        let plan = SeedPlan::default();
        args.seed_count = None;
        assert_eq!(effective_seeds(sc, &args, &opts, false), plan.seeds());
    }

    #[test]
    fn zero_thread_counts_are_usage_errors_not_panics() {
        for cmd in ["sweep", "bench"] {
            let err = dispatch(vec![
                cmd.to_string(),
                "fig13".to_string(),
                "--threads".to_string(),
                "0".to_string(),
            ])
            .unwrap_err();
            assert!(err.contains("positive"), "{cmd}: {err}");
        }
    }

    #[test]
    fn snapshot_flag_is_bench_only_and_needs_a_warmup_scenario() {
        let err = dispatch(vec![
            "sweep".to_string(),
            "fig13".to_string(),
            "--snapshot".to_string(),
            "fig05w".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("bench flag"), "{err}");
        // --snapshot on a scenario without a warm-up split is an error, not
        // a silent no-op (the CI gate would otherwise check nothing).
        let err = dispatch(vec![
            "bench".to_string(),
            "fig13".to_string(),
            "--threads".to_string(),
            "1".to_string(),
            "--seed-count".to_string(),
            "1".to_string(),
            "--nodes".to_string(),
            "6".to_string(),
            "--mb".to_string(),
            "0.125".to_string(),
            "--time-limit".to_string(),
            "1800".to_string(),
            "--snapshot".to_string(),
            "fig13".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("no warm-up split"), "{err}");
    }

    #[test]
    fn unknown_scenario_is_a_helpful_error() {
        let code_err = dispatch(vec!["run".to_string(), "nope".to_string()]).unwrap_err();
        assert!(code_err.contains("unknown scenario"));
        assert!(code_err.contains("fig04"));
    }

    #[test]
    fn bench_rejects_missing_scenario() {
        assert!(dispatch(vec!["bench".to_string()]).is_err());
    }

    #[test]
    fn oversubscribed_thread_counts_are_skipped_not_timed() {
        // A single-core host runs the serial baseline and skips the rest —
        // timing a "4-thread" run there would commit false parallelism to
        // the baseline record.
        assert_eq!(partition_thread_counts(&[1, 4], 1), (vec![1], vec![4]));
        // A host at or above the requested width runs everything.
        assert_eq!(partition_thread_counts(&[1, 4], 4), (vec![1, 4], vec![]));
        assert_eq!(
            partition_thread_counts(&[1, 2, 8], 4),
            (vec![1, 2], vec![8])
        );
        // Even a host reporting zero available parallelism (the API failed)
        // still runs the serial baseline.
        assert_eq!(partition_thread_counts(&[1, 2], 0), (vec![1], vec![2]));
    }
}
