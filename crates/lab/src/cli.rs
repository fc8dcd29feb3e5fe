//! The `lab` command-line interface.
//!
//! ```text
//! lab list                         # every registered scenario, one per line
//! lab run <scenario> [fig opts]    # one run of the scenario's figure; an
//!                                  # open-system scenario (fig21/fig22) adds
//!                                  # each service cell's summary
//! lab sweep <scenario> [--threads N] [--seeds A,B,..] [--seed-count K]
//!                      [--json PATH] [fig opts]
//!                                   # one line per cell, then `ok` / `FAIL`
//!                                   # per claim per cell
//! lab trace <scenario> [--json PATH] [--ring N] [--kind K]
//!                      [fig opts]   # one traced run: per-kind summary,
//!                                   # JSONL export, probe replay cross-check,
//!                                   # per-receiver table or service summary
//!                                   # (see `trace_cmd`)
//! ```
//!
//! `[fig opts]` are the shared figure options (`--nodes`, `--mb`, `--seed`,
//! …) parsed by [`CommonOpts`]; lab-specific flags are peeled off first.
//! Every command prints to the one writer [`lab_main`] is given.

use std::io::{self, Write};
use std::time::Instant;

use bullet_bench::experiments::service_summary;
use bullet_bench::{emit, CommonOpts, Series};

use crate::executor::run_sweep;
use crate::registry::Registry;
use crate::scenario::{run_cells, Body, Scenario, SeedPlan};

const USAGE: &str = "usage: lab <list|run|sweep|trace> [scenario] [options]
  lab list
  lab run <scenario> [figure options; see lab run <scenario> --help]
  lab sweep <scenario> [--threads N] [--seeds A,B,..] [--seed-count K] [--json PATH] [figure options]
  lab trace <scenario> [--json PATH] [--ring N] [--kind K] [figure options]";

/// Why a command ended early.
#[derive(Debug)]
pub(crate) enum Stop {
    /// A usage error, or a file that could not be written.
    Message(String),
    /// `out` failed, or [`emit`] could not write its JSON file.
    Io(io::Error),
}

impl From<String> for Stop {
    fn from(msg: String) -> Self {
        Stop::Message(msg)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Stop::Io(e)
    }
}

/// Entry point of the `lab` binary: parses `args` (without `argv[0]`) and
/// runs the requested subcommand, which prints to `out`. Returns the process
/// exit code: 2 with a message on stderr for a usage or I/O error, 1 when
/// `lab sweep` ran and one of the scenario's claims failed on a cell's
/// figure. A reader that closes `out` early (`lab list | head -1`) ends the
/// command with 0.
pub fn lab_main<I: IntoIterator<Item = String>>(args: I, out: &mut dyn Write) -> i32 {
    match dispatch(args, out) {
        Ok(code) => code,
        Err(Stop::Io(e)) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(Stop::Io(e)) => {
            eprintln!("{e}");
            2
        }
        Err(Stop::Message(msg)) => {
            eprintln!("{msg}");
            2
        }
    }
}

fn dispatch<I: IntoIterator<Item = String>>(args: I, out: &mut dyn Write) -> Result<i32, Stop> {
    let mut args: Vec<String> = args.into_iter().collect();
    if args.is_empty() {
        return Err(USAGE.to_string().into());
    }
    let command = args.remove(0);
    let registry = Registry::standard();
    match command.as_str() {
        "list" => list(&registry, out)?,
        "run" => run(&registry, args, out)?,
        "sweep" => return sweep(&registry, args, out),
        "trace" => crate::trace_cmd::trace(&registry, args, out)?,
        "--help" | "-h" | "help" => return Err(USAGE.to_string().into()),
        other => return Err(format!("unknown command {other}\n{USAGE}").into()),
    }
    Ok(0)
}

/// Splits a command's arguments into the scenario they name first and the
/// rest.
pub(crate) fn take_scenario(
    registry: &Registry,
    mut args: Vec<String>,
) -> Result<(&Scenario, Vec<String>), String> {
    if args.is_empty() || args[0].starts_with('-') {
        return Err(format!("expected a scenario name\n{USAGE}"));
    }
    let name = args.remove(0);
    let scenario = registry.get(&name).ok_or_else(|| {
        format!(
            "unknown scenario '{name}'; available: {}",
            registry.names().join(", ")
        )
    })?;
    Ok((scenario, args))
}

fn list(registry: &Registry, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "{:<8} {:<18} {:<18} {:<14} title",
        "name", "topology", "dynamics", "sweep"
    )?;
    for sc in registry.iter() {
        let (topology, dynamics) = sc.tags();
        writeln!(
            out,
            "{:<8} {:<18} {:<18} {:<14} {}",
            sc.name,
            topology,
            dynamics,
            format!("{}pt x {}seed", sc.points.len(), SeedPlan::default().count),
            sc.title,
        )?;
    }
    Ok(())
}

/// `lab run`: the scenario's figure at its default point, followed for an
/// open scenario by each cell's [`service_summary`].
fn run(registry: &Registry, args: Vec<String>, out: &mut dyn Write) -> Result<(), Stop> {
    let (scenario, rest) = take_scenario(registry, args)?;
    let opts = CommonOpts::parse(rest)?;
    let Body::Open { cells, figure } = scenario.body else {
        return Ok(emit(&scenario.figure(&opts, "default", None)?, &opts, out)?);
    };
    let cells = cells(&opts);
    let reports = run_cells(&cells);
    emit(&figure(&cells, &reports), &opts, out)?;
    for ((label, _), report) in cells.iter().zip(&reports) {
        write!(out, "{}", service_summary(label, report))?;
    }
    Ok(())
}

/// Lab-specific flags peeled off before [`CommonOpts`] sees the rest.
#[derive(Debug, Default)]
struct SweepArgs {
    threads: Option<usize>,
    seeds: Option<Vec<u64>>,
    seed_count: Option<usize>,
    json: Option<String>,
    rest: Vec<String>,
}

fn parse_sweep_args(args: Vec<String>) -> Result<SweepArgs, String> {
    let mut out = SweepArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| -> Result<String, String> {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--threads" => match value_for("--threads")?.parse() {
                Ok(count @ 1..) => out.threads = Some(count),
                _ => return Err(format!("--threads must be a positive integer\n{USAGE}")),
            },
            "--seeds" => out.seeds = Some(parse_list(&value_for("--seeds")?)?),
            "--seed-count" => match value_for("--seed-count")?.parse() {
                Ok(count @ 1..) => out.seed_count = Some(count),
                _ => return Err(format!("--seed-count must be a positive integer\n{USAGE}")),
            },
            "--json" => out.json = Some(value_for("--json")?),
            other => out.rest.push(other.to_string()),
        }
    }
    // A seed list is the whole plan: a second way to name seeds would be
    // dropped, and a repeated seed would count twice.
    if let Some(seeds) = &out.seeds {
        if out.seed_count.is_some() || out.rest.iter().any(|a| a == "--seed") {
            return Err(format!(
                "--seeds takes neither --seed nor --seed-count\n{USAGE}"
            ));
        }
        if (1..seeds.len()).any(|i| seeds[..i].contains(&seeds[i])) {
            return Err(format!("--seeds must not repeat a seed\n{USAGE}"));
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

/// The seed plan a sweep actually uses: `--seeds` as given, or else the
/// default plan re-based onto `--seed` and resized by `--seed-count`, each if
/// given. A plan that runs past the last seed or does not fit in memory is a
/// usage error.
fn effective_seeds(
    sweep_args: &SweepArgs,
    opts: &CommonOpts,
    explicit_seed: bool,
) -> Result<Vec<u64>, String> {
    if let Some(seeds) = &sweep_args.seeds {
        return Ok(seeds.clone());
    }
    let mut plan = SeedPlan::default();
    if explicit_seed {
        plan.base = opts.seed;
    }
    if let Some(count) = sweep_args.seed_count {
        plan.count = count;
    }
    plan.seeds().map_err(|e| format!("{e}\n{USAGE}"))
}

/// `lab sweep`: one line per cell, then one `ok` or `FAIL` line per claim of
/// each cell's figure. `Ok` carries the exit status: 1 when a claim failed.
fn sweep(registry: &Registry, args: Vec<String>, out: &mut dyn Write) -> Result<i32, Stop> {
    let (scenario, rest) = take_scenario(registry, args)?;
    let sweep_args = parse_sweep_args(rest)?;
    let explicit_seed = sweep_args.rest.iter().any(|a| a == "--seed");
    let opts = CommonOpts::parse(sweep_args.rest.clone())?;
    let threads = sweep_args.threads.unwrap_or(1);
    let seeds = effective_seeds(&sweep_args, &opts, explicit_seed)?;
    // A workload may refuse the options (fig16 below three nodes): that is a
    // usage error here, not a panic in a worker.
    if let Body::Closed { workload, .. } = scenario.body {
        for point in &scenario.points {
            workload(&point.apply(&opts), point.label)?;
        }
    }

    let started = Instant::now();
    let report = run_sweep(scenario, &opts, &seeds, threads);
    let wall = started.elapsed().as_secs_f64();

    // The deterministic artefact goes to --json, and first: a reader that
    // closes `out` early still gets the file.
    eprintln!("wall_clock_secs: {wall:.3}");
    if let Some(path) = &sweep_args.json {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    writeln!(
        out,
        "sweep {}: {} cells ({} points x {} seeds) on {} thread(s)",
        report.scenario,
        report.cells.len(),
        scenario.points.len(),
        seeds.len(),
        threads
    )?;
    for cell in &report.cells {
        let fig = &cell.figure;
        // The slowest receiver of any CDF; a curve's x is not a time.
        let cdfs = fig.series.iter().filter(|s| s.is_cdf());
        let slowest = cdfs.map(Series::max_x).fold(f64::NAN, f64::max);
        let slowest = if slowest.is_nan() {
            String::new()
        } else {
            format!(" slowest {slowest:.1}s,")
        };
        writeln!(
            out,
            "  [{} seed {}] {} series,{slowest} {:.3}s wall — {}",
            cell.point,
            cell.seed,
            fig.series.len(),
            cell.wall_clock_secs,
            fig.id
        )?;
    }
    let mut failed = false;
    for cell in &report.cells {
        for claim in scenario.claims(&cell.figure) {
            let status = if claim.passed() { "ok  " } else { "FAIL" };
            failed |= !claim.passed();
            writeln!(
                out,
                "{status}  [{} seed {}] {}",
                cell.point, cell.seed, claim.line
            )?;
        }
    }
    Ok(i32::from(failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn usage_error(args: &[&str]) -> String {
        match dispatch(strings(args), &mut io::sink()) {
            Err(Stop::Message(msg)) => msg,
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        }
    }

    /// What a command printed, having exited 0.
    fn printed(args: &[&str]) -> String {
        let mut out = Vec::new();
        assert_eq!(lab_main(strings(args), &mut out), 0, "{args:?}");
        String::from_utf8(out).expect("commands print UTF-8")
    }

    /// A pipe that takes `0` more bytes; every write after that fails with
    /// `1`.
    struct Closes(usize, io::ErrorKind);

    impl Write for Closes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.0 == 0 {
                return Err(self.1.into());
            }
            let taken = buf.len().min(self.0);
            self.0 -= taken;
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const SMOKE: [&str; 4] = ["--nodes", "4", "--mb", "0.1"];

    #[test]
    fn a_closed_pipe_ends_every_command_with_status_0() {
        let commands: [&[&str]; 4] = [
            &["list"],
            &["run", "fig15"],
            &[
                "sweep", "fig13", "--seeds", "1", "--nodes", "4", "--mb", "0.1",
            ],
            &["trace", "fig13", "--nodes", "4", "--mb", "0.1"],
        ];
        for command in commands {
            let args = strings(command);
            let whole = {
                let mut out = Vec::new();
                assert_eq!(lab_main(args.clone(), &mut out), 0, "{command:?}");
                out.len()
            };
            assert!(whole > 80, "{command:?} prints more than the pipe takes");
            let mut pipe = Closes(80, io::ErrorKind::BrokenPipe);
            assert_eq!(lab_main(args.clone(), &mut pipe), 0, "{command:?}");
            assert_eq!(pipe.0, 0, "{command:?} wrote until the pipe closed");
            // Any other failure of the writer is an error.
            let mut disk = Closes(80, io::ErrorKind::PermissionDenied);
            assert_eq!(lab_main(args, &mut disk), 2, "{command:?}");
        }
    }

    /// `lab list`'s sweep column: the scenario's points times the one seed
    /// plan's seeds.
    #[test]
    fn list_counts_each_scenarios_points_and_the_default_seeds() {
        let text = printed(&["list"]);
        for (name, sweep) in [("fig04", "3pt x 4seed"), ("fig13", "1pt x 4seed")] {
            let row = text.lines().find(|l| l.split(' ').next() == Some(name));
            assert!(
                row.is_some_and(|l| l.contains(&format!(" {sweep} "))),
                "{text}"
            );
        }
    }

    #[test]
    fn serve_is_not_a_command() {
        let err = usage_error(&["serve", "fig21"]);
        assert!(err.starts_with("unknown command serve"), "{err}");
        assert_eq!(lab_main(strings(&["serve", "fig21"]), &mut io::sink()), 2);
    }

    #[test]
    fn raw_and_tail_are_unknown_options() {
        // `--json` writes every point of a figure, and `lab trace --json PATH
        // --kind K` every record of a kind.
        for (args, flag) in [
            (&["run", "fig04", "--raw"][..], "--raw"),
            (&["sweep", "fig13", "--raw"], "--raw"),
            (&["trace", "fig11", "--tail", "5"], "--tail"),
        ] {
            let err = usage_error(args);
            assert!(err.starts_with(&format!("unknown option {flag}")), "{err}");
            assert_eq!(lab_main(strings(args), &mut io::sink()), 2);
        }
    }

    #[test]
    fn bench_takes_no_arguments() {
        // Nor any at all: `bench` is not a command. Its checks are fig20's
        // claims and tests/wall_clock.rs.
        for args in [
            &["bench"][..],
            &["bench", "fig05"],
            &["bench", "--out", "x.json"],
        ] {
            let err = usage_error(args);
            assert!(err.starts_with("unknown command bench"), "{err}");
            assert_eq!(lab_main(strings(args), &mut io::sink()), 2);
        }
    }

    #[test]
    fn run_prints_an_open_scenarios_figure_and_one_summary_per_cell() {
        let smoke = ["--nodes", "12", "--mb", "0.25", "--time-limit", "600"];
        let text = printed(&[&["run", "fig22"][..], &smoke].concat());
        assert!(text.starts_with("== Figure 22"), "{text}");
        assert!(text.contains("curve (y values)"), "{text}");
        let blocks: Vec<&str> = text.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(blocks, ["[flash-crowd]"], "{text}");
        assert_eq!(text.matches("  sustained goodput").count(), 1, "{text}");
        // The summary follows the figure.
        assert!(text.find("note: ") < text.find("[flash-crowd]"), "{text}");

        let closed = printed(&[&["run", "fig13"][..], &SMOKE].concat());
        assert!(!closed.contains("sustained goodput"), "{closed}");
    }

    #[test]
    fn sweep_reads_slowest_off_cdfs_only() {
        let seed = ["--seeds", "1"];
        // fig21 and fig13 carry curves only: an offered load or a block
        // number is not a download time.
        let smoke = ["--nodes", "16", "--mb", "0.25", "--time-limit", "300"];
        let open = printed(&[&["sweep", "fig21"][..], &seed, &smoke].concat());
        assert!(open.contains("[default seed 1] 5 series, "), "{open}");
        assert!(!open.contains("slowest"), "{open}");
        let curve = printed(&[&["sweep", "fig13"][..], &seed, &SMOKE].concat());
        assert!(!curve.contains("slowest"), "{curve}");
        let cdf = printed(&[&["sweep", "fig06"][..], &seed, &SMOKE].concat());
        assert!(cdf.contains(" 4 series, slowest "), "{cdf}");
    }

    #[test]
    fn sweep_args_split_lab_flags_from_figure_flags() {
        let args = strings(&["--threads", "4", "--nodes", "8", "--seeds", "1,2,3"]);
        let parsed = parse_sweep_args(args).unwrap();
        assert_eq!(parsed.threads, Some(4));
        assert_eq!(parsed.seeds, Some(vec![1, 2, 3]));
        assert_eq!(parsed.rest, vec!["--nodes", "8"]);
        let opts = CommonOpts::parse(parsed.rest).unwrap();
        assert_eq!(opts.nodes, Some(8));
    }

    #[test]
    fn effective_seeds_priority_order() {
        let opts = CommonOpts {
            seed: 42,
            ..CommonOpts::default()
        };

        // The plan is re-based on --seed and resized by --seed-count.
        let mut args = SweepArgs {
            seed_count: Some(2),
            ..Default::default()
        };
        assert_eq!(effective_seeds(&args, &opts, true), Ok(vec![42, 43]));

        // Without --seed the default plan's base applies.
        let plan = SeedPlan::default();
        args.seed_count = None;
        assert_eq!(effective_seeds(&args, &opts, false), plan.seeds());
    }

    #[test]
    fn zero_thread_counts_are_usage_errors_not_panics() {
        for flag in ["--threads", "--seed-count"] {
            let err = usage_error(&["sweep", "fig13", flag, "0"]);
            assert!(err.contains("positive"), "{flag}: {err}");
        }
        // A seed list that another seed option would shorten or that
        // repeats a seed is refused, not silently reconciled.
        for seeds in [
            &["--seeds", "1,1"][..],
            &["--seeds", "1", "--seed-count", "2"],
            &["--seeds", "1", "--seed", "2"],
        ] {
            let err = usage_error(&[&["sweep", "fig13"][..], seeds].concat());
            assert!(err.starts_with("--seeds"), "{seeds:?}: {err}");
        }
        // A plan that would wrap past the last seed, or whose seed list
        // cannot be allocated, is refused before anything runs.
        let max = u64::MAX.to_string();
        for (plan, why) in [
            (&["--seed-count", &max][..], "run past"),
            (&["--seed", &max, "--seed-count", "2"], "run past"),
            (
                &["--seed", "0", "--seed-count", &max],
                "do not fit in memory",
            ),
        ] {
            let err = usage_error(&[&["sweep", "fig13"][..], &SMOKE, plan].concat());
            assert!(err.contains(why), "{plan:?}: {err}");
        }
    }

    /// A claim that fails on a cell's figure makes `lab sweep` exit 1, after
    /// it has printed every cell line and written its `--json` file: fig20's
    /// swarm cannot complete in one virtual second.
    #[test]
    fn a_failing_claim_exits_1_after_the_cells_and_the_json() {
        let json = std::env::temp_dir().join(format!("lab-claims-{}.json", std::process::id()));
        let path = json.to_str().expect("a UTF-8 temporary path");
        let args = [
            "sweep",
            "fig20",
            "--seeds",
            "1,2",
            "--nodes",
            "6",
            "--mb",
            "0.25",
            "--time-limit",
            "1",
            "--json",
            path,
        ];
        let mut out = Vec::new();
        assert_eq!(lab_main(strings(&args), &mut out), 1);
        let text = String::from_utf8(out).expect("commands print UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        assert!(lines[1].starts_with("  [default seed 1]"), "{text}");
        assert!(lines[2].starts_with("  [default seed 2]"), "{text}");
        assert!(
            lines[3].starts_with("FAIL  [default seed 1] fig20 N=6"),
            "{text}"
        );
        assert!(
            lines[4].starts_with("FAIL  [default seed 2] fig20 N=6"),
            "{text}"
        );
        let written = std::fs::read_to_string(&json).expect("--json was written");
        std::fs::remove_file(&json).expect("the test's own file");
        assert!(written.contains("\"scenario\": \"fig20\""), "{written}");

        // The same sweep with time to finish passes its claims.
        let passing = printed(&[
            "sweep", "fig20", "--seeds", "1", "--nodes", "6", "--mb", "0.25",
        ]);
        assert!(
            passing.ends_with("receivers complete (CDF \"BulletPrime, N=6\" has 5 points)\n"),
            "{passing}"
        );
        assert!(
            passing.contains("\nok    [default seed 1] fig20 N=6: all 5"),
            "{passing}"
        );
    }

    #[test]
    fn unknown_scenario_is_a_helpful_error() {
        let err = usage_error(&["run", "nope"]);
        assert!(err.contains("unknown scenario"));
        assert!(err.contains("fig04"));
    }

    #[test]
    fn an_unwritable_json_path_is_an_io_error() {
        let args = ["run", "fig15", "--json", "/nonexistent/dir/f.json"];
        assert_eq!(lab_main(strings(&args), &mut io::sink()), 2);
    }

    #[test]
    fn the_ring_is_a_cap_not_a_reservation() {
        let ring = usize::MAX.to_string();
        let args = [
            "trace", "fig11", "--nodes", "6", "--mb", "0.125", "--ring", &ring,
        ];
        assert_eq!(lab_main(strings(&args), &mut io::sink()), 0);
    }
}
