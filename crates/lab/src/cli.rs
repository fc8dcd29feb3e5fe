//! The `lab` command-line interface.
//!
//! ```text
//! lab list                         # every registered scenario, one per line
//! lab run <scenario> [fig opts]    # one run of the scenario's figure
//! lab sweep <scenario> [--threads N] [--seeds A,B,..] [--seed-count K]
//!                      [--json PATH] [fig opts]
//! lab bench                         # no options, nothing written: three fixed
//!                                   # self-checks, one line each (see `bench`)
//! lab serve <scenario> [--threads N,M,..] [--json PATH] [fig opts]
//!                                   # open-system service run (fig21/fig22):
//!                                   # generator-driven swarm arrivals, one
//!                                   # ServiceReport per cell (see `serve`)
//! lab trace <scenario> [--json PATH] [--ring N] [--kind K] [--tail N]
//!                      [fig opts]   # one traced run: per-kind summary,
//!                                   # JSONL export, probe replay cross-check,
//!                                   # per-receiver table (see `trace_cmd`)
//! ```
//!
//! `[fig opts]` are the shared figure options (`--nodes`, `--mb`, `--seed`,
//! …) parsed by [`CommonOpts`]; lab-specific flags are peeled off first.

use std::time::Instant;

use bullet_bench::{emit, CommonOpts};

use crate::executor::run_sweep;
use crate::registry::Registry;
use crate::scenario::Body;

pub(crate) const USAGE: &str = "usage: lab <list|run|sweep|bench|serve|trace> [scenario] [options]
  lab list
  lab run <scenario> [figure options; see lab run <scenario> --help]
  lab sweep <scenario> [--threads N] [--seeds A,B,..] [--seed-count K] [--json PATH] [figure options]
  lab bench
  lab serve <scenario> [--threads N,M,..] [--json PATH] [figure options]
  lab trace <scenario> [--json PATH] [--ring N] [--kind K] [--tail N] [figure options]";

/// Entry point of the `lab` binary: parses `args` (without `argv[0]`) and
/// runs the requested subcommand. Returns the process exit code: 2 with a
/// message on stderr for a usage or I/O error, 1 when `lab bench` ran and a
/// check failed.
pub fn lab_main<I: IntoIterator<Item = String>>(args: I) -> i32 {
    match dispatch(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

fn dispatch<I: IntoIterator<Item = String>>(args: I) -> Result<i32, String> {
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
            emit(&scenario.figure(&opts, "default", None)?, &opts)
        }
        "sweep" => sweep(&registry, args),
        "bench" => return crate::bench::bench(&registry, &args),
        "serve" => crate::serve::serve(&registry, args),
        "trace" => crate::trace_cmd::trace(&registry, args),
        "--help" | "-h" | "help" => Err(USAGE.to_string()),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
    .map(|()| 0)
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

/// Lab-specific flags peeled off before [`CommonOpts`] sees the rest.
#[derive(Debug, Default)]
pub(crate) struct SweepArgs {
    pub(crate) threads: Vec<usize>,
    pub(crate) seeds: Option<Vec<u64>>,
    pub(crate) seed_count: Option<usize>,
    pub(crate) json: Option<String>,
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
            "--seed-count" => match value_for("--seed-count")?.parse() {
                Ok(count @ 1..) => out.seed_count = Some(count),
                _ => return Err(format!("--seed-count must be a positive integer\n{USAGE}")),
            },
            "--json" => out.json = Some(value_for("--json")?),
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
    let explicit_seed = sweep_args.rest.iter().any(|a| a == "--seed");
    let opts = CommonOpts::parse(sweep_args.rest.clone())?;
    let threads = match sweep_args.threads.as_slice() {
        [] => 1,
        [n] => *n,
        _ => return Err(format!("sweep takes a single --threads value\n{USAGE}")),
    };
    let seeds = effective_seeds(scenario, &sweep_args, &opts, explicit_seed);
    // A workload may refuse the options (fig16 below three nodes): that is a
    // usage error here, not a panic in a worker.
    if let Body::Closed { workload, .. } = scenario.body {
        for point in &scenario.sweep.points {
            workload(&point.apply(&opts), point.label)?;
        }
    }

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
        for (cmd, flag) in [
            ("sweep", "--threads"),
            ("serve", "--threads"),
            ("sweep", "--seed-count"),
        ] {
            let args = [cmd, "fig13", flag, "0"].map(String::from);
            let err = dispatch(args).unwrap_err();
            assert!(err.contains("positive"), "{cmd} {flag}: {err}");
        }
    }

    #[test]
    fn unknown_scenario_is_a_helpful_error() {
        let code_err = dispatch(vec!["run".to_string(), "nope".to_string()]).unwrap_err();
        assert!(code_err.contains("unknown scenario"));
        assert!(code_err.contains("fig04"));
    }

    #[test]
    fn an_unwritable_json_path_is_an_io_error() {
        let args = ["run", "fig15", "--json", "/nonexistent/dir/f.json"];
        assert_eq!(lab_main(args.map(String::from)), 2);
    }

    #[test]
    fn the_ring_is_a_cap_not_a_reservation() {
        let ring = usize::MAX.to_string();
        let args = [
            "trace", "fig11", "--nodes", "6", "--mb", "0.125", "--ring", &ring,
        ];
        assert_eq!(lab_main(args.map(String::from)), 0);
    }

    #[test]
    fn bench_takes_no_arguments() {
        for args in [&["bench", "fig05"][..], &["bench", "--out", "x.json"]] {
            let args = || args.iter().map(|a| a.to_string());
            let err = dispatch(args()).unwrap_err();
            assert!(err.starts_with("usage: lab bench"), "{err}");
            assert_eq!(lab_main(args()), 2);
        }
    }
}
