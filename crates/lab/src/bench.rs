//! `lab bench`: the three self-checks no test and no benchmark workload makes.
//!
//! Takes no arguments and writes nothing. Runs three legs, each a registry
//! scenario's own workload at fixed options, prints one line per check with
//! the numbers it measured and fails (exit status 1) when a check does:
//!
//! | leg | workload | checks |
//! |---|---|---|
//! | tracing | fig05 at 30 nodes / 16 MiB, dark then traced into a counting sink | traced canonical = dark canonical; traced / dark ≤ 1.5× (`docs/OBSERVABILITY.md`) |
//! | scale | fig20 at N = 1,000 / 5,000 / 10,000 | every point ends `AllComplete` |
//! | threads | the fig05 sweep at 1 and 4 workers, 2 seeds, 2 MiB, on a host that has 4 | canonical identical; 4 workers ≥ 1.5× |
//!
//! Every check compares two values measured in this process, so none needs a
//! baseline. Recording performance and comparing a commit against its parent
//! is the benchmark's job (`BENCHMARK.json`, `benchmark/`): it times the same
//! workload families with a per-layer ledger, and the deterministic numbers
//! of these runs are what `lab run fig20`, `lab sweep fig05 --json` and `lab
//! trace fig05` print.

use std::io::Write;
use std::time::Instant;

use bullet_bench::experiments::{fig05_workload, fig20_workload};
use bullet_bench::{CommonOpts, Workload};
use netsim::{CountingSink, StopReason, TraceSink};

use crate::cli::Stop;
use crate::executor::run_sweep;
use crate::registry::Registry;
use crate::scenario::SeedPlan;

const USAGE: &str = "usage: lab bench   (no options: three fixed self-checks, nothing written; \
`lab sweep <scenario> --threads N` times an arbitrary sweep)";

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

/// The overhead contract of `docs/OBSERVABILITY.md`, on wall-clock seconds.
fn trace_overhead(dark: f64, traced: f64) -> Check {
    let ratio = traced / dark.max(1e-9);
    let line =
        format!("traced run {traced:.3}s, {ratio:.2}x the dark run's {dark:.3}s (ceiling 1.5x)");
    check(ratio <= 1.5, line)
}

fn all_complete(what: &str, reason: StopReason) -> Check {
    let line = format!("{what}: ends {reason:?}");
    check(reason == StopReason::AllComplete, line)
}

/// `speedup` is 1-worker over 4-worker wall clock of the fig05 sweep.
fn thread_scaling(speedup: f64) -> Check {
    let line = format!("4-thread sweep {speedup:.2}x the 1-thread sweep (floor 1.5x)");
    check(speedup >= 1.5, line)
}

fn timed<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = run();
    (out, started.elapsed().as_secs_f64())
}

/// The tracing leg: fig05's default Bullet′ run at `opts`, dark and then with
/// a counting trace sink and nothing else.
fn tracing_leg(opts: &CommonOpts) -> Vec<Check> {
    let w = fig05_workload(opts, "default").expect("fig05 has one point");
    let observed = |traced: bool| {
        timed(|| {
            let sink = traced.then(|| Box::new(CountingSink::new()) as Box<dyn TraceSink>);
            w.run(&mut w.bullet_prime(&w.config(), sink))
        })
    };
    let (dark, dark_wall) = observed(false);
    let (traced, traced_wall) = observed(true);
    let what = format!(
        "fig05 run of {} events, traced ({} records) vs dark",
        dark.events, traced.trace_records
    );
    vec![
        same_canonical(&what, &dark.canonical(), &traced.canonical()),
        trace_overhead(dark_wall, traced_wall),
    ]
}

/// The scale leg: fig20's workload at each swarm size, one check per size.
fn scale_leg(sizes: &[usize]) -> Vec<Check> {
    let shape = fig20_workload(&CommonOpts::default(), "default").expect("fig20 has one point");
    let point = |&nodes: &usize| {
        let (report, wall) = timed(|| Workload { nodes, ..shape }.report());
        eprintln!(
            "scale N={nodes}: {} events in {wall:.2}s ({:.0} events/s)",
            report.events,
            report.events as f64 / wall.max(1e-9)
        );
        let what = format!(
            "fig20 at N={nodes}, {} events, virtual end {:.1}s",
            report.events,
            report.end_time.as_secs_f64()
        );
        all_complete(&what, report.reason)
    };
    sizes.iter().map(point).collect()
}

/// The threads leg: fig05's sweep on 1 and on 4 workers. A host that cannot
/// run four without oversubscription runs neither: one worker alone has
/// nothing to be compared with.
fn threads_leg(
    registry: &Registry,
    opts: &CommonOpts,
    seed_count: usize,
    host_threads: usize,
) -> Vec<Check> {
    if host_threads < 4 {
        return vec![Ok(format!(
            "4-thread scaling floor not applied: it needs a host with >= 4 threads, \
             this one offers {host_threads}"
        ))];
    }
    let scenario = registry.get("fig05").expect("a registered scenario");
    let plan = SeedPlan {
        count: seed_count,
        ..scenario.sweep.seeds
    };
    let sweep = |threads| timed(|| run_sweep(scenario, opts, &plan.seeds(), threads));
    let (serial, serial_wall) = sweep(1);
    let (wide, wide_wall) = sweep(4);
    let what = format!(
        "4-thread vs 1-thread fig05 sweep of {} cells",
        serial.cells.len()
    );
    vec![
        same_canonical(
            &what,
            &serial.to_canonical_json(),
            &wide.to_canonical_json(),
        ),
        thread_scaling(serial_wall / wide_wall.max(1e-9)),
    ]
}

/// The `lab bench` subcommand. `Ok` carries the exit status: 0, or 1 when a
/// check failed.
pub(crate) fn bench(
    registry: &Registry,
    args: &[String],
    out: &mut dyn Write,
) -> Result<i32, Stop> {
    if !args.is_empty() {
        return Err(USAGE.to_string().into());
    }
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = |nodes, file_mb, time_limit| CommonOpts {
        nodes,
        file_mb: Some(file_mb),
        time_limit,
        ..CommonOpts::default()
    };

    let mut checks = tracing_leg(&opts(Some(30), 16.0, 7_200.0));
    checks.extend(scale_leg(&[1_000, 5_000, 10_000]));
    let sweep_opts = opts(None, 2.0, 3_600.0);
    checks.extend(threads_leg(registry, &sweep_opts, 2, host_threads));

    for check in &checks {
        match check {
            Ok(line) => writeln!(out, "ok    {line}")?,
            Err(line) => writeln!(out, "FAIL  {line}")?,
        }
    }
    Ok(i32::from(checks.iter().any(Result::is_err)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_check_fails_on_the_values_it_exists_to_catch() {
        assert!(trace_overhead(1.0, 1.49).is_ok());
        assert!(trace_overhead(1.0, 1.51).is_err());

        assert!(all_complete("point", StopReason::AllComplete).is_ok());
        assert!(all_complete("point", StopReason::TimeLimit).is_err());

        assert!(thread_scaling(1.6).is_ok());
        assert!(thread_scaling(1.4).is_err());

        // The traced and thread-count legs both compare canonical strings
        // through this one function.
        assert!(same_canonical("leg", "a", "a").is_ok());
        assert!(same_canonical("leg", "a", "b").is_err());
    }

    /// `lab bench` measures the registry's workloads, not look-alikes — at
    /// tiny sizes every leg's numbers are those of the workload's own run —
    /// and it leaves nothing behind in its working directory.
    #[test]
    fn records_carry_the_registry_workloads_own_runs() {
        let listing = || {
            let entries = std::fs::read_dir(".").expect("the working directory is readable");
            let mut names: Vec<_> = entries.map(|e| e.unwrap().file_name()).collect();
            names.sort();
            names
        };
        let before = listing();
        let opts = CommonOpts {
            nodes: Some(8),
            file_mb: Some(0.25),
            time_limit: 300.0,
            ..CommonOpts::default()
        };

        let checks = tracing_leg(&opts);
        let own = fig05_workload(&opts, "default").unwrap().report();
        assert_eq!(checks.len(), 2);
        let identity = checks[0].as_ref().unwrap();
        assert!(
            identity.contains(&format!("of {} events", own.events)),
            "{identity}"
        );

        let checks = scale_leg(&[24]);
        let own = fig20_workload(
            &CommonOpts {
                nodes: Some(24),
                ..CommonOpts::default()
            },
            "default",
        )
        .unwrap()
        .report();
        assert_eq!(checks.len(), 1);
        let complete = checks[0].as_ref().unwrap();
        assert!(
            complete.contains(&format!("{} events", own.events)),
            "{complete}"
        );

        // Told it has one thread the threads leg runs nothing and says so.
        let registry = Registry::standard();
        let checks = threads_leg(&registry, &opts, 1, 1);
        assert_eq!(checks.len(), 1);
        let line = checks[0].as_ref().unwrap();
        assert!(line.contains("not applied"), "{line}");

        // Told it has four, it runs both counts and compares them (the
        // scaling verdict is this machine's business).
        let checks = threads_leg(&registry, &opts, 1, 4);
        assert_eq!(checks.len(), 2);
        let identity = checks[0].as_ref().unwrap();
        assert!(
            identity.starts_with("4-thread vs 1-thread fig05 sweep of 3 cells"),
            "{identity}"
        );

        assert_eq!(listing(), before, "lab bench writes nothing");
    }
}
