//! `emubench` — the emulator's benchmark (see `benchmark/README.md`).
//!
//! ```text
//! emubench [--workload W] [--seed S] [--seconds N]            traced pass, then dark passes; tables
//! emubench repeat [--workload W] [--seed S] [--seconds N]     two alternating sets against the bounds
//! emubench --workload W --seed S --seconds N --trace 0|1      one machine-readable run
//! emubench manifest | golden | kernel                         print BENCHMARK.json / golden.json / kernel readings
//! ```
//!
//! The harness drives `desim`, `netsim`, `overlay`, `dissem_codec`,
//! `bullet_prime`, `baselines`, `bullet_bench` and `bullet_lab` through
//! their public functions only; nothing in those crates knows it exists.

mod calib;
mod drivers;
mod ledger;
mod spec;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::process::ExitCode;

use bullet_bench::alloc_track::CountingAlloc;

use crate::ledger::Metrics;
use crate::spec::{Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::{midmean, range_over_median};
use crate::trace::Recorder;
use crate::workloads::{dark_pass, pass_seed, Pass};

// Counts allocations and tracks the live-heap high-water mark: the
// `peak_heap_bytes` metric and `netsim.runner.allocs_per_event`.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: emubench [repeat|manifest|golden|kernel] [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]";

#[derive(Debug, Clone)]
struct Args {
    command: Option<String>,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                parsed.workload = Some(
                    spec::workload(&name)
                        .ok_or(format!("unknown workload {name} (one of {known:?})"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                parsed.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                parsed.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}")),
                });
            }
            "repeat" | "manifest" | "golden" | "kernel" if parsed.command.is_none() => {
                parsed.command = Some(arg)
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// How many passes a run of `workload` makes in `seconds`: sized from the
/// workload's reference pass time, not from this host's clock, so that the
/// simulated inputs depend on the arguments alone.
fn passes_for(workload: &Workload, seconds: f64) -> u32 {
    ((seconds / workload.ref_pass_secs).round() as u32).clamp(4, 64)
}

/// One dark pass and how fast the host was around it.
struct Measured {
    pass: Pass,
    /// Reference-kernel seconds around the pass over the quiet reading.
    host_factor: f64,
}

/// The latest reading of the reference kernel, carried from pass to pass
/// so that one reading serves as the end of a pass and the start of the
/// next.
struct Kernel {
    threads: usize,
    secs: f64,
}

impl Kernel {
    fn read(threads: usize) -> Kernel {
        Kernel {
            threads,
            secs: calib::kernel_secs_on(threads),
        }
    }
}

/// Runs `sets` dark passes of `workload` at `seed` back to back, each
/// between two readings of the reference kernel on as many threads as the
/// workload keeps busy.
fn timed_passes(
    workload: &Workload,
    seed: u64,
    sets: usize,
    kernel: &mut Kernel,
) -> Result<Vec<Measured>, String> {
    let threads = workload.threads();
    if kernel.threads != threads {
        *kernel = Kernel::read(threads);
    }
    (0..sets)
        .map(|_| {
            let pass = dark_pass(workload.name, seed)?;
            let before = std::mem::replace(kernel, Kernel::read(threads));
            Ok(Measured {
                pass,
                host_factor: calib::host_factor(before.secs, kernel.secs),
            })
        })
        .collect()
}

/// The end-to-end metrics of a set of passes, in [`END_TO_END`] order: each
/// is the midmean over the passes, host seconds scaled to a quiet host pass
/// by pass (see [`calib`]).
fn end_to_end(passes: &[Measured]) -> Vec<f64> {
    let over = |f: &dyn Fn(&Pass) -> f64| {
        midmean(&passes.iter().map(|t| f(&t.pass)).collect::<Vec<f64>>())
    };
    let scaled = |f: &dyn Fn(&Pass) -> f64| {
        midmean(
            &passes
                .iter()
                .map(|t| f(&t.pass) / t.host_factor)
                .collect::<Vec<f64>>(),
        )
    };
    let values = vec![
        scaled(&|p| p.setup_s),
        scaled(&|p| p.run_wall_s),
        over(&|p| p.peak_heap_bytes as f64),
        over(&Pass::p50),
        over(&Pass::p90),
        over(&Pass::goodput_bps),
    ];
    assert_eq!(values.len(), END_TO_END.len());
    values
}

/// The last line of a machine-readable run.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            assert!(value.is_finite(), "{name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn write_spans(workload: &str, seed: u64, rec: &Recorder) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.to_json(workload, seed)));
    match written {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// `--trace 0`: dark passes only, every end-to-end metric.
fn machine_dark(workload: &'static Workload, seed: u64, seconds: f64) -> Result<String, String> {
    let passes = dark_sets(&[workload], seed, seconds, 1)?
        .remove(0)
        .remove(0);
    eprintln!("host factor {:.3}", host_factor(&passes));
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(end_to_end(&passes))
        .map(|(m, v)| (m.name, m.unit, v))
        .collect();
    Ok(result_line(
        passes.iter().map(|t| t.pass.attempted).sum(),
        passes.iter().map(|t| t.pass.failed).sum(),
        &metrics,
    ))
}

/// The median host factor of a set of passes: 1 on a quiet reference host.
fn host_factor(passes: &[Measured]) -> f64 {
    stats::median(&passes.iter().map(|t| t.host_factor).collect::<Vec<f64>>())
}

/// `--trace 1`: the traced pass only, every per-layer metric (0 where the
/// layer does not run in this workload).
fn machine_traced(workload: &Workload, seed: u64) -> Result<String, String> {
    let mut rec = Recorder::default();
    let measured = ledger::traced_pass(workload.name, seed, &mut rec)?;
    write_spans(workload.name, seed, &rec);
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|l| (l.name, l.unit, measured.get(l.name).copied().unwrap_or(0.0)))
        .collect();
    Ok(result_line(1, 0, &metrics))
}

fn print_end_to_end(workload: &Workload, passes: &[Measured]) {
    let samples: usize = passes.iter().map(|t| t.pass.times.len()).sum();
    let walls: Vec<f64> = passes
        .iter()
        .map(|t| t.pass.run_wall_s / t.host_factor)
        .collect();
    println!(
        "\n== {} — end to end: midmean over {} dark passes (one seed each), {} completions; \
         attempted {} failed {}; host factor {:.3}; pass spread (max-min)/median of run_cal_s {:.3}",
        workload.name,
        passes.len(),
        samples,
        passes.iter().map(|t| t.pass.attempted).sum::<u64>(),
        passes.iter().map(|t| t.pass.failed).sum::<u64>(),
        host_factor(passes),
        range_over_median(&walls),
    );
    for (m, value) in END_TO_END.iter().zip(end_to_end(passes)) {
        println!(
            "  {:<24} {:>18.6} {:<10} {} is better, bound {}",
            m.name,
            value,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
}

fn print_per_layer(workload: &Workload, measured: &Metrics) {
    println!(
        "\n== {} — per layer, from the traced pass (n = 1 simulation per repetition)",
        workload.name
    );
    for l in PER_LAYER.iter().filter(|l| l.on.contains(&workload.name)) {
        let value = measured.get(l.name).copied().unwrap_or(0.0);
        println!(
            "  {:<46} {:>16.6} {:<6} {:<7} moves {}",
            l.name,
            value,
            l.unit,
            format!("{:?}", l.source).to_lowercase(),
            l.moves
        );
    }
}

/// Runs the dark passes of `workloads`. All together they go round-robin —
/// pass 1 of each workload, then pass 2, … — so that a slow spell on a
/// shared host costs every workload one pass instead of one workload all of
/// its passes; the midmean then drops it. `sets` repeats each pass
/// back-to-back (`repeat`'s A and B).
fn dark_sets(
    workloads: &[&'static Workload],
    seed: u64,
    seconds: f64,
    sets: usize,
) -> Result<Vec<Vec<Vec<Measured>>>, String> {
    let counts: Vec<u32> = workloads.iter().map(|w| passes_for(w, seconds)).collect();
    let mut out: Vec<Vec<Vec<Measured>>> = workloads
        .iter()
        .map(|_| (0..sets).map(|_| Vec::new()).collect())
        .collect();
    let mut kernel = Kernel::read(1);
    for i in 0..counts.iter().copied().max().unwrap_or(0) {
        for (w, workload) in workloads.iter().enumerate() {
            if i < counts[w] {
                let timed = timed_passes(workload, pass_seed(seed, i), sets, &mut kernel)?;
                for (set, pass) in out[w].iter_mut().zip(timed) {
                    set.push(pass);
                }
            }
        }
        eprint!(".");
    }
    eprintln!();
    Ok(out)
}

/// The benchmark's one command: traced pass first (it doubles as warm-up
/// and never feeds an end-to-end number), then the dark passes.
fn full(workloads: &[&'static Workload], seed: u64, seconds: f64) -> Result<(), String> {
    let mut ledgers = Vec::new();
    for workload in workloads {
        eprintln!("traced pass: {}", workload.name);
        let mut rec = Recorder::default();
        ledgers.push(ledger::traced_pass(workload.name, seed, &mut rec)?);
        write_spans(workload.name, seed, &rec);
    }
    eprintln!("dark passes:");
    let dark = dark_sets(workloads, seed, seconds, 1)?;
    println!(
        "emubench: seed {seed}, {} host thread(s); host times are this machine's, sim_* are exact for the seed",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for ((workload, sets), measured) in workloads.iter().zip(&dark).zip(&ledgers) {
        print_end_to_end(workload, &sets[0]);
        print_per_layer(workload, measured);
    }
    Ok(())
}

/// `repeat`: two complete sets, A and B alternating pass by pass, compared
/// per workload × end-to-end metric against the metric's bound. The
/// simulated metrics must agree exactly.
fn repeat(workloads: &[&'static Workload], seed: u64, seconds: f64) -> Result<bool, String> {
    let dark = dark_sets(workloads, seed, seconds, 2)?;
    let mut ok = true;
    println!(
        "{:<14} {:<22} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "A", "B", "|a-b|/a", "bound"
    );
    for (workload, sets) in workloads.iter().zip(&dark) {
        let same_answers = sets[0]
            .iter()
            .zip(&sets[1])
            .all(|(a, b)| a.pass.digest == b.pass.digest);
        if !same_answers {
            println!(
                "{:<14} canonical reports of A and B differ: the emulator is not deterministic",
                workload.name
            );
            ok = false;
        }
        let (a, b) = (end_to_end(&sets[0]), end_to_end(&sets[1]));
        for ((m, a), b) in END_TO_END.iter().zip(a).zip(b) {
            let gap = (a - b).abs() / a.abs();
            let exact = m.name.starts_with("sim_");
            let breach = if exact { a != b } else { gap > m.bound };
            ok &= !breach;
            println!(
                "{:<14} {:<22} {:>16.6} {:>16.6} {:>9.4} {:>6} {}",
                workload.name,
                m.name,
                a,
                b,
                gap,
                if exact {
                    "exact".to_string()
                } else {
                    m.bound.to_string()
                },
                if breach { "BREACH" } else { "" }
            );
        }
    }
    Ok(ok)
}

fn golden(seed: u64) -> Result<(), String> {
    println!("{{");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let pass = dark_pass(w.name, seed)?;
        println!(
            "  \"{}\": \"{:#018x}\"{}",
            w.name,
            pass.digest,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    println!("}}");
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    match (args.command.as_deref(), args.trace) {
        (Some("manifest"), _) => print!("{}", spec::benchmark_json()),
        (Some("golden"), _) => golden(DEFAULT_SEED)?,
        (Some("kernel"), _) => {
            // How `calib::QUIET_SECS` is (re-)derived for a reference host.
            let readings: Vec<f64> = (0..200).map(|_| calib::kernel_secs()).collect();
            println!(
                "reference kernel, 200 readings: min {:.5} s, median {:.5} s (QUIET_SECS is {})",
                readings.iter().copied().fold(f64::INFINITY, f64::min),
                stats::median(&readings),
                calib::QUIET_SECS
            );
        }
        (Some("repeat"), _) => return repeat(&selected, args.seed, args.seconds),
        (_, Some(traced)) => {
            let workload = args
                .workload
                .ok_or(format!("--trace needs --workload\n{USAGE}"))?;
            let line = if traced {
                machine_traced(workload, args.seed)?
            } else {
                machine_dark(workload, args.seed, args.seconds)?
            };
            println!("{line}");
        }
        (_, None) => full(&selected, args.seed, args.seconds)?,
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(violation) => {
            // A correctness violation: no metric is printed.
            eprintln!("INCORRECT: {violation}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn machine_readable_arguments_parse() {
        let a = args(&[
            "--workload",
            "dyn_mesh",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "dyn_mesh");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, Some(true)));
        let d = args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, f64::from(RUN_SECONDS), None)
        );
        assert_eq!(
            args(&["repeat"]).unwrap().command.as_deref(),
            Some("repeat")
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn pass_counts_follow_the_arguments_not_the_clock() {
        for w in &WORKLOADS {
            let n = passes_for(w, f64::from(RUN_SECONDS));
            assert!((8..=48).contains(&n), "{}: {n} passes", w.name);
            assert_eq!(passes_for(w, 0.5), 4, "never fewer than four");
        }
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys() {
        let line = result_line(
            10,
            0,
            &[("run_wall_s", "s", 1.25), ("setup_s", "s", 0.0078125)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"run_wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.0078125, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn host_seconds_are_scaled_by_the_host_factor_and_nothing_else_is() {
        let e2e = end_to_end(&[Measured {
            pass: Pass {
                setup_s: 0.5,
                run_wall_s: 2.0,
                peak_heap_bytes: 100,
                times: vec![1.0, 2.0, 3.0, 4.0],
                useful_bits: 80.0,
                virtual_secs: 4.0,
                attempted: 4,
                failed: 0,
                digest: 1,
            },
            host_factor: 2.0,
        }]);
        assert_eq!(e2e, vec![0.25, 1.0, 100.0, 2.0, 4.0, 20.0]);
    }
}
