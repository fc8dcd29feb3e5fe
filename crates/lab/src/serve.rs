//! The `lab serve` subcommand: open-system service runs.
//!
//! Closed-system scenarios (`lab run`/`lab sweep`) start one swarm and stop
//! at AllComplete; an *open-system* scenario instead drives the emulator as
//! a service — a generator admits whole swarms over a shared slot pool for a
//! fixed horizon and the result is a [`ServiceReport`] (sustained goodput,
//! per-cohort completion percentiles, admission time-series) rather than a
//! download-time CDF. See `docs/SERVICE_MODE.md`.
//!
//! A service scenario is a short list of independent *cells* (fig21: one per
//! offered-load point; fig22: a single flash-crowd run). Cells are
//! parallelised with [`run_indexed`] and, like
//! sweeps, the merged output is **byte-identical for any `--threads` value**
//! — each cell is one deterministic simulation and results merge by cell
//! index. `lab serve` re-checks that identity when more than one thread
//! count is given.

use std::time::Instant;

use bullet_bench::experiments::service_summary;
use bullet_bench::{CommonOpts, ServiceWorkload};
use netsim::ServiceReport;
use serde::Serialize;

use crate::executor::run_indexed;
use crate::registry::Registry;
use crate::scenario::Body;

/// One executed service cell.
#[derive(Debug)]
pub struct ServeCell {
    /// Label of the cell ("load-16-per-1000s", "flash-crowd", …).
    pub label: String,
    /// Wall-clock seconds the cell took (telemetry; excluded from the
    /// byte-identity guarantee).
    pub wall_clock_secs: f64,
    /// The deterministic result.
    pub report: ServiceReport,
}

/// The merged result of a service run, in cell order.
#[derive(Debug)]
pub struct ServeRun {
    /// Scenario name.
    pub scenario: String,
    /// One entry per service cell.
    pub cells: Vec<ServeCell>,
}

/// Machine-readable summary of one cell for `--json` (owned scalars only;
/// the full sample series stays in the in-memory [`ServiceReport`]).
#[derive(Debug, Serialize)]
struct ServeCellView {
    label: String,
    sustained_goodput_bps: f64,
    arrivals: usize,
    admitted: usize,
    completed: usize,
    in_flight_at_end: usize,
    queued_at_end: usize,
    max_concurrent: usize,
    p50_latency_secs: f64,
    p90_latency_secs: f64,
    events: u64,
}

#[derive(Debug, Serialize)]
struct ServeRunView {
    scenario: String,
    cells: Vec<ServeCellView>,
}

impl ServeRun {
    /// The byte-identity unit of the determinism guarantee: every cell's
    /// label plus the full debug rendering of its report (which carries the
    /// complete sample series and cohort table), wall-clock excluded.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&cell.label);
            out.push('\n');
            out.push_str(&cell.report.canonical());
            out.push('\n');
        }
        out
    }

    fn to_view(&self) -> ServeRunView {
        ServeRunView {
            scenario: self.scenario.clone(),
            cells: self
                .cells
                .iter()
                .map(|c| ServeCellView {
                    label: c.label.clone(),
                    sustained_goodput_bps: c.report.sustained_goodput_bps,
                    arrivals: c.report.arrivals,
                    admitted: c.report.admitted,
                    completed: c.report.completed,
                    in_flight_at_end: c.report.in_flight_at_end,
                    queued_at_end: c.report.queued_at_end,
                    max_concurrent: c.report.max_concurrent,
                    p50_latency_secs: c.report.latency_quantile(0.5).unwrap_or(f64::NAN),
                    p90_latency_secs: c.report.latency_quantile(0.9).unwrap_or(f64::NAN),
                    events: c.report.events,
                })
                .collect(),
        }
    }

    /// JSON rendering of the per-cell scalar summaries.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_view()).expect("serve views are always serialisable")
    }
}

/// Runs every service cell of scenario `name` on `threads` workers and
/// merges the reports by cell index (deterministic for any thread count).
/// Errors if `name` is not an open-system service scenario.
pub fn run_serve(name: &str, opts: &CommonOpts, threads: usize) -> Result<ServeRun, String> {
    let registry = Registry::standard();
    let Body::Open { cells, .. } = crate::cli::resolve(&registry, name)?.body else {
        return Err(format!(
            "'{name}' is not an open-system service scenario; \
             `lab serve` handles fig21 and fig22 (see `lab list` dynamics 'open-arrivals')"
        ));
    };
    Ok(ServeRun {
        scenario: name.to_string(),
        cells: run_cells(&cells(opts), threads),
    })
}

/// Runs an open scenario's cells on `threads` workers, merged in cell order.
/// Every service run of the lab goes through here, for the scenario's own
/// figure ([`crate::Scenario::figure`]) and for `lab serve` alike.
pub(crate) fn run_cells(cells: &[(String, ServiceWorkload)], threads: usize) -> Vec<ServeCell> {
    run_indexed(cells.len(), threads, |i| {
        let (label, cell) = &cells[i];
        let started = Instant::now();
        let report = cell.run();
        ServeCell {
            label: label.clone(),
            wall_clock_secs: started.elapsed().as_secs_f64(),
            report,
        }
    })
}

/// The `lab serve` subcommand: runs an open-system scenario's cells at each
/// requested thread count, asserts the canonical outputs are byte-identical
/// across counts, and prints a per-cell [`service_summary`].
pub fn serve(registry: &Registry, args: Vec<String>) -> Result<(), String> {
    let (name, rest) = crate::cli::take_scenario(args)?;
    let scenario = crate::cli::resolve(registry, &name)?;
    let sweep_args = crate::cli::parse_sweep_args(rest)?;
    if sweep_args.seeds.is_some() || sweep_args.seed_count.is_some() {
        return Err(
            "serve runs one seeded service per cell; use --seed, not --seeds/--seed-count"
                .to_string(),
        );
    }
    let opts = CommonOpts::parse(sweep_args.rest.clone())?;
    let thread_counts = if sweep_args.threads.is_empty() {
        vec![1]
    } else {
        sweep_args.threads.clone()
    };

    let mut kept: Option<(ServeRun, f64)> = None;
    for &threads in &thread_counts {
        let started = Instant::now();
        let run = run_serve(scenario.name, &opts, threads)?;
        let wall = started.elapsed().as_secs_f64();
        eprintln!("threads {threads}: {wall:.3}s wall clock");
        match &kept {
            None => kept = Some((run, wall)),
            Some((reference, _)) => {
                if reference.canonical() != run.canonical() {
                    return Err(format!(
                        "DETERMINISM VIOLATION: {threads}-thread serve of {name} differs from \
                         {}-thread serve",
                        thread_counts[0]
                    ));
                }
            }
        }
    }
    let (run, _) = kept.expect("at least one thread count");

    println!(
        "serve {}: {} cell(s), dynamics {}",
        run.scenario,
        run.cells.len(),
        scenario.tags().1
    );
    for cell in &run.cells {
        println!("[{}] ({:.3}s wall clock)", cell.label, cell.wall_clock_secs);
        for line in service_summary(&cell.report).lines() {
            println!("  {line}");
        }
    }
    if let Some(path) = &sweep_args.json {
        std::fs::write(path, run.to_json()).map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use bullet_bench::Figure;

    #[test]
    fn closed_system_scenarios_are_rejected() {
        let err = run_serve("fig13", &CommonOpts::default(), 1).unwrap_err();
        assert!(err.contains("not an open-system"), "{err}");
        assert!(err.contains("lab serve"), "{err}");
    }

    /// `lab run fig22` and `lab serve fig22` are the same service run.
    #[test]
    fn a_scenarios_figure_is_handed_the_runs_lab_serve_returns() {
        let opts = CommonOpts {
            nodes: Some(12),
            file_mb: Some(0.25),
            time_limit: 600.0,
            ..CommonOpts::default()
        };
        let Body::Open { cells, .. } = Registry::standard().get("fig22").unwrap().body else {
            panic!("fig22 is an open scenario");
        };
        let handed = Scenario::new(
            "fig22",
            "fig22's cells, presented as their reports' canonical form",
            Body::Open {
                cells,
                figure: |_, reports| Figure::new("t", reports[0].canonical()),
            },
        )
        .run(&opts);
        let served = run_serve("fig22", &opts, 1).unwrap();
        assert_eq!(handed.title, served.cells[0].report.canonical());
    }

    #[test]
    fn unknown_scenarios_are_rejected() {
        assert!(run_serve("fig99", &CommonOpts::default(), 1).is_err());
    }
}
