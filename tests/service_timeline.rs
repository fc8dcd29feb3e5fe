//! The open system's per-tick samples, checked against its cohort timeline.
//!
//! A service run reports two views of one history: a sample per tick
//! (`admitted`, `completed`, `in_flight`, `queued`) and a record per reaped
//! cohort (arrival, admit and reap instants). `samples_follow_the_cohort_timeline`
//! is a plain function of a `ServiceReport` and the `ServiceWorkload` that
//! produced it, returning the first disagreement rather than panicking, so a
//! figure's claims can call it too. `littles_law_holds` reads the same two
//! views as time averages over the measurement window. The tests run both
//! on every cell of fig21 and fig22 at the reduced scale the CI smoke uses.

use bullet_repro::bullet_bench::experiments::{fig21_cells, fig22_cells};
use bullet_repro::bullet_bench::{CommonOpts, ServiceWorkload};
use bullet_repro::desim::{RngFactory, SimTime};
use bullet_repro::netsim::{arrival_schedule, ServiceReport};

/// Checks every per-tick sample of `report` against the cohort timeline of
/// `cell`'s run, and returns how many samples it checked.
///
/// The arrivals are those `arrival_schedule` draws from the cell's generator
/// and seed, as many as the report says were materialised. Cohorts are
/// admitted first come, first served and numbered from 1 in admission order,
/// so cohort k is the k-th arrival. At a sample taken at t:
/// - `completed` counts the cohorts reaped by t;
/// - `in_flight` is `admitted − completed`;
/// - `queued` is the arrivals due by t minus `admitted`;
/// - a reaped cohort counts as admitted exactly when it was admitted by t;
/// - `admitted` is never below the previous sample's.
///
/// The boundary conventions follow `run_service`'s loop at each instant it
/// stops at: it reaps first, then enqueues the arrivals due and admits, and
/// samples last. So an arrival, admission or reap at t is counted in the
/// sample at t. The exception is the horizon, where nothing is enqueued: an
/// arrival due exactly then is never queued.
pub fn samples_follow_the_cohort_timeline(
    cell: &ServiceWorkload,
    report: &ServiceReport,
) -> Result<usize, String> {
    let horizon = SimTime::from_secs_f64(cell.horizon);
    let rng = RngFactory::new(cell.seed);
    let arrivals: Vec<f64> = arrival_schedule(&cell.arrivals, horizon, report.arrivals, &rng)
        .iter()
        .map(|t| t.as_secs_f64())
        .collect();
    if arrivals.len() != report.arrivals {
        return Err(format!(
            "the report counts {} arrivals, the generator draws {}",
            report.arrivals,
            arrivals.len()
        ));
    }
    if report.admitted != report.completed + report.in_flight_at_end
        || report.completed != report.cohorts.len()
    {
        return Err(format!(
            "at the horizon {} admitted, {} completed ({} cohorts), {} in flight",
            report.admitted,
            report.completed,
            report.cohorts.len(),
            report.in_flight_at_end
        ));
    }
    for c in &report.cohorts {
        let arrival = arrivals.get(c.cohort as usize - 1).copied();
        if arrival != Some(c.arrival_secs) {
            return Err(format!(
                "cohort {} arrived at {}s, but arrival {} is at {arrival:?}",
                c.cohort, c.arrival_secs, c.cohort
            ));
        }
        if !(c.arrival_secs <= c.admit_secs && c.admit_secs <= c.reaped_secs) {
            return Err(format!(
                "cohort {}: arrival {}s, admit {}s, reap {}s out of order",
                c.cohort, c.arrival_secs, c.admit_secs, c.reaped_secs
            ));
        }
    }
    let horizon_secs = horizon.as_secs_f64();
    let mut admitted_before = 0;
    for s in &report.samples {
        let t = s.time_secs;
        let completed = report.cohorts.iter().filter(|c| c.reaped_secs <= t).count();
        let due = arrivals
            .iter()
            .filter(|&&a| a <= t && a < horizon_secs)
            .count();
        let admission = report
            .cohorts
            .iter()
            .find(|c| (c.cohort as usize <= s.admitted) != (c.admit_secs <= t));
        let wrong = if s.admitted < admitted_before {
            format!("admitted fell from {admitted_before}")
        } else if s.completed != completed {
            format!("{completed} cohorts were reaped by then")
        } else if s.in_flight + s.completed != s.admitted {
            "in flight is not admitted - completed".to_string()
        } else if s.queued + s.admitted != due {
            format!("{due} arrivals were due by then")
        } else if let Some(c) = admission {
            format!("cohort {} was admitted at {}s", c.cohort, c.admit_secs)
        } else {
            admitted_before = s.admitted;
            continue;
        };
        return Err(format!("sample at {t}s ({s:?}): {wrong}"));
    }
    Ok(report.samples.len())
}

/// Checks Little's law (Little 1961, L = λW) over `cell`'s measurement
/// window [warmup, horizon) of length T, and returns L read both ways:
/// sampled, then from the timeline.
///
/// - **Sampled:** the mean of `in_flight + queued` over the samples taken in
///   the window, one per tick.
/// - **From the timeline:** the time average of the number of swarms in the
///   system, ∫ N dt / T. A swarm is in the system from its arrival until it
///   is reaped; an arrival not reaped stays up to the horizon. ∫ N dt is the
///   sum of each swarm's stay inside the window, which is λW.
///
/// The tolerance comes from the tick h. A sample at t counts a swarm that
/// arrived at or before t and is reaped after t, so a stay of length s in the
/// window holds ⌊s/h⌋ or ⌈s/h⌉ ticks: its sampled share is within h of s.
/// With M swarms staying in the window and K samples (K·h within h of T),
/// the two readings differ by at most (L_sampled + M)·h / T. Most reaps
/// fall on a tick, where a stay ends uncounted, so the sampled reading
/// tends to sit below the other by about M·h / 2T.
pub fn littles_law_holds(
    cell: &ServiceWorkload,
    report: &ServiceReport,
) -> Result<(f64, f64), String> {
    let (warmup, horizon) = (cell.warmup, cell.horizon);
    let window = horizon - warmup;
    let rng = RngFactory::new(cell.seed);
    let arrivals = arrival_schedule(
        &cell.arrivals,
        SimTime::from_secs_f64(horizon),
        report.arrivals,
        &rng,
    );
    // Cohort k is the k-th arrival; a swarm not reaped leaves at the horizon.
    let stays: Vec<f64> = arrivals
        .iter()
        .enumerate()
        .map(|(k, arrival)| {
            let reaped = report
                .cohorts
                .iter()
                .find(|c| c.cohort as usize == k + 1)
                .map_or(horizon, |c| c.reaped_secs.min(horizon));
            reaped - arrival.as_secs_f64().max(warmup)
        })
        .filter(|&stay| stay > 0.0)
        .collect();
    let integrated = stays.iter().sum::<f64>() / window;
    let in_window: Vec<usize> = report
        .samples
        .iter()
        .filter(|s| warmup <= s.time_secs && s.time_secs < horizon)
        .map(|s| s.in_flight + s.queued)
        .collect();
    if in_window.is_empty() {
        return Err(format!("no sample in the window [{warmup}s, {horizon}s)"));
    }
    let sampled = in_window.iter().sum::<usize>() as f64 / in_window.len() as f64;
    let tolerance = (sampled + stays.len() as f64) * cell.tick / window + 1e-9;
    if (sampled - integrated).abs() > tolerance {
        return Err(format!(
            "L is {sampled} sampled over {} ticks but {integrated} from {} stays \
             (tolerance {tolerance})",
            in_window.len(),
            stays.len()
        ));
    }
    Ok((sampled, integrated))
}

/// The CI smoke's scale: 16 slots, 0.25 MiB files, a 300 s horizon.
fn smoke() -> CommonOpts {
    CommonOpts {
        nodes: Some(16),
        file_mb: Some(0.25),
        time_limit: 300.0,
        ..CommonOpts::default()
    }
}

#[test]
fn fig21s_samples_follow_its_cohort_timeline() {
    let cells = fig21_cells(&smoke());
    assert_eq!(cells.len(), 4);
    let mut queued = 0;
    for (label, cell) in &cells {
        let report = cell.run();
        let checked = samples_follow_the_cohort_timeline(cell, &report)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(checked > 0, "{label}: no samples");
        littles_law_holds(cell, &report).unwrap_or_else(|e| panic!("{label}: {e}"));
        queued += report.samples.iter().filter(|s| s.queued > 0).count();
    }
    assert!(queued > 0, "premise: some sample has a swarm queueing");
}

#[test]
fn fig22s_samples_follow_its_cohort_timeline() {
    let cells = fig22_cells(&smoke());
    assert_eq!(cells.len(), 1);
    let (label, cell) = &cells[0];
    let report = cell.run();
    assert_eq!(report.completed, 2, "premise: {label} reaps both swarms");
    samples_follow_the_cohort_timeline(cell, &report).unwrap_or_else(|e| panic!("{label}: {e}"));
    littles_law_holds(cell, &report).unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn a_sample_that_disagrees_is_named() {
    let (_, cell) = &fig21_cells(&smoke())[3];
    let report = cell.run();
    let mut wrong = report.clone();
    let last = wrong.samples.last_mut().expect("samples");
    last.queued += 1;
    let err = samples_follow_the_cohort_timeline(cell, &wrong).unwrap_err();
    assert!(err.contains("arrivals were due"), "{err}");
    let mut wrong = report.clone();
    wrong.cohorts[0].arrival_secs += 1.0;
    assert!(samples_follow_the_cohort_timeline(cell, &wrong).is_err());
    // One swarm too many in every sample breaks Little's law. At the lowest
    // load few swarms stay in the window, so the tolerance is well below 1.
    let (_, cell) = &fig21_cells(&smoke())[0];
    let report = cell.run();
    littles_law_holds(cell, &report).expect("the run itself agrees");
    let mut wrong = report.clone();
    for s in &mut wrong.samples {
        s.queued += 1;
    }
    let err = littles_law_holds(cell, &wrong).unwrap_err();
    assert!(err.contains("sampled over"), "{err}");
}
