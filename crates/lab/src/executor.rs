//! The parallel sweep executor.
//!
//! A sweep is the cartesian product of a scenario's parameter points and a
//! list of seeds. Every cell is an independent deterministic simulation (each
//! builds its own `RngFactory` from the cell seed), so cells can execute on
//! any thread in any order — the executor hands cells to a worker pool
//! through a shared atomic cursor (idle workers steal the next unclaimed
//! cell) and merges results **by cell index**. The canonical JSON rendering
//! ([`SweepReport::to_canonical_json`]) is therefore byte-identical for any
//! `--threads` value, which `tests/lab_smoke.rs` asserts (and
//! `tests/wall_clock.rs` re-checks on four workers, on a host with four
//! threads); the full rendering
//! ([`SweepReport::to_json`]) additionally carries per-cell wall-clock
//! telemetry, which is machine- and schedule-dependent by nature and
//! excluded from the identity guarantee.
//!
//! Cells are claimed in **longest-first order**: the cursor walks a
//! precomputed permutation that sorts cells by estimated cost (simulated
//! work grows roughly with swarm-size² × file size), descending. Sweeps such
//! as fig05's scale the swarm across points, so naive enumeration order ends
//! with the heaviest cells — a worker that claims one last serialises the
//! entire tail while the other workers sit idle, which is exactly the
//! "4 threads ≈ 1 thread" pathology. Longest-first is classic LPT list
//! scheduling: start the dominant cells immediately and let the cheap ones
//! fill the remaining capacity.
//!
//! No thread pool crate, channels or scoped-thread helpers from outside the
//! standard library are used (the build environment is offline):
//! `std::thread::scope` and one `AtomicUsize` cursor is the entire
//! machinery. Each worker keeps the `(index, result)` pairs of the cells it
//! claimed and returns them when it is joined; the caller sorts the joined
//! pairs by index: no lock and no shared table.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bullet_bench::{CommonOpts, Figure, WarmPrefix, Workload};
use serde::{Serialize, Value};

use crate::scenario::{ParamPoint, Scenario};

/// One executed sweep cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellReport {
    /// Label of the parameter point the cell ran.
    pub point: String,
    /// Experiment seed of the cell.
    pub seed: u64,
    /// Wall-clock seconds the cell's simulation took (telemetry: machine-
    /// and schedule-dependent, excluded from the byte-identity guarantee).
    pub wall_clock_secs: f64,
    /// The resulting figure.
    pub figure: Figure,
}

/// The merged result of a sweep, in deterministic cell order
/// (parameter-point major, seed minor).
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Scenario name.
    pub scenario: String,
    /// Number of shared warm-up prefixes simulated (0 when the scenario has
    /// no warm-up split or prefix sharing was off). Telemetry: excluded from
    /// the canonical rendering like the wall clocks.
    pub prefix_cells: usize,
    /// Number of cells forked from a shared prefix (0 when sharing is off).
    pub forked_cells: usize,
    /// Wall-clock seconds prefix sharing saved: Σ over groups of the
    /// prefix's wall clock × (group size − 1) — the warm-ups that were *not*
    /// re-simulated. Machine-dependent telemetry.
    pub warmup_secs_saved: f64,
    /// One entry per (point, seed) cell.
    pub cells: Vec<CellReport>,
}

/// The keys of [`SweepReport`] and [`CellReport`] that are machine- and
/// schedule-dependent telemetry.
const TELEMETRY: [&str; 4] = [
    "wall_clock_secs",
    "prefix_cells",
    "forked_cells",
    "warmup_secs_saved",
];

/// Drops the [`TELEMETRY`] keys from a lowered sweep: from the sweep object
/// and from each object under its `cells`. Figures are not descended into.
fn strip_telemetry(value: &mut Value) {
    match value {
        Value::Object(fields) => {
            fields.retain(|(key, _)| !TELEMETRY.contains(&key.as_str()));
            if let Some((_, cells)) = fields.iter_mut().find(|(key, _)| key == "cells") {
                strip_telemetry(cells);
            }
        }
        Value::Array(cells) => cells.iter_mut().for_each(strip_telemetry),
        _ => {}
    }
}

impl SweepReport {
    /// Full JSON rendering, including the per-cell wall-clock telemetry.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep reports are always serialisable")
    }

    /// Canonical JSON rendering — the byte-identity unit of the determinism
    /// guarantee: identical for any thread count because the wall-clock
    /// telemetry (the only nondeterministic field) is omitted.
    pub fn to_canonical_json(&self) -> String {
        let mut sweep = self.to_value();
        strip_telemetry(&mut sweep);
        serde_json::to_string_pretty(&sweep).expect("sweep reports are always serialisable")
    }
}

/// Deterministic cell enumeration of a sweep: point-major, seed-minor.
fn enumerate_cells(scenario: &Scenario, seeds: &[u64]) -> Vec<(usize, u64)> {
    scenario
        .points
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| seeds.iter().map(move |&s| (pi, s)))
        .collect()
}

/// Relative cost estimate of one cell: simulated event volume grows roughly
/// with the square of the swarm size (every pair is a potential flow) times
/// the transferred file size. Only the *ordering* of the estimates matters —
/// they rank cells for longest-first claiming.
fn estimate_cost(base: &CommonOpts, point: &ParamPoint) -> f64 {
    let nodes = point.nodes.or(base.nodes).unwrap_or(30) as f64;
    nodes * nodes * base.file_mb.unwrap_or(4.0)
}

/// The claim order of the cells: descending estimated cost, original index
/// ascending among ties — a deterministic permutation of `0..costs.len()`.
fn schedule_order(costs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    order
}

/// Runs `order.len()` independent jobs on `threads` workers and merges the
/// results **by job index**, not completion order. `order` is the claim
/// permutation (idle workers steal the next unclaimed entry); the result at
/// position `i` is `job(i)` regardless of which worker ran it or when. A
/// panicking job panics the call, with the job's own message.
fn run_ordered<T: Send>(
    order: &[usize],
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    assert!(threads > 0, "need at least one worker");
    let cursor = AtomicUsize::new(0);
    // Work stealing: claim the next unexecuted job until none is left
    // (`order` is a permutation of the job indices and `fetch_add` yields
    // each position once), keeping the results on the worker.
    let work = || {
        let mut done = Vec::new();
        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            done.push((i, job(i)));
        }
        done
    };
    let workers = threads.min(order.len());
    let mut done: Vec<(usize, T)> = if workers <= 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// [`run_ordered`] with the jobs claimed in index order.
fn run_indexed<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let order: Vec<usize> = (0..n).collect();
    run_ordered(&order, threads, job)
}

/// Runs `scenario`'s sweep (its parameter points × `seeds`) on `threads`
/// workers and merges the per-cell figures by cell index. Equivalent to
/// [`run_sweep_with`] with prefix sharing on — the default: sharing is an
/// executor optimisation whose canonical output is byte-identical to the
/// uninterrupted runs (`tests/golden_figures.rs` pins both).
///
/// `base` supplies the options every cell starts from; each cell applies its
/// parameter point's overrides and its seed. With `threads == 1` the cells
/// run serially on the calling thread; the canonical output is identical
/// either way (only the wall-clock telemetry differs).
///
/// # Panics
///
/// Panics if `threads` is zero or a worker thread panics.
pub fn run_sweep(
    scenario: &Scenario,
    base: &CommonOpts,
    seeds: &[u64],
    threads: usize,
) -> SweepReport {
    run_sweep_with(scenario, base, seeds, threads, true)
}

/// Assigns every forkable cell (`Some`) to a group of cells that
/// [share a warm prefix](Workload::shares_prefix_with), groups numbered in
/// first-occurrence order. Returns each group's first cell and each cell's
/// group.
fn prefix_groups(forkable: &[Option<Workload>]) -> (Vec<usize>, Vec<Option<usize>>) {
    let mut leaders: Vec<usize> = Vec::new();
    let group_of = forkable
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let w = cell.as_ref()?;
            let known = leaders.iter().position(|&leader| {
                forkable[leader]
                    .as_ref()
                    .is_some_and(|l| l.shares_prefix_with(w))
            });
            Some(known.unwrap_or_else(|| {
                leaders.push(i);
                leaders.len() - 1
            }))
        })
        .collect();
    (leaders, group_of)
}

/// [`run_sweep`] with explicit control over warm-prefix sharing.
///
/// A cell whose figure renders one Bullet′ run of a workload with a quiet
/// prefix ([`Scenario::forkable`]; `fig05w`) need not simulate that prefix
/// itself. When `share` is true such cells are grouped by
/// [`Workload::shares_prefix_with`] — equal up to dynamics, seed included;
/// the point label only selects the dynamics — each group's prefix is
/// simulated once and checkpointed, and every member forks from the
/// snapshot. When `share` is false the same cells run uninterrupted — the
/// oracle the forked path is asserted byte-identical against. All other
/// cells run their figure either way. Both phases are parallel and
/// index-merged, so the canonical output stays byte-identical for any thread
/// count.
///
/// # Panics
///
/// Panics if `threads` is zero, a worker thread panics, or a sweep point's
/// label is unknown to the scenario's workload (points and workload are
/// defined together in the registry, so a mismatch is a bug).
pub fn run_sweep_with(
    scenario: &Scenario,
    base: &CommonOpts,
    seeds: &[u64],
    threads: usize,
    share: bool,
) -> SweepReport {
    let points = &scenario.points;
    let cells = enumerate_cells(scenario, seeds);
    let cell_opts: Vec<CommonOpts> = cells
        .iter()
        .map(|&(pi, seed)| scenario.cell_opts(base, &points[pi], seed))
        .collect();
    let forkable: Vec<Option<Workload>> = cells
        .iter()
        .zip(&cell_opts)
        .map(|(&(pi, _), opts)| scenario.forkable(opts, points[pi].label).filter(|_| share))
        .collect();
    let (leaders, group_of) = prefix_groups(&forkable);

    // Phase 1: simulate each group's prefix once (in parallel) and keep its
    // wall clock — the cost every other member of the group did not pay.
    let prefixes: Vec<(WarmPrefix, f64)> = run_indexed(leaders.len(), threads, |g| {
        let started = Instant::now();
        let leader = forkable[leaders[g]].as_ref().expect("leaders are forkable");
        (leader.prefix(), started.elapsed().as_secs_f64())
    });

    // Phase 2: every cell, heaviest first (LPT scheduling; see the module
    // doc), forked from its group's snapshot if it has one.
    let costs: Vec<f64> = cells
        .iter()
        .map(|&(pi, _)| estimate_cost(base, &points[pi]))
        .collect();
    let order = schedule_order(&costs);
    let reports = run_ordered(&order, threads, |i| {
        let (pi, seed) = cells[i];
        let label = points[pi].label;
        let started = Instant::now();
        let fork = group_of[i].map(|g| &prefixes[g].0);
        let figure = scenario
            .figure(&cell_opts[i], label, fork)
            .unwrap_or_else(|e| panic!("sweep point '{label}' of {}: {e}", scenario.name));
        CellReport {
            point: label.to_string(),
            seed,
            wall_clock_secs: started.elapsed().as_secs_f64(),
            figure,
        }
    });

    let forked_cells = group_of.iter().flatten().count();
    let warmup_secs_saved = prefixes
        .iter()
        .enumerate()
        .map(|(g, (_, secs))| {
            let members = group_of.iter().filter(|&&of| of == Some(g)).count();
            secs * (members - 1) as f64
        })
        .sum();
    SweepReport {
        scenario: scenario.name.to_string(),
        prefix_cells: leaders.len(),
        forked_cells,
        warmup_secs_saved,
        cells: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn tiny() -> CommonOpts {
        CommonOpts {
            nodes: Some(6),
            file_mb: Some(0.125),
            time_limit: 1800.0,
            ..CommonOpts::default()
        }
    }

    #[test]
    fn sweep_enumerates_points_major_seeds_minor() {
        let reg = Registry::standard();
        let sc = reg.get("fig13").unwrap();
        let report = run_sweep(sc, &tiny(), &[1, 2], 1);
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].seed, 1);
        assert_eq!(report.cells[1].seed, 2);
        assert!(report.cells.iter().all(|c| c.point == "default"));
    }

    #[test]
    fn parallel_sweep_is_canonically_identical_to_serial() {
        let reg = Registry::standard();
        let sc = reg.get("fig13").unwrap();
        let serial = run_sweep(sc, &tiny(), &[10, 11, 12], 1);
        let parallel = run_sweep(sc, &tiny(), &[10, 11, 12], 3);
        assert_eq!(serial.to_canonical_json(), parallel.to_canonical_json());
        // The canonical rendering is timing-free; the full rendering keeps
        // the telemetry.
        assert!(!serial.to_canonical_json().contains("wall_clock_secs"));
        assert!(serial.to_json().contains("wall_clock_secs"));
    }

    #[test]
    fn every_cell_records_its_wall_clock() {
        let reg = Registry::standard();
        let sc = reg.get("fig13").unwrap();
        let report = run_sweep(sc, &tiny(), &[1, 2], 2);
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(
                cell.wall_clock_secs > 0.0,
                "cell {}/{} has no timing",
                cell.point,
                cell.seed
            );
        }
    }

    #[test]
    fn schedule_order_is_longest_first_with_stable_ties() {
        assert_eq!(schedule_order(&[1.0, 9.0, 1.0, 9.0]), vec![1, 3, 0, 2]);
        assert_eq!(schedule_order(&[]), Vec::<usize>::new());
        assert_eq!(schedule_order(&[2.0]), vec![0]);
    }

    #[test]
    fn dominant_cells_of_the_fig05_sweep_are_claimed_first() {
        // fig05 sweeps the swarm size (20/40/60 nodes); the 60-node cells
        // dominate the wall clock and must be claimed before everything
        // else, or one of them lands last and serialises the tail.
        let reg = Registry::standard();
        let sc = reg.get("fig05").unwrap();
        let seeds = [1u64, 2];
        let cells = enumerate_cells(sc, &seeds);
        let base = CommonOpts::default();
        let costs: Vec<f64> = cells
            .iter()
            .map(|&(pi, _)| estimate_cost(&base, &sc.points[pi]))
            .collect();
        let order = schedule_order(&costs);
        let biggest = sc.points.len() - 1; // points scale upward
        for &i in &order[..seeds.len()] {
            assert_eq!(
                cells[i].0, biggest,
                "a non-dominant cell was scheduled ahead: {order:?}"
            );
        }
    }

    /// Greedy list-scheduling makespan: each cell (in `order`) goes to the
    /// least-loaded worker — the same discipline as the live claim loop,
    /// with cost standing in for wall clock.
    fn simulated_makespan(costs: &[f64], order: &[usize], workers: usize) -> f64 {
        let mut load = vec![0.0f64; workers];
        for &i in order {
            let w = (0..load.len())
                .min_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)))
                .expect("at least one worker");
            load[w] += costs[i];
        }
        load.iter().fold(0.0f64, |m, &l| m.max(l))
    }

    #[test]
    fn longest_first_beats_naive_order_on_a_dominant_cell() {
        // One cell 8× heavier than the rest, two workers. Naive enumeration
        // order starts the heavy cell last: makespan 10 (2 + 8 on one
        // worker). Longest-first starts it immediately: makespan 8, the
        // optimum.
        let costs = [1.0, 1.0, 1.0, 1.0, 1.0, 8.0];
        let naive: Vec<usize> = (0..costs.len()).collect();
        let lpt = schedule_order(&costs);
        let naive_span = simulated_makespan(&costs, &naive, 2);
        let lpt_span = simulated_makespan(&costs, &lpt, 2);
        assert_eq!(naive_span, 10.0);
        assert_eq!(lpt_span, 8.0);
        assert!(lpt_span < naive_span);
    }

    #[test]
    fn run_indexed_preserves_index_order_for_any_thread_count() {
        let serial = run_indexed(9, 1, |i| i * i);
        for threads in [2, 4, 16] {
            assert_eq!(run_indexed(9, threads, |i| i * i), serial);
        }
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn a_panicking_job_panics_the_call_at_any_thread_count() {
        for threads in [1, 3] {
            let outcome = std::panic::catch_unwind(|| {
                run_indexed(9, threads, |i| {
                    assert_ne!(i, 4, "job 4 fails");
                    i
                })
            });
            let panic = outcome.expect_err("the failed job must not be dropped");
            let message = panic.downcast_ref::<String>().expect("assert message");
            assert!(
                message.contains("job 4 fails"),
                "{threads} threads: {message}"
            );
        }
    }

    #[test]
    fn thread_surplus_is_harmless() {
        let reg = Registry::standard();
        let sc = reg.get("fig13").unwrap();
        let report = run_sweep(sc, &tiny(), &[5], 8);
        assert_eq!(report.cells.len(), 1);
    }

    #[test]
    fn warm_prefix_sharing_matches_fresh_runs_bytewise() {
        let reg = Registry::standard();
        let sc = reg.get("fig05w").unwrap();
        let shared = run_sweep_with(sc, &tiny(), &[7], 1, true);
        let fresh = run_sweep_with(sc, &tiny(), &[7], 1, false);
        assert_eq!(shared.to_canonical_json(), fresh.to_canonical_json());
        // One warm-up for the whole seed's group, all three variants forked.
        assert_eq!(shared.prefix_cells, 1);
        assert_eq!(shared.forked_cells, 3);
        assert!(shared.warmup_secs_saved > 0.0);
        // Sharing off runs every cell uninterrupted — nothing shared.
        assert_eq!(fresh.prefix_cells, 0);
        assert_eq!(fresh.forked_cells, 0);
        assert_eq!(fresh.warmup_secs_saved, 0.0);
    }

    #[test]
    fn prefix_telemetry_is_excluded_from_the_canonical_rendering() {
        let reg = Registry::standard();
        let sc = reg.get("fig05w").unwrap();
        let report = run_sweep_with(sc, &tiny(), &[3], 1, true);
        assert!(report.to_json().contains("warmup_secs_saved"));
        assert!(!report.to_canonical_json().contains("warmup_secs_saved"));
        assert!(!report.to_canonical_json().contains("prefix_cells"));
    }

    #[test]
    fn cells_with_different_seeds_do_not_share_a_prefix() {
        // Point-major, seed-minor, with a cell that cannot fork in between:
        // calm / paper / storm of one seed land in one group whatever their
        // label, another seed or node count opens another.
        let reg = Registry::standard();
        let sc = reg.get("fig05w").unwrap();
        let cell = |label, seed, nodes| {
            let opts = CommonOpts {
                seed,
                nodes: Some(nodes),
                ..tiny()
            };
            sc.forkable(&opts, label)
        };
        let forkable = [
            cell("calm", 1, 6),
            cell("calm", 2, 6),
            None,
            cell("paper", 1, 6),
            cell("storm", 2, 6),
            cell("storm", 1, 7),
        ];
        assert!(forkable.iter().flatten().count() == 5);
        let (leaders, group_of) = prefix_groups(&forkable);
        assert_eq!(leaders, vec![0, 1, 5]);
        assert_eq!(
            group_of,
            vec![Some(0), Some(1), None, Some(0), Some(1), Some(2)]
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        let reg = Registry::standard();
        let sc = reg.get("fig13").unwrap();
        run_sweep(sc, &tiny(), &[1], 0);
    }
}
