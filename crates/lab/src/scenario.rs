//! The scenario model.
//!
//! A [`Scenario`] names one cell family of the paper's evaluation grid and
//! carries what it runs as its [`Body`]: a closed-system scenario is a
//! function from the options (and the sweep point's label) to a
//! [`Workload`] value plus a presentation of runs of that workload; an
//! open-system scenario is a list of labelled [`ServiceWorkload`] cells plus
//! their presentation. Everything the lab does with a scenario — `lab list`'s
//! tags, what `lab trace` traces, the service runs `lab run` summarises, which
//! sweep cells can fork one warm-up — is read from the body, so no command can
//! run a different workload than `lab run` does. A scenario's claims — what its
//! figure must show — are checked on the figure alone, by the one function
//! [`Scenario::claims`] calls. The functions themselves live in
//! `bullet_bench::experiments`; a scenario's parameter points are data here,
//! and every scenario sweeps them over the one [`SeedPlan::default`].

use bullet_bench::experiments::{Claim, ClaimsFn, ServiceFigureFn, WorkloadFn};
use bullet_bench::opts::EXPERIMENT_SEED;
use bullet_bench::{CommonOpts, Figure, ServiceWorkload, WarmPrefix, Workload};
use netsim::{RunReport, ServiceReport};

/// How a closed scenario turns its workload into a figure.
#[derive(Clone, Copy)]
pub enum Presentation {
    /// The figure runs the workload itself, as often and in as many
    /// configurations or derived variants as it compares.
    Study(fn(&Workload, &CommonOpts) -> Figure),
    /// The figure renders one default-configuration Bullet′ run. Whoever
    /// holds the scenario supplies that run — which lets the sweep executor
    /// fork it from a warm prefix shared with other cells instead of
    /// simulating it from t = 0.
    Run(fn(&Workload, &RunReport) -> Figure),
}

/// What a scenario runs. Function pointers and nothing else: building a
/// registry evaluates no workload.
#[derive(Clone, Copy)]
pub enum Body {
    /// A closed system: one swarm (or several concurrent ones) started at
    /// t = 0 and run to completion.
    Closed {
        /// The workload at a sweep point.
        workload: WorkloadFn,
        /// Its presentation.
        figure: Presentation,
    },
    /// An open system: independent service runs.
    Open {
        /// The labelled cells.
        cells: fn(&CommonOpts) -> Vec<(String, ServiceWorkload)>,
        /// Presents the cells' reports, one per cell in cell order. As with
        /// [`Presentation::Run`], whoever holds the scenario supplies them.
        figure: ServiceFigureFn,
    },
}

/// One point of a parameter sweep: a label, which the scenario's workload
/// function reads, and the swarm size if the point overrides it.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamPoint {
    /// Label identifying the point in reports ("default", "80-nodes", …).
    pub label: &'static str,
    /// Override for the node count; `None` leaves the base value untouched.
    pub nodes: Option<usize>,
}

impl ParamPoint {
    /// A point that only names a variant ("default": the identity point):
    /// base options as-is.
    pub fn named(label: &'static str) -> Self {
        ParamPoint { label, nodes: None }
    }

    /// Applies the override to a copy of `base`.
    pub fn apply(&self, base: &CommonOpts) -> CommonOpts {
        CommonOpts {
            nodes: self.nodes.or(base.nodes),
            ..base.clone()
        }
    }
}

/// The seed plan of a sweep: `count` consecutive seeds from `base`, which
/// `lab sweep` takes from `--seed-count` and `--seed`; there is no other way
/// to name a sweep's seeds.
///
/// Consecutive seeds are fine because every run derives its actual RNG
/// streams by hashing the seed with per-purpose labels (see
/// `desim::RngFactory`), so adjacent experiment seeds share no streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPlan {
    /// First experiment seed.
    pub base: u64,
    /// Number of seeds.
    pub count: usize,
}

impl SeedPlan {
    /// Materialises the seeds in order.
    ///
    /// # Errors
    ///
    /// Returns an error if the plan runs past `u64::MAX` or its seeds do not
    /// fit in memory.
    pub fn seeds(&self) -> Result<Vec<u64>, String> {
        let span = self.count.saturating_sub(1) as u64;
        if self.base.checked_add(span).is_none() {
            return Err(format!(
                "{} seeds from {} run past the last seed, {}",
                self.count,
                self.base,
                u64::MAX
            ));
        }
        let mut seeds = Vec::new();
        seeds
            .try_reserve_exact(self.count)
            .map_err(|e| format!("{} seeds do not fit in memory: {e}", self.count))?;
        seeds.extend((0..self.count as u64).map(|i| self.base + i));
        Ok(seeds)
    }
}

impl Default for SeedPlan {
    /// The plan every scenario's sweep runs unless `--seed` or
    /// `--seed-count` say otherwise: the experiment seed, 4 repetitions.
    fn default() -> Self {
        SeedPlan {
            base: EXPERIMENT_SEED,
            count: 4,
        }
    }
}

/// A named, runnable experiment scenario.
pub struct Scenario {
    /// Unique registry name (`fig04` … `fig22`, `fig05ts`, …).
    pub name: &'static str,
    /// One-line description shown by `lab list`.
    pub title: &'static str,
    /// The parameter points `lab sweep` runs (at least one).
    pub points: Vec<ParamPoint>,
    /// What runs.
    pub body: Body,
    /// What its figure must show.
    claims: ClaimsFn,
}

impl Scenario {
    /// Creates a scenario with the single identity point `default`.
    pub fn new(name: &'static str, title: &'static str, body: Body) -> Self {
        Scenario {
            name,
            title,
            points: vec![ParamPoint::named("default")],
            body,
            claims: |_| Vec::new(),
        }
    }

    /// Replaces the single identity point (builder style).
    #[must_use]
    pub fn with_points(mut self, points: impl Iterator<Item = ParamPoint>) -> Self {
        self.points = points.collect();
        self
    }

    /// Sets the claims its figure must show (builder style); a scenario has
    /// none by default.
    #[must_use]
    pub fn with_claims(mut self, claims: ClaimsFn) -> Self {
        self.claims = claims;
        self
    }

    /// The verdict on each of the scenario's claims about `figure`, one of
    /// its figures.
    pub fn claims(&self, figure: &Figure) -> Vec<Claim> {
        (self.claims)(figure)
    }

    /// Runs the scenario once with the given options, at its default point.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's workload refuses `opts`
    /// ([`Scenario::figure`] returns that as an error).
    pub fn run(&self, opts: &CommonOpts) -> Figure {
        self.figure(opts, "default", None)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }

    /// The figure of the sweep point `label`. With `fork`, the Bullet′ run of
    /// a [forkable](Scenario::forkable) point is continued from that warm
    /// prefix — one the point's workload
    /// [shares](Workload::shares_prefix_with) — instead of simulated from
    /// t = 0; the figure is the same bytes either way.
    ///
    /// # Errors
    ///
    /// Returns an error if the scenario's workload does not know `label` or
    /// refuses `opts`.
    pub fn figure(
        &self,
        opts: &CommonOpts,
        label: &str,
        fork: Option<&WarmPrefix>,
    ) -> Result<Figure, String> {
        Ok(match self.body {
            Body::Closed { workload, figure } => {
                let w = workload(opts, label)?;
                match figure {
                    Presentation::Study(figure) => figure(&w, opts),
                    Presentation::Run(figure) => figure(
                        &w,
                        &fork.map_or_else(|| w.report(), |prefix| w.fork(prefix)),
                    ),
                }
            }
            Body::Open { cells, figure } => {
                let cells = cells(opts);
                figure(&cells, &run_cells(&cells))
            }
        })
    }

    /// The workload of the sweep point `label`, if the point's figure is one
    /// Bullet′ run that begins with a quiet prefix — a run that can be forked
    /// from a checkpoint of that prefix ([`Workload::prefix`]).
    pub fn forkable(&self, opts: &CommonOpts, label: &str) -> Option<Workload> {
        match self.body {
            Body::Closed {
                workload,
                figure: Presentation::Run(_),
            } => workload(opts, label)
                .ok()
                .filter(|w| w.dynamics.quiet() > 0.0),
            _ => None,
        }
    }

    /// The topology and dynamics tags `lab list` prints, read off the body
    /// at default options (which simulates nothing).
    pub fn tags(&self) -> (&'static str, &'static str) {
        match self.body {
            Body::Closed { workload, .. } => {
                let w = workload(&CommonOpts::default(), "default")
                    .expect("every scenario defines its default point");
                (w.topology.tag(), w.dynamics.tag())
            }
            Body::Open { .. } => ("shared-core", "open-arrivals"),
        }
    }

    /// The options of one sweep cell: `point` overrides applied to `base`,
    /// then the cell's seed.
    pub fn cell_opts(&self, base: &CommonOpts, point: &ParamPoint, seed: u64) -> CommonOpts {
        let mut opts = point.apply(base);
        opts.seed = seed;
        opts
    }
}

/// Runs an open scenario's cells to their horizons, in cell order.
pub fn run_cells(cells: &[(String, ServiceWorkload)]) -> Vec<ServiceReport> {
    cells.iter().map(|(_, cell)| cell.run()).collect()
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn a_closed_scenario_has_no_cells() {
        let registry = Registry::standard();
        let open = |sc: &&Scenario| matches!(sc.body, Body::Open { .. });
        let names: Vec<_> = registry.iter().filter(open).map(|sc| sc.name).collect();
        assert_eq!(names, ["fig21", "fig22"]);
    }

    /// What `lab run fig22` presents is the run of fig22's own cell.
    #[test]
    fn an_open_scenarios_figure_is_handed_its_cells_runs() {
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
        assert_eq!(handed.title, cells(&opts)[0].1.run().canonical());
    }

    #[test]
    fn param_point_overrides_only_what_it_names() {
        let base = CommonOpts {
            nodes: Some(10),
            time_limit: 600.0,
            ..CommonOpts::default()
        };
        let point = ParamPoint {
            label: "big",
            nodes: Some(40),
        };
        let opts = point.apply(&base);
        assert_eq!(opts.nodes, Some(40));
        assert_eq!(opts.time_limit, 600.0);
        assert_eq!(opts.file_mb, None);
        // The identity point changes nothing.
        let same = ParamPoint::named("default").apply(&base);
        assert_eq!(same.nodes, base.nodes);
    }

    #[test]
    fn seed_plan_yields_consecutive_seeds() {
        let plan = SeedPlan { base: 7, count: 3 };
        assert_eq!(plan.seeds(), Ok(vec![7, 8, 9]));
        assert_eq!(SeedPlan::default().seeds().map(|s| s.len()), Ok(4));
        let last = SeedPlan {
            base: u64::MAX - 1,
            count: 2,
        };
        assert_eq!(last.seeds(), Ok(vec![u64::MAX - 1, u64::MAX]));
        let wraps = SeedPlan { count: 3, ..last };
        assert!(wraps.seeds().unwrap_err().contains("run past"));
    }

    #[test]
    fn cell_opts_applies_point_then_seed() {
        let sc = Scenario::new(
            "t",
            "test",
            Body::Closed {
                workload: bullet_bench::experiments::fig04_workload,
                figure: Presentation::Study(|_, _| Figure::new("t", "test")),
            },
        );
        let base = CommonOpts::default();
        let point = ParamPoint {
            label: "p",
            nodes: Some(12),
        };
        let opts = sc.cell_opts(&base, &point, 99);
        assert_eq!(opts.nodes, Some(12));
        assert_eq!(opts.seed, 99);
    }
}
