//! `bullet-lab` — the scenario lab: every experiment of the evaluation grid
//! as a named, sweepable, parallel-executable scenario.
//!
//! The paper's evaluation (§4) is a grid of *scenario × parameter × seed*
//! cells. This crate turns that grid into data and machinery:
//!
//! * [`scenario`] — the [`Scenario`] model: name, title, parameter points
//!   (swept over the one [`SeedPlan`]), and a [`Body`] that *is* what runs —
//!   a workload function plus a presentation (closed system), or a list of
//!   service cells plus a presentation (open system);
//! * [`registry`] — the standard [`Registry`] of scenarios (Figures 4–15 of
//!   the paper plus the beyond-the-paper crash-wave, flash-crowd,
//!   shared-core, scaling, service and probe-driven time-series scenarios);
//! * [`executor`] — the parallel sweep executor: a work-stealing
//!   `std::thread` pool over (point, seed) cells whose merged output is
//!   **byte-identical for any thread count**, because every cell is an
//!   independent deterministic simulation and results merge by cell index.
//!   Cells whose workloads are equal up to dynamics and begin with a quiet
//!   prefix (`fig05w`'s variants) additionally share that prefix: the
//!   executor simulates it once, checkpoints the runner
//!   (`netsim::snapshot`), and forks every cell from the snapshot — same
//!   canonical bytes, less wall clock;
//! * [`cli`] — the `lab` binary (`list` / `run` / `sweep` / `trace`), every
//!   command printing to one writer; `lab run` is the one presentation of a
//!   scenario, open-system ones (fig21/fig22, driven by `netsim::service`'s
//!   generator-admitted swarms; see `docs/SERVICE_MODE.md`) included, and
//!   `lab sweep` checks each cell's figure against the scenario's claims
//!   ([`Scenario::claims`]);
//! * [`trace_cmd`] — the `lab trace` subcommand: a Bullet′ run of any
//!   scenario — a closed scenario's own workload, an open scenario's last
//!   cell — with the structured trace sink and stats probe enabled: per-kind
//!   summary, JSONL export, the probe replay cross-check and the
//!   per-receiver table or service summary (see `docs/OBSERVABILITY.md`).
//!
//! The workload and presentation functions themselves live in
//! `bullet_bench::experiments`; turning a workload into a run is
//! `bullet_bench::workload`'s job and nobody else's.

#![forbid(unsafe_code)]

pub mod cli;
pub mod executor;
pub mod registry;
pub mod scenario;
pub mod trace_cmd;

pub use cli::lab_main;
pub use executor::{run_sweep, run_sweep_with, CellReport, SweepReport};
pub use registry::Registry;
pub use scenario::{Body, ParamPoint, Presentation, Scenario, SeedPlan};
pub use trace_cmd::{check_replay, traced_run, Traced, TracedRun};
