//! `bullet-bench` — the experiment harness that regenerates every figure of
//! the paper's evaluation.
//!
//! * [`workload`] — the value a scenario *is* ([`Workload`] /
//!   [`ServiceWorkload`]: topology, nodes, file, dynamics, probe tick, limit,
//!   seed) and the one place that turns it into a run: topology
//!   construction, the four systems' builders, dynamics scheduling, probes,
//!   warm-prefix checkpoints and completion times all live there;
//! * [`experiments`] — per scenario, a function from the options to its
//!   workload, a presentation function from runs of that workload to a
//!   [`Figure`] and, for fig04, fig05, fig15, fig18 and fig20, the claims
//!   that figure must bear out (4–15 from the paper, plus the
//!   beyond-the-paper scenarios: 16/17 crash-churn and flash-crowd, 5ts the
//!   probe-driven bandwidth-over-time view of the dynamic scenario, 18 two
//!   meshes sharing one core bottleneck, 19 cross traffic vs Bullet′
//!   adaptivity, 20 the scaling trajectory, 21/22 the open-system service
//!   mode — see `docs/SERVICE_MODE.md`). `docs/EXPERIMENTS.md` is the
//!   book mapping every scenario to its paper section, sweep and expected
//!   result;
//! * [`warmup`] — the `fig05w` family, whose variants share a quiet prefix
//!   the sweep executor simulates once and forks;
//! * [`systems`] — the four compared systems by name and the paper's two
//!   bandwidth-change schedules;
//! * [`cdf`] — series/figure data structures, CDFs, summary statistics;
//! * [`opts`] — the shared figure options (`--nodes`, `--mb`, `--seed`, …);
//! * [`bounds`] — the analytic models: Fig 4's reference curves and Fig 15's
//!   parallel-rsync contention model;
//! * [`alloc_track`] — the counting global allocator behind the allocation
//!   counts and peak-heap-bytes figures of the `benchmark/` harness.
//!
//! Figures are run through the `bullet_lab` crate's scenario registry (`lab
//! run <name>`, and `lab sweep <name>`, which also checks each figure's
//! claims); performance is recorded by `benchmark/`, which also times the
//! layers. This crate ships no binaries.

pub mod alloc_track;
pub mod bounds;
pub mod cdf;
pub mod experiments;
pub mod opts;
pub mod systems;
pub mod warmup;
pub mod workload;

pub use cdf::{improvement_at, Figure, Series};
pub use opts::CommonOpts;
pub use systems::SystemKind;
pub use workload::{Dynamics, ServiceWorkload, SystemRun, TopologyKind, WarmPrefix, Workload};
