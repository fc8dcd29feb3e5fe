//! `bullet-repro` — a full reproduction of *Maintaining High Bandwidth under
//! Dynamic Network Conditions* (Kostić et al., USENIX ATC 2005), the Bullet′
//! paper, as a Rust workspace.
//!
//! This umbrella crate re-exports every workspace member so examples,
//! integration tests and downstream users can reach the whole system through
//! one dependency:
//!
//! * [`bullet_prime`] — the Bullet′ protocol (the paper's contribution);
//! * [`baselines`] — BitTorrent, original Bullet and SplitStream;
//! * [`netsim`] — the ModelNet-equivalent network emulator;
//! * [`overlay`] — the control tree and RanSub;
//! * [`dissem_codec`] — blocks, bitmaps and availability diffs;
//! * [`desim`] — the deterministic discrete-event engine;
//! * [`bullet_bench`] — workloads and the presentations of every registry
//!   scenario (the paper's Figures 4–15 and the beyond-the-paper fig16–fig22),
//!   with Fig 15's parallel-rsync model among the analytic bounds;
//! * [`bullet_lab`] — the scenario lab: registry, parallel sweep executor
//!   and the `lab` CLI.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the measured reproduction of every figure.

#![forbid(unsafe_code)]

pub use baselines;
pub use bullet_bench;
pub use bullet_lab;
pub use bullet_prime;
pub use desim;
pub use dissem_codec;
pub use netsim;
pub use overlay;
