//! Checkpoint/fork support: freeze a live [`Runner`] mid-run and resume any
//! number of independent continuations from the frozen instant.
//!
//! A sweep whose cells share a warm-up prefix — same topology, same join
//! phase, same seed, different dynamics — wastes most of its wall-clock
//! re-simulating that prefix per cell. [`Runner::checkpoint`] captures the
//! complete simulation state as a [`Snapshot`]; [`Runner::resume`] turns a
//! snapshot (or a clone of one) back into a live runner that continues
//! exactly where the original stood. The contract, pinned by
//! `tests/snapshot_fork.rs` for every shipped protocol:
//!
//! > `checkpoint-at-t → resume → run-to-end` yields a
//! > [`RunReport`](crate::RunReport) whose
//! > [`canonical()`](crate::RunReport::canonical) form is **byte-identical**
//! > to the uninterrupted run's.
//!
//! What a snapshot captures is the runner's `RunState` (`runner.rs`): one
//! struct listing everything a run's future depends on, cloned whole. What it
//! deliberately does not: the trace sink (a pure observer — a resumed runner
//! starts untraced) and the dispatch scratch buffer (empty at any quiescent
//! point).
//!
//! Checkpoint at a quiescent instant — between [`Runner::advance_until`]
//! stages — never from inside a protocol hook.
//!
//! A protocol opts in by being [`Clone`] (as are its messages). `Clone` must
//! be a deep copy: a fork shares **no mutable state** with the run it was
//! taken from and behaves identically given identical inputs — the
//! fork-divergence test mutates one fork and asserts the other is unaffected.
//!
//! [`Runner`]: crate::Runner
//! [`Runner::checkpoint`]: crate::Runner::checkpoint
//! [`Runner::resume`]: crate::Runner::resume
//! [`Runner::advance_until`]: crate::Runner::advance_until

pub use crate::runner::Snapshot;
