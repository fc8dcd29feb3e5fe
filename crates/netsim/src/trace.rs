//! Structured run tracing: a causal, virtual-time-stamped record stream.
//!
//! End-of-run aggregates say *what* happened; a trace says *why*. Every
//! record carries the virtual time and the dense index of the simulator
//! event it was emitted under ([`TraceRecord::seq`]), so records replay in
//! exactly the order the runner processed them — the stream is a total order
//! of the run's observable actions.
//!
//! Tracing is strictly passive: sinks receive shared references to records
//! built from state the runner already computed, no RNG stream is consulted,
//! and no simulator state is touched. A traced run is therefore bit-identical
//! to an untraced run of the same configuration (see `docs/OBSERVABILITY.md`
//! for the overhead contract), and a sink that drops records — e.g. a full
//! [`RingSink`] — cannot perturb the experiment.
//!
//! The JSONL schema is flat: one object per line with `t` (virtual seconds),
//! `seq` (events processed when the record was emitted) and `kind`, plus the
//! kind's own fields. [`replay_goodput`] rebuilds the per-node goodput series
//! of [`crate::StatsProbe`] from nothing but `block_received` and
//! `probe_tick` records — the cross-check `lab trace` runs after every traced
//! experiment.

use std::any::Any;
use std::collections::VecDeque;

use serde::{Serialize, Value};

/// One trace record: virtual time, the dense id of the simulator event it
/// was emitted under, and the event body.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of emission, in seconds.
    pub t: f64,
    /// Number of simulator events processed when the record was emitted —
    /// the dense dispatch id tying the record to its causing event.
    pub seq: u64,
    /// What happened.
    pub ev: TraceEvent,
}

/// The trace vocabulary. Node and flow identities are dense `u32` ids; event
/// keys are the raw [`desim::EventKey`] ids of the runner's simulator. A
/// variant's fields, in declaration order, are its JSONL fields.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// A control message was delivered to a protocol hook.
    Msg {
        /// Sender node id.
        from: u32,
        /// Receiver node id.
        to: u32,
        /// Message type tag (see [`crate::WireSize::kind`]).
        msg: &'static str,
        /// Wire size in bytes.
        bytes: u64,
    },
    /// A protocol timer fired.
    Timer {
        /// The node whose timer fired.
        node: u32,
        /// The timer's `Debug` form, e.g. `Choke`.
        timer: String,
    },
    /// A block finished serialising onto the wire at the sender.
    BlockSent {
        /// Sender node id.
        from: u32,
        /// Receiver node id.
        to: u32,
        /// Block index.
        block: u64,
        /// Block size in bytes.
        bytes: u64,
    },
    /// A block fully arrived and was handed to the receiver's protocol.
    BlockReceived {
        /// Receiver node id.
        node: u32,
        /// Sender node id.
        from: u32,
        /// Block index.
        block: u64,
        /// Block size in bytes.
        bytes: u64,
        /// The receiver's cumulative useful bytes *after* the delivery —
        /// what [`replay_goodput`] differences into goodput.
        useful_bytes: u64,
    },
    /// The fluid model scheduled (or moved) a connection's completion event.
    ConnSchedule {
        /// Dense flow id of the connection.
        fid: u32,
        /// Raw event key of the completion event.
        key: u64,
        /// Scheduled completion instant, in virtual seconds.
        at: f64,
    },
    /// The fluid model cancelled a connection's completion event.
    ConnCancel {
        /// Dense flow id of the connection.
        fid: u32,
        /// Raw event key of the cancelled event.
        key: u64,
    },
    /// Fluid-solver activity attributed to the current event: counter deltas
    /// against the previous event (see [`crate::network::SolverStats`]).
    Solver {
        /// Full component re-solves this event triggered.
        full_solves: u64,
        /// O(1) fast-path admissions.
        fast_admit: u64,
        /// O(1) fast-path removals.
        fast_remove: u64,
        /// O(1) non-binding ceiling growths.
        fast_growth: u64,
        /// Flows in the final components of this event's full solves.
        comp_flows: u64,
        /// Links in the final components of this event's full solves.
        comp_links: u64,
    },
    /// A node joined the experiment.
    NodeJoin {
        /// The joining node.
        node: u32,
    },
    /// A node left gracefully.
    NodeLeave {
        /// The leaving node.
        node: u32,
    },
    /// A node crashed.
    NodeCrash {
        /// The crashed node.
        node: u32,
    },
    /// A node was retired by the service layer after its swarm completed.
    /// If a new cohort later takes the slot over, its `node_join` record
    /// restarts the slot's useful-byte counter (see [`replay_goodput`]).
    NodeRetire {
        /// The retired node.
        node: u32,
    },
    /// A scheduled link-change batch took effect.
    LinkChange {
        /// The batch's place in the order the runner was handed its batches
        /// (`Runner::schedule_link_change`), from 0.
        index: u64,
    },
    /// A cross-traffic occupancy change took effect.
    CrossChange {
        /// Source endpoint of the affected path.
        from: u32,
        /// Destination endpoint of the affected path.
        to: u32,
        /// New occupancy in bytes/second.
        rate: f64,
    },
    /// The probes sampled every node.
    ProbeTick,
    /// The run was resumed from a [`Snapshot`](crate::Snapshot) taken at
    /// virtual time `at`: everything before this instant happened in the
    /// checkpointed prefix and is absent from this stream. Always the first
    /// record of a resumed runner's trace — consumers that rebuild state
    /// from stream prefixes (e.g. [`replay_goodput`]) must reject streams
    /// carrying it, because the per-node baselines live in the missing
    /// prefix.
    SnapshotResume {
        /// Virtual time of the checkpoint the run resumed from, in seconds.
        at: f64,
    },
}

impl TraceEvent {
    /// Every [`TraceEvent::kind`], in declaration order.
    pub const KINDS: [&'static str; 15] = [
        "msg",
        "timer",
        "block_sent",
        "block_received",
        "conn_schedule",
        "conn_cancel",
        "solver",
        "node_join",
        "node_leave",
        "node_crash",
        "node_retire",
        "link_change",
        "cross_change",
        "probe_tick",
        "snapshot_resume",
    ];

    /// The record's `kind` tag — stable names, used by the JSONL schema and
    /// the summarize/filter analyzer.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Msg { .. } => "msg",
            TraceEvent::Timer { .. } => "timer",
            TraceEvent::BlockSent { .. } => "block_sent",
            TraceEvent::BlockReceived { .. } => "block_received",
            TraceEvent::ConnSchedule { .. } => "conn_schedule",
            TraceEvent::ConnCancel { .. } => "conn_cancel",
            TraceEvent::Solver { .. } => "solver",
            TraceEvent::NodeJoin { .. } => "node_join",
            TraceEvent::NodeLeave { .. } => "node_leave",
            TraceEvent::NodeCrash { .. } => "node_crash",
            TraceEvent::NodeRetire { .. } => "node_retire",
            TraceEvent::LinkChange { .. } => "link_change",
            TraceEvent::CrossChange { .. } => "cross_change",
            TraceEvent::ProbeTick => "probe_tick",
            TraceEvent::SnapshotResume { .. } => "snapshot_resume",
        }
    }
}

impl Serialize for TraceRecord {
    /// The flat schema: `t`, `seq`, `kind`, then the fields of the derived
    /// `{"Variant": {…}}` object. A unit variant derives to a bare string and
    /// has no fields.
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("t".to_string(), Value::Float(self.t)),
            ("seq".to_string(), Value::UInt(self.seq)),
            ("kind".to_string(), Value::Str(self.ev.kind().to_string())),
        ];
        if let Value::Object(mut variant) = self.ev.to_value() {
            if let Some((_, Value::Object(own))) = variant.pop() {
                fields.extend(own);
            }
        }
        Value::Object(fields)
    }
}

/// Where trace records go. Object-safe so the runner can hold any sink
/// behind one pointer; implementations must treat `record` as append-only
/// observation (dropping a record is fine, feeding anything back is not).
/// `Any`, so whoever installed a sink can have it back as what it is (see
/// [`crate::Runner::take_trace_sink`]).
pub trait TraceSink: Any {
    /// Offers one record to the sink. The sink may keep it or drop it.
    fn record(&mut self, rec: &TraceRecord);

    /// Number of records the sink accepted.
    fn recorded(&self) -> u64;

    /// Number of records the sink dropped (offered but not kept).
    fn dropped(&self) -> u64 {
        0
    }
}

/// A bounded in-memory sink: keeps the most recent `capacity` records,
/// dropping the oldest on overflow (and counting the drops). The cheap
/// default for `lab trace` summaries and post-mortem forensics on truncated
/// runs.
#[derive(Debug)]
pub struct RingSink {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` records. The capacity is a
    /// cap, not a reservation: the ring starts empty and grows with the
    /// records it retains.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            buf: VecDeque::new(),
            capacity,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Consumes the ring, returning the retained records oldest-first.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.buf.into()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, rec: &TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec.clone());
        self.recorded += 1;
    }

    fn recorded(&self) -> u64 {
        self.recorded
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A sink that counts records without retaining them — the cheapest way to
/// measure tracing overhead or surface the per-run record count.
#[derive(Debug, Default)]
pub struct CountingSink {
    recorded: u64,
}

impl CountingSink {
    /// Creates the sink.
    pub fn new() -> Self {
        CountingSink::default()
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _rec: &TraceRecord) {
        self.recorded += 1;
    }

    fn recorded(&self) -> u64 {
        self.recorded
    }
}

/// Per-kind record counts plus stream extent — the `lab trace` summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// `(kind, count)` pairs, sorted by kind name.
    pub by_kind: Vec<(&'static str, u64)>,
    /// Virtual time of the first record, if any.
    pub first_t: Option<f64>,
    /// Virtual time of the last record, if any.
    pub last_t: Option<f64>,
}

/// Summarizes a record stream: counts per kind and time extent.
pub fn summarize<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> TraceSummary {
    let mut summary = TraceSummary::default();
    for rec in records {
        if summary.first_t.is_none() {
            summary.first_t = Some(rec.t);
        }
        summary.last_t = Some(rec.t);
        let kind = rec.ev.kind();
        match summary.by_kind.binary_search_by(|(k, _)| k.cmp(&kind)) {
            Ok(i) => summary.by_kind[i].1 += 1,
            Err(i) => summary.by_kind.insert(i, (kind, 1)),
        }
    }
    summary
}

/// One replayed sample: the tick instant and each node's goodput in bits
/// per second, derived purely from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySample {
    /// Virtual time of the probe tick, in seconds.
    pub time_secs: f64,
    /// Per-node goodput over the elapsed tick, bits/second, indexed by node.
    pub goodput_bps: Vec<f64>,
}

/// Rebuilds the [`crate::StatsProbe`] per-node goodput series from a trace:
/// `block_received` records carry each node's cumulative useful bytes, and
/// `probe_tick` records mark the sampling instants in exact stream order, so
/// differencing reproduces the probe's arithmetic — including the
/// ties-count-into-the-next-interval semantics, because a delivery landing
/// exactly on a tick appears *after* the tick in the stream iff the probe
/// counted it in the next interval. `node_join` records zero a slot's
/// cumulative count, mirroring the live probe's baseline reset
/// (`Runner::replace_node`) when a service run re-populates a retired slot
/// with a fresh node.
///
/// # Errors
///
/// A stream carrying a `snapshot_resume` record is rejected: it starts at a
/// checkpoint, so the per-node cumulative baselines (and the `node_join`
/// prelude) live in the missing prefix and every differenced goodput after
/// the first tick would silently be wrong. Replay the uninterrupted run, or
/// trace from the start.
pub fn replay_goodput<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
    nodes: usize,
) -> Result<Vec<ReplaySample>, String> {
    let mut useful = vec![0u64; nodes];
    let mut prev = vec![0u64; nodes];
    let mut prev_t = 0.0f64;
    let mut out = Vec::new();
    for rec in records {
        match rec.ev {
            TraceEvent::SnapshotResume { at } => {
                return Err(format!(
                    "stream resumes from a snapshot at t={at}: the pre-resume \
                     baselines are not in the trace, goodput cannot be replayed"
                ));
            }
            TraceEvent::BlockReceived {
                node, useful_bytes, ..
            } => {
                if let Some(slot) = useful.get_mut(node as usize) {
                    *slot = useful_bytes;
                }
            }
            TraceEvent::NodeJoin { node } => {
                // A joining node's useful-byte counter starts from zero. For
                // churn joiners this is a no-op (the slot never received
                // anything); for a service-mode slot taken over by a new
                // cohort it discards the previous occupant's final count,
                // exactly like `Runner::replace_node`'s probe reset. A slot
                // that retires and is never re-filled keeps its counter, so
                // its tail bytes still land in the retirement interval.
                if let Some(slot) = useful.get_mut(node as usize) {
                    *slot = 0;
                }
                if let Some(slot) = prev.get_mut(node as usize) {
                    *slot = 0;
                }
            }
            TraceEvent::ProbeTick => {
                let dt = rec.t - prev_t;
                let goodput = useful
                    .iter()
                    .zip(prev.iter())
                    .map(|(&now, &before)| {
                        if dt > 0.0 {
                            now.saturating_sub(before) as f64 * 8.0 / dt
                        } else {
                            0.0
                        }
                    })
                    .collect();
                prev.copy_from_slice(&useful);
                prev_t = rec.t;
                out.push(ReplaySample {
                    time_secs: rec.t,
                    goodput_bps: goodput,
                });
            }
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord { t, seq, ev }
    }

    #[test]
    fn kinds_lists_every_variant_once_in_declaration_order() {
        #[rustfmt::skip]
        let one_of_each = [
            TraceEvent::Msg { from: 0, to: 1, msg: "m", bytes: 0 },
            TraceEvent::Timer { node: 0, timer: String::new() },
            TraceEvent::BlockSent { from: 0, to: 1, block: 0, bytes: 0 },
            TraceEvent::BlockReceived { node: 1, from: 0, block: 0, bytes: 0, useful_bytes: 0 },
            TraceEvent::ConnSchedule { fid: 0, key: 0, at: 0.0 },
            TraceEvent::ConnCancel { fid: 0, key: 0 },
            TraceEvent::Solver {
                full_solves: 0, fast_admit: 0, fast_remove: 0, fast_growth: 0,
                comp_flows: 0, comp_links: 0,
            },
            TraceEvent::NodeJoin { node: 0 },
            TraceEvent::NodeLeave { node: 0 },
            TraceEvent::NodeCrash { node: 0 },
            TraceEvent::NodeRetire { node: 0 },
            TraceEvent::LinkChange { index: 0 },
            TraceEvent::CrossChange { from: 0, to: 1, rate: 0.0 },
            TraceEvent::ProbeTick,
            TraceEvent::SnapshotResume { at: 0.0 },
        ];
        // A new variant breaks this match, which points at the array above
        // and at `KINDS`.
        for ev in &one_of_each {
            match ev {
                TraceEvent::Msg { .. }
                | TraceEvent::Timer { .. }
                | TraceEvent::BlockSent { .. }
                | TraceEvent::BlockReceived { .. }
                | TraceEvent::ConnSchedule { .. }
                | TraceEvent::ConnCancel { .. }
                | TraceEvent::Solver { .. }
                | TraceEvent::NodeJoin { .. }
                | TraceEvent::NodeLeave { .. }
                | TraceEvent::NodeCrash { .. }
                | TraceEvent::NodeRetire { .. }
                | TraceEvent::LinkChange { .. }
                | TraceEvent::CrossChange { .. }
                | TraceEvent::ProbeTick
                | TraceEvent::SnapshotResume { .. } => {}
            }
        }
        let kinds: Vec<&str> = one_of_each.iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds, TraceEvent::KINDS);
    }

    #[test]
    fn ring_keeps_the_most_recent_records_and_counts_drops() {
        let mut ring = RingSink::new(2);
        for seq in 0..5 {
            ring.record(&rec(seq as f64, seq, TraceEvent::ProbeTick));
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<u64> = ring.into_records().iter().map(|r| r.seq).collect();
        assert_eq!(kept, vec![3, 4]);

        // The capacity is a cap, not a reservation.
        let mut ring = RingSink::new(usize::MAX);
        for seq in 0..5 {
            ring.record(&rec(seq as f64, seq, TraceEvent::ProbeTick));
        }
        assert_eq!((ring.recorded(), ring.dropped()), (5, 0));
        assert_eq!(ring.into_records().len(), 5);
    }

    #[test]
    fn jsonl_lines_follow_the_flat_schema() {
        #[rustfmt::skip]
        let lines = [
            (TraceEvent::Msg { from: 0, to: 3, msg: "diff", bytes: 64 },
             r#"{"t":1.5,"seq":42,"kind":"msg","from":0,"to":3,"msg":"diff","bytes":64}"#),
            (TraceEvent::Timer { node: 2, timer: "Choke".to_string() },
             r#"{"t":1.5,"seq":42,"kind":"timer","node":2,"timer":"Choke"}"#),
            (TraceEvent::BlockSent { from: 1, to: 4, block: 9, bytes: 16384 },
             r#"{"t":1.5,"seq":42,"kind":"block_sent","from":1,"to":4,"block":9,"bytes":16384}"#),
            (TraceEvent::BlockReceived { node: 4, from: 1, block: 9, bytes: 16384, useful_bytes: 32768 },
             r#"{"t":1.5,"seq":42,"kind":"block_received","node":4,"from":1,"block":9,"bytes":16384,"useful_bytes":32768}"#),
            (TraceEvent::ConnSchedule { fid: 5, key: 11, at: 2.25 },
             r#"{"t":1.5,"seq":42,"kind":"conn_schedule","fid":5,"key":11,"at":2.25}"#),
            (TraceEvent::ConnCancel { fid: 5, key: 11 },
             r#"{"t":1.5,"seq":42,"kind":"conn_cancel","fid":5,"key":11}"#),
            (TraceEvent::Solver {
                full_solves: 1, fast_admit: 2, fast_remove: 3, fast_growth: 4,
                comp_flows: 5, comp_links: 6,
            },
             r#"{"t":1.5,"seq":42,"kind":"solver","full_solves":1,"fast_admit":2,"fast_remove":3,"fast_growth":4,"comp_flows":5,"comp_links":6}"#),
            (TraceEvent::NodeJoin { node: 6 },
             r#"{"t":1.5,"seq":42,"kind":"node_join","node":6}"#),
            (TraceEvent::NodeLeave { node: 6 },
             r#"{"t":1.5,"seq":42,"kind":"node_leave","node":6}"#),
            (TraceEvent::NodeCrash { node: 6 },
             r#"{"t":1.5,"seq":42,"kind":"node_crash","node":6}"#),
            (TraceEvent::NodeRetire { node: 6 },
             r#"{"t":1.5,"seq":42,"kind":"node_retire","node":6}"#),
            (TraceEvent::LinkChange { index: 3 },
             r#"{"t":1.5,"seq":42,"kind":"link_change","index":3}"#),
            (TraceEvent::CrossChange { from: 0, to: 1, rate: 1e5 },
             r#"{"t":1.5,"seq":42,"kind":"cross_change","from":0,"to":1,"rate":100000.0}"#),
            (TraceEvent::ProbeTick,
             r#"{"t":1.5,"seq":42,"kind":"probe_tick"}"#),
            (TraceEvent::SnapshotResume { at: 12.5 },
             r#"{"t":1.5,"seq":42,"kind":"snapshot_resume","at":12.5}"#),
        ];
        let kinds: Vec<&str> = lines.iter().map(|(ev, _)| ev.kind()).collect();
        assert_eq!(kinds, TraceEvent::KINDS, "one line per kind");
        for (ev, line) in lines {
            assert_eq!(serde_json::to_string(&rec(1.5, 42, ev)).unwrap(), line);
        }
    }

    #[test]
    fn summary_counts_by_kind_sorted() {
        let records = vec![
            rec(0.0, 0, TraceEvent::ProbeTick),
            rec(
                1.0,
                5,
                TraceEvent::Timer {
                    node: 1,
                    timer: "Beat".to_string(),
                },
            ),
            rec(2.0, 9, TraceEvent::ProbeTick),
        ];
        let s = summarize(&records);
        assert_eq!(s.by_kind, vec![("probe_tick", 2), ("timer", 1)]);
        assert_eq!((s.first_t, s.last_t), (Some(0.0), Some(2.0)));
    }

    #[test]
    fn replay_differences_useful_bytes_between_ticks() {
        let recv = |t, seq, node, useful| {
            rec(
                t,
                seq,
                TraceEvent::BlockReceived {
                    node,
                    from: 0,
                    block: 0,
                    bytes: 0,
                    useful_bytes: useful,
                },
            )
        };
        let records = vec![
            rec(0.0, 0, TraceEvent::ProbeTick),
            recv(0.5, 1, 1, 1000),
            // Lands exactly on the tick but *after* it in the stream: counts
            // into the next interval, exactly like the live probe.
            rec(1.0, 2, TraceEvent::ProbeTick),
            recv(1.0, 3, 1, 3000),
            rec(2.0, 4, TraceEvent::ProbeTick),
        ];
        let samples = replay_goodput(&records, 2).unwrap();
        assert_eq!(samples.len(), 3);
        // First sample at t = 0: no elapsed time, goodput 0.
        assert_eq!(samples[0].goodput_bps, vec![0.0, 0.0]);
        assert_eq!(samples[1].goodput_bps, vec![0.0, 8000.0]);
        assert_eq!(samples[2].goodput_bps, vec![0.0, 16000.0]);
    }

    #[test]
    fn replay_rejects_streams_that_resume_from_a_snapshot() {
        let records = vec![
            rec(12.5, 100, TraceEvent::SnapshotResume { at: 12.5 }),
            rec(13.0, 101, TraceEvent::ProbeTick),
        ];
        let err = replay_goodput(&records, 2).unwrap_err();
        assert!(
            err.contains("t=12.5"),
            "error names the resume point: {err}"
        );
        // The marker serializes like any other record.
        assert_eq!(records[0].ev.kind(), "snapshot_resume");
        assert_eq!(
            serde_json::to_string(&records[0]).unwrap(),
            r#"{"t":12.5,"seq":100,"kind":"snapshot_resume","at":12.5}"#
        );
    }
}
