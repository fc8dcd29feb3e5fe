//! The harness's span recorder.
//!
//! Spans are recorded from the harness's own files, around its calls into
//! each layer; they stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` when the traced pass ends. A span's
//! self time is its duration minus the part its children cover.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's first call — the clock every span uses.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran, e.g. `netsim.topology.build`.
    pub name: String,
    /// Start, nanoseconds on the [`now_ns`] clock.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Which repetition of the workload it belongs to (`dark`, `timed`, …).
    pub rep: String,
    /// For aggregate spans (hook buckets): how many calls were summed into
    /// `end_ns − start_ns`. 0 for an ordinary span.
    pub calls: u64,
}

/// Spans and counts of one traced pass.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    counts: Vec<(String, f64)>,
}

impl Recorder {
    /// Records a finished span and returns its index (a later span's
    /// `parent`).
    pub fn span(
        &mut self,
        name: &str,
        rep: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            rep: rep.to_string(),
            calls: 0,
        });
        self.spans.len() - 1
    }

    /// Records an aggregate child of `parent`: `calls` calls that together
    /// took `nanos`, laid out from the parent's start (the calls are
    /// scattered over the parent, so only the length means anything).
    pub fn aggregate(&mut self, name: &str, parent: usize, calls: u64, nanos: u64) {
        let start_ns = self.spans[parent].start_ns;
        let rep = self.spans[parent].rep.clone();
        let id = self.span(name, &rep, Some(parent), start_ns, start_ns + nanos);
        self.spans[id].calls = calls;
    }

    /// Records a count taken at a layer boundary.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_string(), value));
    }

    /// Times `call` as a top-level span.
    pub fn time<R>(&mut self, name: &str, rep: &str, call: impl FnOnce() -> R) -> (R, f64) {
        let start = now_ns();
        let out = call();
        let end = now_ns();
        self.span(name, rep, None, start, end);
        (out, (end - start) as f64 / 1e9)
    }

    /// Self time of span `id`: its duration minus its children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Renders the pass as JSON: `{"workload", "seed", "spans": [...],
    /// "counts": {...}}`.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out =
            format!("{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
                 \"parent\": {parent}, \"rep\": \"{}\", \"calls\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                s.rep,
                s.calls,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"counts\": {\n");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            out.push_str(&format!(
                "    \"{name}\": {value}{}\n",
                if i + 1 < self.counts.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut rec = Recorder::default();
        let root = rec.span("workload", "dark", None, 100, 1_100);
        let setup = rec.span("setup", "dark", Some(root), 100, 300);
        rec.span("netsim.topology.build", "dark", Some(setup), 100, 250);
        rec.span("run", "dark", Some(root), 300, 1_000);
        assert_eq!(rec.self_ns(root), 1_000 - 200 - 700);
        assert_eq!(rec.self_ns(setup), 50);
    }

    #[test]
    fn aggregates_carry_their_call_count() {
        let mut rec = Recorder::default();
        let run = rec.span("run", "timed", None, 1_000, 9_000);
        rec.aggregate("on_timer", run, 12, 3_000);
        let agg = &rec.spans[1];
        assert_eq!((agg.start_ns, agg.end_ns, agg.calls), (1_000, 4_000, 12));
        assert_eq!(agg.rep, "timed");
        assert_eq!(rec.self_ns(run), 5_000);
        let json = rec.to_json("dyn_mesh", 7);
        assert!(json.contains("\"name\": \"on_timer\""));
        assert!(json.contains("\"calls\": 12"));
    }
}
