//! What the benchmark declares: its workloads, its end-to-end metrics with
//! their bounds, and its per-layer metrics with the end-to-end metric and
//! workloads each is expected to move. `/BENCHMARK.json` is rendered from
//! these tables (`emubench manifest`) and a self-test keeps the two equal.

/// The simulation seed a run uses when `--seed` is not given, and the seed
/// `golden.json` was recorded at (the workspace's fixed experiment seed).
pub const DEFAULT_SEED: u64 = 20050410;

/// How long one machine-readable run measures, in seconds.
pub const RUN_SECONDS: u32 = 15;

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Why it is in the benchmark (one line; lands in `BENCHMARK.json`).
    pub why: &'static str,
    /// Host seconds one pass takes on the reference host; sizes the number
    /// of passes a run makes for `--seconds`.
    pub ref_pass_secs: f64,
    /// Threads a pass keeps busy where the host has them.
    pub workers: usize,
}

/// The five workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "dyn_mesh",
        why: "Bullet' on a 60-node lossy mesh under the paper's bandwidth-change schedule: the fluid solver \
              re-solves one ~450-flow component thousands of times and bitmaps are large (k = 1280)",
        ref_pass_secs: 1.30,
        workers: 1,
    },
    Workload {
        name: "swarm_scale",
        why: "Bullet' on a 500-node uniform swarm, join-only: solver fast paths take nearly every reprice, so \
              protocol hooks, RanSub and the event queue dominate; a solver change must show nothing here",
        ref_pass_secs: 0.36,
        workers: 1,
    },
    Workload {
        name: "service_knee",
        why: "open system: a swarm arrives every 10 virtual s into a 4-segment pool over one shared core, the \
              load at which the pool is about to saturate; only workload that runs admission, reaping and retire",
        ref_pass_secs: 0.80,
        workers: 1,
    },
    Workload {
        name: "systems4",
        why: "Bullet', Bullet, BitTorrent and SplitStream in turn on one static mesh: only workload that runs \
              the baselines, whose choke/unchoke cancels and stripe pushes drive the emulator differently",
        ref_pass_secs: 0.85,
        workers: 1,
    },
    Workload {
        name: "lab_sweep",
        why: "a 9-cell lab sweep (3 dynamics variants x 3 seeds) on 2 workers with warm-up sharing: what a lab \
              user waits for; only workload that runs the executor, snapshots and prefix forking",
        ref_pass_secs: 0.95,
        workers: 2,
    },
];

impl Workload {
    /// Threads a pass of this workload keeps busy: its workers, never more
    /// than the host has.
    pub fn threads(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(self.workers))
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. Every workload reports all of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit (`sim_s` is virtual seconds, `s` host seconds).
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. A run reports each as the midmean over its
/// passes (see [`crate::stats::midmean`]).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_cal_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_heap_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_download_p50_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_download_p90_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "sim_goodput_bps",
        unit: "bit/sim_s",
        better: Better::Higher,
        bound: 0.15,
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// An exact count read from a report or from `Network::solver_stats()`.
    Count,
    /// A span the harness timed around a public call.
    Span,
    /// A layer driver: the harness calls the layer's public functions with
    /// an operation mix sized from the workload's own counts. Yields a unit
    /// cost and an *estimated* share, never a measured one.
    Driver,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `<crate>.<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where the number comes from.
    pub source: Source,
    /// The end-to-end metric a change to this number should move.
    pub moves: &'static str,
    /// The workloads it is measured on. Elsewhere the layer does not run
    /// and the machine-readable line carries 0.
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &[
    "dyn_mesh",
    "swarm_scale",
    "service_knee",
    "systems4",
    "lab_sweep",
];
const DYN: &[&str] = &["dyn_mesh"];
const DYN_LAB: &[&str] = &["dyn_mesh", "lab_sweep"];
const SWARM: &[&str] = &["swarm_scale"];
const SERVICE: &[&str] = &["service_knee"];
const SYSTEMS: &[&str] = &["systems4"];
const LAB: &[&str] = &["lab_sweep"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
    on: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
        moves,
        on,
    }
}

use Better::{Higher, Lower};
use Source::{Count, Driver, Span};

/// The per-layer metrics, reported from the traced pass.
///
/// Every metric with a host-time unit is measured on all five workloads;
/// what only one workload exercises is a count or a ratio, so that the 0 the
/// machine-readable line carries elsewhere never reads as a time.
#[rustfmt::skip] // one metric per line reads as the table it is
pub const PER_LAYER: [Layer; 63] = [
    // desim: the event queue.
    layer("desim.queue.ops", "count", Lower, Count, "run_cal_s", ALL),
    layer("desim.queue.max_pending", "count", Lower, Count, "peak_heap_bytes", ALL),
    layer("desim.queue.ns_per_op", "ns", Lower, Driver, "run_cal_s", ALL),
    layer("desim.queue.est_share", "ratio", Lower, Driver, "run_cal_s", ALL),
    // netsim: topology, the fluid network, the runner, service mode,
    // snapshots, tracing.
    layer("netsim.topology.build_s", "s", Lower, Span, "setup_s", ALL),
    layer("netsim.topology.links", "count", Lower, Count, "setup_s", ALL),
    layer("netsim.network.full_solves", "count", Lower, Count, "run_cal_s", ALL),
    layer("netsim.network.fast_path_share", "ratio", Higher, Count, "run_cal_s", ALL),
    layer("netsim.network.flows_per_full_solve", "count", Lower, Count, "run_cal_s", ALL),
    layer("netsim.network.max_comp_flows", "count", Lower, Count, "run_cal_s", ALL),
    layer("netsim.network.ns_per_block_done", "ns", Lower, Driver, "run_cal_s", ALL),
    layer("netsim.network.est_share", "ratio", Lower, Driver, "run_cal_s", ALL),
    layer("netsim.network.reprice_est_share", "ratio", Lower, Driver, "run_cal_s", DYN_LAB),
    layer("netsim.runner.events", "count", Lower, Count, "run_cal_s", ALL),
    layer("netsim.runner.events_per_sec", "1/s", Higher, Span, "run_cal_s", ALL),
    layer("netsim.runner.ns_per_event", "ns", Lower, Span, "run_cal_s", ALL),
    layer("netsim.runner.allocs_per_event", "count", Lower, Count, "run_cal_s", ALL),
    layer("netsim.runner.build_s", "s", Lower, Span, "setup_s", ALL),
    layer("netsim.runner.self_s", "s", Lower, Span, "run_cal_s", ALL),
    layer("netsim.runner.residual_share", "ratio", Lower, Span, "run_cal_s", ALL),
    layer("netsim.runner.eps_decay", "ratio", Lower, Span, "run_cal_s", SWARM),
    layer("netsim.service.eps_decay", "ratio", Lower, Span, "run_cal_s", SERVICE),
    layer("netsim.service.max_concurrent", "count", Higher, Count, "sim_goodput_bps", SERVICE),
    layer("netsim.service.queued_at_end", "count", Lower, Count, "sim_download_p90_s", SERVICE),
    layer("netsim.snapshot.checkpoint_over_prefix", "ratio", Lower, Span, "run_cal_s", LAB),
    layer("netsim.snapshot.resume_over_prefix", "ratio", Lower, Span, "run_cal_s", LAB),
    layer("netsim.trace.overhead_ratio", "ratio", Lower, Span, "run_cal_s", DYN),
    layer("netsim.trace.records", "count", Lower, Count, "run_cal_s", DYN),
    // bullet_prime: the protocol hooks, timed by `Timed<P>`.
    layer("bullet_prime.node.hooks_share", "ratio", Lower, Span, "run_cal_s", ALL),
    layer("bullet_prime.node.on_control_share", "ratio", Lower, Span, "run_cal_s", ALL),
    layer("bullet_prime.node.on_block_received_share", "ratio", Lower, Span, "run_cal_s", ALL),
    layer("bullet_prime.node.on_block_sent_share", "ratio", Lower, Span, "run_cal_s", ALL),
    layer("bullet_prime.node.on_timer_share", "ratio", Lower, Span, "run_cal_s", ALL),
    layer("bullet_prime.node.on_control_calls", "count", Lower, Count, "run_cal_s", ALL),
    layer("bullet_prime.node.on_block_received_calls", "count", Lower, Count, "run_cal_s", ALL),
    layer("bullet_prime.node.on_block_sent_calls", "count", Lower, Count, "run_cal_s", ALL),
    layer("bullet_prime.node.on_timer_calls", "count", Lower, Count, "run_cal_s", ALL),
    layer("bullet_prime.node.dup_block_share", "ratio", Lower, Count, "sim_goodput_bps", ALL),
    layer("bullet_prime.node.control_bytes_per_block", "bytes", Lower, Count, "sim_download_p50_s", ALL),
    // overlay and dissem_codec: what the hooks call into.
    layer("overlay.tree.build_s", "s", Lower, Span, "setup_s", ALL),
    layer("overlay.ransub.ns_per_node_epoch", "ns", Lower, Driver, "run_cal_s", ALL),
    layer("dissem_codec.bitmap.ns_per_diff", "ns", Lower, Driver, "run_cal_s", ALL),
    layer("dissem_codec.diff.ns_per_advert", "ns", Lower, Driver, "run_cal_s", ALL),
    // baselines: the other three systems of the fig04 comparison.
    layer("baselines.bullet_prime.run_share", "ratio", Lower, Span, "run_cal_s", SYSTEMS),
    layer("baselines.bullet_orig.run_share", "ratio", Lower, Span, "run_cal_s", SYSTEMS),
    layer("baselines.bittorrent.run_share", "ratio", Lower, Span, "run_cal_s", SYSTEMS),
    layer("baselines.splitstream.run_share", "ratio", Lower, Span, "run_cal_s", SYSTEMS),
    layer("baselines.bittorrent.hooks_share", "ratio", Lower, Span, "run_cal_s", SYSTEMS),
    layer("baselines.splitstream.hooks_share", "ratio", Lower, Span, "run_cal_s", SYSTEMS),
    layer("baselines.bullet_orig.p50_over_bullet_prime", "ratio", Higher, Count, "sim_download_p50_s", SYSTEMS),
    layer("baselines.bittorrent.p50_over_bullet_prime", "ratio", Higher, Count, "sim_download_p50_s", SYSTEMS),
    layer("baselines.splitstream.p50_over_bullet_prime", "ratio", Higher, Count, "sim_download_p50_s", SYSTEMS),
    layer("baselines.best_other_over_bullet_prime", "ratio", Higher, Count, "sim_download_p50_s", SYSTEMS),
    // bullet_lab and bullet_bench: the sweep executor and warm-up sharing.
    layer("bullet_lab.executor.cells", "count", Lower, Count, "run_cal_s", LAB),
    layer("bullet_lab.executor.speedup_t2", "ratio", Higher, Span, "run_cal_s", LAB),
    layer("bullet_lab.executor.overhead_share", "ratio", Lower, Span, "run_cal_s", LAB),
    layer("bullet_bench.warmup.saved_share", "ratio", Higher, Span, "run_cal_s", LAB),
    layer("bullet_bench.warmup.shared_over_fresh", "ratio", Lower, Span, "run_cal_s", LAB),
    // The harness itself: was this run disturbed, did the answer change.
    layer("bench.harness.trace_overhead_ratio", "ratio", Lower, Span, "run_cal_s", ALL),
    layer("bench.harness.cpu_over_wall", "ratio", Higher, Span, "run_cal_s", ALL),
    layer("bench.harness.host_factor", "ratio", Lower, Span, "run_cal_s", ALL),
    layer("bench.harness.traced_pass_s", "s", Lower, Span, "run_cal_s", ALL),
    layer("bench.harness.golden_match", "count", Higher, Count, "sim_download_p50_s", ALL),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

fn json_string(s: &str) -> String {
    // Names, units and reasons are plain ASCII without quotes or
    // backslashes (a self-test checks), so quoting is all it takes.
    format!("\"{s}\"")
}

/// Renders `/BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_string(w.name),
            json_string(&why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.word()),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.word()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_is_rendered_from_these_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh manifest`"
        );
    }

    #[test]
    fn counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit}");
        }
        for w in &WORKLOADS {
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(
                why.len() <= 200,
                "{}: why has {} characters",
                w.name,
                why.len()
            );
            assert!(why.is_ascii() && !why.contains(['"', '\\']), "{}", w.name);
        }
    }

    #[test]
    fn bounds_fit_the_contract_and_setup_is_declared() {
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }

    #[test]
    fn every_layer_names_an_end_to_end_metric_and_real_workloads() {
        for l in &PER_LAYER {
            assert!(
                END_TO_END.iter().any(|m| m.name == l.moves),
                "{} moves unknown metric {}",
                l.name,
                l.moves
            );
            assert!(!l.on.is_empty(), "{} is measured nowhere", l.name);
            for w in l.on {
                assert!(
                    workload(w).is_some(),
                    "{} names unknown workload {w}",
                    l.name
                );
            }
            // A host time that only some workloads measure would print a
            // constant 0 elsewhere.
            let host_time = matches!(l.unit, "s" | "ns" | "1/s");
            assert!(
                !host_time || l.on.len() == WORKLOADS.len(),
                "{}: host-time metrics are measured on every workload",
                l.name
            );
        }
    }

    #[test]
    fn layers_separate_the_workloads() {
        let only = |prefix: &str, workload: &str| {
            for l in PER_LAYER.iter().filter(|l| l.name.starts_with(prefix)) {
                assert_eq!(l.on, [workload], "{}", l.name);
            }
        };
        only("baselines.", "systems4");
        only("netsim.service.", "service_knee");
        only("bullet_lab.", "lab_sweep");
        only("bullet_bench.warmup.", "lab_sweep");
        only("netsim.snapshot.", "lab_sweep");
    }
}
