//! Emits the emulator scaling record (`BENCH_scale.json`): the fig20
//! workload — a join-only Bullet′ swarm on the O(n) uniform core — at each
//! swarm size, recording events processed, events per wall-clock second,
//! the live-heap high-water mark (the portable stand-in for peak RSS, see
//! `bullet_bench::alloc_track`) and wall-clock seconds per N.
//!
//! ci.sh gates the N = 1 000 point: a >10% drop in events/sec against the
//! committed baseline fails CI. The larger points are recorded
//! informationally so the trajectory to 10⁴ nodes stays visible without
//! making every regression at scale a hard failure on a noisy machine.
//!
//! Usage: `bench_scale [--nodes N,M,..] [--out PATH]` (defaults: the full
//! 1 000 / 5 000 / 10 000 trajectory, `BENCH_scale.json` in the current
//! directory). The file and block sizes are fixed on purpose — the point is
//! comparability across commits, not configurability.

use std::time::Instant;

use bullet_bench::alloc_track::{self, CountingAlloc};
use bullet_bench::experiments::fig20_workload;
use bullet_bench::views::{write_record, ScalePoint, ScaleRecord};
use bullet_bench::{CommonOpts, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let mut out_path = String::from("BENCH_scale.json");
    let mut sizes: Vec<usize> = vec![1_000, 5_000, 10_000];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_for = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_path = value_for("--out"),
            "--nodes" => {
                sizes = value_for("--nodes")
                    .split(',')
                    .map(|p| {
                        p.trim().parse().unwrap_or_else(|_| {
                            eprintln!("bad --nodes entry '{p}'");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            other => {
                eprintln!(
                    "unknown option {other}\nusage: bench_scale [--nodes N,M,..] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    // Fixed workload: fig20's at its default options — 2 MiB file in 16 KiB
    // blocks (128 blocks), everyone present from t = 0, no losses beyond the
    // uniform core's, run to completion.
    let shape = fig20_workload(&CommonOpts::default(), "default").expect("fig20 has one point");
    let mut points = Vec::new();
    for &n in &sizes {
        let started = Instant::now();
        alloc_track::reset_peak();
        let report = Workload { nodes: n, ..shape }.report();
        let wall = started.elapsed().as_secs_f64();
        let peak = alloc_track::peak_bytes();
        eprintln!(
            "N={n}: {} events in {wall:.2}s wall ({:.0} events/s, peak heap {:.1} MiB)",
            report.events,
            report.events as f64 / wall.max(1e-9),
            peak as f64 / (1024.0 * 1024.0),
        );
        points.push(ScalePoint::from_report(n, &report, wall, peak));
    }

    // `events_processed`, `peak_alloc_bytes` and `virtual_end_secs` are
    // deterministic for a given binary; `events_per_sec` and
    // `wall_clock_secs` are whatever the machine that last ran CI measured —
    // committed anyway so scale PRs leave a real throughput trajectory
    // (compare deltas on one machine, not absolute values across machines).
    let record = ScaleRecord {
        benchmark: "fig20-style join-only swarm on the uniform core",
        seed: shape.seed,
        file_bytes: shape.file.file_bytes,
        block_bytes: shape.file.block_bytes,
        points,
    };
    write_record(&record, &out_path);
}
