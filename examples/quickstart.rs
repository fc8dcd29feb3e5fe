//! Quickstart: disseminate a file from one source to a small swarm with
//! Bullet′ and print every receiver's download time.
//!
//! Run with `cargo run --release --example quickstart`.

use bullet_repro::bullet_prime::{build_runner, Config};
use bullet_repro::desim::{RngFactory, SimDuration};
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::netsim::{topology, NodeId, Protocol};

fn main() {
    // 1. Describe the object: a 10 MiB file split into 16 KiB blocks.
    let file = FileSpec::from_mb_kb(10, 16);

    // 2. Describe the network: 20 hosts in the paper's ModelNet configuration
    //    (6 Mbps access links, 2 Mbps lossy core links, 5–200 ms delays).
    let seed = 7;
    let rng = RngFactory::new(seed);
    let topo = topology::modelnet_mesh(20, 0.03, &rng);

    // 3. Build the Bullet' deployment (node 0 is the source) and run it.
    let cfg = Config::new(file);
    let mut runner = build_runner(topo, &cfg, &rng);
    let report = runner.run(SimDuration::from_secs(3600));

    println!("Bullet' quickstart: 10 MiB to 19 receivers (seed {seed})");
    println!(
        "{:>6} {:>12} {:>9} {:>11}",
        "node", "done (s)", "senders", "dup blocks"
    );
    for i in 1..20u32 {
        let stats = runner.node(NodeId(i)).probe_stats();
        println!(
            "{:>6} {:>12.1} {:>9} {:>11}",
            i,
            report.completion_secs[i as usize].unwrap_or(f64::NAN),
            stats.senders,
            stats.duplicate_blocks
        );
    }
    let times = report.finished_times();
    println!(
        "median {:.1}s, slowest {:.1}s, {} events simulated",
        times[times.len() / 2],
        times.last().copied().unwrap_or(f64::NAN),
        report.events
    );
}
