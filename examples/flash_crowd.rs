//! Flash crowd: the paper's motivating scenario — a popular file appears at a
//! single source and a crowd of receivers all want it at once. This example
//! runs the same crowd through all four systems (Bullet′, Bullet, BitTorrent,
//! SplitStream) on an identical lossy topology and prints the comparison.
//!
//! Run with `cargo run --release --example flash_crowd`.

use bullet_repro::bullet_bench::{
    CommonOpts, Dynamics, Series, SystemKind, TopologyKind, Workload,
};
use bullet_repro::dissem_codec::FileSpec;

fn main() {
    let nodes = 30;
    let file = FileSpec::from_mb_kb(8, 16);
    let seed = 42;
    let opts = CommonOpts {
        seed,
        time_limit: 3600.0,
        ..CommonOpts::default()
    };
    let topology = TopologyKind::ModelNetMesh { max_loss: 0.03 };
    let crowd = Workload::new(&opts, topology, nodes, file, Dynamics::Static);

    println!(
        "Flash crowd: {} receivers fetching an 8 MiB file (seed {seed})",
        nodes - 1
    );
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "system", "p10 (s)", "median", "p90", "slowest"
    );
    for kind in SystemKind::all() {
        let run = crowd.run_system(kind);
        let cdf = Series::cdf(kind.label(), &run.times);
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            kind.label(),
            cdf.quantile(0.10),
            cdf.quantile(0.50),
            cdf.quantile(0.90),
            cdf.max_x()
        );
    }
    println!("(the paper's Figure 4 runs the same comparison at 100 nodes / 100 MB)");
}
