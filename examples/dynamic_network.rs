//! Adaptivity under dynamic network conditions: the same Bullet′ swarm run
//! once on a static lossy network and once with the paper's correlated,
//! cumulative bandwidth-decrease scenario (§4.1), contrasting the adaptive
//! configuration against a statically configured one.
//!
//! Run with `cargo run --release --example dynamic_network`.

use bullet_repro::bullet_bench::{CommonOpts, Dynamics, SystemRun, TopologyKind, Workload};
use bullet_repro::bullet_prime::{Config, OutstandingPolicy, PeerSetPolicy};
use bullet_repro::dissem_codec::FileSpec;

type ConfigTweak = fn(&mut Config);

fn main() {
    let nodes = 30;
    let file = FileSpec::from_mb_kb(10, 16);
    let opts = CommonOpts {
        seed: 11,
        time_limit: 3600.0,
        ..CommonOpts::default()
    };
    let topology = TopologyKind::ModelNetMesh { max_loss: 0.03 };
    let changes = Dynamics::BandwidthChanges {
        period: Some(20.0),
        quiet: 0.0,
    };

    let variants: [(&str, ConfigTweak); 2] = [
        ("adaptive (dynamic peers + dynamic outstanding)", |_cfg| {}),
        ("static (6 peers, 3 outstanding)", |cfg| {
            cfg.peer_policy = PeerSetPolicy::Fixed(6);
            cfg.outstanding_policy = OutstandingPolicy::Fixed(3);
        }),
    ];

    println!(
        "Bullet' under static vs dynamic network conditions ({} receivers)",
        nodes - 1
    );
    println!(
        "{:<50} {:>12} {:>12}",
        "configuration", "static net", "dynamic net"
    );
    for (label, tweak) in variants {
        let mut medians = Vec::new();
        for dynamics in [Dynamics::Static, changes] {
            let workload = Workload::new(&opts, topology, nodes, file, dynamics);
            let mut cfg = workload.config();
            tweak(&mut cfg);
            let report = workload.run(&mut workload.bullet_prime(&cfg, None));
            medians.push(SystemRun::from_report(&report).median());
        }
        println!("{:<50} {:>11.1}s {:>11.1}s", label, medians[0], medians[1]);
    }
    println!("(lower is better; the adaptive configuration should degrade the least)");
}
