//! Shotgun end-to-end: build an rsync-style update archive from two versions
//! of a software image, verify it upgrades a stale client byte-for-byte, and
//! compare pushing it to a PlanetLab-like testbed with Bullet′ (Shotgun)
//! against N parallel rsync sessions (the paper's Figure 15 scenario).
//!
//! Run with `cargo run --release --example software_update`.

use bullet_repro::bullet_bench::{CommonOpts, Dynamics, SystemKind, TopologyKind, Workload};
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::shotgun::{
    parallel_rsync_times, planetlab_client_bandwidths, FileSet, RsyncModelParams, UpdateArchive,
};
use rand::{Rng, SeedableRng};

fn build_image(seed: u64, files: usize, file_kb: usize) -> FileSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..files)
        .map(|i| {
            let data: Vec<u8> = (0..file_kb * 1024).map(|_| rng.gen()).collect();
            (format!("deploy/binary_{i:02}"), data)
        })
        .collect()
}

fn main() {
    // 1. Two versions of a deployed experiment image: v2 rewrites a sizeable
    //    region of half the binaries and ships one new multi-megabyte tool
    //    (roughly the "24 MB of deltas" regime of the paper's Figure 15).
    let v1 = build_image(1, 12, 512);
    let mut v2 = v1.clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for (i, data) in v2.values_mut().enumerate() {
        if i % 2 == 0 {
            let at = rng.gen_range(0..data.len() - 256 * 1024);
            for b in &mut data[at..at + 256 * 1024] {
                *b = rng.gen();
            }
        }
    }
    v2.insert(
        "deploy/new_tool".into(),
        (0..3 * 1024 * 1024).map(|_| rng.gen()).collect(),
    );

    // 2. Build and verify the update archive.
    let archive = UpdateArchive::build(&v1, &v2, 2, 4096);
    let encoded = archive.encode();
    let decoded = UpdateArchive::decode(&encoded).expect("well-formed archive");
    let mut client = v1.clone();
    assert!(decoded.apply(&mut client, 1).expect("apply succeeds"));
    assert_eq!(client, v2, "client image matches v2 after replay");
    let image_bytes: usize = v2.values().map(Vec::len).sum();
    println!(
        "update archive: {} changed files, {} KiB literals, {} KiB on the wire ({}x smaller than the {} KiB image)",
        archive.entries.len(),
        archive.literal_bytes() / 1024,
        encoded.len() / 1024,
        image_bytes / encoded.len().max(1),
        image_bytes / 1024,
    );

    // 3. Push the archive to 40 PlanetLab-like nodes: Shotgun multicasts a
    //    file of the archive's size with Bullet′ and every node then replays
    //    the deltas; parallel rsync is the source-contention model over the
    //    same sites.
    let opts = CommonOpts {
        seed: 5,
        ..CommonOpts::default()
    };
    let file = FileSpec::new(encoded.len() as u64, 64 * 1024);
    let testbed = Workload::new(
        &opts,
        TopologyKind::PlanetLabLike,
        41,
        file,
        Dynamics::Static,
    );
    let params = RsyncModelParams::default();
    let slowest = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    let download = slowest(&testbed.run_system(SystemKind::BulletPrime).times);
    let replay = file.file_bytes as f64 / params.client_replay;
    println!(
        "Shotgun: download only {:.0}s, download+update {:.0}s (slowest of {} nodes)",
        download,
        download + replay,
        testbed.nodes - 1
    );
    let clients = planetlab_client_bandwidths(&testbed.topology());
    for k in [2usize, 4, 8, 16] {
        let times = parallel_rsync_times(&clients, k, encoded.len() as u64, &params);
        println!("{k:>2} parallel rsync: slowest {:.0}s", slowest(&times));
    }
}
