//! End-to-end Shotgun test: build a real update archive from two software
//! images, disseminate a file of exactly that size with Bullet′ over a
//! wide-area topology (a `Workload`, as fig15 runs it), and verify the
//! upgraded clients and the Fig 15 ordering against parallel rsync.

use bullet_repro::bullet_bench::{CommonOpts, Dynamics, SystemKind, TopologyKind, Workload};
use bullet_repro::dissem_codec::FileSpec;
use bullet_repro::netsim::{mbps, BytesPerSec};
use bullet_repro::shotgun::{
    parallel_rsync_times, planetlab_client_bandwidths, FileSet, RsyncModelParams, UpdateArchive,
};
use rand::{Rng, SeedableRng};

/// Shotgun's side of Fig 15: a file of the update's size multicast with
/// Bullet′ over PlanetLab-like sites, then replayed on every receiver.
struct Shotgun {
    testbed: Workload,
    download_only: Vec<f64>,
    download_plus_update: Vec<f64>,
}

fn shotgun(nodes: usize, update_bytes: u64, replay_rate: BytesPerSec, seed: u64) -> Shotgun {
    let opts = CommonOpts {
        seed,
        ..CommonOpts::default()
    };
    let file = FileSpec::new(update_bytes, 64 * 1024);
    let testbed = Workload::new(
        &opts,
        TopologyKind::PlanetLabLike,
        nodes,
        file,
        Dynamics::Static,
    );
    let download_only = testbed.run_system(SystemKind::BulletPrime).times;
    let replay = update_bytes as f64 / replay_rate;
    let download_plus_update = download_only.iter().map(|t| t + replay).collect();
    Shotgun {
        testbed,
        download_only,
        download_plus_update,
    }
}

fn image(seed: u64, files: usize, kb: usize) -> FileSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..files)
        .map(|i| {
            let data: Vec<u8> = (0..kb * 1024).map(|_| rng.gen()).collect();
            (format!("opt/app/file{i}"), data)
        })
        .collect()
}

#[test]
fn archive_built_from_real_images_upgrades_every_client() {
    let v1 = image(1, 8, 64);
    let mut v2 = v1.clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for data in v2.values_mut() {
        let at = rng.gen_range(0..data.len() - 2048);
        for b in &mut data[at..at + 2048] {
            *b = rng.gen();
        }
    }
    v2.insert("opt/app/extra".into(), vec![9u8; 32 * 1024]);

    let archive = UpdateArchive::build(&v1, &v2, 7, 2048);
    let wire = archive.encode();
    assert!(
        wire.len() < v2.values().map(Vec::len).sum::<usize>() / 4,
        "the delta archive should be far smaller than the image"
    );

    // Every "client" starts from v1 at version 6 and must end bit-identical.
    for _client in 0..5 {
        let decoded = UpdateArchive::decode(&wire).expect("decodable");
        let mut state = v1.clone();
        assert!(decoded.apply(&mut state, 6).expect("applies"));
        assert_eq!(state, v2);
        // Re-applying the same version is a no-op.
        assert!(!decoded.apply(&mut state, 7).expect("idempotent"));
        assert_eq!(state, v2);
    }
}

#[test]
fn shotgun_dissemination_beats_parallel_rsync_at_testbed_scale() {
    let nodes = 31;
    let update_bytes = 6 * 1024 * 1024u64;
    let seed = 11;
    let params = RsyncModelParams::default();

    let shotgun = shotgun(nodes, update_bytes, params.client_replay, seed);
    assert_eq!(shotgun.download_only.len(), nodes - 1);
    let slowest = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    let shotgun_total = slowest(&shotgun.download_plus_update);

    let clients = planetlab_client_bandwidths(&shotgun.testbed.topology());
    for parallelism in [2usize, 8] {
        let rsync = parallel_rsync_times(&clients, parallelism, update_bytes, &params);
        assert!(
            shotgun_total < slowest(&rsync),
            "Shotgun ({shotgun_total:.0}s) should beat {parallelism}-way rsync ({:.0}s)",
            slowest(&rsync)
        );
    }
}

#[test]
fn shotgun_replay_cost_uses_the_configured_disk_rate() {
    let nodes = 11;
    let update = 2 * 1024 * 1024u64;
    let fast_disk = shotgun(nodes, update, mbps(100.0), 3);
    let slow_disk = shotgun(nodes, update, mbps(0.8), 3);
    // Download times are identical (same seed); only the replay differs.
    assert_eq!(fast_disk.download_only, slow_disk.download_only);
    let gap_fast = fast_disk.download_plus_update[0] - fast_disk.download_only[0];
    let gap_slow = slow_disk.download_plus_update[0] - slow_disk.download_only[0];
    assert!(gap_slow > gap_fast * 10.0);
}
