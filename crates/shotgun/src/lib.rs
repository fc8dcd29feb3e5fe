//! `shotgun` — rapid software-image synchronization over Bullet′ (paper §4.7).
//!
//! Shotgun wraps the rsync algorithm around Bullet′: instead of the source
//! opening one rsync-over-ssh session per client (all competing for its CPU,
//! disk and uplink), it computes every file's delta **once**, batches the
//! deltas into a single [`archive::UpdateArchive`], multicasts that archive
//! with Bullet′, and lets every client replay the deltas locally if the
//! archive is newer than its installed version.
//!
//! Layout:
//!
//! * [`rolling`] / [`strong`] — the rsync weak rolling checksum and the
//!   strong block hash;
//! * [`delta`] — block-matching delta generation and application;
//! * [`archive`] — batched multi-file update archives with version gating;
//! * [`model`] — the rsync side of Fig 15: N parallel rsync sessions
//!   (source-contention model) over the clients of a topology. The Shotgun
//!   side is the fig15 scenario's own `Workload` in `bullet_bench`; this
//!   crate runs no emulation.

#![forbid(unsafe_code)]

pub mod archive;
pub mod delta;
pub mod model;
pub mod rolling;
pub mod strong;

pub use archive::{ArchiveEntry, FileSet, UpdateArchive};
pub use delta::{apply_delta, generate_delta, Delta, DeltaOp, Signature};
pub use model::{parallel_rsync_times, planetlab_client_bandwidths, RsyncModelParams};
pub use rolling::RollingChecksum;
pub use strong::{strong_hash, StrongHash};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// apply(generate(old, new)) == new for arbitrary contents, edits and
        /// block sizes.
        #[test]
        fn delta_round_trips(
            old in proptest::collection::vec(any::<u8>(), 0..4000),
            new in proptest::collection::vec(any::<u8>(), 0..4000),
            block in 1usize..700,
        ) {
            let delta = generate_delta(&old, &new, block);
            prop_assert_eq!(apply_delta(&old, &delta).unwrap(), new);
        }

        /// When new = old with a small splice, the delta carries far fewer
        /// literal bytes than the file (the whole point of rsync).
        #[test]
        fn small_edits_give_small_deltas(
            seed in any::<u64>(),
            splice_at in 0usize..30_000,
            splice_len in 1usize..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let old: Vec<u8> = (0..40_000).map(|_| rng.gen()).collect();
            let mut new = old.clone();
            let at = splice_at.min(old.len());
            let splice: Vec<u8> = (0..splice_len).map(|_| rng.gen()).collect();
            new.splice(at..at, splice);
            let delta = generate_delta(&old, &new, 2048);
            prop_assert_eq!(apply_delta(&old, &delta).unwrap(), new);
            prop_assert!(
                delta.literal_bytes() < splice_len + 3 * 2048,
                "literals {} for a {}-byte splice", delta.literal_bytes(), splice_len
            );
        }

        /// The rolling checksum matches from-scratch recomputation at every
        /// offset, for arbitrary data and window sizes.
        #[test]
        fn rolling_checksum_consistency(
            data in proptest::collection::vec(any::<u8>(), 2..800),
            window_frac in 1usize..100,
        ) {
            let window = (data.len() * window_frac / 100).clamp(1, data.len() - 1);
            let mut rc = RollingChecksum::new(&data[..window]);
            for i in 0..data.len() - window {
                prop_assert_eq!(rc.digest(), RollingChecksum::new(&data[i..i + window]).digest());
                rc.roll(data[i], data[i + window]);
            }
        }

        /// Archives round-trip through encode/decode for arbitrary small images.
        #[test]
        fn archive_encoding_round_trips(
            n_files in 1usize..5,
            file_len in 1usize..3000,
            version in 1u64..1000,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let old: FileSet = (0..n_files)
                .map(|i| (format!("f{i}"), (0..file_len).map(|_| rng.gen()).collect()))
                .collect();
            let mut new = old.clone();
            for data in new.values_mut() {
                let at = rng.gen_range(0..data.len());
                data[at] ^= 0xFF;
            }
            let archive = UpdateArchive::build(&old, &new, version, 512);
            let decoded = UpdateArchive::decode(&archive.encode()).unwrap();
            prop_assert_eq!(&archive, &decoded);
            let mut client = old.clone();
            prop_assert!(decoded.apply(&mut client, version - 1).unwrap());
            prop_assert_eq!(client, new);
        }
    }
}
