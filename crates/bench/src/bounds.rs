//! Analytic reference curves for Figs 4 and 15.
//!
//! Fig 4 plots two non-protocol lines: the download time that would be
//! *physically possible* given each receiver's access-link bandwidth alone,
//! and the best a MACEDON/TCP implementation could hope for once TCP slow
//! start, per-block framing and the overlay's start-up phase are charged.
//!
//! Fig 15 pushes one update to every receiver two ways (§4.7): Shotgun
//! multicasts it with Bullet′ (the fig15 scenario's own workload) and every
//! client replays the deltas at `CLIENT_REPLAY`; parallel rsync runs `k`
//! simultaneous rsync-over-ssh sessions (2, 4, 8, 16), all competing for the
//! source's CPU, disk and uplink, while the remaining clients wait for a free
//! slot (the paper's "staggered" approach). The rsync side is the analytic
//! contention model [`parallel_rsync_times`] over the clients of the
//! topology Shotgun runs on: the paper measures a real rsync, and what
//! matters for the comparison is how the source bottleneck scales.
//!
//! The open system (fig21, fig22) has one bound here too:
//! [`service_capacity`], the arrival rate the shared core can carry.

use dissem_codec::FileSpec;
use netsim::tcp::{idle_transfer_time, TcpPath};
use netsim::{mbps, BytesPerSec, NodeId, Topology};

use crate::workload::{ServiceWorkload, SERVICE_CORE_MBPS};

/// Per-receiver lower bound: file size divided by the receiver's inbound
/// access capacity (no protocol or transport overhead at all).
pub fn physical_limit(topo: &Topology, file: FileSpec) -> Vec<f64> {
    topo.node_ids()
        .skip(1)
        .map(|id| file.file_bytes as f64 / topo.node(id).down)
        .collect()
}

/// Per-receiver estimate of the best an overlay built on TCP could do:
/// the source's push must traverse at least one TCP connection whose
/// bottleneck is the receiver's constrained direction, paying slow start,
/// plus per-block protocol framing and the overlay start-up delay before the
/// first useful byte flows (peer discovery through the first RanSub epoch).
pub fn tcp_feasible(topo: &Topology, file: FileSpec, startup_secs: f64) -> Vec<f64> {
    // 2% framing/header overhead on every block, matching the emulator's
    // control-message accounting order of magnitude.
    let framed_bytes = (file.file_bytes as f64 * 1.02) as u64;
    topo.node_ids()
        .skip(1)
        .map(|id| {
            let down = topo.node(id).down;
            // The best case is a peer whose path bottleneck is our access link;
            // use the median core RTT towards this node for the ramp.
            let rtt = topo.rtt(NodeId(0), id);
            let path = TcpPath {
                bottleneck: down,
                rtt,
                loss: 0.0,
            };
            startup_secs + idle_transfer_time(&path, framed_bytes).as_secs_f64()
        })
        .collect()
}

/// Rsync source uplink shared by all concurrent sessions: a well-connected
/// university source of the era.
const SOURCE_UPLINK: BytesPerSec = mbps(10.0);
/// Rsync source disk read throughput shared by all concurrent sessions
/// (a contended PlanetLab-class disk).
const SOURCE_DISK: BytesPerSec = mbps(60.0);
/// Rsync source CPU throughput for checksumming and ssh encryption, shared.
const SOURCE_CPU: BytesPerSec = mbps(24.0);
/// Per-client replay (disk) throughput applied to the update bytes, on both
/// sides of Fig 15.
pub(crate) const CLIENT_REPLAY: BytesPerSec = mbps(1.6);
/// Fixed per-session start-up cost of an rsync (ssh handshake, file-list
/// walk), seconds.
const SESSION_OVERHEAD: f64 = 4.0;

/// Completion times (seconds, one per client, unsorted) for pushing
/// `update_bytes` to every client with `parallelism` concurrent rsync
/// sessions.
///
/// `client_download` gives each client's own bottleneck bandwidth in
/// bytes/second (from the emulated topology), so slow sites take longer even
/// when the source is idle.
pub fn parallel_rsync_times(
    client_download: &[BytesPerSec],
    parallelism: usize,
    update_bytes: u64,
) -> Vec<f64> {
    assert!(parallelism >= 1, "need at least one rsync slot");
    let k = parallelism.min(client_download.len().max(1)) as f64;
    // Each concurrent session's share of the source's resources.
    let source_share = (SOURCE_UPLINK / k).min(SOURCE_DISK / k).min(SOURCE_CPU / k);

    // Greedy slot scheduler: clients are assigned to the first free slot in
    // index order (the staggered approach of the paper).
    let mut slot_free_at = vec![0.0f64; parallelism];
    let mut completions = Vec::with_capacity(client_download.len());
    for &down in client_download {
        // Earliest available slot.
        let (slot, start) = slot_free_at
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one slot");
        let rate = source_share.min(down).max(1.0);
        let transfer = update_bytes as f64 / rate;
        let replay = update_bytes as f64 / CLIENT_REPLAY.max(1.0);
        let finish = start + SESSION_OVERHEAD + transfer + replay;
        slot_free_at[slot] = start + SESSION_OVERHEAD + transfer;
        completions.push(finish);
    }
    completions
}

/// The swarms per second the shared core of `cell`'s pool can carry. Every
/// useful byte crosses the one core link, and a swarm of `size` nodes sends
/// its file to `size − 1` receivers, so no arrival rate above
/// C / E[(size − 1) × file] can be served in the long run. C is the core
/// [`ServiceWorkload::runner`] builds. Cohort and file sizes are drawn
/// independently and uniformly from their inclusive ranges, so the
/// expectation is the product of the two means.
///
/// This is the core term only. The segment term (segments over the mean
/// sojourn of a lone swarm) needs a closed run of the mean shape.
pub fn service_capacity(cell: &ServiceWorkload) -> f64 {
    let mean = |lo: f64, hi: f64| (lo + hi) / 2.0;
    let receivers = mean(cell.sizes.0 as f64, cell.sizes.1 as f64) - 1.0;
    let file = mean(cell.files.0 as f64, cell.files.1 as f64);
    mbps(SERVICE_CORE_MBPS) / (receivers * file)
}

/// Per-client bottleneck download bandwidth for the rsync model: every
/// receiver of `topo` (node 0 is the source), its access downlink capped by
/// the core path from the source — the same clients Shotgun runs on.
pub fn planetlab_client_bandwidths(topo: &Topology) -> Vec<BytesPerSec> {
    (1..topo.len())
        .map(|i| {
            let id = NodeId(i as u32);
            topo.node(id).down.min(topo.path(NodeId(0), id).bw)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::RngFactory;
    use netsim::topology;

    #[test]
    fn physical_limit_matches_hand_computation() {
        let rng = RngFactory::new(1);
        let topo = topology::modelnet_mesh(5, 0.0, &rng);
        let file = FileSpec::from_mb_kb(100, 16);
        let bounds = physical_limit(&topo, file);
        assert_eq!(bounds.len(), 4);
        // 100 MiB over 6 Mbps = 104857600 / 750000 ≈ 139.8 s — the paper's
        // leftmost curve sits just under 140 s.
        for b in bounds {
            assert!((b - 139.8).abs() < 1.0, "bound {b}");
        }
    }

    #[test]
    fn tcp_feasible_is_slower_than_physical() {
        let rng = RngFactory::new(2);
        let topo = topology::modelnet_mesh(10, 0.0, &rng);
        let file = FileSpec::from_mb_kb(10, 16);
        let phys = physical_limit(&topo, file);
        let tcp = tcp_feasible(&topo, file, 10.0);
        for (p, t) in phys.iter().zip(tcp.iter()) {
            assert!(
                t > p,
                "TCP-feasible ({t}) must exceed the physical limit ({p})"
            );
        }
    }

    fn uniform_clients(n: usize, bw_mbps: f64) -> Vec<BytesPerSec> {
        vec![mbps(bw_mbps); n]
    }

    #[test]
    fn more_parallelism_helps_until_the_source_saturates() {
        let clients = uniform_clients(40, 10.0);
        let update = 24 * 1024 * 1024;
        let t2 = parallel_rsync_times(&clients, 2, update);
        let t8 = parallel_rsync_times(&clients, 8, update);
        let t16 = parallel_rsync_times(&clients, 16, update);
        let last = |v: &Vec<f64>| v.iter().cloned().fold(0.0f64, f64::max);
        assert!(last(&t8) < last(&t2), "8 slots should beat 2");
        // Returns diminish: the aggregate work is source-bound, so 16 slots is
        // not twice as good as 8.
        assert!(last(&t16) > last(&t8) * 0.5);
    }

    #[test]
    fn rsync_slots_serialise_clients() {
        let clients = uniform_clients(4, 100.0);
        let times = parallel_rsync_times(&clients, 1, 10 * 1024 * 1024);
        // With one slot each client starts when the previous session ends, so
        // completions are strictly increasing: every session costs at least
        // the positive start-up overhead, SESSION_OVERHEAD.
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    /// fig21's default cells (cohorts of 10–12, files of 1–2 MiB, 16 Mbps)
    /// carry about 0.127 swarms/s, so the top load, 128 per 1000 s, sits at
    /// ρ ≈ 1.0. At `--full` (cohorts of 22–24, files of 4–8 MiB) it is about
    /// 0.0145, below the lowest load: every load is above ρ = 1.
    #[test]
    fn fig21s_core_carries_0_127_swarms_per_second_and_0_0145_at_full_scale() {
        use crate::experiments::{fig21_cells, FIG21_LOADS};
        use crate::CommonOpts;

        let rho = |load: f64, capacity: f64| load / 1000.0 / capacity;
        let default = fig21_cells(&CommonOpts::default());
        assert_eq!(default.len(), FIG21_LOADS.len());
        for (label, cell) in &default {
            let capacity = service_capacity(cell);
            assert!((capacity - 0.127).abs() < 0.0005, "{label}: {capacity}");
        }
        let top = rho(FIG21_LOADS[3], service_capacity(&default[3].1));
        assert!((top - 1.0).abs() < 0.01, "top load at rho {top}");

        let full = fig21_cells(&CommonOpts {
            full: true,
            ..CommonOpts::default()
        });
        for ((label, cell), load) in full.iter().zip(FIG21_LOADS) {
            let capacity = service_capacity(cell);
            assert!((capacity - 0.0145).abs() < 0.0001, "{label}: {capacity}");
            assert!(
                rho(load, capacity) > 1.0,
                "{label}: rho {}",
                rho(load, capacity)
            );
        }
    }

    #[test]
    fn client_bandwidths_are_heterogeneous_and_deterministic() {
        let topo = |seed| topology::planetlab_like(30, &RngFactory::new(seed));
        let a = planetlab_client_bandwidths(&topo(3));
        assert_eq!(a.len(), 29, "one per receiver");
        assert_eq!(a, planetlab_client_bandwidths(&topo(3)));
        let distinct: std::collections::BTreeSet<u64> = a.iter().map(|x| *x as u64).collect();
        assert!(distinct.len() > 1);
    }
}
