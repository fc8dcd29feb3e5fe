//! The rsync side of the Fig 15 experiment: N parallel rsync processes.
//!
//! The paper pushes a 24 MB update to 40 PlanetLab nodes two ways:
//!
//! * **parallel rsync** — the source runs `k` simultaneous rsync-over-ssh
//!   sessions (2, 4, 8, 16), all competing for the source's CPU, disk and
//!   uplink; remaining nodes wait for a free slot (the "staggered" approach);
//! * **Shotgun** — the source builds one update archive and multicasts it
//!   with Bullet′; every client then replays the deltas against its local
//!   disk. The paper reports both the download-only and download+update
//!   CDFs, and observes that replaying dominates (“the constraining factor
//!   for PlanetLab nodes is the disk, not the network”).
//!
//! This module is the rsync side: an analytic contention model (the paper
//! itself measures a real rsync; what matters for the comparison is the
//! source bottleneck scaling) over the client bandwidths of the topology the
//! Shotgun side runs on. The Shotgun side is an emulated Bullet′ run of the
//! fig15 scenario's own workload (`bullet_bench::experiments::fig15_workload`)
//! plus [`RsyncModelParams::client_replay`]'s replay cost.

use netsim::{mbps, BytesPerSec, NodeId, Topology};

/// Parameters of the parallel-rsync contention model.
#[derive(Debug, Clone)]
pub struct RsyncModelParams {
    /// Source uplink capacity shared by all concurrent sessions.
    pub source_uplink: BytesPerSec,
    /// Source disk read throughput shared by all concurrent sessions.
    pub source_disk: BytesPerSec,
    /// Source CPU throughput for checksumming/ssh encryption, shared.
    pub source_cpu: BytesPerSec,
    /// Per-client replay (disk) throughput applied to the delta bytes.
    pub client_replay: BytesPerSec,
    /// Fixed per-session start-up cost (ssh handshake, file-list walk), seconds.
    pub session_overhead: f64,
}

impl Default for RsyncModelParams {
    fn default() -> Self {
        RsyncModelParams {
            // A well-connected university source of the era.
            source_uplink: mbps(10.0),
            // Contended PlanetLab-class disk and CPU.
            source_disk: mbps(60.0),
            source_cpu: mbps(24.0),
            client_replay: mbps(1.6),
            session_overhead: 4.0,
        }
    }
}

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
    params: &RsyncModelParams,
) -> Vec<f64> {
    assert!(parallelism >= 1, "need at least one rsync slot");
    let k = parallelism.min(client_download.len().max(1)) as f64;
    // Each concurrent session's share of the source's resources.
    let source_share = (params.source_uplink / k)
        .min(params.source_disk / k)
        .min(params.source_cpu / k);

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
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
            .expect("at least one slot");
        let rate = source_share.min(down).max(1.0);
        let transfer = update_bytes as f64 / rate;
        let replay = update_bytes as f64 / params.client_replay.max(1.0);
        let finish = start + params.session_overhead + transfer + replay;
        slot_free_at[slot] = start + params.session_overhead + transfer;
        completions.push(finish);
    }
    completions
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

    fn uniform_clients(n: usize, bw_mbps: f64) -> Vec<BytesPerSec> {
        vec![mbps(bw_mbps); n]
    }

    #[test]
    fn more_parallelism_helps_until_the_source_saturates() {
        let clients = uniform_clients(40, 10.0);
        let params = RsyncModelParams::default();
        let update = 24 * 1024 * 1024;
        let t2 = parallel_rsync_times(&clients, 2, update, &params);
        let t8 = parallel_rsync_times(&clients, 8, update, &params);
        let t16 = parallel_rsync_times(&clients, 16, update, &params);
        let last = |v: &Vec<f64>| v.iter().cloned().fold(0.0f64, f64::max);
        assert!(last(&t8) < last(&t2), "8 slots should beat 2");
        // Returns diminish: the aggregate work is source-bound, so 16 slots is
        // not twice as good as 8.
        assert!(last(&t16) > last(&t8) * 0.5);
    }

    #[test]
    fn rsync_slots_serialise_clients() {
        let clients = uniform_clients(4, 100.0);
        let params = RsyncModelParams {
            session_overhead: 0.0,
            client_replay: mbps(1_000.0),
            ..RsyncModelParams::default()
        };
        let times = parallel_rsync_times(&clients, 1, 10 * 1024 * 1024, &params);
        // With one slot, completions must be strictly increasing.
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn client_bandwidths_are_heterogeneous_and_deterministic() {
        let topo = |seed| netsim::topology::planetlab_like(30, &desim::RngFactory::new(seed));
        let a = planetlab_client_bandwidths(&topo(3));
        assert_eq!(a.len(), 29, "one per receiver");
        assert_eq!(a, planetlab_client_bandwidths(&topo(3)));
        let distinct: std::collections::BTreeSet<u64> = a.iter().map(|x| *x as u64).collect();
        assert!(distinct.len() > 1);
    }
}
