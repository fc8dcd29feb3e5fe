//! Steady-state TCP throughput model.
//!
//! The emulator is a fluid model: it does not simulate packets, but it must
//! reproduce the two TCP behaviours the paper's results hinge on:
//!
//! 1. **Loss caps per-connection throughput.** On a lossy path a single TCP
//!    connection cannot fill the link; this is why Bullet′ nodes benefit from
//!    *more* senders on lossy topologies (Fig 7) and why request strategies
//!    that operate on stale availability information degrade (Fig 6).
//!    We use the Mathis square-root formula
//!    `rate = MSS/RTT * C / sqrt(p)` with `C = sqrt(3/2)`.
//! 2. **Slow start.** A new or long-idle connection takes several RTTs to
//!    reach its steady rate, which is why having too few outstanding blocks
//!    cannot fill a high bandwidth-delay-product pipe (Fig 10). We model the
//!    congestion window as `init_cwnd + bytes_acked` (doubling per RTT)
//!    capped by the path's steady-state rate.

use desim::SimDuration;

use crate::units::BytesPerSec;

/// TCP maximum segment size used by the throughput model (bytes).
pub const MSS: f64 = 1460.0;

/// Initial congestion window (bytes): the classic 3 segments.
pub const INIT_CWND: f64 = 3.0 * MSS;

/// Mathis constant `sqrt(3/2)`.
const MATHIS_C: f64 = 1.224_744_871_391_589;

/// Parameters of a TCP path used to derive its instantaneous service rate.
#[derive(Debug, Clone, Copy)]
pub struct TcpPath {
    /// Bottleneck (core-link) capacity in bytes/second.
    pub bottleneck: BytesPerSec,
    /// Round-trip time.
    pub rtt: SimDuration,
    /// Packet loss probability on the path.
    pub loss: f64,
}

impl TcpPath {
    /// Loss-limited steady-state throughput (Mathis et al.), in bytes/second.
    /// Returns `f64::INFINITY` for a loss-free path.
    pub fn mathis_cap(&self) -> BytesPerSec {
        if self.loss <= 0.0 {
            return f64::INFINITY;
        }
        let rtt = self.rtt.as_secs_f64().max(1e-6);
        MATHIS_C * MSS / (rtt * self.loss.sqrt())
    }

    /// Window-limited throughput after `bytes_acked` bytes have been
    /// acknowledged on the connection, in bytes/second.
    ///
    /// The congestion window starts at [`INIT_CWND`] and grows by one MSS per
    /// ACK (slow start), which integrates to `INIT_CWND + bytes_acked`.
    pub fn slow_start_cap(&self, bytes_acked: u64) -> BytesPerSec {
        let rtt = self.rtt.as_secs_f64().max(1e-6);
        (INIT_CWND + bytes_acked as f64) / rtt
    }
}

/// Time for TCP to transfer `bytes` over a path starting from an idle
/// connection, ignoring competing traffic. Used for analytic lower bounds
/// (the "MACEDON TCP feasible" curve of Fig 4).
pub fn idle_transfer_time(path: &TcpPath, bytes: u64) -> SimDuration {
    let cap = path.bottleneck.min(path.mathis_cap()).max(1.0);
    let rtt = path.rtt.as_secs_f64().max(1e-6);
    // Bytes transferred during slow start until the window reaches cap*rtt.
    let target_window = cap * rtt;
    let ss_bytes = (target_window - INIT_CWND).max(0.0);
    let bytes_f = bytes as f64;
    if bytes_f <= ss_bytes {
        // Window grows exponentially: bytes(t) ~ INIT_CWND * (2^(t/rtt) - 1).
        let ratio = bytes_f / INIT_CWND + 1.0;
        return SimDuration::from_secs_f64(rtt * ratio.log2());
    }
    let ss_time = rtt * ((ss_bytes / INIT_CWND + 1.0).log2());
    let remaining = bytes_f - ss_bytes;
    SimDuration::from_secs_f64(ss_time + remaining / cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::mbps;

    fn path(bw_mbps: f64, rtt_ms: u64, loss: f64) -> TcpPath {
        TcpPath {
            bottleneck: mbps(bw_mbps),
            rtt: SimDuration::from_millis(rtt_ms),
            loss,
        }
    }

    #[test]
    fn lossless_path_is_link_limited() {
        let p = path(2.0, 100, 0.0);
        assert_eq!(p.mathis_cap(), f64::INFINITY);
        // With a large window the bottleneck is the smallest of the limits.
        assert!(p.slow_start_cap(10_000_000) > p.bottleneck);
    }

    #[test]
    fn loss_reduces_throughput() {
        let clean = path(10.0, 100, 0.0);
        let lossy = path(10.0, 100, 0.01);
        assert!(lossy.mathis_cap() < clean.mathis_cap().min(clean.bottleneck));
        // 1% loss at 100ms RTT: ~1.22*1460/(0.1*0.1) = ~178 KB/s.
        let expected = 1.224_744_871_391_589 * 1460.0 / (0.1 * 0.1);
        assert!((lossy.mathis_cap() - expected).abs() < 1.0);
    }

    #[test]
    fn more_loss_means_less_throughput_monotonically() {
        let mut last = f64::INFINITY;
        for loss in [0.001, 0.005, 0.01, 0.02, 0.03] {
            let cap = path(10.0, 50, loss).mathis_cap();
            assert!(cap < last);
            last = cap;
        }
    }

    #[test]
    fn slow_start_limits_young_connections() {
        let p = path(10.0, 100, 0.0);
        let young = p.slow_start_cap(0);
        let mature = p.slow_start_cap(2_000_000);
        assert!(young < p.bottleneck && p.bottleneck < mature);
        // Young connection: 3 segments per RTT.
        assert!((young - INIT_CWND / 0.1).abs() < 1.0);
    }

    #[test]
    fn cap_never_zero() {
        // Never fully stalled (TCP retransmits eventually): the ceiling is
        // floored at one byte a second, so the transfer time stays finite.
        let p = path(0.0, 1000, 0.9);
        let t = idle_transfer_time(&p, 16 * 1024);
        assert_eq!(t, SimDuration::from_secs(16 * 1024));
    }

    #[test]
    fn idle_transfer_time_scales_with_size() {
        let p = path(2.0, 50, 0.0);
        let small = idle_transfer_time(&p, 16 * 1024);
        let large = idle_transfer_time(&p, 10 * 1024 * 1024);
        assert!(small < large);
        // A 10MB transfer over 2 Mbps takes at least 40 seconds.
        assert!(large.as_secs_f64() > 40.0);
        // A 16KB transfer finishes within a handful of RTTs.
        assert!(small.as_secs_f64() < 1.0);
    }
}
