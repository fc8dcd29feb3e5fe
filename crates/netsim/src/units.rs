//! Bandwidth units.
//!
//! All internal bandwidth arithmetic is in **bytes per second** (`f64`);
//! these helpers exist so topology definitions can be written in the units
//! the paper uses (Mbps / Kbps access and core links).

/// Bandwidth expressed in bytes per second.
pub type BytesPerSec = f64;

/// Converts megabits per second to bytes per second.
pub const fn mbps(v: f64) -> BytesPerSec {
    v * 1_000_000.0 / 8.0
}

/// Converts kilobits per second to bytes per second.
pub fn kbps(v: f64) -> BytesPerSec {
    v * 1_000.0 / 8.0
}

/// Converts gigabits per second to bytes per second.
pub fn gbps(v: f64) -> BytesPerSec {
    v * 1_000_000_000.0 / 8.0
}

/// Converts bytes per second back to megabits per second (for reporting).
pub fn to_mbps(v: BytesPerSec) -> f64 {
    v * 8.0 / 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(mbps(8.0), 1_000_000.0);
        assert_eq!(kbps(800.0), 100_000.0);
        assert_eq!(gbps(1.0), mbps(1000.0));
        assert!((to_mbps(mbps(6.0)) - 6.0).abs() < 1e-12);
    }
}
