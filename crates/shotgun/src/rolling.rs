//! The rolling weak checksum used by the rsync algorithm.
//!
//! rsync's first-pass filter is a 32-bit Adler-style checksum that can be
//! *rolled*: given the checksum of `data[i..i+len]`, the checksum of
//! `data[i+1..i+1+len]` is computed in O(1) by removing the leading byte and
//! appending the trailing one. Shotgun uses it exactly as rsync does: the
//! receiver publishes per-block checksums of the *old* file, and the sender
//! slides a window over the *new* file looking for matches.

/// Modulus of the two 16-bit component sums.
const MOD: u32 = 1 << 16;

/// A rolling Adler-style weak checksum over a fixed-length window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollingChecksum {
    a: u32,
    b: u32,
    len: usize,
}

impl RollingChecksum {
    /// Computes the checksum of `window` from scratch.
    pub fn new(window: &[u8]) -> Self {
        let mut a: u32 = 0;
        let mut b: u32 = 0;
        let len = window.len();
        for (i, &x) in window.iter().enumerate() {
            a = (a + u32::from(x)) % MOD;
            b = (b + (len - i) as u32 * u32::from(x)) % MOD;
        }
        RollingChecksum { a, b, len }
    }

    /// The 32-bit digest.
    pub fn digest(&self) -> u32 {
        self.a | (self.b << 16)
    }

    /// Rolls the window one byte forward: removes `out` (the byte leaving the
    /// window) and appends `incoming`.
    pub fn roll(&mut self, out: u8, incoming: u8) {
        let out = u32::from(out);
        let incoming = u32::from(incoming);
        // a' = a - out + in ; b' = b - len*out + a'
        self.a = (self.a + MOD - out + incoming) % MOD;
        self.b = (self.b + MOD - (self.len as u32 * out) % MOD + self.a) % MOD;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rolling_matches_recomputation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let data: Vec<u8> = (0..4096).map(|_| rng.gen()).collect();
        let window = 700;
        let mut rc = RollingChecksum::new(&data[..window]);
        for i in 0..data.len() - window {
            assert_eq!(
                rc.digest(),
                RollingChecksum::new(&data[i..i + window]).digest(),
                "mismatch at offset {i}"
            );
            rc.roll(data[i], data[i + window]);
        }
    }

    #[test]
    fn different_windows_usually_differ() {
        let a = RollingChecksum::new(b"The quick brown fox jumps");
        let b = RollingChecksum::new(b"The quick brown fox jumpt");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn empty_window_is_zero() {
        assert_eq!(RollingChecksum::new(&[]).digest(), 0);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let a = RollingChecksum::new(b"abcd");
        let b = RollingChecksum::new(b"dcba");
        assert_ne!(a.digest(), b.digest(), "the b-sum weights positions");
    }
}
