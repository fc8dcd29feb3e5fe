//! Content digests.
//!
//! The emulated experiments only need block *identities* and *sizes*; no
//! emulated block carries a payload. What is left here is the digest the
//! golden tests pin canonical reports and figures with.

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
