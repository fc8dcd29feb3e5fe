//! The one logarithm on a simulated path, built from IEEE 754 basic
//! operations only.
//!
//! The standard library's `ln`, `log2`, `powf` and their kin call the
//! host's libm, whose precision Rust leaves unspecified: it "varies by
//! platform, Rust version, and can even differ within the same execution".
//! A digest that passes through one of them pins the host, not the
//! simulation. [`ln`] uses only bit operations, `+`, `-`, `*` and `/`, each
//! correctly rounded, and Rust never fuses them, so its bits are the same
//! on every host. `clippy.toml` forbids the unspecified-precision methods
//! in first-party code (DESIGN.md, "Determinism rules").

/// ln 2 in two parts: the low 32 bits of `LN2_HI` are zero, so `k * LN2_HI`
/// is exact for every binary exponent `k` of an `f64`.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Minimax coefficients of the odd series ln((1 + s)/(1 − s)) = 2s +
/// s·(LG\[0\]·s² + LG\[1\]·s⁴ + … + LG\[6\]·s¹⁴) on |s| ≤ 3 − 2√2.
const LG: [f64; 7] = [
    6.666_666_666_666_735e-1,
    3.999_999_999_940_942e-1,
    2.857_142_874_366_239e-1,
    2.222_219_843_214_978_4e-1,
    1.818_357_216_161_805e-1,
    1.531_383_769_920_937_3e-1,
    1.479_819_860_511_658_6e-1,
];
/// The high 32 bits of √½, where the folded mantissa starts.
const SQRT_HALF_HI: u64 = 0x3fe6_a09e;

/// Natural logarithm of `x`, within one ulp of the exact value.
///
/// Domain: positive finite `x`, subnormals included; outside it the
/// result is unspecified. `ln(1.0)` is exactly `0.0`.
pub fn ln(x: f64) -> f64 {
    // Split x = 2^k · m with m in [√½, √2): the added bias makes a
    // mantissa of √2 or more carry into the exponent, which halves it.
    let (mut bits, mut k) = (x.to_bits(), 0i64);
    if x < f64::MIN_POSITIVE {
        bits = (x * (1u64 << 54) as f64).to_bits();
        k = -54;
    }
    bits += (0x3ff0_0000 - SQRT_HALF_HI) << 32;
    k += (bits >> 52) as i64 - 0x3ff;
    let m = f64::from_bits((bits & ((1 << 52) - 1)) + (SQRT_HALF_HI << 32));
    // f = m − 1 is exact; s = (m − 1)/(m + 1).
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r =
        z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6]))) + w * (LG[1] + w * (LG[3] + w * LG[5]));
    // ln m = f − f²/2 + s·(f²/2 + r), summed smallest terms first.
    let hfsq = 0.5 * f * f;
    let dk = k as f64;
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

#[cfg(test)]
mod tests {
    use super::ln;

    /// The bits on fixed inputs: a change to the constants, the reduction or
    /// the evaluation order moves one of these.
    #[test]
    fn ln_bits_are_pinned() {
        assert_eq!(ln(1.0).to_bits(), 0, "ln(1) must be +0 exactly");
        assert_eq!(ln(2.0), std::f64::consts::LN_2);
        let pinned = [
            (2.0, 0x3fe6_2e42_fefa_39ef),
            (0.5, 0xbfe6_2e42_fefa_39ef),
            (4.0, 0x3ff6_2e42_fefa_39ef),
            (1024.0, 0x401b_b9d3_beb8_c86b),
            (1.0 / 1024.0, 0xc01b_b9d3_beb8_c86b),
            (3.0, 0x3ff1_93ea_7aad_030a),
            (10.0, 0x4002_6bb1_bbb5_5516),
            (1e-12, 0xc03b_a18a_998f_ffa0),
            // The largest u below 1 that a caller draws: its key must stay
            // below zero.
            (1.0 - f64::EPSILON / 2.0, 0xbca0_0000_0000_0000),
            (f64::MIN_POSITIVE / 8.0, 0xc086_33ce_8fb9_f87e),
        ];
        for (x, bits) in pinned {
            assert_eq!(ln(x).to_bits(), bits, "ln({x:e}) = {:e}", ln(x));
        }
    }
}
