//! [`desim::ln`] against the standard library's `ln` over its callers'
//! domain.
//!
//! Both are within one ulp of the exact logarithm, but std's is the host's
//! libm and may differ by host; this test runs on one host and bounds the
//! distance between the two at one ulp. The three callers' inputs are drawn:
//! RanSub's u in [1e-12, 1), the arrival generator's 1 − u in (0, 1] and the
//! TCP model's slow-start ratios in [1, 2^40). A logarithm of a u below 1
//! must also stay below zero: RanSub's keys rely on it.

use desim::RngFactory;
use rand::Rng;

const DRAWS: usize = 120_000;
const MAX_ULPS: u64 = 1;

#[allow(
    clippy::disallowed_methods,
    reason = "std's ln is the reference desim::ln is checked against"
)]
fn std_ln(x: f64) -> f64 {
    x.ln()
}

fn ulps(a: f64, b: f64) -> u64 {
    assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a:e} vs {b:e}");
    a.to_bits().abs_diff(b.to_bits())
}

#[test]
fn ln_is_within_one_ulp_of_std_over_the_callers_domain() {
    let mut rng = RngFactory::new(0x5eed).stream("ln_reference");
    let mut worst = (0, 0.0);
    for i in 0..DRAWS {
        let x = match i % 3 {
            0 => rng.gen_range(1e-12..1.0),
            1 => 1.0 - rng.gen::<f64>(),
            // 2^e · (1 + f): log-uniform over [1, 2^40).
            _ => {
                f64::from_bits(((1023 + rng.gen_range(0..40u64)) << 52) | (rng.gen::<u64>() >> 12))
            }
        };
        let got = desim::ln(x);
        if x < 1.0 {
            assert!(got < 0.0, "ln({x:e}) = {got:e} is not below zero");
        }
        let d = ulps(got, std_ln(x));
        if d > worst.0 {
            worst = (d, x);
        }
    }
    assert!(
        worst.0 <= MAX_ULPS,
        "ln({:e}) is {} ulps from std's",
        worst.1,
        worst.0
    );
}
