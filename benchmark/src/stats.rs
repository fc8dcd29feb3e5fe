//! Order statistics and digests shared by the harness.

/// Sorts a sample ascending (NaN-safe total order).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of a sample, with the repository's ceiling convention
/// (`netsim::ServiceReport::latency_quantile`, `bullet_bench::Series::quantile`):
/// the smallest value with at least `q` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of an empty sample");
    v[((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1]
}

/// The median: the middle value, or the mean of the two middle values.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The interquartile mean (midmean): the mean of what is left after dropping
/// the lowest and the highest quarter of the sample (`len / 4` values each).
/// A run reports every end-to-end metric as the midmean over its passes: the
/// passes are simulations of different seeds whose cost has a heavy upper
/// tail, and the midmean ignores that tail like a median while averaging
/// over twice as many values, so it moves less from run to run.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn midmean(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "midmean of an empty sample");
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `(max − min) ÷ median`: how far apart the passes of one run lie.
pub fn range_over_median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) if median(&v) != 0.0 => (hi - lo) / median(&v),
        _ => 0.0,
    }
}

/// 64-bit FNV-1a over a byte string: the digest of a canonical report.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: derives the seeds of a run's later passes from `--seed`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_uses_the_ceiling_convention() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[2.0], 0.9), 2.0);
    }

    #[test]
    fn midmean_drops_a_quarter_from_each_end() {
        // Nine values: two dropped per side, outliers and all.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, -50.0];
        assert_eq!(midmean(&v), (2.0 + 3.0 + 4.0 + 5.0 + 6.0) / 5.0);
        // Fewer than four values: nothing to drop, plain mean.
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(midmean(&[5.0]), 5.0);
    }

    #[test]
    fn range_over_median_is_zero_for_a_constant_sample() {
        assert_eq!(range_over_median(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(range_over_median(&[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix_spreads_neighbouring_seeds() {
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
