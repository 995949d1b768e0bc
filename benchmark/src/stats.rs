//! Small statistics helpers: medians, percentiles that state their
//! support, failure ratios, a deterministic RNG and the digest that
//! pins simulated results.

/// Median of `v` (mean of the two middle values for an even count);
/// `None` when `v` is empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// Quantile `p` of `v`, interpolated as Python's `statistics.quantiles`
/// (exclusive method) places its cut points, extrapolating past the
/// outer samples as it does; `None` below two samples.
pub fn quantile(v: &[f64], p: f64) -> Option<f64> {
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let h = (n + 1) as f64 * p;
    let j = (h.floor() as usize).clamp(1, n - 1);
    let delta = h - j as f64;
    Some(s[j - 1] + (s[j] - s[j - 1]) * delta)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(v, n=4)` gives them; `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    Some([quantile(v, 0.25)?, quantile(v, 0.5)?, quantile(v, 0.75)?])
}

/// A percentile together with the sample support behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked above the percentile's own.
    pub beyond: usize,
}

/// Samples that must rank above a percentile before it is reported:
/// with fewer, the value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` of `v`, or `None` when fewer than
/// [`MIN_BEYOND`] samples rank above it.
pub fn percentile(v: &[f64], q: f64) -> Option<Percentile> {
    let n = v.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Percentile {
        value: s[rank - 1],
        samples: n,
        beyond,
    })
}

/// Failed (or refused) operations over operations attempted. `None`
/// when nothing was attempted: a ratio without a base is not reported.
pub fn failed_frac(failed: u64, attempted: u64) -> Option<f64> {
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

/// Geometric mean; `None` for an empty slice or a non-positive value.
pub fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

/// SplitMix64: the benchmark's only source of generated inputs, so a
/// seed fixes every input on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (salted so seed 0 is not degenerate).
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform `f32` in `[-1, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// FNV-1a over 64-bit words: folds every simulated statistic of a pass
/// into one value that must repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold several words.
    pub fn extend(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.add(w);
        }
    }

    /// Hex form for reports.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        // 199 samples: rank ceil(0.95·199) = 190, 9 beyond — refused.
        assert_eq!(percentile(&v, 0.95), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = percentile(&v, 0.95).expect("200 samples support p95");
        assert_eq!(p.value, 190.0);
        assert_eq!(p.samples, 200);
        assert_eq!(p.beyond, 10);
        // The median of 20 samples has exactly 10 beyond it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5).map(|p| p.beyond), Some(10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failed_frac_uses_attempted_as_base() {
        assert_eq!(failed_frac(3, 12), Some(0.25));
        assert_eq!(failed_frac(0, 7), Some(0.0));
        assert_eq!(failed_frac(0, 0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        // statistics.quantiles([1..=10], n=10)[0] == 1.1
        assert!((quantile(&v, 0.1).unwrap() - 1.1).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=10)[0] == 0.3 (extrapolated)
        assert!((quantile(&[2.0, 1.0], 0.1).unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn rng_and_digest_are_deterministic() {
        let a: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(9);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut r = Rng::new(10);
        assert_ne!(a[0], r.next_u64());
        for _ in 0..1000 {
            let u = r.unit();
            assert!((-1.0..1.0).contains(&u));
            assert!((5..9).contains(&r.range(5, 9)));
        }
        let (mut d1, mut d2) = (Digest::default(), Digest::default());
        d1.extend([1, 2]);
        d2.extend([2, 1]);
        assert_ne!(d1, d2, "order matters");
    }
}
