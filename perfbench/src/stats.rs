//! Summary statistics and the deterministic random source the benchmark
//! draws its inputs from.

/// The sorted copy of `xs`. Panics on NaN, which no timing produces.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

/// The `q`-quantile (`0 <= q <= 1`) with linear interpolation between
/// order statistics (the "type 7" rule of R and NumPy). `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median. `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// How many of `n` samples lie strictly beyond the `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = q * (n - 1) as f64;
    n - 1 - pos.floor() as usize
}

/// The `q`-quantile, only when at least ten samples lie beyond it: a tail
/// percentile resting on fewer samples is one sample's noise.
pub fn supported_quantile(xs: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(xs.len(), q) < 10 {
        return None;
    }
    quantile(xs, q)
}

/// The geometric mean of positive values. `None` when empty or when a
/// value is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// SplitMix64: a small, fast generator whose whole state is one `u64`, so
/// every input is a pure function of the seed and a position.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds.
    pub fn new(seed: u64) -> Self {
        let mut r = Rng(seed);
        r.next_u64();
        r
    }

    /// A generator for position `index` of the stream named by `seed`.
    pub fn at(seed: u64, index: u64) -> Self {
        Rng::new(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Fisher–Yates shuffle of `0..n` driven by `rng`.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 sits at position 989.01, leaving 10 beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        // 902 samples: position 891.99, so indices 892..=901 lie beyond.
        assert_eq!(samples_beyond(902, 0.99), 10);
        // 901 samples: position 891 exactly, so only 892..=900 lie beyond.
        assert_eq!(samples_beyond(901, 0.99), 9);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(supported_quantile(&xs, 0.99).is_some());
        assert!(supported_quantile(&xs[..901], 0.99).is_none());
        // p50 of 20 samples has 10 beyond it.
        assert!(supported_quantile(&xs[..20], 0.5).is_some());
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert_eq!(geomean(&[2.0, 8.0]), Some(4.0));
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_position() {
        assert_eq!(Rng::at(7, 3).next_u64(), Rng::at(7, 3).next_u64());
        assert_ne!(Rng::at(7, 3).next_u64(), Rng::at(8, 3).next_u64());
        assert_ne!(Rng::at(7, 3).next_u64(), Rng::at(7, 4).next_u64());
        let mut r = Rng::new(1);
        let p = permutation(10, &mut r);
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }
}
