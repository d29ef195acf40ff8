//! Summary statistics over timing samples, and the seeded generator
//! every workload derives its inputs from.

/// The median of `xs` (mean of the middle pair for even lengths).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail of a latency sample: the highest whole percentile with at
/// least ten samples above it, as `(percentile, value)`. With ten or
/// fewer samples no percentile qualifies, and the tail is the maximum
/// (reported as percentile 100).
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let n = xs.len();
    if n <= 10 {
        let max = xs.iter().copied().fold(f64::NAN, f64::max);
        return (100, max);
    }
    // Samples strictly above the p-th percentile: n - ceil(p/100 * n).
    let p = (1..100)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= 10)
        .unwrap_or(1);
    (p, quantile(xs, f64::from(p) / 100.0))
}

/// The arithmetic mean (`NaN` when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// SplitMix64: a small, fully specified generator, so the same seed
/// derives the same workload inputs on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` in the stream named `stream` (distinct
    /// streams decorrelate the per-purpose draws of one seed).
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Fisher-Yates shuffle of `xs`.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, _) = tail(&xs);
        assert_eq!(p, 90);
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 80);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (100, 3.0));
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
