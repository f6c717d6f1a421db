//! Seeded input generation. The generator is private to the benchmark
//! so the inputs a seed produces never change when the repository's
//! own random-number shim does.

/// SplitMix64: small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream derived from this seed (one per client,
    /// table, or phase), so adding draws to one stream never shifts
    /// another.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ stream);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Zipf-distributed ranks over `0..n`: rank `k` has weight
/// `1 / (k + 1)^theta`. Sampling inverts the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(7, 2).next_u64());
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(8, 1).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 0.9);
        let mut r = Rng::new(1);
        let mut counts = [0usize; 2];
        for _ in 0..20_000 {
            let k = z.sample(&mut r);
            assert!(k < 1000);
            counts[(k >= 10) as usize] += 1;
        }
        // The top 1% of ranks carries far more than 1% of the mass.
        assert!(counts[0] > 20_000 / 10);
    }
}
