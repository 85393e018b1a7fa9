//! Deterministic random number generation for simulations.
//!
//! The engine must be reproducible across runs and platforms, so we carry
//! our own small PRNG (xoshiro256** seeded via SplitMix64) rather than
//! depending on `rand`'s version-dependent stream definitions. Every
//! simulation component derives its own stream from a root seed with
//! [`SimRng::fork`], so adding a new consumer never perturbs the draws seen
//! by existing ones.

/// SplitMix64 step: used for seeding and for stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second normal deviate from Box-Muller.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Derive an independent stream for a named sub-component.
    ///
    /// The label keeps forks stable as code evolves: a fork for `"network"`
    /// yields the same stream regardless of how many other forks exist.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Mix the label hash with this generator's state without consuming
        // from it, so forking is order-independent.
        let mut sm = self.s[0] ^ h.rotate_left(17) ^ self.s[3].rotate_left(31);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`. Requires `lo <= hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` using Lemire's method. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Rejection-free in the common case; unbiased overall.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal deviate (Box-Muller, with caching of the pair).
    pub(crate) fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        loop {
            let u1 = self.uniform();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2 = self.uniform();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            self.gauss_spare = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Log-normal multiplicative noise factor with median 1 and the given
    /// sigma of the underlying normal. Useful for modelling measurement
    /// noise on execution times.
    #[inline]
    pub fn lognormal_noise(&mut self, sigma: f64) -> f64 {
        (sigma * self.gaussian()).exp()
    }

    /// Exponential deviate with the given mean. Returns 0 for mean <= 0.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.uniform(); // in (0, 1]
        -mean * u.ln()
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_label_stable_and_order_independent() {
        let root = SimRng::new(7);
        let mut f1 = root.fork("network");
        let _ = root.fork("gpu");
        let mut f2 = root.fork("network");
        for _ in 0..16 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
        let mut g = root.fork("gpu");
        assert_ne!(g.next_u64(), root.fork("network").next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval_and_covers_it() {
        let mut r = SimRng::new(3);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99);
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(9);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SimRng::new(11);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let z = r.gaussian();
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean {mean}");
        assert_eq!(r.exponential(0.0), 0.0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn lognormal_noise_median_near_one() {
        let mut r = SimRng::new(23);
        let mut v: Vec<f64> = (0..10_001).map(|_| r.lognormal_noise(0.3)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[5_000];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }
}
