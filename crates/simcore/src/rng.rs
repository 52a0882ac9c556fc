//! Seeded randomness and the distributions the workloads need.
//!
//! Everything is built on a self-contained xoshiro256++ generator (seeded
//! through SplitMix64 from a caller-supplied 64-bit seed), so a given seed
//! reproduces the exact same arrival process, prompt lengths and decode
//! lengths run after run — with zero external dependencies, which keeps the
//! workspace buildable offline. The non-uniform distributions (normal,
//! lognormal, Zipf) are implemented here directly.

/// A deterministic random source for simulations.
///
/// Core generator: xoshiro256++ (Blackman & Vigna), a small, fast, high
/// quality non-cryptographic PRNG. State is expanded from the seed via
/// SplitMix64 so similar seeds still give uncorrelated streams.
pub struct SimRng {
    state: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            gauss_spare: None,
        }
    }

    fn next(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator. Used to give each component
    /// (arrivals, lengths, predictor noise, ...) its own stream so adding a
    /// draw in one place does not perturb every other stream.
    pub fn fork(&mut self) -> SimRng {
        let seed = self.next();
        SimRng::seed_from_u64(seed)
    }

    /// Uniform draw in `[0, 1)` (53 random mantissa bits).
    pub fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng::range: empty range [{lo}, {hi})");
        // Fixed-point multiply maps a 64-bit draw onto the span; the bias is
        // below 2^-64 per unit of span, irrelevant for simulation draws and
        // (unlike rejection sampling) always consumes exactly one draw,
        // which keeps replay counting simple.
        let span = hi - lo;
        lo + ((self.next() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "SimRng::index: n must be positive");
        self.range(0, n as u64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential draw with the given rate (mean `1/rate`). Used for
    /// Poisson-process inter-arrival gaps.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "SimRng::exp: rate must be positive and finite, got {rate}"
        );
        // Inverse-CDF; 1 - f64() is in (0, 1] so ln() is finite.
        -(1.0 - self.f64()).ln() / rate
    }

    /// Standard normal draw (Box-Muller, with spare caching).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Polar Box-Muller: rejection-sample a point in the unit disc.
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.gauss_spare = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Lognormal draw parameterized by the mean/std-dev of the *underlying*
    /// normal (the conventional mu/sigma parameterization).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Lognormal draw parameterized by the desired mean and coefficient of
    /// variation of the *resulting* distribution — the form workload specs
    /// are written in ("mean 2000 tokens, cv 0.3").
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `cv < 0`.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        assert!(mean > 0.0, "lognormal mean must be positive, got {mean}");
        assert!(cv >= 0.0, "lognormal cv must be non-negative, got {cv}");
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        self.lognormal(mu, sigma2.sqrt())
    }

    /// Zipf draw over `{0, 1, ..., n-1}` with exponent `s` (rank 0 most
    /// likely). Used for skewed popularity, e.g. which model a scale-up
    /// targets or which shared prefix a chat request extends.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "SimRng::zipf: n must be positive");
        assert!(s >= 0.0, "SimRng::zipf: exponent must be non-negative");
        // Inverse-CDF over the explicit normalized weights. n is small in
        // every use here (model catalog sizes, prefix group counts), so the
        // O(n) walk is fine and exact.
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut u = self.f64() * norm;
        for k in 1..=n {
            let w = (k as f64).powf(-s);
            if u < w {
                return k - 1;
            }
            u -= w;
        }
        n - 1
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_are_independent_but_deterministic() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        let mut fa = a.fork();
        let mut fb = b.fork();
        assert_eq!(fa.next_u64(), fb.next_u64());
        // Parent stream continues identically after the fork.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gaussian_moments_are_close() {
        let mut r = SimRng::seed_from_u64(2);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_mean_cv_hits_targets() {
        let mut r = SimRng::seed_from_u64(3);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.lognormal_mean_cv(2000.0, 0.3)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 2000.0).abs() / 2000.0 < 0.02, "mean {mean}");
        assert!((cv - 0.3).abs() < 0.02, "cv {cv}");
    }

    #[test]
    fn lognormal_zero_cv_is_constant() {
        let mut r = SimRng::seed_from_u64(4);
        assert_eq!(r.lognormal_mean_cv(123.0, 0.0), 123.0);
    }

    #[test]
    fn zipf_is_monotone_in_rank() {
        let mut r = SimRng::seed_from_u64(5);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[r.zipf(5, 1.0)] += 1;
        }
        for w in counts.windows(2) {
            assert!(w[0] > w[1], "zipf counts not decreasing: {counts:?}");
        }
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut r = SimRng::seed_from_u64(6);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[r.zipf(4, 0.0)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "{counts:?}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from_u64(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
