//! Deterministic, forkable random number generation for simulations.

/// A deterministic random-number generator for simulation models.
///
/// `SimRng` wraps a fast non-cryptographic PRNG (xoshiro256++, seeded
/// through SplitMix64 — implemented here so the crate stays free of
/// external dependencies and builds offline). Identical seeds produce
/// identical streams on every platform, which is
/// what makes every experiment in this repository exactly reproducible.
///
/// Independent *substreams* are derived with [`SimRng::fork`]: forking
/// mixes the parent seed with a stream label through SplitMix64, so the
/// child stream is statistically independent of the parent and of
/// siblings, and insensitive to the order in which draws are made from
/// other streams. Models fork one stream per link / flow / epoch instead
/// of sharing a single generator, so adding a draw in one module never
/// perturbs another module's randomness.
///
/// # Example
///
/// ```
/// use simcore::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mut link = a.fork(7);
/// let p = link.uniform_f64();
/// assert!((0.0..1.0).contains(&p));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

/// The SplitMix64 output finalizer: a bijective 64-bit mixer that
/// spreads every input bit over the whole word. The one copy of it in
/// the workspace; each caller supplies its own pre-mix (SplitMix64
/// proper adds the golden-ratio increment first, see [`SimRng`]'s
/// seeding).
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes `u64` keys with [`mix64`]. For maps keyed by ids the program
/// made itself (flow ids, page numbers) whose iteration order nothing
/// reads: a keyed hash buys nothing there, and SipHash costs several
/// times as much per lookup.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mix64Hasher(u64);

impl std::hash::Hasher for Mix64Hasher {
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A map from program-made `u64` ids, hashed by [`Mix64Hasher`].
pub type Mix64Map<V> =
    std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<Mix64Hasher>>;

/// One SplitMix64 step: decorrelates related seeds.
fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

#[inline]
const fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        // Expand the (finalized) seed into four xoshiro256++ state words
        // with a SplitMix64 stream, as the algorithm's authors recommend.
        let mut z = splitmix64(seed);
        let mut state = [0u64; 4];
        for word in &mut state {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *word = splitmix64(z);
        }
        // The all-zero state is a fixed point of xoshiro; SplitMix64 never
        // produces four zero words in a row, but guard anyway.
        if state == [0, 0, 0, 0] {
            state[0] = 0x853C_49E6_748F_EA9B;
        }
        SimRng { seed, state }
    }

    /// Derives an independent substream labeled `stream`.
    ///
    /// Forking does not consume randomness from `self`, so the child is a
    /// pure function of `(parent seed, stream)`.
    #[must_use]
    pub fn fork(&self, stream: u64) -> SimRng {
        let child = splitmix64(self.seed ^ splitmix64(stream.wrapping_add(0xA5A5_5A5A_DEAD_BEEF)));
        SimRng::seed_from(child)
    }

    /// The seed this generator was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = rotl(s[0].wrapping_add(s[3]), 23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        result
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 random mantissa bits => uniform in [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid uniform range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        // Lemire's unbiased multiply-shift rejection method.
        let n = n as u64;
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform_f64() < p
        }
    }

    /// Exponential draw with the given mean (`mean = 1/λ`).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        let u = 1.0 - self.uniform_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Poisson draw with the given mean (Knuth's product-of-uniforms
    /// method, exact for any seedable stream). Large means are split
    /// recursively — the sum of two independent `Poisson(mean/2)` draws
    /// is `Poisson(mean)` — so `e^-mean` never underflows.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or non-finite.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(
            mean.is_finite() && mean >= 0.0,
            "poisson mean must be non-negative"
        );
        if mean == 0.0 {
            return 0;
        }
        if mean > 500.0 {
            let half = mean / 2.0;
            return self.poisson(half) + self.poisson(half);
        }
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform_f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Standard normal draw (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        // Marsaglia polar method: rejection-free enough and avoids trig.
        loop {
            let x = self.uniform_range(-1.0, 1.0);
            let y = self.uniform_range(-1.0, 1.0);
            let s = x * x + y * y;
            if s > 0.0 && s < 1.0 {
                return x * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal draw with given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or non-finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "std_dev must be non-negative"
        );
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal draw where the *underlying normal* has parameters
    /// `(mu, sigma)` — i.e. the median of the output is `exp(mu)`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto draw with scale `x_m > 0` and shape `alpha > 0` (heavy-tailed;
    /// used for flash-congestion magnitudes).
    ///
    /// # Panics
    ///
    /// Panics if `x_m` or `alpha` is not positive.
    pub fn pareto(&mut self, x_m: f64, alpha: f64) -> f64 {
        assert!(
            x_m > 0.0 && alpha > 0.0,
            "pareto parameters must be positive"
        );
        let u = 1.0 - self.uniform_f64(); // (0, 1]
        x_m / u.powf(1.0 / alpha)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Draws `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_matches_known_answers() {
        // Pinned finalizer outputs: a slip in the one shared copy fails
        // here before it moves any workload or seed derivation.
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0x5692_161D_100B_05E5);
        assert_eq!(mix64(7), 0x12AE_3023_7B17_DF14);
        assert_eq!(mix64(0xDEAD_BEEF), 0x4E06_2702_EC92_9EEA);
        assert_eq!(mix64(u64::MAX), 0xB4D0_55FC_F2CB_BD7B);
    }

    #[test]
    fn identical_seeds_give_identical_streams() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        parent2.next_u64(); // consuming the parent must not change the fork
        let mut f1 = parent1.fork(3);
        let mut f2 = parent2.fork(3);
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn sibling_forks_differ() {
        let parent = SimRng::seed_from(1);
        let mut f1 = parent.fork(1);
        let mut f2 = parent.fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn uniform_bounds_hold() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..10_000 {
            let u = rng.uniform_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(6);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn poisson_moments_are_close() {
        let mut rng = SimRng::seed_from(13);
        let n = 20_000;
        let draws: Vec<u64> = (0..n).map(|_| rng.poisson(4.0)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / f64::from(n);
        let var = draws
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 4.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.25, "var was {var}");
    }

    #[test]
    fn poisson_large_mean_survives_underflow() {
        // e^-5000 underflows to zero; the recursive split keeps the draw
        // exact. The relative sd at this mean is ~1.4%.
        let mut rng = SimRng::seed_from(14);
        let draws: Vec<u64> = (0..20).map(|_| rng.poisson(5_000.0)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / 20.0;
        assert!((4_800.0..5_200.0).contains(&mean), "mean was {mean}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        assert_eq!(SimRng::seed_from(1).poisson(0.0), 0);
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed_from(7);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.2, "var was {var}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut rng = SimRng::seed_from(8);
        let n = 50_001;
        let mut draws: Vec<f64> = (0..n).map(|_| rng.lognormal(1.0, 0.8)).collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = draws[n / 2];
        assert!((median - 1.0f64.exp()).abs() < 0.15, "median was {median}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::seed_from(9);
        for _ in 0..10_000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::seed_from(10);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-0.5));
        assert!(rng.bernoulli(1.5));
    }

    #[test]
    fn sample_indices_are_distinct() {
        let mut rng = SimRng::seed_from(11);
        let sample = rng.sample_indices(50, 20);
        assert_eq!(sample.len(), 20);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(sorted.iter().all(|&i| i < 50));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(12);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 100-element shuffle virtually never yields identity"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_zero_panics() {
        SimRng::seed_from(0).index(0);
    }
}
