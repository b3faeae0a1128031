//! Empirical statistics: CDFs, quantiles, MAD, binning.

/// An empirical cumulative distribution function over `f64` samples.
///
/// Non-finite samples are rejected at construction so that every query is
/// total.
///
/// # Example
///
/// ```
/// use measure::stats::Cdf;
/// let cdf = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(cdf.fraction_leq(2.0), 0.5);
/// assert_eq!(cdf.median(), 2.5);
/// assert_eq!(cdf.quantile(0.0), 1.0);
/// assert_eq!(cdf.quantile(1.0), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `samples` is empty or contains non-finite values.
    pub fn new(mut samples: Vec<f64>) -> Result<Self, CdfError> {
        if samples.is_empty() {
            return Err(CdfError::Empty);
        }
        if samples.iter().any(|x| !x.is_finite()) {
            return Err(CdfError::NonFinite);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ok(Cdf { sorted: samples })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` (construction rejects empty sample sets); present
    /// for the conventional `len`/`is_empty` pairing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fraction of samples `<= x`.
    #[must_use]
    pub fn fraction_leq(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples `> x`.
    #[must_use]
    pub fn fraction_gt(&self, x: f64) -> f64 {
        1.0 - self.fraction_leq(x)
    }

    /// The `q`-quantile (linear interpolation), `q` clamped to `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The median (0.5-quantile).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        let n = self.sorted.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }

    /// Median absolute deviation — the error bars of the paper's Fig. 9.
    #[must_use]
    pub fn mad(&self) -> f64 {
        let med = self.median();
        let devs: Vec<f64> = self.sorted.iter().map(|x| (x - med).abs()).collect();
        Cdf::new(devs)
            .expect("deviations of finite samples are finite")
            .median()
    }

    /// `(x, F(x))` points for plotting/rendering, one per sample.
    #[must_use]
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// The sorted samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Errors building a [`Cdf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdfError {
    /// No samples were provided.
    Empty,
    /// A sample was NaN or infinite.
    NonFinite,
}

impl core::fmt::Display for CdfError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CdfError::Empty => write!(f, "cannot build a CDF from zero samples"),
            CdfError::NonFinite => write!(f, "samples must be finite"),
        }
    }
}

impl std::error::Error for CdfError {}

/// Half-open value bins `[e0, e1), [e1, e2), …, [e_last, ∞)` — the
/// RTT/loss bins of Figs. 9 and 10.
///
/// # Example
///
/// ```
/// use measure::stats::Bins;
/// // The paper's RTT bins (ms): [0,70), [70,140), [140,210), [210,280), [280,∞).
/// let bins = Bins::new(vec![0.0, 70.0, 140.0, 210.0, 280.0]).unwrap();
/// assert_eq!(bins.index_of(65.0), Some(0));
/// assert_eq!(bins.index_of(300.0), Some(4));
/// assert_eq!(bins.index_of(-1.0), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bins {
    edges: Vec<f64>,
}

impl Bins {
    /// Builds bins from ascending edges.
    ///
    /// # Errors
    ///
    /// Returns `Err` if fewer than one edge is given or edges are not
    /// strictly ascending/finite.
    pub fn new(edges: Vec<f64>) -> Result<Self, CdfError> {
        if edges.is_empty() {
            return Err(CdfError::Empty);
        }
        if edges.iter().any(|e| !e.is_finite()) || edges.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CdfError::NonFinite);
        }
        Ok(Bins { edges })
    }

    /// Number of bins (the last is unbounded above).
    #[must_use]
    pub fn count(&self) -> usize {
        self.edges.len()
    }

    /// The bin index of `x`, or `None` if `x` is below the first edge.
    #[must_use]
    pub fn index_of(&self, x: f64) -> Option<usize> {
        if x < self.edges[0] {
            return None;
        }
        Some(self.edges.partition_point(|&e| e <= x) - 1)
    }

    /// Human-readable label of bin `i` (e.g. `"[70,140)"`, `"[280,inf)"`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn label(&self, i: usize) -> String {
        if i + 1 < self.edges.len() {
            format!("[{},{})", self.edges[i], self.edges[i + 1])
        } else {
            format!("[{},inf)", self.edges[i])
        }
    }

    /// Groups `(value, payload)` pairs into per-bin payload vectors;
    /// values below the first edge are dropped.
    #[must_use]
    pub fn group<T>(&self, items: impl IntoIterator<Item = (f64, T)>) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..self.count()).map(|_| Vec::new()).collect();
        for (x, payload) in items {
            if let Some(i) = self.index_of(x) {
                out[i].push(payload);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic test-case generator (SplitMix64), replacing the
    /// proptest strategies with a fixed reproducible stream.
    struct Gen(u64);

    impl Gen {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            simcore::rng::mix64(self.0)
        }

        /// Uniform in `[0, 1)`.
        fn f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.f64() * (hi - lo)
        }

        /// A vector of `len in lo..hi` samples from `[-bound, bound)`.
        fn samples(&mut self, bound: f64, lo: usize, hi: usize) -> Vec<f64> {
            let len = lo + (self.next_u64() % (hi - lo) as u64) as usize;
            (0..len).map(|_| self.range(-bound, bound)).collect()
        }
    }

    #[test]
    fn cdf_rejects_bad_input() {
        assert_eq!(Cdf::new(vec![]), Err(CdfError::Empty));
        assert_eq!(Cdf::new(vec![1.0, f64::NAN]), Err(CdfError::NonFinite));
        assert_eq!(Cdf::new(vec![f64::INFINITY]), Err(CdfError::NonFinite));
    }

    #[test]
    fn quantiles_interpolate() {
        let cdf = Cdf::new(vec![0.0, 10.0]).unwrap();
        assert_eq!(cdf.quantile(0.5), 5.0);
        assert_eq!(cdf.quantile(0.25), 2.5);
    }

    #[test]
    fn fraction_leq_counts_ties() {
        let cdf = Cdf::new(vec![1.0, 2.0, 2.0, 3.0]).unwrap();
        assert_eq!(cdf.fraction_leq(2.0), 0.75);
        assert_eq!(cdf.fraction_leq(1.9), 0.25);
        assert_eq!(cdf.fraction_gt(3.0), 0.0);
    }

    #[test]
    fn mean_median_mad() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(cdf.median(), 3.0);
        assert_eq!(cdf.mean(), 22.0);
        // MAD is robust to the outlier: deviations 2,1,0,1,97 → median 1.
        assert_eq!(cdf.mad(), 1.0);
    }

    #[test]
    fn std_dev_matches_hand_computation() {
        let cdf = Cdf::new(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        // Known example: population sd = 2; sample sd = 2.138...
        assert!((cdf.std_dev() - 2.138089935).abs() < 1e-6);
        assert_eq!(Cdf::new(vec![5.0]).unwrap().std_dev(), 0.0);
    }

    #[test]
    fn points_are_a_staircase_to_one() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0]).unwrap();
        let pts = cdf.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].0, 1.0);
        assert!((pts[2].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_rtt_bins_classify_correctly() {
        let bins = Bins::new(vec![0.0, 70.0, 140.0, 210.0, 280.0]).unwrap();
        assert_eq!(bins.count(), 5);
        assert_eq!(bins.index_of(0.0), Some(0));
        assert_eq!(bins.index_of(70.0), Some(1));
        assert_eq!(bins.index_of(139.9), Some(1));
        assert_eq!(bins.index_of(1_000.0), Some(4));
        assert_eq!(bins.label(1), "[70,140)");
        assert_eq!(bins.label(4), "[280,inf)");
    }

    #[test]
    fn group_drops_below_range_values() {
        let bins = Bins::new(vec![0.0, 10.0]).unwrap();
        let groups = bins.group(vec![(-5.0, 'a'), (5.0, 'b'), (15.0, 'c')]);
        assert_eq!(groups, vec![vec!['b'], vec!['c']]);
    }

    #[test]
    fn bins_reject_unsorted_edges() {
        assert!(Bins::new(vec![1.0, 1.0]).is_err());
        assert!(Bins::new(vec![2.0, 1.0]).is_err());
        assert!(Bins::new(vec![]).is_err());
    }

    #[test]
    fn quantile_is_within_sample_range() {
        let mut g = Gen(0xC0FFEE);
        for _ in 0..256 {
            let samples = g.samples(1e6, 1, 200);
            let q = g.f64();
            let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let cdf = Cdf::new(samples).unwrap();
            let v = cdf.quantile(q);
            assert!(v >= lo && v <= hi);
        }
    }

    #[test]
    fn fraction_leq_is_monotone() {
        let mut g = Gen(0xBEEF);
        for _ in 0..256 {
            let samples = g.samples(1e6, 1, 100);
            let a = g.range(-2e6, 2e6);
            let b = g.range(-2e6, 2e6);
            let cdf = Cdf::new(samples).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(cdf.fraction_leq(lo) <= cdf.fraction_leq(hi));
        }
    }

    #[test]
    fn bin_index_matches_linear_scan() {
        let mut g = Gen(0xB145);
        let edges = vec![0.0, 70.0, 140.0, 210.0, 280.0];
        let bins = Bins::new(edges.clone()).unwrap();
        for _ in 0..512 {
            let x = g.range(-10.0, 400.0);
            let expect = if x < 0.0 {
                None
            } else {
                let mut idx = edges.len() - 1;
                for (i, w) in edges.windows(2).enumerate() {
                    if x >= w[0] && x < w[1] {
                        idx = i;
                        break;
                    }
                }
                Some(idx)
            };
            assert_eq!(bins.index_of(x), expect, "x = {x}");
        }
    }
}
