//! A deterministic UCB path selector over smoothed goodput estimates.
//!
//! One bandit per endpoint pair; one arm per enumerated candidate path
//! (arm 0 = direct). Estimates are exponentially smoothed so a relay
//! that degrades mid-run is forgotten at a controlled rate, and the
//! exploration term is the classic UCB confidence width
//! `sqrt(ln(t) / n_arm)` scaled by the best current estimate so it is
//! commensurate with bits-per-second means. The explore/exploit split is
//! structural: probe *refresh* spends the budget on the arms with the
//! widest confidence (replacing the broker's flat age cutoff), while
//! carried traffic exploits the best smoothed mean outright.
//!
//! Determinism: the only randomness is an infinitesimal tie-breaking
//! jitter on probe priorities, drawn from the bandit's own forked
//! [`SimRng`] substream with one draw per arm per plan — a fixed draw
//! count, so callers replay byte-identically at any thread count.

use simcore::SimRng;

/// Tuning knobs for [`PathBandit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BanditConfig {
    /// Ground-truth probes the selector may spend per epoch per pair.
    pub probe_budget: u32,
    /// Exploration coefficient: confidence-width weight in arm scores.
    pub explore: f64,
    /// EWMA smoothing factor applied to new observations (0..=1; higher
    /// adapts faster, lower remembers longer).
    pub alpha: f64,
}

impl BanditConfig {
    /// Defaults used by the broker's multihop policy.
    #[must_use]
    pub fn service() -> BanditConfig {
        BanditConfig {
            probe_budget: 2,
            explore: 0.25,
            alpha: 0.4,
        }
    }
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig::service()
    }
}

/// A UCB bandit over one pair's candidate paths.
#[derive(Debug, Clone)]
pub struct PathBandit {
    cfg: BanditConfig,
    means: Vec<f64>,
    pulls: Vec<u64>,
    t: u64,
    rng: SimRng,
}

impl PathBandit {
    /// A fresh bandit with `n_arms` unpulled arms. `rng` must be a
    /// dedicated substream (fork it from the run seed).
    #[must_use]
    pub fn new(cfg: BanditConfig, n_arms: usize, rng: SimRng) -> PathBandit {
        PathBandit {
            cfg,
            means: vec![0.0; n_arms],
            pulls: vec![0; n_arms],
            t: 0,
            rng,
        }
    }

    /// Number of arms.
    #[must_use]
    pub fn n_arms(&self) -> usize {
        self.means.len()
    }

    /// Folds one goodput observation (probe result or the goodput of a
    /// flow actually carried on this arm) into the arm's estimate.
    pub fn observe(&mut self, arm: usize, bps: f64) {
        if self.pulls[arm] == 0 {
            self.means[arm] = bps;
        } else {
            self.means[arm] = (1.0 - self.cfg.alpha) * self.means[arm] + self.cfg.alpha * bps;
        }
        self.pulls[arm] += 1;
        self.t += 1;
    }

    /// The smoothed goodput estimate for an arm, bits per second.
    #[must_use]
    pub fn mean(&self, arm: usize) -> f64 {
        self.means[arm]
    }

    /// The UCB confidence width for an arm — large for rarely observed
    /// arms, shrinking as observations accumulate. This is the probe
    /// refresh priority.
    #[must_use]
    pub fn uncertainty(&self, arm: usize) -> f64 {
        (((self.t + 2) as f64).ln() / (self.pulls[arm] + 1) as f64).sqrt()
    }

    /// The arm's UCB score: smoothed mean plus the confidence width
    /// scaled to bps by the best current estimate.
    #[must_use]
    pub fn score(&self, arm: usize) -> f64 {
        self.means[arm] + self.cfg.explore * self.scale() * self.uncertainty(arm)
    }

    fn scale(&self) -> f64 {
        self.means.iter().fold(1.0, |a, &b| a.max(b))
    }

    /// The arm traffic should take among those `usable` admits: the
    /// best smoothed mean, ties to the lower index; `None` when no arm
    /// is usable. One pass, no allocation. Selection is deliberately
    /// greedy — exploration is paid for by the probe budget (and by the
    /// carried flow's free feedback), not by steering real traffic onto
    /// uncertain arms whose [`PathBandit::score`] is inflated.
    ///
    /// # Panics
    ///
    /// Panics if any arm's mean is NaN, usable or not.
    #[must_use]
    pub fn best_arm(&self, usable: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (a, &m) in self.means.iter().enumerate() {
            assert!(!m.is_nan(), "bandit means are finite");
            if best.is_none_or(|(_, bm)| m > bm) && usable(a) {
                best = Some((a, m));
            }
        }
        best.map(|(a, _)| a)
    }

    /// Allocates this epoch's probe budget, UCB-style: arms never
    /// observed come first (forced initial exploration), then the arms
    /// with the highest [`PathBandit::score`] — optimism-weighted
    /// uncertainty, so the budget keeps the plausible *contenders* fresh
    /// instead of sweeping arms already known to be poor. Exact ties are
    /// broken by a jitter draw from the bandit's substream (one draw per
    /// arm, every call — a fixed draw count for replay determinism),
    /// then by the lower index.
    ///
    /// One pass over the arms: the confidence scale and `ln(t + 2)` are
    /// computed once per plan, and the plan keeps only the best
    /// `budget` arms seen so far.
    ///
    /// # Panics
    ///
    /// Panics if any arm's priority is NaN.
    #[must_use]
    pub fn probe_plan(&mut self, budget: usize) -> Vec<usize> {
        let scale = self.scale();
        let jitter = 1e-9 * scale;
        let width = self.cfg.explore * scale;
        let ln_t = ((self.t + 2) as f64).ln();
        let k = budget.min(self.n_arms());
        let mut top = Vec::with_capacity(k);
        for a in 0..self.n_arms() {
            let uncertainty = (ln_t / (self.pulls[a] + 1) as f64).sqrt();
            let prio = self.means[a] + width * uncertainty + self.rng.uniform_f64() * jitter;
            assert!(!prio.is_nan(), "probe priorities are finite");
            keep_best(&mut top, k, (self.pulls[a] == 0, prio, a));
        }
        top.into_iter().map(|(_, _, a)| a).collect()
    }

    /// Discounts accumulated confidence (halves every pull count) so
    /// every arm looks uncertain again — the multihop analogue of a
    /// cache poisoning aging the broker's probe cache.
    pub fn forget(&mut self) {
        for p in &mut self.pulls {
            *p /= 2;
        }
        self.t /= 2;
    }
}

/// Offers `entry` = (unpulled, priority, arm) to `top`, the best
/// entries so far in plan order (unpulled first, then priority
/// descending), which keeps at most `k`. Arms are offered in ascending
/// index order, so an entry goes after every one it does not strictly
/// beat: equal keys keep the lower index first.
fn keep_best(top: &mut Vec<(bool, f64, usize)>, k: usize, entry: (bool, f64, usize)) {
    let (unpulled, prio, _) = entry;
    let at = top
        .iter()
        .position(|&(u, p, _)| (unpulled && !u) || (unpulled == u && prio > p))
        .unwrap_or(top.len());
    if at < k {
        top.truncate(k - 1);
        top.insert(at, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(7).fork(0xBAD1)
    }

    fn bandit(n: usize) -> PathBandit {
        PathBandit::new(BanditConfig::service(), n, rng())
    }

    #[test]
    fn converges_to_the_best_arm() {
        let mut b = bandit(4);
        for _ in 0..20 {
            for (arm, bps) in [(0, 10e6), (1, 40e6), (2, 25e6), (3, 5e6)] {
                b.observe(arm, bps);
            }
        }
        assert_eq!(b.best_arm(|_| true), Some(1));
        assert!((b.mean(1) - 40e6).abs() < 1.0);
    }

    #[test]
    fn adapts_when_the_chosen_arm_degrades() {
        let mut b = bandit(3);
        for _ in 0..10 {
            b.observe(0, 5e6);
            b.observe(1, 50e6);
            b.observe(2, 30e6);
        }
        assert_eq!(b.best_arm(|_| true), Some(1));
        // Arm 1's relay crashes: observed goodput collapses. The EWMA
        // must drop it below arm 2 within a handful of observations.
        let mut switched = None;
        for i in 0..10 {
            b.observe(1, 0.0);
            if b.best_arm(|_| true) == Some(2) {
                switched = Some(i);
                break;
            }
        }
        assert!(
            matches!(switched, Some(i) if i <= 4),
            "bandit failed to abandon a dead arm: {switched:?}"
        );
    }

    #[test]
    fn probe_plan_respects_budget_and_covers_all_arms() {
        let mut b = bandit(6);
        let mut seen = [false; 6];
        for _ in 0..3 {
            let plan = b.probe_plan(2);
            assert_eq!(plan.len(), 2);
            for arm in plan {
                seen[arm] = true;
                b.observe(arm, 1e6);
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "budgeted probing must sweep unpulled arms first: {seen:?}"
        );
    }

    #[test]
    fn uncertainty_prefers_unprobed_arms() {
        let mut b = bandit(3);
        b.observe(0, 1e6);
        b.observe(0, 1e6);
        b.observe(1, 1e6);
        assert!(b.uncertainty(2) > b.uncertainty(1));
        assert!(b.uncertainty(1) > b.uncertainty(0));
        assert_eq!(b.probe_plan(1), vec![2]);
    }

    #[test]
    fn forget_restores_uncertainty() {
        let mut b = bandit(2);
        for _ in 0..16 {
            b.observe(0, 1e6);
            b.observe(1, 2e6);
        }
        let before = b.uncertainty(0);
        b.forget();
        assert!(b.uncertainty(0) > before);
        // Means survive a poison — only confidence is lost.
        assert!((b.mean(1) - 2e6).abs() < 1.0);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let mut a = bandit(5);
        let mut b = bandit(5);
        for round in 0..8 {
            assert_eq!(a.probe_plan(2), b.probe_plan(2));
            a.observe(round % 5, round as f64);
            b.observe(round % 5, round as f64);
            for arm in 0..5 {
                assert_eq!(a.mean(arm).to_bits(), b.mean(arm).to_bits());
            }
            assert_eq!(a.best_arm(|_| true), b.best_arm(|_| true));
        }
    }

    /// The selection `best_arm` replaced: rank every arm by mean,
    /// descending, ties to the lower index, then take the first usable.
    fn ranked_find(b: &PathBandit, usable: impl Fn(usize) -> bool) -> Option<usize> {
        let mut order: Vec<usize> = (0..b.n_arms()).collect();
        order.sort_by(|&x, &y| {
            b.mean(y)
                .partial_cmp(&b.mean(x))
                .expect("bandit means are finite")
                .then(x.cmp(&y))
        });
        order.into_iter().find(|&a| usable(a))
    }

    /// `best_arm` picks what the sort-and-find did, on bandits whose
    /// means tie exactly (observations drawn from three rates, zero
    /// included) under random usability masks, with and without arm 0.
    #[test]
    fn best_arm_matches_the_ranked_search() {
        let mut rng = SimRng::seed_from(0xA2_B5);
        let (mut some, mut none) = (0, 0);
        for _ in 0..2_000 {
            let n = 1 + rng.index(8);
            let mut b = PathBandit::new(BanditConfig::service(), n, rng.fork(1));
            for _ in 0..rng.index(3 * n) {
                let bps = [0.0, 10e6, 25e6][rng.index(3)];
                b.observe(rng.index(n), bps);
            }
            let mask = rng.next_u64();
            let with_direct = rng.index(2) == 0;
            let usable = |a: usize| (with_direct || a != 0) && (mask >> a) & 1 == 1;
            let want = ranked_find(&b, usable);
            assert_eq!(
                b.best_arm(usable),
                want,
                "means {:?}, mask {mask:b}",
                b.means
            );
            if want.is_some() {
                some += 1;
            } else {
                none += 1;
            }
        }
        assert!(some > 500 && none > 100, "{some} / {none}");
    }

    /// The plan `probe_plan` replaced: score every arm (one jitter draw
    /// each, in arm order), sort them all, keep the first `budget`.
    fn sorted_plan(b: &mut PathBandit, budget: usize) -> Vec<usize> {
        let jitter = 1e-9 * b.scale();
        let mut prio: Vec<(bool, f64, usize)> = (0..b.n_arms())
            .map(|a| {
                (
                    b.pulls[a] == 0,
                    b.score(a) + b.rng.uniform_f64() * jitter,
                    a,
                )
            })
            .collect();
        prio.sort_by(|x, y| {
            y.0.cmp(&x.0)
                .then(y.1.partial_cmp(&x.1).expect("probe priorities are finite"))
                .then(x.2.cmp(&y.2))
        });
        prio.truncate(budget.min(b.n_arms()));
        prio.into_iter().map(|(_, _, a)| a).collect()
    }

    /// `probe_plan` picks what the sort did and leaves the substream
    /// where the sort left it, on bandits whose means tie exactly
    /// (observations drawn from three rates, zero included), with
    /// unpulled arms, after poisonings, at every budget from 0 to one
    /// past the arm count.
    #[test]
    fn probe_plan_matches_the_sorted_plan() {
        let mut rng = SimRng::seed_from(0x91A7);
        let (mut plans, mut unpulled_first) = (0, 0);
        for _ in 0..2_000 {
            let n = 1 + rng.index(30);
            let mut b = PathBandit::new(BanditConfig::service(), n, rng.fork(2));
            for _ in 0..rng.index(3 * n) {
                let bps = [0.0, 10e6, 25e6][rng.index(3)];
                b.observe(rng.index(n), bps);
            }
            if rng.index(4) == 0 {
                b.forget();
            }
            for budget in 0..=n + 1 {
                let mut want_b = b.clone();
                let want = sorted_plan(&mut want_b, budget);
                let got = b.probe_plan(budget);
                assert_eq!(got, want, "budget {budget}, means {:?}", b.means);
                assert_eq!(format!("{:?}", b.rng), format!("{:?}", want_b.rng));
                plans += 1;
                if got.first().is_some_and(|&a| b.pulls[a] == 0) && got.len() > 1 {
                    unpulled_first += 1;
                }
            }
        }
        assert!(
            plans > 30_000 && unpulled_first > 1_000,
            "{plans} / {unpulled_first}"
        );
    }

    /// The bounded selection keeps the sort's order on keys that tie
    /// exactly, which jittered priorities almost never do.
    #[test]
    fn keep_best_orders_exact_ties_like_the_sort() {
        let mut rng = SimRng::seed_from(0x71E5);
        for _ in 0..2_000 {
            let n = rng.index(12);
            let keys: Vec<(bool, f64, usize)> = (0..n)
                .map(|a| (rng.index(2) == 0, [0.0, 1.0, 2.0][rng.index(3)], a))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_by(|x, y| {
                y.0.cmp(&x.0)
                    .then(y.1.partial_cmp(&x.1).unwrap())
                    .then(x.2.cmp(&y.2))
            });
            for k in 0..=n {
                let mut top = Vec::new();
                for &key in &keys {
                    keep_best(&mut top, k, key);
                }
                assert_eq!(top, sorted[..k], "k {k}, keys {keys:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bandit means are finite")]
    fn best_arm_rejects_a_nan_mean() {
        let mut b = bandit(3);
        b.observe(0, 10e6);
        b.observe(2, f64::NAN);
        // Arm 2 is not usable, but its mean is still checked.
        let _ = b.best_arm(|a| a != 2);
    }
}
