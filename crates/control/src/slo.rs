//! Per-tenant service-level-objective accounting.
//!
//! Each tenant buys a target: a minimum throughput ratio versus the
//! direct Internet path (the paper's headline improvement metric turned
//! into a contract) and a completion-latency ceiling. The ledger counts
//! completions and violations per tenant; totals fold across parallel
//! work-unit shards via [`SloAccount::merge`], which is associative and
//! order-preserving for counters — so `--threads N` stays byte-identical
//! as long as shards merge in unit order.

use simcore::SimDuration;

/// Which objectives one completion breached, as reported by
/// [`SloAccount::record_completion`]. Callers that only want the ledger
/// totals can ignore it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breach {
    /// The achieved/direct throughput ratio fell below target.
    pub ratio: bool,
    /// The completion latency exceeded the ceiling.
    pub latency: bool,
}

impl Breach {
    /// Whether anything was breached.
    #[must_use]
    pub fn any(self) -> bool {
        self.ratio || self.latency
    }

    /// Bit mask for span operands: 1 = ratio, 2 = latency, 3 = both.
    #[must_use]
    pub fn mask(self) -> u64 {
        u64::from(self.ratio) | (u64::from(self.latency) << 1)
    }
}

/// One tenant's contract.
#[derive(Debug, Clone, Copy)]
pub struct SloTarget {
    /// Minimum achieved/direct throughput ratio (1.0 = "no worse than
    /// the default Internet path").
    pub min_throughput_ratio: f64,
    /// Maximum acceptable flow completion time.
    pub max_completion: SimDuration,
}

/// Per-tenant running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantAccount {
    /// Flows completed.
    pub completed: u64,
    /// Flows denied admission (each one counts as a violation).
    pub denied: u64,
    /// Completions below the throughput-ratio target.
    pub ratio_violations: u64,
    /// Completions over the latency ceiling.
    pub latency_violations: u64,
    /// Sum of achieved throughput ratios (for means).
    pub sum_ratio: f64,
    /// Sum of completion latencies (for means).
    pub sum_latency: SimDuration,
}

impl TenantAccount {
    /// All violations charged to this tenant (denials plus both target
    /// breaches; a completion can breach both targets at once).
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.denied + self.ratio_violations + self.latency_violations
    }

    /// Mean achieved/direct throughput ratio over completions.
    #[must_use]
    pub fn mean_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.sum_ratio / self.completed as f64
        }
    }

    /// Mean completion latency over completions.
    #[must_use]
    pub fn mean_latency(&self) -> SimDuration {
        if self.completed == 0 {
            SimDuration::ZERO
        } else {
            self.sum_latency / self.completed
        }
    }
}

/// The service-wide SLO ledger: one [`SloTarget`] and one
/// [`TenantAccount`] per tenant.
#[derive(Debug, Clone)]
pub struct SloAccount {
    targets: Vec<SloTarget>,
    tenants: Vec<TenantAccount>,
}

impl SloAccount {
    /// Creates a ledger with one zeroed account per target.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    #[must_use]
    pub fn new(targets: Vec<SloTarget>) -> SloAccount {
        assert!(!targets.is_empty(), "SLO ledger needs at least one tenant");
        let tenants = vec![TenantAccount::default(); targets.len()];
        SloAccount { targets, tenants }
    }

    /// Records a completed flow for `tenant`: `ratio` is achieved/direct
    /// throughput, `latency` the flow completion time. Violations are
    /// charged against the tenant's target; the returned [`Breach`] says
    /// which objectives this completion broke (so callers can emit a
    /// breach span without re-deriving the comparison).
    pub fn record_completion(&mut self, tenant: u32, ratio: f64, latency: SimDuration) -> Breach {
        let t = self.targets[tenant as usize];
        let a = &mut self.tenants[tenant as usize];
        a.completed += 1;
        a.sum_ratio += ratio;
        a.sum_latency += latency;
        let breach = Breach {
            ratio: ratio < t.min_throughput_ratio,
            latency: latency > t.max_completion,
        };
        if breach.ratio {
            a.ratio_violations += 1;
        }
        if breach.latency {
            a.latency_violations += 1;
        }
        breach
    }

    /// Records a denied admission for `tenant`.
    pub fn record_denial(&mut self, tenant: u32) {
        self.tenants[tenant as usize].denied += 1;
    }

    /// Total completions across tenants.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Total denials across tenants.
    #[must_use]
    pub fn denied(&self) -> u64 {
        self.tenants.iter().map(|t| t.denied).sum()
    }

    /// Total violations across tenants.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.tenants.iter().map(TenantAccount::violations).sum()
    }

    /// The per-tenant accounts.
    #[must_use]
    pub fn tenants(&self) -> &[TenantAccount] {
        &self.tenants
    }

    /// The per-tenant targets.
    #[must_use]
    pub fn targets(&self) -> &[SloTarget] {
        &self.targets
    }

    /// Folds another ledger (e.g. a parallel work unit's shard) into this
    /// one. Pure counter/sum addition: associative, so merging shards in
    /// unit order reproduces the serial run exactly.
    ///
    /// # Panics
    ///
    /// Panics if the two ledgers track different tenant counts.
    pub fn merge(&mut self, other: &SloAccount) {
        assert_eq!(
            self.tenants.len(),
            other.tenants.len(),
            "merging SLO ledgers with different tenant counts"
        );
        for (a, b) in self.tenants.iter_mut().zip(&other.tenants) {
            a.completed += b.completed;
            a.denied += b.denied;
            a.ratio_violations += b.ratio_violations;
            a.latency_violations += b.latency_violations;
            a.sum_ratio += b.sum_ratio;
            a.sum_latency += b.sum_latency;
        }
    }

    /// Exports totals through `obs` under a namespace prefix (`control.`,
    /// or e.g. `control.shard3.`; see `crate::shard`): `slo.completed` /
    /// `slo.violations` plus per-tenant labeled counters. No-op while
    /// collection is disabled.
    pub fn publish_prefixed(&self, prefix: &str) {
        let completed = format!("{prefix}slo.completed");
        let violations = format!("{prefix}slo.violations");
        obs::add_named(&completed, self.completed());
        obs::add_named(&violations, self.violations());
        for (i, t) in self.tenants.iter().enumerate() {
            let label = format!("tenant={i}");
            obs::add_named(&obs::labeled(&completed, &label), t.completed);
            obs::add_named(&obs::labeled(&violations, &label), t.violations());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> SloAccount {
        SloAccount::new(vec![
            SloTarget {
                min_throughput_ratio: 1.0,
                max_completion: SimDuration::from_secs(30),
            },
            SloTarget {
                min_throughput_ratio: 0.5,
                max_completion: SimDuration::from_secs(300),
            },
        ])
    }

    #[test]
    fn violations_are_counted_per_target() {
        let mut s = ledger();
        // Tenant 0: meets both targets.
        s.record_completion(0, 1.2, SimDuration::from_secs(10));
        // Tenant 0: breaches ratio only.
        s.record_completion(0, 0.8, SimDuration::from_secs(10));
        // Tenant 0: breaches both at once — two violations.
        s.record_completion(0, 0.8, SimDuration::from_secs(60));
        // Tenant 1's looser target tolerates the same flow.
        s.record_completion(1, 0.8, SimDuration::from_secs(60));
        let t0 = s.tenants()[0];
        assert_eq!(t0.completed, 3);
        assert_eq!(t0.ratio_violations, 2);
        assert_eq!(t0.latency_violations, 1);
        assert_eq!(t0.violations(), 3);
        assert_eq!(s.tenants()[1].violations(), 0);
        assert_eq!(s.completed(), 4);
        assert_eq!(s.violations(), 3);
    }

    #[test]
    fn breach_report_matches_the_ledger() {
        let mut s = ledger();
        let clean = s.record_completion(0, 1.2, SimDuration::from_secs(10));
        assert!(!clean.any());
        assert_eq!(clean.mask(), 0);
        let ratio = s.record_completion(0, 0.8, SimDuration::from_secs(10));
        assert_eq!(
            ratio,
            Breach {
                ratio: true,
                latency: false
            }
        );
        assert_eq!(ratio.mask(), 1);
        let both = s.record_completion(0, 0.8, SimDuration::from_secs(60));
        assert_eq!(both.mask(), 3);
        assert_eq!(s.tenants()[0].ratio_violations, 2);
        assert_eq!(s.tenants()[0].latency_violations, 1);
    }

    #[test]
    fn exact_target_values_do_not_violate() {
        let mut s = ledger();
        s.record_completion(0, 1.0, SimDuration::from_secs(30));
        assert_eq!(s.violations(), 0, "targets are inclusive bounds");
    }

    #[test]
    fn denials_are_violations() {
        let mut s = ledger();
        s.record_denial(1);
        s.record_denial(1);
        assert_eq!(s.tenants()[1].denied, 2);
        assert_eq!(s.violations(), 2);
        assert_eq!(s.completed(), 0);
    }

    #[test]
    fn means_summarize_completions() {
        let mut s = ledger();
        s.record_completion(0, 1.0, SimDuration::from_secs(10));
        s.record_completion(0, 3.0, SimDuration::from_secs(30));
        let t = s.tenants()[0];
        assert!((t.mean_ratio() - 2.0).abs() < 1e-12);
        assert_eq!(t.mean_latency(), SimDuration::from_secs(20));
        assert_eq!(s.tenants()[1].mean_ratio(), 0.0);
        assert_eq!(s.tenants()[1].mean_latency(), SimDuration::ZERO);
    }

    #[test]
    fn merge_reproduces_the_serial_ledger() {
        let mut serial = ledger();
        let mut shard_a = ledger();
        let mut shard_b = ledger();
        serial.record_completion(0, 0.4, SimDuration::from_secs(40));
        shard_a.record_completion(0, 0.4, SimDuration::from_secs(40));
        serial.record_denial(1);
        shard_a.record_denial(1);
        serial.record_completion(1, 0.9, SimDuration::from_secs(5));
        shard_b.record_completion(1, 0.9, SimDuration::from_secs(5));
        let mut merged = ledger();
        merged.merge(&shard_a);
        merged.merge(&shard_b);
        assert_eq!(merged.tenants(), serial.tenants());
        assert_eq!(merged.violations(), serial.violations());
    }

    #[test]
    #[should_panic(expected = "different tenant counts")]
    fn merge_rejects_mismatched_shapes() {
        let mut a = ledger();
        let b = SloAccount::new(vec![SloTarget {
            min_throughput_ratio: 1.0,
            max_completion: SimDuration::ZERO,
        }]);
        a.merge(&b);
    }
}
