//! Online admission and path selection from a staleness-bounded probe
//! cache.
//!
//! The paper's service model (§VI) assumes the provider cannot probe
//! every client pair at every instant: path measurements arrive on a
//! probing schedule and decisions in between run against cached — and
//! possibly stale — state. [`Broker`] captures exactly that: probes are
//! [`cronets::eval::PairProbe`]s stamped with their measurement time, a
//! decision consults the freshest probe for the pair, and when the probe
//! has aged past [`BrokerConfig::max_probe_age`] the broker falls back to
//! the direct path rather than steering onto an overlay it can no longer
//! vouch for.
//!
//! Pairs are named by their index in the caller's pair catalogue, under
//! both policies: the probe cache is one slot per pair, so a decision
//! neither hashes nor allocates.

use std::fmt;

use cronets::eval::PairProbe;
use cronets::select::{achieved, best_choice_filtered, PathChoice};
use paths::{ArmEval, BanditConfig, Candidate, Hops, PathBandit};
use simcore::{SimDuration, SimRng, SimTime};

/// Which path-selection engine the broker runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PathsPolicy {
    /// The paper's engine: direct vs. one relay hop, chosen from the
    /// staleness-bounded probe cache.
    #[default]
    OneHop,
    /// The k-hop engine: a UCB bandit over enumerated relay chains with
    /// budgeted, uncertainty-driven probe refresh.
    MultiHop,
}

impl PathsPolicy {
    /// Parses a `--paths` CLI value. Unknown values return `None` so the
    /// CLI can exit non-zero with a usage hint.
    #[must_use]
    pub fn parse(s: &str) -> Option<PathsPolicy> {
        match s {
            "onehop" => Some(PathsPolicy::OneHop),
            "multihop" => Some(PathsPolicy::MultiHop),
            _ => None,
        }
    }
}

impl fmt::Display for PathsPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PathsPolicy::OneHop => "onehop",
            PathsPolicy::MultiHop => "multihop",
        })
    }
}

/// Broker policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    /// Probes older than this are treated as stale: the broker stops
    /// trusting overlay measurements and falls back to direct.
    pub max_probe_age: SimDuration,
    /// Flows whose expected throughput falls below this (bits/second)
    /// are denied admission outright.
    pub min_accept_bps: f64,
    /// An overlay path is only chosen when its expected throughput beats
    /// the direct path by at least this factor (hysteresis against
    /// steering flows through relays for negligible gain).
    pub overlay_margin: f64,
}

/// A cached path measurement for one endpoint pair.
#[derive(Debug, Clone)]
struct Probe {
    at: SimTime,
    eval: PairProbe,
}

/// Per-decision counters, kept locally so the broker is testable without
/// the `obs` registry; [`Broker::publish_prefixed`] exports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Flows admitted (overlay + direct).
    pub admitted: u64,
    /// Flows denied admission (below the throughput floor).
    pub denied: u64,
    /// Admissions steered through an overlay relay.
    pub overlay: u64,
    /// Admissions sent down the direct path with a fresh probe.
    pub direct: u64,
    /// Admissions that fell back to direct because the probe was stale
    /// or missing.
    pub stale_fallback: u64,
    /// Admissions steered through a multi-hop relay chain (a subset of
    /// `overlay`; only the multihop policy produces them).
    pub chain: u64,
    /// Ground-truth probes spent by the budgeted bandit refresh.
    pub probe_spent: u64,
    /// Bandit refresh rounds executed (one per pair per epoch).
    pub probe_refreshes: u64,
}

impl BrokerStats {
    /// Folds another shard's counters into this one. All fields are
    /// additive event counts, so the merge is associative; the sharded
    /// service still folds in region order for uniformity.
    pub fn absorb(&mut self, other: &BrokerStats) {
        self.admitted += other.admitted;
        self.denied += other.denied;
        self.overlay += other.overlay;
        self.direct += other.direct;
        self.stale_fallback += other.stale_fallback;
        self.chain += other.chain;
        self.probe_spent += other.probe_spent;
        self.probe_refreshes += other.probe_refreshes;
    }
}

/// The broker's verdict for one flow request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Steer through overlay node `node`; `bps` is the expected
    /// (probe-time) throughput.
    Overlay {
        /// Overlay node index in `Cronet::nodes` order.
        node: usize,
        /// Expected split-mode throughput, bits/second.
        bps: f64,
    },
    /// Use the default Internet path; `bps` is the expected throughput
    /// (zero when no probe was ever taken for the pair).
    Direct {
        /// Expected direct-path throughput, bits/second.
        bps: f64,
    },
    /// Steer through the multi-hop relay chain `hops` (two or more
    /// relays; one-hop chains surface as [`Decision::Overlay`]).
    Chain {
        /// The relay chain, in traversal order.
        hops: Hops,
        /// Expected end-to-end split-mode throughput, bits/second.
        bps: f64,
    },
    /// Refuse the flow (expected throughput below the admission floor).
    Deny,
}

/// A set of overlay nodes, one bit per node index.
type RelayMask = u64;

/// One pair's multihop state: the (fixed) candidate chains, the relays
/// each one rides and the bandit learning their goodput.
#[derive(Debug)]
struct PairPaths {
    cands: Vec<Candidate>,
    /// `relays[a]` holds the nodes arm `a` rides (0 for direct).
    relays: Vec<RelayMask>,
    bandit: PathBandit,
}

/// Multihop-policy state, present only after
/// [`Broker::enable_multihop`].
#[derive(Debug)]
struct Multihop {
    pairs: Vec<PairPaths>,
    budget: u32,
    /// Every node some arm rides: the relays a decision reads.
    nodes: RelayMask,
}

impl Multihop {
    /// The nodes among those some arm rides that `relay_free` reports
    /// full, each asked once.
    fn busy(&self, relay_free: impl Fn(usize) -> bool) -> RelayMask {
        let mut busy = 0;
        let mut rest = self.nodes;
        while rest != 0 {
            let n = rest.trailing_zeros();
            if !relay_free(n as usize) {
                busy |= 1 << n;
            }
            rest &= rest - 1;
        }
        busy
    }
}

/// Online admission + path-selection engine (see module docs).
#[derive(Debug)]
pub struct Broker {
    cfg: BrokerConfig,
    /// The cached probe of each pair, by pair index.
    probes: Vec<Option<Probe>>,
    stats: BrokerStats,
    multihop: Option<Multihop>,
}

impl Broker {
    /// Creates a broker with an empty probe cache.
    #[must_use]
    pub fn new(cfg: BrokerConfig) -> Broker {
        Broker {
            cfg,
            probes: Vec::new(),
            stats: BrokerStats::default(),
            multihop: None,
        }
    }

    /// Installs (or refreshes) the probe for `pair`, measured at `at`.
    pub fn observe(&mut self, pair: usize, at: SimTime, eval: PairProbe) {
        if pair >= self.probes.len() {
            self.probes.resize_with(pair + 1, || None);
        }
        self.probes[pair] = Some(Probe { at, eval });
    }

    /// Number of pairs with a cached probe (fresh or stale).
    #[must_use]
    pub fn probed_pairs(&self) -> usize {
        self.probes.iter().flatten().count()
    }

    /// Ages every cached probe by `by`, as if it had been measured that
    /// much earlier. This is the fault layer's cache-poisoning injection:
    /// probes pushed past [`BrokerConfig::max_probe_age`] stop steering
    /// flows onto overlays and the broker degrades to direct-path
    /// admission until the next refresh.
    pub fn age_probes(&mut self, by: SimDuration) {
        for p in self.probes.iter_mut().flatten() {
            p.at = SimTime::ZERO + p.at.saturating_duration_since(SimTime::ZERO + by);
        }
    }

    /// Decides admission and path for a flow request on `pair` at `now`.
    /// `relay_free(node)` reports whether overlay node `node` currently
    /// has spare concurrent-flow capacity — relays at capacity are
    /// excluded from selection, not queued on.
    pub fn decide(
        &mut self,
        pair: usize,
        now: SimTime,
        relay_free: impl Fn(usize) -> bool,
    ) -> Decision {
        let probe = self.probes.get(pair).and_then(Option::as_ref);
        let fresh = probe.filter(|p| now.saturating_duration_since(p.at) <= self.cfg.max_probe_age);
        let Some(Probe { eval, .. }) = fresh else {
            // Stale or missing probe: never steer onto an overlay blind.
            // The direct path is the Internet default and needs no state;
            // admit at the last-known direct rate (0 when never probed).
            self.stats.stale_fallback += 1;
            self.stats.admitted += 1;
            let bps = probe.map_or(0.0, |p| p.eval.direct.throughput_bps);
            return Decision::Direct { bps };
        };
        let direct_bps = eval.direct.throughput_bps;
        let mut choice = best_choice_filtered(eval, relay_free);
        if let PathChoice::Overlay(_) = choice {
            // Hysteresis: marginal overlay wins are not worth a relay slot.
            if achieved(eval, choice) < self.cfg.overlay_margin * direct_bps {
                choice = PathChoice::Direct;
            }
        }
        let bps = achieved(eval, choice);
        if bps < self.cfg.min_accept_bps {
            self.stats.denied += 1;
            return Decision::Deny;
        }
        self.stats.admitted += 1;
        match choice {
            PathChoice::Overlay(node) => {
                self.stats.overlay += 1;
                Decision::Overlay { node, bps }
            }
            PathChoice::Direct => {
                self.stats.direct += 1;
                Decision::Direct { bps }
            }
        }
    }

    /// Switches the broker to the multihop bandit policy: one
    /// [`PathBandit`] per endpoint pair over that pair's enumerated
    /// candidate chains (`candidates[pair][0]` must be the direct arm).
    /// The broker owns the chains from here on
    /// ([`Broker::candidates`]). Each bandit draws from its own
    /// substream forked from `seed`, so decisions replay
    /// byte-identically at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if a pair's first candidate is not the direct arm, or if a
    /// chain rides a node index the relay mask cannot hold (64 or
    /// more).
    pub fn enable_multihop(
        &mut self,
        candidates: Vec<Vec<Candidate>>,
        cfg: BanditConfig,
        seed: u64,
    ) {
        let root = SimRng::seed_from(seed).fork(0xB0_D175);
        let mut nodes: RelayMask = 0;
        let pairs = candidates
            .into_iter()
            .enumerate()
            .map(|(i, cands)| {
                assert!(
                    cands.first().is_some_and(|c| c.hops.is_empty()),
                    "candidate 0 must be the direct arm"
                );
                let relays: Vec<RelayMask> = cands
                    .iter()
                    .map(|c| {
                        c.hops.iter().fold(0, |m, n| {
                            assert!(
                                n < RelayMask::BITS as usize,
                                "overlay node {n} does not fit the relay mask"
                            );
                            m | (1 << n)
                        })
                    })
                    .collect();
                nodes |= relays.iter().fold(0, |m, r| m | r);
                let bandit = PathBandit::new(cfg, cands.len(), root.fork(i as u64));
                PairPaths {
                    cands,
                    relays,
                    bandit,
                }
            })
            .collect();
        self.multihop = Some(Multihop {
            budget: cfg.probe_budget,
            pairs,
            nodes,
        });
    }

    /// Pair `pair`'s candidate chains, in arm order.
    ///
    /// # Panics
    ///
    /// Panics if the multihop policy is not enabled.
    #[must_use]
    pub fn candidates(&self, pair: usize) -> &[Candidate] {
        let mh = self.multihop.as_ref().expect("multihop policy not enabled");
        &mh.pairs[pair].cands
    }

    /// Seeds every arm of `pair` from a full ground-truth sweep — the
    /// epoch-0 bootstrap, analogous to the one-hop loop's first probe
    /// refresh.
    pub fn seed_paths(&mut self, pair: usize, truth: &[ArmEval]) {
        let mh = self.multihop.as_mut().expect("multihop policy not enabled");
        let p = &mut mh.pairs[pair];
        assert_eq!(truth.len(), p.cands.len(), "one truth per arm");
        for (arm, t) in truth.iter().enumerate() {
            p.bandit.observe(arm, t.bps);
        }
        self.stats.probe_spent += truth.len() as u64;
        self.stats.probe_refreshes += 1;
    }

    /// Spends this epoch's probe budget on `pair`: the arms the bandit
    /// is least certain about get their estimates refreshed from
    /// `truth`. This replaces the one-hop policy's flat age cutoff —
    /// refresh priority *is* the bandit's uncertainty.
    pub fn probe_paths(&mut self, pair: usize, truth: &[ArmEval]) {
        let mh = self.multihop.as_mut().expect("multihop policy not enabled");
        let p = &mut mh.pairs[pair];
        assert_eq!(truth.len(), p.cands.len(), "one truth per arm");
        for arm in p.bandit.probe_plan(mh.budget as usize) {
            p.bandit.observe(arm, truth[arm].bps);
            self.stats.probe_spent += 1;
        }
        self.stats.probe_refreshes += 1;
    }

    /// Folds the goodput a carried flow actually achieved back into the
    /// arm that carried it. Selection observations cost no probe budget
    /// — the provider sees its own flows — and they are what lets the
    /// bandit abandon a chain the moment a fault degrades a leg.
    pub fn learn_path(&mut self, pair: usize, arm: usize, bps: f64) {
        let mh = self.multihop.as_mut().expect("multihop policy not enabled");
        mh.pairs[pair].bandit.observe(arm, bps);
    }

    /// The multihop analogue of [`Broker::age_probes`] cache poisoning:
    /// every bandit loses accumulated confidence, so refresh pressure
    /// spikes until the budget re-probes the arms.
    pub fn poison_paths(&mut self) {
        let mh = self.multihop.as_mut().expect("multihop policy not enabled");
        for p in &mut mh.pairs {
            p.bandit.forget();
        }
    }

    /// Decides admission and path for a flow on `pair` under the bandit
    /// policy. Mirrors [`Broker::decide`]'s margin and floor rules, but
    /// expected rates come from the bandit's smoothed estimates and the
    /// path may be a multi-relay chain — every relay on it must be
    /// free. `relay_free` is asked once per node, into a mask of busy
    /// relays that each arm's relay mask is tested against. Returns the
    /// decision plus the chosen arm index (0 = direct).
    pub fn decide_paths(
        &mut self,
        pair: usize,
        relay_free: impl Fn(usize) -> bool,
    ) -> (Decision, usize) {
        let mh = self.multihop.as_ref().expect("multihop policy not enabled");
        let busy = mh.busy(relay_free);
        let p = &mh.pairs[pair];
        let direct_bps = p.bandit.mean(0);
        let best = p.bandit.best_arm(|a| a != 0 && p.relays[a] & busy == 0);
        if let Some(arm) = best {
            let bps = p.bandit.mean(arm);
            if bps >= self.cfg.overlay_margin * direct_bps && bps >= self.cfg.min_accept_bps {
                let hops = p.cands[arm].hops;
                self.stats.admitted += 1;
                self.stats.overlay += 1;
                return if hops.len() == 1 {
                    (
                        Decision::Overlay {
                            node: hops.get(0),
                            bps,
                        },
                        arm,
                    )
                } else {
                    self.stats.chain += 1;
                    (Decision::Chain { hops, bps }, arm)
                };
            }
        }
        if direct_bps >= self.cfg.min_accept_bps {
            self.stats.admitted += 1;
            self.stats.direct += 1;
            (Decision::Direct { bps: direct_bps }, 0)
        } else {
            self.stats.denied += 1;
            (Decision::Deny, 0)
        }
    }

    /// The decision counters so far.
    #[must_use]
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// Exports the decision counters through `obs` under a namespace
    /// prefix (`control.`, or e.g. `control.shard3.`; see
    /// `crate::shard`). No-op while collection is disabled.
    pub fn publish_prefixed(&self, prefix: &str) {
        crate::shard::publish_broker_stats(prefix, &self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronets::eval::{Measurement, OverlayProbe};

    fn meas(bps: f64) -> Measurement {
        Measurement {
            throughput_bps: bps,
            rtt: SimDuration::from_millis(50),
            loss: 0.01,
        }
    }

    fn eval(direct: f64, overlays: &[f64]) -> PairProbe {
        PairProbe {
            direct: meas(direct),
            overlays: overlays
                .iter()
                .enumerate()
                .map(|(i, &bps)| OverlayProbe {
                    node: i,
                    split: meas(bps),
                })
                .collect(),
        }
    }

    fn cfg() -> BrokerConfig {
        BrokerConfig {
            max_probe_age: SimDuration::from_secs(100),
            min_accept_bps: 1_000_000.0,
            overlay_margin: 1.05,
        }
    }

    /// The pair index every one-hop test decides on.
    const PAIR: usize = 3;

    #[test]
    fn fresh_probe_steers_to_the_best_free_overlay() {
        let mut b = Broker::new(cfg());
        b.observe(PAIR, SimTime::ZERO, eval(10e6, &[30e6, 50e6]));
        let got = b.decide(PAIR, SimTime::ZERO + SimDuration::from_secs(10), |_| true);
        assert_eq!(got, Decision::Overlay { node: 1, bps: 50e6 });
        assert_eq!(b.stats().overlay, 1);
        assert_eq!(b.stats().admitted, 1);
    }

    #[test]
    fn busy_relays_are_excluded() {
        let mut b = Broker::new(cfg());
        b.observe(PAIR, SimTime::ZERO, eval(10e6, &[30e6, 50e6]));
        let got = b.decide(PAIR, SimTime::ZERO, |n| n != 1);
        assert_eq!(got, Decision::Overlay { node: 0, bps: 30e6 });
        let got = b.decide(PAIR, SimTime::ZERO, |_| false);
        assert_eq!(got, Decision::Direct { bps: 10e6 });
        assert_eq!(b.stats().direct, 1);
        assert_eq!(
            b.stats().stale_fallback,
            0,
            "direct-by-capacity is not a stale fallback"
        );
    }

    #[test]
    fn stale_probe_falls_back_to_direct() {
        let mut b = Broker::new(cfg());
        b.observe(PAIR, SimTime::ZERO, eval(10e6, &[50e6]));
        let fresh_at = SimTime::ZERO + SimDuration::from_secs(100);
        assert_eq!(
            b.decide(PAIR, fresh_at, |_| true),
            Decision::Overlay { node: 0, bps: 50e6 },
            "age == max_probe_age is still fresh"
        );
        let stale_at = SimTime::ZERO + SimDuration::from_secs(101);
        assert_eq!(
            b.decide(PAIR, stale_at, |_| true),
            Decision::Direct { bps: 10e6 }
        );
        assert_eq!(b.stats().stale_fallback, 1);
        assert_eq!(b.stats().admitted, 2);
    }

    #[test]
    fn unprobed_pair_admits_direct_at_zero_rate() {
        let mut b = Broker::new(cfg());
        assert_eq!(
            b.decide(PAIR, SimTime::ZERO, |_| true),
            Decision::Direct { bps: 0.0 }
        );
        assert_eq!(b.stats().stale_fallback, 1);
        assert_eq!(b.probed_pairs(), 0);
        // Probing one pair leaves the pairs below it unprobed.
        b.observe(PAIR, SimTime::ZERO, eval(10e6, &[50e6]));
        assert_eq!(b.probed_pairs(), 1);
        assert_eq!(
            b.decide(PAIR - 1, SimTime::ZERO, |_| true),
            Decision::Direct { bps: 0.0 }
        );
        assert_eq!(b.stats().stale_fallback, 2);
    }

    #[test]
    fn refreshing_a_probe_restores_overlay_service() {
        let mut b = Broker::new(cfg());
        b.observe(PAIR, SimTime::ZERO, eval(10e6, &[50e6]));
        let later = SimTime::ZERO + SimDuration::from_secs(500);
        assert_eq!(
            b.decide(PAIR, later, |_| true),
            Decision::Direct { bps: 10e6 }
        );
        b.observe(PAIR, later, eval(12e6, &[60e6]));
        assert_eq!(
            b.decide(PAIR, later, |_| true),
            Decision::Overlay { node: 0, bps: 60e6 }
        );
    }

    #[test]
    fn poisoned_cache_degrades_to_direct_until_refreshed() {
        let mut b = Broker::new(cfg());
        let t0 = SimTime::ZERO + SimDuration::from_secs(1000);
        b.observe(PAIR, t0, eval(10e6, &[50e6]));
        let now = t0 + SimDuration::from_secs(10);
        assert_eq!(
            b.decide(PAIR, now, |_| true),
            Decision::Overlay { node: 0, bps: 50e6 }
        );
        // Poison: the probe now reads as measured 200 s ago (> 100 s
        // staleness bound) and the broker stops vouching for overlays.
        b.age_probes(SimDuration::from_secs(200));
        assert_eq!(
            b.decide(PAIR, now, |_| true),
            Decision::Direct { bps: 10e6 }
        );
        assert_eq!(b.stats().stale_fallback, 1);
        // A refresh heals the cache.
        b.observe(PAIR, now, eval(10e6, &[50e6]));
        assert_eq!(
            b.decide(PAIR, now, |_| true),
            Decision::Overlay { node: 0, bps: 50e6 }
        );
    }

    #[test]
    fn marginal_overlay_wins_demote_to_direct() {
        let mut b = Broker::new(cfg());
        // Overlay beats direct by 2% < 5% margin.
        b.observe(PAIR, SimTime::ZERO, eval(100e6, &[102e6]));
        assert_eq!(
            b.decide(PAIR, SimTime::ZERO, |_| true),
            Decision::Direct { bps: 100e6 }
        );
        assert_eq!(b.stats().direct, 1);
        assert_eq!(b.stats().overlay, 0);
    }

    #[test]
    fn floors_deny_admission() {
        let mut b = Broker::new(cfg());
        b.observe(PAIR, SimTime::ZERO, eval(0.5e6, &[0.9e6]));
        assert_eq!(b.decide(PAIR, SimTime::ZERO, |_| true), Decision::Deny);
        assert_eq!(b.stats().denied, 1);
        assert_eq!(b.stats().admitted, 0);
    }

    fn cand(hops: &[usize]) -> Candidate {
        Candidate {
            hops: if hops.is_empty() {
                Hops::direct()
            } else {
                Hops::from_slice(hops)
            },
            price_per_gb: 0.01 * hops.len() as f64,
        }
    }

    fn truth(bps: &[f64]) -> Vec<ArmEval> {
        bps.iter()
            .map(|&b| ArmEval {
                bps: b,
                rtt: SimDuration::from_millis(50),
            })
            .collect()
    }

    /// Arms: 0 direct, 1 = O0, 2 = O1, 3 = O0→O1.
    fn multihop_broker() -> Broker {
        let mut b = Broker::new(cfg());
        b.enable_multihop(
            vec![vec![cand(&[]), cand(&[0]), cand(&[1]), cand(&[0, 1])]],
            BanditConfig::service(),
            7,
        );
        b
    }

    #[test]
    fn bandit_steers_to_the_best_chain() {
        let mut b = multihop_broker();
        b.seed_paths(0, &truth(&[10e6, 30e6, 25e6, 60e6]));
        let (d, arm) = b.decide_paths(0, |_| true);
        assert_eq!(arm, 3);
        match d {
            Decision::Chain { hops, bps } => {
                assert_eq!(hops, Hops::from_slice(&[0, 1]));
                assert!((bps - 60e6).abs() < 1.0);
            }
            other => panic!("expected a chain, got {other:?}"),
        }
        assert_eq!(b.stats().chain, 1);
        assert_eq!(b.stats().overlay, 1);
        assert_eq!(b.stats().admitted, 1);
    }

    #[test]
    fn chains_need_every_relay_free() {
        let mut b = multihop_broker();
        b.seed_paths(0, &truth(&[10e6, 30e6, 25e6, 60e6]));
        // Relay 1 is at capacity: the chain O0→O1 and overlay O1 are
        // both out; the single-hop O0 wins.
        let (d, arm) = b.decide_paths(0, |n| n != 1);
        assert_eq!(arm, 1);
        assert_eq!(d, Decision::Overlay { node: 0, bps: 30e6 });
        // Everything busy: direct at the bandit's direct estimate.
        let (d, arm) = b.decide_paths(0, |_| false);
        assert_eq!(arm, 0);
        assert_eq!(d, Decision::Direct { bps: 10e6 });
    }

    #[test]
    fn carried_flow_observations_abandon_a_degraded_chain() {
        let mut b = multihop_broker();
        b.seed_paths(0, &truth(&[10e6, 30e6, 25e6, 60e6]));
        // The chain's mid relay degrades: flows carried on arm 3 observe
        // collapsing goodput, no probe budget required.
        for _ in 0..6 {
            b.learn_path(0, 3, 0.0);
        }
        let (_, arm) = b.decide_paths(0, |_| true);
        assert_eq!(arm, 1, "bandit must fall back to the best one-hop arm");
    }

    #[test]
    fn budgeted_refresh_spends_on_uncertain_arms_and_counts() {
        let mut b = multihop_broker();
        b.seed_paths(0, &truth(&[10e6, 30e6, 25e6, 60e6]));
        assert_eq!(b.stats().probe_spent, 4);
        assert_eq!(b.stats().probe_refreshes, 1);
        b.probe_paths(0, &truth(&[10e6, 30e6, 25e6, 60e6]));
        assert_eq!(
            b.stats().probe_spent,
            4 + u64::from(BanditConfig::service().probe_budget)
        );
        assert_eq!(b.stats().probe_refreshes, 2);
    }

    #[test]
    fn floors_and_margin_apply_to_bandit_decisions() {
        let mut b = multihop_broker();
        // Overlay arms beat direct by < 5%: demote to direct.
        b.seed_paths(0, &truth(&[100e6, 102e6, 101e6, 102e6]));
        let (d, _) = b.decide_paths(0, |_| true);
        assert_eq!(d, Decision::Direct { bps: 100e6 });
        // Everything under the floor: deny.
        let mut b = multihop_broker();
        b.seed_paths(0, &truth(&[0.5e6, 0.9e6, 0.8e6, 0.9e6]));
        let (d, _) = b.decide_paths(0, |_| true);
        assert_eq!(d, Decision::Deny);
        assert_eq!(b.stats().denied, 1);
    }

    /// The decision `decide_paths` made before the busy mask: every
    /// candidate arm asks `relay_free` about each of its relays.
    fn decide_per_hop(
        b: &Broker,
        pair: usize,
        relay_free: impl Fn(usize) -> bool,
    ) -> (Decision, usize) {
        let p = &b.multihop.as_ref().unwrap().pairs[pair];
        let direct_bps = p.bandit.mean(0);
        let best = p
            .bandit
            .best_arm(|a| a != 0 && p.cands[a].hops.iter().all(&relay_free));
        if let Some(arm) = best {
            let bps = p.bandit.mean(arm);
            if bps >= b.cfg.overlay_margin * direct_bps && bps >= b.cfg.min_accept_bps {
                let hops = p.cands[arm].hops;
                return if hops.len() == 1 {
                    let node = hops.get(0);
                    (Decision::Overlay { node, bps }, arm)
                } else {
                    (Decision::Chain { hops, bps }, arm)
                };
            }
        }
        if direct_bps >= b.cfg.min_accept_bps {
            (Decision::Direct { bps: direct_bps }, 0)
        } else {
            (Decision::Deny, 0)
        }
    }

    /// `decide_paths` decides what the per-hop rule did, over seeded
    /// bandit histories (seeding, budgeted refreshes, carried flows,
    /// poisonings) and free sets with no, some and every relay free,
    /// and asks about each node at most once.
    #[test]
    fn busy_mask_decides_like_the_per_hop_rule() {
        const NODES: usize = 8;
        let mut rng = SimRng::seed_from(0xB057);
        let mut seen = [0u32; 4];
        for round in 0..200 {
            let pairs = 1 + rng.index(6);
            let cands: Vec<Vec<Candidate>> = (0..pairs)
                .map(|_| {
                    let mut arms = vec![cand(&[])];
                    for _ in 0..rng.index(12) {
                        let mut hops: Vec<usize> = Vec::new();
                        for _ in 0..1 + rng.index(Hops::MAX_HOPS) {
                            let n = rng.index(NODES);
                            if !hops.contains(&n) {
                                hops.push(n);
                            }
                        }
                        arms.push(cand(&hops));
                    }
                    arms
                })
                .collect();
            let mut b = Broker::new(cfg());
            b.enable_multihop(cands, BanditConfig::service(), round);
            let palette = [0.5e6, 10e6, 25e6, 60e6];
            for pair in 0..pairs {
                let n = b.candidates(pair).len();
                let rates: Vec<f64> = (0..n).map(|_| palette[rng.index(4)]).collect();
                b.seed_paths(pair, &truth(&rates));
            }
            for step in 0..40 {
                let pair = rng.index(pairs);
                let n = b.candidates(pair).len();
                match rng.index(8) {
                    0 => {
                        let rates: Vec<f64> = (0..n).map(|_| palette[rng.index(4)]).collect();
                        b.probe_paths(pair, &truth(&rates));
                    }
                    1 if step % 13 == 0 => b.poison_paths(),
                    _ => b.learn_path(pair, rng.index(n), palette[rng.index(4)]),
                }
                let free_set = match rng.index(3) {
                    0 => 0,
                    1 => rng.next_u64(),
                    _ => u64::MAX,
                };
                let free = |n: usize| (free_set >> n) & 1 == 1;
                let want = decide_per_hop(&b, pair, free);
                let asked = std::cell::Cell::new(0u64);
                let got = b.decide_paths(pair, |n| {
                    assert_eq!((asked.get() >> n) & 1, 0, "node {n} asked twice");
                    asked.set(asked.get() | (1 << n));
                    free(n)
                });
                assert_eq!(got, want, "round {round}, pair {pair}, free {free_set:b}");
                seen[match got.0 {
                    Decision::Overlay { .. } => 0,
                    Decision::Chain { .. } => 1,
                    Decision::Direct { .. } => 2,
                    Decision::Deny => 3,
                }] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c > 100), "decision kinds {seen:?}");
    }

    #[test]
    #[should_panic(expected = "overlay node 64 does not fit the relay mask")]
    fn enable_multihop_rejects_a_node_past_the_mask() {
        let mut b = Broker::new(cfg());
        b.enable_multihop(
            vec![vec![cand(&[]), cand(&[63]), cand(&[2, 64])]],
            BanditConfig::service(),
            7,
        );
    }

    #[test]
    fn poison_spikes_refresh_pressure() {
        let mut b = multihop_broker();
        b.seed_paths(0, &truth(&[10e6, 30e6, 25e6, 60e6]));
        for _ in 0..8 {
            b.probe_paths(0, &truth(&[10e6, 30e6, 25e6, 60e6]));
        }
        b.poison_paths();
        // After forgetting, the budget must still go somewhere sane and
        // decisions keep flowing deterministically.
        b.probe_paths(0, &truth(&[10e6, 30e6, 25e6, 60e6]));
        let (_, arm) = b.decide_paths(0, |_| true);
        assert_eq!(arm, 3);
    }
}
