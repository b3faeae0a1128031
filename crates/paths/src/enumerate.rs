//! Deterministic k-hop candidate enumeration and per-epoch evaluation.
//!
//! Candidates are enumerated **once** per pair against static network
//! attributes (route existence under the warmed [`RouteCache`], leg
//! bottleneck capacity, chain rent) so the arm set — and therefore the
//! bandit's arm indices — stays fixed for the life of a run. Current
//! congestion only enters through [`evaluate`], which re-scores the
//! fixed arms each epoch from the cache's frozen routes.

use std::collections::HashMap;

use cloud::pricing::{overlay_monthly_usd, PortSpeed, TrafficPlan};
use cronets::eval::{chain_measurement, quality, Leg};
use cronets::{OverlayNode, TunnelKind};
use routing::RouteCache;
use simcore::SimDuration;
use topology::{Network, RouterId};
use transport::model::TcpParams;

use crate::Hops;

/// Static pruning knobs for the enumerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnumerateConfig {
    /// Maximum relay hops per chain (1..=[`Hops::MAX_HOPS`]).
    pub max_hops: usize,
    /// Chains with any leg whose bottleneck link is below this capacity
    /// are pruned — a 10 Mbps leg can never carry a relay worth renting.
    pub min_leg_capacity_bps: u64,
    /// Chains whose summed per-hop traffic rent exceeds this are pruned
    /// (price-aware pruning: each extra hop bills its own egress).
    pub max_chain_price_per_gb: f64,
}

impl EnumerateConfig {
    /// Defaults for a k-hop engine: generous price cap, 1 Mbps leg floor.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= Hops::MAX_HOPS`.
    #[must_use]
    pub fn khops(k: usize) -> EnumerateConfig {
        assert!(
            (1..=Hops::MAX_HOPS).contains(&k),
            "khops must be 1..={}, got {k}",
            Hops::MAX_HOPS
        );
        EnumerateConfig {
            max_hops: k,
            min_leg_capacity_bps: 1_000_000,
            max_chain_price_per_gb: 0.10,
        }
    }
}

/// One candidate path: a relay chain plus its static per-GB rent.
/// Candidate 0 of every enumeration is the direct path (price 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The relay chain (empty = direct).
    pub hops: Hops,
    /// Traffic rent across all hops, USD per GB forwarded.
    pub price_per_gb: f64,
}

/// The per-GB traffic rent of forwarding through one relay on the given
/// port/plan: the node's monthly price amortized over the plan's
/// included transfer (unlimited plans are amortized over 50 TB/month,
/// the practical ceiling of a saturated 100 Mbps port).
#[must_use]
pub fn relay_hop_price_per_gb(port: PortSpeed, plan: TrafficPlan) -> f64 {
    let monthly = overlay_monthly_usd(1, port, plan);
    match plan.included_gb() {
        Some(gb) if gb > 0 => monthly / gb as f64,
        _ => monthly / 50_000.0,
    }
}

/// Enumerates the candidate chains for `(src, dst)` in a deterministic
/// order: direct first, then chains by length and lexicographic node
/// indices. Pruning is static — a leg survives if the warmed cache
/// routes it and its bottleneck meets the capacity floor; a chain
/// survives if every leg does and its summed rent clears the price cap.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn enumerate(
    net: &Network,
    cache: &RouteCache,
    nodes: &[OverlayNode],
    src: RouterId,
    dst: RouterId,
    cfg: &EnumerateConfig,
    hop_price_per_gb: f64,
) -> Vec<Candidate> {
    let n = nodes.len();
    let leg_ok = |u: RouterId, v: RouterId| -> bool {
        cache
            .route(net, u, v)
            .is_some_and(|p| p.bottleneck_bps(net) >= cfg.min_leg_capacity_bps)
    };
    let ingress: Vec<bool> = nodes.iter().map(|o| leg_ok(src, o.vm())).collect();
    let egress: Vec<bool> = nodes.iter().map(|o| leg_ok(o.vm(), dst)).collect();
    let mid: Vec<Vec<bool>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| i != j && leg_ok(nodes[i].vm(), nodes[j].vm()))
                .collect()
        })
        .collect();

    let chain_ok = |hops: &[usize]| -> bool {
        ingress[hops[0]]
            && egress[*hops.last().expect("non-empty chain")]
            && hops.windows(2).all(|w| mid[w[0]][w[1]])
    };
    let mut out = vec![Candidate {
        hops: Hops::direct(),
        price_per_gb: 0.0,
    }];
    let mut push = |hops: &[usize]| {
        let price = hop_price_per_gb * hops.len() as f64;
        if price <= cfg.max_chain_price_per_gb && chain_ok(hops) {
            out.push(Candidate {
                hops: Hops::from_slice(hops),
                price_per_gb: price,
            });
        }
    };
    for i in 0..n {
        push(&[i]);
    }
    if cfg.max_hops >= 2 {
        for i in 0..n {
            for j in 0..n {
                if j != i {
                    push(&[i, j]);
                }
            }
        }
    }
    if cfg.max_hops >= 3 {
        for i in 0..n {
            for j in 0..n {
                for l in 0..n {
                    if j != i && l != i && l != j {
                        push(&[i, j, l]);
                    }
                }
            }
        }
    }
    out
}

/// One arm's current-epoch ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmEval {
    /// Achievable split-mode goodput, bits per second (0 for a dead arm).
    pub bps: f64,
    /// End-to-end data-to-ACK round-trip time.
    pub rtt: SimDuration,
}

/// One end of an overlay leg, named relative to the pair being scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waypoint {
    /// The pair's source.
    Src,
    /// Overlay node `i` (an index into the node list).
    Relay(usize),
    /// The pair's destination.
    Dst,
}

/// Scores every candidate from per-leg measurements: `leg(u, v)` is
/// the leg from `u` to `v` under the current congestion state, measured
/// by [`Leg::measure`] (into a relay iff `v` is one), or `None` where no
/// route exists (the arms riding it score as dead). Legs are asked for
/// in traversal order, stopping at the first dead one. The direct arm
/// is its one leg; every chain is composed from its legs' rates by
/// [`chain_measurement`] (only a tunnel that cannot split TCP runs a
/// loop over the concatenation). [`evaluate`] answers the legs from the
/// route cache; the online service answers them from a table that
/// measures each overlay leg once per epoch for all pairs.
#[must_use]
pub fn score_arms(
    nodes: &[OverlayNode],
    tunnel: TunnelKind,
    params: &TcpParams,
    cands: &[Candidate],
    mut leg: impl FnMut(Waypoint, Waypoint) -> Option<Leg>,
) -> Vec<ArmEval> {
    let dead = ArmEval {
        bps: 0.0,
        rtt: SimDuration::ZERO,
    };
    let mut chain: Vec<&OverlayNode> = Vec::with_capacity(Hops::MAX_HOPS);
    let mut legs: Vec<Leg> = Vec::with_capacity(Hops::MAX_HOPS + 1);
    cands
        .iter()
        .map(|c| {
            if c.hops.is_empty() {
                return leg(Waypoint::Src, Waypoint::Dst).map_or(dead, |l| ArmEval {
                    bps: l.bps,
                    rtt: l.quality.rtt,
                });
            }
            legs.clear();
            let mut from = Waypoint::Src;
            for to in c.hops.iter().map(Waypoint::Relay).chain([Waypoint::Dst]) {
                match leg(from, to) {
                    Some(l) => legs.push(l),
                    None => return dead,
                }
                from = to;
            }
            chain.clear();
            chain.extend(c.hops.iter().map(|i| &nodes[i]));
            let m = chain_measurement(&legs, &chain, tunnel, params);
            ArmEval {
                bps: m.throughput_bps,
                rtt: m.rtt,
            }
        })
        .collect()
}

/// Scores every candidate under the current congestion state, reading
/// routes only through the (immutable) warmed cache so calls are safe
/// inside `exec::parallel_map`. Legs are measured once each and
/// memoized within the call — a full 3-hop enumeration over `n` nodes
/// touches `O(n²)` legs, not `O(n³)` chains' worth.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn evaluate(
    net: &Network,
    cache: &RouteCache,
    nodes: &[OverlayNode],
    src: RouterId,
    dst: RouterId,
    tunnel: TunnelKind,
    params: &TcpParams,
    cands: &[Candidate],
) -> Vec<ArmEval> {
    let at = |w: Waypoint| match w {
        Waypoint::Src => src,
        Waypoint::Relay(i) => nodes[i].vm(),
        Waypoint::Dst => dst,
    };
    let mut memo: HashMap<(RouterId, RouterId, bool), Option<Leg>> = HashMap::new();
    score_arms(nodes, tunnel, params, cands, |u, v| {
        let into_relay = matches!(v, Waypoint::Relay(_));
        let (u, v) = (at(u), at(v));
        *memo.entry((u, v, into_relay)).or_insert_with(|| {
            let path = cache.route_ref(net, u, v)?;
            let q = quality(net, &path);
            Some(Leg::measure(q, into_relay, tunnel, params))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronets::CronetBuilder;
    use topology::gen::{generate, InternetConfig};
    use topology::AsTier;

    fn world() -> (Network, cronets::Cronet, RouteCache, RouterId, RouterId) {
        let mut net = generate(&InternetConfig::small(), 31);
        let cronet = CronetBuilder::new().build(&mut net, 31);
        let stubs: Vec<_> = net
            .ases()
            .filter(|a| a.tier() == AsTier::Stub)
            .map(|a| a.id())
            .collect();
        let a = net.attach_host("a", stubs[0], 100_000_000);
        let b = net.attach_host("b", stubs[5], 100_000_000);
        let cache = RouteCache::build(&net);
        (net, cronet, cache, a, b)
    }

    #[test]
    fn direct_is_always_candidate_zero() {
        let (net, cronet, cache, a, b) = world();
        for k in 1..=Hops::MAX_HOPS {
            let cands = enumerate(
                &net,
                &cache,
                cronet.nodes(),
                a,
                b,
                &EnumerateConfig::khops(k),
                0.01,
            );
            assert!(cands[0].hops.is_empty());
            assert!((cands[0].price_per_gb - 0.0).abs() < 1e-12);
        }
    }

    #[test]
    fn enumeration_is_deterministic_and_ordered() {
        let (net, cronet, cache, a, b) = world();
        let cfg = EnumerateConfig::khops(3);
        let c1 = enumerate(&net, &cache, cronet.nodes(), a, b, &cfg, 0.01);
        let c2 = enumerate(&net, &cache, cronet.nodes(), a, b, &cfg, 0.01);
        assert_eq!(c1, c2);
        // Lengths are non-decreasing: direct, then 1-hop, 2-hop, 3-hop.
        for w in c1.windows(2) {
            assert!(w[0].hops.len() <= w[1].hops.len());
        }
        // No chain repeats a relay.
        for c in &c1 {
            let hops: Vec<usize> = c.hops.iter().collect();
            for (i, h) in hops.iter().enumerate() {
                assert!(!hops[i + 1..].contains(h), "repeated relay in {}", c.hops);
            }
        }
    }

    #[test]
    fn khops_bounds_chain_length_and_grows_candidates() {
        let (net, cronet, cache, a, b) = world();
        let mut prev = 0;
        for k in 1..=Hops::MAX_HOPS {
            let cands = enumerate(
                &net,
                &cache,
                cronet.nodes(),
                a,
                b,
                &EnumerateConfig::khops(k),
                0.01,
            );
            assert!(cands.iter().all(|c| c.hops.len() <= k));
            assert!(cands.len() >= prev);
            prev = cands.len();
        }
    }

    #[test]
    fn price_cap_prunes_long_chains() {
        let (net, cronet, cache, a, b) = world();
        let mut cfg = EnumerateConfig::khops(3);
        // Per-hop rent of 0.04 with a 0.10 cap: 3-hop chains (0.12) out.
        cfg.max_chain_price_per_gb = 0.10;
        let cands = enumerate(&net, &cache, cronet.nodes(), a, b, &cfg, 0.04);
        assert!(cands.iter().all(|c| c.hops.len() <= 2));
        assert!(cands.iter().any(|c| c.hops.len() == 2));
    }

    #[test]
    fn capacity_floor_prunes_everything_above_port_speed() {
        let (net, cronet, cache, a, b) = world();
        let mut cfg = EnumerateConfig::khops(2);
        cfg.min_leg_capacity_bps = u64::MAX;
        let cands = enumerate(&net, &cache, cronet.nodes(), a, b, &cfg, 0.01);
        assert_eq!(cands.len(), 1, "only the direct arm survives");
    }

    #[test]
    fn evaluate_scores_every_candidate_and_matches_chain_model() {
        let (net, cronet, cache, a, b) = world();
        let cfg = EnumerateConfig::khops(2);
        let cands = enumerate(&net, &cache, cronet.nodes(), a, b, &cfg, 0.01);
        let evals = evaluate(
            &net,
            &cache,
            cronet.nodes(),
            a,
            b,
            cronet.tunnel(),
            cronet.params(),
            &cands,
        );
        assert_eq!(evals.len(), cands.len());
        assert!(evals[0].bps > 0.0, "direct arm must score");
        assert!(evals.iter().any(|e| e.bps > evals[0].bps * 0.5));
        // One-hop arms agree with the established split-mode evaluator.
        let mut bgp = routing::Bgp::new();
        let pair = cronets::eval::eval_pair(
            &net,
            &mut bgp,
            a,
            b,
            cronet.nodes(),
            cronet.tunnel(),
            cronet.params(),
        )
        .unwrap();
        for (c, e) in cands.iter().zip(&evals) {
            if c.hops.len() == 1 {
                let o = &pair.overlays[c.hops.get(0)];
                assert!(
                    (e.bps - o.split.throughput_bps).abs() < 1e-6,
                    "arm {} disagrees with eval_overlay",
                    c.hops
                );
            }
        }
    }

    #[test]
    fn hop_price_amortizes_plan_transfer() {
        let p = relay_hop_price_per_gb(PortSpeed::Mbps100, TrafficPlan::Gb5000);
        assert!(p > 0.0 && p < 0.05, "unexpected per-GB rent {p}");
        let unl = relay_hop_price_per_gb(PortSpeed::Gbps1, TrafficPlan::Unlimited);
        assert!(unl > 0.0);
    }
}
