//! Hierarchical Internet topology generator.
//!
//! Builds a three-tier AS topology in the spirit of the measured Internet:
//! a clique of Tier-1 backbones with global PoP footprints, regional
//! transit providers that buy from Tier-1s and peer among themselves, and
//! single-homed/multi-homed stub ASes at the edge. Congestion (loss +
//! queueing) is concentrated on inter-AS links in and around the core,
//! which is where the paper — citing Akella et al. (2003) and Kang &
//! Gligor (2014) — locates real Internet bottlenecks.

use simcore::SimRng;

use crate::congestion::CongestionProfile;
use crate::geo::{cities_on, City, Continent, WORLD_CITIES};
use crate::graph::{AsTier, Network, Relationship, RouterKind};
use crate::ids::{AsId, RouterId};
use crate::link::LinkKind;

/// Gbps helper.
const fn gbps(n: u64) -> u64 {
    n * 1_000_000_000
}

/// Parameters of the generated Internet.
///
/// The defaults ([`InternetConfig::paper_scale`]) produce a topology large
/// enough to sample thousands of distinct end-to-end paths, matching the
/// scale of the paper's 6,600-path experiment.
#[derive(Debug, Clone)]
pub struct InternetConfig {
    /// Number of Tier-1 backbone ASes (clique).
    pub n_tier1: usize,
    /// PoP cities per Tier-1 AS.
    pub tier1_cities: usize,
    /// Number of transit (Tier-2) ASes.
    pub n_transit: usize,
    /// PoP cities per transit AS.
    pub transit_cities: usize,
    /// Number of stub (edge) ASes.
    pub n_stub: usize,
    /// Probability that a stub is multi-homed to a second provider.
    pub stub_multihome_prob: f64,
    /// Probability that two same-continent transit ASes peer.
    pub transit_peer_prob: f64,
    /// Fraction of core inter-AS links that are congestion-prone.
    pub congested_core_fraction: f64,
    /// Fraction of stub attachment links that are congestion-prone.
    pub congested_edge_fraction: f64,
    /// Range of long-run mean congestion level for congested links.
    pub core_mean_level: (f64, f64),
    /// Range (log-uniform) of peak loss probability for congested links.
    pub core_peak_loss: (f64, f64),
    /// Range of the per-link route-circuitousness factor applied to
    /// public-Internet links (fiber rarely follows the geodesic; real
    /// transit routes zig-zag through PoPs). Cloud backbones are
    /// engineered and skip this — which is one reason overlay paths can
    /// *reduce* RTT (the paper's Fig. 5).
    pub route_stretch: (f64, f64),
}

impl InternetConfig {
    /// Topology sized like the paper's measurement footprint.
    #[must_use]
    pub fn paper_scale() -> Self {
        InternetConfig {
            n_tier1: 6,
            tier1_cities: 8,
            n_transit: 24,
            transit_cities: 4,
            n_stub: 160,
            stub_multihome_prob: 0.35,
            transit_peer_prob: 0.25,
            congested_core_fraction: 0.25,
            congested_edge_fraction: 0.15,
            core_mean_level: (0.18, 0.52),
            core_peak_loss: (0.0015, 0.03),
            route_stretch: (1.05, 2.3),
        }
    }

    /// A tiny topology for unit tests (fast, still connected and policy-
    /// routable end to end).
    #[must_use]
    pub fn small() -> Self {
        InternetConfig {
            n_tier1: 3,
            tier1_cities: 4,
            n_transit: 6,
            transit_cities: 2,
            n_stub: 20,
            stub_multihome_prob: 0.3,
            transit_peer_prob: 0.3,
            congested_core_fraction: 0.5,
            congested_edge_fraction: 0.1,
            core_mean_level: (0.3, 0.7),
            core_peak_loss: (0.005, 0.03),
            route_stretch: (1.0, 1.8),
        }
    }
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig::paper_scale()
    }
}

/// Continent weights approximating where transit/stub networks are dense
/// (and where PlanetLab sites were: Europe, the Americas, Asia, Australia).
const CONTINENT_WEIGHTS: &[(Continent, f64)] = &[
    (Continent::NorthAmerica, 0.34),
    (Continent::Europe, 0.32),
    (Continent::Asia, 0.22),
    (Continent::SouthAmerica, 0.07),
    (Continent::Australia, 0.05),
];

fn weighted_continent(rng: &mut SimRng) -> Continent {
    let total: f64 = CONTINENT_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut draw = rng.uniform_f64() * total;
    for &(c, w) in CONTINENT_WEIGHTS {
        if draw < w {
            return c;
        }
        draw -= w;
    }
    Continent::NorthAmerica
}

/// Generates the Internet. Deterministic in `(config, seed)`.
///
/// The returned network has no end hosts and no cloud provider; attach
/// hosts with [`Network::attach_host`] and the cloud with the `cloud`
/// crate's provider builder.
#[must_use]
pub fn generate(config: &InternetConfig, seed: u64) -> Network {
    let root = SimRng::seed_from(seed);
    let mut net = Network::new();
    let mut gen = Generator {
        config,
        rng: root.fork(1),
    };

    let tier1 = gen.build_tier1(&mut net);
    let transit = gen.build_transit(&mut net, &tier1);
    gen.build_stubs(&mut net, &transit, &tier1);

    // Initialize congestion levels from each profile's stationary law,
    // then burn in a few epochs so transient flash events can be part of
    // the initial state — these are the "transient ISP events" whose later
    // resolution the paper observes in §IV.
    let mut init = root.fork(2);
    net.randomize_congestion(&mut init);
    for burn in 0..3u64 {
        net.step_epoch(&mut init, u64::MAX - burn);
    }
    net
}

struct Generator<'a> {
    config: &'a InternetConfig,
    rng: SimRng,
}

impl Generator<'_> {
    /// A congestion profile for an inter-AS link, congested with
    /// probability `congested_frac`.
    fn core_profile(&mut self, congested_frac: f64) -> CongestionProfile {
        // Every public core link carries some residual loss (transmission
        // errors, microbursts), log-uniform across links — this is what
        // separates the direct and best-overlay retransmission-rate CDFs
        // (the paper's Fig. 4) even between congestion events.
        // Bimodal residual: most links are nearly clean; a minority carry
        // measurable background loss. The best-of-N overlay selection
        // exploits exactly this variance.
        let residual = if self.rng.bernoulli(0.35) {
            10f64.powf(self.rng.uniform_range(-4.6, -3.7))
        } else {
            10f64.powf(self.rng.uniform_range(-6.3, -5.5))
        };
        let mut profile = if self.rng.bernoulli(congested_frac) {
            let (lo, hi) = self.config.core_mean_level;
            let mean = self.rng.uniform_range(lo, hi);
            let (pl, ph) = self.config.core_peak_loss;
            let peak = 10f64.powf(self.rng.uniform_range(pl.log10(), ph.log10()));
            CongestionProfile::congested(mean, peak)
        } else {
            CongestionProfile::clean()
        };
        profile.base_loss = profile.base_loss.max(residual);
        profile
    }

    /// Draws a circuitousness factor for a public-Internet link.
    fn stretch(&mut self) -> f64 {
        let (lo, hi) = self.config.route_stretch;
        self.rng.uniform_range(lo, hi)
    }

    fn pick_global_cities(&mut self, n: usize) -> Vec<City> {
        // Guarantee presence on the three biggest continents, then fill
        // randomly; Tier-1s are global networks.
        let mut cities: Vec<City> = Vec::with_capacity(n);
        for cont in [Continent::NorthAmerica, Continent::Europe, Continent::Asia] {
            let pool = cities_on(cont);
            cities.push(*self.rng.choose(&pool));
        }
        while cities.len() < n {
            let c = *self.rng.choose(WORLD_CITIES);
            if !cities.iter().any(|x| x.name == c.name) {
                cities.push(c);
            }
        }
        cities.truncate(n);
        cities
    }

    fn pick_continent_cities(&mut self, cont: Continent, n: usize) -> Vec<City> {
        let pool = cities_on(cont);
        let k = n.min(pool.len());
        let idx = self.rng.sample_indices(pool.len(), k);
        idx.into_iter().map(|i| pool[i]).collect()
    }

    /// Intra-AS backbone between an AS's routers: a geographic ring plus
    /// cross-chords, like real PoP backbones — NOT a full mesh. This is
    /// what gives paths realistic router-level hop counts, which the
    /// §V-A diversity analysis depends on (with a full mesh, every path
    /// through an AS is one hop and the shared endpoints dominate the
    /// diversity score).
    fn mesh_intra(&mut self, net: &mut Network, routers: &[RouterId], capacity: u64) {
        let n = routers.len();
        if n < 2 {
            return;
        }
        // Sort PoPs by longitude so ring neighbors are geographic
        // neighbors and the backbone follows the geography.
        let mut order: Vec<RouterId> = routers.to_vec();
        order.sort_by(|&a, &b| {
            let la = net.router(a).city().location.lon;
            let lb = net.router(b).city().location.lon;
            la.partial_cmp(&lb).unwrap()
        });
        let connect = |gen: &mut Self, net: &mut Network, a: RouterId, b: RouterId| {
            let delay = net
                .router(a)
                .city()
                .location
                .propagation_delay(net.router(b).city().location)
                .mul_f64(gen.stretch());
            net.add_link(
                a,
                b,
                LinkKind::IntraAs,
                capacity,
                delay,
                CongestionProfile::clean(),
            );
        };
        // Chain + ring closure.
        for w in 0..n - 1 {
            connect(self, net, order[w], order[w + 1]);
        }
        if n > 2 {
            connect(self, net, order[n - 1], order[0]);
        }
        // Cross-chords keep the diameter small on larger backbones.
        if n >= 6 {
            for c in 0..n / 3 {
                let i = c * 3;
                let j = (i + n / 2) % n;
                if i != j {
                    connect(self, net, order[i], order[j]);
                }
            }
        }
    }

    fn build_tier1(&mut self, net: &mut Network) -> Vec<AsId> {
        let mut tier1 = Vec::with_capacity(self.config.n_tier1);
        for i in 0..self.config.n_tier1 {
            let asid = net.add_as(format!("tier1-{i}"), AsTier::Tier1, false);
            let cities = self.pick_global_cities(self.config.tier1_cities);
            let routers: Vec<RouterId> = cities
                .iter()
                .map(|&c| net.add_router(asid, c, RouterKind::Backbone))
                .collect();
            self.mesh_intra(net, &routers, gbps(100));
            tier1.push(asid);
        }
        // Tier-1 clique: every pair peers, at up to two shared or nearest
        // city pairs for redundancy.
        for i in 0..tier1.len() {
            for j in (i + 1)..tier1.len() {
                let (a, b) = (tier1[i], tier1[j]);
                net.add_relationship(a, b, Relationship::PeerWith);
                for (ra, rb) in self.interconnect_points(net, a, b, 2) {
                    let delay = net
                        .router(ra)
                        .city()
                        .location
                        .propagation_delay(net.router(rb).city().location)
                        .mul_f64(self.stretch());
                    let profile = self.core_profile(self.config.congested_core_fraction);
                    net.add_link(ra, rb, LinkKind::Peering, gbps(40), delay, profile);
                }
            }
        }
        tier1
    }

    /// Chooses up to `n` router pairs to interconnect two ASes: same-city
    /// pairs first (IXP-style), then geographically closest pairs.
    fn interconnect_points(
        &mut self,
        net: &Network,
        a: AsId,
        b: AsId,
        n: usize,
    ) -> Vec<(RouterId, RouterId)> {
        let ra: Vec<RouterId> = net
            .as_node(a)
            .routers()
            .iter()
            .copied()
            .filter(|&r| net.router(r).kind() == RouterKind::Backbone)
            .collect();
        let rb: Vec<RouterId> = net
            .as_node(b)
            .routers()
            .iter()
            .copied()
            .filter(|&r| net.router(r).kind() == RouterKind::Backbone)
            .collect();
        let mut pairs: Vec<(f64, RouterId, RouterId)> = Vec::new();
        for &x in &ra {
            for &y in &rb {
                let d = net
                    .router(x)
                    .city()
                    .location
                    .distance_km(net.router(y).city().location);
                pairs.push((d, x, y));
            }
        }
        pairs.sort_by(|p, q| p.0.partial_cmp(&q.0).unwrap());
        let mut out = Vec::new();
        let mut used_a = Vec::new();
        let mut used_b = Vec::new();
        for (_, x, y) in pairs {
            if out.len() >= n {
                break;
            }
            if used_a.contains(&x) || used_b.contains(&y) {
                continue;
            }
            used_a.push(x);
            used_b.push(y);
            out.push((x, y));
        }
        out
    }

    fn build_transit(&mut self, net: &mut Network, tier1: &[AsId]) -> Vec<AsId> {
        let mut transit = Vec::with_capacity(self.config.n_transit);
        let mut continents = Vec::with_capacity(self.config.n_transit);
        for i in 0..self.config.n_transit {
            let cont = weighted_continent(&mut self.rng);
            let asid = net.add_as(format!("transit-{i}"), AsTier::Transit, false);
            let cities = self.pick_continent_cities(cont, self.config.transit_cities);
            let routers: Vec<RouterId> = cities
                .iter()
                .map(|&c| net.add_router(asid, c, RouterKind::Backbone))
                .collect();
            self.mesh_intra(net, &routers, gbps(40));
            // Buy transit from 2 distinct Tier-1s.
            let picks = self.rng.sample_indices(tier1.len(), 2.min(tier1.len()));
            for p in picks {
                let provider = tier1[p];
                net.add_relationship(provider, asid, Relationship::ProviderOf);
                for (ra, rb) in self.interconnect_points(net, provider, asid, 1) {
                    let delay = net
                        .router(ra)
                        .city()
                        .location
                        .propagation_delay(net.router(rb).city().location)
                        .mul_f64(self.stretch());
                    let profile = self.core_profile(self.config.congested_core_fraction);
                    net.add_link(ra, rb, LinkKind::Transit, gbps(10), delay, profile);
                }
            }
            transit.push(asid);
            continents.push(cont);
        }
        // Same-continent transit peering.
        for i in 0..transit.len() {
            for j in (i + 1)..transit.len() {
                if continents[i] == continents[j]
                    && self.rng.bernoulli(self.config.transit_peer_prob)
                {
                    let (a, b) = (transit[i], transit[j]);
                    net.add_relationship(a, b, Relationship::PeerWith);
                    for (ra, rb) in self.interconnect_points(net, a, b, 1) {
                        let delay = net
                            .router(ra)
                            .city()
                            .location
                            .propagation_delay(net.router(rb).city().location)
                            .mul_f64(self.stretch());
                        let profile = self.core_profile(self.config.congested_core_fraction);
                        net.add_link(ra, rb, LinkKind::Peering, gbps(10), delay, profile);
                    }
                }
            }
        }
        transit
    }

    fn build_stubs(&mut self, net: &mut Network, transit: &[AsId], tier1: &[AsId]) {
        for i in 0..self.config.n_stub {
            let cont = weighted_continent(&mut self.rng);
            let pool = cities_on(cont);
            let city = *self.rng.choose(&pool);
            let asid = net.add_as(format!("stub-{i}"), AsTier::Stub, false);
            let router = net.add_router(asid, city, RouterKind::Backbone);

            // Primary provider: a transit AS, preferring one with a PoP on
            // the same continent (falling back to any).
            let same_cont: Vec<AsId> = transit
                .iter()
                .copied()
                .filter(|&t| {
                    net.as_node(t)
                        .routers()
                        .iter()
                        .any(|&r| net.router(r).city().continent == cont)
                })
                .collect();
            let primary = if same_cont.is_empty() {
                *self.rng.choose(transit)
            } else {
                *self.rng.choose(&same_cont)
            };
            self.attach_stub(net, asid, router, primary);

            // Optional second provider (multi-homing): another transit or,
            // rarely, a Tier-1 directly.
            if self.rng.bernoulli(self.config.stub_multihome_prob) {
                let secondary = if self.rng.bernoulli(0.2) {
                    *self.rng.choose(tier1)
                } else {
                    let mut pick = *self.rng.choose(transit);
                    if pick == primary && transit.len() > 1 {
                        pick = *self.rng.choose(transit);
                    }
                    pick
                };
                if secondary != primary {
                    self.attach_stub(net, asid, router, secondary);
                }
            }
        }
    }

    fn attach_stub(&mut self, net: &mut Network, stub: AsId, router: RouterId, provider: AsId) {
        net.add_relationship(provider, stub, Relationship::ProviderOf);
        let nearest = nearest_backbone_router(net, provider, net.router(router).city());
        let delay = net
            .router(router)
            .city()
            .location
            .propagation_delay(net.router(nearest).city().location)
            .mul_f64(self.stretch());
        // Edge attachments congest occasionally but carry little residual
        // loss: the paper (and Akella et al. / Kang & Gligor, which it
        // cites) locate persistent loss in the middle of paths. Keeping
        // the shared last-mile clean is what lets the best-of-N overlay
        // tunnel separate from the direct path in the Fig. 4 CDFs.
        let mut profile = self.core_profile(self.config.congested_edge_fraction);
        profile.base_loss = 10f64.powf(self.rng.uniform_range(-6.0, -5.2));
        net.add_link(router, nearest, LinkKind::Transit, gbps(1), delay, profile);
    }
}

/// The backbone router of `asn` closest to `city`.
///
/// # Panics
///
/// Panics if the AS has no backbone routers.
#[must_use]
pub fn nearest_backbone_router(net: &Network, asn: AsId, city: City) -> RouterId {
    net.as_node(asn)
        .routers()
        .iter()
        .copied()
        .filter(|&r| net.router(r).kind() == RouterKind::Backbone)
        .min_by(|&a, &b| {
            let da = net.router(a).city().location.distance_km(city.location);
            let db = net.router(b).city().location.distance_km(city.location);
            da.partial_cmp(&db).unwrap()
        })
        .unwrap_or_else(|| panic!("{asn} has no backbone routers"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AsTier;

    #[test]
    fn generation_is_deterministic() {
        let cfg = InternetConfig::small();
        let n1 = generate(&cfg, 7);
        let n2 = generate(&cfg, 7);
        assert_eq!(n1.as_count(), n2.as_count());
        assert_eq!(n1.router_count(), n2.router_count());
        assert_eq!(n1.link_count(), n2.link_count());
        // Congestion initialization must match too.
        for (l1, l2) in n1.links().zip(n2.links()) {
            assert_eq!(l1.level(), l2.level());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = InternetConfig::small();
        let n1 = generate(&cfg, 1);
        let n2 = generate(&cfg, 2);
        // Structure may coincide by luck on AS counts, but congestion
        // levels across all links almost surely differ.
        let same = n1
            .links()
            .zip(n2.links())
            .take(50)
            .filter(|(a, b)| a.level() == b.level())
            .count();
        assert!(same < 40);
    }

    #[test]
    fn as_counts_match_config() {
        let cfg = InternetConfig::small();
        let net = generate(&cfg, 3);
        let tier1 = net.ases().filter(|a| a.tier() == AsTier::Tier1).count();
        let transit = net.ases().filter(|a| a.tier() == AsTier::Transit).count();
        let stub = net.ases().filter(|a| a.tier() == AsTier::Stub).count();
        assert_eq!(tier1, cfg.n_tier1);
        assert_eq!(transit, cfg.n_transit);
        assert_eq!(stub, cfg.n_stub);
    }

    #[test]
    fn tier1_forms_a_full_peering_clique() {
        let cfg = InternetConfig::small();
        let net = generate(&cfg, 3);
        let tier1: Vec<AsId> = net
            .ases()
            .filter(|a| a.tier() == AsTier::Tier1)
            .map(|a| a.id())
            .collect();
        for i in 0..tier1.len() {
            for j in 0..tier1.len() {
                if i != j {
                    assert!(net.peers_of(tier1[i]).contains(&tier1[j]));
                    assert!(!net.links_between(tier1[i], tier1[j]).is_empty());
                }
            }
        }
    }

    #[test]
    fn every_stub_has_a_provider_and_a_link_to_it() {
        let cfg = InternetConfig::small();
        let net = generate(&cfg, 4);
        for a in net.ases().filter(|a| a.tier() == AsTier::Stub) {
            let providers = net.providers_of(a.id());
            assert!(!providers.is_empty(), "{} has no provider", a.name());
            for &p in providers {
                assert!(
                    !net.links_between(a.id(), p).is_empty(),
                    "{} not linked to provider {p}",
                    a.name()
                );
            }
        }
    }

    #[test]
    fn every_transit_buys_from_tier1() {
        let cfg = InternetConfig::small();
        let net = generate(&cfg, 5);
        for a in net.ases().filter(|a| a.tier() == AsTier::Transit) {
            let has_t1 = net
                .providers_of(a.id())
                .iter()
                .any(|&p| net.as_node(p).tier() == AsTier::Tier1);
            assert!(has_t1, "{} has no tier-1 provider", a.name());
        }
    }

    #[test]
    fn congestion_lives_mostly_in_the_core() {
        let cfg = InternetConfig::paper_scale();
        let net = generate(&cfg, 6);
        let is_congested = |l: &crate::link::Link| l.profile().peak_loss > 1e-3;
        // "Core" = inter-AS links whose endpoints are both Tier-1/Transit
        // ASes; stub attachment links are edge links.
        let core: Vec<_> = net
            .links()
            .filter(|l| l.kind().is_inter_as())
            .filter(|l| {
                let ta = net.as_node(net.router(l.a()).asn()).tier();
                let tb = net.as_node(net.router(l.b()).asn()).tier();
                ta != AsTier::Stub && tb != AsTier::Stub
            })
            .collect();
        let intra: Vec<_> = net
            .links()
            .filter(|l| l.kind() == LinkKind::IntraAs)
            .collect();
        let core_frac = core.iter().filter(|l| is_congested(l)).count() as f64 / core.len() as f64;
        let intra_frac =
            intra.iter().filter(|l| is_congested(l)).count() as f64 / intra.len() as f64;
        assert!(core_frac > 0.25, "core congested fraction {core_frac}");
        assert!(intra_frac < 0.05, "intra congested fraction {intra_frac}");
    }

    #[test]
    fn router_graph_is_connected() {
        // BFS over routers: everything must be reachable from router 0.
        let cfg = InternetConfig::small();
        let net = generate(&cfg, 8);
        let n = net.router_count();
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(RouterId::from_raw(0));
        while let Some(r) = queue.pop_front() {
            for &(next, _) in net.neighbors(r) {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    queue.push_back(next);
                }
            }
        }
        let reached = seen.iter().filter(|&&s| s).count();
        assert_eq!(reached, n, "router graph is disconnected");
    }

    #[test]
    fn nearest_backbone_router_prefers_colocated() {
        let cfg = InternetConfig::small();
        let net = generate(&cfg, 9);
        let tier1 = net.ases().find(|a| a.tier() == AsTier::Tier1).unwrap().id();
        let some_city = net.router(net.as_node(tier1).routers()[0]).city();
        let nearest = nearest_backbone_router(&net, tier1, some_city);
        assert_eq!(net.router(nearest).city().name, some_city.name);
    }
}
