//! AS-level route selection under the Gao–Rexford policy model.
//!
//! For each destination AS we compute, for every other AS, the route BGP
//! would select given standard export rules:
//!
//! * an AS exports *all* routes to its customers;
//! * an AS exports only *customer routes* (and its own prefixes) to peers
//!   and providers.
//!
//! Selection preference is customer > peer > provider, then shortest AS
//! path, then lowest next-hop AS id (a deterministic stand-in for the
//! arbitrary tie-breaks of real routers). The resulting paths are
//! *valley-free*: a sequence of customer→provider hops, at most one peer
//! hop, then provider→customer hops.

use std::collections::HashMap;

use topology::{AsId, Network};

/// The kind of neighbor a route was learned from; also its preference
/// class (customer is most preferred — it earns money).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    /// Learned from a customer.
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider.
    Provider,
}

/// A selected AS-level route toward a destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsRoute {
    /// Preference class of the selected route.
    pub class: RouteClass,
    /// Number of AS hops to the destination.
    pub as_hops: u32,
    /// Next AS on the path (`None` when we are the destination).
    pub next_hop: Option<AsId>,
}

/// Per-destination routing tables, computed lazily and cached.
///
/// # Example
///
/// ```
/// use topology::gen::{generate, InternetConfig};
/// use routing::Bgp;
///
/// let net = generate(&InternetConfig::small(), 5);
/// let mut bgp = Bgp::new();
/// let dest = net.ases().next().unwrap().id();
/// let table = bgp.table(&net, dest);
/// // The destination itself has a zero-hop route.
/// assert_eq!(table[dest.index()].as_ref().unwrap().as_hops, 0);
/// ```
#[derive(Debug, Default)]
pub struct Bgp {
    tables: HashMap<AsId, Vec<Option<AsRoute>>>,
}

impl Bgp {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Bgp::default()
    }

    /// The routing table for destination `dest`: entry `i` is the route
    /// selected by AS `i`, or `None` if `dest` is unreachable from it.
    pub fn table(&mut self, net: &Network, dest: AsId) -> &[Option<AsRoute>] {
        self.tables
            .entry(dest)
            .or_insert_with(|| compute_table(net, dest))
    }

    /// The AS-level path from `src` to `dest` (inclusive of both), or
    /// `None` if unreachable.
    pub fn as_path(&mut self, net: &Network, src: AsId, dest: AsId) -> Option<Vec<AsId>> {
        let table = self.table(net, dest);
        let mut path = vec![src];
        let mut cur = src;
        while cur != dest {
            let route = table[cur.index()].as_ref()?;
            let next = route.next_hop?;
            path.push(next);
            cur = next;
            assert!(
                path.len() <= net.as_count() + 1,
                "routing loop computing path {src} -> {dest}"
            );
        }
        Some(path)
    }

    /// Drops all cached tables (call after mutating the AS graph).
    pub fn invalidate(&mut self) {
        self.tables.clear();
    }
}

/// Computes the selected route of every AS toward `dest`. Pure function
/// of the network, shared by the lazy [`Bgp`] cache and the eagerly
/// warmed [`crate::RouteCache`].
pub(crate) fn compute_table(net: &Network, dest: AsId) -> Vec<Option<AsRoute>> {
    let n = net.as_count();

    // Phase 1 — customer routes: BFS from dest along "provider-of" edges.
    // An AS u has a customer route iff dest sits (transitively) below it
    // in the provider hierarchy; next hop is the customer it was learned
    // from.
    let mut cust: Vec<Option<(u32, AsId)>> = vec![None; n]; // (hops, next)
    {
        let mut frontier = vec![dest];
        let mut dist = vec![u32::MAX; n];
        dist[dest.index()] = 0;
        while let Some(u) = frontier.pop() {
            // note: plain stack BFS-by-rounds replaced with Dijkstra-ish
            // relaxation; distances are small so this converges quickly.
            for &p in net.providers_of(u) {
                let nd = dist[u.index()] + 1;
                if nd < dist[p.index()] {
                    dist[p.index()] = nd;
                    cust[p.index()] = Some((nd, u));
                    frontier.push(p);
                } else if nd == dist[p.index()] {
                    // Deterministic tie-break: lowest next-hop AS id.
                    if let Some((_, existing)) = cust[p.index()] {
                        if u < existing {
                            cust[p.index()] = Some((nd, u));
                            frontier.push(p);
                        }
                    }
                }
            }
        }
    }

    // Phase 2 — peer routes: one peer hop into an AS that has a customer
    // route (or is the destination).
    let mut peer: Vec<Option<(u32, AsId)>> = vec![None; n];
    for (u, entry) in peer.iter_mut().enumerate() {
        let uid = AsId::from_raw(u as u32);
        for &v in net.peers_of(uid) {
            let via = if v == dest {
                Some(0)
            } else {
                cust[v.index()].map(|(h, _)| h)
            };
            if let Some(h) = via {
                let cand = (h + 1, v);
                if entry.is_none_or(|best| (cand.0, cand.1) < (best.0, best.1)) {
                    *entry = Some(cand);
                }
            }
        }
    }

    // Phase 3 — provider routes: u may route via a provider v, which
    // exports its own *selected* route. Selection preference at v is
    // customer > peer > provider, so provider-route lengths depend on
    // other provider routes; iterate to a fixpoint (Bellman–Ford style;
    // the AS graph is shallow so this converges in a few rounds).
    let sel_len = |cust: &Option<(u32, AsId)>,
                   peer: &Option<(u32, AsId)>,
                   prov: &Option<(u32, AsId)>|
     -> Option<u32> {
        cust.map(|(h, _)| h)
            .or_else(|| peer.map(|(h, _)| h))
            .or_else(|| prov.map(|(h, _)| h))
    };
    let mut prov: Vec<Option<(u32, AsId)>> = vec![None; n];
    loop {
        let mut changed = false;
        for u in 0..n {
            let uid = AsId::from_raw(u as u32);
            if uid == dest {
                continue;
            }
            for &v in net.providers_of(uid) {
                let via = if v == dest {
                    Some(0)
                } else {
                    sel_len(&cust[v.index()], &peer[v.index()], &prov[v.index()])
                };
                if let Some(h) = via {
                    let cand = (h + 1, v);
                    if prov[u].is_none_or(|best| (cand.0, cand.1) < (best.0, best.1)) {
                        prov[u] = Some(cand);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Final selection per AS.
    (0..n)
        .map(|u| {
            let uid = AsId::from_raw(u as u32);
            if uid == dest {
                return Some(AsRoute {
                    class: RouteClass::Customer,
                    as_hops: 0,
                    next_hop: None,
                });
            }
            if let Some((h, next)) = cust[u] {
                Some(AsRoute {
                    class: RouteClass::Customer,
                    as_hops: h,
                    next_hop: Some(next),
                })
            } else if let Some((h, next)) = peer[u] {
                Some(AsRoute {
                    class: RouteClass::Peer,
                    as_hops: h,
                    next_hop: Some(next),
                })
            } else {
                prov[u].map(|(h, next)| AsRoute {
                    class: RouteClass::Provider,
                    as_hops: h,
                    next_hop: Some(next),
                })
            }
        })
        .collect()
}

/// Checks that an AS path is valley-free under the network's business
/// relationships: zero or more customer→provider ("up") hops, at most one
/// peer hop, then zero or more provider→customer ("down") hops.
///
/// Exposed for tests and for the diversity analysis.
#[must_use]
pub fn is_valley_free(net: &Network, path: &[AsId]) -> bool {
    #[derive(PartialEq, PartialOrd)]
    enum Phase {
        Up,
        Peered,
        Down,
    }
    let mut phase = Phase::Up;
    for w in path.windows(2) {
        let (x, y) = (w[0], w[1]);
        let up = net.providers_of(x).contains(&y); // x -> its provider y
        let down = net.customers_of(x).contains(&y); // x -> its customer y
        let peer = net.peers_of(x).contains(&y);
        match phase {
            Phase::Up => {
                if up {
                } else if peer {
                    phase = Phase::Peered;
                } else if down {
                    phase = Phase::Down;
                } else {
                    return false;
                }
            }
            Phase::Peered | Phase::Down => {
                if down {
                    phase = Phase::Down;
                } else {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::gen::{generate, InternetConfig};
    use topology::AsTier;

    fn test_net() -> Network {
        generate(&InternetConfig::small(), 42)
    }

    #[test]
    fn destination_routes_to_itself() {
        let net = test_net();
        let mut bgp = Bgp::new();
        let d = net.ases().next().unwrap().id();
        let t = bgp.table(&net, d);
        let r = t[d.index()].as_ref().unwrap();
        assert_eq!(r.as_hops, 0);
        assert!(r.next_hop.is_none());
    }

    #[test]
    fn all_as_pairs_are_reachable() {
        // The generator guarantees stub->transit->tier1 connectivity and a
        // tier-1 clique, so policy routing must connect every AS pair.
        let net = test_net();
        let mut bgp = Bgp::new();
        let ids: Vec<AsId> = net.ases().map(|a| a.id()).collect();
        for &d in &ids {
            let table = bgp.table(&net, d);
            for &s in &ids {
                assert!(
                    table[s.index()].is_some(),
                    "{s} cannot reach {d} under policy routing"
                );
            }
        }
    }

    #[test]
    fn all_paths_are_valley_free() {
        let net = test_net();
        let mut bgp = Bgp::new();
        let ids: Vec<AsId> = net.ases().map(|a| a.id()).collect();
        for &d in &ids {
            for &s in &ids {
                let path = bgp.as_path(&net, s, d).unwrap();
                assert!(
                    is_valley_free(&net, &path),
                    "path {path:?} from {s} to {d} has a valley"
                );
            }
        }
    }

    #[test]
    fn paths_are_consistent_with_next_hops() {
        let net = test_net();
        let mut bgp = Bgp::new();
        let ids: Vec<AsId> = net.ases().map(|a| a.id()).collect();
        let (s, d) = (ids[3], ids[ids.len() - 1]);
        let path = bgp.as_path(&net, s, d).unwrap();
        assert_eq!(path.first(), Some(&s));
        assert_eq!(path.last(), Some(&d));
        // No AS repeats (BGP loop prevention).
        let mut seen = path.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), path.len());
    }

    #[test]
    fn customer_routes_beat_shorter_provider_routes() {
        // Build a diamond: stub S buys from T; T buys from P1; S also
        // buys directly from P1. P1 must reach S via customer S directly;
        // T must reach S via customer S... construct a case where class
        // preference matters: X peers with P1 and buys from T2 which is a
        // customer chain to S of length 3; X's peer route via P1 is length
        // 2. Peer > provider so X picks the peer route even if a provider
        // route were shorter.
        let mut net = Network::new();
        let s = net.add_as("s", AsTier::Stub, false);
        let t = net.add_as("t", AsTier::Transit, false);
        let p1 = net.add_as("p1", AsTier::Tier1, false);
        let x = net.add_as("x", AsTier::Transit, false);
        // Relationships: p1 provider of t, t provider of s, p1 peer x,
        // x provider of nobody; x buys from p1? No: x peers with p1.
        net.add_relationship(p1, t, topology::Relationship::ProviderOf);
        net.add_relationship(t, s, topology::Relationship::ProviderOf);
        net.add_relationship(x, p1, topology::Relationship::PeerWith);
        let mut bgp = Bgp::new();
        let table = bgp.table(&net, s);
        let rx = table[x.index()].as_ref().expect("x reaches s via peer p1");
        assert_eq!(rx.class, RouteClass::Peer);
        assert_eq!(rx.next_hop, Some(p1));
        assert_eq!(rx.as_hops, 3); // x -> p1 -> t -> s
    }

    #[test]
    fn peer_routes_are_not_transitive() {
        // a peers b, b peers c: a must NOT reach c through b (no valley).
        let mut net = Network::new();
        let a = net.add_as("a", AsTier::Transit, false);
        let b = net.add_as("b", AsTier::Transit, false);
        let c = net.add_as("c", AsTier::Transit, false);
        net.add_relationship(a, b, topology::Relationship::PeerWith);
        net.add_relationship(b, c, topology::Relationship::PeerWith);
        let mut bgp = Bgp::new();
        assert!(bgp.as_path(&net, a, c).is_none());
    }

    #[test]
    fn provider_chain_is_reachable_both_ways() {
        let mut net = Network::new();
        let s1 = net.add_as("s1", AsTier::Stub, false);
        let t1 = net.add_as("t1", AsTier::Transit, false);
        let s2 = net.add_as("s2", AsTier::Stub, false);
        net.add_relationship(t1, s1, topology::Relationship::ProviderOf);
        net.add_relationship(t1, s2, topology::Relationship::ProviderOf);
        let mut bgp = Bgp::new();
        assert_eq!(bgp.as_path(&net, s1, s2).unwrap(), vec![s1, t1, s2]);
        assert_eq!(bgp.as_path(&net, s2, s1).unwrap(), vec![s2, t1, s1]);
    }

    #[test]
    fn tie_break_is_deterministic() {
        let net = test_net();
        let mut b1 = Bgp::new();
        let mut b2 = Bgp::new();
        let ids: Vec<AsId> = net.ases().map(|a| a.id()).collect();
        for &d in ids.iter().take(5) {
            for &s in ids.iter().take(10) {
                assert_eq!(b1.as_path(&net, s, d), b2.as_path(&net, s, d));
            }
        }
    }

    #[test]
    fn invalidate_clears_cache() {
        let net = test_net();
        let mut bgp = Bgp::new();
        let d = net.ases().next().unwrap().id();
        let _ = bgp.table(&net, d);
        bgp.invalidate();
        // Recomputes without panicking and still routes.
        assert!(bgp.table(&net, d)[d.index()].is_some());
    }

    mod properties {
        use super::*;
        use topology::AsTier;

        /// Deterministic test-case generator (SplitMix64): each call
        /// yields the next pseudo-random word of a fixed stream, so the
        /// randomized cases below are reproducible run to run.
        struct Gen(u64);

        impl Gen {
            fn next_u64(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                simcore::rng::mix64(self.0)
            }

            fn index(&mut self, n: usize) -> usize {
                (self.next_u64() % n as u64) as usize
            }

            /// A vector of `len in lo..hi` elements drawn from `0..m`.
            fn vec(&mut self, m: usize, lo: usize, hi: usize) -> Vec<usize> {
                let len = lo + self.index(hi - lo);
                (0..len).map(|_| self.index(m)).collect()
            }
        }

        /// A random miniature AS graph: `n` ASes; each non-root AS gets a
        /// random provider among lower-indexed ASes (a DAG, so the
        /// hierarchy is acyclic), plus random peer edges.
        fn random_net(providers: &[usize], peers: &[(usize, usize)]) -> Network {
            let n = providers.len() + 1;
            let mut net = Network::new();
            let ids: Vec<AsId> = (0..n)
                .map(|i| {
                    let tier = if i == 0 {
                        AsTier::Tier1
                    } else {
                        AsTier::Transit
                    };
                    net.add_as(format!("as{i}"), tier, false)
                })
                .collect();
            for (i, &p) in providers.iter().enumerate() {
                let child = ids[i + 1];
                let parent = ids[p % (i + 1)];
                net.add_relationship(parent, child, topology::Relationship::ProviderOf);
            }
            for &(a, b) in peers {
                let (a, b) = (ids[a % n], ids[b % n]);
                if a != b && !net.peers_of(a).contains(&b) {
                    net.add_relationship(a, b, topology::Relationship::PeerWith);
                }
            }
            net
        }

        #[test]
        fn computed_paths_are_always_valley_free() {
            let mut g = Gen(0xB6F0);
            for _ in 0..64 {
                let providers = g.vec(20, 1, 20);
                let peer_a = g.vec(20, 0, 10);
                let peers: Vec<(usize, usize)> = peer_a.iter().map(|&a| (a, g.index(20))).collect();
                let net = random_net(&providers, &peers);
                let mut bgp = Bgp::new();
                let ids: Vec<AsId> = net.ases().map(|a| a.id()).collect();
                for &d in &ids {
                    for &s in &ids {
                        if let Some(path) = bgp.as_path(&net, s, d) {
                            assert!(
                                is_valley_free(&net, &path),
                                "valley in {path:?} ({s} -> {d})"
                            );
                            assert_eq!(path.first(), Some(&s));
                            assert_eq!(path.last(), Some(&d));
                            // Loop freedom.
                            let mut sorted = path.clone();
                            sorted.sort();
                            let len = sorted.len();
                            sorted.dedup();
                            assert_eq!(sorted.len(), len);
                        }
                    }
                }
            }
        }

        #[test]
        fn reachability_is_symmetric() {
            // Gao-Rexford reachability under symmetric relationships
            // is symmetric: if s can reach d, d can reach s (the
            // reverse of a valley-free path is valley-free).
            let mut g = Gen(0x5EED);
            for _ in 0..64 {
                let providers = g.vec(20, 1, 20);
                let peer_a = g.vec(20, 0, 10);
                let peers: Vec<(usize, usize)> = peer_a.iter().map(|&a| (a, g.index(20))).collect();
                let net = random_net(&providers, &peers);
                let mut bgp = Bgp::new();
                let ids: Vec<AsId> = net.ases().map(|a| a.id()).collect();
                for &d in &ids {
                    for &s in &ids {
                        let fwd = bgp.as_path(&net, s, d).is_some();
                        let rev = bgp.as_path(&net, d, s).is_some();
                        assert_eq!(fwd, rev, "asymmetric reachability {s} <-> {d}");
                    }
                }
            }
        }

        #[test]
        fn everything_reaches_the_hierarchy_root() {
            // With a single connected provider tree and no peers,
            // every AS reaches every other (up to the root and down).
            let mut g = Gen(0xACE5);
            for _ in 0..64 {
                let providers = g.vec(20, 1, 20);
                let net = random_net(&providers, &[]);
                let mut bgp = Bgp::new();
                let ids: Vec<AsId> = net.ases().map(|a| a.id()).collect();
                for &s in &ids {
                    for &d in &ids {
                        assert!(
                            bgp.as_path(&net, s, d).is_some(),
                            "tree routing failed {s} -> {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn valley_detector_rejects_valleys() {
        let mut net = Network::new();
        let a = net.add_as("a", AsTier::Transit, false);
        let b = net.add_as("b", AsTier::Tier1, false);
        let c = net.add_as("c", AsTier::Transit, false);
        // b is provider of both a and c: a -> b -> c is "up then down", fine;
        // a -> b is up; the reverse c -> b -> a likewise. But b -> a -> b'
        // style valleys (down then up) must be rejected.
        net.add_relationship(b, a, topology::Relationship::ProviderOf);
        net.add_relationship(b, c, topology::Relationship::ProviderOf);
        assert!(is_valley_free(&net, &[a, b, c]));
        assert!(!is_valley_free(&net, &[b, a, b]), "down-up valley accepted");
    }
}
