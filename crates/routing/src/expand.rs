//! Router-level expansion of AS-level routes.
//!
//! Interdomain routing picks the AS sequence; *intradomain* routing picks
//! the routers. We expand with the two standard behaviours:
//!
//! * **intra-AS shortest path** by propagation delay (IGP metrics follow
//!   fiber distance, not transient queueing);
//! * **hot-potato egress**: when an AS hands traffic to the next AS, it
//!   exits at the border router closest (by IGP distance) to where the
//!   traffic entered — the "hot potato" policy the paper names as one of
//!   the reasons routing bottlenecks exist.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use topology::{AsId, LinkId, Network, RouterId};

use crate::bgp::Bgp;
use crate::path::RouterPath;

/// Reusable Dijkstra state. Both expansion call sites used to rebuild the
/// distance/predecessor vectors and the heap on every query; with tens of
/// thousands of queries per sweep that allocation churn dominated the
/// expansion cost. The scratch is generation-stamped: bumping `stamp`
/// invalidates every entry in O(1), so no per-query clearing either.
struct Scratch {
    stamp: u64,
    stamps: Vec<u64>,
    dist: Vec<u64>,
    prev: Vec<Option<(RouterId, LinkId)>>,
    heap: BinaryHeap<Reverse<(u64, RouterId)>>,
}

impl Scratch {
    const fn new() -> Scratch {
        Scratch {
            stamp: 0,
            stamps: Vec::new(),
            dist: Vec::new(),
            prev: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn dist(&self, r: RouterId) -> u64 {
        if self.stamps[r.index()] == self.stamp {
            self.dist[r.index()]
        } else {
            u64::MAX
        }
    }

    #[inline]
    fn prev(&self, r: RouterId) -> Option<(RouterId, LinkId)> {
        if self.stamps[r.index()] == self.stamp {
            self.prev[r.index()]
        } else {
            None
        }
    }

    #[inline]
    fn relax(&mut self, r: RouterId, d: u64, from: Option<(RouterId, LinkId)>) {
        let i = r.index();
        self.stamps[i] = self.stamp;
        self.dist[i] = d;
        self.prev[i] = from;
    }

    /// Dijkstra over the intra-AS subgraph of `from`'s AS, weighted by
    /// link propagation delay. Stops early once `to` is settled (pass
    /// `None` to compute distances to every reachable router of the AS).
    fn dijkstra(&mut self, net: &Network, from: RouterId, to: Option<RouterId>) {
        let n = net.router_count();
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.dist.resize(n, u64::MAX);
            self.prev.resize(n, None);
        }
        self.stamp += 1;
        self.heap.clear();
        let asn = net.router(from).asn();
        self.relax(from, 0, None);
        self.heap.push(Reverse((0, from)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist(u) {
                continue;
            }
            if Some(u) == to {
                break;
            }
            for &(v, l) in net.neighbors(u) {
                if net.router(v).asn() != asn {
                    continue;
                }
                let nd = d + net.link(l).prop_delay().as_nanos().max(1);
                if nd < self.dist(v) {
                    self.relax(v, nd, Some((u, l)));
                    self.heap.push(Reverse((nd, v)));
                }
            }
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// Shortest intra-AS route between two routers of the same AS, weighted
/// by link propagation delay (nanoseconds). Returns `None` if the AS's
/// internal graph does not connect them.
///
/// # Panics
///
/// Panics if the routers belong to different ASes.
#[must_use]
pub fn intra_as_path(net: &Network, from: RouterId, to: RouterId) -> Option<RouterPath> {
    let asn = net.router(from).asn();
    assert_eq!(
        asn,
        net.router(to).asn(),
        "intra_as_path called across AS boundary"
    );
    if from == to {
        return Some(RouterPath::trivial(from));
    }
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.dijkstra(net, from, Some(to));
        if s.dist(to) == u64::MAX {
            return None;
        }
        // Reconstruct.
        let mut routers = vec![to];
        let mut links = Vec::new();
        let mut cur = to;
        while let Some((p, l)) = s.prev(cur) {
            routers.push(p);
            links.push(l);
            cur = p;
        }
        routers.reverse();
        links.reverse();
        Some(RouterPath::new(routers, links))
    })
}

/// Computes the default (BGP-selected) router-level path from `src` to
/// `dst`, or `None` if policy routing cannot connect them.
///
/// # Example
///
/// ```
/// use topology::gen::{generate, InternetConfig};
/// use routing::{route, Bgp};
///
/// let mut net = generate(&InternetConfig::small(), 3);
/// let stubs: Vec<_> = net
///     .ases()
///     .filter(|a| a.tier() == topology::AsTier::Stub)
///     .map(|a| a.id())
///     .collect();
/// let a = net.attach_host("a", stubs[0], 100_000_000);
/// let b = net.attach_host("b", stubs[1], 100_000_000);
/// let path = route(&net, &mut Bgp::new(), a, b).unwrap();
/// assert!(path.is_consistent(&net));
/// ```
#[must_use]
pub fn route(net: &Network, bgp: &mut Bgp, src: RouterId, dst: RouterId) -> Option<RouterPath> {
    let src_as = net.router(src).asn();
    let dst_as = net.router(dst).asn();
    let as_path = bgp.as_path(net, src_as, dst_as)?;
    expand_as_path(net, &as_path, src, dst)
}

/// Expands an explicit AS path into a router-level path with hot-potato
/// egress selection. Returns `None` if some AS pair on the path has no
/// connecting link or an AS's internal graph is disconnected.
#[must_use]
pub fn expand_as_path(
    net: &Network,
    as_path: &[AsId],
    src: RouterId,
    dst: RouterId,
) -> Option<RouterPath> {
    let mut path = RouterPath::trivial(src);
    let mut ingress = src;
    for (i, window) in as_path.windows(2).enumerate() {
        let (cur_as, next_as) = (window[0], window[1]);
        debug_assert_eq!(net.router(ingress).asn(), cur_as, "expansion desync");
        // Hot potato: among the links to next_as, pick the one whose
        // near-side border router is IGP-closest to the ingress.
        let candidates = net.links_between(cur_as, next_as);
        if candidates.is_empty() {
            return None;
        }
        let best = SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            s.dijkstra(net, ingress, None);
            let mut best: Option<(u64, LinkId, RouterId, RouterId)> = None;
            for &l in candidates {
                let link = net.link(l);
                let (near, far) = if net.router(link.a()).asn() == cur_as {
                    (link.a(), link.b())
                } else {
                    (link.b(), link.a())
                };
                let d = s.dist(near);
                if d == u64::MAX {
                    continue;
                }
                let cand = (d, l, near, far);
                if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best = Some(cand);
                }
            }
            best
        });
        let (_, l, near, far) = best?;
        let to_border = intra_as_path(net, ingress, near)?;
        path = path.join(to_border);
        path = path.join(RouterPath::new(vec![near, far], vec![l]));
        ingress = far;
        let _ = i;
    }
    // Final leg inside the destination AS.
    let tail = intra_as_path(net, ingress, dst)?;
    Some(path.join(tail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::is_valley_free;
    use topology::gen::{generate, InternetConfig};
    use topology::{AsTier, RouterKind};

    fn net_with_hosts() -> (Network, Vec<RouterId>) {
        let mut net = generate(&InternetConfig::small(), 21);
        let stubs: Vec<AsId> = net
            .ases()
            .filter(|a| a.tier() == AsTier::Stub)
            .map(|a| a.id())
            .collect();
        let hosts: Vec<RouterId> = stubs
            .iter()
            .take(8)
            .enumerate()
            .map(|(i, &s)| net.attach_host(&format!("h{i}"), s, 100_000_000))
            .collect();
        (net, hosts)
    }

    /// FNV-1a over every route between 16 hosts on the paper-scale
    /// Internet at seed 7: router ids, link ids, and a marker for an
    /// unroutable pair. The `RouteCache` tests compare the cache with
    /// lazy `Bgp`, but both sides go through this module's expansion, so
    /// only a fixed digest catches a change to hot-potato egress or the
    /// IGP shortest paths.
    #[test]
    fn paper_scale_expansion_matches_golden_digest() {
        let mut net = generate(&InternetConfig::paper_scale(), 7);
        let stubs: Vec<AsId> = net
            .ases()
            .filter(|a| a.tier() == AsTier::Stub)
            .map(|a| a.id())
            .collect();
        let hosts: Vec<RouterId> = (0..16)
            .map(|i| {
                net.attach_host(
                    &format!("h{i}"),
                    stubs[(i * 3 + 5) % stubs.len()],
                    100_000_000,
                )
            })
            .collect();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |word: u32| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut bgp = Bgp::new();
        for &a in &hosts {
            for &b in &hosts {
                match route(&net, &mut bgp, a, b) {
                    Some(p) => {
                        feed(p.routers().len() as u32);
                        p.routers().iter().for_each(|r| feed(r.raw()));
                        p.links().iter().for_each(|l| feed(l.raw()));
                    }
                    None => feed(u32::MAX),
                }
            }
        }
        assert_eq!(
            hash, 0x785b_9afa_20c7_f07a,
            "router-level expansion changed: {hash:#018x}"
        );
    }

    #[test]
    fn routes_exist_between_all_test_hosts() {
        let (net, hosts) = net_with_hosts();
        let mut bgp = Bgp::new();
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let p = route(&net, &mut bgp, a, b).expect("hosts must be connected");
                assert_eq!(p.source(), a);
                assert_eq!(p.destination(), b);
                assert!(p.is_consistent(&net));
            }
        }
    }

    #[test]
    fn expanded_paths_follow_the_as_path() {
        let (net, hosts) = net_with_hosts();
        let mut bgp = Bgp::new();
        let p = route(&net, &mut bgp, hosts[0], hosts[1]).unwrap();
        let expect = bgp
            .as_path(&net, net.router(hosts[0]).asn(), net.router(hosts[1]).asn())
            .unwrap();
        assert_eq!(p.as_path(&net), expect);
        assert!(is_valley_free(&net, &p.as_path(&net)));
    }

    #[test]
    fn paths_have_no_router_loops() {
        let (net, hosts) = net_with_hosts();
        let mut bgp = Bgp::new();
        for &a in &hosts[..4] {
            for &b in &hosts[..4] {
                if a == b {
                    continue;
                }
                let p = route(&net, &mut bgp, a, b).unwrap();
                let mut routers = p.routers().to_vec();
                routers.sort();
                let n = routers.len();
                routers.dedup();
                assert_eq!(routers.len(), n, "router repeated on {a}->{b}");
            }
        }
    }

    #[test]
    fn intra_as_path_within_single_as() {
        let (net, _) = net_with_hosts();
        // Pick a tier-1 AS with several routers.
        let t1 = net.ases().find(|a| a.tier() == AsTier::Tier1).unwrap();
        let routers = t1.routers();
        let p = intra_as_path(&net, routers[0], routers[routers.len() - 1]).unwrap();
        assert!(p.is_consistent(&net));
        // All hops stay inside the AS.
        for &r in p.routers() {
            assert_eq!(net.router(r).asn(), t1.id());
        }
    }

    #[test]
    fn intra_as_trivial_when_same_router() {
        let (net, hosts) = net_with_hosts();
        let p = intra_as_path(&net, hosts[0], hosts[0]).unwrap();
        assert_eq!(p.hop_count(), 0);
    }

    #[test]
    #[should_panic(expected = "across AS boundary")]
    fn intra_as_rejects_cross_as_query() {
        let (net, hosts) = net_with_hosts();
        let _ = intra_as_path(&net, hosts[0], hosts[1]);
    }

    #[test]
    fn routing_is_deterministic() {
        let (net, hosts) = net_with_hosts();
        let mut b1 = Bgp::new();
        let mut b2 = Bgp::new();
        for &a in &hosts[..3] {
            for &b in &hosts[..3] {
                if a != b {
                    assert_eq!(route(&net, &mut b1, a, b), route(&net, &mut b2, a, b));
                }
            }
        }
    }

    #[test]
    fn hot_potato_exits_at_nearest_border() {
        // Two links between AS a (routers in Chicago + Tokyo) and AS b;
        // traffic entering at Chicago must leave via the Chicago-side link.
        use simcore::SimDuration;
        use topology::congestion::CongestionProfile;
        use topology::geo::city_by_name;
        use topology::LinkKind;

        let mut net = Network::new();
        let a = net.add_as("a", AsTier::Transit, false);
        let b = net.add_as("b", AsTier::Stub, false);
        net.add_relationship(a, b, topology::Relationship::ProviderOf);
        let chi = city_by_name("Chicago").unwrap();
        let tok = city_by_name("Tokyo").unwrap();
        let a_chi = net.add_router(a, chi, RouterKind::Backbone);
        let a_tok = net.add_router(a, tok, RouterKind::Backbone);
        let b_chi = net.add_router(b, chi, RouterKind::Backbone);
        let b_tok = net.add_router(b, tok, RouterKind::Backbone);
        net.add_link(
            a_chi,
            a_tok,
            LinkKind::IntraAs,
            1_000_000_000,
            SimDuration::from_millis(50),
            CongestionProfile::clean(),
        );
        net.add_link(
            b_chi,
            b_tok,
            LinkKind::IntraAs,
            1_000_000_000,
            SimDuration::from_millis(50),
            CongestionProfile::clean(),
        );
        let l_chi = net.add_link(
            a_chi,
            b_chi,
            LinkKind::Transit,
            1_000_000_000,
            SimDuration::from_millis(1),
            CongestionProfile::clean(),
        );
        let _l_tok = net.add_link(
            a_tok,
            b_tok,
            LinkKind::Transit,
            1_000_000_000,
            SimDuration::from_millis(1),
            CongestionProfile::clean(),
        );
        // From a_chi to b_tok: hot potato exits via the Chicago link even
        // though the Tokyo link would put the long haul inside AS a.
        let p = expand_as_path(&net, &[a, b], a_chi, b_tok).unwrap();
        assert!(p.links().contains(&l_chi));
        assert_eq!(p.routers()[0], a_chi);
        assert_eq!(p.routers()[1], b_chi);
    }
}
