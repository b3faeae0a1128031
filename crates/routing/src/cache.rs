//! Read-only route memoization for parallel sweeps.
//!
//! The sweep experiments query the same router pairs over and over: every
//! client's overlay evaluation re-derives the same `sender → node` and
//! `node → receiver` segments. [`RouteCache`] eliminates that rework in
//! two deterministic steps:
//!
//! 1. **Warming** ([`RouteCache::build`]): the per-destination BGP tables
//!    for *every* AS are computed up front (in parallel — each table is a
//!    pure function of the network), replacing [`crate::Bgp`]'s lazy,
//!    `&mut`-threaded cache with an immutable structure workers can share.
//! 2. **Prefetching** ([`RouteCache::prefetch`]): the caller enumerates
//!    the router pairs its sweep will ask for repeatedly; their expanded
//!    paths are computed once (again in parallel) and frozen into a map.
//!
//! After that the cache is read-only: [`RouteCache::route`] is a hash
//! lookup and a clone ([`RouteCache::route_ref`] borrows instead), shared
//! across worker threads without locks. Hit
//! and miss counts are kept in relaxed atomics and are deterministic
//! by construction — membership of the map is fixed before the query
//! phase, so whether a given lookup hits never depends on thread
//! scheduling. [`RouteCache::publish`] reports the totals through `obs`
//! (`routing.route_cache.hits` / `.misses`).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use topology::{AsId, Network, RouterId};

use crate::bgp::{compute_table, AsRoute};
use crate::expand::expand_as_path;
use crate::path::RouterPath;

/// Immutable, share-everything route cache (see module docs).
#[derive(Debug)]
pub struct RouteCache {
    /// Per-destination AS routing tables, indexed by `AsId::index()`.
    tables: Vec<Vec<Option<AsRoute>>>,
    /// Memoized expanded paths for the prefetched pairs.
    paths: HashMap<(RouterId, RouterId), Option<RouterPath>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RouteCache {
    /// Warms the per-destination BGP tables for every AS in `net`.
    #[must_use]
    pub fn build(net: &Network) -> RouteCache {
        let tables = exec::parallel_map(net.as_count(), |i| {
            compute_table(net, AsId::from_raw(i as u32))
        });
        RouteCache {
            tables,
            paths: HashMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The AS-level path from `src` to `dest` out of the warmed tables
    /// (inclusive of both ends), or `None` if policy routing cannot
    /// connect them. Same walk as [`crate::Bgp::as_path`], but `&self`.
    ///
    /// # Panics
    ///
    /// Panics on a routing loop (cannot happen for tables computed from
    /// a consistent network).
    #[must_use]
    pub fn as_path(&self, net: &Network, src: AsId, dest: AsId) -> Option<Vec<AsId>> {
        let table = &self.tables[dest.index()];
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

    /// Computes the BGP-selected router-level path without touching the
    /// memo or the counters. Used for pairs that are only ever queried
    /// once (e.g. each sweep's direct sender→receiver path), where
    /// memoization is pure overhead.
    #[must_use]
    pub fn route_uncached(
        &self,
        net: &Network,
        src: RouterId,
        dst: RouterId,
    ) -> Option<RouterPath> {
        let as_path = self.as_path(net, net.router(src).asn(), net.router(dst).asn())?;
        expand_as_path(net, &as_path, src, dst)
    }

    /// Expands and freezes the paths for `keys` (skipping pairs already
    /// present), in parallel, and counts each newly computed pair as one
    /// cache miss. Call before the read-only query phase.
    pub fn prefetch(&mut self, net: &Network, keys: &[(RouterId, RouterId)]) {
        let mut seen: HashSet<(RouterId, RouterId)> = HashSet::with_capacity(keys.len());
        let todo: Vec<(RouterId, RouterId)> = keys
            .iter()
            .copied()
            .filter(|k| !self.paths.contains_key(k) && seen.insert(*k))
            .collect();
        let computed = {
            let this = &*self;
            exec::parallel_map(todo.len(), |i| {
                this.route_uncached(net, todo[i].0, todo[i].1)
            })
        };
        self.misses.fetch_add(todo.len() as u64, Ordering::Relaxed);
        for (k, p) in todo.into_iter().zip(computed) {
            self.paths.insert(k, p);
        }
    }

    /// The memoized route for a prefetched pair (a hit), or a fresh
    /// computation for anything else (a miss — the result is *not*
    /// inserted, keeping the cache read-only and the counters independent
    /// of thread scheduling).
    #[must_use]
    pub fn route(&self, net: &Network, src: RouterId, dst: RouterId) -> Option<RouterPath> {
        self.route_ref(net, src, dst).map(Cow::into_owned)
    }

    /// [`RouteCache::route`] for a caller that only reads the path: a hit
    /// borrows it from the memo instead of cloning it. Counts hits and
    /// misses exactly as `route` does.
    #[must_use]
    pub fn route_ref(
        &self,
        net: &Network,
        src: RouterId,
        dst: RouterId,
    ) -> Option<Cow<'_, RouterPath>> {
        match self.paths.get(&(src, dst)) {
            Some(path) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                path.as_ref().map(Cow::Borrowed)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.route_uncached(net, src, dst).map(Cow::Owned)
            }
        }
    }

    /// Number of memoized lookups served.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of full computations (prefetch plus non-memoized lookups).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of counted queries served from the memo (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Adds the current totals to the `obs` counters
    /// `routing.route_cache.hits` / `routing.route_cache.misses` and sets
    /// the `routing.route_cache.hit_rate` gauge. No-op while collection
    /// is disabled.
    pub fn publish(&self) {
        obs::add_named("routing.route_cache.hits", self.hits());
        obs::add_named("routing.route_cache.misses", self.misses());
        obs::set(obs::gauge("routing.route_cache.hit_rate"), self.hit_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::Bgp;
    use crate::expand::route;
    use topology::gen::{generate, InternetConfig};
    use topology::AsTier;

    fn net_with_hosts() -> (Network, Vec<RouterId>) {
        let mut net = generate(&InternetConfig::small(), 21);
        let stubs: Vec<AsId> = net
            .ases()
            .filter(|a| a.tier() == AsTier::Stub)
            .map(|a| a.id())
            .collect();
        let hosts: Vec<RouterId> = stubs
            .iter()
            .take(6)
            .enumerate()
            .map(|(i, &s)| net.attach_host(&format!("h{i}"), s, 100_000_000))
            .collect();
        (net, hosts)
    }

    #[test]
    fn warmed_tables_agree_with_lazy_bgp() {
        let (net, hosts) = net_with_hosts();
        let cache = RouteCache::build(&net);
        let mut bgp = Bgp::new();
        for &a in &hosts {
            for &b in &hosts {
                let (sa, sb) = (net.router(a).asn(), net.router(b).asn());
                assert_eq!(cache.as_path(&net, sa, sb), bgp.as_path(&net, sa, sb));
                assert_eq!(
                    cache.route_uncached(&net, a, b),
                    route(&net, &mut bgp, a, b),
                    "cache diverged from Bgp for {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn prefetched_pairs_hit_and_match() {
        let (net, hosts) = net_with_hosts();
        let mut cache = RouteCache::build(&net);
        let keys: Vec<(RouterId, RouterId)> = hosts
            .iter()
            .flat_map(|&a| hosts.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a != b)
            .collect();
        cache.prefetch(&net, &keys);
        assert_eq!(cache.misses(), keys.len() as u64);
        assert_eq!(cache.hits(), 0);
        let mut bgp = Bgp::new();
        for &(a, b) in &keys {
            assert_eq!(cache.route(&net, a, b), route(&net, &mut bgp, a, b));
            // A second query is served from the memo too.
            let _ = cache.route(&net, a, b);
        }
        assert_eq!(cache.hits(), 2 * keys.len() as u64);
        assert_eq!(cache.misses(), keys.len() as u64);
        assert!(cache.hit_rate() > 0.6);
    }

    #[test]
    fn borrowed_lookups_count_and_route_as_cloned_ones() {
        let (net, hosts) = net_with_hosts();
        let mut cache = RouteCache::build(&net);
        let known = (hosts[0], hosts[1]);
        cache.prefetch(&net, &[known]);
        let (h, m) = (cache.hits(), cache.misses());
        for (a, b) in [known, (hosts[2], hosts[3])] {
            let owned = cache.route(&net, a, b);
            let borrowed = cache.route_ref(&net, a, b);
            assert_eq!(borrowed.as_deref(), owned.as_ref());
        }
        assert!(matches!(
            cache.route_ref(&net, known.0, known.1),
            Some(Cow::Borrowed(_))
        ));
        assert_eq!((cache.hits(), cache.misses()), (h + 3, m + 2));
    }

    #[test]
    fn prefetch_dedups_and_skips_known_pairs() {
        let (net, hosts) = net_with_hosts();
        let mut cache = RouteCache::build(&net);
        let k = (hosts[0], hosts[1]);
        cache.prefetch(&net, &[k, k, k]);
        assert_eq!(cache.misses(), 1, "duplicate keys counted once");
        cache.prefetch(&net, &[k, (hosts[1], hosts[2])]);
        assert_eq!(cache.misses(), 2, "known key not recomputed");
    }

    #[test]
    fn unprefetched_lookup_is_a_miss_but_still_routes() {
        let (net, hosts) = net_with_hosts();
        let cache = RouteCache::build(&net);
        let mut bgp = Bgp::new();
        let got = cache.route(&net, hosts[0], hosts[1]);
        assert_eq!(got, route(&net, &mut bgp, hosts[0], hosts[1]));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
    }
}
