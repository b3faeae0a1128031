//! Path diversity analysis (paper §V-A).
//!
//! The diversity score of an overlay path relative to the direct path:
//!
//! ```text
//! diversity = 1 − (# common routers) / (total routers in direct path)
//! ```
//!
//! and the three-segment location analysis: the paper divides each direct
//! path into three equal-length segments and finds that 87% of the
//! routers shared with overlay paths sit in the two end segments — i.e.
//! overlays change the *middle* of the path, which is where the
//! bottlenecks are.

use std::collections::HashSet;

use routing::RouterPath;
use topology::RouterId;

/// The §V-A diversity score in `[0, 1]`: 1 means the overlay path shares
/// no router with the direct path; 0 means it contains all of them.
///
/// # Example
///
/// ```
/// use routing::RouterPath;
/// use topology::RouterId;
/// use measure::diversity::diversity_score;
///
/// let r = |i| RouterId::from_raw(i);
/// let direct = RouterPath::trivial(r(0));
/// let overlay = RouterPath::trivial(r(0));
/// assert_eq!(diversity_score(&direct, &overlay), 0.0);
/// ```
#[must_use]
pub fn diversity_score(direct: &RouterPath, overlay: &RouterPath) -> f64 {
    let overlay_set: HashSet<RouterId> = overlay.routers().iter().copied().collect();
    let total = direct.routers().len();
    let common = direct
        .routers()
        .iter()
        .filter(|r| overlay_set.contains(r))
        .count();
    1.0 - common as f64 / total as f64
}

/// Counts the common routers falling into each third of the direct path
/// (by position): `[first, middle, last]`.
///
/// The paper reports 87% of common routers in the two end segments.
#[must_use]
pub fn common_router_segments(direct: &RouterPath, overlay: &RouterPath) -> [usize; 3] {
    let overlay_set: HashSet<RouterId> = overlay.routers().iter().copied().collect();
    let n = direct.routers().len();
    let mut out = [0usize; 3];
    for (i, r) in direct.routers().iter().enumerate() {
        if overlay_set.contains(r) {
            // Segment by position: thirds of the router sequence.
            let seg = (i * 3 / n).min(2);
            out[seg] += 1;
        }
    }
    out
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

        /// A vector of `len in 1..20` router ids drawn from `0..m`.
        fn ids(&mut self, m: u32) -> Vec<u32> {
            let len = 1 + (self.next_u64() % 19) as usize;
            (0..len)
                .map(|_| (self.next_u64() % m as u64) as u32)
                .collect()
        }
    }

    fn path_of(ids: &[u32]) -> RouterPath {
        // Build a structurally valid RouterPath without a Network: use
        // trivial paths joined? RouterPath::new needs links; for diversity
        // analysis only the router sequence matters, so synthesize links
        // with sequential ids.
        let routers: Vec<RouterId> = ids.iter().map(|&i| RouterId::from_raw(i)).collect();
        let links = (0..ids.len().saturating_sub(1))
            .map(|i| topology::LinkId::from_raw(i as u32))
            .collect();
        RouterPath::new(routers, links)
    }

    #[test]
    fn identical_paths_have_zero_diversity() {
        let p = path_of(&[1, 2, 3, 4]);
        assert_eq!(diversity_score(&p, &p), 0.0);
    }

    #[test]
    fn disjoint_paths_have_full_diversity() {
        let direct = path_of(&[1, 2, 3, 4]);
        let overlay = path_of(&[5, 6, 7]);
        assert_eq!(diversity_score(&direct, &overlay), 1.0);
    }

    #[test]
    fn shared_endpoints_only() {
        // Realistic case: both paths share source and destination (2 of
        // 5 routers) but differ in the middle.
        let direct = path_of(&[1, 2, 3, 4, 5]);
        let overlay = path_of(&[1, 9, 8, 7, 5]);
        assert!((diversity_score(&direct, &overlay) - 0.6).abs() < 1e-12);
        let segs = common_router_segments(&direct, &overlay);
        assert_eq!(segs, [1, 0, 1], "common routers are at the ends");
    }

    #[test]
    fn segment_assignment_splits_in_thirds() {
        let direct = path_of(&[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        let overlay = direct.clone();
        let segs = common_router_segments(&direct, &overlay);
        assert_eq!(segs, [3, 3, 3]);
    }

    #[test]
    fn middle_segment_diversity_detected() {
        let direct = path_of(&[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        let overlay = path_of(&[0, 1, 2, 30, 40, 50, 6, 7, 8]);
        let segs = common_router_segments(&direct, &overlay);
        assert_eq!(segs, [3, 0, 3]);
        let end_fraction = (segs[0] + segs[2]) as f64 / (segs.iter().sum::<usize>() as f64);
        assert_eq!(end_fraction, 1.0);
    }

    #[test]
    fn diversity_is_always_in_unit_interval() {
        let mut g = Gen(0xD1CE);
        for _ in 0..256 {
            let direct = g.ids(50);
            let overlay = g.ids(50);
            let d = path_of(&direct);
            let o = path_of(&overlay);
            let s = diversity_score(&d, &o);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn segment_counts_sum_to_common_count() {
        let mut g = Gen(0x5E65);
        for _ in 0..256 {
            let direct = g.ids(30);
            let overlay = g.ids(30);
            let d = path_of(&direct);
            let o = path_of(&overlay);
            let segs = common_router_segments(&d, &o);
            let overlay_set: std::collections::HashSet<u32> = overlay.iter().copied().collect();
            let common = direct.iter().filter(|r| overlay_set.contains(r)).count();
            assert_eq!(segs.iter().sum::<usize>(), common);
        }
    }
}
