//! # paths — multi-hop overlay path engine
//!
//! The paper stops at one-hop relays (`A → O → B`); this crate
//! generalizes path selection to bounded relay *chains*
//! (`A → O1 → O2 → B`, k ≤ 3) through the cloud backbone, plus an online
//! learner that picks among them without fresh probing:
//!
//! | module | role |
//! |---|---|
//! | [`enumerate`](mod@enumerate) | deterministic k-hop candidate enumeration with capacity- and price-aware pruning over the warmed `RouteCache` |
//! | [`bandit`] | deterministic UCB path selector over EWMA-smoothed goodput estimates with a fixed per-epoch probe budget |
//!
//! Determinism contract: enumeration order is a pure function of the
//! node set (direct first, then chains by length and lexicographic node
//! indices), per-epoch evaluation reads only the immutable `RouteCache`,
//! and the bandit draws randomness from its own forked `SimRng`
//! substream — so every consumer stays byte-identical at any
//! `--threads N`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod bandit;
pub mod enumerate;

pub use bandit::{BanditConfig, PathBandit};
pub use enumerate::{
    enumerate, evaluate, relay_hop_price_per_gb, score_arms, ArmEval, Candidate, EnumerateConfig,
    Waypoint,
};

/// A relay chain of up to three overlay-node indices, in traversal
/// order. An empty chain means the direct Internet path.
///
/// Kept `Copy` (node indices fit a byte — fleets are a handful of VMs)
/// so broker decisions and completion events can carry the whole chain
/// without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hops {
    nodes: [u8; 3],
    len: u8,
}

impl Hops {
    /// The hard bound on chain length (paper §VII-B explores two hops;
    /// beyond three the per-leg tunnel overheads dominate).
    pub const MAX_HOPS: usize = 3;

    /// The direct path: no relay hops.
    #[must_use]
    pub fn direct() -> Hops {
        Hops {
            nodes: [0; 3],
            len: 0,
        }
    }

    /// A one-hop chain through `node` (the classic paper overlay).
    #[must_use]
    pub fn single(node: usize) -> Hops {
        Hops::from_slice(&[node])
    }

    /// Builds a chain from node indices in traversal order.
    ///
    /// # Panics
    ///
    /// Panics if the slice is longer than [`Hops::MAX_HOPS`] or any
    /// index exceeds 255.
    #[must_use]
    pub fn from_slice(nodes: &[usize]) -> Hops {
        assert!(nodes.len() <= Hops::MAX_HOPS, "chain too long");
        let mut packed = [0u8; 3];
        for (slot, &n) in packed.iter_mut().zip(nodes) {
            *slot = u8::try_from(n).expect("overlay node index exceeds 255");
        }
        Hops {
            nodes: packed,
            len: nodes.len() as u8,
        }
    }

    /// Number of relay hops (0 for the direct path).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether this is the direct path (no relays).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th relay's overlay-node index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> usize {
        assert!(i < self.len(), "hop index out of range");
        self.nodes[i] as usize
    }

    /// Iterates the relay node indices in traversal order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes[..self.len()].iter().map(|&n| n as usize)
    }

    /// Whether the chain traverses overlay node `node`.
    #[must_use]
    pub fn contains(&self, node: usize) -> bool {
        self.iter().any(|n| n == node)
    }

    /// The first relay, if any (the admission-billed ingress node).
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        (self.len > 0).then(|| self.nodes[0] as usize)
    }
}

impl fmt::Display for Hops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "direct");
        }
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "O{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_pack_and_iterate_in_order() {
        let h = Hops::from_slice(&[4, 1, 2]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![4, 1, 2]);
        assert!(h.contains(1));
        assert!(!h.contains(3));
        assert_eq!(h.first(), Some(4));
        assert_eq!(h.to_string(), "O4-O1-O2");
    }

    #[test]
    fn direct_chain_is_empty() {
        let d = Hops::direct();
        assert!(d.is_empty());
        assert_eq!(d.first(), None);
        assert_eq!(d.to_string(), "direct");
        assert_eq!(Hops::single(3).iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "chain too long")]
    fn over_long_chain_panics() {
        let _ = Hops::from_slice(&[0, 1, 2, 3]);
    }
}
