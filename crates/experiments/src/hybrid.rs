//! Transport-level fidelity check (`cronets accuracy`).
//!
//! [`transport::hybrid::HybridSim`] settles a flow analytically while
//! its path is steady and promotes it to the packet engine only where
//! the analytic model is unsafe. This module measures what that costs
//! in accuracy on the paper's own packet-level scenario: every Fig. 12/13
//! bar (single-path direct TCP, best overlay, MPTCP under both
//! couplings) is computed at [`Fidelity::Des`] and at
//! [`Fidelity::Hybrid`] from identical routed paths and seeds, so every
//! difference is attributable to the hybrid settlement itself.

use std::collections::HashMap;
use std::fmt;

use routing::RouterPath;
use simcore::SimDuration;
use topology::{LinkId, Network};
use transport::des::{CongestionAlg, CouplingAlg, DesPath, MptcpConfig, TransferConfig};
use transport::hybrid::HybridSim;
use transport::model::TcpParams;
use transport::Fidelity;

use crate::mptcp_exp::{prepared_pairs, MptcpExpConfig};

/// Maps router-level paths into one [`HybridSim`], instantiating every
/// topology link once so subflows contend where the real paths share
/// links (the same construction `cronets::select::mptcp` uses for its
/// [`transport::des::Netsim`]).
fn build_paths(sim: &mut HybridSim, net: &Network, paths: &[&RouterPath]) -> Vec<DesPath> {
    let mut index: HashMap<LinkId, usize> = HashMap::new();
    paths
        .iter()
        .map(|path| {
            let links = path
                .links()
                .iter()
                .map(|&l| {
                    *index.entry(l).or_insert_with(|| {
                        let link = net.link(l);
                        let queue = (link.capacity_bps() / 8 / 10).max(64 << 10);
                        sim.add_link(link.capacity_bps(), link.latency(), link.loss_prob(), queue)
                    })
                })
                .collect();
            DesPath::new(links)
        })
        .collect()
}

/// Single-path TCP goodput over one routed path at the given fidelity
/// (at [`Fidelity::Des`] this replays into a [`transport::des::Netsim`]
/// byte-identically).
fn tcp_at(
    net: &Network,
    path: &RouterPath,
    params: &TcpParams,
    duration: SimDuration,
    seed: u64,
    fidelity: Fidelity,
) -> f64 {
    let mut sim = HybridSim::new(seed, fidelity);
    let mut des_paths = build_paths(&mut sim, net, &[path]);
    let cfg = TransferConfig {
        duration,
        params: *params,
        cc: CongestionAlg::Reno,
        sample_interval: None,
    };
    let f = sim.add_tcp_flow(des_paths.remove(0), &cfg);
    sim.run().remove(f).goodput_bps
}

/// MPTCP aggregate goodput over all paths at the given fidelity.
fn mptcp_at(
    net: &Network,
    paths: &[&RouterPath],
    coupling: CouplingAlg,
    params: &TcpParams,
    duration: SimDuration,
    seed: u64,
    fidelity: Fidelity,
) -> f64 {
    let mut sim = HybridSim::new(seed, fidelity);
    let des_paths = build_paths(&mut sim, net, paths);
    let cfg = MptcpConfig {
        transfer: TransferConfig {
            duration,
            params: *params,
            cc: CongestionAlg::Cubic,
            sample_interval: None,
        },
        coupling,
    };
    let f = sim.add_mptcp_flow(des_paths, &cfg);
    sim.run().remove(f).goodput_bps
}

/// One figure quantity of Fig. 12/13, measured at both fidelities.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Worst-direct pair index (the figure's x axis, 0-based).
    pub pair: usize,
    /// Which bar: `direct`, `max_overlay`, `mptcp_olia` or `mptcp_cubic`.
    pub quantity: &'static str,
    /// Goodput under full DES, bps.
    pub des_bps: f64,
    /// Goodput under hybrid fidelity, bps.
    pub hybrid_bps: f64,
}

impl AccuracyRow {
    /// Relative hybrid-vs-DES goodput error, percent.
    #[must_use]
    pub fn err_pct(&self) -> f64 {
        (self.hybrid_bps - self.des_bps).abs() / self.des_bps.max(1.0) * 100.0
    }
}

/// Hybrid-vs-DES goodput accuracy over the Fig. 12/13 scenario: every
/// figure bar (single-path direct TCP, best overlay, MPTCP under both
/// couplings) computed at both fidelities from identical routed paths.
#[derive(Debug, Clone)]
pub struct HybridAccuracy {
    /// One row per (pair, figure quantity).
    pub rows: Vec<AccuracyRow>,
}

impl HybridAccuracy {
    /// Worst relative error across all rows, percent.
    #[must_use]
    pub fn max_err_pct(&self) -> f64 {
        self.rows
            .iter()
            .map(AccuracyRow::err_pct)
            .fold(0.0, f64::max)
    }

    /// Mean relative error across all rows, percent.
    #[must_use]
    pub fn mean_err_pct(&self) -> f64 {
        self.rows.iter().map(AccuracyRow::err_pct).sum::<f64>() / self.rows.len().max(1) as f64
    }

    /// The accuracy table as TSV (with a `#`-prefixed header).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("# pair\tquantity\tdes_bps\thybrid_bps\terr_pct\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{}\t{:.0}\t{:.0}\t{:.3}\n",
                r.pair,
                r.quantity,
                r.des_bps,
                r.hybrid_bps,
                r.err_pct()
            ));
        }
        out.push_str(&format!(
            "# max_err_pct\t{:.3}\tmean_err_pct\t{:.3}\n",
            self.max_err_pct(),
            self.mean_err_pct()
        ));
        out
    }
}

impl fmt::Display for HybridAccuracy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== hybrid-vs-DES goodput accuracy (Fig. 12/13 scenario) ==="
        )?;
        writeln!(
            f,
            "{:>4} {:>12} {:>12} {:>12} {:>8}",
            "pair", "quantity", "DES Mbps", "hybrid Mbps", "err"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>4} {:>12} {:>12.2} {:>12.2} {:>7.2}%",
                r.pair,
                r.quantity,
                r.des_bps / 1e6,
                r.hybrid_bps / 1e6,
                r.err_pct()
            )?;
        }
        writeln!(
            f,
            "max error {:.2}%, mean error {:.2}% over {} quantities",
            self.max_err_pct(),
            self.mean_err_pct(),
            self.rows.len()
        )
    }
}

/// Runs the Fig. 12/13 accuracy check: each kept worst-direct pair's
/// figure quantities at [`Fidelity::Des`] and [`Fidelity::Hybrid`],
/// with identical seeds and identical shared-link DES construction, so
/// every difference is attributable to the hybrid settlement itself.
#[must_use]
pub fn accuracy(config: &MptcpExpConfig) -> HybridAccuracy {
    let (world, params, prepared) = prepared_pairs(config);
    let world = &world;
    let prepared = &prepared;
    let per_pair = exec::parallel_map(prepared.len(), |i| {
        let p = &prepared[i];
        let seed = config.seed ^ ((i as u64) << 8);
        let at = |fid| tcp_at(&world.net, &p.direct, &params, config.duration, seed, fid);
        let best = |fid| {
            p.overlays
                .iter()
                .enumerate()
                .map(|(j, path)| {
                    tcp_at(
                        &world.net,
                        path,
                        &params,
                        config.duration,
                        seed ^ (j as u64 + 1),
                        fid,
                    )
                })
                .fold(0.0, f64::max)
        };
        let mut all_paths: Vec<&RouterPath> = vec![&p.direct];
        all_paths.extend(p.overlays.iter());
        let agg = |coupling, fid| {
            mptcp_at(
                &world.net,
                &all_paths,
                coupling,
                &params,
                config.duration,
                seed ^ 0xFF,
                fid,
            )
        };
        vec![
            AccuracyRow {
                pair: i,
                quantity: "direct",
                des_bps: at(Fidelity::Des),
                hybrid_bps: at(Fidelity::Hybrid),
            },
            AccuracyRow {
                pair: i,
                quantity: "max_overlay",
                des_bps: best(Fidelity::Des),
                hybrid_bps: best(Fidelity::Hybrid),
            },
            AccuracyRow {
                pair: i,
                quantity: "mptcp_olia",
                des_bps: agg(CouplingAlg::Olia, Fidelity::Des),
                hybrid_bps: agg(CouplingAlg::Olia, Fidelity::Hybrid),
            },
            AccuracyRow {
                pair: i,
                quantity: "mptcp_cubic",
                des_bps: agg(CouplingAlg::Uncoupled, Fidelity::Des),
                hybrid_bps: agg(CouplingAlg::Uncoupled, Fidelity::Hybrid),
            },
        ]
    });
    HybridAccuracy {
        rows: per_pair.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 12/13 paths all run at WAN RTTs, so the hybrid engine
    /// promotes every figure flow to the packet engine and the
    /// goodput error against full DES is exactly zero.
    #[test]
    fn accuracy_meets_the_five_percent_bound() {
        let acc = accuracy(&MptcpExpConfig::quick(1));
        assert_eq!(acc.rows.len(), 3 * 4);
        assert!(
            acc.max_err_pct() <= 5.0,
            "hybrid-vs-DES error {:.2}% breaches the 5% bound",
            acc.max_err_pct()
        );
    }
}
