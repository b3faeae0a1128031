//! Figures 8–11: understanding where the gains come from (paper §V).
//!
//! * **Fig. 8** — path diversity: CDFs of the §V-A diversity score for
//!   all overlay paths and stratified by improvement ratio. Paper shape:
//!   60% of overlay paths score ≥ 0.38, 25% ≥ 0.55; higher improvement
//!   correlates with higher diversity; 87% of the routers shared with the
//!   direct path sit in its two end segments.
//! * **Fig. 9** — RTT bins ([0,70), [70,140), [140,210), [210,280),
//!   [280,∞) ms): median improvement grows with direct RTT; > 84% of
//!   ≥ 140 ms paths improve.
//! * **Fig. 10** — loss bins (\[0\], (0,0.25%), [0.25,0.5%), [0.5%,∞)):
//!   improvement grows with loss; zero-loss paths are polarized.
//! * **Fig. 11** — improvement vs direct throughput: low-throughput
//!   direct paths almost always improve, high-throughput ones do not.

use std::fmt;

use measure::stats::{Bins, Cdf};

use crate::prevalence::controlled_sweep;
use crate::sweep::PairRecord;

/// One (overlay path, improvement ratio, diversity) observation.
#[derive(Debug, Clone, Copy)]
pub struct DiversityPoint {
    /// Split-overlay improvement ratio of this specific overlay path.
    pub ratio: f64,
    /// Diversity score of this overlay path against the direct path.
    pub diversity: f64,
}

/// Result of the Fig. 8 analysis.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// All per-overlay-path observations.
    pub points: Vec<DiversityPoint>,
    /// Fraction of common routers falling in the two end segments of the
    /// direct path (paper: 87%).
    pub end_segment_fraction: f64,
}

impl Fig8 {
    /// CDF of diversity for paths in an improvement-ratio band.
    #[must_use]
    pub fn diversity_cdf(&self, lo: f64, hi: f64) -> Option<Cdf> {
        let sel: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.ratio > lo && p.ratio <= hi)
            .map(|p| p.diversity)
            .collect();
        Cdf::new(sel).ok()
    }

    /// CDF of diversity over all overlay paths.
    #[must_use]
    pub fn all_cdf(&self) -> Cdf {
        Cdf::new(self.points.iter().map(|p| p.diversity).collect()).expect("non-empty")
    }
}

/// Runs the Fig. 8 analysis.
#[must_use]
pub fn fig8(seed: u64) -> Fig8 {
    let sweep = controlled_sweep(seed);
    let mut points = Vec::new();
    let mut end_common = 0usize;
    let mut all_common = 0usize;
    for r in &sweep.records {
        for (i, m) in r.split.iter().enumerate() {
            points.push(DiversityPoint {
                ratio: m.throughput_bps / r.direct.throughput_bps.max(1.0),
                diversity: r.diversity[i],
            });
        }
        end_common += r.common_segments[0] + r.common_segments[2];
        all_common += r.common_segments.iter().sum::<usize>();
    }
    Fig8 {
        points,
        end_segment_fraction: end_common as f64 / all_common.max(1) as f64,
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Fig. 8: diversity scores by improvement band ===")?;
        let all = self.all_cdf();
        writeln!(
            f,
            "all overlays: median {:.2}, F(0.38)={:.2}, F(0.55)={:.2}",
            all.median(),
            all.fraction_leq(0.38),
            all.fraction_leq(0.55)
        )?;
        for (name, lo, hi) in [
            ("ratio > 1.25", 1.25, f64::INFINITY),
            ("1.0 < ratio <= 1.25", 1.0, 1.25),
            ("0.5 < ratio <= 1.0", 0.5, 1.0),
            ("ratio <= 0.5", 0.0, 0.5),
        ] {
            if let Some(cdf) = self.diversity_cdf(lo, hi) {
                writeln!(
                    f,
                    "{name}: n={}, median diversity {:.2}",
                    cdf.len(),
                    cdf.median()
                )?;
            }
        }
        writeln!(
            f,
            "common routers in end segments: {:.0}% (paper: 87%)",
            self.end_segment_fraction * 100.0
        )
    }
}

/// A per-bin row for Figs. 9 and 10: count, median improvement, fraction
/// improved, median absolute deviation.
#[derive(Debug, Clone)]
pub struct BinRow {
    /// Bin label, e.g. `"[70,140)"`.
    pub label: String,
    /// Number of direct paths in the bin.
    pub count: usize,
    /// Median split-overlay improvement ratio.
    pub median_ratio: f64,
    /// Fraction of paths improved (ratio > 1).
    pub frac_improved: f64,
    /// Median absolute deviation of the ratio (the paper's error bars).
    pub mad: f64,
}

fn bin_rows(bins: &Bins, items: Vec<(f64, f64)>) -> Vec<BinRow> {
    bins.group(items)
        .into_iter()
        .enumerate()
        .map(|(i, ratios)| {
            let count = ratios.len();
            if ratios.is_empty() {
                BinRow {
                    label: bins.label(i),
                    count: 0,
                    median_ratio: 0.0,
                    frac_improved: 0.0,
                    mad: 0.0,
                }
            } else {
                let improved = ratios.iter().filter(|&&x| x > 1.0).count();
                let cdf = Cdf::new(ratios).expect("finite ratios");
                BinRow {
                    label: bins.label(i),
                    count,
                    median_ratio: cdf.median(),
                    frac_improved: improved as f64 / count as f64,
                    mad: cdf.mad(),
                }
            }
        })
        .collect()
}

/// Result of the Fig. 9 (RTT bins) analysis.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// One row per RTT bin.
    pub rows: Vec<BinRow>,
}

/// Runs the Fig. 9 analysis with the paper's bins.
#[must_use]
pub fn fig9(seed: u64) -> Fig9 {
    let sweep = controlled_sweep(seed);
    let bins = Bins::new(vec![0.0, 70.0, 140.0, 210.0, 280.0]).expect("static edges");
    let items: Vec<(f64, f64)> = sweep
        .records
        .iter()
        .map(|r| (r.direct.rtt.as_millis() as f64, r.split_ratio()))
        .collect();
    Fig9 {
        rows: bin_rows(&bins, items),
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Fig. 9: improvement by direct-path RTT bin (ms) ===")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>12}: n={:>4}  median ratio {:.2} (MAD {:.2}), improved {:.0}%",
                row.label,
                row.count,
                row.median_ratio,
                row.mad,
                row.frac_improved * 100.0
            )?;
        }
        Ok(())
    }
}

/// Result of the Fig. 10 (loss bins) analysis.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Zero-loss paths' row.
    pub zero_loss: BinRow,
    /// Rows for the non-zero loss bins.
    pub rows: Vec<BinRow>,
    /// Among improved zero-loss paths, the median improvement (the
    /// paper's "polarity": they improve a lot or not at all).
    pub zero_loss_improved_median: f64,
}

/// Runs the Fig. 10 analysis with the paper's bins.
#[must_use]
pub fn fig10(seed: u64) -> Fig10 {
    let sweep = controlled_sweep(seed);
    // "Zero loss" operationally: below one retransmission per 30-second
    // transfer (the paper measures retx over finite transfers).
    let zero_cut = 1e-5;
    let (zero, nonzero): (Vec<&PairRecord>, Vec<&PairRecord>) =
        sweep.records.iter().partition(|r| r.direct.loss < zero_cut);
    let bins = Bins::new(vec![0.0, 0.0025, 0.005]).expect("static edges");
    let items: Vec<(f64, f64)> = nonzero
        .iter()
        .map(|r| (r.direct.loss, r.split_ratio()))
        .collect();
    let zero_ratios: Vec<f64> = zero.iter().map(|r| r.split_ratio()).collect();
    let zero_row = {
        let count = zero_ratios.len();
        let improved = zero_ratios.iter().filter(|&&x| x > 1.0).count();
        let cdf = Cdf::new(zero_ratios.clone()).expect("zero-loss bin non-empty");
        BinRow {
            label: "[0]".to_string(),
            count,
            median_ratio: cdf.median(),
            frac_improved: improved as f64 / count.max(1) as f64,
            mad: cdf.mad(),
        }
    };
    let improved_only: Vec<f64> = zero_ratios.iter().copied().filter(|&x| x > 1.0).collect();
    let zero_loss_improved_median = Cdf::new(improved_only).map_or(0.0, |c| c.median());
    Fig10 {
        zero_loss: zero_row,
        rows: bin_rows(&bins, items),
        zero_loss_improved_median,
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Fig. 10: improvement by direct-path loss bin ===")?;
        let all = std::iter::once(&self.zero_loss).chain(self.rows.iter());
        for row in all {
            writeln!(
                f,
                "{:>16}: n={:>4}  median ratio {:.2} (MAD {:.2}), improved {:.0}%",
                row.label,
                row.count,
                row.median_ratio,
                row.mad,
                row.frac_improved * 100.0
            )?;
        }
        writeln!(
            f,
            "zero-loss paths that do improve gain a median {:.2}x (polarity)",
            self.zero_loss_improved_median
        )
    }
}

/// Result of the Fig. 11 scatter analysis.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// `(direct Mbps, increase ratio (T_o - T_d)/T_d)` per pair.
    pub points: Vec<(f64, f64)>,
}

impl Fig11 {
    /// Fraction of paths with direct throughput below `mbps` that improve.
    #[must_use]
    pub fn frac_improved_below(&self, mbps: f64) -> f64 {
        let sel: Vec<&(f64, f64)> = self.points.iter().filter(|(x, _)| *x < mbps).collect();
        if sel.is_empty() {
            return 0.0;
        }
        sel.iter().filter(|(_, y)| *y > 0.0).count() as f64 / sel.len() as f64
    }

    /// Median increase ratio for paths with direct throughput in a band.
    #[must_use]
    pub fn median_increase_in(&self, lo_mbps: f64, hi_mbps: f64) -> f64 {
        let sel: Vec<f64> = self
            .points
            .iter()
            .filter(|(x, _)| *x >= lo_mbps && *x < hi_mbps)
            .map(|(_, y)| *y)
            .collect();
        Cdf::new(sel).map_or(0.0, |c| c.median())
    }
}

/// Runs the Fig. 11 analysis.
#[must_use]
pub fn fig11(seed: u64) -> Fig11 {
    let sweep = controlled_sweep(seed);
    Fig11 {
        points: sweep
            .records
            .iter()
            .map(|r| {
                let t_d = r.direct.throughput_bps;
                let t_o = r.best_split_bps();
                (t_d / 1e6, (t_o - t_d) / t_d.max(1.0))
            })
            .collect(),
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Fig. 11: increase ratio vs direct throughput ===")?;
        writeln!(
            f,
            "direct < 10 Mbps: {:.0}% improved, median increase {:.2}",
            self.frac_improved_below(10.0) * 100.0,
            self.median_increase_in(0.0, 10.0)
        )?;
        writeln!(
            f,
            "direct 10-40 Mbps: median increase {:.2}",
            self.median_increase_in(10.0, 40.0)
        )?;
        writeln!(
            f,
            "direct > 40 Mbps: median increase {:.2}",
            self.median_increase_in(40.0, 1e9)
        )
    }
}

/// §V-B's hop-count observation: overlay paths that improve throughput by
/// more than 25% usually have *longer* router-level hop counts than the
/// direct path. Returns `(fraction longer, fraction ≥ 1.5x longer)`.
#[must_use]
pub fn hop_count_analysis(seed: u64) -> (f64, f64) {
    let sweep = controlled_sweep(seed);
    let mut improved = 0usize;
    let mut longer = 0usize;
    let mut much_longer = 0usize;
    for r in &sweep.records {
        for (i, m) in r.split.iter().enumerate() {
            if m.throughput_bps > 1.25 * r.direct.throughput_bps {
                improved += 1;
                if r.overlay_hops[i] > r.direct_hops {
                    longer += 1;
                }
                if r.overlay_hops[i] as f64 >= 1.5 * r.direct_hops as f64 {
                    much_longer += 1;
                }
            }
        }
    }
    (
        longer as f64 / improved.max(1) as f64,
        much_longer as f64 / improved.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prevalence::DEFAULT_SEED;

    #[test]
    fn fig8_diversity_is_substantial_and_correlates_with_gain() {
        // Paper: 60% of overlay paths score >= 0.38, 25% >= 0.55. Our
        // absolute scores run lower because simulated paths have far
        // fewer routers than real traceroutes (6-9 vs 15+), so the shared
        // endpoints (source VM + DC, destination egress + stub + client)
        // weigh more heavily in the denominator. The claims that must
        // hold regardless of substrate granularity:
        let fig = fig8(DEFAULT_SEED);
        let all = fig.all_cdf();
        // (1) a substantial fraction of overlay paths differ materially
        // from the direct path,
        assert!(
            all.quantile(0.75) >= 0.10,
            "p75 diversity only {:.2}",
            all.quantile(0.75)
        );
        assert!(
            all.fraction_gt(0.25) > 0.05,
            "no genuinely diverse paths: {:.2}",
            all.fraction_gt(0.25)
        );
        // (2) higher-improvement overlays are more diverse than harmful
        // ones (the paper's correlation).
        let hi = fig
            .diversity_cdf(1.25, f64::INFINITY)
            .expect("has high band");
        let lo = fig.diversity_cdf(0.0, 0.5).expect("has low band");
        assert!(
            hi.mean() > lo.mean(),
            "diversity correlation inverted: {:.2} vs {:.2}",
            hi.mean(),
            lo.mean()
        );
    }

    #[test]
    fn fig8_common_routers_sit_at_the_ends() {
        let fig = fig8(DEFAULT_SEED);
        // Paper: 87% in the end segments.
        // Paper: 87%. Our direct paths are shorter (fewer PoPs per AS),
        // so the middle third is thinner; the qualitative claim is that a
        // clear majority of shared routers sit at the ends.
        assert!(
            fig.end_segment_fraction > 0.60,
            "only {:.0}% of common routers at the ends",
            fig.end_segment_fraction * 100.0
        );
    }

    #[test]
    fn fig9_improvement_grows_with_rtt() {
        let fig = fig9(DEFAULT_SEED);
        assert_eq!(fig.rows.len(), 5);
        // Highest bins beat the lowest bin on both medians and fraction
        // improved; >= 140 ms paths mostly improve (paper: > 84%).
        let first = &fig.rows[0];
        let high: Vec<&BinRow> = fig.rows[2..].iter().filter(|r| r.count > 0).collect();
        assert!(!high.is_empty(), "no high-RTT paths sampled");
        for row in &high {
            assert!(
                row.frac_improved > 0.7,
                "bin {} improved only {:.2}",
                row.label,
                row.frac_improved
            );
        }
        let high_median = high.iter().map(|r| r.median_ratio).sum::<f64>() / high.len() as f64;
        assert!(
            high_median > first.median_ratio,
            "no RTT trend: {high_median:.2} vs {:.2}",
            first.median_ratio
        );
    }

    #[test]
    fn fig10_improvement_grows_with_loss_and_zero_loss_is_polar() {
        let fig = fig10(DEFAULT_SEED);
        let lossy: Vec<&BinRow> = fig.rows.iter().filter(|r| r.count > 0).collect();
        assert!(!lossy.is_empty());
        // Every non-zero loss bin mostly improves (paper: > 86% for
        // >= 0.25% loss).
        for row in &lossy {
            assert!(
                row.frac_improved > 0.6,
                "loss bin {} improved only {:.2}",
                row.label,
                row.frac_improved
            );
        }
        // Zero-loss paths that do improve, improve substantially.
        assert!(
            fig.zero_loss_improved_median > 1.2,
            "zero-loss improvers gain only {:.2}",
            fig.zero_loss_improved_median
        );
    }

    #[test]
    fn fig11_low_throughput_paths_benefit_most() {
        let fig = fig11(DEFAULT_SEED);
        // Paper: almost all direct paths under 10 Mbps improve, most more
        // than doubling (increase ratio > 1).
        assert!(
            fig.frac_improved_below(10.0) > 0.85,
            "only {:.2} of <10 Mbps paths improved",
            fig.frac_improved_below(10.0)
        );
        assert!(
            fig.median_increase_in(0.0, 10.0) > 1.0,
            "median increase for slow paths {:.2}",
            fig.median_increase_in(0.0, 10.0)
        );
        // Fast paths see little-to-negative improvement.
        assert!(
            fig.median_increase_in(40.0, 1e9) < 0.5,
            "fast paths improved {:.2}?",
            fig.median_increase_in(40.0, 1e9)
        );
    }

    #[test]
    fn improved_overlay_paths_are_longer() {
        // §V-B: "96% of the overlay paths with throughput improved by
        // more than 25% have a longer hop count ... 45% have 1.5x".
        let (longer, much_longer) = hop_count_analysis(DEFAULT_SEED);
        assert!(
            longer > 0.8,
            "only {longer:.2} of improved paths are longer"
        );
        assert!(much_longer > 0.2, "only {much_longer:.2} are 1.5x longer");
    }

    #[test]
    fn displays_render() {
        assert!(fig8(DEFAULT_SEED).to_string().contains("Fig. 8"));
        assert!(fig9(DEFAULT_SEED).to_string().contains("Fig. 9"));
        assert!(fig10(DEFAULT_SEED).to_string().contains("Fig. 10"));
        assert!(fig11(DEFAULT_SEED).to_string().contains("Fig. 11"));
    }
}
