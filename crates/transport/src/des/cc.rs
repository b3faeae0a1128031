//! Congestion-control algorithms: Reno/NewReno, CUBIC, and the MPTCP
//! coupled controllers (LIA and OLIA).
//!
//! Window arithmetic is done in fractional segments (`f64`), the way the
//! kernel's fixed-point implementations behave at coarse grain. The MPTCP
//! couplers implement the designs the paper relies on:
//!
//! * **LIA** (RFC 6356, Wischik et al. [33] in the paper): total
//!   throughput at least that of a single-path TCP on the best path, but
//!   no more aggressive than one TCP at a shared bottleneck.
//! * **OLIA** (Khalili et al. [22] in the paper, the controller of §VI-B):
//!   like LIA but Pareto-optimal, shifting window to the best paths.
//! * **Uncoupled** (§VI-C): each subflow runs its own CUBIC, so the
//!   connection aggregates the capacity of all paths — the modified
//!   configuration of the paper's Fig. 13.

use simcore::{SimDuration, SimTime};

/// Single-path congestion-control algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CongestionAlg {
    /// TCP NewReno: AIMD, ssthresh halving.
    Reno,
    /// CUBIC (RFC 8312): cubic window growth in congestion avoidance.
    Cubic,
}

/// How an MPTCP connection couples its subflows' windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CouplingAlg {
    /// Linked Increases (RFC 6356).
    Lia,
    /// Opportunistic Linked Increases (Khalili et al.).
    Olia,
    /// No coupling: every subflow runs [`CongestionAlg::Cubic`]
    /// independently (the paper's Fig. 13 configuration).
    Uncoupled,
}

/// Per-subflow CUBIC state (RFC 8312 variables).
#[derive(Debug, Clone, Copy)]
pub struct CubicState {
    w_max: f64,
    k: f64,
    epoch_start: Option<SimTime>,
    w_tcp: f64,
}

impl CubicState {
    const C: f64 = 0.4;
    const BETA: f64 = 0.7;

    fn new() -> Self {
        CubicState {
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
            w_tcp: 0.0,
        }
    }
}

/// Snapshot of one subflow used by the coupled increase rules.
#[derive(Debug, Clone, Copy)]
pub struct SubflowView {
    /// Congestion window in segments.
    pub cwnd_segs: f64,
    /// Smoothed RTT in seconds.
    pub srtt_s: f64,
    /// Largest number of segments delivered between two loss events
    /// (OLIA's `ℓ_p`); the current inter-loss run counts if larger.
    pub interloss_segs: f64,
}

/// Congestion state of one TCP sender / MPTCP subflow.
#[derive(Debug, Clone)]
pub struct CcState {
    alg: CongestionAlg,
    /// Congestion window in segments (fractional).
    cwnd: f64,
    /// Slow-start threshold in segments.
    ssthresh: f64,
    cubic: CubicState,
}

impl CcState {
    /// Initial window per RFC 6928 (10 segments).
    pub const INIT_CWND_SEGS: f64 = 10.0;
    /// Floor for the window after any decrease.
    pub const MIN_CWND_SEGS: f64 = 2.0;

    /// Creates the initial state.
    #[must_use]
    pub fn new(alg: CongestionAlg) -> Self {
        CcState {
            alg,
            cwnd: Self::INIT_CWND_SEGS,
            ssthresh: f64::INFINITY,
            cubic: CubicState::new(),
        }
    }

    /// Current window in segments.
    #[must_use]
    pub fn cwnd_segs(&self) -> f64 {
        self.cwnd
    }

    /// `true` while in slow start.
    #[must_use]
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Window increase for `acked_segs` newly acknowledged segments on an
    /// *uncoupled* sender.
    pub fn on_ack_single(&mut self, acked_segs: f64, now: SimTime, srtt: SimDuration) {
        if self.in_slow_start() {
            self.cwnd += acked_segs;
            return;
        }
        match self.alg {
            CongestionAlg::Reno => {
                self.cwnd += acked_segs / self.cwnd;
            }
            CongestionAlg::Cubic => self.cubic_update(acked_segs, now, srtt),
        }
    }

    /// Window increase on a *coupled* subflow: `siblings` is the view of
    /// every active subflow of the connection, `me` this subflow's index.
    pub fn on_ack_coupled(
        &mut self,
        coupling: CouplingAlg,
        acked_segs: f64,
        now: SimTime,
        srtt: SimDuration,
        siblings: &[SubflowView],
        me: usize,
    ) {
        if self.in_slow_start() {
            // RFC 6356: slow start is unmodified.
            self.cwnd += acked_segs;
            return;
        }
        match coupling {
            CouplingAlg::Uncoupled => self.on_ack_single(acked_segs, now, srtt),
            CouplingAlg::Lia => {
                let inc = lia_increase(siblings, me);
                self.cwnd += inc * acked_segs;
            }
            CouplingAlg::Olia => {
                let inc = olia_increase(siblings, me);
                // OLIA's alpha can be negative; never shrink below floor.
                self.cwnd = (self.cwnd + inc * acked_segs).max(Self::MIN_CWND_SEGS);
            }
        }
    }

    fn cubic_update(&mut self, acked_segs: f64, now: SimTime, srtt: SimDuration) {
        let cubic = &mut self.cubic;
        let epoch = match cubic.epoch_start {
            Some(e) => e,
            None => {
                // Start of a new congestion-avoidance epoch.
                if cubic.w_max < self.cwnd {
                    cubic.w_max = self.cwnd;
                    cubic.k = 0.0;
                } else {
                    cubic.k = ((cubic.w_max * (1.0 - CubicState::BETA)) / CubicState::C).cbrt();
                }
                cubic.w_tcp = self.cwnd;
                cubic.epoch_start = Some(now);
                now
            }
        };
        let t = now.saturating_duration_since(epoch).as_secs_f64();
        let rtt_s = srtt.as_secs_f64().max(1e-4);
        // RFC 8312 §4.1: target is the cubic curve one RTT ahead.
        let target = cubic.w_max + CubicState::C * (t + rtt_s - cubic.k).powi(3);
        // TCP-friendly region (RFC 8312 §4.2).
        cubic.w_tcp +=
            3.0 * (1.0 - CubicState::BETA) / (1.0 + CubicState::BETA) * (acked_segs / self.cwnd);
        let target = target.max(cubic.w_tcp);
        if target > self.cwnd {
            // cwnd += (target - cwnd)/cwnd per acked segment.
            self.cwnd += (target - self.cwnd) / self.cwnd * acked_segs;
        } else {
            // Tiny probing growth in the concave plateau.
            self.cwnd += 0.01 * acked_segs / self.cwnd;
        }
    }

    /// Multiplicative decrease on a fast-retransmit loss. Returns the new
    /// window.
    pub fn on_loss(&mut self) -> f64 {
        match self.alg {
            CongestionAlg::Reno => {
                self.ssthresh = (self.cwnd / 2.0).max(Self::MIN_CWND_SEGS);
            }
            CongestionAlg::Cubic => {
                self.cubic.w_max = self.cwnd;
                self.cubic.epoch_start = None;
                self.ssthresh = (self.cwnd * CubicState::BETA).max(Self::MIN_CWND_SEGS);
            }
        }
        self.cwnd = self.ssthresh;
        self.cwnd
    }

    /// Collapse after a retransmission timeout. `flight_segs` is the
    /// amount of outstanding data (RFC 5681 uses FlightSize, not cwnd, so
    /// that repeated timeouts on the same outstanding window do not grind
    /// ssthresh to the floor).
    pub fn on_timeout(&mut self, flight_segs: f64) {
        self.ssthresh = (flight_segs / 2.0).max(Self::MIN_CWND_SEGS);
        self.cwnd = 1.0;
        self.cubic.epoch_start = None;
    }

    /// HyStart-style exit from slow start on delay increase: freezes
    /// ssthresh at the current window.
    pub fn exit_slow_start(&mut self) {
        if self.in_slow_start() {
            self.ssthresh = self.cwnd;
        }
    }
}

/// RFC 6356 linked-increase amount per acknowledged segment on path `me`:
/// `min(α / w_total, 1 / w_me)` with
/// `α = w_total · max_i(w_i/rtt_i²) / (Σ_i w_i/rtt_i)²`.
#[must_use]
pub fn lia_increase(siblings: &[SubflowView], me: usize) -> f64 {
    let w_total: f64 = siblings.iter().map(|s| s.cwnd_segs).sum();
    if w_total <= 0.0 {
        return 1.0;
    }
    let max_term = siblings
        .iter()
        .map(|s| s.cwnd_segs / (s.srtt_s * s.srtt_s).max(1e-9))
        .fold(0.0f64, f64::max);
    let sum_term: f64 = siblings
        .iter()
        .map(|s| s.cwnd_segs / s.srtt_s.max(1e-6))
        .sum();
    let alpha = w_total * max_term / (sum_term * sum_term).max(1e-12);
    (alpha / w_total).min(1.0 / siblings[me].cwnd_segs.max(1.0))
}

/// OLIA increase per acknowledged segment on path `me`:
/// `w_me/rtt_me² / (Σ_p w_p/rtt_p)² + α_me/w_me`, where `α` shifts window
/// from "max-window" paths to "best but small-window" paths (Khalili et
/// al., §3). Can be negative.
#[must_use]
pub fn olia_increase(siblings: &[SubflowView], me: usize) -> f64 {
    let n = siblings.len() as f64;
    let sum_term: f64 = siblings
        .iter()
        .map(|s| s.cwnd_segs / s.srtt_s.max(1e-6))
        .sum();
    let s_me = &siblings[me];
    let first =
        (s_me.cwnd_segs / (s_me.srtt_s * s_me.srtt_s).max(1e-9)) / (sum_term * sum_term).max(1e-12);

    // Best paths by ℓ_p² / rtt_p (proxy for achievable rate).
    let quality = |s: &SubflowView| (s.interloss_segs * s.interloss_segs) / s.srtt_s.max(1e-6);
    let best_q = siblings.iter().map(quality).fold(0.0f64, f64::max);
    let in_best: Vec<bool> = siblings
        .iter()
        .map(|s| quality(s) >= best_q * 0.999)
        .collect();
    let max_w = siblings.iter().map(|s| s.cwnd_segs).fold(0.0f64, f64::max);
    let in_max: Vec<bool> = siblings
        .iter()
        .map(|s| s.cwnd_segs >= max_w * 0.999)
        .collect();

    // B \ M: best paths that do not already have the largest window.
    let b_minus_m: usize = in_best
        .iter()
        .zip(&in_max)
        .filter(|(b, m)| **b && !**m)
        .count();
    let m_count: usize = in_max.iter().filter(|m| **m).count();

    let alpha = if b_minus_m > 0 {
        if in_best[me] && !in_max[me] {
            1.0 / (n * b_minus_m as f64)
        } else if in_max[me] {
            -1.0 / (n * m_count as f64)
        } else {
            0.0
        }
    } else {
        0.0
    };
    first + alpha / s_me.cwnd_segs.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(w: f64, rtt_s: f64, il: f64) -> SubflowView {
        SubflowView {
            cwnd_segs: w,
            srtt_s: rtt_s,
            interloss_segs: il,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = CcState::new(CongestionAlg::Reno);
        let start = cc.cwnd_segs();
        // Ack a full window: cwnd should double.
        cc.on_ack_single(start, SimTime::ZERO, SimDuration::from_millis(50));
        assert!((cc.cwnd_segs() - 2.0 * start).abs() < 1e-9);
    }

    #[test]
    fn reno_congestion_avoidance_adds_one_segment_per_rtt() {
        let mut cc = CcState::new(CongestionAlg::Reno);
        cc.ssthresh = 5.0; // force CA
        cc.cwnd = 10.0;
        let before = cc.cwnd_segs();
        cc.on_ack_single(before, SimTime::ZERO, SimDuration::from_millis(50));
        assert!((cc.cwnd_segs() - (before + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn reno_loss_halves_window() {
        let mut cc = CcState::new(CongestionAlg::Reno);
        cc.cwnd = 40.0;
        cc.on_loss();
        assert!((cc.cwnd_segs() - 20.0).abs() < 1e-9);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn cubic_loss_decreases_by_beta() {
        let mut cc = CcState::new(CongestionAlg::Cubic);
        cc.cwnd = 100.0;
        cc.ssthresh = 1.0;
        cc.on_loss();
        assert!((cc.cwnd_segs() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn cubic_grows_toward_wmax_then_probes() {
        let mut cc = CcState::new(CongestionAlg::Cubic);
        cc.cwnd = 100.0;
        cc.ssthresh = 1.0;
        cc.on_loss(); // w_max = 100, cwnd = 70
        let rtt = SimDuration::from_millis(40);
        let mut now = SimTime::ZERO;
        for _ in 0..2_000 {
            now += SimDuration::from_millis(1);
            cc.on_ack_single(1.0, now, rtt);
        }
        // After 2 s, CUBIC should have recovered to ≥ w_max.
        assert!(
            cc.cwnd_segs() >= 95.0,
            "cwnd only reached {}",
            cc.cwnd_segs()
        );
    }

    #[test]
    fn timeout_collapses_to_one_segment() {
        let mut cc = CcState::new(CongestionAlg::Reno);
        cc.cwnd = 64.0;
        cc.on_timeout(64.0);
        assert!((cc.cwnd_segs() - 1.0).abs() < 1e-9);
        assert!((cc.ssthresh - 32.0).abs() < 1e-9);
        assert!(cc.in_slow_start());
        // A second timeout on the same outstanding flight must NOT grind
        // ssthresh down further (FlightSize, not cwnd).
        cc.on_timeout(64.0);
        assert!((cc.ssthresh - 32.0).abs() < 1e-9);
    }

    #[test]
    fn lia_is_no_more_aggressive_than_reno_on_each_path() {
        // Single-path LIA degenerates to at most Reno's 1/w.
        let views = vec![view(10.0, 0.05, 100.0)];
        let inc = lia_increase(&views, 0);
        assert!(inc <= 1.0 / 10.0 + 1e-12);
        assert!(inc > 0.0);
    }

    #[test]
    fn lia_alpha_shares_capacity_across_paths() {
        // Two equal paths (w = 10, rtt = 50 ms): RFC 6356 gives
        // α = w_total · max(w_i/rtt²)/(Σ w_i/rtt)² = w_max/w_total = 0.5,
        // so the per-ACK increase is α/w_total = 0.025 — each subflow
        // grows at a quarter of solo Reno, and the pair in aggregate takes
        // what one TCP on the (equal) best path would.
        let views = vec![view(10.0, 0.05, 100.0), view(10.0, 0.05, 100.0)];
        let inc = lia_increase(&views, 0);
        assert!((inc - 0.025).abs() < 1e-9, "inc {inc}");
        // Per-RTT aggregate growth: 2 paths × w acks × inc = 0.5 segments,
        // strictly less aggressive than two independent Renos (2.0).
        let per_rtt = 2.0 * 10.0 * inc;
        assert!(per_rtt <= 1.0 + 1e-9);
    }

    #[test]
    fn olia_moves_window_toward_better_path() {
        // Path 0: good (large inter-loss run), small window.
        // Path 1: bad, currently holds the larger window.
        let views = vec![view(5.0, 0.05, 1_000.0), view(20.0, 0.05, 10.0)];
        let inc_good = olia_increase(&views, 0);
        let inc_bad = olia_increase(&views, 1);
        assert!(inc_good > 0.0, "good path must grow, got {inc_good}");
        assert!(
            inc_bad < inc_good,
            "bad path must grow slower/shrink: {inc_bad} vs {inc_good}"
        );
    }

    #[test]
    fn olia_alpha_terms_balance_to_zero() {
        // Σ_r α_r = 0 by construction: the transfer is conservative.
        let views = vec![view(5.0, 0.05, 1_000.0), view(20.0, 0.05, 10.0)];
        let n = views.len() as f64;
        // Recompute alphas via the increase minus the first term.
        let alpha: f64 = (0..views.len())
            .map(|i| {
                let sum_term: f64 = views.iter().map(|s| s.cwnd_segs / s.srtt_s).sum();
                let first = (views[i].cwnd_segs / (views[i].srtt_s * views[i].srtt_s))
                    / (sum_term * sum_term);
                (olia_increase(&views, i) - first) * views[i].cwnd_segs
            })
            .sum();
        assert!(alpha.abs() < 1e-9 / n + 1e-9, "alphas sum to {alpha}");
    }

    #[test]
    fn coupled_slow_start_is_unmodified() {
        let mut cc = CcState::new(CongestionAlg::Reno);
        let views = vec![view(10.0, 0.05, 100.0), view(10.0, 0.05, 100.0)];
        let w0 = cc.cwnd_segs();
        cc.on_ack_coupled(
            CouplingAlg::Lia,
            4.0,
            SimTime::ZERO,
            SimDuration::from_millis(50),
            &views,
            0,
        );
        assert!((cc.cwnd_segs() - (w0 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn olia_coupled_never_collapses_below_floor() {
        let mut cc = CcState::new(CongestionAlg::Reno);
        cc.ssthresh = 1.0; // CA
        cc.cwnd = CcState::MIN_CWND_SEGS;
        let views = vec![view(2.0, 0.05, 1.0), view(50.0, 0.05, 1_000.0)];
        for _ in 0..100 {
            cc.on_ack_coupled(
                CouplingAlg::Olia,
                1.0,
                SimTime::ZERO,
                SimDuration::from_millis(50),
                &views,
                0,
            );
        }
        assert!(cc.cwnd_segs() >= CcState::MIN_CWND_SEGS);
    }
}
