//! Analytic steady-state TCP throughput models.
//!
//! The paper builds its split-TCP argument directly on Mathis et al.'s
//! macroscopic model (its Equation 1):
//!
//! ```text
//! BW ≈ (MSS / RTT) · C / √p
//! ```
//!
//! We implement that model, the more complete Padhye et al. formula (which
//! adds the retransmission-timeout regime dominating at high loss), and a
//! composite [`tcp_throughput`] that also applies the receive-window and
//! bottleneck-capacity limits. The composite is what the prevalence
//! experiments use for every path segment.

use simcore::SimDuration;

/// The quality of a network path as the transport layer sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathQuality {
    /// Round-trip time including queueing.
    pub rtt: SimDuration,
    /// End-to-end packet loss probability.
    pub loss: f64,
    /// Bottleneck capacity in bits per second.
    pub bottleneck_bps: u64,
}

impl PathQuality {
    /// Sequentially composes two path segments into the end-to-end path a
    /// single TCP connection would see through a plain (non-split)
    /// overlay: RTTs add, survival probabilities multiply, the bottleneck
    /// is the minimum.
    #[must_use]
    pub fn chain(&self, next: &PathQuality) -> PathQuality {
        PathQuality {
            rtt: self.rtt + next.rtt,
            loss: 1.0 - (1.0 - self.loss) * (1.0 - next.loss),
            bottleneck_bps: self.bottleneck_bps.min(next.bottleneck_bps),
        }
    }
}

/// Endpoint TCP parameters.
///
/// `max_window` reflects mid-2010s default socket-buffer autotuning limits
/// on the measurement hosts (PlanetLab nodes were notoriously conservative);
/// it is what makes large-RTT zero-loss paths window-limited, which in turn
/// is why split-TCP helps them — the effect §V of the paper observes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpParams {
    /// Maximum segment size (payload bytes).
    pub mss: u32,
    /// Maximum send/receive window in bytes.
    pub max_window: u64,
    /// Minimum retransmission timeout.
    pub min_rto: SimDuration,
}

impl Default for TcpParams {
    fn default() -> Self {
        TcpParams {
            mss: 1448,
            max_window: 1 << 20, // 1 MiB
            min_rto: SimDuration::from_millis(200),
        }
    }
}

/// Mathis et al. steady-state throughput in bits per second: the paper's
/// Equation 1 with C = √(3/2) (one ACK per segment).
///
/// Returns `f64::INFINITY` for a lossless path — callers must apply
/// window/capacity limits (use [`tcp_throughput`]).
#[must_use]
pub fn mathis_throughput(rtt: SimDuration, loss: f64, mss: u32) -> f64 {
    if loss <= 0.0 {
        return f64::INFINITY;
    }
    let rtt_s = rtt.as_secs_f64().max(1e-6);
    (mss as f64 * 8.0 / rtt_s) * (1.5f64.sqrt() / loss.sqrt())
}

/// Padhye et al. throughput (bits per second), which models the
/// retransmission-timeout regime that dominates at loss rates above ~1%:
///
/// ```text
/// B = MSS / (RTT·√(2bp/3) + T0·min(1, 3·√(3bp/8))·p·(1+32p²))
/// ```
///
/// with `b = 1` (no delayed ACKs, matching the DES receiver).
#[must_use]
pub fn padhye_throughput(rtt: SimDuration, loss: f64, mss: u32, rto: SimDuration) -> f64 {
    if loss <= 0.0 {
        return f64::INFINITY;
    }
    let p = loss.min(1.0);
    let rtt_s = rtt.as_secs_f64().max(1e-6);
    let t0 = rto.as_secs_f64().max(rtt_s);
    let b = 1.0;
    let term_fast = rtt_s * (2.0 * b * p / 3.0).sqrt();
    let term_to = t0 * (1.0f64).min(3.0 * (3.0 * b * p / 8.0).sqrt()) * p * (1.0 + 32.0 * p * p);
    (mss as f64 * 8.0) / (term_fast + term_to)
}

/// Composite steady-state TCP throughput in bits per second: the minimum
/// of the loss limit (Padhye), the receive-window limit `W/RTT`, and the
/// bottleneck capacity (with a small protocol-overhead haircut).
///
/// # Example
///
/// ```
/// use simcore::SimDuration;
/// use transport::model::{tcp_throughput, PathQuality, TcpParams};
///
/// // Lossless transcontinental path: window-limited.
/// let q = PathQuality {
///     rtt: SimDuration::from_millis(200),
///     loss: 0.0,
///     bottleneck_bps: 1_000_000_000,
/// };
/// let p = TcpParams::default();
/// let bw = tcp_throughput(&q, &p);
/// let window_limit = p.max_window as f64 * 8.0 / 0.2;
/// assert!((bw - window_limit).abs() / window_limit < 1e-9);
/// ```
#[must_use]
pub fn tcp_throughput(q: &PathQuality, params: &TcpParams) -> f64 {
    let rtt_s = q.rtt.as_secs_f64().max(1e-6);
    // RTO estimate: srtt + 4*rttvar ≈ 2×RTT for a stable path, floored.
    let rto = SimDuration::from_secs_f64((2.0 * rtt_s).max(params.min_rto.as_secs_f64()));
    let loss_limit = padhye_throughput(q.rtt, q.loss, params.mss, rto);
    let window_limit = params.max_window as f64 * 8.0 / rtt_s;
    // ~5% header/ACK overhead keeps goodput strictly below line rate.
    let capacity_limit = q.bottleneck_bps as f64 * 0.95;
    loss_limit.min(window_limit).min(capacity_limit)
}

/// Throughput of a split-TCP relay over two segments: each segment runs
/// its own TCP loop, so the end-to-end rate is the slower segment, less a
/// small relay-processing haircut. §III-B of the paper verifies this is
/// indistinguishable from the discrete-overlay upper bound.
#[must_use]
pub fn split_tcp_throughput(
    first: &PathQuality,
    second: &PathQuality,
    params: &TcpParams,
    relay_efficiency: f64,
) -> f64 {
    tcp_throughput(first, params).min(tcp_throughput(second, params))
        * relay_efficiency.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(rtt_ms: u64, loss: f64, mbps: u64) -> PathQuality {
        PathQuality {
            rtt: SimDuration::from_millis(rtt_ms),
            loss,
            bottleneck_bps: mbps * 1_000_000,
        }
    }

    #[test]
    fn mathis_matches_hand_computation() {
        // MSS=1448B, RTT=100ms, p=1e-4: BW = 1448*8/0.1 * 1.2247/0.01
        let bw = mathis_throughput(SimDuration::from_millis(100), 1e-4, 1448);
        let expect = 1448.0 * 8.0 / 0.1 * (1.5f64.sqrt() / 0.01);
        assert!((bw - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn mathis_scales_inverse_sqrt_loss() {
        let b1 = mathis_throughput(SimDuration::from_millis(50), 1e-4, 1448);
        let b2 = mathis_throughput(SimDuration::from_millis(50), 4e-4, 1448);
        assert!(
            (b1 / b2 - 2.0).abs() < 1e-9,
            "4x loss must halve throughput"
        );
    }

    #[test]
    fn mathis_scales_inverse_rtt() {
        let b1 = mathis_throughput(SimDuration::from_millis(50), 1e-4, 1448);
        let b2 = mathis_throughput(SimDuration::from_millis(100), 1e-4, 1448);
        assert!(
            (b1 / b2 - 2.0).abs() < 1e-9,
            "double RTT must halve throughput"
        );
    }

    #[test]
    fn padhye_below_mathis_and_converging_at_low_loss() {
        let rtt = SimDuration::from_millis(80);
        let rto = SimDuration::from_millis(200);
        for &p in &[1e-5, 1e-4, 1e-3] {
            let m = mathis_throughput(rtt, p, 1448);
            let pd = padhye_throughput(rtt, p, 1448, rto);
            assert!(pd <= m, "Padhye must not exceed Mathis at p={p}");
            if p <= 1e-5 {
                assert!(pd / m > 0.9, "models must converge at low loss");
            }
        }
    }

    #[test]
    fn padhye_timeout_regime_dominates_at_high_loss() {
        let rtt = SimDuration::from_millis(80);
        let rto = SimDuration::from_millis(300);
        let lo = padhye_throughput(rtt, 0.01, 1448, rto);
        let hi = padhye_throughput(rtt, 0.10, 1448, rto);
        // At 10% loss, throughput collapses far more than the Mathis √10.
        assert!(lo / hi > 5.0, "timeout regime too gentle: {lo} vs {hi}");
    }

    #[test]
    fn composite_is_capacity_limited_on_clean_short_paths() {
        let bw = tcp_throughput(&q(20, 0.0, 100), &TcpParams::default());
        assert!((bw - 95_000_000.0).abs() < 1.0);
    }

    #[test]
    fn composite_is_window_limited_on_long_clean_paths() {
        let params = TcpParams::default();
        let bw = tcp_throughput(&q(250, 0.0, 1_000), &params);
        let expect = params.max_window as f64 * 8.0 / 0.25;
        assert!((bw - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn composite_is_loss_limited_on_lossy_paths() {
        let params = TcpParams::default();
        let bw = tcp_throughput(&q(150, 5e-3, 1_000), &params);
        assert!(
            bw < 10_000_000.0,
            "5e-3 loss at 150 ms must crush throughput, got {bw}"
        );
    }

    #[test]
    fn chain_adds_rtt_and_composes_loss() {
        let a = q(50, 1e-3, 100);
        let b = q(70, 2e-3, 1_000);
        let c = a.chain(&b);
        assert_eq!(c.rtt, SimDuration::from_millis(120));
        assert!((c.loss - (1.0 - (1.0 - 1e-3) * (1.0 - 2e-3))).abs() < 1e-15);
        assert_eq!(c.bottleneck_bps, 100_000_000);
    }

    #[test]
    fn split_beats_plain_on_symmetric_long_paths() {
        // The paper's §II insight: equal-RTT segments => plain overlay
        // doubles RTT and halves throughput; split keeps per-segment RTT.
        let params = TcpParams::default();
        let seg = q(100, 1e-3, 100);
        let plain = tcp_throughput(&seg.chain(&seg), &params);
        let split = split_tcp_throughput(&seg, &seg, &params, 0.97);
        assert!(
            split > 1.5 * plain,
            "split {split} should be ≈2x plain {plain}"
        );
    }

    #[test]
    fn split_relay_efficiency_is_clamped() {
        let params = TcpParams::default();
        let seg = q(50, 0.0, 100);
        let s = split_tcp_throughput(&seg, &seg, &params, 2.0);
        assert!(s <= tcp_throughput(&seg, &params));
    }

    mod properties {
        use super::*;
        use simcore::SimRng;

        fn arb_quality(rng: &mut SimRng) -> PathQuality {
            PathQuality {
                rtt: SimDuration::from_millis(1 + rng.index(499) as u64),
                loss: rng.uniform_f64() * 0.02,
                bottleneck_bps: (1 + rng.index(999) as u64) * 1_000_000,
            }
        }

        const CASES: usize = 256;

        #[test]
        fn throughput_is_positive_and_capacity_bounded() {
            let mut rng = SimRng::seed_from(1);
            for _ in 0..CASES {
                let q = arb_quality(&mut rng);
                let bw = tcp_throughput(&q, &TcpParams::default());
                assert!(bw > 0.0);
                assert!(bw <= q.bottleneck_bps as f64);
            }
        }

        #[test]
        fn more_loss_never_helps() {
            let mut rng = SimRng::seed_from(2);
            let p = TcpParams::default();
            for _ in 0..CASES {
                let q = arb_quality(&mut rng);
                let extra = rng.uniform_f64() * 0.05;
                let worse = PathQuality {
                    loss: q.loss + extra,
                    ..q
                };
                assert!(tcp_throughput(&worse, &p) <= tcp_throughput(&q, &p) + 1.0);
            }
        }

        #[test]
        fn more_rtt_never_helps() {
            let mut rng = SimRng::seed_from(3);
            let p = TcpParams::default();
            for _ in 0..CASES {
                let q = arb_quality(&mut rng);
                let extra_ms = rng.index(500) as u64;
                let worse = PathQuality {
                    rtt: q.rtt + SimDuration::from_millis(extra_ms),
                    ..q
                };
                assert!(tcp_throughput(&worse, &p) <= tcp_throughput(&q, &p) + 1.0);
            }
        }

        #[test]
        fn bigger_windows_never_hurt() {
            let mut rng = SimRng::seed_from(4);
            let small = TcpParams {
                max_window: 128 << 10,
                ..TcpParams::default()
            };
            let large = TcpParams {
                max_window: 8 << 20,
                ..TcpParams::default()
            };
            for _ in 0..CASES {
                let q = arb_quality(&mut rng);
                assert!(tcp_throughput(&q, &large) + 1.0 >= tcp_throughput(&q, &small));
            }
        }

        #[test]
        fn chaining_never_improves_quality() {
            let mut rng = SimRng::seed_from(5);
            for _ in 0..CASES {
                let a = arb_quality(&mut rng);
                let b = arb_quality(&mut rng);
                let c = a.chain(&b);
                assert!(c.rtt >= a.rtt && c.rtt >= b.rtt);
                assert!(c.loss + 1e-12 >= a.loss && c.loss + 1e-12 >= b.loss);
                assert!(c.bottleneck_bps <= a.bottleneck_bps.min(b.bottleneck_bps));
            }
        }

        #[test]
        fn split_always_at_least_plain() {
            // Same relay efficiency for both modes: splitting two
            // segments can only help a long TCP loop (Mathis).
            let mut rng = SimRng::seed_from(6);
            let p = TcpParams::default();
            for _ in 0..CASES {
                let a = arb_quality(&mut rng);
                let b = arb_quality(&mut rng);
                let plain = tcp_throughput(&a.chain(&b), &p);
                let split = split_tcp_throughput(&a, &b, &p, 1.0);
                assert!(split + 1.0 >= plain, "split {split} < plain {plain}");
            }
        }
    }

    #[test]
    fn zero_loss_paths_report_infinite_loss_limit() {
        assert!(mathis_throughput(SimDuration::from_millis(10), 0.0, 1448).is_infinite());
        assert!(padhye_throughput(
            SimDuration::from_millis(10),
            0.0,
            1448,
            SimDuration::from_millis(200)
        )
        .is_infinite());
    }
}
