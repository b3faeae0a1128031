//! Path-mode evaluation: direct, plain overlay, split-overlay, discrete.
//!
//! Implements the four measurement modes of the paper's §II methodology
//! over the analytic transport model. All composition rules follow the
//! paper's own reasoning (its Equation 1): a plain tunnel concatenates
//! the two segments into one TCP loop (RTTs add, losses compose), while
//! a split-overlay runs one TCP loop per segment so the end-to-end rate
//! is the slower segment's.

use routing::{route, Bgp, RouterPath};
use simcore::SimDuration;
use topology::{Network, RouterId};
use transport::model::{split_tcp_throughput, tcp_throughput, PathQuality, TcpParams};

use crate::cronet::OverlayNode;
use crate::tunnel::TunnelKind;

/// What a TCP transfer experiences over one path configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Steady-state throughput, bits per second.
    pub throughput_bps: f64,
    /// Data-to-ACK round-trip time (queueing included).
    pub rtt: SimDuration,
    /// End-to-end loss probability (≈ retransmission rate).
    pub loss: f64,
}

/// The evaluation of one overlay node for a given endpoint pair.
#[derive(Debug, Clone)]
pub struct OverlayEval {
    /// Index of the overlay node in [`crate::Cronet::nodes`].
    pub node: usize,
    /// Plain tunnel overlay `A → O → B` (single TCP loop).
    pub plain: Measurement,
    /// Split-TCP overlay (one TCP loop per segment).
    pub split: Measurement,
    /// Discrete upper bound: min of the segments measured separately,
    /// without tunnel or relay overheads (paper §II "Discrete overlay").
    pub discrete_bps: f64,
    /// The overlay router-level path `A → O → B` (for traceroute/diversity).
    pub path: RouterPath,
}

/// One overlay node's split-mode measurement: the part of an
/// [`OverlayEval`] a path selector reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayProbe {
    /// Index of the overlay node in [`crate::Cronet::nodes`].
    pub node: usize,
    /// Split-TCP overlay measurement.
    pub split: Measurement,
}

/// A pair's evaluation as a path selector reads it: the direct
/// measurement and each overlay node's split measurement, without the
/// router paths and the other overlay modes of [`PairEval`]. The
/// selection rule of [`crate::select`] runs on this type; the online
/// service measures its per-epoch truth in this form and caches it as
/// its broker's probes.
#[derive(Debug, Clone, PartialEq)]
pub struct PairProbe {
    /// The default Internet path measurement.
    pub direct: Measurement,
    /// One entry per evaluated overlay node, in node order.
    pub overlays: Vec<OverlayProbe>,
}

/// Evaluation of all modes for one endpoint pair.
#[derive(Debug, Clone)]
pub struct PairEval {
    /// The default Internet path measurement.
    pub direct: Measurement,
    /// The default Internet path itself.
    pub direct_path: RouterPath,
    /// One entry per overlay node.
    pub overlays: Vec<OverlayEval>,
}

impl PairEval {
    /// The path-free projection a selector reads (see [`PairProbe`]).
    #[must_use]
    pub fn probe(&self) -> PairProbe {
        PairProbe {
            direct: self.direct,
            overlays: self
                .overlays
                .iter()
                .map(|o| OverlayProbe {
                    node: o.node,
                    split: o.split,
                })
                .collect(),
        }
    }

    /// Best plain-overlay throughput across nodes.
    #[must_use]
    pub fn best_plain_bps(&self) -> f64 {
        self.overlays
            .iter()
            .map(|o| o.plain.throughput_bps)
            .fold(0.0, f64::max)
    }

    /// Best split-overlay throughput across nodes.
    #[must_use]
    pub fn best_split_bps(&self) -> f64 {
        self.overlays
            .iter()
            .map(|o| o.split.throughput_bps)
            .fold(0.0, f64::max)
    }

    /// Best discrete-overlay (upper-bound) throughput across nodes.
    #[must_use]
    pub fn best_discrete_bps(&self) -> f64 {
        self.overlays
            .iter()
            .map(|o| o.discrete_bps)
            .fold(0.0, f64::max)
    }

    /// Lowest plain-overlay loss across nodes (Fig. 4's best-of-four
    /// tunnels retransmission rate).
    #[must_use]
    pub fn min_overlay_loss(&self) -> f64 {
        self.overlays
            .iter()
            .map(|o| o.plain.loss)
            .fold(f64::INFINITY, f64::min)
    }

    /// Lowest plain-overlay average RTT across nodes (Fig. 5's
    /// minimum-RTT tunnel).
    #[must_use]
    pub fn min_overlay_rtt(&self) -> SimDuration {
        self.overlays
            .iter()
            .map(|o| o.plain.rtt)
            .min()
            .unwrap_or(SimDuration::MAX)
    }

    /// Throughput improvement ratio of the best split-overlay over the
    /// direct path (the paper's headline metric).
    #[must_use]
    pub fn split_improvement_ratio(&self) -> f64 {
        self.best_split_bps() / self.direct.throughput_bps.max(1.0)
    }

    /// The overlay node index achieving the best split throughput.
    #[must_use]
    pub fn best_split_node(&self) -> Option<usize> {
        self.overlays
            .iter()
            .max_by(|a, b| {
                a.split
                    .throughput_bps
                    .partial_cmp(&b.split.throughput_bps)
                    .unwrap()
            })
            .map(|o| o.node)
    }
}

/// Evaluates the direct path between two hosts.
#[must_use]
pub fn eval_direct(
    net: &Network,
    bgp: &mut Bgp,
    a: RouterId,
    b: RouterId,
    params: &TcpParams,
) -> Option<(Measurement, RouterPath)> {
    let path = route(net, bgp, a, b)?;
    let q = quality(net, &path);
    Some((
        Measurement {
            throughput_bps: tcp_throughput(&q, params),
            rtt: q.rtt,
            loss: q.loss,
        },
        path,
    ))
}

/// Evaluates one overlay node for the pair `(a, b)`: all three overlay
/// modes plus the joined router-level path.
// Eight positional inputs read better here than a one-shot params struct:
// every call site passes the same world handles straight through.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn eval_overlay(
    net: &Network,
    bgp: &mut Bgp,
    a: RouterId,
    b: RouterId,
    node_index: usize,
    node: &OverlayNode,
    tunnel: TunnelKind,
    params: &TcpParams,
) -> Option<OverlayEval> {
    let to_o = route(net, bgp, a, node.vm())?;
    let from_o = route(net, bgp, node.vm(), b)?;
    let q_a = quality(net, &to_o);
    let q_b = quality(net, &from_o);
    let (plain, split, discrete_bps) = modes_from_segments(&q_a, &q_b, node, tunnel, params);

    // The full router-level path for traceroute/diversity analysis. The
    // second segment starts at the VM, whose first hop duplicates the
    // join point — RouterPath::join handles the splice.
    let path = to_o.join(from_o);
    Some(OverlayEval {
        node: node_index,
        plain,
        split,
        discrete_bps,
        path,
    })
}

/// Computes the three overlay measurement modes from the two segment
/// qualities (used by [`eval_overlay`] and by the experiment sweeps that
/// cache segment routes).
#[must_use]
pub fn modes_from_segments(
    q_a: &PathQuality,
    q_b: &PathQuality,
    node: &OverlayNode,
    tunnel: TunnelKind,
    params: &TcpParams,
) -> (Measurement, Measurement, f64) {
    // Plain tunnel: one TCP loop over the concatenation. The tunnel
    // shrinks the MSS; the overlay node adds forwarding latency.
    let mut chained = q_a.chain(q_b);
    chained.rtt += node.forward_delay() * 2;
    let tunnel_params = tunnel_params(tunnel, params);
    let plain = Measurement {
        throughput_bps: tcp_throughput(&chained, &tunnel_params),
        rtt: chained.rtt,
        loss: chained.loss,
    };

    // Split overlay: per-segment TCP loops; tunneled segment uses the
    // reduced MSS, the NATted segment the full MSS. Only meaningful for
    // tunnels that leave TCP headers in clear text.
    let split = if tunnel.supports_split_tcp() {
        let first = tcp_throughput(q_a, &tunnel_params);
        let second = tcp_throughput(q_b, params);
        Measurement {
            throughput_bps: first.min(second) * node.relay_efficiency(),
            rtt: chained.rtt,
            loss: chained.loss,
        }
    } else {
        plain
    };

    // Discrete: segments measured independently, no overheads at all.
    let discrete_bps = split_tcp_throughput(q_a, q_b, params, 1.0);
    (plain, split, discrete_bps)
}

/// Full pair evaluation across a set of overlay nodes.
#[must_use]
pub fn eval_pair(
    net: &Network,
    bgp: &mut Bgp,
    a: RouterId,
    b: RouterId,
    nodes: &[OverlayNode],
    tunnel: TunnelKind,
    params: &TcpParams,
) -> Option<PairEval> {
    let (direct, direct_path) = eval_direct(net, bgp, a, b, params)?;
    let overlays = nodes
        .iter()
        .enumerate()
        .filter_map(|(i, node)| eval_overlay(net, bgp, a, b, i, node, tunnel, params))
        .collect();
    Some(PairEval {
        direct,
        direct_path,
        overlays,
    })
}

/// Multi-hop extension (paper §VII-B): evaluates an overlay path through
/// an ordered chain of overlay nodes, splitting TCP at every hop.
/// Returns the split-mode throughput and the joined path.
#[must_use]
pub fn eval_multi_hop(
    net: &Network,
    bgp: &mut Bgp,
    a: RouterId,
    b: RouterId,
    chain: &[&OverlayNode],
    tunnel: TunnelKind,
    params: &TcpParams,
) -> Option<(f64, RouterPath)> {
    let mut waypoints: Vec<RouterId> = Vec::with_capacity(chain.len() + 2);
    waypoints.push(a);
    waypoints.extend(chain.iter().map(|n| n.vm()));
    waypoints.push(b);

    let tunnel_params = tunnel_params(tunnel, params);
    let mut rate = f64::INFINITY;
    let mut full_path: Option<RouterPath> = None;
    let segments = waypoints.len() - 1;
    for (i, w) in waypoints.windows(2).enumerate() {
        let seg = route(net, bgp, w[0], w[1])?;
        let q = quality(net, &seg);
        // The final leg is NAT-decapsulated, not tunneled — full MSS,
        // matching the one-hop split model.
        let p = if i + 1 == segments {
            params
        } else {
            &tunnel_params
        };
        rate = rate.min(tcp_throughput(&q, p));
        full_path = Some(match full_path {
            None => seg,
            Some(p) => p.join(seg),
        });
    }
    let efficiency: f64 = chain.iter().map(|n| n.relay_efficiency()).product();
    Some((rate * efficiency, full_path?))
}

/// The TCP parameters of a loop inside the tunnel: the tunnel header
/// shrinks the MSS.
fn tunnel_params(tunnel: TunnelKind, params: &TcpParams) -> TcpParams {
    TcpParams {
        mss: tunnel.effective_mss(params.mss),
        ..*params
    }
}

/// One overlay leg as a chain composes it: the leg's path quality and
/// the rate of the TCP loop a split relay runs over it.
///
/// A leg's rate depends only on the leg and on where it ends, so a
/// caller that scores many chains over shared legs measures each leg
/// once and composes every chain from the entries with
/// [`chain_measurement`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leg {
    /// The leg's path quality.
    pub quality: PathQuality,
    /// The rate of the leg's own TCP loop, bits per second.
    pub bps: f64,
}

impl Leg {
    /// Measures a leg's TCP loop. A leg into a relay runs through the
    /// tunnel MSS (the relay re-encapsulates toward the next hop); a
    /// leg into the destination is NAT-decapsulated at the full MSS, as
    /// is a direct path.
    #[must_use]
    pub fn measure(
        quality: PathQuality,
        into_relay: bool,
        tunnel: TunnelKind,
        params: &TcpParams,
    ) -> Leg {
        let bps = if into_relay {
            tcp_throughput(&quality, &tunnel_params(tunnel, params))
        } else {
            tcp_throughput(&quality, params)
        };
        Leg { quality, bps }
    }
}

/// Composes the measurement for a multi-hop relay chain from its legs
/// (`legs.len() == chain.len() + 1`, in traversal order, each measured
/// by [`Leg::measure`]).
///
/// This is the composable-tunnel primitive behind the `paths` crate and
/// the online service's one-hop truth: every leg runs its own TCP loop,
/// so the chain rate is the slowest leg's rate discounted by the
/// product of relay efficiencies. A one-relay chain is exactly the
/// split mode of [`modes_from_segments`]. Tunnels that cannot split
/// TCP (IPsec) degrade to a single loop over the whole concatenation at
/// tunnel MSS.
///
/// # Panics
///
/// Panics unless `legs.len() == chain.len() + 1`.
#[must_use]
pub fn chain_measurement(
    legs: &[Leg],
    chain: &[&OverlayNode],
    tunnel: TunnelKind,
    params: &TcpParams,
) -> Measurement {
    assert_eq!(
        legs.len(),
        chain.len() + 1,
        "a k-hop chain has k + 1 tunnel legs"
    );
    let mut chained = legs[0].quality;
    for l in &legs[1..] {
        chained = chained.chain(&l.quality);
    }
    for n in chain {
        chained.rtt += n.forward_delay() * 2;
    }
    if !tunnel.supports_split_tcp() {
        return Measurement {
            throughput_bps: tcp_throughput(&chained, &tunnel_params(tunnel, params)),
            rtt: chained.rtt,
            loss: chained.loss,
        };
    }
    let rate = legs[1..].iter().fold(legs[0].bps, |r, l| r.min(l.bps));
    let efficiency: f64 = chain.iter().map(|n| n.relay_efficiency()).product();
    Measurement {
        throughput_bps: rate * efficiency,
        rtt: chained.rtt,
        loss: chained.loss,
    }
}

/// Path quality under the current congestion state.
#[must_use]
pub fn quality(net: &Network, path: &RouterPath) -> PathQuality {
    PathQuality {
        rtt: path.rtt(net),
        loss: path.loss_prob(net),
        bottleneck_bps: path.bottleneck_bps(net),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cronet::CronetBuilder;
    use topology::gen::{generate, InternetConfig};
    use topology::AsTier;

    fn world() -> (Network, crate::Cronet, RouterId, RouterId) {
        world_with(TunnelKind::Gre)
    }

    fn world_with(tunnel: TunnelKind) -> (Network, crate::Cronet, RouterId, RouterId) {
        let mut net = generate(&InternetConfig::small(), 31);
        let cronet = CronetBuilder::new().tunnel(tunnel).build(&mut net, 31);
        let stubs: Vec<_> = net
            .ases()
            .filter(|a| a.tier() == AsTier::Stub)
            .map(|a| a.id())
            .collect();
        let a = net.attach_host("a", stubs[0], 100_000_000);
        let b = net.attach_host("b", stubs[5], 100_000_000);
        (net, cronet, a, b)
    }

    #[test]
    fn pair_eval_covers_every_overlay_node() {
        let (net, cronet, a, b) = world();
        let mut bgp = Bgp::new();
        let eval = eval_pair(
            &net,
            &mut bgp,
            a,
            b,
            cronet.nodes(),
            TunnelKind::Gre,
            cronet.params(),
        )
        .unwrap();
        assert_eq!(eval.overlays.len(), cronet.nodes().len());
        assert!(eval.direct.throughput_bps > 0.0);
    }

    #[test]
    fn discrete_upper_bounds_split() {
        let (net, cronet, a, b) = world();
        let mut bgp = Bgp::new();
        let eval = eval_pair(
            &net,
            &mut bgp,
            a,
            b,
            cronet.nodes(),
            TunnelKind::Gre,
            cronet.params(),
        )
        .unwrap();
        for o in &eval.overlays {
            assert!(
                o.split.throughput_bps <= o.discrete_bps * (1.0 + 1e-9),
                "split {} exceeds discrete {}",
                o.split.throughput_bps,
                o.discrete_bps
            );
        }
    }

    #[test]
    fn split_beats_plain_on_long_paths() {
        // Aggregate property over all overlay paths: split-overlay
        // throughput is never (materially) worse than the plain tunnel,
        // and strictly better for at least some node when segments are
        // long. (Mathis: one loop over 2x RTT vs two loops over 1x.)
        let (net, cronet, a, b) = world();
        let mut bgp = Bgp::new();
        let eval = eval_pair(
            &net,
            &mut bgp,
            a,
            b,
            cronet.nodes(),
            TunnelKind::Gre,
            cronet.params(),
        )
        .unwrap();
        assert!(eval.best_split_bps() >= 0.9 * eval.best_plain_bps());
    }

    #[test]
    fn ipsec_disables_split_mode() {
        let (net, cronet, a, b) = world();
        let mut bgp = Bgp::new();
        let eval = eval_pair(
            &net,
            &mut bgp,
            a,
            b,
            cronet.nodes(),
            TunnelKind::Ipsec,
            cronet.params(),
        )
        .unwrap();
        for o in &eval.overlays {
            assert_eq!(o.split.throughput_bps, o.plain.throughput_bps);
        }
    }

    #[test]
    fn overlay_paths_traverse_the_cloud() {
        let (net, cronet, a, b) = world();
        let mut bgp = Bgp::new();
        let eval = eval_pair(
            &net,
            &mut bgp,
            a,
            b,
            cronet.nodes(),
            TunnelKind::Gre,
            cronet.params(),
        )
        .unwrap();
        let cloud = net.cloud_as().unwrap();
        for o in &eval.overlays {
            assert!(
                o.path.as_path(&net).contains(&cloud),
                "overlay path avoids the cloud AS?"
            );
            assert!(o.path.is_consistent(&net));
        }
        assert!(
            !eval.direct_path.as_path(&net).contains(&cloud),
            "direct path should not transit the cloud (it has no customers)"
        );
    }

    #[test]
    fn improvement_ratios_are_consistent() {
        let (net, cronet, a, b) = world();
        let mut bgp = Bgp::new();
        let eval = eval_pair(
            &net,
            &mut bgp,
            a,
            b,
            cronet.nodes(),
            TunnelKind::Gre,
            cronet.params(),
        )
        .unwrap();
        let ratio = eval.split_improvement_ratio();
        assert!((ratio - eval.best_split_bps() / eval.direct.throughput_bps).abs() < 1e-9);
        assert!(eval.best_split_node().is_some());
    }

    /// The legs of the chain `a → chain → b`, each routed, measured and
    /// given its own TCP loop's rate.
    fn legs_along(
        net: &Network,
        cronet: &crate::Cronet,
        a: RouterId,
        chain: &[&OverlayNode],
        b: RouterId,
    ) -> Vec<Leg> {
        let mut bgp = Bgp::new();
        let mut waypoints = vec![a];
        waypoints.extend(chain.iter().map(|n| n.vm()));
        waypoints.push(b);
        waypoints
            .windows(2)
            .map(|w| {
                let q = quality(net, &route(net, &mut bgp, w[0], w[1]).unwrap());
                Leg::measure(q, w[1] != b, cronet.tunnel(), cronet.params())
            })
            .collect()
    }

    /// The chain composition per-leg rates replaced: every leg's TCP
    /// loop evaluated inside the composition, from qualities alone.
    fn chain_from_qualities(
        legs: &[PathQuality],
        chain: &[&OverlayNode],
        tunnel: TunnelKind,
        params: &TcpParams,
    ) -> Measurement {
        let mut chained = legs[0];
        for q in &legs[1..] {
            chained = chained.chain(q);
        }
        for n in chain {
            chained.rtt += n.forward_delay() * 2;
        }
        let tunnel_params = TcpParams {
            mss: tunnel.effective_mss(params.mss),
            ..*params
        };
        if !tunnel.supports_split_tcp() {
            return Measurement {
                throughput_bps: tcp_throughput(&chained, &tunnel_params),
                rtt: chained.rtt,
                loss: chained.loss,
            };
        }
        let last = legs.len() - 1;
        let mut rate = f64::INFINITY;
        for (i, q) in legs.iter().enumerate() {
            let p = if i == last { params } else { &tunnel_params };
            rate = rate.min(tcp_throughput(q, p));
        }
        let efficiency: f64 = chain.iter().map(|n| n.relay_efficiency()).product();
        Measurement {
            throughput_bps: rate * efficiency,
            rtt: chained.rtt,
            loss: chained.loss,
        }
    }

    fn bits(m: &Measurement) -> (u64, SimDuration, u64) {
        (m.throughput_bps.to_bits(), m.rtt, m.loss.to_bits())
    }

    /// On both tunnel kinds, the composition fed per-leg rates is the
    /// split mode of `modes_from_segments` for every one-relay chain and
    /// the quality-only composition for every two-relay chain, bit for
    /// bit.
    #[test]
    fn composed_leg_rates_match_both_references_on_gre_and_ipsec() {
        for tunnel in [TunnelKind::Gre, TunnelKind::Ipsec] {
            let (net, cronet, a, b) = world_with(tunnel);
            let params = cronet.params();
            let nodes = cronet.nodes();
            for (i, x) in nodes.iter().enumerate() {
                let legs = legs_along(&net, &cronet, a, &[x], b);
                let (_, split, _) =
                    modes_from_segments(&legs[0].quality, &legs[1].quality, x, tunnel, params);
                let m = chain_measurement(&legs, &[x], tunnel, params);
                assert_eq!(bits(&m), bits(&split), "{tunnel:?} via O{i}");
                for (j, y) in nodes.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let legs = legs_along(&net, &cronet, a, &[x, y], b);
                    let qs: Vec<PathQuality> = legs.iter().map(|l| l.quality).collect();
                    let want = chain_from_qualities(&qs, &[x, y], tunnel, params);
                    let m = chain_measurement(&legs, &[x, y], tunnel, params);
                    assert_eq!(bits(&m), bits(&want), "{tunnel:?} via O{i}-O{j}");
                }
            }
        }
    }

    #[test]
    fn chain_measurement_matches_eval_multi_hop_rate() {
        let (net, cronet, a, b) = world();
        let mut bgp = Bgp::new();
        let chain: Vec<&OverlayNode> = cronet.nodes().iter().take(2).collect();
        let (rate, _) = eval_multi_hop(
            &net,
            &mut bgp,
            a,
            b,
            &chain,
            TunnelKind::Gre,
            cronet.params(),
        )
        .unwrap();
        let legs = legs_along(&net, &cronet, a, &chain, b);
        let m = chain_measurement(&legs, &chain, TunnelKind::Gre, cronet.params());
        assert!((m.throughput_bps - rate).abs() < 1e-9);
    }

    #[test]
    fn ipsec_chain_degrades_to_single_loop() {
        let (net, cronet, a, b) = world();
        let chain: Vec<&OverlayNode> = cronet.nodes().iter().take(2).collect();
        let legs = legs_along(&net, &cronet, a, &chain, b);
        let split = chain_measurement(&legs, &chain, TunnelKind::Gre, cronet.params());
        let plain = chain_measurement(&legs, &chain, TunnelKind::Ipsec, cronet.params());
        // One TCP loop over three concatenated legs cannot beat the
        // slowest per-leg loop (Mathis: rate falls with total RTT).
        assert!(plain.throughput_bps <= split.throughput_bps / 0.9);
        assert_eq!(plain.rtt, split.rtt);
    }

    #[test]
    fn multi_hop_chains_compose() {
        let (net, cronet, a, b) = world();
        let mut bgp = Bgp::new();
        let chain: Vec<&OverlayNode> = cronet.nodes().iter().take(2).collect();
        let (bps, path) = eval_multi_hop(
            &net,
            &mut bgp,
            a,
            b,
            &chain,
            TunnelKind::Gre,
            cronet.params(),
        )
        .unwrap();
        assert!(bps > 0.0);
        assert_eq!(path.source(), a);
        assert_eq!(path.destination(), b);
        // Visits both overlay VMs in order.
        let routers = path.routers();
        let i0 = routers.iter().position(|&r| r == chain[0].vm()).unwrap();
        let i1 = routers.iter().position(|&r| r == chain[1].vm()).unwrap();
        assert!(i0 < i1);
    }
}
