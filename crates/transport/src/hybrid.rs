//! Hybrid analytic/DES transport: packet-level fidelity only where the
//! network is actually contended.
//!
//! The packet engine ([`crate::des::Netsim`]) prices every segment of
//! every flow, which is exactly right for the congested bottlenecks the
//! paper's §VI validation cares about and pure waste for the long tail
//! of flows that never queue. [`HybridSim`] splits the difference:
//!
//! 1. Every flow starts in the **analytic** regime — its offered load is
//!    the steady-state [`model::tcp_throughput`] of its path(s).
//! 2. Per-link utilisation (offered analytic load over capacity) is
//!    folded into an EWMA re-evaluated on fixed **epoch** boundaries.
//!    A link whose EWMA crosses [`HybridConfig::promote_util`] becomes
//!    *hot* and stays hot until it cools below
//!    [`HybridConfig::demote_util`] (hysteresis, so borderline links do
//!    not flap).
//! 3. Flows whose path touches a hot link are **promoted** to the packet
//!    engine; the rest are settled analytically with proportional
//!    fair-share scaling and slow-start-aware byte accounting
//!    ([`model::ramped_transfer_bytes`]).
//! 4. Flows the closed-form model cannot price promote outright,
//!    regardless of utilisation: a path lossy by construction
//!    ([`HybridConfig::promote_loss`] — steady state is a low-loss
//!    model) or at WAN RTT ([`HybridConfig::promote_rtt`] — a
//!    figure-scale transfer there spans too few RTTs for any
//!    steady-state formula, so the run is slow-start and AIMD
//!    transients end to end).
//!
//! The whole classification runs on closed-form arithmetic — the
//! analytic half draws **zero** random numbers, so promotion decisions
//! are a pure function of the construction sequence, and the embedded
//! packet simulation sees the same seed it would in a pure-DES run.
//! When every flow promotes, the hybrid result is byte-identical to
//! [`crate::des::Netsim`] (the test suite pins this).
//!
//! # Example
//!
//! ```
//! use simcore::SimDuration;
//! use transport::des::{DesPath, TransferConfig};
//! use transport::hybrid::{Fidelity, HybridSim};
//!
//! let mut sim = HybridSim::new(1, Fidelity::Hybrid);
//! let l = sim.add_link(100_000_000, SimDuration::from_millis(20), 1e-4, 1 << 20);
//! let f = sim.add_tcp_flow(DesPath::new(vec![l]), &TransferConfig::for_secs(1));
//! let stats = sim.run();
//! // One ~35 Mbit/s flow on a 100 Mbit/s link never promotes: the
//! // answer comes from the analytic model at a fraction of the cost.
//! assert!(stats[f].goodput_bps > 10_000_000.0);
//! assert_eq!(sim.report().unwrap().flows_promoted, 0);
//! ```

use simcore::{SimDuration, SimTime};

use crate::des::{
    CouplingAlg, DesPath, FaultInjectionError, FlowStats, MptcpConfig, Netsim, TransferConfig,
};
use crate::model::{self, PathQuality};

/// Simulation fidelity: which engine settles each flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Pure packet-level DES — byte-identical to driving
    /// [`crate::des::Netsim`] directly.
    Des,
    /// Packet-level DES for flows crossing hot links, analytic
    /// steady-state for the rest.
    Hybrid,
    /// Pure analytic — no packet engine, no RNG draws at all.
    Analytic,
}

/// Knobs of the hybrid promotion machinery.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Utilisation re-evaluation cadence.
    pub epoch: SimDuration,
    /// EWMA smoothing factor for per-link utilisation (weight of the
    /// newest epoch).
    pub ewma_alpha: f64,
    /// A link whose utilisation EWMA reaches this becomes hot.
    pub promote_util: f64,
    /// A hot link cools once its EWMA drops below this (must be below
    /// `promote_util` for hysteresis to bite).
    pub demote_util: f64,
    /// A flow one of whose paths has a construction-time end-to-end
    /// loss at or above this is promoted outright: the closed-form TCP
    /// model is only trusted in the low-loss regime, so chronically
    /// lossy paths settle in the packet engine regardless of
    /// utilisation. Judged on construction-time losses only — a
    /// fault-raised loss is transient and already priced into the
    /// analytic demand refresh each epoch.
    pub promote_loss: f64,
    /// A flow one of whose paths has a construction-time RTT at or
    /// above this is promoted outright. At WAN round-trip times a
    /// figure-scale transfer spans too few RTTs (and too few loss
    /// epochs) for the steady-state throughput model to be trusted —
    /// the run is dominated by slow start and AIMD transients — so
    /// those flows settle in the packet engine. The analytic fast
    /// path keeps the short-RTT, capacity-limited regime where the
    /// model is accurate.
    pub promote_rtt: SimDuration,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            epoch: SimDuration::from_millis(100),
            ewma_alpha: 0.3,
            promote_util: 0.85,
            demote_util: 0.60,
            promote_loss: 0.01,
            promote_rtt: SimDuration::from_millis(150),
        }
    }
}

/// What one hybrid run decided, for telemetry and tests.
#[derive(Debug, Clone, Copy)]
pub struct HybridReport {
    /// Analytic→DES transitions summed over flows and epochs.
    pub flows_promoted: u64,
    /// DES→analytic transitions (telemetry only: a flow that was ever
    /// promoted is settled by the packet engine for its whole lifetime,
    /// so demotions never un-price congestion).
    pub flows_demoted: u64,
    /// Share of total flow-seconds settled by the packet engine.
    pub des_time_share: f64,
    /// Epoch boundaries evaluated.
    pub epochs: u64,
}

#[derive(Debug, Clone, Copy)]
struct LinkSpec {
    rate_bps: u64,
    prop_delay: SimDuration,
    loss: f64,
    queue_cap: u64,
}

#[derive(Debug, Clone)]
enum FlowSpec {
    Tcp {
        path: DesPath,
        cfg: TransferConfig,
    },
    Mptcp {
        paths: Vec<DesPath>,
        cfg: MptcpConfig,
    },
    Split {
        first: DesPath,
        second: DesPath,
        cfg: TransferConfig,
        buffer_bytes: u64,
    },
}

impl FlowSpec {
    fn transfer(&self) -> &TransferConfig {
        match self {
            FlowSpec::Tcp { cfg, .. } | FlowSpec::Split { cfg, .. } => cfg,
            FlowSpec::Mptcp { cfg, .. } => &cfg.transfer,
        }
    }

    fn paths(&self) -> Vec<&DesPath> {
        match self {
            FlowSpec::Tcp { path, .. } => vec![path],
            FlowSpec::Mptcp { paths, .. } => paths.iter().collect(),
            FlowSpec::Split { first, second, .. } => vec![first, second],
        }
    }
}

/// Drop-in front end for [`Netsim`] that records the scenario and picks
/// the settlement engine per flow at [`HybridSim::run`] time.
///
/// The builder API mirrors [`Netsim`] method-for-method so experiment
/// code can be generic over fidelity by swapping the constructor.
#[derive(Debug)]
pub struct HybridSim {
    seed: u64,
    fidelity: Fidelity,
    cfg: HybridConfig,
    links: Vec<LinkSpec>,
    flows: Vec<FlowSpec>,
    /// `(link, at, loss)` in schedule-call order — replay order matters
    /// for event-queue sequence numbers in the embedded DES.
    faults: Vec<(usize, SimTime, f64)>,
    report: Option<HybridReport>,
}

impl HybridSim {
    /// Creates an empty scenario with default [`HybridConfig`].
    #[must_use]
    pub fn new(seed: u64, fidelity: Fidelity) -> Self {
        HybridSim::with_config(seed, fidelity, HybridConfig::default())
    }

    /// Creates an empty scenario with explicit promotion knobs.
    #[must_use]
    pub fn with_config(seed: u64, fidelity: Fidelity, cfg: HybridConfig) -> Self {
        assert!(cfg.epoch > SimDuration::ZERO, "epoch must be positive");
        assert!(
            cfg.demote_util <= cfg.promote_util,
            "hysteresis thresholds inverted"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.promote_loss),
            "promote_loss must be a probability"
        );
        HybridSim {
            seed,
            fidelity,
            cfg,
            links: Vec::new(),
            flows: Vec::new(),
            faults: Vec::new(),
            report: None,
        }
    }

    /// Adds a unidirectional link and returns its index (same contract
    /// as [`Netsim::add_link`]).
    pub fn add_link(
        &mut self,
        rate_bps: u64,
        prop_delay: SimDuration,
        loss_prob: f64,
        queue_cap_bytes: u64,
    ) -> usize {
        self.links.push(LinkSpec {
            rate_bps,
            prop_delay,
            loss: loss_prob,
            queue_cap: queue_cap_bytes,
        });
        self.links.len() - 1
    }

    /// Schedules a link-loss change (fault injection), validated
    /// exactly like [`Netsim::schedule_link_loss`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultInjectionError`] for an unknown link index or a
    /// loss value outside `[0, 1]`.
    pub fn schedule_link_loss(
        &mut self,
        link: usize,
        at: SimTime,
        loss: f64,
    ) -> Result<(), FaultInjectionError> {
        debug_assert!(link < self.links.len(), "no link {link}");
        debug_assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        if link >= self.links.len() {
            return Err(FaultInjectionError::NoSuchLink {
                link,
                links: self.links.len(),
            });
        }
        if !(0.0..=1.0).contains(&loss) {
            return Err(FaultInjectionError::InvalidLoss { loss });
        }
        self.faults.push((link, at, loss));
        Ok(())
    }

    /// Adds a single-path TCP flow; returns its index into
    /// [`HybridSim::run`]'s result vector.
    pub fn add_tcp_flow(&mut self, path: DesPath, cfg: &TransferConfig) -> usize {
        self.flows.push(FlowSpec::Tcp {
            path,
            cfg: cfg.clone(),
        });
        self.flows.len() - 1
    }

    /// Adds an MPTCP connection with one subflow per path.
    pub fn add_mptcp_flow(&mut self, paths: Vec<DesPath>, cfg: &MptcpConfig) -> usize {
        self.flows.push(FlowSpec::Mptcp {
            paths,
            cfg: cfg.clone(),
        });
        self.flows.len() - 1
    }

    /// Adds a split-TCP relay flow (see [`Netsim::add_split_flow`]).
    pub fn add_split_flow(
        &mut self,
        first: DesPath,
        second: DesPath,
        cfg: &TransferConfig,
        buffer_bytes: u64,
    ) -> usize {
        self.flows.push(FlowSpec::Split {
            first,
            second,
            cfg: cfg.clone(),
            buffer_bytes,
        });
        self.flows.len() - 1
    }

    /// What the last [`HybridSim::run`] decided (`None` before the first
    /// run, or after a [`Fidelity::Des`] run, which decides nothing).
    #[must_use]
    pub fn report(&self) -> Option<&HybridReport> {
        self.report.as_ref()
    }

    /// Runs the scenario and returns per-flow statistics in flow-add
    /// order, like [`Netsim::run`].
    ///
    /// # Panics
    ///
    /// Panics if no flows were added.
    pub fn run(&mut self) -> Vec<FlowStats> {
        assert!(!self.flows.is_empty(), "no flows to simulate");
        match self.fidelity {
            Fidelity::Des => self.run_pure_des(),
            Fidelity::Hybrid => self.run_blended(true),
            Fidelity::Analytic => self.run_blended(false),
        }
    }

    /// Replays the recorded scenario into a [`Netsim`] — link, flow and
    /// fault order all preserved, so the event-queue sequence numbers
    /// (and therefore every random draw) match a hand-built simulation.
    fn run_pure_des(&mut self) -> Vec<FlowStats> {
        let mut sim = Netsim::new(self.seed);
        for l in &self.links {
            sim.add_link(l.rate_bps, l.prop_delay, l.loss, l.queue_cap);
        }
        for spec in &self.flows {
            add_spec(&mut sim, spec);
        }
        for &(link, at, loss) in &self.faults {
            sim.schedule_link_loss(link, at, loss)
                .expect("fault was validated when scheduled on the hybrid front end");
        }
        self.report = None;
        sim.run()
    }

    /// End-to-end quality of one path under the given per-link losses.
    fn quality(&self, path: &DesPath, losses: &[f64]) -> PathQuality {
        let mut delay = SimDuration::ZERO;
        let mut survival = 1.0;
        let mut bottleneck = u64::MAX;
        for &l in path.links() {
            delay += self.links[l].prop_delay;
            survival *= 1.0 - losses[l];
            bottleneck = bottleneck.min(self.links[l].rate_bps);
        }
        PathQuality {
            rtt: delay * 2,
            loss: 1.0 - survival,
            bottleneck_bps: bottleneck,
        }
    }

    /// Per-subflow offered load (bits per second) of flow `f` under the
    /// given losses. Coupled MPTCP concentrates its demand on the best
    /// subflow (what LIA/OLIA converge to); a split relay is limited by
    /// its slower segment on both segments.
    fn subflow_demands(&self, f: usize, losses: &[f64]) -> Vec<f64> {
        let spec = &self.flows[f];
        let params = spec.transfer().params;
        match spec {
            FlowSpec::Tcp { path, .. } => {
                vec![model::tcp_throughput(&self.quality(path, losses), &params)]
            }
            FlowSpec::Mptcp { paths, cfg } => {
                let thr: Vec<f64> = paths
                    .iter()
                    .map(|p| model::tcp_throughput(&self.quality(p, losses), &params))
                    .collect();
                match cfg.coupling {
                    CouplingAlg::Uncoupled => thr,
                    CouplingAlg::Lia | CouplingAlg::Olia => {
                        let best = thr
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                            .map_or(0, |(i, _)| i);
                        thr.iter()
                            .enumerate()
                            .map(|(i, &t)| if i == best { t } else { 0.0 })
                            .collect()
                    }
                }
            }
            FlowSpec::Split { first, second, .. } => {
                let d = model::split_tcp_throughput(
                    &self.quality(first, losses),
                    &self.quality(second, losses),
                    &params,
                    1.0,
                );
                vec![d, d]
            }
        }
    }

    /// The analytic/hybrid engine: epoch sweep for utilisation EWMA and
    /// promotion, embedded DES for ever-promoted flows, fair-share
    /// analytic settlement for the rest.
    fn run_blended(&mut self, allow_promotion: bool) -> Vec<FlowStats> {
        let n_flows = self.flows.len();
        let n_links = self.links.len();
        let horizon: SimDuration = self
            .flows
            .iter()
            .map(|s| s.transfer().duration)
            .fold(SimDuration::ZERO, SimDuration::max);
        let epoch_s = self.cfg.epoch.as_secs_f64();
        let epochs = horizon
            .as_nanos()
            .div_ceil(self.cfg.epoch.as_nanos())
            .max(1);

        // Faults in time order (stable on schedule order for ties).
        let mut fault_order: Vec<usize> = (0..self.faults.len()).collect();
        fault_order.sort_by_key(|&i| self.faults[i].1);
        let mut next_fault = 0usize;

        let base_losses: Vec<f64> = self.links.iter().map(|l| l.loss).collect();
        // Flows the closed-form model cannot price — a path lossy by
        // construction (`promote_loss`) or at WAN RTT (`promote_rtt`)
        // — go straight to the packet engine. Judged once, on
        // construction-time qualities: a fault-raised loss is transient
        // and already priced into the analytic demand refresh.
        let distrusted: Vec<bool> = self
            .flows
            .iter()
            .map(|s| {
                s.paths().iter().any(|p| {
                    let q = self.quality(p, &base_losses);
                    q.loss >= self.cfg.promote_loss || q.rtt >= self.cfg.promote_rtt
                })
            })
            .collect();

        let mut losses = base_losses.clone();
        let mut ewma: Vec<f64> = vec![0.0; n_links];
        let mut hot = vec![false; n_links];
        let mut promoted = vec![false; n_flows];
        let mut ever_promoted = vec![false; n_flows];
        let mut flows_promoted = 0u64;
        let mut flows_demoted = 0u64;
        // Σ fair-share rate × active seconds, per subflow of each flow.
        let mut rate_integral: Vec<Vec<f64>> = self
            .flows
            .iter()
            .map(|s| vec![0.0; s.paths().len()])
            .collect();

        let mut link_demand = vec![0.0f64; n_links];
        let mut demands: Vec<Vec<f64>> = vec![Vec::new(); n_flows];
        for e in 0..epochs {
            let start = self.cfg.epoch.mul_f64(e as f64);
            // Losses in effect at the epoch boundary.
            while next_fault < fault_order.len() {
                let (link, at, loss) = self.faults[fault_order[next_fault]];
                if at.duration_since(SimTime::ZERO) > start {
                    break;
                }
                losses[link] = loss;
                next_fault += 1;
            }
            // Offered load per link from flows still sending this epoch.
            link_demand.iter_mut().for_each(|d| *d = 0.0);
            for (f, dem) in demands.iter_mut().enumerate() {
                let active = self.flows[f].transfer().duration > start;
                *dem = if active {
                    self.subflow_demands(f, &losses)
                } else {
                    Vec::new()
                };
                for (p, path) in self.flows[f].paths().iter().enumerate() {
                    let d = dem.get(p).copied().unwrap_or(0.0);
                    if d > 0.0 {
                        for &l in path.links() {
                            link_demand[l] += d;
                        }
                    }
                }
            }
            // EWMA + hysteresis.
            for l in 0..n_links {
                let util = link_demand[l] / self.links[l].rate_bps as f64;
                ewma[l] = if e == 0 {
                    util
                } else {
                    self.cfg.ewma_alpha * util + (1.0 - self.cfg.ewma_alpha) * ewma[l]
                };
                if hot[l] {
                    if ewma[l] < self.cfg.demote_util {
                        hot[l] = false;
                    }
                } else if ewma[l] >= self.cfg.promote_util {
                    hot[l] = true;
                }
            }
            // Promotion transitions. The analytic fidelity skips this
            // entirely — it never consults the hot set.
            if allow_promotion {
                for f in 0..n_flows {
                    if demands[f].is_empty() {
                        continue;
                    }
                    let wants_des = distrusted[f]
                        || self.flows[f]
                            .paths()
                            .iter()
                            .any(|p| p.links().iter().any(|&l| hot[l]));
                    if wants_des && !promoted[f] {
                        flows_promoted += 1;
                        promoted[f] = true;
                        ever_promoted[f] = true;
                    } else if !wants_des && promoted[f] {
                        flows_demoted += 1;
                        promoted[f] = false;
                    }
                }
            }
            // Fair-share settlement of this epoch's analytic rates.
            for f in 0..n_flows {
                if demands[f].is_empty() || ever_promoted[f] {
                    continue;
                }
                let overlap = (self.flows[f].transfer().duration.as_secs_f64()
                    - start.as_secs_f64())
                .min(epoch_s)
                .max(0.0);
                // A split relay is throttled by contention on either
                // segment; its two subflows carry one end-to-end rate.
                let joint = matches!(self.flows[f], FlowSpec::Split { .. });
                let mut joint_share = 1.0f64;
                let paths = self.flows[f].paths();
                let mut shares = vec![1.0f64; paths.len()];
                for (p, path) in paths.iter().enumerate() {
                    for &l in path.links() {
                        let cap = self.links[l].rate_bps as f64;
                        if link_demand[l] > cap {
                            shares[p] = shares[p].min(cap / link_demand[l]);
                        }
                    }
                    joint_share = joint_share.min(shares[p]);
                }
                for (p, &d) in demands[f].iter().enumerate() {
                    let share = if joint { joint_share } else { shares[p] };
                    rate_integral[f][p] += d * share * overlap;
                }
            }
        }

        // Ever-promoted flows replay through a packet simulation whose
        // links keep their construction-time capacity minus the load the
        // analytic flows settled on them — unless that load is zero, in
        // which case the link is bit-identical to the pure-DES one (this
        // is what makes "everything promoted" collapse to pure DES).
        let mut out: Vec<Option<FlowStats>> = (0..n_flows).map(|_| None).collect();
        let any_promoted = ever_promoted.iter().any(|&p| p);
        if any_promoted {
            let mut analytic_load = vec![0.0f64; n_links];
            for (f, &was_promoted) in ever_promoted.iter().enumerate() {
                if was_promoted {
                    continue;
                }
                let demand = self.subflow_demands(f, &base_losses);
                for (p, path) in self.flows[f].paths().iter().enumerate() {
                    if demand[p] > 0.0 {
                        for &l in path.links() {
                            analytic_load[l] += demand[p];
                        }
                    }
                }
            }
            let mut sim = Netsim::new(self.seed);
            for (l, spec) in self.links.iter().enumerate() {
                let rate = if analytic_load[l] == 0.0 {
                    spec.rate_bps
                } else {
                    let reduced = spec.rate_bps as f64 - analytic_load[l];
                    reduced.max(spec.rate_bps as f64 * 0.1) as u64
                };
                sim.add_link(rate, spec.prop_delay, spec.loss, spec.queue_cap);
            }
            let mut des_index = Vec::new();
            for (f, &was_promoted) in ever_promoted.iter().enumerate() {
                if was_promoted {
                    add_spec(&mut sim, &self.flows[f]);
                    des_index.push(f);
                }
            }
            for &(link, at, loss) in &self.faults {
                sim.schedule_link_loss(link, at, loss)
                    .expect("fault was validated when scheduled on the hybrid front end");
            }
            for (j, stats) in sim.run().into_iter().enumerate() {
                out[des_index[j]] = Some(stats);
            }
        }

        // Analytic settlement for everything else.
        for f in 0..n_flows {
            if out[f].is_none() {
                out[f] = Some(self.settle_analytic(f, &rate_integral[f]));
            }
        }

        let total_time: f64 = self
            .flows
            .iter()
            .map(|s| s.transfer().duration.as_secs_f64())
            .sum();
        let des_time: f64 = self
            .flows
            .iter()
            .zip(&ever_promoted)
            .filter(|(_, &p)| p)
            .map(|(s, _)| s.transfer().duration.as_secs_f64())
            .sum();
        let report = HybridReport {
            flows_promoted,
            flows_demoted,
            des_time_share: if total_time > 0.0 {
                des_time / total_time
            } else {
                0.0
            },
            epochs,
        };
        if obs::enabled() {
            obs::add_named("hybrid.flows_promoted", report.flows_promoted);
            obs::add_named("hybrid.flows_demoted", report.flows_demoted);
            obs::set(
                obs::gauge("hybrid.sim_time_share_des"),
                report.des_time_share,
            );
            obs::set(
                obs::gauge("hybrid.sim_time_share_analytic"),
                1.0 - report.des_time_share,
            );
        }
        self.report = Some(report);
        out.into_iter()
            .map(|s| s.expect("every flow settled"))
            .collect()
    }

    /// Synthesises [`FlowStats`] for a flow the analytic engine settled:
    /// slow-start-aware byte counts from the time-averaged fair-share
    /// rate, loss-proportional retransmission estimates, model RTTs.
    fn settle_analytic(&self, f: usize, rate_integral: &[f64]) -> FlowStats {
        let spec = &self.flows[f];
        let cfg = spec.transfer();
        let params = cfg.params;
        let dur = cfg.duration;
        let dur_s = dur.as_secs_f64().max(1e-9);
        let base_losses: Vec<f64> = self.links.iter().map(|l| l.loss).collect();
        let paths = spec.paths();
        let quals: Vec<PathQuality> = paths
            .iter()
            .map(|p| self.quality(p, &base_losses))
            .collect();
        let mean_rates: Vec<f64> = rate_integral.iter().map(|r| r / dur_s).collect();
        let sub_bytes: Vec<u64> = mean_rates
            .iter()
            .zip(&quals)
            .map(|(&r, q)| model::ramped_transfer_bytes(r, q.rtt, &params, dur))
            .collect();
        // A split relay's goodput is what its second segment delivers;
        // everything else sums its subflows.
        let bytes_delivered = match spec {
            FlowSpec::Split { .. } => sub_bytes[1],
            _ => sub_bytes.iter().sum(),
        };
        let mss = u64::from(params.mss);
        let mut segments = 0u64;
        let mut retransmits = 0u64;
        let mut rtt_weighted_ns = 0.0f64;
        let mut min_rtt = SimDuration::from_nanos(u64::MAX);
        for (q, &b) in quals.iter().zip(&sub_bytes) {
            let segs = b / mss;
            let retx = (segs as f64 * q.loss).round() as u64;
            segments += segs + retx;
            retransmits += retx;
            rtt_weighted_ns += q.rtt.as_nanos() as f64 * b as f64;
            if b > 0 {
                min_rtt = min_rtt.min(q.rtt);
            }
        }
        if min_rtt == SimDuration::from_nanos(u64::MAX) {
            min_rtt = quals
                .iter()
                .map(|q| q.rtt)
                .fold(SimDuration::from_nanos(u64::MAX), SimDuration::min);
        }
        let total_bytes: u64 = sub_bytes.iter().sum();
        let avg_rtt = if total_bytes > 0 {
            SimDuration::from_nanos((rtt_weighted_ns / total_bytes as f64) as u64)
        } else {
            min_rtt
        };
        let interval_goodput_bps = cfg.sample_interval.map_or_else(Vec::new, |interval| {
            let n = (dur.as_nanos() / interval.as_nanos()) as usize;
            let int_s = interval.as_secs_f64();
            let bytes_until = |t: SimDuration| -> u64 {
                mean_rates
                    .iter()
                    .zip(&quals)
                    .map(|(&r, q)| model::ramped_transfer_bytes(r, q.rtt, &params, t))
                    .sum()
            };
            let mut prev = 0u64;
            (1..=n)
                .map(|i| {
                    let now = bytes_until(interval.mul_f64(i as f64));
                    let delta = now.saturating_sub(prev);
                    prev = now;
                    delta as f64 * 8.0 / int_s
                })
                .collect()
        });
        FlowStats {
            goodput_bps: bytes_delivered as f64 * 8.0 / dur_s,
            bytes_delivered,
            segments_sent: segments,
            retransmits,
            retx_rate: if segments > 0 {
                retransmits as f64 / segments as f64
            } else {
                0.0
            },
            avg_rtt,
            min_rtt,
            duration: dur,
            per_subflow_goodput: sub_bytes.iter().map(|&b| b as f64 * 8.0 / dur_s).collect(),
            interval_goodput_bps,
        }
    }
}

/// Adds one recorded flow spec to a packet simulation.
fn add_spec(sim: &mut Netsim, spec: &FlowSpec) {
    match spec {
        FlowSpec::Tcp { path, cfg } => {
            sim.add_tcp_flow(path.clone(), cfg);
        }
        FlowSpec::Mptcp { paths, cfg } => {
            sim.add_mptcp_flow(paths.clone(), cfg);
        }
        FlowSpec::Split {
            first,
            second,
            cfg,
            buffer_bytes,
        } => {
            sim.add_split_flow(first.clone(), second.clone(), cfg, *buffer_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{tcp_throughput, TcpParams};

    fn lossy_link(sim: &mut HybridSim, mbps: u64) -> usize {
        sim.add_link(
            mbps * 1_000_000,
            SimDuration::from_millis(20),
            1e-4,
            1 << 20,
        )
    }

    /// Overload a 10 Mbit/s link with four ~35 Mbit/s-demand flows: the
    /// utilisation EWMA is hot from epoch zero, every flow promotes, and
    /// the hybrid answer must equal pure DES bit for bit.
    #[test]
    fn all_promoted_is_byte_identical_to_pure_des() {
        let cfg = TransferConfig::for_secs(2).sampled_every(SimDuration::from_millis(500));
        let mut hybrid = HybridSim::new(42, Fidelity::Hybrid);
        let l = lossy_link(&mut hybrid, 10);
        for _ in 0..4 {
            hybrid.add_tcp_flow(DesPath::new(vec![l]), &cfg);
        }
        let got = hybrid.run();
        let report = *hybrid.report().unwrap();
        assert_eq!(report.flows_promoted, 4);
        assert!((report.des_time_share - 1.0).abs() < 1e-12);

        let mut des = Netsim::new(42);
        let l = des.add_link(10_000_000, SimDuration::from_millis(20), 1e-4, 1 << 20);
        for _ in 0..4 {
            des.add_tcp_flow(DesPath::new(vec![l]), &cfg);
        }
        let want = des.run();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    /// The `des` fidelity is a pure passthrough, including fault replay.
    #[test]
    fn des_fidelity_matches_hand_built_netsim() {
        let cfg = TransferConfig::for_secs(2);
        let mut front = HybridSim::new(7, Fidelity::Des);
        let l = lossy_link(&mut front, 10);
        front.add_tcp_flow(DesPath::new(vec![l]), &cfg);
        front
            .schedule_link_loss(l, SimTime::ZERO + SimDuration::from_secs(1), 0.05)
            .unwrap();
        let got = front.run();
        assert!(front.report().is_none());

        let mut des = Netsim::new(7);
        let l = des.add_link(10_000_000, SimDuration::from_millis(20), 1e-4, 1 << 20);
        des.add_tcp_flow(DesPath::new(vec![l]), &cfg);
        des.schedule_link_loss(l, SimTime::ZERO + SimDuration::from_secs(1), 0.05)
            .unwrap();
        let want = des.run();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    /// One ~35 Mbit/s flow on a 100 Mbit/s link never promotes and its
    /// analytic goodput tracks the steady-state model (below it, because
    /// of the slow-start ramp; not far below, because 1 s amortises it).
    #[test]
    fn uncontended_flow_stays_analytic_and_tracks_model() {
        let mut sim = HybridSim::new(1, Fidelity::Hybrid);
        let l = sim.add_link(100_000_000, SimDuration::from_millis(20), 5e-3, 1 << 20);
        let f = sim.add_tcp_flow(DesPath::new(vec![l]), &TransferConfig::for_secs(1));
        let stats = sim.run();
        let report = sim.report().unwrap();
        assert_eq!(report.flows_promoted, 0);
        assert!(report.des_time_share.abs() < 1e-12);

        let q = PathQuality {
            rtt: SimDuration::from_millis(40),
            loss: 5e-3,
            bottleneck_bps: 100_000_000,
        };
        let steady = tcp_throughput(&q, &TcpParams::default());
        assert!(stats[f].goodput_bps <= steady * 1.0001);
        assert!(stats[f].goodput_bps >= steady * 0.7, "ramp cost too high");
        assert!(stats[f].retransmits > 0, "loss must show up as retx");
    }

    /// A path lossy by construction defeats the closed-form model, so
    /// the flow promotes outright and settles byte-identically to the
    /// packet engine even with the link far from hot.
    #[test]
    fn lossy_path_promotes_past_the_utilisation_gate() {
        let mut sim = HybridSim::new(21, Fidelity::Hybrid);
        let l = sim.add_link(100_000_000, SimDuration::from_millis(20), 0.02, 1 << 20);
        let f = sim.add_tcp_flow(DesPath::new(vec![l]), &TransferConfig::for_secs(1));
        let stats = sim.run();
        let report = sim.report().unwrap();
        assert!(
            report.flows_promoted >= 1,
            "2% loss must distrust the model"
        );

        let mut des = Netsim::new(21);
        let dl = des.add_link(100_000_000, SimDuration::from_millis(20), 0.02, 1 << 20);
        des.add_tcp_flow(DesPath::new(vec![dl]), &TransferConfig::for_secs(1));
        let want = des.run();
        assert_eq!(
            stats[f].goodput_bps.to_bits(),
            want[0].goodput_bps.to_bits()
        );
    }

    /// A WAN-RTT path promotes outright: at 300 ms the transfer spans
    /// too few RTTs for the steady-state model, so the packet engine
    /// settles it byte-identically to pure DES.
    #[test]
    fn wan_rtt_path_promotes_past_the_utilisation_gate() {
        let mut sim = HybridSim::new(23, Fidelity::Hybrid);
        let l = sim.add_link(100_000_000, SimDuration::from_millis(150), 1e-4, 1 << 20);
        let f = sim.add_tcp_flow(DesPath::new(vec![l]), &TransferConfig::for_secs(2));
        let stats = sim.run();
        let report = sim.report().unwrap();
        assert!(
            report.flows_promoted >= 1,
            "300 ms RTT must distrust the model"
        );

        let mut des = Netsim::new(23);
        let dl = des.add_link(100_000_000, SimDuration::from_millis(150), 1e-4, 1 << 20);
        des.add_tcp_flow(DesPath::new(vec![dl]), &TransferConfig::for_secs(2));
        let want = des.run();
        assert_eq!(
            stats[f].goodput_bps.to_bits(),
            want[0].goodput_bps.to_bits()
        );
    }

    /// The analytic fidelity never promotes, even when overloaded; the
    /// fair share splits the link evenly among identical flows.
    #[test]
    fn analytic_fidelity_fair_shares_an_overloaded_link() {
        let mut sim = HybridSim::new(3, Fidelity::Analytic);
        let l = lossy_link(&mut sim, 10);
        for _ in 0..4 {
            sim.add_tcp_flow(DesPath::new(vec![l]), &TransferConfig::for_secs(2));
        }
        let stats = sim.run();
        let report = sim.report().unwrap();
        assert_eq!(report.flows_promoted, 0);
        let total: f64 = stats.iter().map(|s| s.goodput_bps).sum();
        assert!(total <= 10_000_000.0 * 1.01, "fair share exceeds capacity");
        for s in &stats {
            assert!(s.goodput_bps > 1_000_000.0, "every flow gets a share");
            assert!((s.goodput_bps - stats[0].goodput_bps).abs() < 1.0);
        }
    }

    /// A mid-run loss fault degrades an analytic flow's settled rate.
    #[test]
    fn analytic_flows_feel_scheduled_faults() {
        let run = |fault: bool| {
            let mut sim = HybridSim::new(5, Fidelity::Analytic);
            let l = lossy_link(&mut sim, 100);
            let f = sim.add_tcp_flow(DesPath::new(vec![l]), &TransferConfig::for_secs(2));
            if fault {
                sim.schedule_link_loss(l, SimTime::ZERO + SimDuration::from_secs(1), 0.05)
                    .unwrap();
            }
            sim.run()[f].goodput_bps
        };
        let clean = run(false);
        let faulted = run(true);
        assert!(
            faulted < clean * 0.7,
            "5% loss over half the run must cut goodput: {faulted} vs {clean}"
        );
    }

    /// Hysteresis: a link hot at start cools below the demote threshold
    /// after a fault collapses its offered load — the flow's demotion is
    /// counted even though settlement stays with the packet engine.
    #[test]
    fn demotion_transitions_are_counted() {
        let mut sim = HybridSim::new(9, Fidelity::Hybrid);
        // Lossless 10 Mbit/s link: one flow demands the full capacity
        // limit (~9.5 Mbit/s, util 0.95 ≥ 0.85 → hot). At 0.5 s a 5%
        // loss fault collapses demand to ~1 Mbit/s and the EWMA decays
        // below 0.60 within a few 100 ms epochs.
        let l = sim.add_link(10_000_000, SimDuration::from_millis(20), 0.0, 1 << 20);
        sim.add_tcp_flow(DesPath::new(vec![l]), &TransferConfig::for_secs(2));
        sim.schedule_link_loss(l, SimTime::ZERO + SimDuration::from_millis(500), 0.05)
            .unwrap();
        sim.run();
        let report = sim.report().unwrap();
        assert!(report.flows_promoted >= 1);
        assert!(report.flows_demoted >= 1, "EWMA must cool past hysteresis");
        assert!((report.des_time_share - 1.0).abs() < 1e-12, "ever-promoted");
    }

    /// Analytic MPTCP: coupled concentrates on the best path, uncoupled
    /// sums both.
    #[test]
    fn mptcp_coupling_shapes_analytic_demand() {
        let run = |coupling: CouplingAlg| {
            let mut sim = HybridSim::new(11, Fidelity::Analytic);
            let good = lossy_link(&mut sim, 100);
            let bad = sim.add_link(100_000_000, SimDuration::from_millis(80), 5e-3, 1 << 20);
            let f = sim.add_mptcp_flow(
                vec![DesPath::new(vec![good]), DesPath::new(vec![bad])],
                &MptcpConfig {
                    transfer: TransferConfig::for_secs(2),
                    coupling,
                },
            );
            sim.run()[f].clone()
        };
        let coupled = run(CouplingAlg::Olia);
        let uncoupled = run(CouplingAlg::Uncoupled);
        assert!(
            coupled.per_subflow_goodput[1].abs() < 1.0,
            "coupled concentrates"
        );
        assert!(
            uncoupled.per_subflow_goodput[1] > 0.0,
            "uncoupled uses both"
        );
        assert!(uncoupled.goodput_bps >= coupled.goodput_bps);
    }

    /// Analytic split relay is limited by its slower segment.
    #[test]
    fn split_relay_settles_at_the_slower_segment() {
        let mut sim = HybridSim::new(13, Fidelity::Analytic);
        let fast = lossy_link(&mut sim, 100);
        let slow = sim.add_link(20_000_000, SimDuration::from_millis(50), 1e-3, 1 << 20);
        let f = sim.add_split_flow(
            DesPath::new(vec![fast]),
            DesPath::new(vec![slow]),
            &TransferConfig::for_secs(2),
            1 << 20,
        );
        let stats = sim.run();
        let slow_q = PathQuality {
            rtt: SimDuration::from_millis(100),
            loss: 1e-3,
            bottleneck_bps: 20_000_000,
        };
        let bound = tcp_throughput(&slow_q, &TcpParams::default());
        assert!(stats[f].goodput_bps <= bound * 1.0001);
        assert!(stats[f].goodput_bps > bound * 0.5);
    }

    #[test]
    fn front_end_validates_faults_like_the_engine() {
        let mut sim = HybridSim::new(1, Fidelity::Hybrid);
        let l = lossy_link(&mut sim, 10);
        assert!(sim.schedule_link_loss(l, SimTime::ZERO, 0.5).is_ok());
        if cfg!(not(debug_assertions)) {
            assert!(matches!(
                sim.schedule_link_loss(99, SimTime::ZERO, 0.5),
                Err(FaultInjectionError::NoSuchLink { link: 99, links: 1 })
            ));
            assert!(matches!(
                sim.schedule_link_loss(l, SimTime::ZERO, 1.5),
                Err(FaultInjectionError::InvalidLoss { .. })
            ));
        }
    }
}
