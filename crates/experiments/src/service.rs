//! The online overlay service: workload → broker → flow DES → SLO/spend.
//!
//! Closes the loop the paper sketches in §VI–§VII: CRONets run *as a
//! service*. An open-loop workload ([`control::workload`]) issues flow
//! requests against server/client pairs; an admission broker
//! ([`control::broker`]) steers each flow onto the direct path or a
//! one-hop overlay using a staleness-bounded probe cache (or, under the
//! multihop policy, onto a relay chain a per-pair bandit picks);
//! admitted flows run as discrete events on [`simcore::EventQueue`] and
//! occupy relay capacity until they complete; a fleet autoscaler
//! ([`control::fleet`]) rents and drains relays against a cloud budget
//! at every epoch boundary; and an SLO ledger ([`control::slo`])
//! charges per-tenant violations.
//!
//! The same loop runs the service under a fault schedule
//! ([`crate::chaos`]): relay crashes kill the flows riding them, killed
//! flows re-enter the broker after a detection delay, link degradations
//! hold their floor across congestion steps, blackholes starve the probe
//! refresh, and poisonings age the probe cache. Fault events ride the
//! same queue as the flows, and the run also records causal spans and
//! feeds a [`faults::Invariants`] checker. Without a schedule none of
//! that bookkeeping exists.
//!
//! # Determinism
//!
//! The run is a pure function of `(config, seed)` at any `--threads N`:
//!
//! * each epoch's arrivals come from its `(seed, epoch)` substream,
//!   generated at the top of that epoch and freed when it ends;
//! * per-epoch path truth measures each overlay leg once — its path
//!   quality and its own TCP loop's rate — one work unit per leg over a
//!   read-only [`RouteCache`], merged in table order; the pairs'
//!   one-hop truth and multihop arm scores are composed from that table
//!   by one rule ([`chain_measurement`]), one work unit per pair, merged
//!   in pair order. Under the multihop policy the broker owns each
//!   pair's candidate chains, and the arm scoring reads them from it;
//! * the event loop itself is serial, and [`simcore::EventQueue`] breaks
//!   time ties FIFO, so the decision sequence is schedule-independent;
//! * an epoch's arrivals never enter the queue. A cursor over them (they
//!   are sorted by `(at, id)`) merges with the queue through
//!   [`simcore::EventQueue::pop_merged_before`], under a mark taken after
//!   the arrivals are generated and before the inbox is delivered. On
//!   equal timestamps an arrival follows the events queued before the
//!   mark (fault events, earlier completions and retries) and precedes
//!   those queued after it (the inbox's remote legs, this epoch's
//!   completions and retries): the order the queue gave when every
//!   arrival was scheduled at the top of its epoch;
//! * telemetry flows through `obs` unit shards absorbed in unit order.

use std::collections::BTreeMap;
use std::fmt;

use cloud::{PortSpeed, TrafficPlan};
use control::{
    Broker, BrokerConfig, Decision, Fleet, FleetConfig, FlowRequest, PathsPolicy, ShardMsg,
    SloAccount, SloTarget, WorkloadConfig,
};
use cronets::eval::{chain_measurement, quality, Leg, Measurement, OverlayProbe, PairProbe};
use cronets::select::{achieved, PathChoice};
use cronets::TunnelKind;
use faults::{FaultKind, FaultSchedule, Invariants};
use obs::SpanKind;
use paths::{
    relay_hop_price_per_gb, ArmEval, BanditConfig, Candidate, EnumerateConfig, Hops, Waypoint,
};
use routing::RouteCache;
use simcore::rng::mix64;
use simcore::{EventHandle, EventQueue, Merged, SimDuration, SimTime};
use topology::{LinkId, Network, RouterId};
use transport::model::TcpParams;

use crate::attribution::OnlineAttribution;
use crate::chaos::{availability_by_epoch, ChaosConfig, ChaosReport, ChaosRow};
use crate::scenario::{ScenarioConfig, World};

/// Full configuration of a service run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The world to build (topology, cloud footprint, endpoints).
    pub scenario: ScenarioConfig,
    /// The open-loop arrival process.
    pub workload: WorkloadConfig,
    /// Admission / path-selection policy.
    pub broker: BrokerConfig,
    /// Relay autoscaling policy. `fleet.relays` must match the
    /// scenario's overlay node count.
    pub fleet: FleetConfig,
    /// Per-tenant SLO targets; `workload.tenants` must equal
    /// `slo.len()`.
    pub slo: Vec<SloTarget>,
    /// Probe cadence: the broker's path cache is refreshed every
    /// `probe_every` epochs (1 = every epoch, i.e. an always-fresh
    /// oracle). Ignored under [`PathsPolicy::MultiHop`], where the
    /// bandit's probe budget replaces the flat cadence.
    pub probe_every: u32,
    /// Path-selection engine: the paper's one-hop broker (default) or
    /// the k-hop bandit engine from the `paths` crate.
    pub paths: PathsPolicy,
    /// Maximum relay hops per chain under the multihop policy (1..=3).
    pub khops: usize,
}

impl ServiceConfig {
    /// CI-sized configuration: a tiny world under a ~115k-arrival day.
    /// Tuned so a smoke run still exercises every control-plane path —
    /// overlay admissions, stale fallbacks, at least one scale-up and
    /// one drain/release — in a few seconds.
    #[must_use]
    pub fn smoke() -> ServiceConfig {
        let epoch = SimDuration::from_secs(150);
        let epochs = 48;
        ServiceConfig {
            scenario: ScenarioConfig::tiny(),
            workload: WorkloadConfig {
                clients: 50_000,
                tenants: 4,
                epochs,
                epoch,
                mean_rate_per_sec: 16.0,
                diurnal_amplitude: 0.7,
                diurnal_period: epoch * u64::from(epochs),
                median_flow_bytes: 6e6,
                flow_sigma: 1.2,
                min_flow_bytes: 64 * 1024,
                max_flow_bytes: 64 * 1024 * 1024,
            },
            broker: BrokerConfig {
                // 1.5 epochs: with probe_every = 2 the second half of
                // every unprobed epoch runs on stale state and falls
                // back to direct.
                max_probe_age: epoch.mul_f64(1.5),
                min_accept_bps: 200_000.0,
                overlay_margin: 1.05,
            },
            fleet: FleetConfig {
                relays: 5,
                capacity_per_relay: 2,
                min_active: 1,
                port: PortSpeed::Mbps100,
                plan: TrafficPlan::Gb5000,
                budget_usd: 0.60,
                scale_up_util: 0.75,
                scale_down_util: 0.30,
            },
            slo: vec![
                SloTarget {
                    min_throughput_ratio: 0.95,
                    max_completion: SimDuration::from_secs(30),
                },
                SloTarget {
                    min_throughput_ratio: 0.90,
                    max_completion: SimDuration::from_secs(60),
                },
                SloTarget {
                    min_throughput_ratio: 0.75,
                    max_completion: SimDuration::from_secs(120),
                },
                SloTarget {
                    min_throughput_ratio: 0.50,
                    max_completion: SimDuration::from_secs(300),
                },
            ],
            probe_every: 2,
            paths: PathsPolicy::OneHop,
            khops: 2,
        }
    }

    /// Paper-scale configuration: the §II-A web-server world under a
    /// ~1M-arrival day (one diurnal cycle over 24 simulated hours).
    #[must_use]
    pub fn paper() -> ServiceConfig {
        let epoch = SimDuration::from_secs(900);
        let epochs = 96;
        ServiceConfig {
            scenario: ScenarioConfig::web_server(),
            workload: WorkloadConfig {
                clients: 1_000_000,
                tenants: 8,
                epochs,
                epoch,
                mean_rate_per_sec: 11.6,
                diurnal_amplitude: 0.7,
                diurnal_period: epoch * u64::from(epochs),
                median_flow_bytes: 1.5e6,
                flow_sigma: 1.2,
                min_flow_bytes: 64 * 1024,
                max_flow_bytes: 64 * 1024 * 1024,
            },
            broker: BrokerConfig {
                max_probe_age: epoch.mul_f64(1.5),
                min_accept_bps: 200_000.0,
                overlay_margin: 1.05,
            },
            fleet: FleetConfig {
                relays: 5,
                capacity_per_relay: 8,
                min_active: 1,
                port: PortSpeed::Gbps1,
                plan: TrafficPlan::Gb20000,
                budget_usd: 30.0,
                scale_up_util: 0.75,
                scale_down_util: 0.30,
            },
            slo: vec![
                SloTarget {
                    min_throughput_ratio: 0.95,
                    max_completion: SimDuration::from_secs(30),
                },
                SloTarget {
                    min_throughput_ratio: 0.95,
                    max_completion: SimDuration::from_secs(60),
                },
                SloTarget {
                    min_throughput_ratio: 0.90,
                    max_completion: SimDuration::from_secs(60),
                },
                SloTarget {
                    min_throughput_ratio: 0.90,
                    max_completion: SimDuration::from_secs(120),
                },
                SloTarget {
                    min_throughput_ratio: 0.75,
                    max_completion: SimDuration::from_secs(120),
                },
                SloTarget {
                    min_throughput_ratio: 0.75,
                    max_completion: SimDuration::from_secs(300),
                },
                SloTarget {
                    min_throughput_ratio: 0.50,
                    max_completion: SimDuration::from_secs(300),
                },
                SloTarget {
                    min_throughput_ratio: 0.50,
                    max_completion: SimDuration::from_secs(600),
                },
            ],
            probe_every: 2,
            paths: PathsPolicy::OneHop,
            khops: 2,
        }
    }
}

/// One epoch's aggregate activity (a row of `results/service.tsv`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochRow {
    /// Epoch index.
    pub epoch: u32,
    /// Flow requests issued this epoch.
    pub arrivals: u64,
    /// Admissions steered through an overlay relay.
    pub overlay: u64,
    /// Admissions on the direct path (fresh probe).
    pub direct: u64,
    /// Admissions denied.
    pub denied: u64,
    /// Stale-probe fallbacks to direct.
    pub stale: u64,
    /// Flows that completed during this epoch.
    pub completed: u64,
    /// SLO violations charged during this epoch.
    pub violations: u64,
    /// Active relays at epoch end (after rebalance).
    pub active: usize,
    /// Draining relays at epoch end.
    pub draining: usize,
    /// Active-relay utilization at epoch end.
    pub util: f64,
    /// Cumulative cloud spend at epoch end, USD.
    pub spend_usd: f64,
}

/// The completed service run.
#[derive(Debug)]
pub struct ServiceReport {
    /// One row per epoch.
    pub rows: Vec<EpochRow>,
    /// Decision counters.
    pub broker: control::BrokerStats,
    /// Scaling-event counters.
    pub fleet: control::FleetStats,
    /// The per-tenant SLO ledger.
    pub slo: SloAccount,
    /// Total flow arrivals.
    pub arrivals: u64,
    /// Total completions (includes flows finishing after the horizon).
    pub completed: u64,
    /// Final cloud spend, USD.
    pub spend_usd: f64,
    /// The configured budget, USD.
    pub budget_usd: f64,
}

impl ServiceReport {
    /// The epoch table as TSV (with a `#`-prefixed header).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "# epoch\tarrivals\toverlay\tdirect\tdenied\tstale\tcompleted\tviolations\tactive\tdraining\tutil\tspend_usd\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.6}\n",
                r.epoch,
                r.arrivals,
                r.overlay,
                r.direct,
                r.denied,
                r.stale,
                r.completed,
                r.violations,
                r.active,
                r.draining,
                r.util,
                r.spend_usd,
            ));
        }
        out
    }
}

impl fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service: {} arrivals over {} epochs, {} completed, {} denied",
            self.arrivals,
            self.rows.len(),
            self.completed,
            self.slo.denied(),
        )?;
        writeln!(
            f,
            "broker: {} overlay admissions, {} direct, {} stale fallbacks",
            self.broker.overlay, self.broker.direct, self.broker.stale_fallback,
        )?;
        if self.broker.probe_refreshes > 0 {
            writeln!(
                f,
                "paths: {} chain admissions, {} probes over {} bandit refreshes",
                self.broker.chain, self.broker.probe_spent, self.broker.probe_refreshes,
            )?;
        }
        writeln!(
            f,
            "fleet: {} scale-ups, {} drains, {} releases; spend ${:.4} of ${:.4} budget",
            self.fleet.scale_ups,
            self.fleet.drains,
            self.fleet.releases,
            self.spend_usd,
            self.budget_usd,
        )?;
        writeln!(f, "slo: {} violations", self.slo.violations())?;
        for (i, (t, acct)) in self
            .slo
            .targets()
            .iter()
            .zip(self.slo.tenants())
            .enumerate()
        {
            writeln!(
                f,
                "  tenant {i} (ratio>={:.2}, t<={}): {} completed, mean ratio {:.2}, {} violations",
                t.min_throughput_ratio,
                t.max_completion,
                acct.completed,
                acct.mean_ratio(),
                acct.violations(),
            )?;
        }
        Ok(())
    }
}

/// The relay *slots* a flow holds, in traversal order. Distinct from
/// [`Hops`] (which packs overlay-node indices into `u8`s): a grouped
/// fleet has many slots per node — up to 320 in the planetary config —
/// so slot ids need 16 bits.
#[derive(Debug, Clone, Copy)]
struct SlotHops {
    slots: [u16; 3],
    len: u8,
}

impl SlotHops {
    const EMPTY: SlotHops = SlotHops {
        slots: [0; 3],
        len: 0,
    };

    fn push(&mut self, slot: usize) {
        assert!(slot <= usize::from(u16::MAX), "relay slot id overflows u16");
        self.slots[usize::from(self.len)] = slot as u16;
        self.len += 1;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn len(&self) -> usize {
        usize::from(self.len)
    }

    fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots[..usize::from(self.len)]
            .iter()
            .map(|&s| s.into())
    }

    /// The slots widened on the stack, with their count, for a callee
    /// that takes a slice.
    fn widened(&self) -> ([usize; 3], usize) {
        (self.slots.map(usize::from), self.len())
    }
}

/// Claims one slot per hop group, in traversal order.
fn claim_slots(fleet: &mut Fleet, hops: &Hops) -> SlotHops {
    let mut s = SlotHops::EMPTY;
    for g in hops.iter() {
        s.push(fleet.start_in_group(g));
    }
    s
}

/// A flow-level or fault discrete event.
enum Ev {
    /// Arrival `idx` of the running epoch reaches the broker. Never
    /// queued: an epoch's arrivals are delivered from a cursor merged
    /// with the queue (`ServiceLoop::run_epoch`) and dispatched as this
    /// event.
    Arrive { idx: u32 },
    /// An admitted flow (a segment of it, after a kill) finishes.
    Complete {
        flow: u64,
        tenant: u32,
        /// The relay slots the flow holds (empty for the direct path,
        /// one entry for the paper's one-hop overlay).
        slots: SlotHops,
        /// Achieved/direct throughput ratio (ground truth at admission).
        ratio: f64,
        /// Original request time: SLO completion latency spans kills
        /// and retries.
        issued: SimTime,
        /// Bytes this segment carries.
        bytes: u64,
        /// The segment's admit span (0 without a fault schedule).
        span: u64,
    },
    /// The egress leg of a cross-region flow finishes; the remainder is
    /// handed to the destination region at the next epoch barrier.
    RemoteEgress(Box<Egress>),
    /// The ingress leg of a flow handed off *to* this region finishes;
    /// a `Done` goes back to the origin at the next barrier.
    RemoteComplete {
        flow: u64,
        origin: u32,
        tenant: u32,
        slots: SlotHops,
        ratio: f64,
        remaining: u64,
        issued: SimTime,
    },
    /// A killed flow's failure detection fires; it re-enters the broker.
    Retry(Killed),
    /// Scheduled fault `idx` of the fault schedule injects.
    Fault { idx: u32 },
}

// Every queued event fills one payload slot of the event queue, sized by
// the largest variant, and every pop moves one out: at 56 bytes a slot is
// 64, one cache line. Box a variant that would outgrow it, as
// `RemoteEgress` is, rather than grow every slot.
const _: () = assert!(
    std::mem::size_of::<Ev>() <= 56,
    "Ev must stay within 56 bytes"
);

/// The payload of [`Ev::RemoteEgress`], boxed so it does not set the
/// size of every event.
struct Egress {
    flow: u64,
    /// Destination region index.
    dst: u32,
    tenant: u32,
    slots: SlotHops,
    /// Bytes the egress leg delivered.
    handed: u64,
    /// Bytes handed to the destination region.
    remaining: u64,
    /// Origin direct-path estimate, for a bounced retry.
    direct_bps: f64,
    rtt: SimDuration,
    issued: SimTime,
}

impl Ev {
    /// Static handler-kind label for the sim-time profiler.
    fn label(&self) -> &'static str {
        match self {
            Ev::Arrive { .. } => "arrive",
            Ev::Complete { .. } => "complete",
            Ev::RemoteEgress(_) => "remote_egress",
            Ev::RemoteComplete { .. } => "remote_complete",
            Ev::Retry(_) => "retry",
            Ev::Fault { .. } => "fault",
        }
    }
}

/// A flow a relay crash killed, waiting for its failure detection.
struct Killed {
    flow: u64,
    tenant: u32,
    pair: u32,
    bytes_left: u64,
    issued: SimTime,
    crashed_at: SimTime,
    /// The kill span (the retry span hangs off it, keeping the chain
    /// back to the causing fault intact).
    kill_span: u64,
}

/// A relay-holding flow segment in flight under a fault schedule: what
/// a crash of one of its relays needs to kill it. Direct flows hold no
/// relay, so they are never indexed.
struct InFlight {
    handle: EventHandle,
    tenant: u32,
    slots: SlotHops,
    issued: SimTime,
    /// When this segment was admitted.
    started: SimTime,
    /// Scheduled completion instant.
    done_at: SimTime,
    /// Bytes this segment carries.
    bytes: u64,
}

/// Cross-region behaviour of one shard of the sharded service; `None`
/// in the classic single-region loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RemoteCfg {
    /// This shard's region index.
    pub region: u32,
    /// Total regions in the run.
    pub regions: u32,
    /// Per-mille of arrivals whose client is in another region.
    pub permille: u32,
    /// Record the byte-conservation ledger ([`RemoteEvent`]).
    pub ledger: bool,
}

impl RemoteCfg {
    /// Deterministically classifies an arrival: `None` keeps the flow
    /// region-local; `Some((gid, dst))` marks it cross-region with a
    /// globally unique flow id and a destination region. Pure in
    /// `(region, request id)` — a SplitMix64 finalizer, no RNG draws,
    /// so sharding never perturbs the workload substreams.
    fn split(&self, req_id: u64) -> Option<(u64, u32)> {
        if self.regions < 2 || self.permille == 0 {
            return None;
        }
        let z = mix64(
            (req_id ^ (u64::from(self.region) << 44) ^ 0x5EED_C0FF_EE00_0000)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        if z % 1000 >= u64::from(self.permille) {
            return None;
        }
        let mut d = ((z >> 10) % u64::from(self.regions - 1)) as u32;
        if d >= self.region {
            d += 1;
        }
        Some(((u64::from(self.region) << 48) | req_id, d))
    }
}

/// One entry of the cross-region byte-conservation ledger, recorded in
/// deterministic processing order when `RemoteCfg::ledger` is on. The
/// shard-invariance tests replay it into `faults::Invariants` to prove
/// a handed-off (and possibly bounced) flow accounts for every byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteEvent {
    /// A cross-region flow arrived at its origin broker.
    Requested {
        /// Global flow id.
        flow: u64,
        /// Total bytes requested.
        bytes: u64,
    },
    /// The origin broker denied the flow (terminal, no bytes moved).
    Denied {
        /// Global flow id.
        flow: u64,
    },
    /// The egress leg delivered `delivered` bytes and handed the rest off.
    HandedOff {
        /// Global flow id.
        flow: u64,
        /// Bytes the egress leg delivered.
        delivered: u64,
    },
    /// The destination bounced the flow back for a direct retry.
    Retried {
        /// Global flow id.
        flow: u64,
    },
    /// The remainder was delivered (by the destination or the retry).
    Completed {
        /// Global flow id.
        flow: u64,
        /// Bytes delivered by this terminal segment.
        delivered: u64,
    },
}

/// Every overlay leg one epoch's path truth reads, measured once per
/// epoch: its path quality and the rate of the TCP loop a split relay
/// runs over it ([`Leg::measure`]). The one-hop truth and the multihop
/// arm scores compose their paths from these entries by one rule
/// ([`chain_measurement`]; a one-hop overlay is a one-relay chain), so a
/// leg many pairs share — a server's leg to a relay, a relay's leg to a
/// client, a mesh leg — is walked and rated once per epoch, and no
/// router path is joined.
struct LegTable {
    /// Leg endpoints in table order: server → node, node → node
    /// (multihop only, without the diagonal), node → client, then each
    /// pair's direct leg. The legs before `into_relay` end at a relay.
    legs: Vec<(RouterId, RouterId)>,
    into_relay: usize,
    /// Each pair's (server, client) position in the world's lists.
    ends: Vec<(usize, usize)>,
    servers: usize,
    clients: usize,
    nodes: usize,
    mesh: bool,
    tunnel: TunnelKind,
    params: TcpParams,
    /// This epoch's measurement per leg; `None` where no route exists.
    m: Vec<Option<Leg>>,
}

impl LegTable {
    fn new(world: &World, pairs: &[(RouterId, RouterId)], mesh: bool) -> LegTable {
        let pos = |list: &[RouterId], r: RouterId| {
            list.iter()
                .position(|&x| x == r)
                .expect("pairs join the world's servers and clients")
        };
        let ends = pairs
            .iter()
            .map(|&(s, c)| (pos(&world.servers, s), pos(&world.clients, c)))
            .collect();
        let vms: Vec<RouterId> = world.cronet.nodes().iter().map(|n| n.vm()).collect();
        let mut legs = Vec::new();
        for &s in &world.servers {
            legs.extend(vms.iter().map(|&v| (s, v)));
        }
        if mesh {
            for (a, &va) in vms.iter().enumerate() {
                for (b, &vb) in vms.iter().enumerate() {
                    if b != a {
                        legs.push((va, vb));
                    }
                }
            }
        }
        let into_relay = legs.len();
        for &v in &vms {
            legs.extend(world.clients.iter().map(|&c| (v, c)));
        }
        legs.extend_from_slice(pairs);
        LegTable {
            legs,
            into_relay,
            ends,
            servers: world.servers.len(),
            clients: world.clients.len(),
            nodes: vms.len(),
            mesh,
            tunnel: world.cronet.tunnel(),
            params: *world.cronet.params(),
            m: Vec::new(),
        }
    }

    /// Measures every leg under the current congestion state: one work
    /// unit per leg over the read-only cache, merged in table order.
    fn measure(&mut self, net: &Network, cache: &RouteCache) {
        let (legs, into_relay) = (&self.legs, self.into_relay);
        let (tunnel, params) = (self.tunnel, &self.params);
        self.m = exec::parallel_map(legs.len(), |k| {
            let (u, v) = legs[k];
            let path = cache.route_ref(net, u, v)?;
            let q = quality(net, &path);
            Some(Leg::measure(q, k < into_relay, tunnel, params))
        });
    }

    /// This epoch's measurement of the leg from `u` to `v` on pair
    /// `pi`'s paths.
    fn leg(&self, pi: usize, u: Waypoint, v: Waypoint) -> Option<Leg> {
        let (s, c) = self.ends[pi];
        let n = self.nodes;
        let to_clients = self.into_relay;
        let k = match (u, v) {
            (Waypoint::Src, Waypoint::Relay(r)) => s * n + r,
            (Waypoint::Relay(a), Waypoint::Relay(b)) => {
                debug_assert!(self.mesh && a != b, "no mesh leg {a} → {b}");
                self.servers * n + a * (n - 1) + b - usize::from(b > a)
            }
            (Waypoint::Relay(r), Waypoint::Dst) => to_clients + r * self.clients + c,
            (Waypoint::Src, Waypoint::Dst) => to_clients + n * self.clients + pi,
            _ => unreachable!("paths run source → relays → destination"),
        };
        self.m[k]
    }

    /// The one-hop ground truth of every pair: the direct measurement
    /// and, through each node whose two legs route, that one-relay
    /// chain's measurement. One work unit per pair, merged in pair
    /// order.
    fn onehop_truth(&self, world: &World) -> Vec<PairProbe> {
        let nodes = world.cronet.nodes();
        exec::parallel_map(self.ends.len(), |pi| {
            let d = self.leg(pi, Waypoint::Src, Waypoint::Dst).expect(
                "pairs are filtered to routable at build time and the route memo never changes",
            );
            let direct = Measurement {
                throughput_bps: d.bps,
                rtt: d.quality.rtt,
                loss: d.quality.loss,
            };
            let mut overlays = Vec::with_capacity(nodes.len());
            overlays.extend(nodes.iter().enumerate().filter_map(|(ni, node)| {
                let a = self.leg(pi, Waypoint::Src, Waypoint::Relay(ni))?;
                let b = self.leg(pi, Waypoint::Relay(ni), Waypoint::Dst)?;
                let split = chain_measurement(&[a, b], &[node], self.tunnel, &self.params);
                Some(OverlayProbe { node: ni, split })
            }));
            PairProbe { direct, overlays }
        })
    }

    /// Every pair's fixed multihop arms, as the broker holds them,
    /// scored under the current congestion state. One work unit per
    /// pair, merged in pair order.
    fn arm_truth(&self, world: &World, broker: &Broker) -> Vec<Vec<ArmEval>> {
        let nodes = world.cronet.nodes();
        exec::parallel_map(self.ends.len(), |pi| {
            let cands = broker.candidates(pi);
            paths::score_arms(nodes, self.tunnel, &self.params, cands, |u, v| {
                self.leg(pi, u, v)
            })
        })
    }
}

/// Completion latency of a flow: one path RTT of setup plus the
/// transfer at the achieved rate.
fn completion_time(bytes: u64, bps: f64, rtt: SimDuration) -> SimDuration {
    rtt + SimDuration::from_secs_f64(bytes as f64 * 8.0 / bps.max(1.0))
}

/// Builds the service's warmed route cache and pair catalogue: every
/// routable (server, client) combination, plus prefetched relay legs.
///
/// # Panics
///
/// Panics if no server/client pair is routable.
fn prefetched_pairs(world: &World) -> (RouteCache, Vec<(RouterId, RouterId)>) {
    let mut cache = RouteCache::build(&world.net);
    let mut keys: Vec<(RouterId, RouterId)> = Vec::new();
    for &s in &world.servers {
        keys.extend(world.clients.iter().map(|&c| (s, c)));
        keys.extend(world.cronet.nodes().iter().map(|n| (s, n.vm())));
    }
    for n in world.cronet.nodes() {
        keys.extend(world.clients.iter().map(|&c| (n.vm(), c)));
    }
    cache.prefetch(&world.net, &keys);
    let pairs: Vec<(RouterId, RouterId)> = world
        .servers
        .iter()
        .flat_map(|&s| world.clients.iter().map(move |&c| (s, c)))
        .filter(|&(s, c)| cache.route(&world.net, s, c).is_some())
        .collect();
    assert!(!pairs.is_empty(), "no routable server/client pair");
    (cache, pairs)
}

/// Maps a virtual workload client onto the pair catalogue. Mixes the
/// client id first (SplitMix64 finalizer) so the pair is decorrelated
/// from `client % tenants` — otherwise each tenant would own a fixed
/// subset of pairs whenever the tenant count divides the pair count.
fn pair_of(client: u64, n_pairs: usize) -> usize {
    (mix64(client.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % n_pairs as u64) as usize
}

/// Where the broker steered one admission, resolved against the epoch's
/// ground truth: a stale steer earns the real rate of the path it chose.
struct Steer {
    /// Overlay-node hops of the chosen path (empty for direct).
    hops: Hops,
    /// The bandit arm, under the multihop policy.
    arm: Option<usize>,
    bps: f64,
    rtt: SimDuration,
    direct_bps: f64,
    direct_rtt: SimDuration,
}

/// One epoch's fault tallies, reset at every row.
#[derive(Default)]
struct EpochFaults {
    killed: u64,
    retries: u64,
    failover_ns: u128,
    ratio_sum: f64,
}

/// Spans a log keeps from one window. It is the capacity of the span
/// ring this log replaced, kept so the chaos outputs stay what that
/// ring made them; lossless attribution (ROADMAP item 4) deletes it.
const SPAN_WINDOW: usize = 32_768;

/// A run's causal span log. Ids count from 1 per run (0 reads as "no
/// parent"). The log holds only the open window: a ring of at most
/// [`SPAN_WINDOW`] spans that, once full, overwrites its oldest span and
/// counts it as dropped. A window closes at each epoch's end and once
/// after the horizon ([`ServiceLoop::run_day`]); its kept spans then go,
/// in emission order, to the online attribution and to the run's sink,
/// and the ring empties. Dropped spans keep their ids, so a chain
/// through one breaks.
struct SpanLog {
    ring: Vec<obs::SpanRecord>,
    /// The oldest span's slot once the ring is full (0 before).
    head: usize,
    next_id: u64,
    dropped: u64,
    attribution: OnlineAttribution,
}

impl SpanLog {
    fn new() -> SpanLog {
        SpanLog {
            ring: Vec::new(),
            head: 0,
            next_id: 1,
            dropped: 0,
            attribution: OnlineAttribution::default(),
        }
    }

    /// Records one span and returns its id.
    fn emit(
        &mut self,
        t: SimTime,
        parent: u64,
        kind: SpanKind,
        subject: u64,
        a: u64,
        b: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let span = obs::SpanRecord {
            t_ns: t.as_nanos(),
            id,
            parent,
            kind,
            subject,
            a,
            b,
        };
        if self.ring.len() < SPAN_WINDOW {
            self.ring.push(span);
        } else {
            let old = std::mem::replace(&mut self.ring[self.head], span);
            self.head = (self.head + 1) % SPAN_WINDOW;
            self.dropped += 1;
            self.attribution.dropped(&old);
        }
        id
    }

    /// Closes the open window: hands its kept spans, oldest first, to the
    /// attribution and to `sink`, then empties the ring.
    fn close_window(&mut self, sink: &mut dyn FnMut(&[obs::SpanRecord])) {
        self.ring.rotate_left(self.head);
        self.head = 0;
        self.attribution.window(&self.ring);
        sink(&self.ring);
        self.ring.clear();
    }
}

/// The fault side of a run under a schedule: the nemesis's state, the
/// invariant checker, the kill index, the retry pairs and the causal
/// span log.
struct Nemesis {
    schedule: FaultSchedule,
    /// Application-layer failure detection delay of a killed flow.
    detect_after: SimDuration,
    availability: Vec<f64>,
    /// Candidate victims for link degradation: every inter-AS link, in
    /// id order (the schedule's salt picks modulo this).
    flap_victims: Vec<LinkId>,
    inv: Invariants,
    /// Relay-holding segments in flight, by ascending flow id: crash
    /// kill order is deterministic.
    in_flight: BTreeMap<u64, InFlight>,
    /// Per generated epoch, the pair index of each arrival in the
    /// epoch's `(at, id)` order. A killed flow retries on
    /// `retry_pairs[flow >> 32][flow & 0xFFFF_FFFF]`: the id's low word
    /// is the flow's generation sequence, read as a position in the
    /// time-sorted epoch, so this is usually another arrival's pair.
    /// The chaos goldens pin that lookup; the epoch's arrivals
    /// themselves are freed when it ends, as in a plain run.
    retry_pairs: Vec<Vec<u32>>,
    /// Open link-degradation windows: salt → (victim, severity floor).
    degraded: BTreeMap<u64, (LinkId, f64)>,
    blackhole_depth: u32,
    log: SpanLog,
    profiling: bool,
    prof_last: SimTime,
    killed: u64,
    retries: u64,
    ep: EpochFaults,
    rows: Vec<ChaosRow>,
}

impl Nemesis {
    fn new(cfg: &ChaosConfig, schedule: &FaultSchedule, world: &World) -> Nemesis {
        Nemesis {
            schedule: schedule.clone(),
            detect_after: cfg.detect_after,
            availability: availability_by_epoch(schedule, cfg),
            flap_victims: world
                .net
                .links()
                .filter(|l| l.kind().is_inter_as())
                .map(|l| l.id())
                .collect(),
            inv: Invariants::new(cfg.service.fleet.relays, schedule.mttr_cap()),
            in_flight: BTreeMap::new(),
            retry_pairs: vec![Vec::new(); cfg.service.workload.epochs as usize],
            degraded: BTreeMap::new(),
            blackhole_depth: 0,
            log: SpanLog::new(),
            profiling: simcore::profile::enabled(),
            prof_last: SimTime::ZERO,
            killed: 0,
            retries: 0,
            ep: EpochFaults::default(),
            rows: Vec::with_capacity(cfg.service.workload.epochs as usize),
        }
    }

    /// Mirrors the fleet's slot states into the checker so admission
    /// checks see exactly what the fleet sees. Under a schedule every
    /// group is one slot.
    fn sync_states(&mut self, fleet: &Fleet) {
        for i in 0..fleet.groups() {
            self.inv.set_relay_state(i, fleet.relay_state(i));
        }
    }
}

/// The service loop as a steppable state machine: the classic
/// [`service`] entry point drives it epoch by epoch with empty
/// mailboxes, [`crate::chaos`] drives it under a fault schedule, and
/// the sharded engine (`crate::sharded`) drives one per region with
/// epoch-barriered cross-shard messages in between.
pub(crate) struct ServiceLoop {
    cfg: ServiceConfig,
    world: World,
    cache: RouteCache,
    pairs: Vec<(RouterId, RouterId)>,
    multihop: bool,
    /// The overlay legs the per-epoch truth is composed from.
    legs: LegTable,
    /// The current epoch's one-hop ground truth, per pair. A fault run
    /// keeps it past the last epoch: post-horizon retries price on it.
    truth: Vec<PairProbe>,
    /// The current epoch's multihop ground truth, per pair and arm.
    ptruth: Vec<Vec<ArmEval>>,
    /// The workload seed: epoch `e`'s arrivals are generated at the top
    /// of epoch `e`.
    seed: u64,
    /// The running epoch's arrivals, in `(at, id)` order; empty between
    /// epochs.
    arrivals: Vec<FlowRequest>,
    total_arrivals: u64,
    broker: Broker,
    fleet: Fleet,
    slo: SloAccount,
    queue: EventQueue<Ev>,
    rows: Vec<EpochRow>,
    // Exact billing: accrue rent up to `billed_to` before every fleet
    // state change, so mid-epoch releases stop the meter mid-epoch.
    billed_to: SimTime,
    horizon: SimTime,
    completed_total: u64,
    remote: Option<RemoteCfg>,
    outbox: Vec<ShardMsg>,
    ledger: Vec<RemoteEvent>,
    handoffs: u64,
    retries: u64,
    /// The fault schedule's state; `None` for a plain service run.
    faults: Option<Box<Nemesis>>,
}

impl ServiceLoop {
    /// Builds the loop's world, pair catalogue, leg table and
    /// control-plane state. `remote` turns on the cross-region protocol
    /// for one shard of the sharded service.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (tenant counts
    /// differ, fleet slots don't group evenly over the overlay nodes,
    /// zero probe cadence, or no routable server/client pair).
    pub(crate) fn new(cfg: &ServiceConfig, seed: u64, remote: Option<RemoteCfg>) -> ServiceLoop {
        assert!(cfg.probe_every >= 1, "probe_every must be at least 1");
        assert_eq!(
            cfg.workload.tenants as usize,
            cfg.slo.len(),
            "one SLO target per tenant"
        );
        let world = World::build(&cfg.scenario, seed);
        let nodes_n = world.cronet.nodes().len();
        assert!(
            cfg.fleet.relays.is_multiple_of(nodes_n),
            "fleet slots must group evenly over the scenario's overlay nodes"
        );

        // The service's pair catalogue: every routable (server, client)
        // combination; virtual workload clients map onto it round-robin.
        let (mut cache, pairs) = prefetched_pairs(&world);

        // Multihop policy: fix each pair's candidate chains once (static
        // pruning keeps arm indices stable for the bandits' whole run)
        // and warm the relay-mesh legs the chains ride on.
        let multihop = cfg.paths == PathsPolicy::MultiHop;
        let mut cands: Option<Vec<Vec<Candidate>>> = None;
        if multihop {
            let mesh: Vec<(RouterId, RouterId)> = world
                .cronet
                .nodes()
                .iter()
                .flat_map(|a| {
                    world
                        .cronet
                        .nodes()
                        .iter()
                        .filter(move |b| b.vm() != a.vm())
                        .map(move |b| (a.vm(), b.vm()))
                })
                .collect();
            cache.prefetch(&world.net, &mesh);
            let ecfg = EnumerateConfig::khops(cfg.khops);
            let hop_price = relay_hop_price_per_gb(cfg.fleet.port, cfg.fleet.plan);
            let (net, nodes) = (&world.net, world.cronet.nodes());
            let shared = &cache;
            cands = Some(exec::parallel_map(pairs.len(), |pi| {
                let (s, c) = pairs[pi];
                paths::enumerate(net, shared, nodes, s, c, &ecfg, hop_price)
            }));
        }

        let legs = LegTable::new(&world, &pairs, multihop);
        let epochs = cfg.workload.epochs;
        let mut broker = Broker::new(cfg.broker);
        if let Some(cands) = cands {
            broker.enable_multihop(cands, BanditConfig::service(), seed);
        }
        let fleet = Fleet::grouped(cfg.fleet, nodes_n);
        let slo = SloAccount::new(cfg.slo.clone());
        let horizon = SimTime::ZERO + cfg.workload.horizon();
        ServiceLoop {
            cfg: cfg.clone(),
            world,
            cache,
            pairs,
            multihop,
            legs,
            truth: Vec::new(),
            ptruth: Vec::new(),
            seed,
            arrivals: Vec::new(),
            total_arrivals: 0,
            broker,
            fleet,
            slo,
            queue: EventQueue::new(),
            rows: Vec::with_capacity(epochs as usize),
            billed_to: SimTime::ZERO,
            horizon,
            completed_total: 0,
            remote,
            outbox: Vec::new(),
            ledger: Vec::new(),
            handoffs: 0,
            retries: 0,
            faults: None,
        }
    }

    /// Builds the loop under `schedule`: the nemesis's events are queued
    /// before any arrival, so queue order is fully deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the fleet's slots are not exactly the scenario's overlay
    /// nodes (a crash kills one node's flows), or on any inconsistency
    /// [`ServiceLoop::new`] rejects.
    pub(crate) fn with_faults(
        cfg: &ChaosConfig,
        seed: u64,
        schedule: &FaultSchedule,
    ) -> ServiceLoop {
        let mut svc = ServiceLoop::new(&cfg.service, seed, None);
        assert_eq!(
            cfg.service.fleet.relays,
            svc.world.cronet.nodes().len(),
            "fleet slots must match the scenario's overlay nodes"
        );
        svc.faults = Some(Box::new(Nemesis::new(cfg, schedule, &svc.world)));
        for (i, ev) in schedule.events().iter().enumerate() {
            svc.queue.schedule(ev.at, Ev::Fault { idx: i as u32 });
        }
        svc
    }

    /// Runs the whole single-region day: every epoch with an empty
    /// mailbox, then the tail. Under a fault schedule a span window
    /// closes after each epoch and once after the tail, and `sink` gets
    /// each closed window's kept spans.
    pub(crate) fn run_day(&mut self, sink: &mut dyn FnMut(&[obs::SpanRecord])) {
        for e in 0..self.cfg.workload.epochs {
            self.run_epoch(e, Vec::new());
            self.close_span_window(sink);
        }
        self.drain_tail();
        self.close_span_window(sink);
    }

    /// Closes a fault run's open span window (see [`SpanLog`]); a plain
    /// run keeps no spans.
    fn close_span_window(&mut self, sink: &mut dyn FnMut(&[obs::SpanRecord])) {
        if let Some(f) = self.faults.as_deref_mut() {
            f.log.close_window(sink);
        }
    }

    /// Runs epoch `e`: congestion step, path truth, probe refresh, the
    /// epoch's arrivals, inbound cross-shard messages, the flow event
    /// loop, billing and rebalance. `inbox` is empty in the classic
    /// single-region run.
    pub(crate) fn run_epoch(&mut self, e: u32, inbox: Vec<ShardMsg>) {
        if e > 0 {
            self.world.step_epoch(u64::from(e));
        }
        if let Some(f) = self.faults.as_deref() {
            // Re-impose open degradation windows after the epoch's
            // congestion step: the nemesis holds its floor.
            for &(link, severity) in f.degraded.values() {
                let l = self.world.net.link_mut(link);
                l.set_level(l.level().max(severity));
            }
        }
        let epoch_start = SimTime::ZERO + self.cfg.workload.epoch * u64::from(e);
        let epoch_end = epoch_start + self.cfg.workload.epoch;
        self.legs.measure(&self.world.net, &self.cache);
        if self.multihop {
            self.ptruth = self.legs.arm_truth(&self.world, &self.broker);
        } else {
            self.truth = self.legs.onehop_truth(&self.world);
        }
        // Probe refresh — unless a blackhole swallows the refresh
        // traffic. Under multihop, budgeted, uncertainty-driven refresh
        // replaces the flat probe cadence: epoch 0 seeds every arm,
        // after which each pair only spends its probe budget per epoch.
        let probing = self.faults.as_ref().is_none_or(|f| f.blackhole_depth == 0);
        if self.multihop {
            for (pi, pt) in self.ptruth.iter().enumerate() {
                if e == 0 {
                    self.broker.seed_paths(pi, pt);
                } else if probing {
                    self.broker.probe_paths(pi, pt);
                }
            }
        } else if e.is_multiple_of(self.cfg.probe_every) && probing {
            for (pi, truth) in self.truth.iter().enumerate() {
                self.broker.observe(pi, epoch_start, truth.clone());
            }
        }
        self.arrivals = self.cfg.workload.epoch_arrivals(self.seed, e);
        self.total_arrivals += self.arrivals.len() as u64;
        if let Some(f) = self.faults.as_deref_mut() {
            let n = self.pairs.len();
            f.retry_pairs[e as usize] = self
                .arrivals
                .iter()
                .map(|r| pair_of(r.client, n) as u32)
                .collect();
        }
        // The arrivals stay out of the queue. They merge with it from a
        // cursor as if scheduled here, in their (at, id) order: on equal
        // timestamps they follow what is already queued and precede the
        // inbox's events and everything this epoch's handlers schedule.
        let mark = self.queue.mark();

        let b0 = self.broker.stats();
        let (done0, viol0) = (self.slo.completed(), self.slo.violations());

        // Cross-shard mailbox, delivered at the epoch barrier in
        // (sender, emission) order.
        for msg in inbox {
            self.deliver(msg, epoch_start, true);
        }
        let mut next = 0;
        loop {
            let at = self.arrivals.get(next).map(|r| r.at);
            match self.queue.pop_merged_before(epoch_end, at, mark) {
                Some(Merged::Queued(now, ev)) => self.handle(now, ev),
                Some(Merged::Batch(now)) => {
                    let idx = next as u32;
                    next += 1;
                    self.handle(now, Ev::Arrive { idx });
                }
                None => break,
            }
        }
        assert_eq!(next, self.arrivals.len(), "arrivals timed past their epoch");

        self.fleet
            .accrue(epoch_end.saturating_duration_since(self.billed_to));
        self.billed_to = epoch_end;
        let fs0 = self.fleet.stats();
        if let Some(f) = self.faults.as_deref_mut() {
            f.sync_states(&self.fleet);
        }
        self.fleet.rebalance(self.horizon - epoch_end);

        let b1 = self.broker.stats();
        let row = EpochRow {
            epoch: e,
            arrivals: self.arrivals.len() as u64,
            overlay: b1.overlay - b0.overlay,
            direct: b1.direct - b0.direct,
            denied: b1.denied - b0.denied,
            stale: b1.stale_fallback - b0.stale_fallback,
            completed: self.slo.completed() - done0,
            violations: self.slo.violations() - viol0,
            active: self.fleet.active(),
            draining: self.fleet.draining(),
            util: self.fleet.utilization(),
            spend_usd: self.fleet.spend_usd(),
        };
        self.rows.push(row);
        if let Some(f) = self.faults.as_deref_mut() {
            let fs1 = self.fleet.stats();
            if fs1.scale_ups != fs0.scale_ups || fs1.drains != fs0.drains {
                f.log.emit(
                    epoch_end,
                    0,
                    SpanKind::FleetScale,
                    u64::from(e),
                    fs1.scale_ups - fs0.scale_ups,
                    fs1.drains - fs0.drains,
                );
            }
            let ep = std::mem::take(&mut f.ep);
            f.rows.push(ChaosRow {
                epoch: e,
                arrivals: row.arrivals,
                retries: ep.retries,
                overlay: row.overlay,
                direct: row.direct,
                denied: row.denied,
                stale: row.stale,
                completed: row.completed,
                killed: ep.killed,
                violations: row.violations,
                active: row.active,
                failed: self.fleet.failed(),
                availability: f.availability[e as usize],
                failover_ms: if ep.retries == 0 {
                    0.0
                } else {
                    ep.failover_ns as f64 / ep.retries as f64 / 1e6
                },
                goodput_ratio: if row.completed == 0 {
                    1.0
                } else {
                    ep.ratio_sum / row.completed as f64
                },
                spend_usd: row.spend_usd,
            });
        } else {
            // Only a fault run's post-horizon retries price on the last
            // epoch's truth; a plain run frees it between epochs.
            self.truth.clear();
            self.ptruth.clear();
        }
        // Every arrival is timed before `epoch_end`, so the merge has
        // delivered all of them.
        self.arrivals = Vec::new();
    }

    /// Drains every event past the horizon. Flows admitted near the
    /// horizon still count for the SLO ledger but accrue no rent past
    /// it (the run's billing window is the configured day); remote legs
    /// still emit their barrier messages, and killed flows still retry.
    pub(crate) fn drain_tail(&mut self) {
        while let Some((now, ev)) = self.queue.pop() {
            self.handle(now, ev);
        }
    }

    /// Post-horizon settlement of messages still crossing the barrier
    /// after the last epoch: a late handoff is settled on the direct
    /// path (the relay pools are past their billing window), and
    /// Done/Retry replies land on the origin's SLO ledger as usual.
    pub(crate) fn settle(&mut self, inbox: Vec<ShardMsg>) {
        for msg in inbox {
            self.deliver(msg, self.horizon, false);
        }
    }

    /// Handles one cross-shard message at `at`. While the epoch's relay
    /// pools are `open`, a handoff is admitted against them; after the
    /// horizon it settles on the direct path.
    fn deliver(&mut self, msg: ShardMsg, at: SimTime, open: bool) {
        let lg = self.remote.as_ref().is_some_and(|r| r.ledger);
        match msg {
            ShardMsg::Handoff {
                flow,
                origin,
                tenant,
                remaining,
                direct_bps,
                rtt,
                issued,
                ..
            } => {
                // The ingress leg must ride this region's relays: a
                // handoff is only worth taking onto overlay capacity. No
                // spare relay (or a deny) bounces the flow back to the
                // origin for a direct retry.
                let pi = pair_of(flow, self.pairs.len());
                let steer = if open {
                    self.steer(pi, at).filter(|st| !st.hops.is_empty())
                } else {
                    None
                };
                match steer {
                    Some(st) => {
                        let slots = self.claim(pi, &st);
                        let done = at + completion_time(remaining, st.bps, st.rtt);
                        self.queue.schedule(
                            done,
                            Ev::RemoteComplete {
                                flow,
                                origin,
                                tenant,
                                slots,
                                ratio: st.bps / st.direct_bps.max(1.0),
                                remaining,
                                issued,
                            },
                        );
                    }
                    None if open => self.outbox.push(ShardMsg::Retry {
                        flow,
                        origin,
                        tenant,
                        remaining,
                        direct_bps,
                        rtt,
                        issued,
                    }),
                    None => {
                        let done = at + completion_time(remaining, direct_bps, rtt);
                        self.outbox.push(ShardMsg::Done {
                            flow,
                            origin,
                            tenant,
                            remaining,
                            ratio: 1.0,
                            latency: done - issued,
                        });
                    }
                }
            }
            ShardMsg::Done {
                flow,
                tenant,
                remaining,
                ratio,
                latency,
                ..
            } => {
                self.slo.record_completion(tenant, ratio, latency);
                self.completed_total += 1;
                if lg {
                    self.ledger.push(RemoteEvent::Completed {
                        flow,
                        delivered: remaining,
                    });
                }
            }
            ShardMsg::Retry {
                flow,
                tenant,
                remaining,
                direct_bps,
                rtt,
                issued,
                ..
            } => {
                // Settle the remainder on the origin's direct path.
                self.retries += 1;
                let done = at + completion_time(remaining, direct_bps, rtt);
                self.slo.record_completion(tenant, 1.0, done - issued);
                self.completed_total += 1;
                if lg {
                    self.ledger.push(RemoteEvent::Retried { flow });
                    self.ledger.push(RemoteEvent::Completed {
                        flow,
                        delivered: remaining,
                    });
                }
            }
        }
    }

    /// Dispatches one event popped at `now`.
    fn handle(&mut self, now: SimTime, ev: Ev) {
        if let Some(f) = self.faults.as_deref_mut() {
            if f.profiling {
                simcore::profile::leaf(&["chaos", ev.label()], (now - f.prof_last).as_nanos());
                f.prof_last = now;
            }
        }
        match ev {
            Ev::Arrive { idx } => {
                let req = self.arrivals[idx as usize];
                let pi = pair_of(req.client, self.pairs.len());
                let mut parent = 0;
                if let Some(f) = self.faults.as_deref_mut() {
                    parent = f.log.emit(
                        now,
                        0,
                        SpanKind::FlowArrive,
                        req.id,
                        u64::from(req.tenant),
                        req.bytes,
                    );
                    f.inv.context(now, parent);
                    f.inv.flow_requested(req.id, req.bytes);
                }
                let split = self.remote.as_ref().and_then(|rc| rc.split(req.id));
                self.admit(req.id, req.tenant, pi, req.bytes, now, now, parent, split);
            }
            Ev::Retry(k) => {
                let f = self
                    .faults
                    .as_deref_mut()
                    .expect("retry without a schedule");
                f.retries += 1;
                f.ep.retries += 1;
                f.ep.failover_ns += u128::from((now - k.crashed_at).as_nanos());
                let retry = f.log.emit(
                    now,
                    k.kill_span,
                    SpanKind::FlowRetry,
                    k.flow,
                    k.bytes_left,
                    0,
                );
                self.admit(
                    k.flow,
                    k.tenant,
                    k.pair as usize,
                    k.bytes_left,
                    k.issued,
                    now,
                    retry,
                    None,
                );
            }
            Ev::Complete {
                flow,
                tenant,
                slots,
                ratio,
                issued,
                bytes,
                span,
            } => {
                self.release(now, &slots);
                let breach = self.slo.record_completion(tenant, ratio, now - issued);
                self.completed_total += 1;
                if let Some(f) = self.faults.as_deref_mut() {
                    if !slots.is_empty() {
                        f.in_flight.remove(&flow);
                    }
                    let done = f.log.emit(
                        now,
                        span,
                        SpanKind::FlowComplete,
                        flow,
                        (now - issued).as_nanos(),
                        bytes,
                    );
                    if breach.any() {
                        f.log.emit(
                            now,
                            done,
                            SpanKind::SloBreach,
                            flow,
                            u64::from(tenant),
                            breach.mask(),
                        );
                    }
                    f.inv.context(now, done);
                    f.inv.flow_completed(flow, bytes);
                    f.ep.ratio_sum += ratio;
                }
            }
            Ev::RemoteEgress(eg) => {
                let Egress {
                    flow,
                    dst,
                    tenant,
                    slots,
                    handed,
                    remaining,
                    direct_bps,
                    rtt,
                    issued,
                } = *eg;
                self.release(now, &slots);
                let rc = self.remote.expect("remote event without RemoteCfg");
                if rc.ledger {
                    self.ledger.push(RemoteEvent::HandedOff {
                        flow,
                        delivered: handed,
                    });
                }
                self.handoffs += 1;
                self.outbox.push(ShardMsg::Handoff {
                    flow,
                    dst,
                    origin: rc.region,
                    tenant,
                    remaining,
                    handed,
                    direct_bps,
                    rtt,
                    issued,
                });
            }
            Ev::RemoteComplete {
                flow,
                origin,
                tenant,
                slots,
                ratio,
                remaining,
                issued,
            } => {
                self.release(now, &slots);
                self.outbox.push(ShardMsg::Done {
                    flow,
                    origin,
                    tenant,
                    remaining,
                    ratio,
                    latency: now - issued,
                });
            }
            Ev::Fault { idx } => self.inject(now, idx),
        }
    }

    /// Asks the broker where pair `pi`'s flow goes at `now`; `None` is a
    /// denial. Both path engines score the choice by ground truth.
    fn steer(&mut self, pi: usize, now: SimTime) -> Option<Steer> {
        let fleet = &self.fleet;
        if self.multihop {
            let (decision, arm) = self.broker.decide_paths(pi, |n| fleet.group_free(n));
            let hops = match decision {
                Decision::Deny => return None,
                Decision::Direct { .. } => Hops::direct(),
                Decision::Overlay { node, .. } => Hops::single(node),
                Decision::Chain { hops, .. } => hops,
            };
            let (at, direct) = (self.ptruth[pi][arm], self.ptruth[pi][0]);
            return Some(Steer {
                hops,
                arm: Some(arm),
                bps: at.bps,
                rtt: at.rtt,
                direct_bps: direct.bps,
                direct_rtt: direct.rtt,
            });
        }
        let tr = &self.truth[pi];
        let (hops, bps, rtt) = match self.broker.decide(pi, now, |n| fleet.group_free(n)) {
            Decision::Deny => return None,
            Decision::Chain { .. } => unreachable!("one-hop broker never emits chains"),
            Decision::Direct { .. } => (Hops::direct(), tr.direct.throughput_bps, tr.direct.rtt),
            Decision::Overlay { node, .. } => {
                let rtt = tr
                    .overlays
                    .iter()
                    .find(|o| o.node == node)
                    .map_or(tr.direct.rtt, |o| o.split.rtt);
                (
                    Hops::single(node),
                    achieved(tr, PathChoice::Overlay(node)),
                    rtt,
                )
            }
        };
        Some(Steer {
            hops,
            arm: None,
            bps,
            rtt,
            direct_bps: tr.direct.throughput_bps,
            direct_rtt: tr.direct.rtt,
        })
    }

    /// Claims the steered path's relay slots; a bandit arm also learns
    /// the carried flow's rate for free.
    fn claim(&mut self, pi: usize, st: &Steer) -> SlotHops {
        let slots = claim_slots(&mut self.fleet, &st.hops);
        if let Some(arm) = st.arm {
            self.broker.learn_path(pi, arm, st.bps);
        }
        slots
    }

    /// One admission (first attempt or failover retry) through the
    /// broker. `parent` is the arrive or retry span; `split` marks a
    /// cross-region flow.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        flow: u64,
        tenant: u32,
        pi: usize,
        bytes: u64,
        issued: SimTime,
        now: SimTime,
        parent: u64,
        split: Option<(u64, u32)>,
    ) {
        let lg = self.remote.as_ref().is_some_and(|r| r.ledger);
        let Some(st) = self.steer(pi, now) else {
            self.slo.record_denial(tenant);
            if let Some(f) = self.faults.as_deref_mut() {
                let admitted = f.log.emit(now, parent, SpanKind::Admit, flow, 0, 0);
                // A denial breaches immediately (mask 4): charged here so
                // the attribution walk can reach the causing fault via
                // the retry/kill chain above `parent`.
                f.log.emit(
                    now,
                    admitted,
                    SpanKind::SloBreach,
                    flow,
                    u64::from(tenant),
                    4,
                );
                f.inv.context(now, admitted);
                f.inv.flow_denied(flow);
            }
            if lg {
                if let Some((gid, _)) = split {
                    self.ledger
                        .push(RemoteEvent::Requested { flow: gid, bytes });
                    self.ledger.push(RemoteEvent::Denied { flow: gid });
                }
            }
            return;
        };
        let slots = self.claim(pi, &st);
        let mut span = 0;
        if let Some(f) = self.faults.as_deref_mut() {
            // Span arg a encodes the path (1 direct, 2 one relay, more
            // for longer chains); b names the ingress relay.
            span = f.log.emit(
                now,
                parent,
                SpanKind::Admit,
                flow,
                1 + slots.len() as u64,
                slots.first().map_or(0, |r| r as u64 + 1),
            );
            for r in slots.iter() {
                f.inv.set_relay_state(r, self.fleet.relay_state(r));
            }
            f.inv.context(now, span);
            if self.multihop {
                let (hops, n) = slots.widened();
                f.inv.flow_admitted_path(flow, &hops[..n]);
            } else {
                f.inv.flow_admitted(flow, slots.first());
            }
        }
        match split {
            Some((gid, dst)) => {
                let handed = bytes / 2;
                if lg {
                    self.ledger
                        .push(RemoteEvent::Requested { flow: gid, bytes });
                }
                let done = now + completion_time(handed, st.bps, st.rtt);
                self.queue.schedule(
                    done,
                    Ev::RemoteEgress(Box::new(Egress {
                        flow: gid,
                        dst,
                        tenant,
                        slots,
                        handed,
                        remaining: bytes - handed,
                        direct_bps: st.direct_bps,
                        rtt: st.direct_rtt,
                        issued: now,
                    })),
                );
            }
            None => {
                let ratio = if slots.is_empty() {
                    1.0
                } else {
                    st.bps / st.direct_bps.max(1.0)
                };
                let done = now + completion_time(bytes, st.bps, st.rtt);
                let handle = self.queue.schedule(
                    done,
                    Ev::Complete {
                        flow,
                        tenant,
                        slots,
                        ratio,
                        issued,
                        bytes,
                        span,
                    },
                );
                if let Some(f) = self.faults.as_deref_mut() {
                    if !slots.is_empty() {
                        f.in_flight.insert(
                            flow,
                            InFlight {
                                handle,
                                tenant,
                                slots,
                                issued,
                                started: now,
                                done_at: done,
                                bytes,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Frees a finished leg's relay slots. Rent accrues first, so a
    /// completed drain stops these relays' meters now (never past the
    /// horizon, the run's billing window).
    fn release(&mut self, now: SimTime, slots: &SlotHops) {
        if slots.is_empty() {
            return;
        }
        let t = now.min(self.horizon);
        self.fleet
            .accrue(t.saturating_duration_since(self.billed_to));
        self.billed_to = t.max(self.billed_to);
        for r in slots.iter() {
            self.fleet.flow_finished(r);
        }
    }

    /// Injects scheduled fault `idx` at `now`.
    fn inject(&mut self, now: SimTime, idx: u32) {
        let f = self
            .faults
            .as_deref_mut()
            .expect("fault without a schedule");
        let fault = f.schedule.events()[idx as usize];
        obs::trace(
            now.as_nanos(),
            0,
            obs::TraceKind::FaultInjected,
            fault.kind.discriminant(),
            fault.kind.target(),
        );
        let fault_span = f.log.emit(
            now,
            0,
            SpanKind::FaultInject,
            u64::from(idx),
            fault.kind.discriminant(),
            fault.kind.target(),
        );
        f.inv.context(now, fault_span);
        match fault.kind {
            FaultKind::RelayCrash { relay } => {
                // Rent accrues up to the crash; a dead VM bills nothing
                // from here on.
                self.fleet
                    .accrue(now.saturating_duration_since(self.billed_to));
                self.billed_to = now.max(self.billed_to);
                let killed = self.fleet.crash(relay);
                f.inv.relay_crashed(relay, now);
                let victims: Vec<u64> = f
                    .in_flight
                    .iter()
                    .filter(|(_, fl)| fl.slots.iter().any(|r| r == relay))
                    .map(|(&flow, _)| flow)
                    .collect();
                debug_assert_eq!(killed as usize, victims.len());
                for flow in victims {
                    let fl = f.in_flight.remove(&flow).expect("tracked flow");
                    assert!(self.queue.cancel(fl.handle), "completion already fired");
                    // A mid-chain kill also releases the surviving legs:
                    // their meters stop and they drop the flow (the crash
                    // cleared the crashed leg wholesale).
                    for r in fl.slots.iter().filter(|&r| r != relay) {
                        self.fleet.flow_finished(r);
                    }
                    // Bytes already on the wire when the VM died:
                    // pro-rata over the segment.
                    let total = (fl.done_at - fl.started).as_nanos().max(1);
                    let elapsed = (now - fl.started).as_nanos();
                    let delivered =
                        ((u128::from(fl.bytes) * u128::from(elapsed)) / u128::from(total)) as u64;
                    let kill = f.log.emit(
                        now,
                        fault_span,
                        SpanKind::FlowKill,
                        flow,
                        fl.bytes - delivered,
                        relay as u64,
                    );
                    f.inv.context(now, kill);
                    f.inv.flow_killed(flow, delivered);
                    f.killed += 1;
                    f.ep.killed += 1;
                    // The retry's pair: see `Nemesis::retry_pairs`.
                    let pair = f.retry_pairs[(flow >> 32) as usize][(flow & 0xFFFF_FFFF) as usize];
                    self.queue.schedule(
                        now + f.detect_after,
                        Ev::Retry(Killed {
                            flow,
                            tenant: fl.tenant,
                            pair,
                            bytes_left: fl.bytes - delivered,
                            issued: fl.issued,
                            crashed_at: now,
                            kill_span: kill,
                        }),
                    );
                }
            }
            FaultKind::RelayRestore { relay } => {
                self.fleet.restore(relay);
                f.inv.relay_restored(relay, now);
            }
            FaultKind::LinkDegrade { salt, severity } => {
                if !f.flap_victims.is_empty() {
                    let link = f.flap_victims[(salt % f.flap_victims.len() as u64) as usize];
                    f.degraded.insert(salt, (link, severity));
                    let l = self.world.net.link_mut(link);
                    l.set_level(l.level().max(severity));
                }
            }
            FaultKind::LinkClear { salt } => {
                f.degraded.remove(&salt);
            }
            FaultKind::ProbeBlackholeStart => f.blackhole_depth += 1,
            FaultKind::ProbeBlackholeEnd => f.blackhole_depth -= 1,
            FaultKind::CachePoison { age } => {
                if self.multihop {
                    // The bandits' analogue of a poisoned probe cache:
                    // confidence is forgotten, so the next refreshes
                    // re-explore.
                    self.broker.poison_paths();
                } else {
                    self.broker.age_probes(age);
                }
            }
        }
    }

    /// Takes the messages emitted since the last barrier.
    pub(crate) fn take_outbox(&mut self) -> Vec<ShardMsg> {
        std::mem::take(&mut self.outbox)
    }

    /// Takes the ledger events recorded since the last barrier.
    pub(crate) fn take_ledger(&mut self) -> Vec<RemoteEvent> {
        std::mem::take(&mut self.ledger)
    }

    /// Cross-region handoffs sent and bounced handoffs retried.
    pub(crate) fn remote_counts(&self) -> (u64, u64) {
        (self.handoffs, self.retries)
    }

    /// Exact spend as `f64` bits, for the ordered global rollup.
    pub(crate) fn spend_bits(&self) -> u64 {
        self.fleet.spend_usd().to_bits()
    }

    /// Replaces this shard's budget (the global reconciler's lever).
    pub(crate) fn set_budget(&mut self, budget_usd: f64) {
        self.fleet.set_budget(budget_usd);
    }

    /// Finishes the run: publishes telemetry under `prefix` (e.g.
    /// `control.` or `control.shard3.`; the route cache is always
    /// published unprefixed) and returns the report.
    pub(crate) fn into_report(self, prefix: &str) -> ServiceReport {
        self.broker.publish_prefixed(prefix);
        self.fleet.publish_prefixed(prefix);
        self.slo.publish_prefixed(prefix);
        self.cache.publish();
        if self.remote.is_some() {
            obs::add_named(&format!("{prefix}remote.handoffs"), self.handoffs);
            obs::add_named(&format!("{prefix}remote.retries"), self.retries);
        }
        ServiceReport {
            rows: self.rows,
            broker: self.broker.stats(),
            fleet: self.fleet.stats(),
            arrivals: self.total_arrivals,
            completed: self.completed_total,
            spend_usd: self.fleet.spend_usd(),
            budget_usd: self.cfg.fleet.budget_usd,
            slo: self.slo,
        }
    }

    /// Finishes a run under a fault schedule: the checker's end-of-run
    /// verdict and the fault attribution of the closed span windows,
    /// then the telemetry of [`ServiceLoop::into_report`] plus the fault
    /// and check-site counters.
    ///
    /// # Panics
    ///
    /// Panics if the loop was built without a schedule.
    pub(crate) fn into_chaos_report(mut self, prefix: &str) -> ChaosReport {
        let mut f = *self.faults.take().expect("a run under a fault schedule");
        // End-of-run checks carry no span; stamp them with the horizon.
        f.inv.context(self.horizon, 0);
        f.inv.finish();
        let attribution = f.log.attribution.finish();
        let report = self.into_report(prefix);
        let counts = f.schedule.counts();
        obs::add_named("faults.injected", f.schedule.len() as u64);
        obs::add_named("faults.relay_crashes", counts.crashes);
        obs::add_named("faults.relay_restores", counts.restores);
        obs::add_named("faults.link_degradations", counts.degradations);
        obs::add_named("faults.probe_blackholes", counts.blackholes);
        obs::add_named("faults.cache_poisonings", counts.poisons);
        obs::add_named("faults.flows_killed", f.killed);
        obs::add_named("faults.retries", f.retries);
        obs::add_named("obs.spans_dropped", f.log.dropped);
        // Invariant check-site hit counts: the fuzzer's coverage map
        // keys on which checks a schedule actually reached.
        for (site, n) in f.inv.site_counts() {
            obs::add_named(&format!("faults.check.{site}"), n);
        }
        ChaosReport {
            rows: f.rows,
            broker: report.broker,
            fleet: report.fleet,
            slo: report.slo,
            faults: counts,
            arrivals: report.arrivals,
            killed: f.killed,
            retries: f.retries,
            completed: report.completed,
            spend_usd: report.spend_usd,
            budget_usd: report.budget_usd,
            invariant_violations: f.inv.violations().to_vec(),
            spans: obs::PackedSpans::new(),
            // Ids count from 1, and every span was kept or dropped.
            spans_kept: f.log.next_id - 1 - f.log.dropped,
            span_dropped: f.log.dropped,
            attribution,
        }
    }
}

/// Runs the online service loop. Deterministic in `(cfg, seed)` at any
/// thread count.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (tenant counts differ,
/// fleet slots don't group evenly over the overlay nodes, zero probe
/// cadence, or no routable server/client pair).
#[must_use]
pub fn service(cfg: &ServiceConfig, seed: u64) -> ServiceReport {
    let mut svc = ServiceLoop::new(cfg, seed, None);
    svc.run_day(&mut |_| {});
    svc.into_report("control.")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronets::eval::modes_from_segments;
    use transport::model::tcp_throughput;

    /// The thread-local span ring [`SpanLog`] replaced, as the
    /// reference its windows must reproduce: a full ring overwrites its
    /// oldest record, and a drain returns the kept records in emission
    /// order with the count overwritten since the last drain.
    struct RefRing {
        buf: Vec<obs::SpanRecord>,
        head: usize,
        dropped: u64,
        next_id: u64,
    }

    impl RefRing {
        fn span(&mut self, t_ns: u64, parent: u64, kind: SpanKind, subject: u64) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            let rec = obs::SpanRecord {
                t_ns,
                id,
                parent,
                kind,
                subject,
                a: t_ns ^ subject,
                b: id * 3,
            };
            if self.buf.len() < SPAN_WINDOW {
                self.buf.push(rec);
            } else {
                self.buf[self.head] = rec;
                self.head = (self.head + 1) % SPAN_WINDOW;
                self.dropped += 1;
            }
            id
        }

        fn drain(&mut self) -> (Vec<obs::SpanRecord>, u64) {
            let mut out = std::mem::take(&mut self.buf);
            let pivot = self.head % out.len().max(1);
            out.rotate_left(pivot);
            self.head = 0;
            (out, std::mem::take(&mut self.dropped))
        }
    }

    #[test]
    fn span_log_windows_match_the_ring_they_replaced() {
        const KINDS: [SpanKind; 8] = [
            SpanKind::FlowArrive,
            SpanKind::Admit,
            SpanKind::FlowComplete,
            SpanKind::FlowKill,
            SpanKind::FlowRetry,
            SpanKind::SloBreach,
            SpanKind::FaultInject,
            SpanKind::FleetScale,
        ];
        let mut ring = RefRing {
            buf: Vec::new(),
            head: 0,
            dropped: 0,
            next_id: 1,
        };
        let mut log = SpanLog::new();
        let (mut kept, mut dropped) = (Vec::new(), 0);
        let mut closed = Vec::new();
        let mut x = 7u64;
        for window in [0, 1, SPAN_WINDOW - 1, SPAN_WINDOW, SPAN_WINDOW + 1, 70_001] {
            for _ in 0..window {
                x = mix64(x);
                // Half the spans are roots; the rest name an earlier id,
                // which may already be dropped.
                let parent = if x & 1 == 0 { 0 } else { x % log.next_id };
                let kind = KINDS[(x >> 8) as usize % KINDS.len()];
                let (t_ns, subject) = (x >> 20, x >> 40);
                let id = ring.span(t_ns, parent, kind, subject);
                let rec = log.emit(
                    SimTime::from_nanos(t_ns),
                    parent,
                    kind,
                    subject,
                    t_ns ^ subject,
                    id * 3,
                );
                assert_eq!(rec, id);
            }
            let (recs, d) = ring.drain();
            kept.extend(recs);
            dropped += d;
            log.close_window(&mut |w| closed.extend_from_slice(w));
            assert!(log.ring.capacity() <= SPAN_WINDOW, "window of {window}");
            assert_eq!(closed, kept, "window of {window}");
            assert_eq!(log.dropped, dropped, "window of {window}");
            // What `into_chaos_report` counts as kept.
            assert_eq!(log.next_id - 1 - log.dropped, kept.len() as u64);
        }
        assert_eq!(dropped, 1 + (70_001 - SPAN_WINDOW) as u64);
    }

    /// Through the overfull chaos day the log's ring never grows past
    /// one window, and once every flow has finished no pending link
    /// is left in the online attribution.
    #[test]
    fn a_fault_run_holds_one_span_window() {
        let cfg = ChaosConfig::overfull();
        let schedule = FaultSchedule::generate(&cfg.faults, 13);
        let mut svc = ServiceLoop::with_faults(&cfg, 13, &schedule);
        let ring = |svc: &ServiceLoop| {
            let log = &svc.faults.as_ref().expect("a fault run").log;
            (log.ring.len(), log.ring.capacity())
        };
        let mut most = 0;
        for e in 0..cfg.service.workload.epochs {
            svc.run_epoch(e, Vec::new());
            let (len, capacity) = ring(&svc);
            assert!(capacity <= SPAN_WINDOW, "epoch {e}: {capacity} slots");
            most = most.max(len);
            svc.close_span_window(&mut |_| {});
        }
        svc.drain_tail();
        assert!(ring(&svc).1 <= SPAN_WINDOW);
        svc.close_span_window(&mut |_| {});
        assert_eq!(most, SPAN_WINDOW, "no window overfilled");
        let log = &svc.faults.as_ref().expect("a fault run").log;
        assert_eq!(log.dropped, 23_880);
        assert_eq!(log.attribution.live(), 0);
    }

    fn tiny_cfg() -> ServiceConfig {
        let mut cfg = ServiceConfig::smoke();
        // Shrink the smoke day to keep unit tests fast.
        cfg.workload.epochs = 8;
        cfg.workload.mean_rate_per_sec = 4.0;
        cfg.workload.diurnal_period = cfg.workload.epoch * 8;
        cfg
    }

    #[test]
    fn service_runs_and_balances_its_ledgers() {
        let r = service(&tiny_cfg(), 11);
        assert_eq!(r.rows.len(), 8);
        let admitted = r.broker.overlay + r.broker.direct + r.broker.stale_fallback;
        assert_eq!(r.broker.admitted, admitted);
        assert_eq!(r.arrivals, r.broker.admitted + r.broker.denied);
        assert_eq!(
            r.completed, r.broker.admitted,
            "every admitted flow completes"
        );
        assert_eq!(r.completed, r.slo.completed());
        assert!(r.spend_usd <= r.budget_usd + 1e-9, "spend over budget");
        assert!(r.broker.overlay > 0, "no overlay admissions");
        assert!(r.broker.stale_fallback > 0, "staleness never bit");
    }

    #[test]
    fn flow_hashes_match_known_answers() {
        // Pinned outputs of the two finalizer-based flow hashes: a slip
        // in the shared finalizer or in a caller's pre-mix would quietly
        // reshuffle every workload's pairs or cross-region flows.
        assert_eq!(pair_of(0, 1100), 0);
        assert_eq!(pair_of(1, 1100), 1035);
        assert_eq!(pair_of(42, 1100), 142);
        assert_eq!(pair_of(123_456_789, 768), 356);
        let rc = RemoteCfg {
            region: 3,
            regions: 8,
            permille: 60,
            ledger: false,
        };
        assert_eq!(rc.split(0), None);
        assert_eq!(rc.split(1), Some(((3 << 48) | 1, 5)));
        assert_eq!(rc.split(2), None);
        assert_eq!(rc.split(6), Some(((3 << 48) | 6, 5)));
        assert_eq!(rc.split(7), Some(((3 << 48) | 7, 6)));
    }

    #[test]
    fn service_is_deterministic() {
        let a = service(&tiny_cfg(), 5);
        let b = service(&tiny_cfg(), 5);
        assert_eq!(a.to_tsv(), b.to_tsv());
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn seeds_change_the_run() {
        let a = service(&tiny_cfg(), 5);
        let b = service(&tiny_cfg(), 6);
        assert_ne!(a.to_tsv(), b.to_tsv());
    }

    #[test]
    fn epoch_rows_sum_to_totals() {
        let r = service(&tiny_cfg(), 11);
        let arrivals: u64 = r.rows.iter().map(|x| x.arrivals).sum();
        assert_eq!(arrivals, r.arrivals);
        let overlay: u64 = r.rows.iter().map(|x| x.overlay).sum();
        assert_eq!(overlay, r.broker.overlay);
        let stale: u64 = r.rows.iter().map(|x| x.stale).sum();
        assert_eq!(stale, r.broker.stale_fallback);
    }

    fn multihop_cfg() -> ServiceConfig {
        let mut cfg = tiny_cfg();
        cfg.paths = PathsPolicy::MultiHop;
        cfg
    }

    #[test]
    fn multihop_service_balances_its_ledgers() {
        let r = service(&multihop_cfg(), 11);
        assert_eq!(r.rows.len(), 8);
        let admitted = r.broker.overlay + r.broker.direct + r.broker.stale_fallback;
        assert_eq!(r.broker.admitted, admitted);
        assert_eq!(r.arrivals, r.broker.admitted + r.broker.denied);
        assert_eq!(r.completed, r.broker.admitted);
        assert!(r.spend_usd <= r.budget_usd + 1e-9, "spend over budget");
        assert!(r.broker.overlay > 0, "no overlay admissions");
        assert_eq!(
            r.broker.stale_fallback, 0,
            "the bandit never goes stale-blind"
        );
        assert!(r.broker.probe_spent > 0, "budgeted refresh never ran");
        assert!(r.broker.probe_refreshes > 0);
    }

    #[test]
    fn multihop_service_is_deterministic() {
        let a = service(&multihop_cfg(), 5);
        let b = service(&multihop_cfg(), 5);
        assert_eq!(a.to_tsv(), b.to_tsv());
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn multihop_policy_diverges_from_onehop() {
        let a = service(&tiny_cfg(), 11);
        let b = service(&multihop_cfg(), 11);
        assert_ne!(a.to_tsv(), b.to_tsv(), "policies must actually differ");
        assert_eq!(a.broker.probe_spent, 0, "one-hop spends no bandit budget");
    }

    fn bits(m: &Measurement) -> (u64, SimDuration, u64) {
        (m.throughput_bps.to_bits(), m.rtt, m.loss.to_bits())
    }

    /// Pair `pi`'s one-hop truth derived pair by pair: a route lookup,
    /// `quality` and `modes_from_segments` for every leg the pair uses.
    fn per_pair_truth(svc: &ServiceLoop, pi: usize) -> PairProbe {
        let (net, cronet) = (&svc.world.net, &svc.world.cronet);
        let params = *cronet.params();
        let (server, client) = svc.pairs[pi];
        let q_direct = quality(net, &svc.cache.route(net, server, client).unwrap());
        let mut overlays = Vec::new();
        for (ni, node) in cronet.nodes().iter().enumerate() {
            let Some(seg1) = svc.cache.route(net, server, node.vm()) else {
                continue;
            };
            let Some(seg2) = svc.cache.route(net, node.vm(), client) else {
                continue;
            };
            let (q_a, q_b) = (quality(net, &seg1), quality(net, &seg2));
            let (_, split, _) = modes_from_segments(&q_a, &q_b, node, cronet.tunnel(), &params);
            overlays.push(OverlayProbe { node: ni, split });
        }
        PairProbe {
            direct: Measurement {
                throughput_bps: tcp_throughput(&q_direct, &params),
                rtt: q_direct.rtt,
                loss: q_direct.loss,
            },
            overlays,
        }
    }

    /// The per-epoch leg table changes how the truth is computed, not
    /// what: at epoch 0 and after a congestion step, the table-built
    /// one-hop truth equals the per-pair derivation bit for bit, and the
    /// table-scored multihop arms equal `paths::evaluate`.
    #[test]
    fn leg_table_truth_matches_per_pair_derivation() {
        for seed in [7, 11, 13] {
            for policy in [PathsPolicy::OneHop, PathsPolicy::MultiHop] {
                let mut cfg = ServiceConfig::smoke();
                cfg.paths = policy;
                let mut svc = ServiceLoop::new(&cfg, seed, None);
                let mut epoch0_direct = Vec::new();
                for e in 0..2 {
                    if e > 0 {
                        svc.world.step_epoch(e);
                    }
                    svc.legs.measure(&svc.world.net, &svc.cache);
                    if policy == PathsPolicy::OneHop {
                        let truth = svc.legs.onehop_truth(&svc.world);
                        assert_eq!(truth.len(), svc.pairs.len());
                        for (pi, got) in truth.iter().enumerate() {
                            let want = per_pair_truth(&svc, pi);
                            assert_eq!(bits(&got.direct), bits(&want.direct), "pair {pi}");
                            assert_eq!(got.overlays.len(), want.overlays.len(), "pair {pi}");
                            for (g, w) in got.overlays.iter().zip(&want.overlays) {
                                assert_eq!(g.node, w.node, "pair {pi}");
                                assert_eq!(bits(&g.split), bits(&w.split), "pair {pi}");
                            }
                        }
                        let direct: Vec<_> = truth.iter().map(|t| bits(&t.direct)).collect();
                        if e == 0 {
                            epoch0_direct = direct;
                        } else {
                            assert_ne!(direct, epoch0_direct, "the congestion step moved nothing");
                        }
                    } else {
                        let arms = svc.legs.arm_truth(&svc.world, &svc.broker);
                        let (net, cronet) = (&svc.world.net, &svc.world.cronet);
                        for (pi, got) in arms.iter().enumerate() {
                            let (s, c) = svc.pairs[pi];
                            let want = paths::evaluate(
                                net,
                                &svc.cache,
                                cronet.nodes(),
                                s,
                                c,
                                cronet.tunnel(),
                                cronet.params(),
                                svc.broker.candidates(pi),
                            );
                            assert_eq!(got.len(), want.len(), "pair {pi}");
                            for (g, w) in got.iter().zip(&want) {
                                assert_eq!((g.bps.to_bits(), g.rtt), (w.bps.to_bits(), w.rtt));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn khops_one_restricts_to_single_relays() {
        let mut cfg = multihop_cfg();
        cfg.khops = 1;
        let r = service(&cfg, 11);
        assert_eq!(r.broker.chain, 0, "k=1 admits no multi-relay chains");
        assert!(r.broker.overlay > 0);
    }
}
