//! The sharded control plane: parallel per-region brokers behind
//! epoch-barriered mailboxes.
//!
//! The classic [`crate::service`] loop is one broker, one fleet, one SLO
//! ledger and one workload stream. This module splits the control plane
//! per region, which at one lane runs the planetary estate ≈1.6× faster
//! than the same estate folded into one region (DESIGN.md §16): each
//! region's state is small and its own. The split has two layers:
//!
//! * a **shard-local decision layer** — one `ServiceLoop` per region,
//!   owning its broker, grouped fleet, SLO ledger, probe cache, workload
//!   substream and RNG stream, stepped one epoch per round on
//!   [`exec::shard_rounds`] worker lanes;
//! * a **global reconciliation layer** — the barrier closure, run on the
//!   calling thread between rounds: it delivers cross-region messages to
//!   the region index they name, and reconciles the cloud budget by
//!   folding per-region spends in region order over exact `f64` bit
//!   patterns ([`merge_spend_bits`]) and re-granting each region its own
//!   spend plus an equal share of the global headroom.
//!
//! Cross-region flows follow the [`ShardMsg`] protocol: a deterministic
//! per-mille of arrivals (a SplitMix64 finalizer over the request id —
//! no RNG draws, so sharding never perturbs the workload substreams)
//! transfer their first leg at the origin, then hand the remainder off
//! to the destination region (`Handoff`). The destination admits the
//! ingress leg onto its own relays and replies `Done`, or bounces the
//! flow back (`Retry`) for settlement on the origin's direct path. Every
//! byte is accounted at the origin: the optional [`RemoteEvent`] ledger
//! replays into `faults::Invariants` to prove conservation across
//! handoffs and bounces.
//!
//! # Determinism
//!
//! A sharded run is a pure function of `(config, seed)` for **any** lane
//! and thread count: a round's region steps are units of `exec`'s
//! ordered fan-out, mailboxes deliver in (sender region, emission)
//! order, the barrier folds in region order on one thread, and
//! telemetry rides the `obs` unit-shard capture path. The CLI runs as
//! many lanes as `--threads`. With one region the engine defers to the
//! classic loop, byte for byte.

use control::shard::{merge_spend_bits, publish_broker_stats, publish_fleet_stats};
use control::{BrokerStats, FleetStats, ShardMsg, SloAccount};
use simcore::rng::mix64;
use simcore::SimDuration;

use crate::attribution::Attribution;
use crate::chaos::{chaos_collected, chaos_with_sink, ChaosConfig, ChaosReport, ChaosRow};
use crate::service::{
    service, EpochRow, RemoteCfg, RemoteEvent, ServiceConfig, ServiceLoop, ServiceReport,
};

/// Configuration of a sharded service run: the per-region service
/// config plus the region fabric it is replicated over.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// The per-region service configuration (every region runs an
    /// identical config under its own seed substream).
    pub service: ServiceConfig,
    /// Number of regions (= control-plane shards), 1..=256.
    pub regions: u32,
    /// Per-mille of arrivals whose client lives in another region; those
    /// flows cross the shard boundary via the [`ShardMsg`] protocol.
    pub remote_permille: u32,
}

impl ShardedConfig {
    /// The PR-10 planetary run: 64 regions × 162 500 arrivals over
    /// 1 600 relay slots each — 10.4 M arrivals over 102 400 relays.
    /// Each region is the smoke world (five overlay DCs) with 320 slots
    /// per DC group, under a ~3.5-simulated-hour day of 50 epochs.
    #[must_use]
    pub fn planetary() -> ShardedConfig {
        let mut service = ServiceConfig::smoke();
        let epoch = SimDuration::from_secs(250);
        let epochs = 50;
        service.workload.epochs = epochs;
        service.workload.epoch = epoch;
        service.workload.mean_rate_per_sec = 13.0;
        service.workload.diurnal_period = epoch * u64::from(epochs);
        service.broker.max_probe_age = epoch.mul_f64(1.5);
        service.fleet.relays = 1600;
        service.fleet.budget_usd = 1.50;
        ShardedConfig {
            service,
            regions: 64,
            remote_permille: 20,
        }
    }

    /// CI-sized planetary run: 8 regions × ~4 500 arrivals over 40 relay
    /// slots each, small enough that the lane-invariance golden matrix
    /// (threads × seeds) stays cheap.
    #[must_use]
    pub fn planetary_smoke() -> ShardedConfig {
        let mut service = ServiceConfig::smoke();
        service.workload.epochs = 12;
        service.workload.mean_rate_per_sec = 2.5;
        service.workload.diurnal_period = service.workload.epoch * 12;
        service.fleet.relays = 40;
        ShardedConfig {
            service,
            regions: 8,
            remote_permille: 60,
        }
    }

    /// The same total workload and relay estate folded into one region —
    /// the unsharded baseline the bench harness races the sharded engine
    /// against. Free-slot lookups are O(1) at any group size, so what the
    /// split buys is per-region state: ≈1.6× at one lane (DESIGN.md §16).
    #[must_use]
    pub fn monolithic(&self) -> ServiceConfig {
        let mut cfg = self.service.clone();
        let r = f64::from(self.regions);
        cfg.workload.mean_rate_per_sec *= r;
        cfg.fleet.relays *= self.regions as usize;
        cfg.fleet.budget_usd *= r;
        cfg
    }
}

/// SplitMix64 over `(seed, region)`: each region's world, workload and
/// bandit streams come from an independent substream.
fn region_seed(seed: u64, region: u32) -> u64 {
    mix64(seed ^ (u64::from(region).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs the sharded service: `lanes` worker lanes over `cfg.regions`
/// region loops. Deterministic in `(cfg, seed)` at any lane and thread
/// count; with one region it defers to the classic [`service`] loop
/// byte for byte.
///
/// # Panics
///
/// Panics on an inconsistent configuration: zero lanes, a region count
/// outside 1..=256, or any `ServiceLoop` construction failure.
#[must_use]
pub fn service_sharded(cfg: &ShardedConfig, seed: u64, lanes: usize) -> ServiceReport {
    service_sharded_with_ledgers(cfg, seed, lanes, false).0
}

/// [`service_sharded`] with the cross-region byte-conservation ledger
/// switched on: also returns each region's [`RemoteEvent`] stream (in
/// region order), for replay into `faults::Invariants`.
///
/// # Panics
///
/// See [`service_sharded`].
#[must_use]
pub fn service_sharded_with_ledgers(
    cfg: &ShardedConfig,
    seed: u64,
    lanes: usize,
    ledger: bool,
) -> (ServiceReport, Vec<Vec<RemoteEvent>>) {
    assert!(lanes >= 1, "at least one shard lane");
    assert!(
        (1..=256).contains(&cfg.regions),
        "regions must be in 1..=256"
    );
    if cfg.regions == 1 {
        // One region is the classic loop; run it unchanged so the
        // existing goldens hold byte for byte.
        return (service(&cfg.service, seed), vec![Vec::new()]);
    }
    let regions = cfg.regions as usize;
    let epochs = cfg.service.workload.epochs as usize;

    // Region loops are built in region order on the calling thread —
    // construction telemetry lands identically at any lane count.
    let states: Vec<ServiceLoop> = (0..cfg.regions)
        .map(|r| {
            ServiceLoop::new(
                &cfg.service,
                region_seed(seed, r),
                Some(RemoteCfg {
                    region: r,
                    regions: cfg.regions,
                    permille: cfg.remote_permille,
                    ledger,
                }),
            )
        })
        .collect();

    // Rounds 0..epochs run epochs; round `epochs` drains each region's
    // event tail; two further settle rounds flush Handoff → Done/Retry
    // chains still crossing the barrier (the protocol's longest chain).
    let rounds = epochs + 3;
    let global_budget = cfg.service.fleet.budget_usd * cfg.regions as f64;
    let states = exec::shard_rounds(
        states,
        lanes,
        rounds,
        |_i, svc: &mut ServiceLoop, round, inbox: Vec<ShardMsg>| {
            if round < epochs {
                svc.run_epoch(round as u32, inbox);
            } else if round == epochs {
                svc.drain_tail();
                svc.settle(inbox);
            } else {
                svc.settle(inbox);
            }
            svc.take_outbox()
                .into_iter()
                .map(|m| {
                    let (ShardMsg::Handoff { dst: to, .. }
                    | ShardMsg::Done { origin: to, .. }
                    | ShardMsg::Retry { origin: to, .. }) = m;
                    (to as usize, m)
                })
                .collect()
        },
        |round, states: &mut [ServiceLoop]| {
            // Budget reconciliation, on the calling thread in region
            // order: every region keeps what it has spent and receives
            // an equal share of the global headroom. Exact-bits folding
            // makes the rollup independent of the lane schedule.
            if round >= epochs {
                return;
            }
            let spends: Vec<u64> = states.iter().map(ServiceLoop::spend_bits).collect();
            let total = merge_spend_bits(spends.iter().copied());
            let share = (global_budget - total).max(0.0) / states.len() as f64;
            for (svc, bits) in states.iter_mut().zip(spends) {
                svc.set_budget(f64::from_bits(bits) + share);
            }
        },
    );

    // Per-region publication under `control.shard<r>.`, then the merged
    // rollup under the classic `control.` names — all in region order.
    let mut ledgers = Vec::with_capacity(regions);
    let mut reports = Vec::with_capacity(regions);
    let (mut handoffs, mut retries) = (0, 0);
    for (r, mut svc) in states.into_iter().enumerate() {
        ledgers.push(svc.take_ledger());
        let (h, t) = svc.remote_counts();
        handoffs += h;
        retries += t;
        reports.push(svc.into_report(&format!("control.shard{r}.")));
    }
    let merged = merge_service_reports(&reports, global_budget);
    obs::add_named("control.remote.handoffs", handoffs);
    obs::add_named("control.remote.retries", retries);
    (merged, ledgers)
}

/// Folds per-region [`ServiceReport`]s into the global report and
/// publishes the merged `control.*` rollup: counters absorb in region
/// order, utilization averages, and spends fold over exact `f64` bits.
fn merge_service_reports(reports: &[ServiceReport], global_budget: f64) -> ServiceReport {
    let epochs = reports[0].rows.len();
    let regions = reports.len();
    let rows: Vec<EpochRow> = (0..epochs)
        .map(|e| {
            let mut row = EpochRow {
                epoch: e as u32,
                ..EpochRow::default()
            };
            for rep in reports {
                let r = &rep.rows[e];
                row.arrivals += r.arrivals;
                row.overlay += r.overlay;
                row.direct += r.direct;
                row.denied += r.denied;
                row.stale += r.stale;
                row.completed += r.completed;
                row.violations += r.violations;
                row.active += r.active;
                row.draining += r.draining;
                row.util += r.util;
            }
            row.util /= regions as f64;
            row.spend_usd =
                merge_spend_bits(reports.iter().map(|rep| rep.rows[e].spend_usd.to_bits()));
            row
        })
        .collect();

    let Rollup {
        broker,
        fleet,
        slo,
        spend_usd,
    } = Rollup::fold(
        reports
            .iter()
            .map(|rep| (&rep.broker, &rep.fleet, &rep.slo, rep.spend_usd)),
    );
    let last = rows.last().expect("at least one epoch");
    obs::set(obs::gauge("control.fleet.active"), last.active as f64);
    obs::set(obs::gauge("control.fleet.draining"), last.draining as f64);
    obs::set(obs::gauge("control.fleet.failed"), 0.0);

    ServiceReport {
        rows,
        broker,
        fleet,
        slo,
        arrivals: reports.iter().map(|rep| rep.arrivals).sum(),
        completed: reports.iter().map(|rep| rep.completed).sum(),
        spend_usd,
        budget_usd: global_budget,
    }
}

/// What both merged reports fold alike, in region order: broker and
/// fleet counters absorbed, SLO ledgers merged, and spends summed over
/// exact `f64` bits ([`merge_spend_bits`]).
struct Rollup {
    broker: BrokerStats,
    fleet: FleetStats,
    slo: SloAccount,
    spend_usd: f64,
}

impl Rollup {
    /// Folds the regions' `(broker, fleet, slo, spend)` and publishes the
    /// merged `control.` counters, SLO ledger and spend gauge. Callers
    /// add the gauges of their own last row.
    fn fold<'a, I>(regions: I) -> Rollup
    where
        I: Iterator<Item = (&'a BrokerStats, &'a FleetStats, &'a SloAccount, f64)> + Clone,
    {
        let spend_usd = merge_spend_bits(regions.clone().map(|(.., spend)| spend.to_bits()));
        let mut broker = BrokerStats::default();
        let mut fleet = FleetStats::default();
        let mut slo: Option<SloAccount> = None;
        for (b, f, s, _) in regions {
            broker.absorb(b);
            fleet.absorb(f);
            match &mut slo {
                Some(merged) => merged.merge(s),
                None => slo = Some(s.clone()),
            }
        }
        let slo = slo.expect("at least one region");
        publish_broker_stats("control.", &broker);
        publish_fleet_stats("control.", &fleet);
        obs::set(obs::gauge("control.fleet.spend_usd"), spend_usd);
        slo.publish_prefixed("control.");
        Rollup {
            broker,
            fleet,
            slo,
            spend_usd,
        }
    }
}

/// The planetary chaos fabric: the per-region chaos config and the
/// region count. `smoke` selects the CI-sized 8-region fabric over the
/// fuzz-sized regional day; the full fabric runs 64 smoke-sized regions.
#[must_use]
pub fn chaos_planetary(smoke: bool) -> (ChaosConfig, u32) {
    if smoke {
        (ChaosConfig::micro(), 8)
    } else {
        (ChaosConfig::smoke(), 64)
    }
}

/// Runs `regions` independent regional chaos loops on `lanes` worker
/// lanes and folds them into one global report: counters absorb in
/// region order, spans re-base onto one id stream, and attribution is
/// recomputed over the merged stream, which then goes to `sink` in one
/// call (the report keeps no span). Regional faults stay regional —
/// chaos shards share no flows, so the fan-out is pure; the global
/// layer is the merge. Deterministic in `(cfg, regions, seed)` at any
/// lane and thread count; one region runs the classic
/// [`crate::chaos::chaos_with_sink`] day.
///
/// # Panics
///
/// Panics on zero lanes, a region count outside 1..=256, or any
/// inconsistency [`crate::chaos::chaos`] itself rejects.
#[must_use]
pub fn chaos_sharded(
    cfg: &ChaosConfig,
    regions: u32,
    seed: u64,
    lanes: usize,
    sink: &mut dyn FnMut(&[obs::SpanRecord]),
) -> ChaosReport {
    assert!(lanes >= 1, "at least one shard lane");
    assert!((1..=256).contains(&regions), "regions must be in 1..=256");
    if regions == 1 {
        let schedule = faults::FaultSchedule::generate(&cfg.faults, seed);
        return chaos_with_sink(cfg, seed, &schedule, sink);
    }
    let states: Vec<Option<ChaosReport>> = (0..regions).map(|_| None).collect();
    let states = exec::shard_rounds(
        states,
        lanes,
        1,
        |r, slot: &mut Option<ChaosReport>, _round, _inbox: Vec<()>| {
            let rseed = region_seed(seed, r as u32);
            *slot = Some(regional_chaos(cfg, rseed, &format!("control.shard{r}.")));
            Vec::new()
        },
        |_, _| {},
    );
    let reports: Vec<ChaosReport> = states
        .into_iter()
        .map(|s| s.expect("every region ran"))
        .collect();
    merge_chaos_reports(cfg, &reports, sink)
}

/// One region's chaos day under its generated schedule, its kept spans
/// collected for the merged attribution walk.
fn regional_chaos(cfg: &ChaosConfig, seed: u64, prefix: &str) -> ChaosReport {
    let schedule = faults::FaultSchedule::generate(&cfg.faults, seed);
    chaos_collected(cfg, seed, &schedule, prefix)
}

/// Folds per-region [`ChaosReport`]s into the global report and
/// publishes the merged `control.*` rollup. Span ids re-base onto one
/// contiguous stream (region order, roots stay roots) so the merged
/// attribution walk sees every region's causal chains; `sink` gets that
/// stream.
fn merge_chaos_reports(
    cfg: &ChaosConfig,
    reports: &[ChaosReport],
    sink: &mut dyn FnMut(&[obs::SpanRecord]),
) -> ChaosReport {
    let epochs = reports[0].rows.len();
    let regions = reports.len();
    let rows: Vec<ChaosRow> = (0..epochs)
        .map(|e| {
            let mut row = ChaosRow {
                epoch: e as u32,
                ..ChaosRow::default()
            };
            for rep in reports {
                let r = &rep.rows[e];
                row.arrivals += r.arrivals;
                row.retries += r.retries;
                row.overlay += r.overlay;
                row.direct += r.direct;
                row.denied += r.denied;
                row.stale += r.stale;
                row.completed += r.completed;
                row.killed += r.killed;
                row.violations += r.violations;
                row.active += r.active;
                row.failed += r.failed;
                row.availability += r.availability;
                row.failover_ms += r.failover_ms;
                row.goodput_ratio += r.goodput_ratio;
            }
            row.availability /= regions as f64;
            row.failover_ms /= regions as f64;
            row.goodput_ratio /= regions as f64;
            row.spend_usd =
                merge_spend_bits(reports.iter().map(|rep| rep.rows[e].spend_usd.to_bits()));
            row
        })
        .collect();

    let mut faults = faults::FaultCounts::default();
    let mut arrivals = 0u64;
    let mut killed = 0u64;
    let mut retries = 0u64;
    let mut completed = 0u64;
    let mut spans_kept = 0u64;
    let mut span_dropped = 0u64;
    let mut violations = Vec::new();
    let mut spans = Vec::new();
    let mut off = 0u64;
    for rep in reports {
        faults.crashes += rep.faults.crashes;
        faults.restores += rep.faults.restores;
        faults.outages += rep.faults.outages;
        faults.degradations += rep.faults.degradations;
        faults.blackholes += rep.faults.blackholes;
        faults.poisons += rep.faults.poisons;
        arrivals += rep.arrivals;
        killed += rep.killed;
        retries += rep.retries;
        completed += rep.completed;
        spans_kept += rep.spans_kept;
        span_dropped += rep.span_dropped;
        violations.extend(rep.invariant_violations.iter().cloned());
        // Re-base this region's span ids past everything merged so far;
        // parent 0 (a root) stays a root.
        let mut hi = off;
        for mut s in &rep.spans {
            s.id += off;
            if s.parent != 0 {
                s.parent += off;
            }
            hi = hi.max(s.id);
            spans.push(s);
        }
        off = hi;
    }
    let attribution = Attribution::attribute(&spans);
    sink(&spans);
    drop(spans);
    let Rollup {
        broker,
        fleet,
        slo,
        spend_usd,
    } = Rollup::fold(
        reports
            .iter()
            .map(|rep| (&rep.broker, &rep.fleet, &rep.slo, rep.spend_usd)),
    );
    let last = rows.last().expect("at least one epoch");
    obs::set(obs::gauge("control.fleet.active"), last.active as f64);
    obs::set(obs::gauge("control.fleet.failed"), last.failed as f64);

    ChaosReport {
        rows,
        broker,
        fleet,
        slo,
        faults,
        arrivals,
        killed,
        retries,
        completed,
        spend_usd,
        budget_usd: cfg.service.fleet.budget_usd * regions as f64,
        invariant_violations: violations,
        spans: obs::PackedSpans::new(),
        spans_kept,
        span_dropped,
        attribution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::FaultCharge;
    use control::{FlowRequest, WorkloadConfig};
    use faults::Invariants;
    use simcore::{SimRng, SimTime};

    /// A three-region fabric small enough for unit tests: six epochs at
    /// a low rate, four slots per DC group, and a high cross-region
    /// share so handoffs and bounces both happen.
    fn tiny_sharded() -> ShardedConfig {
        let mut cfg = ShardedConfig::planetary_smoke();
        cfg.regions = 3;
        cfg.remote_permille = 150;
        cfg.service.workload.epochs = 6;
        cfg.service.workload.mean_rate_per_sec = 2.0;
        cfg.service.workload.diurnal_period = cfg.service.workload.epoch * 6;
        cfg.service.fleet.relays = 20;
        cfg
    }

    /// `WorkloadConfig::epoch_arrivals` before its bucket order, kept as
    /// a reference: the epoch's requests drawn in id order, then put in
    /// `(at, id)` order by a comparison sort.
    fn arrivals_by_comparison_sort(w: &WorkloadConfig, seed: u64, epoch: u32) -> Vec<FlowRequest> {
        let mut rng = SimRng::seed_from(seed).fork(0xA221).fork(u64::from(epoch));
        let start = SimTime::ZERO + w.epoch * u64::from(epoch);
        let n = rng.poisson(w.rate_at(start + w.epoch / 2) * w.epoch.as_secs_f64());
        let mut out: Vec<FlowRequest> = (0..n)
            .map(|k| {
                let at = start + w.epoch.mul_f64(rng.uniform_f64());
                let client = rng.index(w.clients as usize) as u64;
                let raw = rng.lognormal(w.median_flow_bytes.ln(), w.flow_sigma);
                FlowRequest {
                    id: (u64::from(epoch) << 32) | k,
                    at,
                    client,
                    tenant: (client % u64::from(w.tenants)) as u32,
                    bytes: (raw as u64).clamp(w.min_flow_bytes, w.max_flow_bytes),
                }
            })
            .collect();
        out.sort_unstable_by_key(|r| (r.at, r.id));
        out
    }

    /// Every epoch the smoke, paper and planet days draw, at their own
    /// seeds (the planet's per region), comes out in the comparison
    /// sort's order.
    #[test]
    fn every_day_orders_its_arrivals_as_the_comparison_sort() {
        let planet = ShardedConfig::planetary();
        for seed in [7, 11] {
            let mut days = vec![
                (ServiceConfig::smoke().workload, seed),
                (ServiceConfig::paper().workload, seed),
            ];
            days.extend(
                (0..planet.regions)
                    .map(|r| (planet.service.workload.clone(), region_seed(seed, r))),
            );
            for (w, s) in &days {
                for e in 0..w.epochs {
                    let want = arrivals_by_comparison_sort(w, *s, e);
                    assert_eq!(w.epoch_arrivals(*s, e), want, "seed {s} epoch {e}");
                }
            }
        }
    }

    #[test]
    fn region_seeds_match_known_answers() {
        // The benchmark harness recomputes region seeds on its own, so
        // a slip here would first show as its planet fingerprint failing.
        assert_eq!(region_seed(7, 0), 0xF75F_04CB_B5A1_A1DD);
        assert_eq!(region_seed(7, 1), 0xB346_6F8A_7B81_A989);
        assert_eq!(region_seed(7, 63), 0x66CD_2581_3E9B_65B8);
        assert_eq!(region_seed(11, 5), 0x8A65_CDFC_DFF2_BA3C);
    }

    #[test]
    fn one_region_is_the_classic_loop() {
        let mut cfg = tiny_sharded();
        cfg.regions = 1;
        cfg.remote_permille = 0;
        let sharded = service_sharded(&cfg, 7, 4);
        let classic = service(&cfg.service, 7);
        assert_eq!(sharded.to_tsv(), classic.to_tsv());
        assert_eq!(format!("{sharded}"), format!("{classic}"));
    }

    #[test]
    fn sharded_service_is_lane_invariant() {
        let cfg = tiny_sharded();
        let base = service_sharded(&cfg, 7, 1);
        for lanes in [2, 3, 8] {
            let r = service_sharded(&cfg, 7, lanes);
            assert_eq!(r.to_tsv(), base.to_tsv(), "lanes={lanes}");
            assert_eq!(format!("{r}"), format!("{base}"), "lanes={lanes}");
        }
    }

    #[test]
    fn sharded_service_balances_its_ledgers() {
        let cfg = tiny_sharded();
        let r = service_sharded(&cfg, 11, 2);
        assert_eq!(r.rows.len(), 6);
        let arrivals: u64 = r.rows.iter().map(|x| x.arrivals).sum();
        assert_eq!(arrivals, r.arrivals);
        // The destination-side handoff admissions make broker decisions
        // exceed arrivals; completions still cover every workload flow.
        assert!(r.broker.admitted + r.broker.denied >= r.arrivals);
        assert_eq!(r.completed, r.slo.completed());
        // Every workload flow ends completed or denied by its ledger
        // (bounced handoffs complete at home, never as a denial).
        assert_eq!(r.completed + r.slo.denied(), r.arrivals);
        assert!(r.spend_usd <= r.budget_usd + 1e-9, "spend over budget");
        assert!(r.broker.overlay > 0, "no overlay admissions");
    }

    #[test]
    fn cross_region_retry_conserves_bytes() {
        let cfg = tiny_sharded();
        let (_, ledgers) = service_sharded_with_ledgers(&cfg, 11, 2, true);
        let mut inv = Invariants::new(1, SimDuration::from_secs(1));
        let mut handoffs = 0u64;
        let mut retried = 0u64;
        for ledger in &ledgers {
            assert!(!ledger.is_empty(), "every region sees remote flows");
            for ev in ledger {
                match *ev {
                    RemoteEvent::Requested { flow, bytes } => inv.flow_requested(flow, bytes),
                    RemoteEvent::Denied { flow } => inv.flow_denied(flow),
                    RemoteEvent::HandedOff { flow, delivered } => {
                        handoffs += 1;
                        inv.flow_killed(flow, delivered);
                    }
                    RemoteEvent::Retried { flow: _ } => retried += 1,
                    RemoteEvent::Completed { flow, delivered } => {
                        inv.flow_completed(flow, delivered);
                    }
                }
            }
        }
        assert!(handoffs > 0, "no flow ever crossed the shard boundary");
        assert!(retried > 0, "no handoff was ever bounced for retry");
        assert!(
            inv.violations().is_empty(),
            "cross-shard bytes not conserved: {:?}",
            inv.violations()
        );
    }

    #[test]
    fn ledger_flag_does_not_change_the_run() {
        let cfg = tiny_sharded();
        let (with, _) = service_sharded_with_ledgers(&cfg, 7, 2, true);
        let without = service_sharded(&cfg, 7, 2);
        assert_eq!(with.to_tsv(), without.to_tsv());
    }

    #[test]
    fn sharded_chaos_is_lane_invariant() {
        let (mut cfg, _) = chaos_planetary(true);
        cfg.service.workload.epochs = 4;
        cfg.service.workload.diurnal_period = cfg.service.workload.epoch * 4;
        cfg.faults.horizon = cfg.service.workload.horizon();
        let mut spans = Vec::new();
        let base = chaos_sharded(&cfg, 3, 7, 1, &mut |w| spans.extend_from_slice(w));
        assert!(base.spans.is_empty());
        assert_eq!(base.spans_kept, spans.len() as u64);
        for lanes in [2, 3] {
            let mut again = Vec::new();
            let r = chaos_sharded(&cfg, 3, 7, lanes, &mut |w| again.extend_from_slice(w));
            assert_eq!(r.to_tsv(), base.to_tsv(), "lanes={lanes}");
            assert_eq!(format!("{r}"), format!("{base}"), "lanes={lanes}");
            assert_eq!(again, spans, "lanes={lanes}");
        }
        assert!(base.faults.crashes > 0, "no region saw a crash");
        assert!(
            base.invariant_violations.is_empty(),
            "{:?}",
            base.invariant_violations
        );
        // Merged spans re-base onto one id stream: ids stay unique and
        // every non-root parent resolves.
        let mut seen = std::collections::HashSet::new();
        for s in &spans {
            assert!(seen.insert(s.id), "duplicate span id after re-base");
        }
        for s in &spans {
            assert!(s.parent == 0 || seen.contains(&s.parent), "dangling parent");
        }
        // Attribution conservation holds over the merged stream.
        assert_eq!(
            base.attribution.attributed_killed() + base.attribution.unattributed_killed,
            base.killed
        );
    }

    /// PIN of a known defect, kept until the planet attribution is
    /// re-goldened (ROADMAP item 4, "merge tables"). Every region numbers
    /// its faults from 0, and [`Attribution::attribute`] maps a fault
    /// index to one row, so the merged table charges every region's
    /// kills and breaches of index k to the last region's row k, and
    /// the other rows k read 0. On the smoke planet at seed 7, region
    /// 7's `cache_poison` row 0 carries 3 kills and 46,303,377 lost bytes
    /// that relay crashes in two other regions caused.
    #[test]
    fn pin_merged_attribution_charges_each_fault_index_to_its_last_row() {
        let (cfg, regions) = chaos_planetary(true);
        let merged = chaos_sharded(&cfg, regions, 7, 1, &mut |_| {}).attribution;
        // Each region's own table, as its run attributes it.
        let mut rows: Vec<(u32, FaultCharge)> = Vec::new();
        let mut unattributed = 0;
        for r in 0..regions {
            let own = regional_chaos(&cfg, region_seed(7, r), "control.pin.").attribution;
            rows.extend(own.charges.iter().map(|&c| (r, c)));
            unattributed += own.unattributed_breaches;
        }
        // The merged rows are the regional rows, by index, then region.
        rows.sort_by_key(|(_, c)| c.fault_idx);
        assert_eq!(merged.charges.len(), rows.len());
        assert_eq!(merged.unattributed_breaches, unattributed);
        for (i, (_, c)) in rows.iter().enumerate() {
            let m = merged.charges[i];
            assert_eq!(
                (m.fault_idx, m.t_ns, m.kind, m.target),
                (c.fault_idx, c.t_ns, c.kind, c.target)
            );
            let same: Vec<&FaultCharge> = rows
                .iter()
                .filter(|(_, d)| d.fault_idx == c.fault_idx)
                .map(|(_, d)| d)
                .collect();
            let last = rows.iter().rposition(|(_, d)| d.fault_idx == c.fault_idx);
            let charged = if last == Some(i) {
                (
                    same.iter().map(|d| d.killed).sum(),
                    same.iter().map(|d| d.bytes_lost).sum(),
                    same.iter().map(|d| d.breaches).sum(),
                )
            } else {
                (0, 0, 0)
            };
            assert_eq!((m.killed, m.bytes_lost, m.breaches), charged, "row {i}");
        }
        let poison = rows.iter().rposition(|(_, c)| c.fault_idx == 0).unwrap();
        assert_eq!(rows[poison].0, 7);
        let m = merged.charges[poison];
        assert_eq!(
            (m.kind, m.t_ns, m.killed, m.bytes_lost),
            ("cache_poison", 16_891_876_395, 3, 46_303_377)
        );
        // The kills belong to relay crashes of regions 4 and 3, whose
        // merged rows read 0 (checked above).
        let causes: Vec<(u32, &str, u64, u64, u64)> = rows
            .iter()
            .filter(|(_, c)| c.fault_idx == 0 && c.killed > 0)
            .map(|&(r, c)| (r, c.kind, c.t_ns, c.killed, c.bytes_lost))
            .collect();
        assert_eq!(
            causes,
            [
                (3, "relay_crash", 147_218_594_601, 1, 6_820_780),
                (4, "relay_crash", 111_783_882_913, 2, 39_482_597),
            ]
        );
    }
}
