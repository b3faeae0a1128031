//! Multi-hop path-engine evaluation: online bandit vs. static selector
//! vs. an MPTCP-OLIA proxy on the §VI flows, clean and under faults.
//!
//! The world is the Fig. 12/13 setup — nine independently rented
//! servers, keeping the `n_pairs` worst-direct pairs — but instead of a
//! one-shot iperf the pairs live through a day of congestion epochs,
//! optionally under a deterministic [`faults::FaultSchedule`]. Three
//! selection policies run side by side over identical per-epoch ground
//! truth:
//!
//! * **bandit** — the [`paths`] engine: UCB over EWMA goodput estimates
//!   across all k-hop candidate chains, a fixed probe budget per epoch,
//!   and free feedback from the carried flow. Re-ranks every epoch, so
//!   a crashed relay or a poisoned estimate is routed around as soon as
//!   the feasibility filter or a fresh observation exposes it.
//! * **static** — the paper's implicit baseline: every `probe_every`
//!   epochs, probe every one-hop path and latch the best one that clears
//!   the threshold over direct; ride that choice (falling back to
//!   direct while its relay is down) until the next refresh.
//! * **olia-proxy** — the Fig. 12 empirical characterization, "MPTCP
//!   reliably achieves about the maximum overlay throughput": scored as
//!   the per-epoch maximum over direct and all feasible one-hop paths.
//!   An analytic stand-in — running the packet-level MPTCP DES for every
//!   (pair, epoch, schedule) cell would dwarf the rest of the suite.
//!
//! Probe blackholes starve the bandit's budgeted refresh and the static
//! selector's sweep alike (carried-flow feedback still reaches the
//! bandit — it is data-plane, not probe traffic). Cache poisons make the
//! bandit forget its confidence. Everything is a pure function of
//! `(config, seed)` at any `--threads N`: per-epoch arm scoring fans out
//! through `exec::parallel_map` in pair order, and each bandit draws
//! from its own forked substream.

use std::collections::BTreeMap;
use std::fmt;

use cronets::eval::quality;
use cronets::{OverlayNode, TunnelKind};
use faults::{FaultConfig, FaultKind, FaultSchedule};
use paths::{
    enumerate, evaluate, relay_hop_price_per_gb, ArmEval, BanditConfig, Candidate, EnumerateConfig,
    PathBandit,
};
use routing::RouteCache;
use simcore::{SimDuration, SimRng};
use topology::{LinkId, RouterId};
use transport::model::{tcp_throughput, TcpParams};

use cloud::pricing::{PortSpeed, TrafficPlan};

use crate::mptcp_exp::nine_scattered_servers;

/// Configuration of the multi-hop evaluation.
#[derive(Debug, Clone)]
pub struct MultihopConfig {
    /// How many worst-direct VM pairs to keep (the paper's 15).
    pub n_pairs: usize,
    /// Congestion epochs per schedule.
    pub epochs: u32,
    /// Epoch length.
    pub epoch: SimDuration,
    /// Maximum relay hops per candidate chain (1..=3).
    pub khops: usize,
    /// The static selector's refresh cadence, in epochs.
    pub probe_every: u32,
    /// The static selector's threshold: an overlay must beat
    /// `static_margin x` the direct path at refresh time to be latched.
    pub static_margin: f64,
    /// Seed.
    pub seed: u64,
}

impl MultihopConfig {
    /// CI-sized run: three worst pairs, a dozen epochs per schedule.
    #[must_use]
    pub fn smoke(seed: u64) -> MultihopConfig {
        MultihopConfig {
            n_pairs: 3,
            epochs: 12,
            epoch: SimDuration::from_secs(150),
            khops: 2,
            probe_every: 4,
            static_margin: 1.05,
            seed,
        }
    }

    /// Paper-scale run: the fifteen Fig. 12/13 pairs over two hours.
    #[must_use]
    pub fn paper(seed: u64) -> MultihopConfig {
        MultihopConfig {
            n_pairs: 15,
            epochs: 48,
            epoch: SimDuration::from_secs(150),
            khops: 2,
            probe_every: 4,
            static_margin: 1.05,
            seed,
        }
    }

    fn horizon(&self) -> SimDuration {
        self.epoch * u64::from(self.epochs)
    }
}

/// The three fault schedules every policy runs under.
///
/// `None` is the clean baseline; the other two exercise distinct fault
/// families so the verdict can name *which* nemesis the bandit survives.
fn schedules(cfg: &MultihopConfig) -> Vec<(&'static str, Option<FaultConfig>)> {
    let horizon = cfg.horizon();
    let calm = SimDuration::from_secs(1_000_000_000);
    vec![
        ("clean", None),
        (
            "crashes",
            Some(FaultConfig {
                relays: 9,
                horizon,
                relay_mtbf: SimDuration::from_secs(600),
                relay_mttr: SimDuration::from_secs(150),
                mttr_cap: SimDuration::from_secs(400),
                dc_outage_per_hour: 0.5,
                dc_group: 2,
                link_flap_per_hour: 0.0,
                link_flap_mean: calm,
                link_severity: 0.95,
                blackhole_per_hour: 0.0,
                blackhole_mean: calm,
                poison_per_hour: 0.0,
                poison_age: horizon,
            }),
        ),
        (
            "flaky",
            Some(FaultConfig {
                relays: 9,
                horizon,
                relay_mtbf: calm,
                relay_mttr: SimDuration::from_secs(150),
                mttr_cap: SimDuration::from_secs(400),
                dc_outage_per_hour: 0.0,
                dc_group: 2,
                link_flap_per_hour: 6.0,
                link_flap_mean: SimDuration::from_secs(300),
                link_severity: 0.95,
                blackhole_per_hour: 6.0,
                blackhole_mean: SimDuration::from_secs(300),
                poison_per_hour: 2.0,
                poison_age: horizon,
            }),
        ),
    ]
}

/// One epoch of one schedule (a row of `results/multihop.tsv`).
#[derive(Debug, Clone)]
pub struct MultihopRow {
    /// Schedule name (`clean`, `crashes`, `flaky`).
    pub schedule: &'static str,
    /// Epoch index within the schedule.
    pub epoch: u32,
    /// Servers down this epoch (sampled at the epoch midpoint).
    pub down: usize,
    /// Whether probe traffic was blackholed this epoch.
    pub blackhole: bool,
    /// Mean goodput across pairs under the bandit policy, Mbit/s.
    pub bandit_mbps: f64,
    /// Mean goodput under the static one-hop selector, Mbit/s.
    pub static_mbps: f64,
    /// Mean goodput under the OLIA proxy (per-epoch max), Mbit/s.
    pub olia_mbps: f64,
}

/// Aggregate of one schedule: mean per-epoch goodput per policy.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleSummary {
    /// Schedule name.
    pub schedule: &'static str,
    /// Bandit mean, Mbit/s.
    pub bandit_mbps: f64,
    /// Static-selector mean, Mbit/s.
    pub static_mbps: f64,
    /// OLIA-proxy mean, Mbit/s.
    pub olia_mbps: f64,
}

/// The completed evaluation.
#[derive(Debug, Clone)]
pub struct MultihopReport {
    /// One row per (schedule, epoch).
    pub rows: Vec<MultihopRow>,
    /// One aggregate per schedule, in schedule order.
    pub summaries: Vec<ScheduleSummary>,
    /// Pairs kept (worst-direct).
    pub n_pairs: usize,
    /// Chain-length bound used.
    pub khops: usize,
    /// Candidate arms per pair (after pruning), pair-ordered.
    pub arms_per_pair: Vec<usize>,
}

impl MultihopReport {
    /// The epoch table as TSV (with a `#`-prefixed header).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "# schedule\tepoch\tdown\tblackhole\tbandit_mbps\tstatic_mbps\tolia_mbps\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{:.4}\t{:.4}\t{:.4}\n",
                r.schedule,
                r.epoch,
                r.down,
                u8::from(r.blackhole),
                r.bandit_mbps,
                r.static_mbps,
                r.olia_mbps,
            ));
        }
        out
    }

    /// Schedules where the bandit's aggregate strictly beats the static
    /// selector's.
    #[must_use]
    pub fn bandit_wins(&self) -> Vec<&'static str> {
        self.summaries
            .iter()
            .filter(|s| s.bandit_mbps > s.static_mbps)
            .map(|s| s.schedule)
            .collect()
    }
}

impl fmt::Display for MultihopReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== multi-hop path engine: bandit vs static vs OLIA proxy ==="
        )?;
        writeln!(
            f,
            "{} worst-direct pairs, k <= {} hops, {}-{} arms per pair",
            self.n_pairs,
            self.khops,
            self.arms_per_pair.iter().min().copied().unwrap_or(0),
            self.arms_per_pair.iter().max().copied().unwrap_or(0),
        )?;
        writeln!(
            f,
            "{:>10} {:>14} {:>14} {:>14}",
            "schedule", "bandit Mb/s", "static Mb/s", "OLIA proxy"
        )?;
        for s in &self.summaries {
            writeln!(
                f,
                "{:>10} {:>14.2} {:>14.2} {:>14.2}",
                s.schedule, s.bandit_mbps, s.static_mbps, s.olia_mbps
            )?;
        }
        let wins = self.bandit_wins();
        writeln!(
            f,
            "bandit strictly beats static on: {}",
            if wins.is_empty() {
                "none".to_string()
            } else {
                wins.join(", ")
            }
        )?;
        Ok(())
    }
}

/// Per-epoch fault state, sampled at the epoch midpoint from the
/// schedule's window events.
struct EpochFaults {
    /// Which of the nine servers are down.
    down: Vec<bool>,
    /// Open link-degradation windows: salt → severity floor.
    degraded: Vec<(u64, f64)>,
    /// Probe traffic blackholed.
    blackhole: bool,
    /// A cache poisoning landed since the previous sample.
    poisoned: bool,
}

/// Replays the schedule into per-epoch midpoint snapshots.
fn epoch_faults(
    schedule: &FaultSchedule,
    epochs: u32,
    epoch: SimDuration,
    relays: usize,
) -> Vec<EpochFaults> {
    let mut down = vec![false; relays];
    let mut degraded: BTreeMap<u64, f64> = BTreeMap::new();
    let mut blackhole_depth: u32 = 0;
    let mut cursor = 0usize;
    let events = schedule.events();
    (0..epochs)
        .map(|e| {
            let midpoint = simcore::SimTime::ZERO + epoch * u64::from(e) + epoch / 2;
            let mut poisoned = false;
            while cursor < events.len() && events[cursor].at <= midpoint {
                match events[cursor].kind {
                    FaultKind::RelayCrash { relay } => down[relay] = true,
                    FaultKind::RelayRestore { relay } => down[relay] = false,
                    FaultKind::LinkDegrade { salt, severity } => {
                        degraded.insert(salt, severity);
                    }
                    FaultKind::LinkClear { salt } => {
                        degraded.remove(&salt);
                    }
                    FaultKind::ProbeBlackholeStart => blackhole_depth += 1,
                    FaultKind::ProbeBlackholeEnd => blackhole_depth -= 1,
                    FaultKind::CachePoison { .. } => poisoned = true,
                }
                cursor += 1;
            }
            EpochFaults {
                down: down.clone(),
                degraded: degraded.iter().map(|(&s, &v)| (s, v)).collect(),
                blackhole: blackhole_depth > 0,
                poisoned,
            }
        })
        .collect()
}

/// One kept pair's fixed evaluation state.
struct Pair {
    src: RouterId,
    dst: RouterId,
    /// The seven non-endpoint servers, wrapped as relay nodes. Arm hop
    /// indices index into this slice.
    relays: Vec<OverlayNode>,
    /// `relays[i]`'s index in the nine-server list (for the down set).
    server_of: Vec<usize>,
    cands: Vec<Candidate>,
}

/// Runs the evaluation. Deterministic in `config` at any thread count.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (`khops` out of range, no
/// routable pair).
#[must_use]
pub fn multihop(cfg: &MultihopConfig) -> MultihopReport {
    let mut rows: Vec<MultihopRow> = Vec::new();
    let mut arms_per_pair = Vec::new();
    for (si, (name, fcfg)) in schedules(cfg).into_iter().enumerate() {
        let (schedule_rows, arms) = run_schedule(cfg, si as u64, name, fcfg.as_ref());
        rows.extend(schedule_rows);
        arms_per_pair = arms;
    }
    let summaries = schedules(cfg)
        .iter()
        .map(|(name, _)| {
            let sched: Vec<&MultihopRow> = rows.iter().filter(|r| r.schedule == *name).collect();
            let n = sched.len().max(1) as f64;
            ScheduleSummary {
                schedule: name,
                bandit_mbps: sched.iter().map(|r| r.bandit_mbps).sum::<f64>() / n,
                static_mbps: sched.iter().map(|r| r.static_mbps).sum::<f64>() / n,
                olia_mbps: sched.iter().map(|r| r.olia_mbps).sum::<f64>() / n,
            }
        })
        .collect();
    MultihopReport {
        rows,
        summaries,
        n_pairs: cfg.n_pairs,
        khops: cfg.khops,
        arms_per_pair,
    }
}

/// Runs the three policies through one schedule. Returns the epoch rows
/// plus the per-pair arm counts (identical across schedules — the world
/// and enumeration are rebuilt from the same seed).
fn run_schedule(
    cfg: &MultihopConfig,
    si: u64,
    name: &'static str,
    fcfg: Option<&FaultConfig>,
) -> (Vec<MultihopRow>, Vec<usize>) {
    assert!(cfg.probe_every >= 1, "probe_every must be at least 1");
    let (mut world, vms) = nine_scattered_servers(cfg.seed);
    let params = TcpParams::default();

    let mut cache = RouteCache::build(&world.net);
    let mesh: Vec<(RouterId, RouterId)> = vms
        .iter()
        .flat_map(|&a| vms.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect();
    cache.prefetch(&world.net, &mesh);

    // The Fig. 12/13 pre-selection: keep the worst direct pairs by the
    // analytic model under the build-time congestion state.
    let mut ranked: Vec<(usize, usize, f64)> = Vec::new();
    for (ai, &a) in vms.iter().enumerate() {
        for (bi, &b) in vms.iter().enumerate() {
            if ai == bi {
                continue;
            }
            if let Some(p) = cache.route(&world.net, a, b) {
                ranked.push((ai, bi, tcp_throughput(&quality(&world.net, &p), &params)));
            }
        }
    }
    assert!(!ranked.is_empty(), "no routable server pair");
    ranked.sort_by(|x, y| x.2.partial_cmp(&y.2).unwrap());
    ranked.truncate(cfg.n_pairs);

    let ecfg = EnumerateConfig::khops(cfg.khops);
    let hop_price = relay_hop_price_per_gb(PortSpeed::Mbps100, TrafficPlan::Gb5000);
    let pairs: Vec<Pair> = ranked
        .iter()
        .map(|&(ai, bi, _)| {
            let (relays, server_of): (Vec<OverlayNode>, Vec<usize>) = vms
                .iter()
                .enumerate()
                .filter(|&(vi, _)| vi != ai && vi != bi)
                .map(|(vi, &vm)| {
                    // CronetBuilder's software-forwarding defaults.
                    (
                        OverlayNode::new(vm, SimDuration::from_micros(300), 0.97),
                        vi,
                    )
                })
                .unzip();
            let cands = enumerate(
                &world.net, &cache, &relays, vms[ai], vms[bi], &ecfg, hop_price,
            );
            Pair {
                src: vms[ai],
                dst: vms[bi],
                relays,
                server_of,
                cands,
            }
        })
        .collect();
    let arms: Vec<usize> = pairs.iter().map(|p| p.cands.len()).collect();

    let mut bandits: Vec<PathBandit> = pairs
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let rng = SimRng::seed_from(cfg.seed)
                .fork(0xB0_D175)
                .fork(si << 32 | pi as u64);
            PathBandit::new(BanditConfig::service(), p.cands.len(), rng)
        })
        .collect();
    // The static selector's latched arm per pair (0 = direct).
    let mut latched: Vec<usize> = vec![0; pairs.len()];

    let flap_victims: Vec<LinkId> = world
        .net
        .links()
        .filter(|l| l.kind().is_inter_as())
        .map(|l| l.id())
        .collect();
    let schedule = fcfg.map(|fc| FaultSchedule::generate(fc, cfg.seed ^ si));
    let faults: Vec<EpochFaults> = match &schedule {
        Some(s) => epoch_faults(s, cfg.epochs, cfg.epoch, vms.len()),
        None => (0..cfg.epochs)
            .map(|_| EpochFaults {
                down: vec![false; vms.len()],
                degraded: Vec::new(),
                blackhole: false,
                poisoned: false,
            })
            .collect(),
    };

    let budget = BanditConfig::service().probe_budget as usize;
    let mut rows = Vec::with_capacity(cfg.epochs as usize);
    for e in 0..cfg.epochs {
        if e > 0 {
            // Same epoch label across schedules: identical base
            // congestion, so schedules differ only by their faults.
            world.step_epoch(u64::from(e));
        }
        let ef = &faults[e as usize];
        for &(salt, severity) in &ef.degraded {
            if !flap_victims.is_empty() {
                let link = flap_victims[(salt % flap_victims.len() as u64) as usize];
                let l = world.net.link_mut(link);
                l.set_level(l.level().max(severity));
            }
        }

        // Ground truth: every pair's fixed arms under this epoch's
        // network state, one parallel unit per pair, merged in order.
        let (net, shared, prs) = (&world.net, &cache, &pairs);
        let truth: Vec<Vec<ArmEval>> = exec::parallel_map(pairs.len(), |pi| {
            let p = &prs[pi];
            evaluate(
                net,
                shared,
                &p.relays,
                p.src,
                p.dst,
                TunnelKind::Gre,
                &params,
                &p.cands,
            )
        });

        let feasible = |p: &Pair, arm: usize| -> bool {
            p.cands[arm].hops.iter().all(|h| !ef.down[p.server_of[h]])
        };

        let (mut b_sum, mut s_sum, mut o_sum) = (0.0f64, 0.0f64, 0.0f64);
        for (pi, p) in pairs.iter().enumerate() {
            let t = &truth[pi];

            // Bandit: budgeted probe refresh (starved by blackholes),
            // then the best-scored feasible arm carries the epoch's
            // traffic and feeds its real rate back for free.
            let bd = &mut bandits[pi];
            if ef.poisoned {
                bd.forget();
            }
            if e == 0 {
                for (arm, at) in t.iter().enumerate() {
                    bd.observe(arm, at.bps);
                }
            } else if !ef.blackhole {
                for arm in bd.probe_plan(budget) {
                    bd.observe(arm, t[arm].bps);
                }
            }
            let chosen = bd.best_arm(|arm| feasible(p, arm)).unwrap_or(0);
            bd.observe(chosen, t[chosen].bps);
            b_sum += t[chosen].bps;

            // Static: sweep all one-hop paths at the refresh cadence,
            // latch the best that clears the threshold; between
            // refreshes ride it, failing over to direct while its relay
            // is down.
            if e % cfg.probe_every == 0 && !ef.blackhole {
                let best = (1..p.cands.len())
                    .filter(|&arm| p.cands[arm].hops.len() == 1 && feasible(p, arm))
                    .max_by(|&x, &y| t[x].bps.partial_cmp(&t[y].bps).unwrap());
                latched[pi] = match best {
                    Some(arm) if t[arm].bps >= cfg.static_margin * t[0].bps => arm,
                    _ => 0,
                };
            }
            let s_arm = if feasible(p, latched[pi]) {
                latched[pi]
            } else {
                0
            };
            s_sum += t[s_arm].bps;

            // OLIA proxy: the per-epoch maximum over direct and every
            // feasible one-hop path (Fig. 12's empirical shape).
            o_sum += (0..p.cands.len())
                .filter(|&arm| p.cands[arm].hops.len() <= 1 && feasible(p, arm))
                .map(|arm| t[arm].bps)
                .fold(0.0, f64::max);
        }

        let n = pairs.len() as f64;
        rows.push(MultihopRow {
            schedule: name,
            epoch: e,
            down: ef.down.iter().filter(|&&d| d).count(),
            blackhole: ef.blackhole,
            bandit_mbps: b_sum / n / 1e6,
            static_mbps: s_sum / n / 1e6,
            olia_mbps: o_sum / n / 1e6,
        });
    }
    (rows, arms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prevalence::DEFAULT_SEED;
    use std::sync::OnceLock;

    fn report() -> &'static MultihopReport {
        static R: OnceLock<MultihopReport> = OnceLock::new();
        R.get_or_init(|| multihop(&MultihopConfig::smoke(DEFAULT_SEED)))
    }

    #[test]
    fn covers_every_schedule_and_epoch() {
        let r = report();
        assert_eq!(r.rows.len(), 3 * 12);
        assert_eq!(r.summaries.len(), 3);
        assert!(r.arms_per_pair.iter().all(|&a| a > 8), "2-hop arms missing");
    }

    #[test]
    fn faults_actually_fire() {
        let r = report();
        assert!(
            r.rows
                .iter()
                .any(|row| row.schedule == "crashes" && row.down > 0),
            "no crash window sampled"
        );
        assert!(
            r.rows
                .iter()
                .any(|row| row.schedule == "flaky" && row.blackhole),
            "no blackhole sampled"
        );
    }

    #[test]
    fn bandit_matches_static_when_clean_and_beats_it_under_faults() {
        let r = report();
        let clean = &r.summaries[0];
        assert!(
            clean.bandit_mbps >= clean.static_mbps * 0.999,
            "bandit {:.2} lost to static {:.2} on clean",
            clean.bandit_mbps,
            clean.static_mbps
        );
        assert!(
            !r.bandit_wins().is_empty(),
            "bandit strictly won no schedule: {:?}",
            r.summaries
        );
    }

    #[test]
    fn run_is_deterministic() {
        let a = multihop(&MultihopConfig::smoke(5));
        let b = multihop(&MultihopConfig::smoke(5));
        assert_eq!(a.to_tsv(), b.to_tsv());
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn display_renders_verdict() {
        let s = report().to_string();
        assert!(s.contains("bandit strictly beats static on:"));
        assert!(s.contains("schedule"));
    }
}
