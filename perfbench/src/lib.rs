//! Outside-in benchmark of the CRONets service days.
//!
//! One invocation runs one named workload (a simulated service day) in
//! a fresh process, at one worker thread and one shard lane. Every
//! repetition replays the day's pre-epoch set-up through the same
//! public calls the engine makes (`setup_s`), resets the resident-set
//! high-water mark, times the day's public entry point with `obs`
//! collection off (`run_s`, `peak_rss_mb`) and checks the outputs. The
//! first repetition also times the day's report stage (`report_s`).
//!
//! The traced mode adds one repetition with `obs` collection on and a
//! span around every public call the harness makes. Layers are measured
//! only from outside: the benchmark's own spans plus the counters the
//! program already publishes through `obs`.

pub mod host;
pub mod metrics;
pub mod spans;

use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use control::{FlowRequest, PathsPolicy};
use experiments::attribution::Attribution;
use experiments::chaos::{chaos_with_schedule, ChaosConfig, ChaosReport};
use experiments::run_report;
use experiments::scenario::World;
use experiments::service::{service, ServiceConfig, ServiceReport};
use experiments::sharded::{service_sharded, ShardedConfig};
use faults::FaultSchedule;
use paths::{relay_hop_price_per_gb, EnumerateConfig};
use routing::RouteCache;

use crate::host::HostRef;
use crate::metrics::{median, DayFacts, Layers};
use crate::spans::Spans;

/// Worker threads for every `exec` pool: one, so the host's second vCPU
/// never sets a day's time.
pub const THREADS: usize = 1;
/// Shard lanes for the planetary day: one, for the same reason (a
/// two-lane day waits for its slower lane at every barrier round).
pub const LANES: usize = 1;
/// The seed the workload fingerprints are pinned at.
pub const DEFAULT_SEED: u64 = 7;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper-scale service: one-hop paths, no faults.
    ServiceDay,
    /// The same day under the paper fault mix, plus its report stage.
    ChaosDay,
    /// The same day on the k-hop bandit path engine.
    MultihopDay,
    /// 64 regions of the sharded control plane on one lane.
    PlanetDay,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::ServiceDay,
        Workload::ChaosDay,
        Workload::MultihopDay,
        Workload::PlanetDay,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServiceDay => "service_day",
            Workload::ChaosDay => "chaos_day",
            Workload::MultihopDay => "multihop_day",
            Workload::PlanetDay => "planet_day",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Full size (the benchmark) or smoke size (the harness tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper and planetary configurations.
    Full,
    /// The CI smoke configurations.
    Smoke,
}

/// The input size of a day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Flow arrivals over the whole day (all regions).
    pub arrivals: u64,
    /// Epochs in the day.
    pub epochs: u32,
    /// Routable server/client pairs (all regions).
    pub pairs: u64,
    /// Relay slots of the fleet (all regions).
    pub relay_slots: u64,
}

impl Fingerprint {
    /// The pinned input size of a full-size workload at [`DEFAULT_SEED`].
    #[must_use]
    pub fn expected(w: Workload) -> Fingerprint {
        match w {
            Workload::ServiceDay | Workload::ChaosDay | Workload::MultihopDay => Fingerprint {
                arrivals: 1_002_578,
                epochs: 96,
                pairs: 1_100,
                relay_slots: 5,
            },
            Workload::PlanetDay => Fingerprint {
                arrivals: 10_403_310,
                epochs: 50,
                pairs: 768,
                relay_slots: 102_400,
            },
        }
    }
}

/// One day's configuration: what the timed call receives.
#[derive(Debug, Clone)]
enum DayConfig {
    Service(ServiceConfig),
    Chaos(ChaosConfig),
    Planet(ShardedConfig),
}

/// A workload at a scale: its configuration and where it writes.
#[derive(Debug, Clone)]
pub struct Day {
    /// Which workload.
    pub workload: Workload,
    /// Which size.
    pub scale: Scale,
    cfg: DayConfig,
    out: PathBuf,
}

impl Day {
    /// The workload's configuration at `scale`; report files and span
    /// streams go under `out`.
    #[must_use]
    pub fn new(workload: Workload, scale: Scale, out: &Path) -> Day {
        let smoke = scale == Scale::Smoke;
        let service = || {
            if smoke {
                ServiceConfig::smoke()
            } else {
                ServiceConfig::paper()
            }
        };
        let cfg = match workload {
            Workload::ServiceDay => DayConfig::Service(service()),
            Workload::MultihopDay => {
                let mut cfg = service();
                cfg.paths = PathsPolicy::MultiHop;
                cfg.khops = 2;
                DayConfig::Service(cfg)
            }
            Workload::ChaosDay => DayConfig::Chaos(if smoke {
                ChaosConfig::smoke()
            } else {
                ChaosConfig::paper()
            }),
            Workload::PlanetDay => DayConfig::Planet(if smoke {
                ShardedConfig::planetary_smoke()
            } else {
                ShardedConfig::planetary()
            }),
        };
        Day {
            workload,
            scale,
            cfg,
            out: out.to_path_buf(),
        }
    }

    /// The per-region service configuration.
    fn service_cfg(&self) -> &ServiceConfig {
        match &self.cfg {
            DayConfig::Service(c) => c,
            DayConfig::Chaos(c) => &c.service,
            DayConfig::Planet(c) => &c.service,
        }
    }

    fn regions(&self) -> u32 {
        match &self.cfg {
            DayConfig::Planet(c) => c.regions,
            _ => 1,
        }
    }

    /// The directory the report stage writes into.
    #[must_use]
    pub fn report_dir(&self) -> PathBuf {
        self.out.join(format!("report_{}", self.workload.name()))
    }
}

/// Pins the process to the benchmark's execution shape: one `exec`
/// worker and `obs` collection off.
pub fn configure() {
    exec::set_threads(THREADS);
    obs::disable();
}

/// What the set-up replay hands the timed day.
struct Prepared {
    fingerprint: Fingerprint,
    /// Routes the replay's caches computed (prefetch plus relay mesh),
    /// summed over regions: the misses the day's own set-up publishes.
    route_misses: u64,
    schedule: Option<FaultSchedule>,
}

/// The day's output, kept until the report stage and checks are done.
enum Output {
    Service(ServiceReport),
    Chaos(Box<ChaosReport>),
}

/// The outcome of the output checks of one or more repetitions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks run.
    pub run: u64,
    /// One line per failed check.
    pub failed: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed.push(what());
        }
    }

    fn absorb(&mut self, other: Checks) {
        self.run += other.run;
        self.failed.extend(other.failed);
    }

    /// Failed checks over checks run.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        self.failed.len() as f64 / self.run.max(1) as f64
    }
}

/// One repetition: set-up replay, the timed day, the report stage.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of the set-up replay, s.
    pub setup_s: f64,
    /// Wall time of the day call, s.
    pub run_s: f64,
    /// Resident-set high-water mark of the day, MB (0 where the kernel
    /// does not report it).
    pub peak_rss_mb: f64,
    /// Wall time of the report stage, s, where this repetition ran it.
    pub report_s: Option<f64>,
    /// Spans kept and overwritten by the day (chaos only).
    pub spans_kept: u64,
    /// Spans the ring overwrote (chaos only).
    pub spans_dropped: u64,
    /// The day's input size, from the replay and the report.
    pub fingerprint: Fingerprint,
    /// FNV-1a digests of the day's result TSVs, `(file, digest)`.
    pub digests: Vec<(&'static str, u64)>,
    /// This repetition's output checks.
    pub checks: Checks,
}

/// SplitMix64 over `(seed, region)`: the sharded engine's per-region
/// seed substream, which the planetary set-up replay must reproduce.
#[must_use]
fn region_seed(seed: u64, region: u32) -> u64 {
    let mut z = seed ^ (u64::from(region).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string.
#[must_use]
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Replays one region's pre-epoch set-up: world, warmed route cache
/// over the pair catalogue, candidate chains (multihop) and every
/// epoch's arrivals. Returns `(pairs, arrivals, route misses)`.
fn replay_region(svc: &ServiceConfig, seed: u64, tr: &mut Spans) -> (u64, u64, u64) {
    let world = tr.span("scenario.build", |_| World::build(&svc.scenario, seed));
    let multihop = svc.paths == PathsPolicy::MultiHop;
    let (cache, pairs) = tr.span("routing.prefetch", |_| {
        let mut cache = RouteCache::build(&world.net);
        let nodes = world.cronet.nodes();
        let mut keys = Vec::new();
        for &s in &world.servers {
            keys.extend(world.clients.iter().map(|&c| (s, c)));
            keys.extend(nodes.iter().map(|n| (s, n.vm())));
        }
        for n in nodes {
            keys.extend(world.clients.iter().map(|&c| (n.vm(), c)));
        }
        cache.prefetch(&world.net, &keys);
        if multihop {
            let mesh: Vec<_> = nodes
                .iter()
                .flat_map(|a| {
                    nodes
                        .iter()
                        .filter(move |b| b.vm() != a.vm())
                        .map(move |b| (a.vm(), b.vm()))
                })
                .collect();
            cache.prefetch(&world.net, &mesh);
        }
        let pairs: Vec<_> = world
            .servers
            .iter()
            .flat_map(|&s| world.clients.iter().map(move |&c| (s, c)))
            .filter(|&(s, c)| cache.route(&world.net, s, c).is_some())
            .collect();
        (cache, pairs)
    });
    if multihop {
        tr.span("paths.enumerate", |_| {
            let ecfg = EnumerateConfig::khops(svc.khops);
            let hop_price = relay_hop_price_per_gb(svc.fleet.port, svc.fleet.plan);
            let nodes = world.cronet.nodes();
            let cands: Vec<_> = pairs
                .iter()
                .map(|&(s, c)| paths::enumerate(&world.net, &cache, nodes, s, c, &ecfg, hop_price))
                .collect();
            black_box(cands);
        });
    }
    let arrivals = tr.span("control.workload.gen", |_| {
        let by_epoch: Vec<Vec<FlowRequest>> = (0..svc.workload.epochs)
            .map(|e| svc.workload.epoch_arrivals(seed, e))
            .collect();
        black_box(&by_epoch);
        by_epoch.iter().map(|a| a.len() as u64).sum::<u64>()
    });
    (pairs.len() as u64, arrivals, cache.misses())
}

/// Replays the whole day's set-up (every region, plus the fault
/// schedule the chaos day is then given).
fn replay(day: &Day, seed: u64, tr: &mut Spans) -> Prepared {
    let svc = day.service_cfg();
    let regions = day.regions();
    let mut pairs = 0;
    let mut arrivals = 0;
    let mut route_misses = 0;
    for r in 0..regions {
        let rs = if regions == 1 {
            seed
        } else {
            region_seed(seed, r)
        };
        let (p, a, m) = replay_region(svc, rs, tr);
        pairs += p;
        arrivals += a;
        route_misses += m;
    }
    let schedule = match &day.cfg {
        DayConfig::Chaos(c) => Some(tr.span("faults.generate", |_| {
            FaultSchedule::generate(&c.faults, seed)
        })),
        _ => None,
    };
    Prepared {
        fingerprint: Fingerprint {
            arrivals,
            epochs: svc.workload.epochs,
            pairs,
            relay_slots: (svc.fleet.relays as u64) * u64::from(regions),
        },
        route_misses,
        schedule,
    }
}

/// Runs the timed call: `service`, `chaos_with_schedule` or
/// `service_sharded` on one lane.
fn run_day(day: &Day, seed: u64, prep: &Prepared) -> Output {
    match &day.cfg {
        DayConfig::Service(c) => Output::Service(service(black_box(c), seed)),
        DayConfig::Chaos(c) => {
            let schedule = prep
                .schedule
                .as_ref()
                .expect("the chaos replay generates a schedule");
            Output::Chaos(Box::new(chaos_with_schedule(black_box(c), seed, schedule)))
        }
        DayConfig::Planet(c) => Output::Service(service_sharded(black_box(c), seed, LANES)),
    }
}

/// Empties (or creates) the report directory.
fn fresh_dir(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    fs::create_dir_all(dir)
}

/// The day's result TSVs as `cronets` writes them: `(file, body)`.
fn result_tsvs(out: &Output) -> Vec<(&'static str, String)> {
    match out {
        Output::Service(r) => vec![("service.tsv", r.to_tsv())],
        Output::Chaos(r) => vec![
            ("chaos.tsv", r.to_tsv()),
            ("attribution.tsv", r.attribution.to_tsv()),
        ],
    }
}

/// Renders the day's result files into the empty `dir` and assembles the
/// run report over them: what `cronets <day> [--spans]` followed by
/// `cronets report` costs. Returns the rendered result TSVs.
fn report_stage(
    out: &Output,
    dir: &Path,
    tr: &mut Spans,
) -> io::Result<Vec<(&'static str, String)>> {
    let tsvs = tr.span("render.tsv", |_| -> io::Result<_> {
        let tsvs = result_tsvs(out);
        for (name, body) in &tsvs {
            fs::write(dir.join(name), body)?;
        }
        Ok(tsvs)
    })?;
    if let Output::Chaos(r) = out {
        tr.span("render.spans", |_| {
            obs::write_tsv(
                dir,
                "spans_chaos.tsv",
                "t_ns\tid\tparent\tkind\tsubject\ta\tb",
                r.spans.iter().map(obs::SpanRecord::to_tsv),
            )
        })?;
    }
    tr.span("run_report.assemble", |_| -> io::Result<()> {
        let report = run_report::assemble(dir)?;
        black_box(report.to_string());
        black_box(report.to_openmetrics());
        Ok(())
    })?;
    Ok(tsvs)
}

/// Output checks of one day against its replayed set-up. `day_misses`
/// is the day's published `routing.route_cache.misses` (traced only).
fn check_output(
    day: &Day,
    seed: u64,
    prep: &Prepared,
    out: &Output,
    day_misses: Option<u64>,
) -> Checks {
    let mut c = Checks::default();
    let (arrivals, rows, slo, spend, budget) = match out {
        Output::Service(r) => (r.arrivals, r.rows.len(), &r.slo, r.spend_usd, r.budget_usd),
        Output::Chaos(r) => (r.arrivals, r.rows.len(), &r.slo, r.spend_usd, r.budget_usd),
    };
    let slo_completed = slo.completed();
    let denied: u64 = slo.tenants().iter().map(|t| t.denied).sum();
    let fp = prep.fingerprint;
    c.check(slo_completed + denied == arrivals, || {
        format!("{slo_completed} SLO completions + {denied} SLO denials != {arrivals} arrivals")
    });
    c.check(spend <= budget + 1e-9, || {
        format!("spend ${spend} over budget ${budget}")
    });
    c.check(rows == fp.epochs as usize, || {
        format!("{rows} result rows for {} epochs", fp.epochs)
    });
    c.check(arrivals == fp.arrivals, || {
        format!(
            "the day drew {arrivals} arrivals, its set-up replay {}",
            fp.arrivals
        )
    });
    if let Some(m) = day_misses {
        c.check(m == prep.route_misses, || {
            format!(
                "the day computed {m} routes, its set-up replay {}",
                prep.route_misses
            )
        });
    }
    if let Output::Chaos(r) = out {
        c.check(r.invariant_violations.is_empty(), || {
            format!("{} invariant violations", r.invariant_violations.len())
        });
    }
    if day.scale == Scale::Full && seed == DEFAULT_SEED {
        let want = Fingerprint::expected(day.workload);
        c.check(fp == want, || {
            format!("workload fingerprint {fp:?}, pinned {want:?}")
        });
    }
    c
}

/// Returns freed heap pages to the kernel and resets the resident-set
/// high-water mark, so `VmHWM` read after the day is the day's own
/// peak rather than the set-up replay's.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain integer, touches
        // only the allocator's own free lists, and is safe to call at
        // any point outside a signal handler.
        unsafe {
            malloc_trim(0);
        }
    }
    // Best effort: kernels without clear_refs leave the mark in place.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MB, or 0 where unavailable.
#[must_use]
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one repetition, with the report stage when `report` is set. A
/// traced recorder (`tr.on()`) also turns `obs` collection on around the
/// day call and returns the per-layer table.
///
/// # Errors
///
/// Propagates I/O errors of the report stage.
pub fn run_rep(
    day: &Day,
    seed: u64,
    report: bool,
    tr: &mut Spans,
) -> io::Result<(Rep, Option<Layers>)> {
    let traced = tr.on();
    let t = Instant::now();
    let prep = tr.span("setup", |tr| replay(day, seed, tr));
    let setup_s = t.elapsed().as_secs_f64();

    reset_peak_rss();
    if traced {
        obs::enable();
    }
    let t = Instant::now();
    let out = tr.span("day", |_| run_day(day, seed, &prep));
    let run_s = t.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    let snapshot = traced.then(|| {
        obs::disable();
        obs::snapshot()
    });

    let (spans_kept, spans_dropped) = match &out {
        Output::Chaos(r) => (r.spans.len() as u64, r.span_dropped),
        Output::Service(_) => (0, 0),
    };
    let mut facts = DayFacts {
        spans_kept,
        day_s: run_s,
        ..DayFacts::default()
    };
    if let (true, Output::Chaos(r)) = (traced, &out) {
        let a = tr.span("attribution.attribute", |_| {
            Attribution::attribute(&r.spans)
        });
        facts.kills_attributed = a.attributed_killed();
        facts.breaches_attributed = a.attributed_breaches();
    }

    let (tsvs, report_s) = if report {
        let dir = day.report_dir();
        fresh_dir(&dir)?;
        let t = Instant::now();
        let tsvs = tr.span("report", |tr| report_stage(&out, &dir, tr))?;
        (tsvs, Some(t.elapsed().as_secs_f64()))
    } else {
        (result_tsvs(&out), None)
    };
    let digests = tsvs
        .iter()
        .map(|(f, b)| (*f, fnv1a(b.as_bytes())))
        .collect();
    let day_misses = snapshot
        .as_ref()
        .map(|s| match s.get("routing.route_cache.misses") {
            Some(obs::SnapValue::Counter(c)) => *c,
            _ => 0,
        });
    let checks = check_output(day, seed, &prep, &out, day_misses);
    let layers = snapshot.map(|s| Layers::collect(&s, tr, facts));
    Ok((
        Rep {
            setup_s,
            run_s,
            peak_rss_mb,
            report_s,
            spans_kept,
            spans_dropped,
            fingerprint: prep.fingerprint,
            digests,
            checks,
        },
        layers,
    ))
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Summary {
    /// The untraced repetitions.
    pub reps: Vec<Rep>,
    /// Every untraced set-up replay's wall time, s: one per repetition,
    /// then the replays that filled the rest of the run.
    pub setups: Vec<f64>,
    /// The traced repetition's per-layer table (traced mode only),
    /// including `trace_overhead_s`.
    pub layers: Option<Layers>,
    /// Where the traced repetition's span stream was written.
    pub spans_file: Option<PathBuf>,
    /// The host reference, timed before the first repetition.
    pub host: HostRef,
    /// Every output check of every repetition.
    pub checks: Checks,
}

impl Summary {
    /// Median over the untraced repetitions of one [`Rep`] field.
    #[must_use]
    pub fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }
}

/// Runs `day` for about `seconds` of untraced repetitions, then, when
/// `traced`, one traced repetition whose span stream is written to the
/// day's output directory. At least one untraced repetition runs, and
/// another starts only if it is expected to end in time.
///
/// # Errors
///
/// Propagates I/O errors of the report stage and the span stream.
pub fn run_workload(day: &Day, seed: u64, seconds: f64, traced: bool) -> io::Result<Summary> {
    configure();
    let host = host::measure();
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let t = Instant::now();
        // The report stage runs in the first repetition only: on
        // chaos_day it takes longer than the day, and the days are
        // what the end-to-end metrics need more samples of.
        reps.push(run_rep(day, seed, reps.is_empty(), &mut Spans::new(false))?.0);
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    // Fill what is left of the run with set-up replays alone, so the
    // set-up median rests on several samples even when one day takes
    // most of the run.
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut last = setups[setups.len() - 1];
    while start.elapsed().as_secs_f64() + last <= seconds {
        let t = Instant::now();
        black_box(replay(day, seed, &mut Spans::new(false)));
        last = t.elapsed().as_secs_f64();
        setups.push(last);
    }
    let mut checks = Checks::default();
    let first = reps[0].digests.clone();
    let check_rep = |checks: &mut Checks, rep: &Rep| {
        checks.absorb(rep.checks.clone());
        // One seed, one output: every repetition renders the same TSVs.
        checks.check(rep.digests == first, || {
            format!("result digests {:?} differ from {first:?}", rep.digests)
        });
    };
    for rep in &reps {
        check_rep(&mut checks, rep);
    }
    let mut summary = Summary {
        reps,
        setups,
        layers: None,
        spans_file: None,
        host,
        checks: Checks::default(),
    };
    if traced {
        let mut tr = Spans::new(true);
        let (rep, layers) = run_rep(day, seed, true, &mut tr)?;
        check_rep(&mut checks, &rep);
        let mut layers = layers.expect("a traced repetition collects layers");
        let overhead = layers.values["trace.day_s"] - summary.median_of(|r| r.run_s);
        layers.values.insert("trace_overhead_s".into(), overhead);
        let path = day
            .out
            .join(format!("spans_{}_seed{seed}.tsv", day.workload.name()));
        fs::write(&path, tr.to_tsv())?;
        summary.layers = Some(layers);
        summary.spans_file = Some(path);
    }
    summary.checks = checks;
    // The chaos report directory holds a 148 MB span file; leave only
    // the span stream behind.
    fs::remove_dir_all(day.report_dir())?;
    Ok(summary)
}
