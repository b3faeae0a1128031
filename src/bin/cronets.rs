//! `cronets` — command-line runner for the reproduction experiments.
//!
//! ```text
//! cronets list
//! cronets fig2 [--seed N] [--threads N] [--metrics] [--trace FLOW]
//! cronets all  [--seed N] [--threads N] [--metrics]
//! ```
//!
//! `--threads N` sets the worker-pool size for the parallel sweep and
//! DES stages (default: the machine's available parallelism). Output is
//! byte-identical at every thread count: work is split into indexed
//! units, seeded from `(seed, unit index)`, and merged in unit order.
//!
//! `--metrics` turns on the deterministic telemetry layer: the run
//! prints a metric snapshot (sim-time counters/gauges/histograms across
//! the DES, dataplane and experiment layers) and writes a per-run
//! manifest (`manifest_<name>.tsv` / `.jsonl`) into `./results/`.
//! Wall-clock phase timings go to stderr and the manifest's `phase`
//! records only, so stdout stays byte-identical across repeated runs.
//!
//! `--trace FLOW` additionally records the segment-level event trace of
//! one DES flow id into `./results/trace_<name>.tsv`.
//!
//! `--spans` (chaos) writes the run's causal span stream into
//! `./results/spans_chaos.tsv`; chaos always writes the fault
//! attribution table to `./results/attribution.tsv`.
//!
//! `--profile` records a sim-time profile per event-handler kind and
//! writes flamegraph-ready folded stacks into
//! `./results/profile_<name>.folded`.
//!
//! `cronets report` aggregates everything previous runs left in
//! `./results/` — manifests, attribution, spans, profiles — into
//! `report.txt` plus an OpenMetrics-style `report.openmetrics`.

use std::env;
use std::process::ExitCode;

use cronets_repro::experiments as exp;
use transport::des::CouplingAlg;

const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "fig2",
        "Fig. 2: improvement-ratio CDFs, web-server experiment",
    ),
    (
        "fig3",
        "Fig. 3: improvement-ratio CDFs, controlled cloud senders",
    ),
    ("fig4", "Fig. 4: retransmission-rate CDFs"),
    ("fig5", "Fig. 5: RTT-ratio CDF"),
    (
        "fig6",
        "Fig. 6 / Fig. 7 / Table I: one-week longitudinal study",
    ),
    ("fig8", "Fig. 8: path-diversity analysis"),
    ("fig9", "Fig. 9: improvement by RTT bin"),
    ("fig10", "Fig. 10: improvement by loss bin"),
    ("fig11", "Fig. 11: gain vs direct throughput + hop counts"),
    ("c45", "SV-B: C4.5 joint RTT/loss thresholds"),
    (
        "fig12",
        "Fig. 12: MPTCP/OLIA validation (packet level, slow)",
    ),
    ("fig13", "Fig. 13: MPTCP/uncoupled-CUBIC validation (slow)"),
    ("cost", "SI/SVII-D: cost comparison"),
    (
        "multihop",
        "SVII-B generalized: k-hop chains, bandit vs static vs OLIA proxy",
    ),
    ("ports", "SVII-C extension: port-speed sweep"),
    ("placement", "SVII-A extension: greedy node placement"),
    (
        "ablation",
        "design-choice ablations (peering, windows, DES validation)",
    ),
    (
        "failover",
        "SVI-A: direct-path failure mid-transfer (packet level)",
    ),
    (
        "service",
        "SVI-VII: online overlay service (broker, autoscaler, SLO accounting)",
    ),
    (
        "chaos",
        "SVI-A generalized: the service under a deterministic fault schedule",
    ),
    (
        "export",
        "write all analytic figure data as TSV into ./results/",
    ),
];

/// Where experiment outputs (figure TSVs, manifests, traces) land.
const RESULTS_DIR: &str = "results";

fn usage() {
    eprintln!(
        "usage: cronets <experiment|list|all|report|fuzz|soak> [--seed N] [--threads N] [--smoke] [--planet] [--shards S] [--paths P] [--khops K] [--metrics] [--trace FLOW] [--spans] [--profile] [--budget N] [--resume CKPT] [--stop-after N]"
    );
    eprintln!(
        "  --seed N      PRNG seed (default {})",
        exp::prevalence::DEFAULT_SEED
    );
    eprintln!("  --threads N   worker threads (default: available parallelism);");
    eprintln!("                output is byte-identical at any thread count");
    eprintln!("  --smoke       CI-sized run (service, chaos, multihop, fuzz and");
    eprintln!("                soak)");
    eprintln!("  --planet      (service/chaos) planetary scale: the per-region");
    eprintln!("                control plane replicated over the region fabric");
    eprintln!("                (64 regions full, 8 with --smoke)");
    eprintln!("  --shards S    (service/chaos, with --planet) worker lanes for the");
    eprintln!("                per-region shards, S >= 1 (default 1); output is");
    eprintln!("                byte-identical for any (--shards, --threads)");
    eprintln!("  --paths P     service/chaos path engine: onehop (default, the");
    eprintln!("                paper's probe-cache broker) or multihop (k-hop");
    eprintln!("                chains with online-bandit selection over --khops");
    eprintln!("                chains)");
    eprintln!("  --khops K     chain-length bound for multihop/multihop runs,");
    eprintln!("                1..=3 (default 2)");
    eprintln!("  --metrics     collect telemetry; print a metric snapshot and");
    eprintln!("                write manifest_<name>.tsv/.jsonl into ./{RESULTS_DIR}/");
    eprintln!("  --trace FLOW  with --metrics: trace DES flow FLOW's segment");
    eprintln!("                events into ./{RESULTS_DIR}/trace_<name>.tsv");
    eprintln!("  --spans       (chaos) write the causal span stream into");
    eprintln!("                ./{RESULTS_DIR}/spans_chaos.tsv");
    eprintln!("  --profile     record a sim-time profile; write folded stacks");
    eprintln!("                into ./{RESULTS_DIR}/profile_<name>.folded");
    eprintln!("  --budget N    (fuzz) iterations to spend (default 40 with");
    eprintln!("                --smoke, 200 otherwise)");
    eprintln!("  --resume CKPT (soak) resume from a checkpoint file written by a");
    eprintln!("                previous soak run (./{RESULTS_DIR}/soak.ckpt)");
    eprintln!("  --stop-after N (soak) stop once N days are done, leaving the");
    eprintln!("                checkpoint behind for a later --resume");
    eprintln!("commands:");
    eprintln!("  report        aggregate ./{RESULTS_DIR}/ artifacts into report.txt");
    eprintln!("                and report.openmetrics");
    eprintln!("  fuzz          coverage-guided fault-schedule fuzzing of the chaos");
    eprintln!("                loop; minimized violations land as corpus files in");
    eprintln!("                ./{RESULTS_DIR}/ and fail the run");
    eprintln!("  soak          week-of-simulated-time chaos soak, alternating the");
    eprintln!("                onehop and multihop engines day by day; checkpoint-");
    eprintln!("                resumable, byte-identical at any --threads N");
    eprintln!("experiments:");
    for (name, desc) in EXPERIMENTS {
        eprintln!("  {name:<10} {desc}");
    }
}

fn run(name: &str, seed: u64, opts: &Opts) -> bool {
    match name {
        "fig2" => println!("{}", exp::prevalence::fig2(seed)),
        "fig3" => println!("{}", exp::prevalence::fig3(seed)),
        "fig4" => println!("{}", exp::quality::fig4(seed)),
        "fig5" => println!("{}", exp::quality::fig5(seed)),
        "fig6" => println!("{}", exp::longitudinal::longitudinal(seed)),
        "fig8" => println!("{}", exp::factors::fig8(seed)),
        "fig9" => println!("{}", exp::factors::fig9(seed)),
        "fig10" => println!("{}", exp::factors::fig10(seed)),
        "fig11" => {
            println!("{}", exp::factors::fig11(seed));
            let (longer, much) = exp::factors::hop_count_analysis(seed);
            println!(
                "hop counts: {:.0}% of improved overlay paths longer, {:.0}% >= 1.5x",
                longer * 100.0,
                much * 100.0
            );
        }
        "c45" => println!("{}", exp::thresholds::thresholds(seed)),
        "fig12" => {
            let cfg = exp::mptcp_exp::MptcpExpConfig::paper(seed);
            println!("{}", exp::mptcp_exp::validate(&cfg, CouplingAlg::Olia));
        }
        "fig13" => {
            let cfg = exp::mptcp_exp::MptcpExpConfig::paper(seed);
            println!("{}", exp::mptcp_exp::validate(&cfg, CouplingAlg::Uncoupled));
        }
        "cost" => println!("{}", exp::cost::cost_comparison()),
        "multihop" => {
            let mut mcfg = if opts.smoke {
                exp::multihop::MultihopConfig::smoke(seed)
            } else {
                exp::multihop::MultihopConfig::paper(seed)
            };
            mcfg.khops = opts.khops;
            let report = exp::multihop::multihop(&mcfg);
            print!("{report}");
            let path = std::path::Path::new(RESULTS_DIR).join("multihop.tsv");
            match std::fs::create_dir_all(RESULTS_DIR)
                .and_then(|()| std::fs::write(&path, report.to_tsv()))
            {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("multihop TSV write failed: {e}"),
            }
        }
        "ports" => println!("{}", exp::extensions::port_sweep(seed)),
        "placement" => println!("{}", exp::extensions::placement(seed, 4)),
        "failover" => println!("{}", exp::failover::failover(seed, 20, 60)),
        "service" => {
            let report = if opts.planet {
                let mut cfg = if opts.smoke {
                    exp::sharded::ShardedConfig::planetary_smoke()
                } else {
                    exp::sharded::ShardedConfig::planetary()
                };
                cfg.service.paths = opts.paths;
                cfg.service.khops = opts.khops;
                exp::sharded::service_sharded(&cfg, seed, opts.shards)
            } else {
                let mut cfg = if opts.smoke {
                    exp::service::ServiceConfig::smoke()
                } else {
                    exp::service::ServiceConfig::paper()
                };
                cfg.paths = opts.paths;
                cfg.khops = opts.khops;
                exp::service::service(&cfg, seed)
            };
            print!("{report}");
            let path = std::path::Path::new(RESULTS_DIR).join("service.tsv");
            match std::fs::create_dir_all(RESULTS_DIR)
                .and_then(|()| std::fs::write(&path, report.to_tsv()))
            {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("service TSV write failed: {e}"),
            }
        }
        "chaos" => {
            let report = if opts.planet {
                let (mut cfg, regions) = exp::sharded::chaos_planetary(opts.smoke);
                cfg.service.paths = opts.paths;
                cfg.service.khops = opts.khops;
                exp::sharded::chaos_sharded(&cfg, regions, seed, opts.shards)
            } else {
                let mut cfg = if opts.smoke {
                    exp::chaos::ChaosConfig::smoke()
                } else {
                    exp::chaos::ChaosConfig::paper()
                };
                cfg.service.paths = opts.paths;
                cfg.service.khops = opts.khops;
                exp::chaos::chaos(&cfg, seed)
            };
            print!("{report}");
            if report.span_dropped > 0 {
                eprintln!(
                    "warning: span ring overwrote {} records; attribution chains may be broken",
                    report.span_dropped
                );
            }
            let path = std::path::Path::new(RESULTS_DIR).join("chaos.tsv");
            match std::fs::create_dir_all(RESULTS_DIR)
                .and_then(|()| std::fs::write(&path, report.to_tsv()))
            {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("chaos TSV write failed: {e}"),
            }
            let apath = std::path::Path::new(RESULTS_DIR).join("attribution.tsv");
            match std::fs::write(&apath, report.attribution.to_tsv()) {
                Ok(()) => println!("wrote {}", apath.display()),
                Err(e) => eprintln!("attribution write failed: {e}"),
            }
            if opts.spans {
                let spath = std::path::Path::new(RESULTS_DIR).join("spans_chaos.tsv");
                let rows = report.spans.iter().map(obs::SpanRecord::to_tsv);
                match obs::write_tsv(
                    std::path::Path::new(RESULTS_DIR),
                    "spans_chaos.tsv",
                    "t_ns\tid\tparent\tkind\tsubject\ta\tb",
                    rows,
                ) {
                    Ok(_) => println!(
                        "wrote {} ({} spans, {} dropped)",
                        spath.display(),
                        report.spans.len(),
                        report.span_dropped
                    ),
                    Err(e) => eprintln!("span write failed: {e}"),
                }
            }
        }
        "export" => {
            let dir = std::path::Path::new(RESULTS_DIR);
            match exp::export::export_fast(dir, seed) {
                Ok(files) => {
                    for f in &files {
                        println!("wrote {}", f.display());
                    }
                }
                Err(e) => eprintln!("export failed: {e}"),
            }
        }
        "ablation" => {
            println!("{}", exp::ablation::peering(seed));
            println!("{}", exp::ablation::window(seed));
            println!("{}", exp::ablation::split_des_validation(seed, 10, 30));
        }
        _ => return false,
    }
    true
}

#[derive(Debug, Clone)]
struct Opts {
    metrics: bool,
    smoke: bool,
    /// `--planet`: run service/chaos at planetary scale on the sharded
    /// control plane.
    planet: bool,
    /// `--shards S`: worker lanes for the sharded control plane.
    shards: usize,
    spans: bool,
    profile: bool,
    paths: control::PathsPolicy,
    khops: usize,
    trace_flow: Option<u64>,
    /// `cronets fuzz` iteration budget (`--budget`).
    budget: Option<u32>,
    /// `cronets soak` checkpoint to resume from (`--resume`).
    resume: Option<String>,
    /// `cronets soak` day cap for split runs (`--stop-after`).
    stop_after: Option<u32>,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            metrics: false,
            smoke: false,
            planet: false,
            shards: 1,
            spans: false,
            profile: false,
            paths: control::PathsPolicy::OneHop,
            khops: 2,
            trace_flow: None,
            budget: None,
            resume: None,
            stop_after: None,
        }
    }
}

/// Runs one experiment, wrapped in telemetry when `--metrics` is on:
/// enables collection (resetting state, so each experiment of an `all`
/// run gets its own manifest), times the experiment as a phase, prints
/// the deterministic snapshot to stdout, reports wall-clock phase
/// timings on stderr, and writes the run manifest (and optional flow
/// trace) into `./results/`.
fn run_instrumented(name: &str, seed: u64, opts: &Opts) -> bool {
    if opts.profile {
        simcore::profile::reset();
        simcore::profile::set_enabled(true);
    }
    let ok = run_with_metrics(name, seed, opts);
    if opts.profile {
        simcore::profile::set_enabled(false);
        if ok {
            let folded = simcore::profile::folded();
            let path = std::path::Path::new(RESULTS_DIR).join(format!("profile_{name}.folded"));
            let mut body = folded;
            if !body.is_empty() {
                body.push('\n');
            }
            match std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, &body)) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("profile write failed: {e}"),
            }
        }
    }
    ok
}

/// The `--metrics` wrapper proper (profiling handled by the caller).
fn run_with_metrics(name: &str, seed: u64, opts: &Opts) -> bool {
    if !opts.metrics {
        return run(name, seed, opts);
    }
    obs::enable();
    obs::set_trace_filter(opts.trace_flow);
    obs::add_named("experiment.runs", 1);
    let ok = {
        let _p = obs::phase(name);
        run(name, seed, opts)
    };
    // Drain the trace while collection is still on, so the ring's
    // dropped count lands in this run's snapshot and manifest.
    let trace = opts.trace_flow.map(|flow| {
        let (records, overwritten) = obs::drain_trace();
        obs::add_named("obs.trace_dropped", overwritten);
        (flow, records, overwritten)
    });
    obs::disable();
    if !ok {
        return false;
    }
    let sim_ns = match obs::snapshot().get("des.sim_time_ns") {
        Some(obs::SnapValue::Gauge(g)) => *g as u64,
        _ => 0,
    };
    let manifest = obs::RunManifest::collect(name, seed, sim_ns);
    // The snapshot is deterministic per seed: stdout stays byte-stable.
    print!("{}", manifest.snapshot);
    // Wall time is not: phase timings go to stderr and the manifest only.
    for (phase, ns) in &manifest.phases {
        eprintln!("phase {phase}: {:.3} ms", *ns as f64 / 1e6);
    }
    match manifest.write_to(RESULTS_DIR) {
        Ok((tsv, jsonl)) => println!("wrote {} and {}", tsv.display(), jsonl.display()),
        Err(e) => eprintln!("manifest write failed: {e}"),
    }
    if let Some((flow, records, overwritten)) = trace {
        if overwritten > 0 {
            eprintln!(
                "warning: trace ring overwrote {overwritten} records; oldest events were lost"
            );
        }
        let path = std::path::Path::new(RESULTS_DIR).join(format!("trace_{name}.tsv"));
        let mut body = String::from("t_ns\tflow\tevent\ta\tb\n");
        for r in &records {
            body.push_str(&r.to_tsv());
            body.push('\n');
        }
        match std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, &body)) {
            Ok(()) => println!(
                "trace flow {flow}: {} records ({overwritten} overwritten) -> {}",
                records.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
    true
}

/// The `report` command: aggregate `./results/` into `report.txt` and
/// `report.openmetrics`.
fn run_report_cmd() -> ExitCode {
    let dir = std::path::Path::new(RESULTS_DIR);
    match exp::run_report::assemble(dir) {
        Ok(report) => {
            print!("{report}");
            let txt = dir.join("report.txt");
            let om = dir.join("report.openmetrics");
            match std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&txt, report.to_string()))
                .and_then(|()| std::fs::write(&om, report.to_openmetrics()))
            {
                Ok(()) => {
                    println!("wrote {} and {}", txt.display(), om.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("report write failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("report failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `fuzz` command: coverage-guided fault-schedule fuzzing. Writes
/// the iteration table to `./results/fuzz.tsv` and every minimized
/// violation to `./results/fuzz_finding_<i>.corpus`; any finding fails
/// the run (CI treats a new violation as a regression).
fn run_fuzz_cmd(seed: u64, opts: &Opts) -> ExitCode {
    let budget = opts.budget.unwrap_or(if opts.smoke { 40 } else { 200 });
    let fcfg = exp::fuzzing::FuzzConfig { budget };
    let report = exp::fuzzing::fuzz_campaign(&fcfg, seed);
    print!("{report}");
    let dir = std::path::Path::new(RESULTS_DIR);
    let path = dir.join("fuzz.tsv");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report.to_tsv())) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("fuzz TSV write failed: {e}"),
    }
    for (i, finding) in report.findings.iter().enumerate() {
        let fpath = dir.join(format!("fuzz_finding_{i}.corpus"));
        match std::fs::write(&fpath, &finding.corpus) {
            Ok(()) => println!(
                "wrote {} ({}; add to tests/corpus/ as a regression test)",
                fpath.display(),
                finding.tag
            ),
            Err(e) => eprintln!("finding write failed: {e}"),
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fuzz: {} invariant violation(s) found",
            report.findings.len()
        );
        ExitCode::FAILURE
    }
}

/// The `soak` command: the week-long deterministic soak. Writes the day
/// table to `./results/soak.tsv` and keeps `./results/soak.ckpt` fresh
/// after every completed day; `--resume` picks a killed run back up and
/// the resulting TSV is byte-identical to an unsplit run's.
fn run_soak_cmd(seed: u64, opts: &Opts) -> ExitCode {
    let cfg = if opts.smoke {
        exp::soak::SoakConfig::smoke()
    } else {
        exp::soak::SoakConfig::paper()
    };
    let resume_text = match &opts.resume {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("cannot read checkpoint {p:?}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let dir = std::path::Path::new(RESULTS_DIR);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let ckpt_path = dir.join("soak.ckpt");
    let report = match exp::soak::soak(
        &cfg,
        seed,
        resume_text.as_deref(),
        opts.stop_after,
        |ckpt| {
            if let Err(e) = std::fs::write(&ckpt_path, ckpt) {
                eprintln!("checkpoint write failed: {e}");
            }
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("soak failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{report}");
    let path = dir.join("soak.tsv");
    match std::fs::write(&path, report.to_tsv()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("soak TSV write failed: {e}"),
    }
    println!("checkpoint at {}", ckpt_path.display());
    for finding in &report.findings {
        let fpath = dir.join(format!("soak_violation_day{}.corpus", finding.day));
        match std::fs::write(&fpath, &finding.corpus) {
            Ok(()) => println!(
                "wrote {} ({}; add to tests/corpus/ as a regression test)",
                fpath.display(),
                finding.tag
            ),
            Err(e) => eprintln!("finding write failed: {e}"),
        }
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "soak: {} invariant violation(s) found",
            report.violations.len()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut seed = exp::prevalence::DEFAULT_SEED;
    let mut opts = Opts::default();
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => exec::set_threads(n),
                _ => {
                    eprintln!("--threads needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics" => opts.metrics = true,
            "--smoke" => opts.smoke = true,
            "--planet" => opts.planet = true,
            "--shards" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(s) if s >= 1 => opts.shards = s,
                _ => {
                    eprintln!("--shards needs a positive integer");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--paths" => match it
                .next()
                .map(String::as_str)
                .and_then(control::PathsPolicy::parse)
            {
                Some(p) => opts.paths = p,
                None => {
                    eprintln!("--paths needs one of: onehop, multihop");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--khops" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(k) if (1..=3).contains(&k) => opts.khops = k,
                _ => {
                    eprintln!("--khops needs an integer in 1..=3");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--spans" => opts.spans = true,
            "--profile" => opts.profile = true,
            "--budget" => match it.next().and_then(|s| s.parse::<u32>().ok()) {
                Some(n) if n >= 1 => opts.budget = Some(n),
                _ => {
                    eprintln!("--budget needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => match it.next() {
                Some(p) => opts.resume = Some(p.clone()),
                None => {
                    eprintln!("--resume needs a checkpoint file path");
                    return ExitCode::FAILURE;
                }
            },
            "--stop-after" => match it.next().and_then(|s| s.parse::<u32>().ok()) {
                Some(n) if n >= 1 => opts.stop_after = Some(n),
                _ => {
                    eprintln!("--stop-after needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match it.next().and_then(|s| s.parse().ok()) {
                Some(f) => opts.trace_flow = Some(f),
                None => {
                    eprintln!("--trace needs a flow id");
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                usage();
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown option {flag:?}");
                usage();
                return ExitCode::FAILURE;
            }
            other => names.push(other.to_string()),
        }
    }
    if opts.trace_flow.is_some() && !opts.metrics {
        eprintln!("--trace requires --metrics");
        return ExitCode::FAILURE;
    }
    let [cmd] = names.as_slice() else {
        match names.as_slice() {
            [] => eprintln!("missing experiment name"),
            extra => eprintln!("expected one experiment, got {extra:?}"),
        }
        usage();
        return ExitCode::FAILURE;
    };
    let cmd = cmd.as_str();
    // The sharded control plane is a service/chaos DES engine: reject
    // the planetary flags anywhere they cannot mean anything.
    if (opts.planet || opts.shards > 1) && !matches!(cmd, "service" | "chaos") {
        eprintln!("error: --planet/--shards only apply to cronets service and cronets chaos");
        usage();
        return ExitCode::FAILURE;
    }
    if opts.shards > 1 && !opts.planet {
        eprintln!(
            "error: --shards needs --planet (the classic single-region run has \
             nothing to shard; its output is already byte-identical at any --threads N)"
        );
        usage();
        return ExitCode::FAILURE;
    }
    if matches!(cmd, "fuzz" | "soak") && opts.metrics {
        eprintln!("error: cronets {cmd} manages metric collection internally; drop --metrics");
        return ExitCode::FAILURE;
    }
    if opts.budget.is_some() && cmd != "fuzz" {
        eprintln!("error: --budget only applies to cronets fuzz");
        return ExitCode::FAILURE;
    }
    if (opts.resume.is_some() || opts.stop_after.is_some()) && cmd != "soak" {
        eprintln!("error: --resume/--stop-after only apply to cronets soak");
        return ExitCode::FAILURE;
    }
    match cmd {
        "list" => {
            usage();
            ExitCode::SUCCESS
        }
        "report" => run_report_cmd(),
        "fuzz" => run_fuzz_cmd(seed, &opts),
        "soak" => run_soak_cmd(seed, &opts),
        "all" => {
            let mut failed = Vec::new();
            for (name, _) in EXPERIMENTS {
                eprintln!("--- running {name} ---");
                if !run_instrumented(name, seed, &opts) {
                    failed.push(*name);
                }
            }
            if failed.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("failed experiments: {failed:?}");
                ExitCode::FAILURE
            }
        }
        name => {
            if run_instrumented(name, seed, &opts) {
                ExitCode::SUCCESS
            } else {
                eprintln!("unknown experiment {name:?}");
                usage();
                ExitCode::FAILURE
            }
        }
    }
}
