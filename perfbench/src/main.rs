//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a readable table, then, as the last
//! line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced, the
//! metrics are the end-to-end ones; traced, the per-layer ones.
//! `attempted` and `failed` count output checks. Exits 2 on bad
//! arguments or an I/O error, without a result line.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use perfbench::metrics::{end_to_end, per_layer, MetricDef};
use perfbench::{run_workload, Day, Scale, Summary, Workload, LANES, THREADS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Where report files and span streams go: `perfbench/out` in the
/// checkout the benchmark was built in.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

const USAGE: &str = "usage: perfbench --workload <service_day|chaos_day|multihop_day|planet_day> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&val).ok_or_else(|| format!("unknown workload {val:?}"))?,
                );
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val:?}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad seconds {val:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {val:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Lower quartile, median and upper quartile (nearest rank).
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    (at(0.25), perfbench::metrics::median(xs), at(0.75))
}

fn json_metrics(defs: &[MetricDef], value: impl Fn(&str) -> f64) -> String {
    let mut out = String::from("{");
    for (i, d) in defs.iter().enumerate() {
        let v = value(&d.name);
        assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push('}');
    out
}

fn print_summary(args: &Args, s: &Summary) {
    let reps = &s.reps;
    let w = args.workload.name();
    println!(
        "perfbench {w}: seed {}, {THREADS} thread, {LANES} lane, obs off, {} untraced repetition(s)",
        args.seed,
        reps.len()
    );
    let fp = reps[0].fingerprint;
    println!(
        "  fingerprint: arrivals {}, epochs {}, pairs {}, relay_slots {}",
        fp.arrivals, fp.epochs, fp.pairs, fp.relay_slots
    );
    let col = |f: fn(&perfbench::Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    for (name, unit, xs) in [
        ("run_s", "s", col(|r| r.run_s)),
        ("setup_s", "s", s.setups.clone()),
        ("peak_rss_mb", "MB", col(|r| r.peak_rss_mb)),
        (
            "report_s",
            "s",
            reps.iter().filter_map(|r| r.report_s).collect(),
        ),
    ] {
        let (q1, med, q3) = quartiles(&xs);
        println!(
            "  {name:<16} {med:>12.6} {unit:<5} (q1 {q1:.6}, q3 {q3:.6}, n {})",
            xs.len()
        );
    }
    println!(
        "  {:<16} {:>12.6} ratio (failed {} of {} output checks)",
        "failed_share",
        s.checks.failed_share(),
        s.checks.failed.len(),
        s.checks.run
    );
    if args.workload == Workload::ChaosDay {
        let r = &reps[0];
        let share = r.spans_dropped as f64 / (r.spans_kept + r.spans_dropped).max(1) as f64;
        println!(
            "  {:<16} {share:>12.6} ratio ({} of {} spans overwritten)",
            "span_drop_share",
            r.spans_dropped,
            r.spans_kept + r.spans_dropped
        );
    }
    for (file, d) in &reps[0].digests {
        println!("  digest {file}: {d:016x} (not checked)");
    }
    println!(
        "  host reference (diagnostic only): mem_walk_s {:.6} s, alu_s {:.6} s",
        s.host.mem_walk_s, s.host.alu_s
    );
    if let Some(layers) = &s.layers {
        println!("  traced repetition (obs on, harness spans):");
        for d in per_layer() {
            println!(
                "    {:<34} {:>16.6} {}",
                d.name, layers.values[&d.name], d.unit
            );
        }
    }
    if let Some(p) = &s.spans_file {
        println!("  span stream: {}", p.display());
    }
    for f in &s.checks.failed {
        eprintln!("perfbench {w}: check failed: {f}");
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let day = Day::new(args.workload, Scale::Full, out);
    let summary = match run_workload(&day, args.seed, args.seconds, args.trace) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_summary(&args, &summary);
    let metrics = match &summary.layers {
        Some(layers) => json_metrics(&per_layer(), |n| layers.values[n]),
        None => json_metrics(&end_to_end(), |n| match n {
            "run_s" => summary.median_of(|r| r.run_s),
            "setup_s" => perfbench::metrics::median(&summary.setups),
            "peak_rss_mb" => summary.median_of(|r| r.peak_rss_mb),
            _ => unreachable!("unknown end-to-end metric {n}"),
        }),
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        summary.checks.failed.is_empty(),
        summary.checks.run,
        summary.checks.failed.len()
    );
    ExitCode::SUCCESS
}
