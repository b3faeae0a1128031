//! Thread-count invariance: the `--threads N` worker pool must not
//! change a single output byte. Work is split into indexed units seeded
//! from `(seed, unit index)` and merged in unit order, so the binary's
//! stdout, its metric snapshot, its flow traces, and every results file
//! must be byte-identical at any thread count.
//!
//! These tests drive the real `cronets` binary as a subprocess (it
//! writes into `./results/` relative to its working directory, so each
//! run gets a scratch directory) and cover one analytic experiment
//! (`fig2`, the sweep + route cache path) and one packet-level
//! experiment (`failover`, two concurrent DES runs).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Creates (wiping) the scratch directory for one tagged run.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `cronets <args>` with `dir` as working directory; returns its
/// stdout.
fn run_in(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cronets"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("cronets runs");
    assert!(
        out.status.success(),
        "cronets {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Reads every file under `dir/results`, keyed by file name.
fn read_results(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let results = dir.join("results");
    if results.is_dir() {
        for entry in fs::read_dir(&results).expect("results dir") {
            let p = entry.expect("entry").path();
            files.insert(
                p.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read(&p).expect("results file"),
            );
        }
    }
    files
}

/// Runs `cronets <args>` in a fresh scratch directory; returns the
/// stdout plus the contents of every file the run wrote under
/// `./results/`, keyed by file name.
fn run_in_scratch(tag: &str, args: &[&str]) -> (String, BTreeMap<String, Vec<u8>>) {
    let dir = scratch_dir(tag);
    let out = run_in(&dir, args);
    (out, read_results(&dir))
}

/// Strips the records that legitimately vary run-to-run: wall-clock
/// phase timings in manifests (`phase` rows / objects) and in the
/// aggregated report text. Everything else is a pure function of the
/// seed.
fn strip_wall_clock(name: &str, body: &[u8]) -> Vec<u8> {
    let is_manifest = name.starts_with("manifest_");
    let is_report = name == "report.txt";
    if !is_manifest && !is_report {
        return body.to_vec();
    }
    let text = String::from_utf8_lossy(body);
    text.lines()
        .filter(|l| {
            if is_manifest {
                !l.starts_with("phase\t") && !l.contains("\"phase\"")
            } else {
                !l.trim_start().starts_with("phase ")
            }
        })
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
        .collect()
}

fn assert_thread_invariant(experiment: &str, extra: &[&str]) {
    let mut base = vec![experiment, "--seed", "424242"];
    base.extend_from_slice(extra);
    let (out1, files1) = run_in_scratch(
        &format!("{experiment}_t1"),
        &[&base[..], &["--threads", "1"]].concat(),
    );
    let (out8, files8) = run_in_scratch(
        &format!("{experiment}_t8"),
        &[&base[..], &["--threads", "8"]].concat(),
    );
    assert_eq!(out1, out8, "{experiment}: stdout differs across threads");
    let names1: Vec<&String> = files1.keys().collect();
    let names8: Vec<&String> = files8.keys().collect();
    assert_eq!(names1, names8, "{experiment}: results file sets differ");
    for (name, body1) in &files1 {
        assert_eq!(
            strip_wall_clock(name, body1),
            strip_wall_clock(name, &files8[name]),
            "{experiment}: results/{name} differs across threads"
        );
    }
}

#[test]
fn analytic_sweep_is_thread_invariant() {
    // fig2 exercises the route cache and the parallel sender sweep, with
    // the metric snapshot (counters, histograms, route-cache hit/miss)
    // on stdout and a manifest in results/.
    assert_thread_invariant("fig2", &["--metrics"]);
}

#[test]
fn packet_level_des_is_thread_invariant() {
    // failover runs two full DES simulations as parallel work units and
    // records a segment-level flow trace.
    assert_thread_invariant("failover", &["--metrics", "--trace", "0"]);
}

#[test]
fn online_service_is_thread_invariant() {
    // service runs the control plane's closed loop (workload generation,
    // broker decisions, DES completions, autoscaling, SLO accounting);
    // its epoch table lands in results/service.tsv and the metric
    // snapshot covers the control.* counter families.
    assert_thread_invariant("service", &["--smoke", "--metrics"]);
}

#[test]
fn chaos_run_is_thread_invariant() {
    // chaos layers a deterministic fault schedule (relay crashes, DC
    // outages, link flaps, probe blackholes, cache poisoning) over the
    // service loop; kills, retries and the invariant verdict must all be
    // byte-identical at any thread count, as must results/chaos.tsv, the
    // span stream (--spans) and the attribution table it implies.
    assert_thread_invariant("chaos", &["--smoke", "--metrics", "--spans"]);
}

#[test]
fn multihop_experiment_is_thread_invariant() {
    // The k-hop path engine fans candidate evaluation out per pair and
    // gives each pair's bandit its own RNG substream; the policy
    // comparison table (stdout and results/multihop.tsv) must be
    // byte-identical at any thread count.
    assert_thread_invariant("multihop", &["--smoke", "--metrics"]);
}

#[test]
fn multihop_chaos_is_thread_invariant() {
    // The service under faults with chained admissions: bandit probes,
    // per-leg billing, mid-chain crash kills and retries must replay
    // byte-identically at any thread count.
    assert_thread_invariant(
        "chaos",
        &["--smoke", "--paths", "multihop", "--metrics", "--spans"],
    );
}

#[test]
fn chaos_report_pipeline_is_thread_invariant() {
    // The full observability pipeline: a chaos run leaves its manifest,
    // span stream, attribution table and sim-time profile in results/,
    // then `cronets report` aggregates them. Everything except wall
    // clock must be byte-identical at any thread count.
    let pipeline = |tag: &str, threads: &str| {
        let dir = scratch_dir(tag);
        run_in(
            &dir,
            &[
                "chaos",
                "--smoke",
                "--seed",
                "424242",
                "--metrics",
                "--spans",
                "--profile",
                "--threads",
                threads,
            ],
        );
        let out = run_in(&dir, &["report", "--threads", threads]);
        (out, read_results(&dir))
    };
    let (out1, files1) = pipeline("chaos_report_t1", "1");
    let (out8, files8) = pipeline("chaos_report_t8", "8");
    let strip_stdout = |s: &str| {
        s.lines()
            .filter(|l| !l.trim_start().starts_with("phase "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_stdout(&out1),
        strip_stdout(&out8),
        "report stdout differs across threads"
    );
    let names1: Vec<&String> = files1.keys().collect();
    let names8: Vec<&String> = files8.keys().collect();
    assert_eq!(names1, names8, "report: results file sets differ");
    for want in [
        "attribution.tsv",
        "spans_chaos.tsv",
        "report.txt",
        "report.openmetrics",
    ] {
        assert!(files1.contains_key(want), "missing results/{want}");
    }
    for (name, body1) in &files1 {
        assert_eq!(
            strip_wall_clock(name, body1),
            strip_wall_clock(name, &files8[name]),
            "report pipeline: results/{name} differs across threads"
        );
    }
}

#[test]
fn export_files_are_thread_invariant() {
    let (_, f1) = run_in_scratch("export_t1", &["export", "--threads", "1"]);
    let (_, f8) = run_in_scratch("export_t8", &["export", "--threads", "8"]);
    assert!(!f1.is_empty(), "export wrote nothing");
    assert_eq!(f1, f8, "exported figure data differs across threads");
}
