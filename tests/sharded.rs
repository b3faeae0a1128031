//! Lane invariance: the planetary control plane steps its per-region
//! shards on `--threads N` lanes, and — like every other `--threads`
//! run — it must not change a single output byte. Per-region mailboxes
//! deliver in (sender, emission) order at every epoch barrier, the
//! budget reconciler folds spends in region order over exact `f64`
//! bits, and telemetry merges in region order, so stdout, the metric
//! snapshot (including the per-shard `control.shard<k>.broker.*`
//! namespaces) and every results file must be byte-identical at any
//! thread count.
//!
//! These tests drive the real `cronets` binary as a subprocess over a
//! golden matrix — threads {4, 8, 16} against threads 1 × seeds
//! {7, 11, 13} — for the sharded service, the sharded chaos fabric, and
//! the sharded multihop service, plus the strict-parse rejection of
//! `--planet` outside service and chaos.

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

/// Reads every file under `dir/results`, keyed by file name, with
/// wall-clock manifest rows stripped.
fn read_results(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let results = dir.join("results");
    if results.is_dir() {
        for entry in fs::read_dir(&results).expect("results dir") {
            let p = entry.expect("entry").path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let body = fs::read(&p).expect("results file");
            let body = if name.starts_with("manifest_") {
                let text = String::from_utf8_lossy(&body);
                text.lines()
                    .filter(|l| !l.starts_with("phase\t") && !l.contains("\"phase\""))
                    .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
                    .collect()
            } else {
                body
            };
            files.insert(name, body);
        }
    }
    files
}

/// One golden run of `experiment --planet --smoke` at a given thread
/// count: stdout plus the results files.
fn planet_run(
    tag: &str,
    experiment: &str,
    extra: &[&str],
    seed: u64,
    threads: u32,
) -> (String, BTreeMap<String, Vec<u8>>) {
    let dir = scratch_dir(tag);
    let seed = seed.to_string();
    let threads = threads.to_string();
    let mut args = vec![experiment, "--planet", "--smoke", "--metrics"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--seed", &seed, "--threads", &threads]);
    let out = run_in(&dir, &args);
    (out, read_results(&dir))
}

/// Asserts the golden matrix for one experiment: threads {4, 8, 16},
/// each byte-identical to the `--threads 1` reference at that seed.
fn assert_lane_invariant(experiment: &str, extra: &[&str], seed: u64) {
    let (base_out, base_files) = planet_run(
        &format!("{experiment}_{seed}_t1"),
        experiment,
        extra,
        seed,
        1,
    );
    assert!(
        base_out.contains("control.shard0.broker.admitted"),
        "{experiment} seed {seed}: per-shard counter namespace missing from snapshot"
    );
    for threads in [4u32, 8, 16] {
        let (out, files) = planet_run(
            &format!("{experiment}_{seed}_t{threads}"),
            experiment,
            extra,
            seed,
            threads,
        );
        assert_eq!(
            out, base_out,
            "{experiment} seed {seed}: stdout differs at threads={threads}"
        );
        assert_eq!(
            files, base_files,
            "{experiment} seed {seed}: results differ at threads={threads}"
        );
    }
}

#[test]
fn sharded_service_matrix_seed7() {
    assert_lane_invariant("service", &[], 7);
}

#[test]
fn sharded_service_matrix_seed11() {
    assert_lane_invariant("service", &[], 11);
}

#[test]
fn sharded_service_matrix_seed13() {
    assert_lane_invariant("service", &[], 13);
}

#[test]
fn sharded_chaos_matrix_seed7() {
    assert_lane_invariant("chaos", &["--spans"], 7);
}

#[test]
fn sharded_chaos_matrix_seed11() {
    assert_lane_invariant("chaos", &["--spans"], 11);
}

#[test]
fn sharded_chaos_matrix_seed13() {
    assert_lane_invariant("chaos", &["--spans"], 13);
}

#[test]
fn sharded_multihop_matrix_seed7() {
    assert_lane_invariant("service", &["--paths", "multihop"], 7);
}

#[test]
fn sharded_multihop_matrix_seed11() {
    assert_lane_invariant("service", &["--paths", "multihop"], 11);
}

#[test]
fn sharded_multihop_matrix_seed13() {
    assert_lane_invariant("service", &["--paths", "multihop"], 13);
}

/// Runs `cronets <args>`; expects a non-zero exit, the usage banner, and
/// a message mentioning `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let dir = scratch_dir(&format!("reject_{}", args.join("_").replace('-', "")));
    let out = Command::new(env!("CARGO_BIN_EXE_cronets"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("cronets runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "cronets {args:?} was accepted; stderr: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "cronets {args:?}: expected {needle:?} in stderr, got: {stderr}"
    );
    assert!(
        stderr.contains("usage: cronets"),
        "cronets {args:?}: usage banner missing from stderr"
    );
}

#[test]
fn planet_flags_reject_other_commands() {
    assert_rejected(
        &["fig2", "--planet"],
        "--planet only applies to cronets service and cronets chaos",
    );
    assert_rejected(
        &["soak", "--smoke", "--planet"],
        "--planet only applies to cronets service and cronets chaos",
    );
}

/// The `control.*` counters of a `--metrics` snapshot, by name.
fn control_counters(stdout: &str) -> BTreeMap<String, f64> {
    stdout
        .lines()
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let name = cols.next()?.strip_prefix("control.")?;
            Some((name.to_string(), cols.next()?.parse().ok()?))
        })
        .collect()
}

/// The (arrivals, completed, denied) of a run's summary line.
fn summary_counts(stdout: &str) -> (u64, u64, u64) {
    let words: Vec<&str> = stdout
        .lines()
        .next()
        .unwrap_or_default()
        .split(' ')
        .collect();
    let count = |after: &str| -> u64 {
        let i = words.iter().position(|w| w.trim_end_matches(',') == after);
        let i = i.unwrap_or_else(|| panic!("no {after:?} in summary: {words:?}"));
        words[i - 1].parse().expect("count")
    };
    (count("arrivals"), count("completed"), count("denied"))
}

/// Every per-shard counter `control.shard<k>.<name>` has a merged
/// `control.<name>`, and the merged value is the per-shard sum (folded
/// in shard order, as the engine folds spends). Every workload flow
/// ends either completed or denied, so the summary's two counts add up
/// to the arrivals.
fn assert_rollup(experiment: &str) {
    let (out, _) = planet_run(&format!("rollup_{experiment}"), experiment, &[], 7, 4);
    let counters = control_counters(&out);
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    for shard in 0.. {
        let prefix = format!("shard{shard}.");
        let mut any = false;
        for (name, v) in &counters {
            if let Some(rest) = name.strip_prefix(&prefix) {
                *sums.entry(rest).or_insert(0.0) += v;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    assert!(sums.len() >= 27, "{experiment}: too few per-shard counters");
    for (name, sum) in sums {
        let merged = counters
            .get(name)
            .unwrap_or_else(|| panic!("{experiment}: no merged control.{name}"));
        assert_eq!(*merged, sum, "{experiment}: control.{name} != shard sum");
    }
    let (arrivals, completed, denied) = summary_counts(&out);
    assert_eq!(
        completed + denied,
        arrivals,
        "{experiment}: completed + denied must cover the arrivals"
    );
}

#[test]
fn planet_service_counters_roll_up() {
    assert_rollup("service");
}

#[test]
fn planet_chaos_counters_roll_up() {
    assert_rollup("chaos");
}
