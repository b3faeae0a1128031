//! Golden tests for `cronets soak`: the week-long deterministic soak
//! must be byte-identical across thread counts AND across checkpoint
//! splits, and the CLI must loudly reject configurations the soak (and
//! chaos) engines cannot honor.
//!
//! The split tests are the PR's headline guarantee: a soak stopped at
//! an epoch boundary (days end on epoch boundaries) and resumed from
//! its checkpoint produces a `results/soak.tsv` byte-identical to the
//! unsplit run's — at `--threads 1` and `--threads 8` alike.

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

/// Runs `cronets <args>` with `dir` as working directory; asserts
/// success and returns stdout.
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

/// Runs `cronets <args>` expecting a nonzero exit; returns stderr.
fn run_in_expect_failure(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cronets"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("cronets runs");
    assert!(
        !out.status.success(),
        "cronets {args:?} unexpectedly succeeded"
    );
    String::from_utf8(out.stderr).expect("utf8 stderr")
}

fn soak_tsv(dir: &Path) -> Vec<u8> {
    fs::read(dir.join("results/soak.tsv")).expect("soak.tsv written")
}

/// One unsplit smoke soak at `threads`; returns (stdout, soak.tsv).
fn unsplit(tag: &str, threads: &str) -> (String, Vec<u8>) {
    let dir = scratch_dir(tag);
    let out = run_in(&dir, &["soak", "--smoke", "--threads", threads]);
    let tsv = soak_tsv(&dir);
    (out, tsv)
}

/// A soak split at the day-4 epoch boundary (`--stop-after 4`, then
/// `--resume` from the checkpoint) at `threads`; returns soak.tsv.
fn split(tag: &str, threads: &str) -> Vec<u8> {
    let dir = scratch_dir(tag);
    run_in(
        &dir,
        &["soak", "--smoke", "--threads", threads, "--stop-after", "4"],
    );
    let ckpt = dir.join("results/soak.ckpt");
    assert!(ckpt.is_file(), "checkpoint left behind for the resume");
    run_in(
        &dir,
        &[
            "soak",
            "--smoke",
            "--threads",
            threads,
            "--resume",
            "results/soak.ckpt",
        ],
    );
    soak_tsv(&dir)
}

#[test]
fn soak_split_at_an_epoch_boundary_is_byte_identical_single_thread() {
    let (_, whole) = unsplit("soak_whole_t1", "1");
    let halves = split("soak_split_t1", "1");
    assert_eq!(
        whole, halves,
        "split-vs-unsplit soak.tsv differs at --threads 1"
    );
}

#[test]
fn soak_split_at_an_epoch_boundary_is_byte_identical_eight_threads() {
    let (_, whole) = unsplit("soak_whole_t8", "8");
    let halves = split("soak_split_t8", "8");
    assert_eq!(
        whole, halves,
        "split-vs-unsplit soak.tsv differs at --threads 8"
    );
}

#[test]
fn soak_is_thread_invariant() {
    let (out1, tsv1) = unsplit("soak_inv_t1", "1");
    let (out8, tsv8) = unsplit("soak_inv_t8", "8");
    assert_eq!(out1, out8, "soak stdout differs across thread counts");
    assert_eq!(tsv1, tsv8, "soak.tsv differs across thread counts");
}

#[test]
fn soak_rejects_metrics_and_misplaced_flags() {
    let dir = scratch_dir("soak_reject_flags");
    let err = run_in_expect_failure(&dir, &["soak", "--smoke", "--metrics"]);
    assert!(err.contains("--metrics"), "stderr: {err}");
    let err = run_in_expect_failure(&dir, &["fig2", "--resume", "x.ckpt"]);
    assert!(err.contains("--resume"), "stderr: {err}");
    let err = run_in_expect_failure(&dir, &["soak", "--smoke", "--budget", "5"]);
    assert!(err.contains("--budget"), "stderr: {err}");
}

#[test]
fn soak_rejects_a_foreign_checkpoint() {
    // A checkpoint cut under one seed must not resume under another.
    let dir = scratch_dir("soak_reject_ckpt");
    run_in(
        &dir,
        &["soak", "--smoke", "--seed", "7", "--stop-after", "2"],
    );
    let err = run_in_expect_failure(
        &dir,
        &[
            "soak",
            "--smoke",
            "--seed",
            "8",
            "--resume",
            "results/soak.ckpt",
        ],
    );
    assert!(err.contains("fingerprint"), "stderr: {err}");
}

#[test]
fn fuzz_smoke_runs_clean_and_deterministic() {
    let dir1 = scratch_dir("fuzz_smoke_a");
    let dir2 = scratch_dir("fuzz_smoke_b");
    let args = ["fuzz", "--smoke", "--seed", "7", "--budget", "15"];
    let out1 = run_in(&dir1, &args);
    let out2 = run_in(&dir2, &args);
    assert_eq!(out1, out2, "fuzz stdout must be deterministic");
    assert!(out1.contains("findings: none"), "stdout: {out1}");
    let tsv1 = fs::read(dir1.join("results/fuzz.tsv")).expect("fuzz.tsv");
    let tsv2 = fs::read(dir2.join("results/fuzz.tsv")).expect("fuzz.tsv");
    assert_eq!(tsv1, tsv2, "fuzz.tsv must be deterministic");
}
