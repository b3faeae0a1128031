//! Seed-matrix regression pins: `failover`, `service --smoke` and
//! `chaos --smoke` under seeds {7, 11, 13}, with golden first/last
//! output rows captured from known-good runs.
//!
//! These are byte-exact anchors for the deterministic substrate: any
//! change to RNG stream layout, event ordering, billing arithmetic, or
//! fault scheduling shows up here as a diff against the goldens, seed
//! by seed — which makes "the numbers moved" a reviewed decision
//! instead of an accident. When a change legitimately shifts results,
//! regenerate the rows with the commands in each table's comment.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Runs `cronets <args>` in a scratch directory; returns stdout and the
/// contents of `results/<file>` (empty string if the run writes none).
fn run(tag: &str, args: &[&str], results_file: &str) -> (String, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_cronets"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("cronets runs");
    assert!(
        out.status.success(),
        "cronets {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tsv = fs::read_to_string(dir.join("results").join(results_file)).unwrap_or_default();
    (String::from_utf8(out.stdout).expect("utf8 stdout"), tsv)
}

/// First and last non-empty lines of a block of text.
fn first_last(text: &str) -> (String, String) {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let first = lines.next().unwrap_or_default().to_string();
    let last = lines.next_back().unwrap_or(&first).to_string();
    (first, last)
}

/// First data row (after the `#` header) and last row of a results TSV.
fn tsv_first_last(tsv: &str) -> (String, String) {
    let mut rows = tsv.lines().filter(|l| !l.starts_with('#') && !l.is_empty());
    let first = rows.next().expect("TSV has data rows").to_string();
    let last = rows.next_back().unwrap_or(&first).to_string();
    (first, last)
}

#[test]
fn failover_matrix_matches_goldens() {
    // Golden: first per-second sample and the post-failure summary.
    // Regenerate with `cronets failover --seed <s>`.
    let golden = [
        (
            "7",
            "    1          38.66          17.69",
            "after the failure: MPTCP 29.73 Mbps, direct TCP 0.00 Mbps",
        ),
        (
            "11",
            "    1          67.13          66.96",
            "after the failure: MPTCP 13.47 Mbps, direct TCP 0.00 Mbps",
        ),
        (
            "13",
            "    1           8.26           7.30",
            "after the failure: MPTCP 1.51 Mbps, direct TCP 0.00 Mbps",
        ),
    ];
    for (seed, first_row, summary) in golden {
        let (out, _) = run(
            &format!("seedmat_failover_{seed}"),
            &["failover", "--seed", seed],
            "",
        );
        let data: Vec<&str> = out
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .collect();
        assert_eq!(data.first(), Some(&first_row), "failover seed {seed}");
        let (_, last) = first_last(&out);
        assert_eq!(last, summary, "failover seed {seed}");
    }
}

#[test]
fn service_smoke_matrix_matches_goldens() {
    // Golden: epochs 0 and 47 of results/service.tsv. Regenerate with
    // `cronets service --smoke --seed <s>`.
    let golden = [
        (
            "7",
            "0\t705\t34\t671\t0\t0\t683\t5\t1\t0\t0.0000\t0.003539",
            "47\t706\t23\t339\t0\t344\t695\t6\t1\t0\t0.0000\t0.212329",
        ),
        (
            "11",
            "0\t748\t46\t702\t0\t0\t530\t38\t2\t0\t0.5000\t0.003539",
            "47\t726\t12\t367\t0\t347\t734\t140\t1\t0\t0.0000\t0.254795",
        ),
        (
            "13",
            "0\t735\t3\t732\t0\t0\t388\t36\t2\t0\t0.5000\t0.003539",
            "47\t682\t1\t331\t0\t350\t787\t260\t4\t0\t0.6250\t0.598059",
        ),
    ];
    for (seed, first, last) in golden {
        let (_, tsv) = run(
            &format!("seedmat_service_{seed}"),
            &["service", "--smoke", "--seed", seed],
            "service.tsv",
        );
        let (got_first, got_last) = tsv_first_last(&tsv);
        assert_eq!(got_first, first, "service seed {seed} epoch 0");
        assert_eq!(got_last, last, "service seed {seed} epoch 47");
    }
}

#[test]
fn chaos_smoke_matrix_matches_goldens() {
    // Golden: epochs 0 and 47 of results/chaos.tsv. Regenerate with
    // `cronets chaos --smoke --seed <s>`.
    let golden = [
        (
            "7",
            "0\t705\t0\t34\t671\t0\t0\t683\t0\t5\t1\t1\t0.9937\t0.000\t1.1122\t0.003539",
            "47\t706\t0\t0\t362\t0\t344\t697\t0\t6\t1\t0\t1.0000\t0.000\t1.0000\t0.167978",
        ),
        (
            "11",
            "0\t748\t0\t46\t702\t0\t0\t530\t0\t38\t2\t0\t1.0000\t0.000\t5.3400\t0.003539",
            "47\t726\t2\t5\t376\t0\t347\t733\t2\t139\t1\t0\t0.9757\t3000.000\t1.0105\t0.212853",
        ),
        (
            "13",
            "0\t735\t2\t3\t734\t0\t0\t390\t2\t37\t1\t1\t0.8642\t3000.000\t1.0016\t0.002324",
            "47\t682\t0\t6\t326\t0\t350\t800\t0\t272\t2\t0\t1.0000\t0.000\t1.0041\t0.402752",
        ),
    ];
    for (seed, first, last) in golden {
        let (out, tsv) = run(
            &format!("seedmat_chaos_{seed}"),
            &["chaos", "--smoke", "--seed", seed],
            "chaos.tsv",
        );
        let (got_first, got_last) = tsv_first_last(&tsv);
        assert_eq!(got_first, first, "chaos seed {seed} epoch 0");
        assert_eq!(got_last, last, "chaos seed {seed} epoch 47");
        assert!(
            out.contains("invariants: clean"),
            "chaos seed {seed}: invariant verdict not clean:\n{out}"
        );
    }
}

#[test]
fn multihop_smoke_matrix_matches_goldens() {
    // Golden: first (clean, epoch 0) and last (flaky, epoch 11) rows of
    // results/multihop.tsv — pinning candidate enumeration order, the
    // bandit's RNG substream, and all three policy replays at once.
    // Regenerate with `cronets multihop --smoke --seed <s>`.
    let golden = [
        (
            "7",
            "clean\t0\t0\t0\t2.7701\t1.5952\t1.5952",
            "flaky\t11\t0\t0\t4.0901\t4.6512\t4.6512",
        ),
        (
            "11",
            "clean\t0\t0\t0\t3.3983\t3.3983\t3.3983",
            "flaky\t11\t0\t1\t4.2610\t6.4688\t6.4688",
        ),
        (
            "13",
            "clean\t0\t0\t0\t7.9439\t7.0334\t7.0334",
            "flaky\t11\t0\t0\t7.5569\t7.1306\t7.3589",
        ),
    ];
    for (seed, first, last) in golden {
        let (out, tsv) = run(
            &format!("seedmat_multihop_{seed}"),
            &["multihop", "--smoke", "--seed", seed],
            "multihop.tsv",
        );
        let (got_first, got_last) = tsv_first_last(&tsv);
        assert_eq!(got_first, first, "multihop seed {seed} first row");
        assert_eq!(got_last, last, "multihop seed {seed} last row");
        assert!(
            out.contains("bandit"),
            "multihop seed {seed}: summary table missing:\n{out}"
        );
    }
}

#[test]
fn chaos_attribution_matrix_matches_goldens() {
    // Golden: the first fault's charge row and the final unattributed
    // row of results/attribution.tsv — pinning the span stream, the
    // causality walk, and the breach weighting all at once. Regenerate
    // with `cronets chaos --smoke --seed <s>`.
    let golden = [
        (
            "7",
            "0\t133785544797\tlink_degrade\t4860698193373619395\t0\t0\t0",
            "unattributed\t0\t-\t0\t0\t0\t1778",
        ),
        (
            "11",
            "0\t772545940101\trelay_crash\t1\t2\t14622010\t0",
            "unattributed\t0\t-\t0\t0\t0\t24961",
        ),
        (
            "13",
            "0\t89717512766\trelay_crash\t1\t0\t0\t0",
            "unattributed\t0\t-\t0\t0\t0\t45431",
        ),
    ];
    for (seed, first, last) in golden {
        let (out, tsv) = run(
            &format!("seedmat_attr_{seed}"),
            &["chaos", "--smoke", "--seed", seed],
            "attribution.tsv",
        );
        let (got_first, got_last) = tsv_first_last(&tsv);
        assert_eq!(got_first, first, "attribution seed {seed} first fault");
        assert_eq!(got_last, last, "attribution seed {seed} unattributed row");
        assert!(
            out.contains("charged to fault events"),
            "chaos seed {seed}: attribution summary line missing:\n{out}"
        );
    }
}
