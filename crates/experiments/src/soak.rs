//! Week-long deterministic soak: the chaos loop, day after day.
//!
//! The paper's §V longitudinal study argues overlay gains must persist
//! over a week, not a smoke run. `soak` replays that framing against
//! the full control plane: seven simulated days, each one complete
//! chaos run (service + nemesis), alternating the one-hop broker and
//! the multihop bandit policy day by day so both engines soak. The
//! [`faults::Invariants`] checker and the SLO ledger run throughout.
//!
//! Memory stays bounded by construction: a day's chaos run holds one
//! span window at a time and its sink drops them, per-day SLO ledgers
//! are compacted into one running [`control::SloAccount`] via
//! [`control::SloAccount::merge`], and only per-day scalar rows
//! accumulate.
//!
//! The run is checkpoint-resumable at day granularity (days end on
//! epoch boundaries, so a resume is a split at an epoch boundary): the
//! checkpoint carries the emitted rows verbatim plus exact cumulative
//! counters (spend as f64 bits), so a split run's `soak.tsv` is
//! byte-identical to the unsplit run's — at any `--threads N`, since
//! each day is the thread-invariant [`crate::chaos::chaos`] loop.
//!
//! Any invariant violation a day surfaces is delta-debugged down to a
//! minimal schedule ([`fuzz::ddmin`]) and reported in corpus text
//! format, ready to land in `tests/corpus/` as a regression test.

use std::fmt;

use control::PathsPolicy;
use fuzz::{ddmin, ScheduleIr};
use simcore::SimRng;

use crate::chaos::{chaos_with_sink, ChaosConfig};

/// RNG stream label for per-day seed derivation.
const STREAM_SOAK: u64 = 0x50AC;

/// Soak parameters.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Simulated days to run.
    pub days: u32,
    /// Day shape: `true` runs each day as [`ChaosConfig::micro`] (CI
    /// scale), `false` as [`ChaosConfig::paper`] (the §II-A day).
    pub smoke: bool,
}

impl SoakConfig {
    /// CI-sized week: seven micro days in well under a second.
    #[must_use]
    pub fn smoke() -> SoakConfig {
        SoakConfig {
            days: 7,
            smoke: true,
        }
    }

    /// The full week of paper-scale days.
    #[must_use]
    pub fn paper() -> SoakConfig {
        SoakConfig {
            days: 7,
            smoke: false,
        }
    }
}

/// One day's aggregate activity (a row of `results/soak.tsv`).
#[derive(Debug, Clone, Copy)]
pub struct SoakRow {
    /// Day index.
    pub day: u32,
    /// Paths policy the day ran (0 = one-hop, 1 = multihop).
    pub multihop: bool,
    /// Flow arrivals.
    pub arrivals: u64,
    /// Completions.
    pub completed: u64,
    /// Flows killed by crashes.
    pub killed: u64,
    /// Failover retries.
    pub retries: u64,
    /// Admissions denied.
    pub denied: u64,
    /// SLO violations charged.
    pub slo_viol: u64,
    /// Invariant violations detected.
    pub inv_viol: u64,
    /// Mean schedule availability over the day's epochs.
    pub availability: f64,
    /// The day's cloud spend, USD.
    pub spend_usd: f64,
    /// Cumulative completions at day end.
    pub cum_completed: u64,
    /// Cumulative SLO violations at day end.
    pub cum_slo_viol: u64,
    /// Cumulative spend at day end, USD.
    pub cum_spend_usd: f64,
}

impl SoakRow {
    fn tsv_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.6}\t{}\t{}\t{:.6}",
            self.day,
            if self.multihop { "multihop" } else { "onehop" },
            self.arrivals,
            self.completed,
            self.killed,
            self.retries,
            self.denied,
            self.slo_viol,
            self.inv_viol,
            self.availability,
            self.spend_usd,
            self.cum_completed,
            self.cum_slo_viol,
            self.cum_spend_usd,
        )
    }
}

/// A minimized violating schedule surfaced by a soak day.
#[derive(Debug, Clone)]
pub struct SoakFinding {
    /// The day that violated.
    pub day: u32,
    /// [`faults::InvariantViolation::tag`] of the first violation.
    pub tag: String,
    /// The minimized schedule in corpus text format.
    pub corpus: String,
}

/// The completed (or checkpointed) soak run.
#[derive(Debug)]
pub struct SoakReport {
    /// One row per day, resumed rows included.
    pub rows: Vec<SoakRow>,
    /// Days completed (== `rows.len()`).
    pub days_done: u32,
    /// Days the run was configured for.
    pub days_total: u32,
    /// The compacted SLO ledger over the days run *in this process*
    /// (resumed days contribute to the cumulative counters instead).
    pub slo: control::SloAccount,
    /// Stamped violations from all days run in this process.
    pub violations: Vec<(u32, faults::Violation)>,
    /// Minimized repros for the violating days.
    pub findings: Vec<SoakFinding>,
    /// Checkpoint fingerprint (binds resume to `(seed, days, smoke)`).
    fingerprint: u64,
    /// Exact cumulative counters (survive checkpoint round-trips).
    cum: Cum,
}

#[derive(Debug, Clone, Copy, Default)]
struct Cum {
    arrivals: u64,
    completed: u64,
    killed: u64,
    retries: u64,
    denied: u64,
    slo_viol: u64,
    inv_viol: u64,
    spend_usd: f64,
}

impl SoakReport {
    /// The day table as TSV (with a `#`-prefixed header). Byte-identical
    /// between split and unsplit runs.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "# day\tpolicy\tarrivals\tcompleted\tkilled\tretries\tdenied\tslo_viol\tinv_viol\tavailability\tspend_usd\tcum_completed\tcum_slo_viol\tcum_spend_usd\n",
        );
        for r in &self.rows {
            out.push_str(&r.tsv_line());
            out.push('\n');
        }
        out
    }

    /// Serializes the resume checkpoint: fingerprint, exact cumulative
    /// counters (spend as f64 bits), and the emitted rows verbatim.
    #[must_use]
    pub fn checkpoint(&self) -> String {
        let mut out = String::from("# cronets soak checkpoint v1\n");
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        out.push_str(&format!("days_done {}\n", self.days_done));
        out.push_str(&format!("cum_arrivals {}\n", self.cum.arrivals));
        out.push_str(&format!("cum_completed {}\n", self.cum.completed));
        out.push_str(&format!("cum_killed {}\n", self.cum.killed));
        out.push_str(&format!("cum_retries {}\n", self.cum.retries));
        out.push_str(&format!("cum_denied {}\n", self.cum.denied));
        out.push_str(&format!("cum_slo_viol {}\n", self.cum.slo_viol));
        out.push_str(&format!("cum_inv_viol {}\n", self.cum.inv_viol));
        out.push_str(&format!(
            "cum_spend_bits {:016x}\n",
            self.cum.spend_usd.to_bits()
        ));
        out.push_str(&format!("rows {}\n", self.rows.len()));
        for r in &self.rows {
            out.push_str(&r.tsv_line());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "soak: {}/{} days, {} arrivals, {} completed, {} killed, {} retries, {} denied",
            self.days_done,
            self.days_total,
            self.cum.arrivals,
            self.cum.completed,
            self.cum.killed,
            self.cum.retries,
            self.cum.denied,
        )?;
        writeln!(
            f,
            "slo: {} violations; spend ${:.4}; invariants: {}",
            self.cum.slo_viol,
            self.cum.spend_usd,
            if self.cum.inv_viol == 0 {
                "clean".to_string()
            } else {
                format!("{} VIOLATION(S)", self.cum.inv_viol)
            },
        )?;
        for (day, v) in &self.violations {
            writeln!(f, "  !! day {day}: {v}")?;
        }
        for x in &self.findings {
            writeln!(
                f,
                "  minimized day {} ({}) to a {}-line corpus entry",
                x.day,
                x.tag,
                x.corpus.lines().count(),
            )?;
        }
        Ok(())
    }
}

/// The chaos configuration day `day` runs: micro or paper shape, with
/// the paths policy alternating one-hop / multihop.
#[must_use]
pub fn day_config(cfg: &SoakConfig, day: u32) -> ChaosConfig {
    let mut c = if cfg.smoke {
        ChaosConfig::micro()
    } else {
        ChaosConfig::paper()
    };
    c.service.paths = if day.is_multiple_of(2) {
        PathsPolicy::OneHop
    } else {
        PathsPolicy::MultiHop
    };
    c
}

/// The service/schedule seed day `day` runs under.
#[must_use]
pub fn day_seed(seed: u64, day: u32) -> u64 {
    SimRng::seed_from(seed)
        .fork(STREAM_SOAK)
        .fork(u64::from(day))
        .next_u64()
}

/// FNV-1a over the run identity: a checkpoint only resumes the exact
/// `(seed, days, smoke)` it was cut from.
fn fingerprint(cfg: &SoakConfig, seed: u64) -> u64 {
    let id = format!("soak-v1|seed={seed}|days={}|smoke={}", cfg.days, cfg.smoke);
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in id.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

fn parse_ckpt_u64(line: &str, key: &str) -> Result<u64, String> {
    let rest = line
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| format!("checkpoint: expected `{key} <value>`, got {line:?}"))?;
    if key.ends_with("_bits") || key == "fingerprint" {
        u64::from_str_radix(rest.trim(), 16)
    } else {
        rest.trim().parse::<u64>()
    }
    .map_err(|_| format!("checkpoint: bad value in {line:?}"))
}

fn parse_row(line: &str) -> Result<SoakRow, String> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 14 {
        return Err(format!("checkpoint row has {} fields: {line:?}", f.len()));
    }
    let int = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("checkpoint row: bad integer {s:?}"))
    };
    let float = |s: &str| {
        s.parse::<f64>()
            .map_err(|_| format!("checkpoint row: bad float {s:?}"))
    };
    Ok(SoakRow {
        day: u32::try_from(int(f[0])?).map_err(|_| "day overflow".to_string())?,
        multihop: f[1] == "multihop",
        arrivals: int(f[2])?,
        completed: int(f[3])?,
        killed: int(f[4])?,
        retries: int(f[5])?,
        denied: int(f[6])?,
        slo_viol: int(f[7])?,
        inv_viol: int(f[8])?,
        availability: float(f[9])?,
        spend_usd: float(f[10])?,
        cum_completed: int(f[11])?,
        cum_slo_viol: int(f[12])?,
        cum_spend_usd: float(f[13])?,
    })
}

/// Restores `(days_done, cum, rows)` from checkpoint text.
fn restore(cfg: &SoakConfig, seed: u64, text: &str) -> Result<(u32, Cum, Vec<SoakRow>), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty checkpoint")?;
    if header.trim() != "# cronets soak checkpoint v1" {
        return Err(format!("bad checkpoint header: {header:?}"));
    }
    let mut next = || {
        lines
            .next()
            .ok_or_else(|| "truncated checkpoint".to_string())
    };
    let fp = parse_ckpt_u64(next()?, "fingerprint")?;
    let want = fingerprint(cfg, seed);
    if fp != want {
        return Err(format!(
            "checkpoint fingerprint {fp:016x} does not match this run ({want:016x}): \
             it was cut from a different (seed, days, smoke)"
        ));
    }
    let days_done = u32::try_from(parse_ckpt_u64(next()?, "days_done")?)
        .map_err(|_| "days_done overflow".to_string())?;
    let cum = Cum {
        arrivals: parse_ckpt_u64(next()?, "cum_arrivals")?,
        completed: parse_ckpt_u64(next()?, "cum_completed")?,
        killed: parse_ckpt_u64(next()?, "cum_killed")?,
        retries: parse_ckpt_u64(next()?, "cum_retries")?,
        denied: parse_ckpt_u64(next()?, "cum_denied")?,
        slo_viol: parse_ckpt_u64(next()?, "cum_slo_viol")?,
        inv_viol: parse_ckpt_u64(next()?, "cum_inv_viol")?,
        spend_usd: f64::from_bits(parse_ckpt_u64(next()?, "cum_spend_bits")?),
    };
    let n = parse_ckpt_u64(next()?, "rows")?;
    let mut rows = Vec::with_capacity(n as usize);
    for _ in 0..n {
        rows.push(parse_row(next()?)?);
    }
    if rows.len() as u64 != n || days_done as usize != rows.len() {
        return Err("checkpoint row count mismatch".to_string());
    }
    Ok((days_done, cum, rows))
}

/// Runs (or resumes) the soak. `resume` is previously serialized
/// [`SoakReport::checkpoint`] text; `stop_after` caps how many days may
/// be *done* when returning (for split-run tests and bounded CI steps).
/// `on_checkpoint` is called with fresh checkpoint text after every
/// completed day — the CLI persists it so a killed run loses at most
/// one day.
///
/// Deterministic in `(cfg, seed)`: resumed and unsplit runs produce
/// byte-identical [`SoakReport::to_tsv`] output.
///
/// # Errors
///
/// Returns a message when the checkpoint text is malformed or was cut
/// from a different run identity.
pub fn soak(
    cfg: &SoakConfig,
    seed: u64,
    resume: Option<&str>,
    stop_after: Option<u32>,
    mut on_checkpoint: impl FnMut(&str),
) -> Result<SoakReport, String> {
    let (start_day, mut cum, mut rows) = match resume {
        Some(text) => restore(cfg, seed, text)?,
        None => (0, Cum::default(), Vec::new()),
    };
    if start_day > cfg.days {
        return Err(format!(
            "checkpoint has {start_day} days done but the run is only {} days",
            cfg.days
        ));
    }
    let stop = stop_after.unwrap_or(cfg.days).min(cfg.days);

    // The running (compacted) ledger for days run in this process. Its
    // tenant targets come from the day shape, which is constant across
    // the run.
    let mut slo = control::SloAccount::new(day_config(cfg, 0).service.slo.clone());
    let mut violations: Vec<(u32, faults::Violation)> = Vec::new();
    let mut findings: Vec<SoakFinding> = Vec::new();

    let report = |days_done: u32,
                  cum: Cum,
                  rows: &[SoakRow],
                  slo: control::SloAccount,
                  violations: Vec<(u32, faults::Violation)>,
                  findings: Vec<SoakFinding>| {
        SoakReport {
            rows: rows.to_vec(),
            days_done,
            days_total: cfg.days,
            slo,
            violations,
            findings,
            fingerprint: fingerprint(cfg, seed),
            cum,
        }
    };

    for day in start_day..stop {
        let dc = day_config(cfg, day);
        let dseed = day_seed(seed, day);
        // The schedule is generated explicitly (rather than inside
        // `chaos`) so a violating day can be lifted into the fuzzer's
        // IR and minimized.
        let schedule = faults::FaultSchedule::generate(&dc.faults, dseed);
        let r = chaos_with_sink(&dc, dseed, &schedule, &mut |_| {});

        // Ledger compaction: the day's account folds into the running
        // one; the day report drops here, keeping memory flat across
        // the week.
        slo.merge(&r.slo);
        let availability = if r.rows.is_empty() {
            1.0
        } else {
            r.rows.iter().map(|row| row.availability).sum::<f64>() / r.rows.len() as f64
        };
        if !r.invariant_violations.is_empty() {
            let first = r.invariant_violations[0].kind.clone();
            let tag = first.tag().to_string();
            for v in &r.invariant_violations {
                violations.push((day, v.clone()));
            }
            let ir = ScheduleIr::from_schedule(
                &schedule,
                dc.faults.relays,
                dc.service.workload.horizon(),
                dseed,
            );
            let (mut min, _) = ddmin(&ir, |cand| {
                let Ok(s) = cand.render() else { return false };
                chaos_with_sink(&dc, dseed, &s, &mut |_| {})
                    .invariant_violations
                    .iter()
                    .any(|v| std::mem::discriminant(&v.kind) == std::mem::discriminant(&first))
            });
            min.expect = tag.clone();
            findings.push(SoakFinding {
                day,
                tag,
                corpus: min.encode(),
            });
        }

        cum.arrivals += r.arrivals;
        cum.completed += r.completed;
        cum.killed += r.killed;
        cum.retries += r.retries;
        cum.denied += r.broker.denied;
        cum.slo_viol += r.slo.violations();
        cum.inv_viol += r.invariant_violations.len() as u64;
        cum.spend_usd += r.spend_usd;
        rows.push(SoakRow {
            day,
            multihop: dc.service.paths == PathsPolicy::MultiHop,
            arrivals: r.arrivals,
            completed: r.completed,
            killed: r.killed,
            retries: r.retries,
            denied: r.broker.denied,
            slo_viol: r.slo.violations(),
            inv_viol: r.invariant_violations.len() as u64,
            availability,
            spend_usd: r.spend_usd,
            cum_completed: cum.completed,
            cum_slo_viol: cum.slo_viol,
            cum_spend_usd: cum.spend_usd,
        });

        let snap = report(
            day + 1,
            cum,
            &rows,
            control::SloAccount::new(dc.service.slo.clone()),
            Vec::new(),
            Vec::new(),
        );
        on_checkpoint(&snap.checkpoint());
    }

    Ok(report(stop, cum, &rows, slo, violations, findings))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SoakConfig {
        SoakConfig {
            days: 3,
            smoke: true,
        }
    }

    #[test]
    fn soak_runs_clean_and_deterministic() {
        let a = soak(&tiny(), 7, None, None, |_| {}).unwrap();
        let b = soak(&tiny(), 7, None, None, |_| {}).unwrap();
        assert_eq!(a.to_tsv(), b.to_tsv());
        assert_eq!(a.days_done, 3);
        assert!(a.violations.is_empty(), "{a}");
        assert!(a.cum.completed > 0);
        // Both policies soaked.
        assert!(a.rows.iter().any(|r| r.multihop));
        assert!(a.rows.iter().any(|r| !r.multihop));
    }

    #[test]
    fn split_run_is_byte_identical_to_unsplit() {
        let whole = soak(&tiny(), 7, None, None, |_| {}).unwrap();
        let mut last_ckpt = String::new();
        let first = soak(&tiny(), 7, None, Some(2), |c| last_ckpt = c.to_string()).unwrap();
        assert_eq!(first.days_done, 2);
        assert!(!last_ckpt.is_empty());
        let second = soak(&tiny(), 7, Some(&last_ckpt), None, |_| {}).unwrap();
        assert_eq!(second.days_done, 3);
        assert_eq!(second.to_tsv(), whole.to_tsv());
        assert_eq!(second.checkpoint(), whole.checkpoint());
    }

    #[test]
    fn checkpoint_rejects_a_different_run_identity() {
        let mut ckpt = String::new();
        soak(&tiny(), 7, None, Some(1), |c| ckpt = c.to_string()).unwrap();
        // Different seed.
        let err = soak(&tiny(), 8, Some(&ckpt), None, |_| {}).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        // Different day shape.
        let full = SoakConfig {
            days: 3,
            smoke: false,
        };
        let err = soak(&full, 7, Some(&ckpt), None, |_| {}).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        // Garbage text.
        assert!(soak(&tiny(), 7, Some("nonsense"), None, |_| {}).is_err());
    }

    #[test]
    fn resume_from_final_checkpoint_is_a_noop() {
        let mut ckpt = String::new();
        let whole = soak(&tiny(), 7, None, None, |c| ckpt = c.to_string()).unwrap();
        let resumed = soak(&tiny(), 7, Some(&ckpt), None, |_| {}).unwrap();
        assert_eq!(resumed.days_done, 3);
        assert_eq!(resumed.to_tsv(), whole.to_tsv());
    }
}
