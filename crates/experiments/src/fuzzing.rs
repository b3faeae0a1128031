//! Coverage-guided fault-schedule fuzzing of the chaos loop.
//!
//! The driver behind `cronets fuzz`: an AFL-shaped loop over the
//! [`fuzz`] crate's structured schedule IR, with the micro chaos
//! configuration ([`ChaosConfig::micro`]) as the system under test so
//! one iteration costs milliseconds. Each iteration
//!
//! 1. picks a corpus entry (seeded with the empty schedule and the
//!    generator's own output for the frame),
//! 2. mutates it structurally ([`fuzz::mutate`](fn@fuzz::mutate)),
//! 3. renders and runs it through [`chaos_with_schedule`] with metrics
//!    collection on,
//! 4. harvests the published `control.broker.*` / `control.fleet.*` /
//!    `faults.*` counters into a [`fuzz::CoverageMap`] — a schedule
//!    that lights a new (counter × log2-bucket) feature joins the
//!    corpus,
//! 5. and on any invariant violation, delta-debugs the schedule down
//!    to a locally minimal repro ([`fuzz::ddmin`]) and reports it as a
//!    [`FuzzFinding`] whose `corpus` text is ready to check into
//!    `tests/corpus/` as a named regression test.
//!
//! The whole trajectory — corpus picks, mutations, everything — is a
//! pure function of `(FuzzConfig, seed)`. The service seed is pinned
//! to the fuzz seed for every iteration: the schedule is the only
//! variable, so a finding replays exactly.

use std::fmt;

use fuzz::{ddmin, mutate, CoverageMap, ScheduleIr};
use simcore::SimRng;

use crate::chaos::{chaos_with_schedule, ChaosConfig};

/// RNG stream label for the fuzzer's own draws.
const STREAM_FUZZ: u64 = 0xF022;

/// Fuzzer parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Iterations (mutate + run) to spend.
    pub budget: u32,
}

impl FuzzConfig {
    /// CI-sized budget: enough iterations to grow the corpus past its
    /// seeds and light three-digit feature counts, in a few seconds.
    #[must_use]
    pub fn smoke() -> FuzzConfig {
        FuzzConfig { budget: 40 }
    }
}

/// One fuzzer iteration's bookkeeping (a row of `results/fuzz.tsv`).
#[derive(Debug, Clone, Copy)]
pub struct FuzzRow {
    /// Iteration index.
    pub iter: u32,
    /// Corpus entry the mutant derives from.
    pub parent: usize,
    /// Items in the mutant after sanitize.
    pub items: usize,
    /// Events the rendered schedule injects (0 when unrenderable).
    pub events: usize,
    /// New coverage features this run lit.
    pub new_features: usize,
    /// Corpus size after the iteration.
    pub corpus: usize,
    /// Total features lit so far.
    pub features: usize,
    /// Invariant violations this run produced.
    pub violations: usize,
}

/// A minimized violating schedule, ready for `tests/corpus/`.
#[derive(Debug, Clone)]
pub struct FuzzFinding {
    /// Iteration that found it.
    pub iter: u32,
    /// [`faults::InvariantViolation::tag`] of the first violation.
    pub tag: String,
    /// Items before minimization.
    pub items_before: usize,
    /// Items after minimization.
    pub items_after: usize,
    /// Chaos runs the minimizer spent.
    pub probes: usize,
    /// The minimized schedule in corpus text format (`expect` set to
    /// the violation tag).
    pub corpus: String,
}

/// The completed fuzzing campaign.
#[derive(Debug)]
pub struct FuzzReport {
    /// One row per iteration.
    pub rows: Vec<FuzzRow>,
    /// Minimized violations (empty on a healthy system).
    pub findings: Vec<FuzzFinding>,
    /// Final corpus size (seeds included).
    pub corpus: usize,
    /// Distinct coverage features lit.
    pub features: usize,
    /// Mutants the renderer rejected (well-formedness conflicts the
    /// sanitizer cannot repair; skipped, not run).
    pub render_rejects: u32,
}

impl FuzzReport {
    /// The iteration table as TSV (with a `#`-prefixed header).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "# iter\tparent\titems\tevents\tnew_features\tcorpus\tfeatures\tviolations\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                r.iter,
                r.parent,
                r.items,
                r.events,
                r.new_features,
                r.corpus,
                r.features,
                r.violations,
            ));
        }
        out
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz: {} iterations, {} corpus entries, {} coverage features, {} unrenderable mutants skipped",
            self.rows.len(),
            self.corpus,
            self.features,
            self.render_rejects,
        )?;
        if self.findings.is_empty() {
            writeln!(f, "findings: none (all invariants held)")?;
        } else {
            writeln!(f, "findings: {} VIOLATION(S)", self.findings.len())?;
            for x in &self.findings {
                writeln!(
                    f,
                    "  !! iter {}: {} (minimized {} -> {} items in {} runs)",
                    x.iter, x.tag, x.items_before, x.items_after, x.probes,
                )?;
            }
        }
        Ok(())
    }
}

/// Runs one schedule through the micro chaos loop with metrics
/// collection on, harvesting coverage. Returns `(new features,
/// violations)`.
fn run_one(
    cfg: &ChaosConfig,
    seed: u64,
    schedule: &faults::FaultSchedule,
    cov: &mut CoverageMap,
) -> (usize, Vec<faults::Violation>) {
    obs::enable();
    let report = chaos_with_schedule(cfg, seed, schedule);
    let snap = obs::snapshot();
    obs::disable();
    (cov.harvest_tsv(&snap.to_tsv()), report.invariant_violations)
}

/// Runs the fuzzing campaign. Deterministic in `(fcfg, seed)`.
///
/// # Panics
///
/// Panics if the corpus seeds themselves fail to render (a bug in the
/// IR lifting, not in the system under test).
#[must_use]
pub fn fuzz_campaign(fcfg: &FuzzConfig, seed: u64) -> FuzzReport {
    let cfg = ChaosConfig::micro();
    let horizon = cfg.service.workload.horizon();
    let epoch = cfg.service.workload.epoch;
    let relays = cfg.faults.relays;
    let cap = cfg.faults.mttr_cap;

    let mut cov = CoverageMap::new();
    let mut corpus: Vec<ScheduleIr> = Vec::new();
    let mut rows: Vec<FuzzRow> = Vec::new();
    let mut findings: Vec<FuzzFinding> = Vec::new();
    let mut render_rejects = 0u32;

    // Seed corpus: the empty schedule (pure-service coverage baseline)
    // and the generator's own output for this frame (every fault
    // family represented).
    let generated = faults::FaultSchedule::generate(&cfg.faults, seed);
    let seeds = [
        ScheduleIr::empty(relays, horizon, cap, seed),
        ScheduleIr::from_schedule(&generated, relays, horizon, seed),
    ];
    for ir in seeds {
        let sched = ir.render().expect("corpus seeds are well-formed");
        let (_, violations) = run_one(&cfg, seed, &sched, &mut cov);
        assert!(
            violations.is_empty(),
            "corpus seed violates invariants before any mutation: {violations:?}"
        );
        corpus.push(ir);
    }

    let root = SimRng::seed_from(seed).fork(STREAM_FUZZ);
    for iter in 0..fcfg.budget {
        let mut rng = root.fork(u64::from(iter));
        let parent = rng.index(corpus.len());
        let mut ir = corpus[parent].clone();
        mutate(&mut ir, &mut rng, epoch);
        let items = ir.item_count();
        let Ok(sched) = ir.render() else {
            render_rejects += 1;
            rows.push(FuzzRow {
                iter,
                parent,
                items,
                events: 0,
                new_features: 0,
                corpus: corpus.len(),
                features: cov.features(),
                violations: 0,
            });
            continue;
        };
        let events = sched.len();
        let (new_features, violations) = run_one(&cfg, seed, &sched, &mut cov);
        if !violations.is_empty() {
            let tag = violations[0].kind.tag().to_string();
            let want = violations[0].kind.clone();
            // Shrink: the same violation kind must survive the subset.
            let (mut min, probes) = ddmin(&ir, |cand| {
                let Ok(s) = cand.render() else { return false };
                let r = chaos_with_schedule(&cfg, seed, &s);
                r.invariant_violations
                    .iter()
                    .any(|v| std::mem::discriminant(&v.kind) == std::mem::discriminant(&want))
            });
            min.expect = tag.clone();
            findings.push(FuzzFinding {
                iter,
                tag,
                items_before: items,
                items_after: min.item_count(),
                probes,
                corpus: min.encode(),
            });
        }
        if new_features > 0 {
            corpus.push(ir);
        }
        rows.push(FuzzRow {
            iter,
            parent,
            items,
            events,
            new_features,
            corpus: corpus.len(),
            features: cov.features(),
            violations: violations.len(),
        });
    }

    FuzzReport {
        rows,
        findings,
        corpus: corpus.len(),
        features: cov.features(),
        render_rejects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_is_deterministic_and_clean() {
        let fcfg = FuzzConfig { budget: 10 };
        let a = fuzz_campaign(&fcfg, 7);
        let b = fuzz_campaign(&fcfg, 7);
        assert_eq!(a.to_tsv(), b.to_tsv());
        assert_eq!(a.findings.len(), b.findings.len());
        assert!(a.findings.is_empty(), "fuzzer found real violations: {}", a);
        assert!(a.features > 0, "no coverage harvested");
        assert!(a.corpus >= 2, "seeds always stay");
        assert_eq!(a.rows.len(), 10);
    }

    #[test]
    fn coverage_grows_past_the_seeds() {
        let r = fuzz_campaign(&FuzzConfig { budget: 25 }, 11);
        assert!(
            r.corpus > 2,
            "25 iterations should light at least one new feature"
        );
    }
}
