//! Regression replay of the checked-in fuzz corpus.
//!
//! Every `tests/corpus/*.corpus` file is a fault schedule the fuzzer
//! (or a soak run) found interesting, in the text format of
//! `fuzz::ScheduleIr::encode`. Each entry declares what replaying it
//! through the micro chaos run must produce: `expect clean` (no
//! invariant violations — coverage-interesting corpus seeds) or
//! `expect <tag>` (the named violation must fire — minimized repros and
//! the proof-of-harness entry). Each replay also checks the run's online
//! fault attribution against the walk over its collected span stream.
//! A named test per entry keeps failures addressable; a directory sweep
//! keeps future additions from being silently skipped.

use std::path::Path;

use experiments::attribution::Attribution;
use experiments::chaos::{chaos_with_schedule, chaos_with_sink, ChaosConfig};
use fuzz::ScheduleIr;

/// Decodes one corpus file and replays it through the micro chaos
/// configuration, asserting the declared verdict.
fn replay(name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let ir = ScheduleIr::decode(&text).unwrap_or_else(|e| panic!("{name}: bad corpus entry: {e}"));

    let cfg = ChaosConfig::micro();
    assert_eq!(
        ir.relays, cfg.faults.relays,
        "{name}: entry was minted against a different relay count"
    );
    assert_eq!(
        ir.horizon,
        cfg.service.workload.horizon().as_nanos(),
        "{name}: entry was minted against a different horizon"
    );

    let schedule = ir
        .render()
        .unwrap_or_else(|e| panic!("{name}: schedule does not render: {e}"));
    let report = chaos_with_schedule(&cfg, ir.seed, &schedule);
    let tags: Vec<&str> = report
        .invariant_violations
        .iter()
        .map(|v| v.kind.tag())
        .collect();
    if ir.expect == "clean" {
        assert!(
            tags.is_empty(),
            "{name}: expected a clean replay, got {tags:?}"
        );
    } else {
        assert!(
            tags.contains(&ir.expect.as_str()),
            "{name}: expected violation {:?}, got {tags:?}",
            ir.expect
        );
    }
    // The run keeps one span window at a time: its online attribution
    // is the walk over the spans a sink collects, the sink changes
    // nothing else, and the collecting run kept those spans.
    let mut spans = Vec::new();
    let sunk = chaos_with_sink(&cfg, ir.seed, &schedule, &mut |w| {
        spans.extend_from_slice(w);
    });
    assert_eq!(
        sunk.attribution.to_tsv(),
        Attribution::attribute(&spans).to_tsv(),
        "{name}"
    );
    assert_eq!(sunk.attribution.to_tsv(), report.attribution.to_tsv());
    assert_eq!(sunk.to_string(), report.to_string(), "{name}");
    assert!(sunk.spans.is_empty());
    assert!(report.spans.iter().eq(spans.iter().copied()), "{name}");
    // Round-trip stability: re-encoding reproduces the schedule.
    let again = ScheduleIr::decode(&ir.encode()).expect("re-decode");
    assert_eq!(again.render().expect("re-render"), schedule, "{name}");
}

#[test]
fn corpus_lone_poison_stays_clean() {
    replay("lone_poison.corpus");
}

#[test]
fn corpus_crash_degrade_mix_stays_clean() {
    replay("crash_degrade_mix.corpus");
}

#[test]
fn corpus_all_fault_families_stay_clean() {
    replay("all_families.corpus");
}

#[test]
fn corpus_mttr_proof_fires_the_checker() {
    // Proof-of-harness: a declared-cap violation the schedule validator
    // deliberately lets through must be caught at runtime, stamped with
    // a sim-time inside the crash window and a nonzero span id.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/mttr_proof.corpus");
    let ir = ScheduleIr::decode(&std::fs::read_to_string(path).unwrap()).unwrap();
    let schedule = ir.render().unwrap();
    let report = chaos_with_schedule(&ChaosConfig::micro(), ir.seed, &schedule);
    let v = report
        .invariant_violations
        .iter()
        .find(|v| v.kind.tag() == "recovery-exceeded-mttr")
        .expect("the declared-cap violation must fire");
    assert!(v.at >= simcore::SimTime::ZERO + simcore::SimDuration::from_secs(400));
    replay("mttr_proof.corpus");
}

#[test]
fn every_corpus_file_has_a_named_test() {
    // The sweep: every on-disk entry must replay clean-or-as-declared,
    // so a new file dropped into tests/corpus/ cannot be silently
    // skipped even before its named test lands.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut n = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/corpus exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("corpus") {
            replay(path.file_name().unwrap().to_str().unwrap());
            n += 1;
        }
    }
    assert!(n >= 3, "corpus has shrunk below the checked-in minimum");
}
