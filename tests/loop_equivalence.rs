//! Differential oracle: a chaos run under an empty fault schedule is the
//! plain service run.
//!
//! `service` and `chaos_with_schedule` drive one event loop; the fault
//! schedule only adds its events. With no events there is nothing to
//! add, so the two runs must agree on every epoch row, every tenant's
//! SLO account (down to the bits of the ratio sums), and the broker and
//! fleet counters — at several seeds, on one-hop and multihop paths.

use control::{PathsPolicy, TenantAccount};
use experiments::chaos::{chaos_with_schedule, ChaosConfig};
use experiments::service::service;
use faults::FaultSchedule;

/// The parts of a tenant account that must match, with the ratio and
/// latency sums compared as exact bit patterns.
fn account_bits(a: &TenantAccount) -> (u64, u64, u64, u64, u64, u64) {
    (
        a.completed,
        a.denied,
        a.ratio_violations,
        a.latency_violations,
        a.sum_ratio.to_bits(),
        a.sum_latency.as_nanos(),
    )
}

fn assert_empty_schedule_is_service(paths: PathsPolicy, seed: u64) {
    let mut cfg = ChaosConfig::smoke();
    cfg.service.paths = paths;
    let empty = FaultSchedule::from_events(Vec::new(), cfg.faults.mttr_cap)
        .expect("an empty schedule is well formed");
    let chaos = chaos_with_schedule(&cfg, seed, &empty);
    let plain = service(&cfg.service, seed);
    let tag = format!("{paths:?} seed {seed}");

    assert!(
        chaos.invariant_violations.is_empty(),
        "{tag}: {:?}",
        chaos.invariant_violations
    );
    assert_eq!(chaos.rows.len(), plain.rows.len(), "{tag}: epoch count");
    for (c, s) in chaos.rows.iter().zip(&plain.rows) {
        assert_eq!(
            (
                c.epoch,
                c.arrivals,
                c.overlay,
                c.direct,
                c.denied,
                c.stale,
                c.completed,
                c.violations,
                c.active
            ),
            (
                s.epoch,
                s.arrivals,
                s.overlay,
                s.direct,
                s.denied,
                s.stale,
                s.completed,
                s.violations,
                s.active
            ),
            "{tag}: epoch {} counters",
            s.epoch
        );
        assert_eq!(
            c.spend_usd.to_bits(),
            s.spend_usd.to_bits(),
            "{tag}: epoch {} spend",
            s.epoch
        );
        assert_eq!(c.killed, 0, "{tag}: nothing to kill");
        assert_eq!(c.retries, 0, "{tag}: nothing to retry");
    }

    assert_eq!(chaos.broker, plain.broker, "{tag}: broker stats");
    assert_eq!(chaos.fleet, plain.fleet, "{tag}: fleet stats");
    assert_eq!(chaos.arrivals, plain.arrivals, "{tag}: arrivals");
    assert_eq!(chaos.completed, plain.completed, "{tag}: completions");
    assert_eq!(
        chaos.spend_usd.to_bits(),
        plain.spend_usd.to_bits(),
        "{tag}: final spend"
    );
    let tenants = |r: &[TenantAccount]| r.iter().map(account_bits).collect::<Vec<_>>();
    assert_eq!(
        tenants(chaos.slo.tenants()),
        tenants(plain.slo.tenants()),
        "{tag}: SLO ledger"
    );
}

#[test]
fn empty_schedule_is_service_onehop() {
    for seed in [7, 11, 13] {
        assert_empty_schedule_is_service(PathsPolicy::OneHop, seed);
    }
}

#[test]
fn empty_schedule_is_service_multihop() {
    for seed in [7, 11, 13] {
        assert_empty_schedule_is_service(PathsPolicy::MultiHop, seed);
    }
}
