//! Control-plane integration tests: the broker/fleet/SLO contract as
//! seen through the `control` crate's public API, plus the CLI's
//! strictness guarantees (unknown experiments, flags, and extra
//! positionals must all exit non-zero with usage on stderr).

use std::process::Command;

use cloud::{PortSpeed, TrafficPlan};
use control::{
    Broker, BrokerConfig, Decision, Fleet, FleetConfig, RelayState, SloAccount, SloTarget,
};
use cronets::eval::{Measurement, OverlayEval, PairEval};
use routing::RouterPath;
use simcore::{SimDuration, SimTime};
use topology::RouterId;

fn probe(direct_bps: f64, overlay_bps: f64) -> PairEval {
    let path = RouterPath::trivial(RouterId::from_raw(0));
    let meas = |bps: f64| Measurement {
        throughput_bps: bps,
        rtt: SimDuration::from_millis(80),
        loss: 0.005,
    };
    PairEval {
        direct: meas(direct_bps),
        direct_path: path.clone(),
        overlays: vec![OverlayEval {
            node: 0,
            plain: meas(0.8 * overlay_bps),
            split: meas(overlay_bps),
            discrete_bps: overlay_bps,
            path,
        }],
    }
}

#[test]
fn broker_serves_overlay_only_while_the_probe_is_fresh() {
    let mut broker = Broker::new(BrokerConfig {
        max_probe_age: SimDuration::from_secs(60),
        min_accept_bps: 1e6,
        overlay_margin: 1.05,
    });
    let (src, dst) = (RouterId::from_raw(7), RouterId::from_raw(8));
    let t0 = SimTime::ZERO + SimDuration::from_secs(1000);
    broker.observe(src, dst, t0, probe(20e6, 80e6));

    // Within the staleness bound: the overlay win is honoured.
    let fresh = broker.decide(src, dst, t0 + SimDuration::from_secs(60), |_| true);
    assert_eq!(fresh, Decision::Overlay { node: 0, bps: 80e6 });

    // One tick past the bound: fall back to direct, never steer blind.
    let stale = broker.decide(src, dst, t0 + SimDuration::from_secs(61), |_| true);
    assert_eq!(stale, Decision::Direct { bps: 20e6 });

    // A refreshed probe restores overlay service at the new measurement.
    let t1 = t0 + SimDuration::from_secs(120);
    broker.observe(src, dst, t1, probe(20e6, 90e6));
    let again = broker.decide(src, dst, t1, |_| true);
    assert_eq!(again, Decision::Overlay { node: 0, bps: 90e6 });

    let s = broker.stats();
    assert_eq!(
        (s.admitted, s.overlay, s.direct, s.stale_fallback, s.denied),
        (3, 2, 0, 1, 0)
    );
}

#[test]
fn fleet_drains_before_releasing_and_bills_through_the_drain() {
    let mut fleet = Fleet::new(FleetConfig {
        relays: 2,
        capacity_per_relay: 2,
        min_active: 0,
        port: PortSpeed::Mbps100,
        plan: TrafficPlan::Gb5000,
        budget_usd: 10.0,
        scale_up_util: 0.75,
        scale_down_util: 0.6,
    });
    let hour = SimDuration::from_secs(3600);

    // All-released under load reads saturated: the first rebalance rents.
    fleet.rebalance(hour * 4);
    assert_eq!(fleet.relay_state(0), RelayState::Active);
    fleet.flow_started(0);
    fleet.flow_started(0);
    fleet.rebalance(hour * 3); // saturated → rent relay 1
    assert_eq!(fleet.active(), 2);
    fleet.flow_finished(0);
    fleet.flow_finished(0);
    fleet.flow_started(1);

    // flows [0, 1]: util 0.25 → drain the idle relay 0 (instant release);
    // the next step sees util 0.5 and drains relay 1 mid-flow.
    fleet.rebalance(hour * 2);
    fleet.rebalance(hour * 2);
    assert_eq!(fleet.relay_state(1), RelayState::Draining);
    assert!(!fleet.is_free(1), "draining relay must refuse new flows");
    assert_eq!(fleet.in_service(), 1, "draining relay still bills");

    // Rent keeps accruing until the last flow drains off.
    let before = fleet.spend_usd();
    fleet.accrue(hour);
    assert!(
        fleet.spend_usd() > before,
        "drain time must be billed: {before} -> {}",
        fleet.spend_usd()
    );
    fleet.flow_finished(1);
    assert_eq!(fleet.relay_state(1), RelayState::Released);
    assert_eq!(fleet.in_service(), 0);
    let stats = fleet.stats();
    assert!(stats.drains >= 2);
    assert_eq!(
        stats.releases, stats.drains,
        "every drain ends in a release"
    );
}

#[test]
fn slo_ledger_charges_denials_and_both_target_breaches() {
    let mut slo = SloAccount::new(vec![
        SloTarget {
            min_throughput_ratio: 1.0,
            max_completion: SimDuration::from_secs(30),
        },
        SloTarget {
            min_throughput_ratio: 0.5,
            max_completion: SimDuration::from_secs(600),
        },
    ]);
    slo.record_completion(0, 1.3, SimDuration::from_secs(12)); // clean
    slo.record_completion(0, 0.7, SimDuration::from_secs(12)); // ratio breach
    slo.record_completion(0, 0.7, SimDuration::from_secs(90)); // both breached
    slo.record_denial(0);
    slo.record_completion(1, 0.7, SimDuration::from_secs(90)); // clean under tenant 1
    assert_eq!(slo.completed(), 4);
    assert_eq!(
        slo.tenants()[0].violations(),
        4,
        "1 denial + 2 ratio + 1 latency"
    );
    assert_eq!(slo.tenants()[1].violations(), 0);
    assert_eq!(slo.violations(), 4);
}

fn run_cli(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cronets"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("cronets runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_rejects_unknown_experiments_with_usage() {
    for name in ["figure99", "accuracy"] {
        let (ok, err) = run_cli(&[name]);
        assert!(!ok, "unknown experiment {name} must exit non-zero");
        assert!(err.contains("unknown experiment"), "stderr: {err}");
        assert!(err.contains("usage:"), "stderr: {err}");
    }
}

#[test]
fn cli_rejects_unknown_flags_with_usage() {
    for flag in ["--frobnicate", "--fidelity"] {
        let (ok, err) = run_cli(&["service", flag, "des"]);
        assert!(!ok, "unknown flag {flag} must exit non-zero");
        assert!(err.contains("unknown option"), "stderr: {err}");
        assert!(err.contains("usage:"), "stderr: {err}");
    }
}

#[test]
fn cli_rejects_extra_positionals_and_missing_name() {
    let (ok, err) = run_cli(&["fig2", "fig3"]);
    assert!(!ok, "two experiment names must exit non-zero");
    assert!(err.contains("expected one experiment"), "stderr: {err}");
    let (ok, err) = run_cli(&[]);
    assert!(!ok, "missing experiment name must exit non-zero");
    assert!(err.contains("missing experiment"), "stderr: {err}");
}

#[test]
fn cli_rejects_malformed_flag_values() {
    let (ok, _) = run_cli(&["service", "--seed", "banana"]);
    assert!(!ok, "--seed wants an integer");
    let (ok, _) = run_cli(&["service", "--threads", "0"]);
    assert!(!ok, "--threads wants a positive integer");
    let (ok, _) = run_cli(&["fig2", "--trace", "0"]);
    assert!(!ok, "--trace without --metrics must fail");
}

#[test]
fn crashed_relay_is_unroutable_even_before_its_probe_goes_stale() {
    // The broker's probe cache can't know a VM died; the capacity
    // filter (fed by the fleet) must keep traffic off the corpse in the
    // window between the crash and probe staleness, and the staleness
    // bound takes over from there.
    let mut broker = Broker::new(BrokerConfig {
        max_probe_age: SimDuration::from_secs(60),
        min_accept_bps: 1e6,
        overlay_margin: 1.05,
    });
    let mut fleet = Fleet::new(FleetConfig {
        relays: 1,
        capacity_per_relay: 4,
        min_active: 1,
        port: PortSpeed::Mbps100,
        plan: TrafficPlan::Gb5000,
        budget_usd: 10.0,
        scale_up_util: 0.75,
        scale_down_util: 0.30,
    });
    let (src, dst) = (RouterId::from_raw(7), RouterId::from_raw(8));
    let t0 = SimTime::ZERO + SimDuration::from_secs(1000);
    broker.observe(src, dst, t0, probe(20e6, 80e6));
    assert_eq!(
        broker.decide(src, dst, t0, |n| fleet.is_free(n)),
        Decision::Overlay { node: 0, bps: 80e6 },
        "healthy relay with a fresh probe serves overlay"
    );

    // Crash: the probe is still fresh, but the fleet filter wins.
    fleet.crash(0);
    let fresh_but_dead = broker.decide(src, dst, t0 + SimDuration::from_secs(10), |n| {
        fleet.is_free(n)
    });
    assert_eq!(fresh_but_dead, Decision::Direct { bps: 20e6 });

    // Once the probe is also stale, the fallback is charged as stale.
    let stale = broker.decide(src, dst, t0 + SimDuration::from_secs(61), |n| {
        fleet.is_free(n)
    });
    assert_eq!(stale, Decision::Direct { bps: 20e6 });
    assert_eq!(broker.stats().stale_fallback, 1);

    // Restore + re-rent + fresh probe: overlay service resumes.
    fleet.restore(0);
    fleet.rebalance(SimDuration::from_secs(3600));
    assert_eq!(fleet.relay_state(0), RelayState::Active);
    let t1 = t0 + SimDuration::from_secs(120);
    broker.observe(src, dst, t1, probe(20e6, 90e6));
    assert_eq!(
        broker.decide(src, dst, t1, |n| fleet.is_free(n)),
        Decision::Overlay { node: 0, bps: 90e6 }
    );
}

#[test]
fn autoscaler_replaces_a_crashed_relay_only_within_budget() {
    let cfg = FleetConfig {
        relays: 3,
        capacity_per_relay: 2,
        min_active: 0,
        port: PortSpeed::Mbps100,
        plan: TrafficPlan::Gb5000,
        budget_usd: 10.0,
        scale_up_util: 0.75,
        scale_down_util: 0.10,
    };
    let hour = SimDuration::from_secs(3600);

    // Generous budget: the outage's lost capacity is replaced from the
    // released pool, and the corpse itself is never re-rented.
    let mut fleet = Fleet::new(cfg);
    fleet.rebalance(hour * 4); // rent slot 0
    fleet.flow_started(0);
    fleet.flow_started(0);
    fleet.crash(0);
    assert_eq!(fleet.active(), 0);
    fleet.rebalance(hour * 3);
    assert_eq!(
        fleet.relay_state(0),
        RelayState::Failed,
        "corpse stays dead"
    );
    assert_eq!(
        fleet.relay_state(1),
        RelayState::Active,
        "replacement rented"
    );
    assert_eq!(fleet.stats().crashes, 1);

    // Exhausted budget: the same outage goes un-replaced — the budget
    // cap binds even mid-outage.
    let mut broke = Fleet::new(FleetConfig {
        budget_usd: 0.0,
        ..cfg
    });
    broke.rebalance(hour * 4);
    assert_eq!(broke.active(), 0, "zero budget rents nothing");
    let mut capped = Fleet::new(FleetConfig {
        // Enough to have rented slot 0 for the past, nothing left for a
        // worst-case replacement over the remaining horizon.
        budget_usd: 0.001,
        ..cfg
    });
    capped.rebalance(SimDuration::from_secs(1)); // cheap: rents slot 0
    assert_eq!(capped.active(), 1);
    capped.flow_started(0);
    capped.flow_started(0);
    capped.accrue(SimDuration::from_secs(1));
    capped.crash(0);
    capped.rebalance(hour * 3);
    assert_eq!(
        capped.active(),
        0,
        "no budget headroom: the outage is not replaced"
    );
}

#[test]
fn slo_merge_is_associative_under_interleaved_fault_epochs() {
    let targets = || {
        vec![
            SloTarget {
                min_throughput_ratio: 0.9,
                max_completion: SimDuration::from_secs(30),
            },
            SloTarget {
                min_throughput_ratio: 0.5,
                max_completion: SimDuration::from_secs(120),
            },
        ]
    };
    // Three epoch shards: a healthy epoch, a fault epoch (kills retried
    // late, degraded ratios, denials), and a recovery epoch. Ratios are
    // dyadic rationals so the ledger's f64 sums stay exact — the merge
    // is associative on exactly-representable values and on every
    // counter.
    let mut healthy = SloAccount::new(targets());
    healthy.record_completion(0, 1.25, SimDuration::from_secs(10));
    healthy.record_completion(1, 0.75, SimDuration::from_secs(40));
    let mut faulty = SloAccount::new(targets());
    faulty.record_completion(0, 0.375, SimDuration::from_secs(300)); // both breached
    faulty.record_denial(0);
    faulty.record_denial(1);
    faulty.record_completion(1, 0.4375, SimDuration::from_secs(130)); // both breached
    let mut recovery = SloAccount::new(targets());
    recovery.record_completion(0, 1.0, SimDuration::from_secs(20));
    recovery.record_completion(1, 0.625, SimDuration::from_secs(60));

    // (healthy ⊕ faulty) ⊕ recovery == healthy ⊕ (faulty ⊕ recovery).
    let mut left = SloAccount::new(targets());
    left.merge(&healthy);
    left.merge(&faulty);
    left.merge(&recovery);
    let mut right_tail = SloAccount::new(targets());
    right_tail.merge(&faulty);
    right_tail.merge(&recovery);
    let mut right = SloAccount::new(targets());
    right.merge(&healthy);
    right.merge(&right_tail);

    assert_eq!(left.tenants(), right.tenants());
    assert_eq!(left.completed(), right.completed());
    assert_eq!(left.violations(), right.violations());
    assert_eq!(left.violations(), 6, "2 denials + 2 ratio + 2 latency");
}
