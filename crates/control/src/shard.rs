//! Cross-shard control-plane protocol: messages, counter namespacing,
//! and the exact-merge helpers the global reconciliation layer uses.
//!
//! The sharded service (PR 10) splits the control plane into per-region
//! shards — each region owns its own [`crate::Broker`], [`crate::Fleet`],
//! [`crate::SloAccount`], workload substream and probe cache — plus a
//! thin global layer that runs at every epoch barrier on the calling
//! thread. The pieces that cross the shard boundary live here:
//!
//! * [`ShardMsg`] — the wire protocol for cross-region flows. A flow
//!   whose deterministic hash marks it *remote* transfers its first leg
//!   in the origin region, then hands the remainder off to the
//!   destination region (`Handoff`), which either completes it
//!   (`Done`) or bounces it back for a direct retry (`Retry`).
//!   Every message names its receiving region by index: a handoff by
//!   `dst`, a reply by `origin`.
//! * [`merge_spend_bits`] — the budget reconciler's spend rollup.
//!   Adding region spends in a float-order-dependent way would make
//!   the rollup depend on the merge schedule, so regions are folded in
//!   region-index order over exact `f64::to_bits` round-trips — the
//!   same discipline as the soak checkpoint's `cum_spend_bits` field.
//! * [`publish_broker_stats`] / [`publish_fleet_stats`] — counter
//!   publication under an explicit namespace prefix, so each region
//!   exports `control.shard<k>.broker.*` and the reconciler exports the
//!   merged rollup under the classic `control.broker.*` names.

use simcore::{SimDuration, SimTime};

use crate::{BrokerStats, FleetStats};

/// One cross-shard control-plane message. Field order (and the derived
/// ordering of emission) is part of the determinism contract: mailboxes
/// deliver messages ordered by sender shard then emission order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardMsg {
    /// Origin region finished the egress leg of a cross-region flow and
    /// hands the remainder to the destination region.
    Handoff {
        /// Flow id (globally unique: region index is folded in).
        flow: u64,
        /// Destination region index.
        dst: u32,
        /// Origin region index (reply address).
        origin: u32,
        /// Tenant of the flow (SLO accounting happens at the origin).
        tenant: u32,
        /// Bytes still to transfer after the egress leg.
        remaining: u64,
        /// Bytes the egress leg already delivered.
        handed: u64,
        /// Direct-path throughput estimate at the origin, bits/second
        /// (used to settle a bounced flow on the direct path).
        direct_bps: f64,
        /// Direct-path RTT estimate at the origin.
        rtt: SimDuration,
        /// Original arrival time (latency SLO is end to end).
        issued: SimTime,
    },
    /// Destination region completed the ingress leg; the origin records
    /// the end-to-end SLO outcome.
    Done {
        /// Flow id.
        flow: u64,
        /// Origin region index.
        origin: u32,
        /// Tenant of the flow.
        tenant: u32,
        /// Bytes the ingress leg delivered (= the handoff's remainder).
        remaining: u64,
        /// Achieved/direct throughput ratio of the ingress leg.
        ratio: f64,
        /// End-to-end completion latency.
        latency: SimDuration,
    },
    /// Destination region had no relay capacity for the ingress leg;
    /// the origin settles the remainder on its direct path.
    Retry {
        /// Flow id.
        flow: u64,
        /// Origin region index.
        origin: u32,
        /// Tenant of the flow.
        tenant: u32,
        /// Bytes still to transfer.
        remaining: u64,
        /// Direct-path throughput estimate, bits/second.
        direct_bps: f64,
        /// Direct-path RTT estimate.
        rtt: SimDuration,
        /// Original arrival time.
        issued: SimTime,
    },
}

/// Folds per-region spends into one exact global figure by summing in
/// the iterator's order over `f64` bit patterns — byte-reproducible on
/// any lane/thread schedule, like the soak checkpoint's
/// `cum_spend_bits` round-trip. The iterator must be driven in region
/// order for the result to be schedule-independent.
#[must_use]
pub fn merge_spend_bits<I: IntoIterator<Item = u64>>(parts: I) -> f64 {
    let mut total = 0.0f64;
    for bits in parts {
        total += f64::from_bits(bits);
    }
    total
}

/// Publishes broker decision counters under `prefix` (e.g. `control.`
/// or `control.shard3.`). No-op while collection is disabled.
pub fn publish_broker_stats(prefix: &str, s: &BrokerStats) {
    obs::add_named(&format!("{prefix}broker.admitted"), s.admitted);
    obs::add_named(&format!("{prefix}broker.denied"), s.denied);
    obs::add_named(&format!("{prefix}broker.overlay"), s.overlay);
    obs::add_named(&format!("{prefix}broker.direct"), s.direct);
    obs::add_named(&format!("{prefix}broker.stale_fallback"), s.stale_fallback);
    obs::add_named(&format!("{prefix}broker.chain"), s.chain);
    obs::add_named(&format!("{prefix}broker.probe_spent"), s.probe_spent);
    obs::add_named(
        &format!("{prefix}broker.probe_refreshes"),
        s.probe_refreshes,
    );
}

/// Publishes fleet scaling counters under `prefix`. No-op while
/// collection is disabled.
pub fn publish_fleet_stats(prefix: &str, s: &FleetStats) {
    obs::add_named(&format!("{prefix}fleet.scale_ups"), s.scale_ups);
    obs::add_named(&format!("{prefix}fleet.drains"), s.drains);
    obs::add_named(&format!("{prefix}fleet.releases"), s.releases);
    obs::add_named(&format!("{prefix}fleet.crashes"), s.crashes);
    obs::add_named(&format!("{prefix}fleet.restores"), s.restores);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_bits_merge_is_exact_and_ordered() {
        let parts = [1e16f64, 1.0, 1.0];
        let bits: Vec<u64> = parts.iter().map(|v| v.to_bits()).collect();
        let merged = merge_spend_bits(bits.iter().copied());
        // Exactly the left-to-right float sum, bit for bit.
        let mut expect = 0.0;
        for p in parts {
            expect += p;
        }
        assert_eq!(merged.to_bits(), expect.to_bits());
        // A different order is a *different* float — which is why the
        // reconciler fixes region order rather than trusting the
        // schedule.
        let reversed = merge_spend_bits(bits.iter().rev().copied());
        assert_ne!(merged.to_bits(), reversed.to_bits());
    }

    #[test]
    fn prefixed_publish_namespaces_counters() {
        obs::enable();
        let b = BrokerStats {
            admitted: 7,
            ..BrokerStats::default()
        };
        publish_broker_stats("control.shard3.", &b);
        let f = FleetStats {
            scale_ups: 5,
            ..FleetStats::default()
        };
        publish_fleet_stats("control.shard3.", &f);
        let snap = obs::snapshot().to_tsv();
        obs::disable();
        assert!(snap.contains("control.shard3.broker.admitted\tcounter\t7"));
        assert!(snap.contains("control.shard3.fleet.scale_ups\tcounter\t5"));
    }
}
