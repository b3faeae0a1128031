//! Relay-fleet autoscaling under a cloud budget.
//!
//! The paper's cost analysis (§VII) prices an overlay as rented cloud
//! VMs; an online service does not keep the whole fleet up through the
//! diurnal trough. [`Fleet`] tracks each potential relay (one slot per
//! overlay node) through a three-state lifecycle:
//!
//! ```text
//! Released ── rent ──▶ Active ── drain ──▶ Draining ── last flow done ──▶ Released
//!                        ▲                     │
//!                        └──── reactivate ─────┘
//! ```
//!
//! Draining relays accept no new flows but keep carrying the ones they
//! already hold — a relay is only released (and stops billing) once its
//! last flow completes, so no flow is ever cut mid-transfer. Renting
//! checks the remaining budget against the worst-case spend of keeping
//! the enlarged fleet up for the rest of the run.
//!
//! The fault layer (`crates/faults`) adds one more state: any rented or
//! released slot can [`Fleet::crash`] into `Failed` — its flows are
//! killed, billing stops, and the slot is unusable until
//! [`Fleet::restore`] returns it to `Released` (from where a rebalance
//! may rent a replacement VM under the usual budget check).

use cloud::{overlay_node_hourly_usd, PortSpeed, TrafficPlan};
use simcore::SimDuration;

/// Autoscaler policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Total relay slots (one per overlay node in the scenario).
    pub relays: usize,
    /// Concurrent flows one relay can carry.
    pub capacity_per_relay: u32,
    /// Relays kept active even through the trough.
    pub min_active: usize,
    /// Port speed each rented VM is provisioned with.
    pub port: PortSpeed,
    /// Traffic plan each rented VM is provisioned with.
    pub plan: TrafficPlan,
    /// Hard spend ceiling for the whole run, USD.
    pub budget_usd: f64,
    /// Scale up when utilization of the active relays exceeds this.
    pub scale_up_util: f64,
    /// Start draining a relay when utilization falls below this.
    pub scale_down_util: f64,
}

/// Lifecycle state of one relay slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayState {
    /// Not rented; bills nothing and accepts nothing.
    Released,
    /// Rented and accepting flows.
    Active,
    /// Rented, finishing its existing flows, accepting none.
    Draining,
    /// The VM crashed: bills nothing, accepts nothing, and cannot be
    /// rented again until the fault layer restores the slot.
    Failed,
}

/// Scaling-event counters; [`Fleet::publish_prefixed`] exports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Relays rented or reactivated.
    pub scale_ups: u64,
    /// Relays put into draining.
    pub drains: u64,
    /// Relays fully released (drain completed).
    pub releases: u64,
    /// Relay VMs crashed under fault injection.
    pub crashes: u64,
    /// Crashed relay slots restored to rentable.
    pub restores: u64,
}

impl FleetStats {
    /// Folds another shard's counters into this one (all fields are
    /// additive event counts, so the merge is associative and
    /// commutative — the sharded service still folds in region order).
    pub fn absorb(&mut self, other: &FleetStats) {
        self.scale_ups += other.scale_ups;
        self.drains += other.drains;
        self.releases += other.releases;
        self.crashes += other.crashes;
        self.restores += other.restores;
    }
}

/// Relay-fleet autoscaler (see module docs).
///
/// Every write to a slot's state or flow count goes through
/// `set_state`/`set_flows`, which keep a per-slot free bit and the
/// state and flow counters in step: the broker's per-probe capacity
/// filter, slot claims and the rent meter all read in O(1) instead of
/// scanning the fleet.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    state: Vec<RelayState>,
    flows: Vec<u32>,
    /// One bit per slot, set while [`Fleet::is_free`] holds: the
    /// per-group occupancy map behind [`Fleet::group_free`] and
    /// [`Fleet::start_in_group`].
    free: Vec<u64>,
    /// Slots active, draining and failed (released is the rest).
    active: usize,
    draining: usize,
    failed: usize,
    /// Flows in progress on active slots.
    active_flows: u64,
    /// Contiguous slots per relay group (one group per overlay node);
    /// 1 for the classic one-slot-per-node fleet.
    per_group: usize,
    hourly_usd: f64,
    spend_usd: f64,
    stats: FleetStats,
}

impl Fleet {
    /// Creates a fleet with the first [`FleetConfig::min_active`] relays
    /// already rented.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`min_active` larger
    /// than the slot count, no slots, or zero per-relay capacity).
    #[must_use]
    pub fn new(cfg: FleetConfig) -> Fleet {
        let groups = cfg.relays;
        Fleet::grouped(cfg, groups)
    }

    /// Creates a fleet whose slots are partitioned into `groups`
    /// contiguous relay groups (one group per overlay node/DC, each of
    /// `relays / groups` slots). With `groups == relays` this is exactly
    /// the classic one-slot-per-node fleet of [`Fleet::new`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`min_active` larger
    /// than the slot count, no slots, zero per-relay capacity, or a
    /// slot count that does not divide evenly into `groups`).
    #[must_use]
    pub fn grouped(cfg: FleetConfig, groups: usize) -> Fleet {
        assert!(cfg.relays > 0, "fleet needs at least one relay slot");
        assert!(cfg.min_active <= cfg.relays, "min_active exceeds slots");
        assert!(
            cfg.capacity_per_relay > 0,
            "relay capacity must be positive"
        );
        assert!(groups > 0, "fleet needs at least one relay group");
        assert!(
            cfg.relays.is_multiple_of(groups),
            "relay slots must divide evenly into groups"
        );
        let mut fleet = Fleet {
            hourly_usd: overlay_node_hourly_usd(cfg.port, cfg.plan),
            state: vec![RelayState::Released; cfg.relays],
            flows: vec![0; cfg.relays],
            free: vec![0; cfg.relays.div_ceil(64)],
            active: 0,
            draining: 0,
            failed: 0,
            active_flows: 0,
            per_group: cfg.relays / groups,
            spend_usd: 0.0,
            stats: FleetStats::default(),
            cfg,
        };
        for i in 0..fleet.cfg.min_active {
            fleet.set_state(i, RelayState::Active);
        }
        fleet
    }

    /// Moves slot `i` to state `to`, keeping the state counters, the
    /// active-flow sum and the slot's free bit in step.
    fn set_state(&mut self, i: usize, to: RelayState) {
        let from = std::mem::replace(&mut self.state[i], to);
        let flows = u64::from(self.flows[i]);
        match from {
            RelayState::Released => {}
            RelayState::Active => {
                self.active -= 1;
                self.active_flows -= flows;
            }
            RelayState::Draining => self.draining -= 1,
            RelayState::Failed => self.failed -= 1,
        }
        match to {
            RelayState::Released => {}
            RelayState::Active => {
                self.active += 1;
                self.active_flows += flows;
            }
            RelayState::Draining => self.draining += 1,
            RelayState::Failed => self.failed += 1,
        }
        self.sync_free(i);
    }

    /// Sets slot `i`'s flow count to `n`, keeping the active-flow sum
    /// and the slot's free bit in step.
    fn set_flows(&mut self, i: usize, n: u32) {
        if self.state[i] == RelayState::Active {
            self.active_flows = self.active_flows - u64::from(self.flows[i]) + u64::from(n);
        }
        self.flows[i] = n;
        self.sync_free(i);
    }

    fn sync_free(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        if self.is_free(i) {
            self.free[i / 64] |= bit;
        } else {
            self.free[i / 64] &= !bit;
        }
    }

    /// The lowest free slot of group `g`, read off the free bits a word
    /// at a time with both ends of the group's range masked: the slot a
    /// scan of the group in index order would find first.
    fn first_free(&self, g: usize) -> Option<usize> {
        let lo = g * self.per_group;
        let hi = lo + self.per_group - 1;
        let (mut w, last) = (lo / 64, hi / 64);
        let mut bits = self.free[w] & (u64::MAX << (lo % 64));
        loop {
            if w == last {
                bits &= u64::MAX >> (63 - hi % 64);
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            if w == last {
                return None;
            }
            w += 1;
            bits = self.free[w];
        }
    }

    /// Number of relay groups (overlay nodes) the fleet spans.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.state.len() / self.per_group
    }

    /// Whether relay group `g` has any free slot — the broker's
    /// candidate filter in grouped fleets. For one-slot groups this is
    /// exactly [`Fleet::is_free`].
    #[must_use]
    pub fn group_free(&self, g: usize) -> bool {
        self.first_free(g).is_some()
    }

    /// Starts a flow on the first free slot of group `g` and returns
    /// that slot id. For one-slot groups this is [`Fleet::flow_started`]
    /// on slot `g`.
    ///
    /// # Panics
    ///
    /// Panics if no slot in the group is free — the broker must only
    /// steer onto groups its capacity filter accepted.
    pub fn start_in_group(&mut self, g: usize) -> usize {
        let slot = self
            .first_free(g)
            .unwrap_or_else(|| panic!("flow steered onto unavailable relay group {g}"));
        self.set_flows(slot, self.flows[slot] + 1);
        slot
    }

    /// Replaces the fleet's spend ceiling — the sharded service's
    /// budget reconciler redistributes the global headroom across
    /// regions at each epoch barrier.
    pub fn set_budget(&mut self, budget_usd: f64) {
        self.cfg.budget_usd = budget_usd;
    }

    /// The fleet's current spend ceiling, USD.
    #[must_use]
    pub fn budget_usd(&self) -> f64 {
        self.cfg.budget_usd
    }

    /// Whether relay `i` is active with spare capacity (the broker's
    /// candidate filter).
    #[must_use]
    pub fn is_free(&self, i: usize) -> bool {
        self.state[i] == RelayState::Active && self.flows[i] < self.cfg.capacity_per_relay
    }

    /// Registers a flow starting on relay `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not currently free — the broker must only steer
    /// onto relays its capacity filter accepted.
    pub fn flow_started(&mut self, i: usize) {
        assert!(self.is_free(i), "flow steered onto unavailable relay {i}");
        self.set_flows(i, self.flows[i] + 1);
    }

    /// Registers a flow finishing on relay `i`. A draining relay whose
    /// last flow just finished is released (drain-before-release).
    ///
    /// # Panics
    ///
    /// Panics if relay `i` has no flows in progress.
    pub fn flow_finished(&mut self, i: usize) {
        assert!(self.flows[i] > 0, "flow finished on idle relay {i}");
        self.set_flows(i, self.flows[i] - 1);
        if self.state[i] == RelayState::Draining && self.flows[i] == 0 {
            self.set_state(i, RelayState::Released);
            self.stats.releases += 1;
        }
    }

    /// Crashes relay `i`: the VM is gone, every flow it carried is
    /// killed, and the slot stops billing immediately (the provider does
    /// not pay for a dead VM). Returns the number of flows killed; the
    /// caller owns re-admitting them. The caller must accrue rent up to
    /// the crash instant *before* calling this, or the dead relay's last
    /// partial epoch goes unbilled.
    ///
    /// # Panics
    ///
    /// Panics if relay `i` is already failed — the fault schedule must
    /// not overlap crash windows on one relay.
    pub fn crash(&mut self, i: usize) -> u32 {
        assert!(
            self.state[i] != RelayState::Failed,
            "crash on already-failed relay {i}"
        );
        let killed = self.flows[i];
        self.set_flows(i, 0);
        self.set_state(i, RelayState::Failed);
        self.stats.crashes += 1;
        killed
    }

    /// Restores a crashed relay slot to `Released`: the provider may rent
    /// a replacement VM into it at the next rebalance (subject to the
    /// budget check, like any other rent).
    ///
    /// # Panics
    ///
    /// Panics if relay `i` is not failed — restore events must pair with
    /// a preceding crash.
    pub fn restore(&mut self, i: usize) {
        assert!(
            self.state[i] == RelayState::Failed,
            "restore on non-failed relay {i}"
        );
        self.set_state(i, RelayState::Released);
        self.stats.restores += 1;
    }

    /// Number of relays currently failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Number of relays accepting flows.
    #[must_use]
    pub fn active(&self) -> usize {
        self.active
    }

    /// Number of relays draining out.
    #[must_use]
    pub fn draining(&self) -> usize {
        self.draining
    }

    /// Number of relays currently billed (active + draining).
    #[must_use]
    pub fn in_service(&self) -> usize {
        self.active + self.draining
    }

    /// Flows in progress on active relays, as a fraction of active
    /// capacity (1.0 when no relay is active — so an all-released fleet
    /// under load reads as saturated and triggers a scale-up).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let active_cap = self.active as u64 * u64::from(self.cfg.capacity_per_relay);
        if active_cap == 0 {
            return 1.0;
        }
        self.active_flows as f64 / active_cap as f64
    }

    /// Accrues rent for every in-service relay over `dt`.
    pub fn accrue(&mut self, dt: SimDuration) {
        let hours = dt.as_secs_f64() / 3600.0;
        self.spend_usd += self.in_service() as f64 * self.hourly_usd * hours;
    }

    /// Cumulative spend so far, USD.
    #[must_use]
    pub fn spend_usd(&self) -> f64 {
        self.spend_usd
    }

    /// The per-relay hourly rate the fleet is renting at, USD.
    #[must_use]
    pub fn hourly_usd(&self) -> f64 {
        self.hourly_usd
    }

    /// One autoscaling step, run at each epoch boundary. `remaining` is
    /// the simulated time left in the run; renting a *new* relay is only
    /// allowed when the worst case — every in-service relay plus the new
    /// one billing until the end — stays within budget. Reactivating a
    /// draining relay is always allowed (it is already billing).
    pub fn rebalance(&mut self, remaining: SimDuration) {
        let util = self.utilization();
        if util > self.cfg.scale_up_util {
            // Cheapest capacity first: a draining relay is already paid
            // for, so reactivate before renting a released slot.
            if let Some(i) = self.state.iter().position(|s| *s == RelayState::Draining) {
                self.set_state(i, RelayState::Active);
                self.stats.scale_ups += 1;
            } else if let Some(i) = self.state.iter().position(|s| *s == RelayState::Released) {
                let hours_left = remaining.as_secs_f64() / 3600.0;
                let worst_case =
                    self.spend_usd + (self.in_service() + 1) as f64 * self.hourly_usd * hours_left;
                if worst_case <= self.cfg.budget_usd {
                    self.set_state(i, RelayState::Active);
                    self.stats.scale_ups += 1;
                }
            }
        } else if util < self.cfg.scale_down_util && self.active() > self.cfg.min_active {
            // Drain the least-loaded active relay (ties: highest index,
            // so the long-lived low slots stay up).
            let victim = self
                .state
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == RelayState::Active)
                .map(|(i, _)| i)
                .min_by_key(|&i| (self.flows[i], std::cmp::Reverse(i)));
            if let Some(i) = victim {
                self.stats.drains += 1;
                if self.flows[i] == 0 {
                    self.set_state(i, RelayState::Released);
                    self.stats.releases += 1;
                } else {
                    self.set_state(i, RelayState::Draining);
                }
            }
        }
    }

    /// The scaling-event counters so far.
    #[must_use]
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// State of relay `i`.
    #[must_use]
    pub fn relay_state(&self, i: usize) -> RelayState {
        self.state[i]
    }

    /// Flows in progress on relay `i`.
    #[must_use]
    pub fn flows_on(&self, i: usize) -> u32 {
        self.flows[i]
    }

    /// Exports counters and gauges through `obs` under a namespace
    /// prefix (`control.`, or e.g. `control.shard3.`: the sharded
    /// service publishes every region's fleet this way and folds a
    /// merged rollup under the classic `control.` names). No-op while
    /// collection is disabled.
    pub fn publish_prefixed(&self, prefix: &str) {
        crate::shard::publish_fleet_stats(prefix, &self.stats);
        obs::set(
            obs::gauge(&format!("{prefix}fleet.active")),
            self.active() as f64,
        );
        obs::set(
            obs::gauge(&format!("{prefix}fleet.draining")),
            self.draining() as f64,
        );
        obs::set(
            obs::gauge(&format!("{prefix}fleet.failed")),
            self.failed() as f64,
        );
        obs::set(
            obs::gauge(&format!("{prefix}fleet.spend_usd")),
            self.spend_usd,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud::pricing::HOURS_PER_MONTH;

    fn cfg() -> FleetConfig {
        FleetConfig {
            relays: 4,
            capacity_per_relay: 2,
            min_active: 1,
            port: PortSpeed::Mbps100,
            plan: TrafficPlan::Gb5000,
            budget_usd: 10.0,
            scale_up_util: 0.75,
            scale_down_util: 0.25,
        }
    }

    #[test]
    fn starts_with_min_active_rented() {
        let f = Fleet::new(cfg());
        assert_eq!(f.active(), 1);
        assert_eq!(f.relay_state(0), RelayState::Active);
        assert_eq!(f.relay_state(1), RelayState::Released);
        assert!(f.is_free(0));
        assert!(!f.is_free(1));
    }

    #[test]
    fn saturation_scales_up_within_budget() {
        let mut f = Fleet::new(cfg());
        f.flow_started(0);
        f.flow_started(0);
        assert!(!f.is_free(0));
        assert!((f.utilization() - 1.0).abs() < 1e-12);
        f.rebalance(SimDuration::from_secs(3600));
        assert_eq!(f.active(), 2);
        assert_eq!(f.stats().scale_ups, 1);
    }

    #[test]
    fn budget_ceiling_blocks_renting() {
        let mut f = Fleet::new(FleetConfig {
            budget_usd: 0.05,
            ..cfg()
        });
        f.flow_started(0);
        f.flow_started(0);
        // Two relays for an hour (~$0.17) would blow the nickel budget.
        f.rebalance(SimDuration::from_secs(3600));
        assert_eq!(f.active(), 1, "rent denied over budget");
        assert_eq!(f.stats().scale_ups, 0);
    }

    #[test]
    fn never_drains_below_min_active() {
        let mut f = Fleet::new(cfg());
        f.rebalance(SimDuration::from_secs(3600)); // util 0, already at min
        assert_eq!(f.active(), 1);
        assert_eq!(f.stats().drains, 0);
    }

    #[test]
    fn scale_down_picks_the_least_loaded_relay() {
        let mut f = Fleet::new(FleetConfig {
            scale_down_util: 0.3,
            ..cfg()
        });
        f.flow_started(0);
        f.flow_started(0);
        f.rebalance(SimDuration::from_secs(3600)); // saturated → rent relay 1
        assert_eq!(f.active(), 2);
        f.flow_started(1);
        f.flow_finished(0);
        f.flow_finished(0);
        // Relay 0 idle, relay 1 carries a flow; util = 1/4 < 0.3 → drain
        // the idle relay 0, which releases instantly.
        f.rebalance(SimDuration::from_secs(3600));
        assert_eq!(f.relay_state(0), RelayState::Released);
        assert_eq!(f.relay_state(1), RelayState::Active);
        assert_eq!(f.stats().drains, 1);
        assert_eq!(f.stats().releases, 1);
    }

    #[test]
    fn draining_relay_refuses_new_flows_then_releases() {
        let mut f = Fleet::new(FleetConfig {
            scale_down_util: 0.6,
            min_active: 0,
            ..cfg()
        });
        // min_active 0 starts all-released; an empty fleet reads as
        // saturated, so the first rebalance rents relay 0.
        f.rebalance(SimDuration::from_secs(7200));
        assert_eq!(f.relay_state(0), RelayState::Active);
        f.flow_started(0);
        // util = 0.5 < 0.6 and active(1) > min_active(0) → drain relay 0,
        // which still carries a flow.
        f.rebalance(SimDuration::from_secs(3600));
        assert_eq!(f.relay_state(0), RelayState::Draining);
        assert_eq!(f.stats().drains, 1);
        assert_eq!(f.stats().releases, 0, "release must wait for the flow");
        assert!(!f.is_free(0), "draining relay accepts no new flows");
        assert_eq!(f.in_service(), 1, "draining relay still bills");
        f.flow_finished(0);
        assert_eq!(f.relay_state(0), RelayState::Released);
        assert_eq!(f.stats().releases, 1);
        assert_eq!(f.in_service(), 0);
    }

    #[test]
    fn reactivating_a_draining_relay_beats_renting() {
        let mut f = Fleet::new(FleetConfig {
            scale_down_util: 0.6,
            min_active: 0,
            ..cfg()
        });
        f.rebalance(SimDuration::from_secs(7200)); // rent relay 0
        f.flow_started(0);
        f.rebalance(SimDuration::from_secs(3600));
        assert_eq!(f.relay_state(0), RelayState::Draining);
        // Load spikes: utilization of zero active relays reads saturated.
        f.rebalance(SimDuration::from_secs(3600));
        assert_eq!(
            f.relay_state(0),
            RelayState::Active,
            "reactivated, not re-rented"
        );
        assert_eq!(f.active(), 1);
        assert_eq!(f.stats().scale_ups, 2, "initial rent + reactivation");
    }

    #[test]
    fn accrual_prices_active_and_draining_time() {
        let mut f = Fleet::new(cfg());
        let rate = f.hourly_usd();
        assert!((rate - 62.0 / HOURS_PER_MONTH).abs() < 1e-12);
        f.accrue(SimDuration::from_secs(7200));
        assert!((f.spend_usd() - 2.0 * rate).abs() < 1e-9);
        // A second in-service relay doubles the burn rate.
        f.flow_started(0);
        f.flow_started(0);
        f.rebalance(SimDuration::from_secs(36_000));
        f.accrue(SimDuration::from_secs(3600));
        assert!((f.spend_usd() - 4.0 * rate).abs() < 1e-9);
    }

    #[test]
    fn crash_kills_flows_stops_billing_and_blocks_renting() {
        let mut f = Fleet::new(cfg());
        f.flow_started(0);
        f.flow_started(0);
        assert_eq!(f.crash(0), 2, "both in-flight flows are killed");
        assert_eq!(f.relay_state(0), RelayState::Failed);
        assert_eq!(f.flows_on(0), 0);
        assert_eq!(f.failed(), 1);
        assert!(!f.is_free(0));
        assert_eq!(f.in_service(), 0, "a dead VM bills nothing");
        // A saturated fleet must rent a *different* slot, never the
        // failed one.
        f.rebalance(SimDuration::from_secs(3600));
        assert_eq!(f.relay_state(0), RelayState::Failed);
        assert_eq!(f.relay_state(1), RelayState::Active);
        assert_eq!(f.stats().crashes, 1);
    }

    #[test]
    fn restore_returns_the_slot_to_the_rentable_pool() {
        let mut f = Fleet::new(cfg());
        f.flow_started(0);
        f.crash(0);
        f.restore(0);
        assert_eq!(f.relay_state(0), RelayState::Released);
        assert_eq!(f.stats().restores, 1);
        // All-released under load reads saturated: the replacement rent
        // picks the lowest released slot — the restored one.
        f.rebalance(SimDuration::from_secs(3600));
        assert_eq!(f.relay_state(0), RelayState::Active);
    }

    #[test]
    #[should_panic(expected = "already-failed relay")]
    fn double_crash_panics() {
        let mut f = Fleet::new(cfg());
        f.crash(0);
        f.crash(0);
    }

    #[test]
    #[should_panic(expected = "non-failed relay")]
    fn restore_without_crash_panics() {
        let mut f = Fleet::new(cfg());
        f.restore(1);
    }

    #[test]
    #[should_panic(expected = "unavailable relay")]
    fn steering_onto_a_full_relay_panics() {
        let mut f = Fleet::new(cfg());
        f.flow_started(0);
        f.flow_started(0);
        f.flow_started(0);
    }

    // Reference scans: the fleet's queries recomputed slot by slot from
    // `relay_state`/`flows_on`, as the fleet answered them before it
    // kept free bits and counters.

    fn ref_is_free(f: &Fleet, i: usize) -> bool {
        f.relay_state(i) == RelayState::Active && f.flows_on(i) < f.cfg.capacity_per_relay
    }

    fn ref_first_free(f: &Fleet, g: usize) -> Option<usize> {
        let base = g * f.per_group;
        (base..base + f.per_group).find(|&i| ref_is_free(f, i))
    }

    fn ref_count(f: &Fleet, s: RelayState) -> usize {
        (0..f.cfg.relays).filter(|&i| f.relay_state(i) == s).count()
    }

    fn ref_utilization(f: &Fleet) -> f64 {
        let active_cap =
            ref_count(f, RelayState::Active) as u64 * u64::from(f.cfg.capacity_per_relay);
        if active_cap == 0 {
            return 1.0;
        }
        let used: u64 = (0..f.cfg.relays)
            .filter(|&i| f.relay_state(i) == RelayState::Active)
            .map(|i| u64::from(f.flows_on(i)))
            .sum();
        used as f64 / active_cap as f64
    }

    fn check_against_scans(f: &Fleet, spend: f64, step: usize) {
        for g in 0..f.groups() {
            let want = ref_first_free(f, g);
            assert_eq!(
                f.first_free(g),
                want,
                "step {step}: first free of group {g}"
            );
            assert_eq!(f.group_free(g), want.is_some(), "step {step}: group {g}");
        }
        assert_eq!(f.active(), ref_count(f, RelayState::Active), "step {step}");
        assert_eq!(
            f.draining(),
            ref_count(f, RelayState::Draining),
            "step {step}"
        );
        assert_eq!(f.failed(), ref_count(f, RelayState::Failed), "step {step}");
        assert_eq!(
            f.utilization().to_bits(),
            ref_utilization(f).to_bits(),
            "step {step}: utilization"
        );
        assert_eq!(
            f.spend_usd().to_bits(),
            spend.to_bits(),
            "step {step}: spend"
        );
    }

    /// Drives grouped fleets through seeded random operations and checks
    /// every O(1) answer against the slot-by-slot scans after each one.
    /// Load and unload phases alternate so utilization crosses both
    /// autoscaling thresholds. (300, 3) puts group edges inside 64-slot
    /// words; (1600, 5) is a planetary region's shape, with one-flow
    /// slots so the claims leave holes deep inside its groups.
    #[test]
    fn free_bits_and_counters_match_the_slot_scans() {
        let mut totals = FleetStats::default();
        let mut draining_steps = 0;
        for (relays, groups, min_active, capacity_per_relay) in [
            (5, 5, 1, 4),
            (40, 5, 4, 4),
            (300, 3, 30, 4),
            (1600, 5, 100, 1),
            (1600, 5, 1000, 1),
        ] {
            for seed in [3, 17] {
                let mut f = Fleet::grouped(
                    FleetConfig {
                        relays,
                        capacity_per_relay,
                        min_active,
                        budget_usd: 1e6,
                        scale_down_util: 0.6,
                        ..cfg()
                    },
                    groups,
                );
                let mut rng = simcore::SimRng::seed_from(seed);
                // The rent meter's reference: in-service slots counted
                // by scan, billed with the fleet's own formula.
                let mut spend = 0.0;
                check_against_scans(&f, spend, 0);
                for step in 1..=3000 {
                    let pick = |rng: &mut simcore::SimRng, ok: &dyn Fn(usize) -> bool| {
                        let cands: Vec<usize> = (0..relays).filter(|&i| ok(i)).collect();
                        (!cands.is_empty()).then(|| cands[rng.index(cands.len())])
                    };
                    // Ops 0..=7 follow the phase (start flows while
                    // loading, finish them while unloading); 8..=9 go
                    // against it.
                    let load = (step / 500) % 2 == 0;
                    let op = rng.index(20);
                    let start = if op < 8 { load } else { !load };
                    match op {
                        0..=9 if start && rng.index(2) == 0 => {
                            let open: Vec<usize> = (0..groups)
                                .filter(|&g| ref_first_free(&f, g).is_some())
                                .collect();
                            if !open.is_empty() {
                                let g = open[rng.index(open.len())];
                                let want = ref_first_free(&f, g);
                                assert_eq!(Some(f.start_in_group(g)), want, "step {step}");
                            }
                        }
                        0..=9 if start => {
                            if let Some(i) = pick(&mut rng, &|i| ref_is_free(&f, i)) {
                                f.flow_started(i);
                            }
                        }
                        0..=9 => {
                            if let Some(i) = pick(&mut rng, &|i| f.flows_on(i) > 0) {
                                f.flow_finished(i);
                            }
                        }
                        10..=13 => f.rebalance(SimDuration::from_secs(rng.index(7200) as u64)),
                        14 => {
                            let live = |i| f.relay_state(i) != RelayState::Failed;
                            if let Some(i) = pick(&mut rng, &live) {
                                f.crash(i);
                            }
                        }
                        15 => {
                            let dead = |i| f.relay_state(i) == RelayState::Failed;
                            if let Some(i) = pick(&mut rng, &dead) {
                                f.restore(i);
                            }
                        }
                        _ => {
                            let dt = SimDuration::from_secs(1 + rng.index(900) as u64);
                            let billed = ref_count(&f, RelayState::Active)
                                + ref_count(&f, RelayState::Draining);
                            spend += billed as f64 * f.hourly_usd() * (dt.as_secs_f64() / 3600.0);
                            f.accrue(dt);
                        }
                    }
                    check_against_scans(&f, spend, step);
                    draining_steps += usize::from(f.draining() > 0);
                }
                totals.absorb(&f.stats());
            }
        }
        // The walk must reach every transition it claims to check.
        assert!(totals.scale_ups > 0 && totals.drains > 0 && totals.releases > 0);
        assert!(totals.crashes > 0 && totals.restores > 0);
        assert!(draining_steps > 0, "no slot ever drained with flows on it");
    }
}
