//! Deterministic open-loop workload generation.
//!
//! The service experiment needs "users continuously arrive" traffic at a
//! population scale (up to ~1M flow arrivals) the packet-level DES could
//! never carry. This module generates that load as *flow requests*: per
//! epoch, a Poisson-distributed arrival count around a diurnally
//! modulated rate, each arrival drawn from a virtual client population
//! and carrying a lognormal flow size.
//!
//! Every epoch's arrivals are a pure function of `(seed, epoch)` — the
//! generator forks an independent RNG substream per epoch — so the
//! epochs can be produced by `exec::parallel_map` work units and merged
//! in epoch order with byte-identical results at any thread count.

use simcore::{SimDuration, SimRng, SimTime};

/// RNG stream label for the workload generator (decouples its draws from
/// every other consumer of the experiment seed).
const WORKLOAD_STREAM: u64 = 0xA221;

/// One flow request emitted by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRequest {
    /// Globally unique flow id (`epoch << 32 | sequence`).
    pub id: u64,
    /// Arrival instant.
    pub at: SimTime,
    /// Virtual client index in `[0, clients)`.
    pub client: u64,
    /// Tenant the client belongs to (`client % tenants`).
    pub tenant: u32,
    /// Transfer size in bytes.
    pub bytes: u64,
}

/// Open-loop arrival process configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Virtual client population size (clients map onto the world's
    /// attachment points modulo the host count, so the population can be
    /// orders of magnitude larger than the topology).
    pub clients: u64,
    /// Number of tenants sharing the service.
    pub tenants: u32,
    /// Number of epochs in the run.
    pub epochs: u32,
    /// Epoch length (arrival rates and probe caches are piecewise
    /// constant per epoch).
    pub epoch: SimDuration,
    /// Mean arrival rate over a full diurnal period, flows per second.
    pub mean_rate_per_sec: f64,
    /// Diurnal modulation amplitude in `[0, 1)`: the rate swings between
    /// `mean * (1 - a)` and `mean * (1 + a)`.
    pub diurnal_amplitude: f64,
    /// Diurnal period. With `period == epochs * epoch` the run covers one
    /// trough → peak → trough cycle.
    pub diurnal_period: SimDuration,
    /// Median flow size in bytes (lognormal).
    pub median_flow_bytes: f64,
    /// Lognormal shape parameter (sigma of the underlying normal).
    pub flow_sigma: f64,
    /// Flow-size clamp, lower bound.
    pub min_flow_bytes: u64,
    /// Flow-size clamp, upper bound.
    pub max_flow_bytes: u64,
}

impl WorkloadConfig {
    /// Total simulated horizon.
    #[must_use]
    pub fn horizon(&self) -> SimDuration {
        self.epoch * u64::from(self.epochs)
    }

    /// Instantaneous arrival rate at `t`, flows per second:
    /// `mean * (1 - a * cos(2π t / period))` — trough at the origin,
    /// peak half a period in.
    #[must_use]
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let phase =
            2.0 * std::f64::consts::PI * t.as_secs_f64() / self.diurnal_period.as_secs_f64();
        self.mean_rate_per_sec * (1.0 - self.diurnal_amplitude * phase.cos())
    }

    /// Expected arrival count over the whole run (sum of the per-epoch
    /// Poisson means). Useful for sizing smoke configurations.
    #[must_use]
    pub fn expected_arrivals(&self) -> f64 {
        (0..self.epochs).map(|e| self.epoch_mean(e)).sum::<f64>()
    }

    /// The Poisson mean for epoch `e` (rate at mid-epoch × epoch length).
    fn epoch_mean(&self, epoch: u32) -> f64 {
        let start = SimTime::ZERO + self.epoch * u64::from(epoch);
        let mid = start + self.epoch / 2;
        self.rate_at(mid) * self.epoch.as_secs_f64()
    }

    /// Generates epoch `e`'s arrivals, sorted by arrival time. A pure
    /// function of `(seed, epoch)`: safe to call from parallel work
    /// units in any order. Records the `control.workload.arrivals`
    /// counter (a no-op while `obs` collection is off).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero clients/tenants
    /// or an empty epoch).
    #[must_use]
    pub fn epoch_arrivals(&self, seed: u64, epoch: u32) -> Vec<FlowRequest> {
        assert!(self.clients > 0, "workload needs a client population");
        assert!(self.tenants > 0, "workload needs at least one tenant");
        assert!(!self.epoch.is_zero(), "workload epoch must be positive");
        let mut rng = SimRng::seed_from(seed)
            .fork(WORKLOAD_STREAM)
            .fork(u64::from(epoch));
        let start = SimTime::ZERO + self.epoch * u64::from(epoch);
        let n = rng.poisson(self.epoch_mean(epoch));
        let mut out = Vec::with_capacity(n as usize);
        for k in 0..n {
            let at = start + self.epoch.mul_f64(rng.uniform_f64());
            let client = rng.index(self.clients as usize) as u64;
            let raw = rng.lognormal(self.median_flow_bytes.ln(), self.flow_sigma);
            let bytes = (raw as u64).clamp(self.min_flow_bytes, self.max_flow_bytes);
            out.push(FlowRequest {
                id: (u64::from(epoch) << 32) | k,
                at,
                client,
                tenant: (client % u64::from(self.tenants)) as u32,
                bytes,
            });
        }
        // Ids are unique, so the unstable sort gives the stable order.
        out.sort_unstable_by_key(|r| (r.at, r.id));
        obs::add_named("control.workload.arrivals", n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            clients: 10_000,
            tenants: 4,
            epochs: 8,
            epoch: SimDuration::from_secs(100),
            mean_rate_per_sec: 5.0,
            diurnal_amplitude: 0.6,
            diurnal_period: SimDuration::from_secs(800),
            median_flow_bytes: 1e6,
            flow_sigma: 1.0,
            min_flow_bytes: 10_000,
            max_flow_bytes: 100_000_000,
        }
    }

    #[test]
    fn epochs_are_pure_functions_of_seed_and_index() {
        let c = cfg();
        // Generation order must not matter (parallel work units).
        let a3 = c.epoch_arrivals(7, 3);
        let _ = c.epoch_arrivals(7, 0);
        let b3 = c.epoch_arrivals(7, 3);
        assert_eq!(a3, b3);
        assert_ne!(c.epoch_arrivals(8, 3), a3, "seed must matter");
    }

    #[test]
    fn arrivals_are_sorted_in_epoch_bounds() {
        let c = cfg();
        for e in 0..c.epochs {
            let start = SimTime::ZERO + c.epoch * u64::from(e);
            let end = start + c.epoch;
            let arr = c.epoch_arrivals(42, e);
            for w in arr.windows(2) {
                assert!(w[0].at <= w[1].at, "arrivals out of order");
            }
            for r in &arr {
                assert!(r.at >= start && r.at < end, "arrival outside epoch");
                assert!(r.tenant < c.tenants);
                assert!(r.client < c.clients);
                assert!((c.min_flow_bytes..=c.max_flow_bytes).contains(&r.bytes));
            }
        }
    }

    #[test]
    fn diurnal_cycle_peaks_mid_run() {
        let c = cfg();
        let trough = c.rate_at(SimTime::ZERO);
        let peak = c.rate_at(SimTime::ZERO + SimDuration::from_secs(400));
        assert!((trough - 2.0).abs() < 1e-9, "trough {trough}");
        assert!((peak - 8.0).abs() < 1e-9, "peak {peak}");
    }

    #[test]
    fn total_volume_tracks_expectation() {
        let c = cfg();
        let total: usize = (0..c.epochs).map(|e| c.epoch_arrivals(9, e).len()).sum();
        let expect = c.expected_arrivals();
        let sd = expect.sqrt();
        assert!(
            (total as f64 - expect).abs() < 6.0 * sd,
            "{total} arrivals vs expected {expect}"
        );
    }

    #[test]
    fn flow_ids_are_unique_across_epochs() {
        let c = cfg();
        let mut ids: Vec<u64> = (0..c.epochs)
            .flat_map(|e| c.epoch_arrivals(11, e).into_iter().map(|r| r.id))
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
