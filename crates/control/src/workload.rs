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
//!
//! # How an epoch is ordered
//!
//! An epoch's requests are drawn in id order and returned in `(at, id)`
//! order. Ids are unique, so that order is a single vector, and no
//! comparison sort is needed to reach it: the offsets are spread evenly
//! over the epoch, so each request gets one of `n` buckets by a monotone
//! map of its offset (an earlier request never lands in a later bucket).
//! A counting pass turns bucket sizes into one `u32` destination per
//! request; the requests move there in place, by following the
//! permutation's cycles; and an insertion pass orders each bucket, which
//! holds one request on average. Linear expected time, and never a
//! second copy of the requests.

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

    /// Generates epoch `e`'s arrivals, sorted by `(at, id)` (see the
    /// module docs). A pure function of `(seed, epoch)`: safe to call
    /// from parallel work units in any order. Records the
    /// `control.workload.arrivals` counter (a no-op while `obs`
    /// collection is off).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero clients/tenants
    /// or an empty epoch).
    #[must_use]
    pub fn epoch_arrivals(&self, seed: u64, epoch: u32) -> Vec<FlowRequest> {
        let mut out = self.draw(seed, epoch);
        let start = SimTime::ZERO + self.epoch * u64::from(epoch);
        order_by_arrival(&mut out, start, self.epoch);
        obs::add_named("control.workload.arrivals", out.len() as u64);
        out
    }

    /// Epoch `e`'s requests in the order they are drawn: by id.
    fn draw(&self, seed: u64, epoch: u32) -> Vec<FlowRequest> {
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
        out
    }
}

/// Sorts an epoch's requests by `(at, id)` in place (see the module
/// docs), for requests due in `[start, start + epoch)` and in id order.
/// Any input comes out sorted; those two conditions only keep the
/// insertion pass short.
fn order_by_arrival(reqs: &mut [FlowRequest], start: SimTime, epoch: SimDuration) {
    let n = reqs.len();
    if n < 2 {
        return;
    }
    assert!(
        u32::try_from(n).is_ok(),
        "an epoch's requests are u32-indexed"
    );
    // Offset → bucket in [0, n): monotone, since rounding a product with
    // a positive factor is, and so is truncation and the clamp.
    let scale = n as f64 / epoch.as_nanos() as f64;
    let mut dest: Vec<u32> = reqs
        .iter()
        .map(|r| {
            let off = r.at.saturating_duration_since(start).as_nanos();
            ((off as f64 * scale) as usize).min(n - 1) as u32
        })
        .collect();
    let mut next = vec![0u32; n];
    for &b in &dest {
        next[b as usize] += 1;
    }
    let mut sum = 0;
    for c in &mut next {
        let size = *c;
        *c = sum;
        sum += size;
    }
    // Bucket → destination, in input order, so a bucket keeps id order.
    for d in &mut dest {
        let b = *d as usize;
        *d = next[b];
        next[b] += 1;
    }
    drop(next);
    // Each swap puts one request where it belongs.
    for i in 0..n {
        loop {
            let d = dest[i] as usize;
            if d == i {
                break;
            }
            reqs.swap(i, d);
            dest.swap(i, d);
        }
    }
    // Buckets are in order; order each bucket's few requests.
    for i in 1..n {
        let r = reqs[i];
        let mut j = i;
        while j > 0 && (reqs[j - 1].at, reqs[j - 1].id) > (r.at, r.id) {
            reqs[j] = reqs[j - 1];
            j -= 1;
        }
        reqs[j] = r;
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

    /// The comparison sort `epoch_arrivals` used before the bucket
    /// order, kept as its reference.
    fn sorted(mut reqs: Vec<FlowRequest>) -> Vec<FlowRequest> {
        reqs.sort_unstable_by_key(|r| (r.at, r.id));
        reqs
    }

    #[test]
    fn epoch_order_matches_the_comparison_sort() {
        // A microsecond epoch crowds ~800 arrivals onto 1,000 instants,
        // so many share one.
        let crowded = WorkloadConfig {
            epoch: SimDuration::from_micros(1),
            mean_rate_per_sec: 2e9,
            ..cfg()
        };
        let mut ties = 0;
        for c in [cfg(), crowded] {
            for seed in [7, 11] {
                for e in 0..c.epochs {
                    let got = c.epoch_arrivals(seed, e);
                    ties += got.windows(2).filter(|w| w[0].at == w[1].at).count();
                    assert_eq!(got, sorted(c.draw(seed, e)), "seed {seed} epoch {e}");
                }
            }
        }
        assert!(ties > 1_000, "{ties} tied arrivals");
    }

    /// A request `k` of epoch 0 at `off` ns into it.
    fn req(k: u64, off: u64) -> FlowRequest {
        FlowRequest {
            id: k,
            at: SimTime::from_nanos(off),
            client: k,
            tenant: 0,
            bytes: k,
        }
    }

    #[test]
    fn crafted_batches_come_out_sorted() {
        let epoch = SimDuration::from_secs(900);
        let last = epoch.as_nanos() - 1;
        // A 2^60 ns epoch: its last offset rounds up to the epoch in
        // f64, so the bucket map needs its clamp to stay in range.
        let long = SimDuration::from_nanos(1 << 60);
        let mut rng = SimRng::seed_from(5);
        let mut batches: Vec<(SimDuration, Vec<FlowRequest>)> = vec![
            (epoch, vec![]),
            (epoch, vec![req(0, 17)]),
            (epoch, vec![req(0, last), req(1, 0)]),
        ];
        for n in [2, 3, 5, 64, 1_000] {
            // Every request at one instant, ids in draw order and reversed.
            let same: Vec<FlowRequest> = (0..n).map(|k| req(k, 12_345)).collect();
            batches.push((epoch, same.iter().rev().copied().collect()));
            batches.push((epoch, same));
            // The epoch's two edges, mixed with random offsets.
            let edges = (0..n)
                .map(|k| match rng.index(3) {
                    0 => req(k, 0),
                    1 => req(k, last),
                    _ => req(k, rng.index(last as usize + 1) as u64),
                })
                .collect();
            batches.push((epoch, edges));
            batches.push((
                long,
                (0..n).map(|k| req(k, (1 << 60) - 1 - k % 2)).collect(),
            ));
        }
        for (epoch, batch) in batches {
            let mut got = batch.clone();
            order_by_arrival(&mut got, SimTime::ZERO, epoch);
            assert_eq!(got, sorted(batch));
        }
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
