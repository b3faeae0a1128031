//! Cost model: overlay nodes versus private leased lines (paper §VII-D).
//!
//! The paper's abstract claims CRONets improves throughput "at a tenth of
//! the cost of leasing private lines of comparable performance", and its
//! introduction cites MPLS/leased-line prices "up to a hundredth" of
//! Internet transit \[16\], \[30\]. This module encodes a 2015-era price book
//! (Softlayer-style virtual servers with port-speed and traffic-volume
//! tiers; distance- and bandwidth-priced leased lines) so the comparison
//! can be regenerated as an experiment.

/// Virtual-server port speed options (paper §VII-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortSpeed {
    /// 100 Mbps — the paper's default overlay node port.
    Mbps100,
    /// 1 Gbps upgrade.
    Gbps1,
    /// 10 Gbps upgrade.
    Gbps10,
}

impl PortSpeed {
    /// Port speed in bits per second.
    #[must_use]
    pub fn bps(self) -> u64 {
        match self {
            PortSpeed::Mbps100 => 100_000_000,
            PortSpeed::Gbps1 => 1_000_000_000,
            PortSpeed::Gbps10 => 10_000_000_000,
        }
    }

    /// Monthly surcharge over the base server for this port, USD.
    fn monthly_surcharge_usd(self) -> f64 {
        match self {
            PortSpeed::Mbps100 => 0.0,
            PortSpeed::Gbps1 => 100.0,
            PortSpeed::Gbps10 => 600.0,
        }
    }
}

/// Monthly traffic-volume plans (paper §VII-D lists 1,000/5,000/10,000/
/// 20,000 GB and unlimited).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficPlan {
    /// 1 TB included.
    Gb1000,
    /// 5 TB included.
    Gb5000,
    /// 10 TB included.
    Gb10000,
    /// 20 TB included.
    Gb20000,
    /// Unmetered.
    Unlimited,
}

impl TrafficPlan {
    /// Monthly surcharge for the plan, USD.
    fn monthly_surcharge_usd(self) -> f64 {
        match self {
            TrafficPlan::Gb1000 => 0.0,
            TrafficPlan::Gb5000 => 40.0,
            TrafficPlan::Gb10000 => 80.0,
            TrafficPlan::Gb20000 => 150.0,
            TrafficPlan::Unlimited => 400.0,
        }
    }

    /// Included monthly volume in gigabytes (`None` = unlimited).
    #[must_use]
    pub fn included_gb(self) -> Option<u64> {
        match self {
            TrafficPlan::Gb1000 => Some(1_000),
            TrafficPlan::Gb5000 => Some(5_000),
            TrafficPlan::Gb10000 => Some(10_000),
            TrafficPlan::Gb20000 => Some(20_000),
            TrafficPlan::Unlimited => None,
        }
    }
}

/// Base monthly price of one virtual overlay node (single core, 4 GB RAM,
/// 100 Mbps port — "starting at about $20 per month", §I).
const BASE_VM_MONTHLY_USD: f64 = 22.0;

/// Monthly cost of an overlay deployment: `n_nodes` virtual servers with
/// the given port speed and traffic plan.
///
/// # Example
///
/// ```
/// use cloud::pricing::{overlay_monthly_usd, PortSpeed, TrafficPlan};
/// let paper_setup = overlay_monthly_usd(5, PortSpeed::Mbps100, TrafficPlan::Gb5000);
/// assert!(paper_setup < 500.0, "five basic nodes stay in the hundreds");
/// ```
#[must_use]
pub fn overlay_monthly_usd(n_nodes: usize, port: PortSpeed, plan: TrafficPlan) -> f64 {
    n_nodes as f64
        * (BASE_VM_MONTHLY_USD + port.monthly_surcharge_usd() + plan.monthly_surcharge_usd())
}

/// Billing-month length used to convert monthly list prices into hourly
/// accrual rates (the control plane's autoscaler bills rented relays by
/// the simulated hour).
pub const HOURS_PER_MONTH: f64 = 730.0;

/// Hourly accrual rate of one overlay node with the given port speed and
/// traffic plan — the monthly list price prorated over [`HOURS_PER_MONTH`].
///
/// # Example
///
/// ```
/// use cloud::pricing::{overlay_node_hourly_usd, PortSpeed, TrafficPlan};
/// let rate = overlay_node_hourly_usd(PortSpeed::Mbps100, TrafficPlan::Gb5000);
/// assert!((0.05..0.15).contains(&rate), "basic node is cents per hour");
/// ```
#[must_use]
pub fn overlay_node_hourly_usd(port: PortSpeed, plan: TrafficPlan) -> f64 {
    overlay_monthly_usd(1, port, plan) / HOURS_PER_MONTH
}

/// Monthly cost of a point-to-point private leased line (MPLS-style) of
/// the given capacity over the given distance.
///
/// Calibrated to the trade-press figures the paper cites: a domestic
/// 100 Mbps inter-city line runs thousands of dollars per month, and
/// inter-continental lines several times that.
#[must_use]
pub fn leased_line_monthly_usd(capacity_bps: u64, distance_km: f64) -> f64 {
    let mbps = capacity_bps as f64 / 1e6;
    // Local loop + port at both ends, plus distance- and bandwidth-
    // dependent transport. Sub-linear in bandwidth (bulk discount).
    let ends = 900.0;
    let transport = 28.0 * mbps.powf(0.85) * (1.0 + distance_km / 2_000.0);
    ends + transport
}

/// The headline comparison: cost ratio of a leased line to an overlay
/// deployment of `n_nodes` nodes with matching port capacity.
#[must_use]
pub fn cost_ratio_leased_over_overlay(
    n_nodes: usize,
    port: PortSpeed,
    plan: TrafficPlan,
    distance_km: f64,
) -> f64 {
    leased_line_monthly_usd(port.bps(), distance_km) / overlay_monthly_usd(n_nodes, port, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_vm_matches_paper_price_point() {
        let one = overlay_monthly_usd(1, PortSpeed::Mbps100, TrafficPlan::Gb1000);
        assert!(
            (18.0..30.0).contains(&one),
            "paper says ≈$20/month, got {one}"
        );
    }

    #[test]
    fn hourly_rate_prorates_the_monthly_price() {
        let monthly = overlay_monthly_usd(1, PortSpeed::Gbps1, TrafficPlan::Gb10000);
        let hourly = overlay_node_hourly_usd(PortSpeed::Gbps1, TrafficPlan::Gb10000);
        assert!((hourly * HOURS_PER_MONTH - monthly).abs() < 1e-9);
    }

    #[test]
    fn leased_lines_cost_thousands_per_month() {
        // Paper §I: "each line typically costs thousands of dollars per
        // month" for branch connectivity.
        let dallas_to_dc = leased_line_monthly_usd(100_000_000, 1_900.0);
        assert!(
            (2_000.0..10_000.0).contains(&dallas_to_dc),
            "100 Mbps inter-city line: {dallas_to_dc}"
        );
    }

    #[test]
    fn overlay_is_about_a_tenth_of_a_leased_line() {
        // Abstract: "at a tenth of the cost of leasing private lines of
        // comparable performance" — the paper's five-node overlay with a
        // serious traffic plan vs a transcontinental 100 Mbps line.
        let ratio =
            cost_ratio_leased_over_overlay(5, PortSpeed::Mbps100, TrafficPlan::Gb10000, 4_000.0);
        assert!((5.0..20.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn port_upgrades_cost_more() {
        let base = overlay_monthly_usd(1, PortSpeed::Mbps100, TrafficPlan::Gb1000);
        let g1 = overlay_monthly_usd(1, PortSpeed::Gbps1, TrafficPlan::Gb1000);
        let g10 = overlay_monthly_usd(1, PortSpeed::Gbps10, TrafficPlan::Gb1000);
        assert!(base < g1 && g1 < g10);
    }

    #[test]
    fn traffic_plans_are_monotone() {
        let mut last = -1.0;
        for plan in [
            TrafficPlan::Gb1000,
            TrafficPlan::Gb5000,
            TrafficPlan::Gb10000,
            TrafficPlan::Gb20000,
            TrafficPlan::Unlimited,
        ] {
            let c = overlay_monthly_usd(1, PortSpeed::Mbps100, plan);
            assert!(c > last, "{plan:?} not monotone");
            last = c;
        }
    }

    #[test]
    fn leased_line_grows_with_distance_and_bandwidth() {
        let short = leased_line_monthly_usd(100_000_000, 500.0);
        let long = leased_line_monthly_usd(100_000_000, 8_000.0);
        assert!(long > short);
        let fat = leased_line_monthly_usd(1_000_000_000, 500.0);
        assert!(fat > short);
        // Sub-linear bulk discount: 10x bandwidth < 10x price.
        assert!(fat < 10.0 * short);
    }

    #[test]
    fn included_volumes_match_the_paper_menu() {
        assert_eq!(TrafficPlan::Gb1000.included_gb(), Some(1_000));
        assert_eq!(TrafficPlan::Gb20000.included_gb(), Some(20_000));
        assert_eq!(TrafficPlan::Unlimited.included_gb(), None);
    }

    #[test]
    fn port_speeds_expose_bps() {
        assert_eq!(PortSpeed::Mbps100.bps(), 100_000_000);
        assert_eq!(PortSpeed::Gbps1.bps(), 1_000_000_000);
        assert_eq!(PortSpeed::Gbps10.bps(), 10_000_000_000);
    }
}
