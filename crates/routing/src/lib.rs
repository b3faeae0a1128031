//! # routing — policy interdomain routing over the topology model
//!
//! The CRONets paper's premise is that "autonomous systems select paths
//! mainly based on their business agreements ... without taking into
//! account specific performance metrics". This crate implements exactly
//! that behaviour:
//!
//! * [`addr`] — compact hierarchical `[Geo1][Geo2][Group][Index]` node
//!   addressing ([`NodeAddr`]) with tiered geo-prefix lookup tables
//!   ([`GeoTable`]) for the sharded control plane.
//! * [`bgp`] — per-destination AS-level route selection under the
//!   Gao–Rexford model: customer routes over peer routes over provider
//!   routes, shortest AS path within a class, deterministic tie-break.
//!   Performance (loss, delay) plays **no role**, which is why default
//!   paths can be bad and overlays can win.
//! * [`expand`] — router-level expansion of AS paths with hot-potato
//!   (early-exit) egress selection and intra-AS shortest-delay routing.
//! * [`cache`] — a read-only [`RouteCache`] for parallel sweeps: warmed
//!   per-destination tables plus prefetched path memoization with
//!   deterministic hit/miss counters.
//! * [`path`] — the resulting [`RouterPath`] with the aggregate metrics
//!   the transport models consume (RTT, loss, bottleneck capacity).
//! * [`traceroute`](mod@traceroute) — per-hop output like the tool the paper ran from its
//!   controlled senders.
//!
//! # Example
//!
//! ```
//! use topology::gen::{generate, InternetConfig};
//! use routing::Bgp;
//!
//! let mut net = generate(&InternetConfig::small(), 11);
//! let stubs: Vec<_> = net
//!     .ases()
//!     .filter(|a| a.tier() == topology::AsTier::Stub)
//!     .map(|a| a.id())
//!     .collect();
//! let a = net.attach_host("a", stubs[0], 100_000_000);
//! let b = net.attach_host("b", stubs[1], 100_000_000);
//! let mut bgp = Bgp::new();
//! let path = routing::route(&net, &mut bgp, a, b).expect("connected topology");
//! assert_eq!(path.source(), a);
//! assert_eq!(path.destination(), b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bgp;
pub mod cache;
pub mod expand;
pub mod path;
pub mod traceroute;

pub use addr::{GeoPrefix, GeoTable, NodeAddr};
pub use bgp::{AsRoute, Bgp, RouteClass};
pub use cache::RouteCache;
pub use expand::{expand_as_path, intra_as_path, route};
pub use path::RouterPath;
pub use traceroute::{traceroute, Hop};
