//! # cronets — Cloud-Routed Overlay Networks
//!
//! The paper's contribution: build your own overlay network out of cloud
//! VMs, tunnel traffic through them, optionally split TCP at the overlay
//! node, and let MPTCP pick the best path automatically.
//!
//! The crate has two faces:
//!
//! * a **model** face used by the experiments — [`Cronet`] provisions
//!   overlay nodes in the simulated cloud ([`cloud`] crate), constructs
//!   direct and one-hop overlay paths over policy routing ([`routing`]),
//!   and evaluates every path mode of the paper's §II methodology:
//!   *direct*, *plain overlay* (GRE/IPsec tunnel + NAT), *split-overlay*
//!   (TCP proxy at the overlay node) and *discrete overlay* (per-segment
//!   upper bound);
//! * a **dataplane** face a downstream user can actually run —
//!   [`dataplane`] implements a real split-TCP relay and a UDP
//!   encapsulation forwarder with IP-masquerade-style NAT over
//!   `std::net` sockets (exercised on loopback by the test suite).
//!
//! Path selection (§VI) lives in [`select`]: an active-probing baseline
//! and the paper's MPTCP-based selector in both coupled (OLIA) and
//! uncoupled (CUBIC) configurations.
//!
//! # Example
//!
//! ```
//! use cronets::{Cronet, CronetBuilder};
//! use topology::gen::{generate, InternetConfig};
//! use routing::Bgp;
//!
//! let mut net = generate(&InternetConfig::small(), 11);
//! let cronet = CronetBuilder::new().build(&mut net, 11);
//! let stubs: Vec<_> = net
//!     .ases()
//!     .filter(|a| a.tier() == topology::AsTier::Stub)
//!     .map(|a| a.id())
//!     .collect();
//! let a = net.attach_host("branch-a", stubs[0], 100_000_000);
//! let b = net.attach_host("branch-b", stubs[1], 100_000_000);
//! let eval = cronet.evaluate(&net, &mut Bgp::new(), a, b).unwrap();
//! assert_eq!(eval.overlays.len(), cronet.nodes().len());
//! assert!(eval.direct.throughput_bps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cronet;
pub mod dataplane;
pub mod eval;
pub mod nat;
pub mod select;
pub mod tunnel;

pub use cronet::{Cronet, CronetBuilder, OverlayNode};
pub use eval::{Measurement, OverlayEval, OverlayProbe, PairEval, PairProbe};
pub use tunnel::TunnelKind;
