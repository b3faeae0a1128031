//! # transport — TCP and MPTCP, analytic and packet-level
//!
//! Two levels of fidelity, mirroring the paper's two measurement stages:
//!
//! * [`model`] — steady-state analytic throughput (Mathis and Padhye
//!   formulas, window and capacity limits). The paper's own methodology
//!   leans on Mathis et al. to explain why split-TCP helps (§II); we use
//!   the same model, plus the Padhye timeout-aware refinement, for the
//!   6,600-path prevalence sweep.
//! * [`des`] — a packet-level discrete-event simulation of TCP NewReno
//!   and CUBIC with droptail queues, retransmission timers (RFC 6298),
//!   fast retransmit/recovery — and MPTCP on top with the LIA and OLIA
//!   coupled congestion controllers plus an uncoupled per-subflow CUBIC
//!   mode, reproducing the paper's §VI validation (Figs 12 and 13).
//!
//! The two layers are cross-validated in the test suite: DES goodput on a
//! lossy path must agree with the Padhye prediction within model error.
//!
//! # Example
//!
//! ```
//! use simcore::SimDuration;
//! use transport::model::{tcp_throughput, PathQuality, TcpParams};
//!
//! let path = PathQuality {
//!     rtt: SimDuration::from_millis(120),
//!     loss: 1e-3,
//!     bottleneck_bps: 100_000_000,
//! };
//! let bw = tcp_throughput(&path, &TcpParams::default());
//! assert!(bw < 100_000_000.0, "loss-limited well below line rate");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod model;

pub use des::{
    CongestionAlg, CouplingAlg, DesPath, FlowStats, MptcpConfig, Netsim, TransferConfig,
};
pub use model::{tcp_throughput, PathQuality, TcpParams};
