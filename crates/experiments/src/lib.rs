//! # experiments — reproducing every table and figure of the paper
//!
//! Each module reproduces one (or one family of) results from *CRONets:
//! Cloud-Routed Overlay Networks* (ICDCS 2016), over the simulated
//! Internet + cloud substrate. The mapping (also in DESIGN.md):
//!
//! | module | paper result |
//! |---|---|
//! | [`prevalence`] | Fig. 2 (web-server experiment) and Fig. 3 (controlled senders): CDFs of throughput-improvement ratios |
//! | [`quality`] | Fig. 4 (retransmission-rate CDFs) and Fig. 5 (RTT-ratio CDF) |
//! | [`longitudinal`] | Fig. 6 (one-week persistence), Fig. 7 (min #overlay nodes), Table I (nodes vs improvement) |
//! | [`factors`] | Fig. 8 (diversity scores), Fig. 9 (RTT bins), Fig. 10 (loss bins), Fig. 11 (gain vs direct throughput) |
//! | [`thresholds`] | §V-B C4.5 analysis: joint RTT/loss reduction thresholds |
//! | [`mptcp_exp`] | Fig. 12 (MPTCP/OLIA) and Fig. 13 (MPTCP/uncoupled CUBIC) |
//! | [`cost`] | §I/§VII-D cost comparison ("a tenth of the cost") |
//! | [`extensions`] | §VII future work: multi-hop overlays, port-speed sweep, node placement |
//! | [`ablation`] | design-choice ablations: IXP peering, endpoint windows, analytic-vs-DES validation |
//! | [`export`] | TSV export of all figure data for external plotting |
//! | [`failover`] | §VI-A: direct-path failure mid-transfer, MPTCP vs plain TCP |
//! | [`service`] | §VI–§VII: CRONets as an online service (workload, broker, autoscaler, SLOs) — the one event loop, with an optional fault schedule |
//! | [`chaos`] | §VI-A generalized: the service loop under a deterministic fault schedule (crashes, outages, flaps, poisoned probes) |
//! | [`multihop`] | §VII-B generalized: k-hop chains with online-bandit selection vs static/OLIA on the Fig. 12/13 flows, clean and under faults |
//! | [`fuzzing`] | coverage-guided fault-schedule fuzzing of the chaos loop, with delta-debugged repros (`cronets fuzz`) |
//! | [`soak`] | week-of-simulated-time chaos soak, checkpoint-resumable and byte-deterministic (`cronets soak`) |
//! | [`sharded`] | the control plane at planetary scale: per-region shards with parallel brokers on `--threads` lanes, and epoch-barriered global reconciliation (`--planet`) |
//!
//! Every experiment is deterministic in its seed, returns a typed result,
//! and knows how to render itself as the rows/series of the original
//! figure. The test suite asserts the *shape* of each result (who wins,
//! by roughly what factor) — absolute numbers differ from the paper's
//! testbed, as expected for a simulation reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod attribution;
pub mod chaos;
pub mod cost;
pub mod export;
pub mod extensions;
pub mod factors;
pub mod failover;
pub mod fuzzing;
pub mod longitudinal;
pub mod mptcp_exp;
pub mod multihop;
pub mod prevalence;
pub mod quality;
pub mod report;
pub mod run_report;
pub mod scenario;
pub mod service;
pub mod sharded;
pub mod soak;
pub mod sweep;
pub mod thresholds;

pub use scenario::{ScenarioConfig, World};
pub use sweep::{PairRecord, Sweep};
