//! # simcore — discrete-event simulation core
//!
//! Foundation crate for the CRONets reproduction. It provides the pieces
//! every simulated subsystem builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer (nanosecond) virtual time, so
//!   simulations are exactly reproducible and free of floating-point drift;
//! * [`EventQueue`] — a time-ordered event queue with stable FIFO
//!   tie-breaking and O(log n) lazy cancellation;
//! * [`SimRng`] — a deterministic, forkable random-number generator with
//!   the distributions the network models need (exponential, log-normal,
//!   Pareto, Bernoulli);
//! * [`TokenBucket`] — a rate limiter used to model virtual-NIC caps
//!   (the 100 Mbps Softlayer port of the paper) and link shaping;
//! * [`profile`] — a deterministic sim-time profiler that charges
//!   virtual nanoseconds to event-handler kinds and exports
//!   flamegraph-compatible folded stacks.
//!
//! # Example
//!
//! ```
//! use simcore::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.as_millis(), ev), (1, "first"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod profile;
pub mod rng;
mod time;
mod token;

pub use event::{EventHandle, EventQueue, Mark, Merged};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use token::TokenBucket;
