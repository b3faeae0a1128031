//! System-wide invariant checker for fault-injected runs.
//!
//! [`Invariants`] is a passive observer: the experiment reports every
//! relevant transition (flow lifecycle, relay crashes/restores, fleet
//! state changes) and the checker records any violation of the
//! properties the system must keep *under arbitrary fault schedules*:
//!
//! 1. **No double billing** — a flow reaches a terminal state
//!    (completed or denied) exactly once.
//! 2. **No flows on unavailable relays** — a flow is never admitted to
//!    a relay that is draining, crashed, or released; in particular the
//!    broker never routes via a crashed relay once its probe is stale.
//! 3. **Conservation of bytes** — across kills and retries, the bytes
//!    delivered by every segment of a flow sum exactly to the bytes
//!    requested, NAT and relay hops included.
//! 4. **Bounded recovery** — every crashed relay is restored within the
//!    schedule's MTTR cap, and no crash is left open at the end.
//!
//! Violations accumulate rather than panic, so one run can report all
//! of them; [`Invariants::assert_clean`] converts them into a panic for
//! use in tests (including `#[should_panic]` negative tests that prove
//! the checker actually fires). Each recorded [`Violation`] is stamped
//! with the sim-time and causal span id that were current when it was
//! detected (see [`Invariants::context`]), so a minimized fuzzer repro
//! is self-describing: the report names *when* the invariant broke and
//! *which* span to look up in the causal stream.
//!
//! The checker also counts how often each of its check sites fired
//! ([`Invariants::site_counts`]); the fuzzer's coverage map keys on
//! these counts alongside the broker and fleet counters.
//!
//! Its memory follows the flows in flight, not the flows seen: a flow
//! holds a byte ledger from its request until it completes or is
//! denied, and then shrinks to one bit (see [`Invariants`]).

use control::RelayState;
use simcore::rng::Mix64Map;
use simcore::{SimDuration, SimTime};

/// One detected violation of a system invariant (the *kind*; see
/// [`Violation`] for the stamped record).
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// A flow reached a terminal state twice.
    DoubleBilling {
        /// The flow id.
        flow: u64,
    },
    /// A flow was admitted to a relay that cannot accept work.
    FlowOnUnavailableRelay {
        /// The flow id.
        flow: u64,
        /// The relay slot.
        relay: usize,
        /// The slot's state at admission time.
        state: RelayState,
    },
    /// A flow's delivered segments do not sum to its requested bytes.
    BytesNotConserved {
        /// The flow id.
        flow: u64,
        /// Bytes the flow requested.
        expected: u64,
        /// Bytes accounted across all segments.
        accounted: u64,
    },
    /// A relay stayed down longer than the schedule's MTTR cap.
    RecoveryExceededMttr {
        /// The relay slot.
        relay: usize,
        /// How long it was down.
        down_for: SimDuration,
        /// The bound it had to meet.
        cap: SimDuration,
    },
    /// A relay crashed and was never restored by the end of the run.
    CrashNeverRecovered {
        /// The relay slot.
        relay: usize,
    },
    /// A lifecycle report arrived for a flow the checker never saw
    /// requested — the experiment's bookkeeping itself is broken.
    UnknownFlow {
        /// The flow id.
        flow: u64,
    },
}

impl InvariantViolation {
    /// Stable kebab-case tag, used by the fuzz corpus format's `expect`
    /// header and the soak/fuzz finding file names.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            InvariantViolation::DoubleBilling { .. } => "double-billing",
            InvariantViolation::FlowOnUnavailableRelay { .. } => "flow-on-unavailable-relay",
            InvariantViolation::BytesNotConserved { .. } => "bytes-not-conserved",
            InvariantViolation::RecoveryExceededMttr { .. } => "recovery-exceeded-mttr",
            InvariantViolation::CrashNeverRecovered { .. } => "crash-never-recovered",
            InvariantViolation::UnknownFlow { .. } => "unknown-flow",
        }
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::DoubleBilling { flow } => {
                write!(f, "flow {flow} was billed to a terminal state twice")
            }
            InvariantViolation::FlowOnUnavailableRelay { flow, relay, state } => {
                write!(
                    f,
                    "flow {flow} admitted to relay {relay} in state {state:?}"
                )
            }
            InvariantViolation::BytesNotConserved {
                flow,
                expected,
                accounted,
            } => write!(
                f,
                "flow {flow} requested {expected} B but segments account for {accounted} B"
            ),
            InvariantViolation::RecoveryExceededMttr {
                relay,
                down_for,
                cap,
            } => write!(
                f,
                "relay {relay} down for {down_for:?}, past the {cap:?} MTTR cap"
            ),
            InvariantViolation::CrashNeverRecovered { relay } => {
                write!(f, "relay {relay} crashed and never recovered")
            }
            InvariantViolation::UnknownFlow { flow } => {
                write!(f, "lifecycle report for unknown flow {flow}")
            }
        }
    }
}

/// A recorded violation, stamped with the sim-time and causal span id
/// that were current when the checker detected it (the experiment sets
/// them via [`Invariants::context`]). The stamp makes a minimized repro
/// self-describing: `at` names the failing instant on the simulation
/// timeline and `span` the causal record to chase in the span stream
/// (0 when no span was in scope).
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// What broke.
    pub kind: InvariantViolation,
    /// Sim-time at detection.
    pub at: SimTime,
    /// The causal span id in scope at detection (0 = none).
    pub span: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [t=+{:.3}s span {}]",
            self.kind,
            self.at.as_secs_f64(),
            self.span
        )
    }
}

/// Names of the checker's call sites, in [`Invariants::site_counts`]
/// order. Published as `faults.check.<name>` counters so the fuzzer's
/// coverage map can key on which checks a schedule actually reached.
pub const CHECK_SITES: [&str; 10] = [
    "flow_requested",
    "admit_direct",
    "admit_relay",
    "admit_chain",
    "flow_killed",
    "flow_completed",
    "flow_denied",
    "relay_crashed",
    "relay_restored",
    "finish",
];

const SITE_FLOW_REQUESTED: usize = 0;
const SITE_ADMIT_DIRECT: usize = 1;
const SITE_ADMIT_RELAY: usize = 2;
const SITE_ADMIT_CHAIN: usize = 3;
const SITE_FLOW_KILLED: usize = 4;
const SITE_FLOW_COMPLETED: usize = 5;
const SITE_FLOW_DENIED: usize = 6;
const SITE_RELAY_CRASHED: usize = 7;
const SITE_RELAY_RESTORED: usize = 8;
const SITE_FINISH: usize = 9;

/// The bytes of a flow in flight: what it asked for, and what its
/// killed segments delivered so far.
#[derive(Debug, Clone, Copy)]
struct Ledger {
    requested: u64,
    accounted: u64,
}

/// Ids per page of [`TerminalBits`]: a service epoch's `seq` and a
/// sharded run's per-region ids count up from 0, so their pages fill
/// densely.
const PAGE_BITS: u32 = 12;

/// Words per page of [`TerminalBits`].
const PAGE_WORDS: usize = 1 << (PAGE_BITS - 6);

/// The set of flows in a terminal state, one bit per id, in pages of
/// 4,096 ids keyed by `id >> 12`.
#[derive(Debug, Default)]
struct TerminalBits {
    pages: Mix64Map<Box<[u64; PAGE_WORDS]>>,
}

impl TerminalBits {
    /// `id`'s page key, its word in the page and its bit in the word.
    fn locate(id: u64) -> (u64, usize, u64) {
        let word = (id >> 6) as usize % PAGE_WORDS;
        (id >> PAGE_BITS, word, 1 << (id & 63))
    }

    fn contains(&self, id: u64) -> bool {
        let (key, word, bit) = Self::locate(id);
        self.pages.get(&key).is_some_and(|p| p[word] & bit != 0)
    }

    /// The word holding `id`'s bit, making its page if need be, and the
    /// bit's mask.
    fn word_mut(&mut self, id: u64) -> (&mut u64, u64) {
        let (key, word, bit) = Self::locate(id);
        let page = self
            .pages
            .entry(key)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]));
        (&mut page[word], bit)
    }

    /// Clears `id`'s bit; a page is never made for it.
    fn remove(&mut self, id: u64) {
        let (key, word, bit) = Self::locate(id);
        if let Some(page) = self.pages.get_mut(&key) {
            page[word] &= !bit;
        }
    }
}

/// Accumulating invariant checker. See the module docs for the
/// properties it enforces.
///
/// A requested flow is *live* until it completes or is denied, then
/// *terminal*. A live flow has a `(requested, accounted)` byte ledger in
/// a small map; a terminal one is a single bit, in pages of 4,096 ids
/// keyed by `id >> 12`. Its bytes are never needed again: a second
/// completion or denial is double billing before any byte is read, a
/// kill of it adds to bytes nobody reads, and a re-request clears the
/// bit and opens a fresh ledger. So the checker holds the flows in
/// flight (a few hundred on the paper day) and one bit per flow seen,
/// and reports exactly what a ledger kept for every flow would.
#[derive(Debug)]
pub struct Invariants {
    relay_state: Vec<RelayState>,
    down_since: Vec<Option<SimTime>>,
    mttr_cap: SimDuration,
    live: Mix64Map<Ledger>,
    terminal: TerminalBits,
    violations: Vec<Violation>,
    ctx_at: SimTime,
    ctx_span: u64,
    sites: [u64; CHECK_SITES.len()],
}

impl Invariants {
    /// Creates a checker for `relays` fleet slots and the schedule's
    /// recovery bound. All slots start [`RelayState::Released`],
    /// mirroring a fresh [`control::Fleet`].
    #[must_use]
    pub fn new(relays: usize, mttr_cap: SimDuration) -> Invariants {
        Invariants {
            relay_state: vec![RelayState::Released; relays],
            down_since: vec![None; relays],
            mttr_cap,
            live: Mix64Map::default(),
            terminal: TerminalBits::default(),
            violations: Vec::new(),
            ctx_at: SimTime::ZERO,
            ctx_span: 0,
            sites: [0; CHECK_SITES.len()],
        }
    }

    /// Sets the causal context every subsequently recorded violation is
    /// stamped with: the current sim-time and the span id of the event
    /// being processed (0 when none). The experiment calls this once
    /// per event, not per check, so the checker's report methods keep
    /// their signatures.
    pub fn context(&mut self, at: SimTime, span: u64) {
        self.ctx_at = at;
        self.ctx_span = span;
    }

    fn report(&mut self, kind: InvariantViolation) {
        self.violations.push(Violation {
            kind,
            at: self.ctx_at,
            span: self.ctx_span,
        });
    }

    /// Mirrors a fleet state transition (rent, drain, release) so
    /// admission checks see what the fleet sees. Crashes and restores
    /// go through [`Invariants::relay_crashed`] / [`Invariants::relay_restored`]
    /// instead, which also track the recovery bound.
    pub fn set_relay_state(&mut self, relay: usize, state: RelayState) {
        self.relay_state[relay] = state;
    }

    /// A new flow asked for `bytes` bytes of transfer. A re-request of
    /// a known id starts it over.
    pub fn flow_requested(&mut self, flow: u64, bytes: u64) {
        self.sites[SITE_FLOW_REQUESTED] += 1;
        self.terminal.remove(flow);
        self.live.insert(
            flow,
            Ledger {
                requested: bytes,
                accounted: 0,
            },
        );
    }

    /// Whether `flow` was ever requested.
    fn known(&self, flow: u64) -> bool {
        self.live.contains_key(&flow) || self.terminal.contains(flow)
    }

    /// The flow was admitted; `relay` is `Some(slot)` for overlay
    /// routing, `None` for the direct path. Admission to anything but
    /// an `Active` slot is a violation — drained, crashed, and released
    /// slots must receive no new flows.
    pub fn flow_admitted(&mut self, flow: u64, relay: Option<usize>) {
        self.sites[if relay.is_some() {
            SITE_ADMIT_RELAY
        } else {
            SITE_ADMIT_DIRECT
        }] += 1;
        if !self.known(flow) {
            self.report(InvariantViolation::UnknownFlow { flow });
            return;
        }
        if let Some(r) = relay {
            let state = self.relay_state[r];
            if state != RelayState::Active {
                self.report(InvariantViolation::FlowOnUnavailableRelay {
                    flow,
                    relay: r,
                    state,
                });
            }
        }
    }

    /// The flow was admitted onto a multi-hop relay chain: every relay
    /// slot on the chain must be `Active`. Equivalent to one
    /// [`Invariants::flow_admitted`] check per hop (an empty chain is a
    /// direct-path admission).
    pub fn flow_admitted_path(&mut self, flow: u64, relays: &[usize]) {
        if relays.is_empty() {
            self.flow_admitted(flow, None);
            return;
        }
        self.sites[SITE_ADMIT_CHAIN] += 1;
        for &r in relays {
            self.flow_admitted(flow, Some(r));
        }
    }

    /// A fault killed the flow mid-transfer after `delivered` bytes; a
    /// retry segment is expected to carry the rest.
    pub fn flow_killed(&mut self, flow: u64, delivered: u64) {
        self.sites[SITE_FLOW_KILLED] += 1;
        if let Some(l) = self.live.get_mut(&flow) {
            l.accounted += delivered;
        } else if !self.terminal.contains(flow) {
            self.report(InvariantViolation::UnknownFlow { flow });
        }
    }

    /// Ends `flow`'s ledger: a terminal flow was billed twice, an
    /// unknown one was never requested, and a live one turns terminal
    /// and hands back its ledger.
    fn end(&mut self, flow: u64) -> Result<Ledger, InvariantViolation> {
        let (word, bit) = self.terminal.word_mut(flow);
        if *word & bit != 0 {
            return Err(InvariantViolation::DoubleBilling { flow });
        }
        let ledger = self
            .live
            .remove(&flow)
            .ok_or(InvariantViolation::UnknownFlow { flow })?;
        *word |= bit;
        Ok(ledger)
    }

    /// The flow's final segment finished, delivering `segment` bytes.
    /// Checks terminal-once (double billing) and byte conservation.
    pub fn flow_completed(&mut self, flow: u64, segment: u64) {
        self.sites[SITE_FLOW_COMPLETED] += 1;
        match self.end(flow) {
            Ok(l) => {
                let accounted = l.accounted + segment;
                if accounted != l.requested {
                    self.report(InvariantViolation::BytesNotConserved {
                        flow,
                        expected: l.requested,
                        accounted,
                    });
                }
            }
            Err(v) => self.report(v),
        }
    }

    /// The flow was denied admission (terminal, no bytes move).
    pub fn flow_denied(&mut self, flow: u64) {
        self.sites[SITE_FLOW_DENIED] += 1;
        if let Err(v) = self.end(flow) {
            self.report(v);
        }
    }

    /// Relay `relay` crashed at `at`.
    pub fn relay_crashed(&mut self, relay: usize, at: SimTime) {
        self.sites[SITE_RELAY_CRASHED] += 1;
        self.relay_state[relay] = RelayState::Failed;
        self.down_since[relay] = Some(at);
    }

    /// Relay `relay` was restored at `at`; checks the recovery bound.
    pub fn relay_restored(&mut self, relay: usize, at: SimTime) {
        self.sites[SITE_RELAY_RESTORED] += 1;
        self.relay_state[relay] = RelayState::Released;
        if let Some(since) = self.down_since[relay].take() {
            let down_for = at - since;
            if down_for > self.mttr_cap {
                self.report(InvariantViolation::RecoveryExceededMttr {
                    relay,
                    down_for,
                    cap: self.mttr_cap,
                });
            }
        }
    }

    /// End-of-run checks: every crash window must have closed.
    pub fn finish(&mut self) {
        self.sites[SITE_FINISH] += 1;
        for relay in 0..self.down_since.len() {
            if self.down_since[relay].is_some() {
                self.report(InvariantViolation::CrashNeverRecovered { relay });
            }
        }
    }

    /// All violations recorded so far, in detection order, each stamped
    /// with the sim-time and span id current at detection.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The violation kinds alone (detection order), for tests that
    /// assert on the kind without caring about the context stamp.
    #[must_use]
    pub fn kinds(&self) -> Vec<InvariantViolation> {
        self.violations.iter().map(|v| v.kind.clone()).collect()
    }

    /// How often each check site fired, as `(site name, count)` in
    /// [`CHECK_SITES`] order. Experiments publish these as
    /// `faults.check.<name>` counters; the fuzzer's coverage map keys
    /// on them.
    #[must_use]
    pub fn site_counts(&self) -> [(&'static str, u64); CHECK_SITES.len()] {
        let mut out = [("", 0u64); CHECK_SITES.len()];
        for (i, name) in CHECK_SITES.iter().enumerate() {
            out[i] = (name, self.sites[i]);
        }
        out
    }

    /// Panics with the full violation list if any invariant was broken.
    ///
    /// # Panics
    ///
    /// Panics when [`Invariants::violations`] is non-empty.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "{} invariant violation(s):\n{}",
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use simcore::rng::SimRng;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn clean_lifecycle_records_nothing() {
        let mut inv = Invariants::new(2, SimDuration::from_secs(60));
        inv.set_relay_state(0, RelayState::Active);
        inv.flow_requested(1, 1000);
        inv.flow_admitted(1, Some(0));
        inv.flow_completed(1, 1000);
        inv.flow_requested(2, 500);
        inv.flow_admitted(2, None);
        inv.flow_killed(2, 200);
        inv.flow_completed(2, 300);
        inv.relay_crashed(0, t(10));
        inv.relay_restored(0, t(40));
        inv.finish();
        assert!(inv.violations().is_empty(), "{:?}", inv.violations());
        inv.assert_clean();
    }

    #[test]
    fn double_completion_is_double_billing() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(60));
        inv.flow_requested(7, 10);
        inv.flow_completed(7, 10);
        inv.flow_completed(7, 10);
        assert_eq!(
            inv.kinds(),
            vec![InvariantViolation::DoubleBilling { flow: 7 }]
        );
    }

    #[test]
    fn admission_to_failed_or_draining_relay_is_flagged() {
        let mut inv = Invariants::new(2, SimDuration::from_secs(60));
        inv.relay_crashed(0, t(1));
        inv.set_relay_state(1, RelayState::Draining);
        inv.flow_requested(1, 10);
        inv.flow_admitted(1, Some(0));
        inv.flow_requested(2, 10);
        inv.flow_admitted(2, Some(1));
        assert_eq!(
            inv.kinds(),
            vec![
                InvariantViolation::FlowOnUnavailableRelay {
                    flow: 1,
                    relay: 0,
                    state: RelayState::Failed,
                },
                InvariantViolation::FlowOnUnavailableRelay {
                    flow: 2,
                    relay: 1,
                    state: RelayState::Draining,
                },
            ]
        );
    }

    #[test]
    fn lost_bytes_break_conservation() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(60));
        inv.flow_requested(3, 1000);
        inv.flow_killed(3, 400);
        inv.flow_completed(3, 500);
        assert_eq!(
            inv.kinds(),
            vec![InvariantViolation::BytesNotConserved {
                flow: 3,
                expected: 1000,
                accounted: 900,
            }]
        );
    }

    #[test]
    fn slow_recovery_breaks_the_mttr_bound() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(30));
        inv.relay_crashed(0, t(0));
        inv.relay_restored(0, t(31));
        assert_eq!(
            inv.kinds(),
            vec![InvariantViolation::RecoveryExceededMttr {
                relay: 0,
                down_for: SimDuration::from_secs(31),
                cap: SimDuration::from_secs(30),
            }]
        );
    }

    #[test]
    fn open_crash_window_is_caught_at_finish() {
        let mut inv = Invariants::new(2, SimDuration::from_secs(30));
        inv.relay_crashed(1, t(5));
        inv.finish();
        assert_eq!(
            inv.kinds(),
            vec![InvariantViolation::CrashNeverRecovered { relay: 1 }]
        );
    }

    #[test]
    fn violations_carry_the_context_stamp() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(30));
        inv.flow_requested(9, 10);
        inv.context(t(42), 777);
        inv.flow_completed(9, 10);
        inv.flow_completed(9, 10); // double billing, stamped (42 s, 777)
        let v = &inv.violations()[0];
        assert_eq!(v.kind, InvariantViolation::DoubleBilling { flow: 9 });
        assert_eq!(v.at, t(42));
        assert_eq!(v.span, 777);
        let shown = v.to_string();
        assert!(shown.contains("span 777"), "{shown}");
        assert!(shown.contains("t=+42.000s"), "{shown}");
    }

    #[test]
    fn site_counts_track_every_check_site() {
        let mut inv = Invariants::new(2, SimDuration::from_secs(60));
        inv.set_relay_state(0, RelayState::Active);
        inv.set_relay_state(1, RelayState::Active);
        inv.flow_requested(1, 10);
        inv.flow_admitted_path(1, &[0, 1]);
        inv.flow_completed(1, 10);
        inv.flow_requested(2, 10);
        inv.flow_admitted(2, None);
        inv.flow_denied(3); // unknown, still counts the site
        inv.finish();
        let counts: std::collections::HashMap<_, _> = inv.site_counts().into_iter().collect();
        assert_eq!(counts["flow_requested"], 2);
        assert_eq!(counts["admit_chain"], 1);
        assert_eq!(counts["admit_relay"], 2);
        assert_eq!(counts["admit_direct"], 1);
        assert_eq!(counts["flow_completed"], 1);
        assert_eq!(counts["flow_denied"], 1);
        assert_eq!(counts["finish"], 1);
        assert_eq!(counts["relay_crashed"], 0);
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn assert_clean_panics_on_violations() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(30));
        inv.flow_requested(1, 10);
        inv.flow_completed(1, 10);
        inv.flow_completed(1, 10);
        inv.assert_clean();
    }

    /// The checker as it was before terminal flows shrank to a bit: one
    /// map entry per flow ever requested, kept to the end of the run.
    /// The differential test holds [`Invariants`] to it call for call.
    struct OneMap {
        relay_state: Vec<RelayState>,
        down_since: Vec<Option<SimTime>>,
        mttr_cap: SimDuration,
        flows: HashMap<u64, FlowTrack>,
        violations: Vec<Violation>,
        ctx_at: SimTime,
        ctx_span: u64,
        sites: [u64; CHECK_SITES.len()],
    }

    #[derive(Clone, Copy)]
    struct FlowTrack {
        requested: u64,
        accounted: u64,
        terminal: bool,
    }

    impl OneMap {
        fn new(relays: usize, mttr_cap: SimDuration) -> OneMap {
            OneMap {
                relay_state: vec![RelayState::Released; relays],
                down_since: vec![None; relays],
                mttr_cap,
                flows: HashMap::new(),
                violations: Vec::new(),
                ctx_at: SimTime::ZERO,
                ctx_span: 0,
                sites: [0; CHECK_SITES.len()],
            }
        }

        fn context(&mut self, at: SimTime, span: u64) {
            self.ctx_at = at;
            self.ctx_span = span;
        }

        fn report(&mut self, kind: InvariantViolation) {
            self.violations.push(Violation {
                kind,
                at: self.ctx_at,
                span: self.ctx_span,
            });
        }

        fn set_relay_state(&mut self, relay: usize, state: RelayState) {
            self.relay_state[relay] = state;
        }

        fn flow_requested(&mut self, flow: u64, bytes: u64) {
            self.sites[SITE_FLOW_REQUESTED] += 1;
            self.flows.insert(
                flow,
                FlowTrack {
                    requested: bytes,
                    accounted: 0,
                    terminal: false,
                },
            );
        }

        fn flow_admitted(&mut self, flow: u64, relay: Option<usize>) {
            self.sites[if relay.is_some() {
                SITE_ADMIT_RELAY
            } else {
                SITE_ADMIT_DIRECT
            }] += 1;
            if !self.flows.contains_key(&flow) {
                self.report(InvariantViolation::UnknownFlow { flow });
                return;
            }
            if let Some(r) = relay {
                let state = self.relay_state[r];
                if state != RelayState::Active {
                    self.report(InvariantViolation::FlowOnUnavailableRelay {
                        flow,
                        relay: r,
                        state,
                    });
                }
            }
        }

        fn flow_admitted_path(&mut self, flow: u64, relays: &[usize]) {
            if relays.is_empty() {
                self.flow_admitted(flow, None);
                return;
            }
            self.sites[SITE_ADMIT_CHAIN] += 1;
            for &r in relays {
                self.flow_admitted(flow, Some(r));
            }
        }

        fn flow_killed(&mut self, flow: u64, delivered: u64) {
            self.sites[SITE_FLOW_KILLED] += 1;
            match self.flows.get_mut(&flow) {
                Some(t) => t.accounted += delivered,
                None => self.report(InvariantViolation::UnknownFlow { flow }),
            }
        }

        fn flow_completed(&mut self, flow: u64, segment: u64) {
            self.sites[SITE_FLOW_COMPLETED] += 1;
            let Some(t) = self.flows.get_mut(&flow) else {
                self.report(InvariantViolation::UnknownFlow { flow });
                return;
            };
            if t.terminal {
                self.report(InvariantViolation::DoubleBilling { flow });
                return;
            }
            t.terminal = true;
            t.accounted += segment;
            if t.accounted != t.requested {
                let (expected, accounted) = (t.requested, t.accounted);
                self.report(InvariantViolation::BytesNotConserved {
                    flow,
                    expected,
                    accounted,
                });
            }
        }

        fn flow_denied(&mut self, flow: u64) {
            self.sites[SITE_FLOW_DENIED] += 1;
            let Some(t) = self.flows.get_mut(&flow) else {
                self.report(InvariantViolation::UnknownFlow { flow });
                return;
            };
            let already_terminal = t.terminal;
            t.terminal = true;
            if already_terminal {
                self.report(InvariantViolation::DoubleBilling { flow });
            }
        }

        fn relay_crashed(&mut self, relay: usize, at: SimTime) {
            self.sites[SITE_RELAY_CRASHED] += 1;
            self.relay_state[relay] = RelayState::Failed;
            self.down_since[relay] = Some(at);
        }

        fn relay_restored(&mut self, relay: usize, at: SimTime) {
            self.sites[SITE_RELAY_RESTORED] += 1;
            self.relay_state[relay] = RelayState::Released;
            if let Some(since) = self.down_since[relay].take() {
                let down_for = at - since;
                if down_for > self.mttr_cap {
                    self.report(InvariantViolation::RecoveryExceededMttr {
                        relay,
                        down_for,
                        cap: self.mttr_cap,
                    });
                }
            }
        }

        fn finish(&mut self) {
            self.sites[SITE_FINISH] += 1;
            for relay in 0..self.down_since.len() {
                if self.down_since[relay].is_some() {
                    self.report(InvariantViolation::CrashNeverRecovered { relay });
                }
            }
        }

        fn site_counts(&self) -> [(&'static str, u64); CHECK_SITES.len()] {
            let mut out = [("", 0u64); CHECK_SITES.len()];
            for (i, name) in CHECK_SITES.iter().enumerate() {
                out[i] = (name, self.sites[i]);
            }
            out
        }
    }

    /// One call on the checker's public API.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Context(SimTime, u64),
        SetState(usize, RelayState),
        Request(u64, u64),
        AdmitDirect(u64),
        AdmitRelay(u64, usize),
        AdmitPath(u64, [usize; 3], usize),
        Kill(u64, u64),
        Complete(u64, u64),
        Deny(u64),
        Crash(usize, SimTime),
        Restore(usize, SimTime),
        Finish,
    }

    /// Makes `call` on `$c`, either checker.
    macro_rules! apply {
        ($c:expr, $call:expr) => {
            match $call {
                Call::Context(at, span) => $c.context(at, span),
                Call::SetState(r, st) => $c.set_relay_state(r, st),
                Call::Request(f, b) => $c.flow_requested(f, b),
                Call::AdmitDirect(f) => $c.flow_admitted(f, None),
                Call::AdmitRelay(f, r) => $c.flow_admitted(f, Some(r)),
                Call::AdmitPath(f, hops, n) => $c.flow_admitted_path(f, &hops[..n]),
                Call::Kill(f, d) => $c.flow_killed(f, d),
                Call::Complete(f, b) => $c.flow_completed(f, b),
                Call::Deny(f) => $c.flow_denied(f),
                Call::Crash(r, at) => $c.relay_crashed(r, at),
                Call::Restore(r, at) => $c.relay_restored(r, at),
                Call::Finish => $c.finish(),
            }
        };
    }

    /// Ids off the dense ranges: both sides of page edges, a sharded
    /// run's `region << 48 | id`, and both sides of the top bit.
    const EDGE_IDS: [u64; 12] = [
        4_094,
        4_095,
        4_096,
        4_097,
        (1 << 32) | 4_095,
        (1 << 32) | 4_096,
        (3 << 48) | (2 << 32) | 5,
        (1 << 63) | 5,
        u64::MAX >> 1,
        u64::MAX - 4_096,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// A flow id: mostly from three epochs of a service run
    /// (`epoch << 32 | seq`), sometimes off [`EDGE_IDS`]. A `seq` is
    /// either dense from 0, or a small number shifted to any bit of a
    /// page and past it, so ids that share a word, a bit position or a
    /// page offset all meet.
    fn draw_id(rng: &mut SimRng) -> u64 {
        let epoch = [0u64, 1, 7][rng.index(3)] << 32;
        match rng.index(10) {
            0..=4 => epoch | rng.index(24) as u64,
            5 | 6 => epoch | ((1 + rng.index(3) as u64) << rng.index(14)),
            _ => EDGE_IDS[rng.index(EDGE_IDS.len())],
        }
    }

    /// A random call. Byte counts stay small, so a flow's segments sum
    /// to its request often enough for both conservation outcomes.
    fn draw_call(rng: &mut SimRng, now: &mut SimTime) -> Call {
        const STATES: [RelayState; 4] = [
            RelayState::Released,
            RelayState::Active,
            RelayState::Draining,
            RelayState::Failed,
        ];
        let relay = rng.index(3);
        match rng.index(20) {
            0 => {
                *now += SimDuration::from_secs(rng.index(40) as u64);
                Call::Context(*now, rng.next_u64() % 1_000)
            }
            1 => Call::SetState(relay, STATES[rng.index(4)]),
            2..=5 => Call::Request(draw_id(rng), rng.index(4) as u64),
            6 => Call::AdmitDirect(draw_id(rng)),
            7 | 8 => Call::AdmitRelay(draw_id(rng), relay),
            9 => Call::AdmitPath(
                draw_id(rng),
                [relay, rng.index(3), rng.index(3)],
                rng.index(4),
            ),
            10 | 11 => Call::Kill(draw_id(rng), rng.index(3) as u64),
            12..=14 => Call::Complete(draw_id(rng), rng.index(4) as u64),
            15 | 16 => Call::Deny(draw_id(rng)),
            17 => Call::Crash(relay, *now),
            18 => Call::Restore(relay, *now),
            _ => Call::Finish,
        }
    }

    /// What a call meant for the flow it names, judged on the reference
    /// before the call: the cases the test must reach.
    #[derive(Default)]
    struct Reached {
        unknown: u64,
        re_request_of_terminal: u64,
        kill_after_terminal: u64,
        admit_after_terminal: u64,
        double_completion: u64,
        double_denial: u64,
    }

    impl Reached {
        fn note(&mut self, reference: &OneMap, call: Call) {
            let flow = match call {
                Call::Request(f, _)
                | Call::AdmitDirect(f)
                | Call::AdmitRelay(f, _)
                | Call::AdmitPath(f, _, _)
                | Call::Kill(f, _)
                | Call::Complete(f, _)
                | Call::Deny(f) => f,
                _ => return,
            };
            let Some(t) = reference.flows.get(&flow) else {
                self.unknown += u64::from(!matches!(call, Call::Request(..)));
                return;
            };
            if !t.terminal {
                return;
            }
            match call {
                Call::Request(..) => self.re_request_of_terminal += 1,
                Call::Kill(..) => self.kill_after_terminal += 1,
                Call::Complete(..) => self.double_completion += 1,
                Call::Deny(..) => self.double_denial += 1,
                _ => self.admit_after_terminal += 1,
            }
        }
    }

    /// Seeded random call sequences against [`OneMap`]: after every
    /// call, the violations (kinds, stamps, order) and the site counts
    /// must be the reference's exactly.
    #[test]
    fn live_ledgers_report_what_one_map_of_every_flow_reports() {
        let mut reached = Reached::default();
        for seed in 0..200 {
            let mut rng = SimRng::seed_from(seed);
            let mttr = SimDuration::from_secs(60);
            let mut inv = Invariants::new(3, mttr);
            let mut reference = OneMap::new(3, mttr);
            let mut now = SimTime::ZERO;
            for step in 0..400 {
                let call = draw_call(&mut rng, &mut now);
                reached.note(&reference, call);
                apply!(inv, call);
                apply!(reference, call);
                assert_eq!(
                    inv.violations(),
                    &reference.violations[..],
                    "seed {seed} step {step}: {call:?}"
                );
                assert_eq!(
                    inv.site_counts(),
                    reference.site_counts(),
                    "seed {seed} step {step}: {call:?}"
                );
            }
        }
        let r = reached;
        for (what, n) in [
            ("unknown ids", r.unknown),
            ("re-requests of terminal ids", r.re_request_of_terminal),
            ("kills after a terminal", r.kill_after_terminal),
            ("admissions after a terminal", r.admit_after_terminal),
            ("double completions", r.double_completion),
            ("double denials", r.double_denial),
        ] {
            assert!(n >= 100, "only {n} {what}");
        }
    }

    #[test]
    fn every_violation_displays_meaningfully() {
        let samples = [
            InvariantViolation::DoubleBilling { flow: 1 },
            InvariantViolation::FlowOnUnavailableRelay {
                flow: 1,
                relay: 0,
                state: RelayState::Failed,
            },
            InvariantViolation::BytesNotConserved {
                flow: 1,
                expected: 2,
                accounted: 1,
            },
            InvariantViolation::RecoveryExceededMttr {
                relay: 0,
                down_for: SimDuration::from_secs(2),
                cap: SimDuration::from_secs(1),
            },
            InvariantViolation::CrashNeverRecovered { relay: 0 },
            InvariantViolation::UnknownFlow { flow: 9 },
        ];
        for kind in samples {
            assert!(!kind.to_string().is_empty());
            assert!(!kind.tag().is_empty());
            let v = Violation {
                kind,
                at: t(1),
                span: 2,
            };
            assert!(v.to_string().contains("span 2"));
        }
    }
}
