//! Active-probing path selection: the traditional baseline.
//!
//! "Researchers have traditionally developed algorithms to verify if a
//! path is alive, and evaluate the quality of potential paths. Those
//! algorithms typically rely on active probing, and therefore introduce
//! overhead" (§VI). This selector probes all candidate paths every
//! `interval` epochs and uses the winner in between — so when congestion
//! moves faster than the probe interval, it rides a stale choice. The
//! MPTCP selector exists to beat exactly this behaviour.

use crate::eval::{PairEval, PairProbe};

/// The path a selector currently uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathChoice {
    /// The default Internet path.
    Direct,
    /// The overlay path through node `i` (split mode).
    Overlay(usize),
}

/// Periodic-probing selector.
///
/// # Example
///
/// ```no_run
/// use cronets::select::ProbingSelector;
/// let mut selector = ProbingSelector::new(4);
/// // each epoch: let achieved = selector.step(&pair_eval);
/// # let _ = selector;
/// ```
#[derive(Debug, Clone)]
pub struct ProbingSelector {
    interval: u64,
    epochs_since_probe: u64,
    choice: Option<PathChoice>,
}

impl ProbingSelector {
    /// Creates a selector probing every `interval` epochs (1 = probe
    /// every epoch, i.e. an oracle with probing overhead).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "probe interval must be positive");
        ProbingSelector {
            interval,
            epochs_since_probe: 0,
            choice: None,
        }
    }

    /// The current choice, if any probe has happened.
    #[must_use]
    pub fn choice(&self) -> Option<PathChoice> {
        self.choice
    }

    /// Advances one epoch: probes if due, then returns the throughput the
    /// selector's current choice achieves under `eval` (the *current*
    /// network state — a stale choice earns a stale rate).
    pub fn step(&mut self, eval: &PairEval) -> f64 {
        let probe = eval.probe();
        if self.choice.is_none() || self.epochs_since_probe >= self.interval - 1 {
            self.choice = Some(best_choice(&probe));
            self.epochs_since_probe = 0;
        } else {
            self.epochs_since_probe += 1;
        }
        achieved(&probe, self.choice.expect("choice set above"))
    }
}

/// The best current choice by split-overlay/direct throughput.
#[must_use]
pub fn best_choice(eval: &PairProbe) -> PathChoice {
    best_choice_filtered(eval, |_| true)
}

/// Like [`best_choice`], but only overlay nodes accepted by `allowed`
/// may be chosen; the direct path is always a candidate. This is how an
/// online broker respects per-relay concurrent-flow capacity: a full
/// relay simply drops out of the candidate set.
#[must_use]
pub fn best_choice_filtered(eval: &PairProbe, allowed: impl Fn(usize) -> bool) -> PathChoice {
    let mut best = (eval.direct.throughput_bps, PathChoice::Direct);
    for o in &eval.overlays {
        if o.split.throughput_bps > best.0 && allowed(o.node) {
            best = (o.split.throughput_bps, PathChoice::Overlay(o.node));
        }
    }
    best.1
}

/// Throughput of a specific choice under the current state.
#[must_use]
pub fn achieved(eval: &PairProbe, choice: PathChoice) -> f64 {
    match choice {
        PathChoice::Direct => eval.direct.throughput_bps,
        PathChoice::Overlay(node) => eval
            .overlays
            .iter()
            .find(|o| o.node == node)
            .map_or(0.0, |o| o.split.throughput_bps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Measurement, OverlayEval};
    use routing::RouterPath;
    use simcore::SimDuration;
    use topology::RouterId;

    fn meas(bps: f64) -> Measurement {
        Measurement {
            throughput_bps: bps,
            rtt: SimDuration::from_millis(50),
            loss: 0.0,
        }
    }

    fn eval(direct: f64, overlays: &[f64]) -> PairEval {
        PairEval {
            direct: meas(direct),
            direct_path: RouterPath::trivial(RouterId::from_raw(0)),
            overlays: overlays
                .iter()
                .enumerate()
                .map(|(i, &bps)| OverlayEval {
                    node: i,
                    plain: meas(bps * 0.8),
                    split: meas(bps),
                    discrete_bps: bps,
                    path: RouterPath::trivial(RouterId::from_raw(1)),
                })
                .collect(),
        }
    }

    #[test]
    fn picks_the_best_path_on_probe() {
        let mut s = ProbingSelector::new(1);
        let e = eval(10.0, &[5.0, 30.0, 20.0]);
        assert_eq!(s.step(&e), 30.0);
        assert_eq!(s.choice(), Some(PathChoice::Overlay(1)));
    }

    #[test]
    fn prefers_direct_when_it_wins() {
        let mut s = ProbingSelector::new(1);
        let e = eval(100.0, &[5.0, 30.0]);
        assert_eq!(s.step(&e), 100.0);
        assert_eq!(s.choice(), Some(PathChoice::Direct));
    }

    #[test]
    fn stale_choice_earns_stale_throughput() {
        let mut s = ProbingSelector::new(10);
        let before = eval(10.0, &[50.0]);
        assert_eq!(s.step(&before), 50.0);
        // Congestion moves: overlay collapses, direct recovers.
        let after = eval(80.0, &[2.0]);
        // Still pinned to overlay 0 until the next probe.
        assert_eq!(s.step(&after), 2.0);
        assert_eq!(s.choice(), Some(PathChoice::Overlay(0)));
    }

    #[test]
    fn reprobe_happens_at_interval() {
        let mut s = ProbingSelector::new(2);
        let e1 = eval(10.0, &[50.0]);
        s.step(&e1); // probe -> overlay 0
        let e2 = eval(80.0, &[2.0]);
        assert_eq!(s.step(&e2), 2.0); // stale epoch
        assert_eq!(s.step(&e2), 80.0); // probe epoch: switches to direct
        assert_eq!(s.choice(), Some(PathChoice::Direct));
    }

    #[test]
    fn filtered_choice_skips_disallowed_relays() {
        let e = eval(10.0, &[5.0, 30.0, 20.0]).probe();
        assert_eq!(best_choice_filtered(&e, |_| true), PathChoice::Overlay(1));
        assert_eq!(
            best_choice_filtered(&e, |n| n != 1),
            PathChoice::Overlay(2),
            "second-best relay wins when the best is full"
        );
        assert_eq!(
            best_choice_filtered(&e, |_| false),
            PathChoice::Direct,
            "direct is always a candidate"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_interval_panics() {
        let _ = ProbingSelector::new(0);
    }
}
