//! Deterministic parallel execution over indexed work units.
//!
//! The sweep experiments are embarrassingly parallel: a list of
//! independent work units (sender × receiver blocks, DES pair runs,
//! placement candidates) whose outputs are merged in a fixed order.
//! [`parallel_map`] runs those units on a scoped worker pool and returns
//! results **in unit-index order**, so the caller's output is
//! byte-identical to a serial run at any thread count.
//!
//! Determinism rules, in order of importance:
//!
//! * **No shared mutable state inside units.** A unit gets its index and
//!   must derive everything else (RNG streams included) from it — the
//!   experiments seed each unit's RNG from `(seed, unit_index)` via
//!   `SimRng::fork`-style counter leap-frogging, never from a shared RNG.
//! * **Ordered merge.** Workers pull indices from an atomic counter (so
//!   scheduling is load-balanced and nondeterministic) but results are
//!   sorted by unit index before anything observable happens.
//! * **Telemetry sharding.** When `obs` collection is on, every unit
//!   runs under [`obs::capture_unit`] — its own registry and trace
//!   ring — and the shards are absorbed in unit order on the calling
//!   thread. The capture path is used at *every* thread count, one
//!   included, so the snapshot is a pure function of the seed, not of
//!   the schedule. Sim-time profile charges are additive, so worker
//!   profiles merge commutatively after join.
//!
//! The pool size comes from [`threads`]: the `--threads N` CLI flag (via
//! [`set_threads`]) or `std::thread::available_parallelism` by default.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Configured worker count; 0 means "use available parallelism".
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside [`shard_rounds`] lane threads: a lane is already one
    /// of several parallel executors, so nested [`parallel_map`] calls
    /// must run inline rather than oversubscribe the machine with a
    /// second level of worker pools. Inline execution is byte-identical
    /// by the thread-invariance contract, so this is purely a
    /// scheduling decision.
    static INLINE: Cell<bool> = const { Cell::new(false) };
}

/// Sets the worker-pool size for subsequent [`parallel_map`] calls.
/// `0` restores the default (available parallelism).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The worker-pool size [`parallel_map`] will use: the value from
/// [`set_threads`], or the machine's available parallelism (at least 1).
#[must_use]
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Runs `f(0..n_units)` across the worker pool and returns the results
/// in unit-index order. With one worker (or one unit) everything runs
/// inline on the calling thread.
///
/// `f` must be a pure function of its index (plus shared read-only
/// state); see the module docs for the determinism contract. Telemetry
/// recorded by units is captured per unit and folded back in index
/// order, including flow-trace records.
///
/// # Panics
///
/// Propagates the first panic raised by any unit.
pub fn parallel_map<T, F>(n_units: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = if INLINE.with(Cell::get) {
        1
    } else {
        threads().min(n_units).max(1)
    };
    let sharded = obs::enabled();
    let profiling = simcore::profile::enabled();
    if workers == 1 {
        if sharded {
            // Same capture/merge path as the parallel case, so the
            // snapshot does not depend on the thread count.
            let mut out = Vec::with_capacity(n_units);
            let mut shards = Vec::with_capacity(n_units);
            for i in 0..n_units {
                let (v, shard) = obs::capture_unit(|| f(i));
                out.push(v);
                shards.push(shard);
            }
            for shard in shards {
                obs::absorb_unit(shard);
            }
            return out;
        }
        return (0..n_units).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let trace_filter = obs::trace_filter();
    let mut tagged: Vec<(usize, T, Option<obs::UnitShard>)> = Vec::with_capacity(n_units);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    if sharded {
                        // Workers are fresh threads: propagate the trace
                        // filter so units see the caller's selection.
                        obs::set_trace_filter(trace_filter);
                    }
                    // Profile charges are additive sim-ns, merged after
                    // join — commutative, so no ordered capture needed.
                    simcore::profile::set_enabled(profiling);
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_units {
                            break;
                        }
                        if sharded {
                            let (v, shard) = obs::capture_unit(|| f(i));
                            local.push((i, v, Some(shard)));
                        } else {
                            local.push((i, f(i), None));
                        }
                    }
                    let prof = profiling.then(simcore::profile::take_shard);
                    (local, prof)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((part, prof)) => {
                    tagged.extend(part);
                    if let Some(prof) = prof {
                        simcore::profile::merge_shard(&prof);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    tagged.sort_unstable_by_key(|&(i, ..)| i);
    let mut out = Vec::with_capacity(n_units);
    for (_, v, shard) in tagged {
        if let Some(shard) = shard {
            obs::absorb_unit(shard);
        }
        out.push(v);
    }
    out
}

/// Runs `n` stateful shards through `rounds` barrier-synchronized
/// rounds with deterministic, ordered cross-shard mailboxes.
///
/// Each round, shard `i`'s `step(i, &mut state, round, inbox)` runs once
/// and returns outbound messages as `(destination_shard, message)`
/// pairs. At the barrier the messages are routed **in shard-index
/// order** (so every inbox is ordered by sender index, then by emission
/// order within the sender), and `barrier(round, &mut states)` runs on
/// the calling thread — the global-reconciliation hook. Messages
/// emitted in round `r` are delivered at the start of round `r + 1`;
/// messages still in flight after the last round are dropped, so
/// callers must size `rounds` to drain their protocol.
///
/// Shards are multiplexed onto `lanes` worker threads (clamped to
/// `[1, n]`) by static assignment: lane `l` owns shards `l, l+lanes,
/// l+2·lanes, …` and steps them in increasing index order. Telemetry
/// follows the [`parallel_map`] contract — with collection on, each
/// shard-step runs under [`obs::capture_unit`] and the shards are
/// absorbed in shard-index order at the barrier — and nested
/// [`parallel_map`] calls inside a lane run inline, so the result,
/// metrics and traces are byte-identical for any `(lanes, threads)`
/// combination.
///
/// # Panics
///
/// Propagates the first panic raised by any shard-step, and panics if a
/// message names a destination shard `>= n`.
pub fn shard_rounds<S, M, F, B>(
    mut states: Vec<S>,
    lanes: usize,
    rounds: usize,
    step: F,
    mut barrier: B,
) -> Vec<S>
where
    S: Send,
    M: Send,
    F: Fn(usize, &mut S, usize, Vec<M>) -> Vec<(usize, M)> + Sync,
    B: FnMut(usize, &mut [S]),
{
    let n = states.len();
    if n == 0 {
        return states;
    }
    let lanes = lanes.clamp(1, n);
    let mut inboxes: Vec<Vec<M>> = (0..n).map(|_| Vec::new()).collect();
    for round in 0..rounds {
        let sharded = obs::enabled();
        let mut outboxes: Vec<Vec<(usize, M)>> = Vec::with_capacity(n);
        if lanes == 1 {
            // Inline on the caller; nested parallel_map still uses the
            // full pool. Capture per shard when telemetry is on so the
            // stream is identical to the multi-lane path.
            let mut shards = Vec::with_capacity(n);
            for (i, (state, inbox)) in states.iter_mut().zip(&mut inboxes).enumerate() {
                let inbox = std::mem::take(inbox);
                if sharded {
                    let (out, shard) = obs::capture_unit(|| step(i, state, round, inbox));
                    outboxes.push(out);
                    shards.push(shard);
                } else {
                    outboxes.push(step(i, state, round, inbox));
                }
            }
            for shard in shards {
                obs::absorb_unit(shard);
            }
        } else {
            // Static assignment: lane l owns shards l, l+lanes, … — the
            // partition is a pure function of (n, lanes), never of the
            // schedule.
            let mut lane_work: Vec<Vec<(usize, S, Vec<M>)>> =
                (0..lanes).map(|_| Vec::new()).collect();
            for (i, (state, inbox)) in states.drain(..).zip(inboxes.drain(..)).enumerate() {
                lane_work[i % lanes].push((i, state, inbox));
            }
            let trace_filter = obs::trace_filter();
            let profiling = simcore::profile::enabled();
            type Stepped<S, M> = (usize, S, Vec<(usize, M)>, Option<obs::UnitShard>);
            let mut tagged: Vec<Stepped<S, M>> = Vec::with_capacity(n);
            thread::scope(|scope| {
                let handles: Vec<_> = lane_work
                    .drain(..)
                    .map(|work| {
                        let step = &step;
                        scope.spawn(move || {
                            INLINE.with(|c| c.set(true));
                            if sharded {
                                obs::set_trace_filter(trace_filter);
                            }
                            simcore::profile::set_enabled(profiling);
                            let mut local = Vec::with_capacity(work.len());
                            for (i, mut state, inbox) in work {
                                if sharded {
                                    let (out, shard) =
                                        obs::capture_unit(|| step(i, &mut state, round, inbox));
                                    local.push((i, state, out, Some(shard)));
                                } else {
                                    let out = step(i, &mut state, round, inbox);
                                    local.push((i, state, out, None));
                                }
                            }
                            let prof = profiling.then(simcore::profile::take_shard);
                            (local, prof)
                        })
                    })
                    .collect();
                for handle in handles {
                    match handle.join() {
                        Ok((part, prof)) => {
                            tagged.extend(part);
                            if let Some(prof) = prof {
                                simcore::profile::merge_shard(&prof);
                            }
                        }
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
            });
            tagged.sort_unstable_by_key(|&(i, ..)| i);
            inboxes = (0..n).map(|_| Vec::new()).collect();
            for (_, state, out, shard) in tagged {
                if let Some(shard) = shard {
                    obs::absorb_unit(shard);
                }
                states.push(state);
                outboxes.push(out);
            }
        }
        // Route in shard-index order: inbox order is (sender, emission).
        for out in &mut outboxes {
            for (dst, msg) in out.drain(..) {
                assert!(dst < n, "shard message addressed to unknown shard {dst}");
                inboxes[dst].push(msg);
            }
        }
        barrier(round, &mut states);
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the global thread count or obs state.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn results_come_back_in_unit_order() {
        let _g = guard();
        for n in [1, 2, 8] {
            set_threads(n);
            let out = parallel_map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        set_threads(0);
    }

    #[test]
    fn zero_units_is_fine() {
        let _g = guard();
        set_threads(4);
        let out: Vec<u32> = parallel_map(0, |_| unreachable!());
        assert!(out.is_empty());
        set_threads(0);
    }

    #[test]
    fn thread_count_does_not_change_metrics() {
        let _g = guard();
        let run = |threads: usize| {
            set_threads(threads);
            obs::enable();
            obs::set_trace_filter(Some(3));
            let out = parallel_map(16, |i| {
                obs::add_named("exec.test.units", 1);
                obs::add_named("exec.test.weight", i as u64);
                obs::trace(i as u64, 3, obs::TraceKind::SegmentSent, i as u64, 0);
                i
            });
            let snap = obs::snapshot().to_tsv();
            let trace = obs::drain_trace();
            obs::disable();
            (out, snap, trace)
        };
        let serial = run(1);
        let par = run(8);
        set_threads(0);
        assert_eq!(serial.0, par.0);
        assert_eq!(serial.1, par.1, "metrics depend on the thread count");
        assert_eq!(serial.2, par.2, "traces depend on the thread count");
        assert!(serial.1.contains("exec.test.units\tcounter\t16"));
        assert_eq!(serial.2 .0.len(), 16);
    }

    #[test]
    fn thread_count_does_not_change_profile() {
        let _g = guard();
        let run = |threads: usize| {
            set_threads(threads);
            obs::disable();
            simcore::profile::reset();
            simcore::profile::set_enabled(true);
            let out = parallel_map(16, |i| {
                simcore::profile::leaf(&["exec", "unit"], 10 + i as u64);
                i
            });
            let prof = simcore::profile::folded();
            simcore::profile::set_enabled(false);
            simcore::profile::reset();
            (out, prof)
        };
        let serial = run(1);
        let par = run(8);
        set_threads(0);
        assert_eq!(serial.0, par.0);
        assert_eq!(serial.1, par.1, "profile depends on the thread count");
        assert_eq!(
            serial.1,
            format!("exec;unit {}", 16 * 10 + (0..16).sum::<usize>())
        );
    }

    #[test]
    fn works_with_collection_disabled() {
        let _g = guard();
        obs::disable();
        set_threads(4);
        let out = parallel_map(10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        set_threads(0);
    }

    /// A ring workload: each shard forwards an accumulating token to
    /// the next shard every round and folds received tokens into its
    /// state. The final states depend on message ordering, so any
    /// routing nondeterminism would show up immediately.
    fn ring(n: usize, lanes: usize, rounds: usize) -> (Vec<u64>, Vec<u64>) {
        let mut barrier_log = Vec::new();
        let states = shard_rounds(
            vec![0u64; n],
            lanes,
            rounds,
            |i, s, round, inbox| {
                for m in inbox {
                    *s = s.wrapping_mul(31).wrapping_add(m);
                }
                vec![((i + 1) % n, (i as u64) << 8 | round as u64)]
            },
            |round, states| barrier_log.push(round as u64 + states.iter().sum::<u64>()),
        );
        (states, barrier_log)
    }

    #[test]
    fn shard_rounds_is_lane_invariant() {
        let _g = guard();
        set_threads(8);
        let baseline = ring(16, 1, 6);
        for lanes in [2, 3, 8, 16, 64] {
            assert_eq!(ring(16, lanes, 6), baseline, "lanes={lanes}");
        }
        set_threads(0);
    }

    #[test]
    fn shard_rounds_metrics_are_lane_invariant() {
        let _g = guard();
        let run = |lanes: usize, threads: usize| {
            set_threads(threads);
            obs::enable();
            let states = shard_rounds(
                vec![0u64; 12],
                lanes,
                4,
                |i, s, _round, inbox| {
                    obs::add_named("exec.shard.steps", 1);
                    // Nested parallel_map inside a lane must stay
                    // deterministic (and runs inline on lane threads).
                    let sum: u64 = parallel_map(4, |k| (i + k) as u64).iter().sum();
                    *s += sum + inbox.len() as u64;
                    vec![((i + 5) % 12, i as u64)]
                },
                |_, _| {},
            );
            let snap = obs::snapshot().to_tsv();
            obs::disable();
            (states, snap)
        };
        let baseline = run(1, 1);
        for (lanes, threads) in [(1, 8), (4, 1), (4, 8), (12, 8)] {
            assert_eq!(
                run(lanes, threads),
                baseline,
                "lanes={lanes} threads={threads}"
            );
        }
        set_threads(0);
        assert!(baseline.1.contains("exec.shard.steps\tcounter\t48"));
    }

    #[test]
    fn shard_rounds_inbox_is_ordered_by_sender() {
        let _g = guard();
        set_threads(4);
        // Every shard sends its index to shard 0 each round; shard 0
        // must observe senders in index order every time.
        let states = shard_rounds(
            vec![Vec::new(); 8],
            4,
            3,
            |i, s: &mut Vec<u64>, _round, inbox| {
                s.extend(inbox);
                vec![(0usize, i as u64)]
            },
            |_, _| {},
        );
        assert_eq!(states[0], {
            let round: Vec<u64> = (0..8).collect();
            let mut all = round.clone();
            all.extend(&round);
            all
        });
        set_threads(0);
    }

    #[test]
    fn shard_rounds_barrier_sees_every_round() {
        let _g = guard();
        set_threads(2);
        let (_, log) = ring(4, 2, 5);
        assert_eq!(log.len(), 5);
        set_threads(0);
    }

    #[test]
    fn unit_panics_propagate() {
        let _g = guard();
        set_threads(2);
        let res = std::panic::catch_unwind(|| {
            parallel_map(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(res.is_err());
        set_threads(0);
    }
}
