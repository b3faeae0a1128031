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
//! [`shard_rounds`] drives stateful shards through barrier-synchronized
//! rounds; each round's shard-steps are units of the same fan-out.
//!
//! The pool size comes from [`threads`]: the `--threads N` CLI flag (via
//! [`set_threads`]) or `std::thread::available_parallelism` by default.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
    fan_out(n_units, workers, false, f)
}

/// The one fan-out behind [`parallel_map`] and [`shard_rounds`]: runs
/// `f(0..n_units)` inline on the caller when `workers` is 1, else on
/// `workers` scoped threads pulling indices from an atomic counter, and
/// returns the results in unit-index order. With `obs` collection on,
/// every unit runs under [`obs::capture_unit`] and the shards absorb in
/// unit order on the calling thread. Worker threads inherit the caller's
/// trace filter and profiling switch; their profile shards merge after
/// join. `lanes` marks the workers as shard lanes, inside which nested
/// [`parallel_map`] calls run inline.
fn fan_out<T, F>(n_units: usize, workers: usize, lanes: bool, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let sharded = obs::enabled();
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

    let profiling = simcore::profile::enabled();
    let next = AtomicUsize::new(0);
    let trace_filter = obs::trace_filter();
    let mut tagged: Vec<(usize, T, Option<obs::UnitShard>)> = Vec::with_capacity(n_units);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    INLINE.with(|c| c.set(lanes));
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
/// A round's shard-steps are the units of [`parallel_map`]'s fan-out,
/// on `lanes` worker threads (clamped to `[1, n]`), with the same
/// telemetry contract: with collection on, each shard-step runs under
/// [`obs::capture_unit`] and the shards absorb in shard-index order. At
/// one lane the steps run inline on the caller, and nested
/// [`parallel_map`] calls use the full pool; on several lanes nested
/// calls run inline. The result, metrics and traces are byte-identical
/// for any `(lanes, threads)` combination.
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
    let lanes = lanes.min(n).max(1);
    let mut inboxes: Vec<Vec<M>> = (0..n).map(|_| Vec::new()).collect();
    for round in 0..rounds {
        // Each step locks only its own shard, once: the locks hand out
        // `&mut` access across the fan-out and never contend.
        let cells: Vec<Mutex<(&mut S, Vec<M>)>> = states
            .iter_mut()
            .zip(&mut inboxes)
            .map(|(state, inbox)| Mutex::new((state, std::mem::take(inbox))))
            .collect();
        let outboxes = fan_out(n, lanes, lanes > 1, |i| {
            let mut cell = cells[i].lock().expect("locked once, never poisoned");
            let (state, inbox) = &mut *cell;
            step(i, state, round, std::mem::take(inbox))
        });
        drop(cells);
        // Route in shard-index order: inbox order is (sender, emission).
        for (dst, msg) in outboxes.into_iter().flatten() {
            assert!(dst < n, "shard message addressed to unknown shard {dst}");
            inboxes[dst].push(msg);
        }
        barrier(round, &mut states);
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;

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

    /// The plain serial engine [`shard_rounds`] must equal: every shard
    /// steps in index order, the messages route in sender order, then
    /// the barrier runs.
    fn serial_rounds<S, M>(
        mut states: Vec<S>,
        rounds: usize,
        step: impl Fn(usize, &mut S, usize, Vec<M>) -> Vec<(usize, M)>,
        mut barrier: impl FnMut(usize, &mut [S]),
    ) -> Vec<S> {
        let mut inboxes: Vec<Vec<M>> = states.iter().map(|_| Vec::new()).collect();
        for round in 0..rounds {
            let mut sent = Vec::new();
            for (i, state) in states.iter_mut().enumerate() {
                sent.extend(step(i, state, round, std::mem::take(&mut inboxes[i])));
            }
            for (dst, msg) in sent {
                inboxes[dst].push(msg);
            }
            barrier(round, &mut states);
        }
        states
    }

    /// One seeded message pattern over `n` shards. A step folds its
    /// inbox into its state in order, records a counter, a gauge, a
    /// trace record and a nested [`parallel_map`], then sends up to
    /// three messages to shards drawn from `(seed, shard, round,
    /// state)`, itself included.
    fn pattern(
        seed: u64,
        n: usize,
    ) -> impl Fn(usize, &mut u64, usize, Vec<u64>) -> Vec<(usize, u64)> + Sync {
        move |i, s, round, inbox| {
            for m in inbox {
                *s = s.wrapping_mul(31).wrapping_add(m);
            }
            obs::add_named("exec.ref.steps", 1);
            obs::set(obs::gauge("exec.ref.last"), (i * 100 + round) as f64);
            obs::trace(*s, 3, obs::TraceKind::SegmentSent, i as u64, round as u64);
            let cur = *s;
            *s ^= parallel_map(3, |k| {
                obs::add_named("exec.ref.nested", k as u64);
                cur.rotate_left(k as u32 + 1)
            })
            .iter()
            .fold(0, |a, &x| a ^ x);
            let mut rng = SimRng::seed_from(seed)
                .fork((i * 8 + round) as u64)
                .fork(*s);
            let sends = rng.index(4);
            (0..sends)
                .map(|_| (rng.index(n), rng.next_u64() >> 8))
                .collect()
        }
    }

    /// What one pattern run leaves: final states, barrier log, and with
    /// `obs` on the snapshot and trace.
    type Observed = (
        Vec<u64>,
        Vec<(usize, u64)>,
        (String, (Vec<obs::TraceRecord>, u64)),
    );

    /// Runs one pattern on [`shard_rounds`] at `lanes`, or with `None`
    /// on the serial reference.
    fn observe(
        seed: u64,
        n: usize,
        rounds: usize,
        lanes: Option<usize>,
        metrics: bool,
    ) -> Observed {
        if metrics {
            obs::enable();
            obs::set_trace_filter(Some(3));
        }
        let mut log = Vec::new();
        let barrier = |round: usize, states: &mut [u64]| {
            log.push((round, states.iter().fold(0, |a, &s| a ^ s)));
            for s in states {
                *s = s.wrapping_add(round as u64 + 1);
            }
        };
        let states = match lanes {
            Some(lanes) => shard_rounds(vec![0; n], lanes, rounds, pattern(seed, n), barrier),
            None => serial_rounds(vec![0; n], rounds, pattern(seed, n), barrier),
        };
        let telemetry = if metrics {
            let out = (obs::snapshot().to_tsv(), obs::drain_trace());
            obs::disable();
            out
        } else {
            Default::default()
        };
        (states, log, telemetry)
    }

    #[test]
    fn shard_rounds_matches_a_serial_loop_on_random_patterns() {
        let _g = guard();
        let mut rng = SimRng::seed_from(0x5EED);
        for _ in 0..20 {
            let n = 1 + rng.index(20);
            let rounds = rng.index(7);
            let seed = rng.next_u64();
            for metrics in [false, true] {
                set_threads(1);
                let want = observe(seed, n, rounds, None, metrics);
                for lanes in [1, 2, 3, n, n + 5] {
                    for threads in [1, 4] {
                        set_threads(threads);
                        let got = observe(seed, n, rounds, Some(lanes), metrics);
                        assert_eq!(
                            got, want,
                            "n={n} rounds={rounds} lanes={lanes} threads={threads} metrics={metrics}"
                        );
                    }
                }
                if metrics && rounds > 0 {
                    let steps = format!("exec.ref.steps\tcounter\t{}", n * rounds);
                    assert!(want.2 .0.contains(&steps), "{}", want.2 .0);
                }
            }
        }
        set_threads(0);
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
