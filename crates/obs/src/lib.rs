//! Deterministic telemetry for the CRONets reproduction.
//!
//! Five pieces, all std-only:
//!
//! * a **metrics registry** ([`metrics`]) — counters, gauges and
//!   fixed-bucket histograms keyed by name, mutated through pre-resolved
//!   integer handles so the hot path is an array index;
//! * a **flow tracer** ([`trace`](mod@trace)) — a bounded ring buffer of per-flow
//!   records (segment sent/acked, retransmit, RTO backoff, cwnd change,
//!   subflow switch);
//! * **causal span records** ([`span`](mod@span)) — the parent/child event
//!   record type covering the flow lifecycle (arrival → admission →
//!   completion/kill → retry) plus fault and autoscaler events, the
//!   substrate for fault attribution; the run that emits spans keeps
//!   them;
//! * **phase timers and run manifests** ([`manifest`]) — scoped
//!   wall-clock timers plus a per-run manifest (seed, experiment, sim
//!   duration, metric snapshot) exported as TSV and JSON lines;
//! * the **emit helpers** ([`emit`]) — the one escaping-safe TSV/JSON
//!   writer behind every exporter.
//!
//! # Determinism contract
//!
//! Metric timestamps are **simulated** nanoseconds (the caller passes
//! `SimTime::as_nanos()`); nothing in the snapshot reads the wall clock,
//! so two runs with the same seed produce byte-identical snapshots.
//! Wall-clock phase timings exist only in the manifest's `phase` records
//! and on stderr — never in the metric snapshot.
//!
//! # Enablement and threading
//!
//! Collection is off by default and the disabled path is near-free: one
//! `Cell<bool>` read for the simulation-side registry and one relaxed
//! atomic load for the dataplane counters (verified by
//! `crates/bench/benches/micro.rs`). The registry and tracer are
//! **thread-local** — handles must not cross threads. The real-socket
//! dataplane (forwarder/relay) runs on its own threads, so its counters
//! are process-wide atomics in [`sync`] that [`metrics::snapshot`]
//! merges in.
//!
//! Parallel sweeps (`crates/exec`) keep determinism by running each work
//! unit under [`capture_unit`] — a fresh per-unit registry and trace
//! ring — and folding the resulting [`UnitShard`]s back into the
//! caller's registry with [`absorb_unit`] **in unit-index order**. The
//! same capture path runs at every thread count (including one), so the
//! snapshot is a pure function of the seed, never of the schedule.

pub mod emit;
pub mod manifest;
pub mod metrics;
pub mod span;
pub mod sync;
pub mod trace;

pub use emit::{json_escape, tsv_field, tsv_row, write_tsv, Tsv, TsvFile};
pub use manifest::{phase, take_phases, PhaseTimer, RunManifest};
pub use metrics::{
    add, add_named, counter, gauge, histogram, histogram_quantile, inc, labeled, observe, set,
    snapshot, CounterId, GaugeId, Histogram, HistogramId, SnapValue, Snapshot, CWND_EDGES,
    GOODPUT_EDGES, QUEUE_DEPTH_EDGES,
};
pub use span::{PackedSpans, SpanKind, SpanRecord};
pub use trace::{drain_trace, set_trace_filter, trace, trace_filter, TraceKind, TraceRecord};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Serializes unit tests that toggle the process-wide flag or read the
/// shared dataplane counters (cargo runs tests concurrently).
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Process-wide flag for the multi-threaded dataplane counters.
static SYNC_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns collection on for this thread (and the process-wide dataplane
/// counters), resets all prior state, and pre-registers the metric
/// catalogue so even experiments that never touch a layer still list
/// its metrics (at zero) in the snapshot.
pub fn enable() {
    ENABLED.with(|e| e.set(true));
    SYNC_ENABLED.store(true, Ordering::Relaxed);
    metrics::reset();
    sync::reset();
    trace::reset();
    manifest::reset_phases();
    metrics::register_catalogue();
}

/// Turns collection off. Existing state is kept until the next
/// [`enable`] so a final [`snapshot`] still works.
pub fn disable() {
    ENABLED.with(|e| e.set(false));
    SYNC_ENABLED.store(false, Ordering::Relaxed);
}

/// Whether collection is on for this thread.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Whether the process-wide dataplane counters are on.
#[inline]
#[must_use]
pub fn sync_enabled() -> bool {
    SYNC_ENABLED.load(Ordering::Relaxed)
}

/// Everything one parallel work unit recorded: its metric shard and the
/// unit's filtered trace records. Plain owned data — safe to send from a
/// worker thread back to the merging thread.
#[derive(Debug)]
pub struct UnitShard {
    metrics: metrics::Shard,
    trace: Vec<TraceRecord>,
    trace_dropped: u64,
}

/// Runs `f` against a fresh, empty per-unit registry and trace ring
/// and returns the unit's output together with everything it recorded.
/// Metric collection inside the unit follows the process-wide
/// [`sync_enabled`] flag, so a unit on a fresh worker thread collects
/// exactly when the caller does. The calling thread's own registry and
/// ring are saved and restored around the unit; the trace filter stays
/// in effect inside it. Fold the shard back with [`absorb_unit`],
/// strictly in unit-index order.
pub fn capture_unit<T>(f: impl FnOnce() -> T) -> (T, UnitShard) {
    let saved_metrics = metrics::begin_unit();
    let saved_trace = trace::begin_unit();
    let was_enabled = enabled();
    ENABLED.with(|e| e.set(sync_enabled()));
    let out = f();
    ENABLED.with(|e| e.set(was_enabled));
    let shard = metrics::end_unit(saved_metrics);
    let (records, trace_dropped) = trace::end_unit(saved_trace);
    (
        out,
        UnitShard {
            metrics: shard,
            trace: records,
            trace_dropped,
        },
    )
}

/// Folds one unit's recordings into this thread's registry and trace
/// ring: counters and histogram buckets add, gauges keep last-write-wins
/// in absorb order, trace records replay with ring-overwrite semantics.
/// Absorbing shards in unit-index order reproduces the serial run's
/// snapshot and trace exactly.
pub fn absorb_unit(shard: UnitShard) {
    metrics::merge_shard(shard.metrics);
    trace::replay(&shard.trace, shard.trace_dropped);
}

#[cfg(test)]
mod shard_tests {
    use super::*;

    /// What one "work unit" records: a counter, a gauge (last write must
    /// win), a histogram, and a couple of trace records on flow 1.
    fn unit_work(i: u64) {
        let c = counter("t.shard.count");
        add(c, i + 1);
        let g = gauge("t.shard.gauge");
        set(g, i as f64);
        let h = histogram("t.shard.hist", &[10.0, 20.0]);
        observe(h, 5.0 * i as f64);
        trace(100 * i, 1, TraceKind::SegmentSent, i, 1448);
        trace(100 * i + 1, 2, TraceKind::SegmentSent, i, 1448);
    }

    #[test]
    fn captured_units_reproduce_the_serial_run() {
        let _guard = test_guard();
        // Serial reference: units run inline against the main registry.
        enable();
        set_trace_filter(Some(1));
        for i in 0..4 {
            unit_work(i);
        }
        let serial_snap = snapshot().to_tsv();
        let serial_trace = drain_trace();
        // Captured: each unit records into its own shard; shards absorb
        // in unit order.
        enable();
        set_trace_filter(Some(1));
        let shards: Vec<UnitShard> = (0..4).map(|i| capture_unit(|| unit_work(i)).1).collect();
        for s in shards {
            absorb_unit(s);
        }
        let merged_snap = snapshot().to_tsv();
        let merged_trace = drain_trace();
        disable();
        assert_eq!(serial_snap, merged_snap, "shard merge diverged from serial");
        assert_eq!(serial_trace, merged_trace, "trace replay diverged");
        assert!(serial_snap.contains("t.shard.count\tcounter\t10"));
        assert!(serial_snap.contains("t.shard.gauge\tgauge\t3"));
    }

    #[test]
    fn capture_leaves_the_callers_registry_untouched() {
        let _guard = test_guard();
        enable();
        let c = counter("t.keep");
        add(c, 7);
        let ((), shard) = capture_unit(|| {
            let inner = counter("t.inner");
            add(inner, 1);
        });
        // Outer registry: untouched by the unit until absorbed.
        assert_eq!(snapshot().get("t.inner"), None);
        assert_eq!(snapshot().get("t.keep"), Some(&SnapValue::Counter(7)));
        absorb_unit(shard);
        assert_eq!(snapshot().get("t.inner"), Some(&SnapValue::Counter(1)));
        assert_eq!(snapshot().get("t.keep"), Some(&SnapValue::Counter(7)));
        disable();
    }
}
