//! Metric definitions (the names `BENCHMARK.json` lists) and the
//! per-layer values of a traced repetition.

use std::collections::BTreeMap;

use crate::spans::Spans;

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, measured with tracing off on every workload.
///
/// `report_s` is printed beside them but is not one of them: every
/// end-to-end metric must exist on every workload, and outside
/// chaos_day the report stage is a sub-millisecond call.
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("run_s", "s", "lower"),
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
    ]
}

/// Harness spans whose summed duration is a per-layer time
/// (`<span>_s`).
pub const LAYER_SPANS: [&str; 9] = [
    "control.workload.gen",
    "scenario.build",
    "routing.prefetch",
    "paths.enumerate",
    "faults.generate",
    "attribution.attribute",
    "render.tsv",
    "render.spans",
    "run_report.assemble",
];

/// `obs` counters and gauges reported as published, in the order they
/// are listed: `(name, unit, better)`.
const OBS_VALUES: [(&str, &str, &str); 20] = [
    ("control.workload.arrivals", "count", "lower"),
    ("routing.route_cache.hits", "count", "higher"),
    ("routing.route_cache.misses", "count", "lower"),
    ("control.broker.admitted", "count", "higher"),
    ("control.broker.direct", "count", "higher"),
    ("control.broker.overlay", "count", "higher"),
    ("control.broker.stale_fallback", "count", "lower"),
    ("control.broker.denied", "count", "lower"),
    ("control.broker.chain", "count", "higher"),
    ("control.broker.probe_spent", "count", "lower"),
    ("control.broker.probe_refreshes", "count", "lower"),
    ("control.fleet.scale_ups", "count", "lower"),
    ("control.fleet.drains", "count", "lower"),
    ("control.fleet.crashes", "count", "lower"),
    ("control.fleet.restores", "count", "higher"),
    ("control.fleet.spend_usd", "USD", "lower"),
    ("faults.injected", "count", "lower"),
    ("faults.flows_killed", "count", "lower"),
    ("faults.retries", "count", "lower"),
    ("obs.spans_dropped", "count", "lower"),
];

/// The per-layer metrics of a traced run.
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    let mut out: Vec<MetricDef> = LAYER_SPANS
        .iter()
        .map(|s| def(format!("{s}_s"), "s", "lower"))
        .collect();
    out.extend(OBS_VALUES.iter().map(|&(n, u, b)| def(n, u, b)));
    out.extend(
        faults::CHECK_SITES
            .iter()
            .map(|s| def(format!("faults.check.{s}"), "count", "lower")),
    );
    out.extend([
        def("routing.route_cache.hit_rate", "ratio", "higher"),
        def("control.broker.overlay_share", "ratio", "higher"),
        def("control.broker.stale_share", "ratio", "lower"),
        def("control.remote.handoffs", "count", "higher"),
        def("control.remote.retries", "count", "lower"),
        def("control.remote.accept_share", "ratio", "higher"),
        def("obs.spans_kept", "count", "higher"),
        def("obs.span_drop_share", "ratio", "lower"),
        def("attribution.kills_attributed", "count", "higher"),
        def("attribution.breaches_attributed", "count", "higher"),
        def("trace.day_s", "s", "lower"),
        def("trace_overhead_s", "s", "lower"),
    ]);
    out
}

/// Whether `name` is a valid metric name: 1 to 64 letters, digits,
/// `_`, `.` and `-`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `a / b`, or 0 when nothing was attempted.
fn share(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What a traced repetition hands the per-layer computation besides
/// the `obs` snapshot and its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct DayFacts {
    /// Spans the day kept (chaos only).
    pub spans_kept: u64,
    /// Kills attributed to a fault (chaos only).
    pub kills_attributed: u64,
    /// SLO breaches attributed to a fault (chaos only).
    pub breaches_attributed: u64,
    /// Wall time of the traced day call, s.
    pub day_s: f64,
}

/// Per-layer values of one traced repetition, by metric name.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Every [`per_layer`] metric but `trace_overhead_s`, which needs the
    /// untraced median and is added by the caller.
    pub values: BTreeMap<String, f64>,
}

impl Layers {
    /// Folds the `obs` snapshot, the harness spans and the day's facts
    /// into the per-layer table.
    #[must_use]
    pub fn collect(snapshot: &obs::Snapshot, tr: &Spans, facts: DayFacts) -> Layers {
        let mut snap: BTreeMap<&str, f64> = BTreeMap::new();
        let mut handoffs = 0.0;
        let mut retries = 0.0;
        for (name, v) in &snapshot.entries {
            let x = match v {
                obs::SnapValue::Counter(c) => *c as f64,
                obs::SnapValue::Gauge(g) => *g,
                obs::SnapValue::Histogram { .. } => continue,
            };
            // Sharded days publish cross-region traffic per shard only:
            // `control.shard<k>.remote.{handoffs,retries}`.
            if name.starts_with("control.shard") {
                if name.ends_with(".remote.handoffs") {
                    handoffs += x;
                } else if name.ends_with(".remote.retries") {
                    retries += x;
                }
            }
            snap.insert(name.as_str(), x);
        }
        let get = |n: &str| snap.get(n).copied().unwrap_or(0.0);

        let mut values = BTreeMap::new();
        for s in LAYER_SPANS {
            values.insert(format!("{s}_s"), tr.total_s(s));
        }
        for (n, _, _) in OBS_VALUES {
            values.insert(n.to_string(), get(n));
        }
        for s in faults::CHECK_SITES {
            let n = format!("faults.check.{s}");
            let v = get(&n);
            values.insert(n, v);
        }
        let hits = get("routing.route_cache.hits");
        let misses = get("routing.route_cache.misses");
        let admitted = get("control.broker.admitted");
        let dropped = get("obs.spans_dropped");
        let kept = facts.spans_kept as f64;
        for (n, v) in [
            ("routing.route_cache.hit_rate", share(hits, hits + misses)),
            (
                "control.broker.overlay_share",
                share(get("control.broker.overlay"), admitted),
            ),
            (
                "control.broker.stale_share",
                share(get("control.broker.stale_fallback"), admitted),
            ),
            ("control.remote.handoffs", handoffs),
            ("control.remote.retries", retries),
            (
                "control.remote.accept_share",
                share(handoffs - retries, handoffs),
            ),
            // The day reports kept spans; `obs` counts only dropped ones.
            ("obs.spans_kept", kept),
            ("obs.span_drop_share", share(dropped, kept + dropped)),
            (
                "attribution.kills_attributed",
                facts.kills_attributed as f64,
            ),
            (
                "attribution.breaches_attributed",
                facts.breaches_attributed as f64,
            ),
            ("trace.day_s", facts.day_s),
        ] {
            values.insert(n.to_string(), v);
        }
        Layers { values }
    }
}

/// Median of `xs` (the mean of the middle two for an even count); 0
/// for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|m| m.name).collect();
        all.extend(per_layer().into_iter().map(|m| m.name));
        for n in &all {
            assert!(valid_name(n), "invalid metric name {n:?}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
