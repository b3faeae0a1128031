//! The harness paths of every workload at smoke size, the metric
//! catalogue against BENCHMARK.json, and the untraced execution shape.

use std::path::PathBuf;
use std::sync::Mutex;

use perfbench::metrics::{end_to_end, per_layer, valid_name};
use perfbench::spans::Spans;
use perfbench::{run_rep, run_workload, Day, Scale, Workload, LANES, THREADS};

/// `obs` collection has a process-wide switch: harness runs must not
/// overlap, or a traced run would collect inside an untraced one.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_workload_runs_and_passes_its_checks_at_smoke_size() {
    let _g = serial();
    let out = out_dir("smoke_untraced");
    for w in Workload::ALL {
        let day = Day::new(w, Scale::Smoke, &out);
        let s = run_workload(&day, 7, 0.001, false).unwrap();
        let name = w.name();
        assert_eq!(s.reps.len(), 1, "{name}: one repetition fits 1 ms");
        assert!(s.checks.failed.is_empty(), "{name}: {:?}", s.checks.failed);
        // conservation, spend, rows, replay arrivals, determinism,
        // plus the invariant verdict on the chaos day
        let want = if w == Workload::ChaosDay { 6 } else { 5 };
        assert_eq!(s.checks.run, want, "{name}");
        let r = &s.reps[0];
        assert!(r.run_s > 0.0 && r.setup_s > 0.0, "{name}");
        assert!(
            r.report_s.is_some_and(|t| t > 0.0),
            "{name}: the first rep reports"
        );
        assert!(
            r.fingerprint.arrivals > 0 && r.fingerprint.pairs > 0,
            "{name}"
        );
        assert!(!r.digests.is_empty(), "{name}");
        assert!(s.layers.is_none() && s.spans_file.is_none(), "{name}");
        if w == Workload::ChaosDay {
            assert!(r.spans_kept > 0, "the chaos day records spans");
        }
        assert!(!day.report_dir().exists(), "{name}: report dir left behind");
    }
}

#[test]
fn the_traced_run_reports_every_per_layer_metric_and_writes_spans() {
    let _g = serial();
    let out = out_dir("smoke_traced");
    for w in Workload::ALL {
        let day = Day::new(w, Scale::Smoke, &out);
        let s = run_workload(&day, 11, 0.001, true).unwrap();
        let name = w.name();
        assert!(s.checks.failed.is_empty(), "{name}: {:?}", s.checks.failed);
        let layers = s.layers.expect("traced");
        let mut got: Vec<&str> = layers.values.keys().map(String::as_str).collect();
        let mut want: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        got.sort_unstable();
        want.sort();
        assert_eq!(got, want, "{name}");
        assert!(layers.values.values().all(|v| v.is_finite()), "{name}");
        assert!(layers.values["control.workload.arrivals"] > 0.0, "{name}");
        assert!(layers.values["control.workload.gen_s"] > 0.0, "{name}");
        assert!(layers.values["trace.day_s"] > 0.0, "{name}");
        let spans = std::fs::read_to_string(s.spans_file.expect("traced")).unwrap();
        for span in [
            "setup",
            "scenario.build",
            "day",
            "render.tsv",
            "run_report.assemble",
        ] {
            assert!(
                spans.contains(&format!("\t{span}\t")),
                "{name}: no {span} span"
            );
        }
        let busy = |m: &str| layers.values[m] > 0.0;
        match w {
            Workload::ChaosDay => {
                assert!(busy("faults.injected") && busy("obs.spans_kept"));
                assert!(busy("render.spans_s") && busy("attribution.attribute_s"));
            }
            Workload::MultihopDay => {
                assert!(busy("paths.enumerate_s") && busy("control.broker.probe_spent"));
            }
            Workload::PlanetDay => assert!(busy("control.remote.handoffs")),
            Workload::ServiceDay => {
                assert!(busy("routing.route_cache.hits") && !busy("faults.injected"));
            }
        }
    }
}

#[test]
fn the_untraced_run_keeps_obs_off_on_one_thread_and_one_lane() {
    let _g = serial();
    assert_eq!((THREADS, LANES), (1, 1));
    let out = out_dir("smoke_shape");
    let day = Day::new(Workload::PlanetDay, Scale::Smoke, &out);
    perfbench::configure();
    let mut tr = Spans::new(false);
    let (rep, layers) = run_rep(&day, 7, false, &mut tr).unwrap();
    assert!(rep.report_s.is_none() && !day.report_dir().exists());
    assert!(layers.is_none());
    assert!(tr.records().is_empty(), "untraced runs record no spans");
    assert!(rep.checks.failed.is_empty(), "{:?}", rep.checks.failed);
    let s = run_workload(&day, 7, 0.001, false).unwrap();
    assert!(s.checks.failed.is_empty());
    assert_eq!(exec::threads(), 1, "the harness pins one exec worker");
    assert!(
        !obs::enabled() && !obs::sync_enabled(),
        "obs collection stayed off"
    );
    // Handles register names even while collection is off; no value
    // may have been recorded under any of them.
    for (name, v) in obs::snapshot().entries {
        let zero = matches!(v, obs::SnapValue::Counter(0))
            || matches!(v, obs::SnapValue::Gauge(g) if g == 0.0);
        assert!(zero, "collected {name}: {v:?}");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_harness_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let e2e = end_to_end();
    let layers = per_layer();
    for m in e2e.iter().chain(&layers) {
        assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(names, Workload::ALL.len() + e2e.len() + layers.len());
}
