//! `cronets report` — the unified post-run report pipeline.
//!
//! Aggregates whatever artifacts previous runs left in a results
//! directory — run manifests (`manifest_*.tsv`), the fault-attribution
//! table (`attribution.tsv`), span streams (`spans_*.tsv`), and sim-time
//! profiles (`profile_*.folded`) — into one human-readable report plus
//! an OpenMetrics-style text export for scraping. Every input is
//! optional: the report describes what it found and says what it didn't.
//!
//! Determinism: the directory scan is sorted by filename and every
//! aggregate is a pure fold over file contents, so the report is
//! byte-identical for byte-identical inputs (which the runs themselves
//! guarantee at any `--threads N`).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, BufRead as _};
use std::path::Path;

use obs::{SpanKind, SpanRecord};

/// How many slowest flows the report surfaces.
pub const TOP_FLOWS: usize = 5;

/// How many profile stacks the report surfaces per profile file.
pub const TOP_STACKS: usize = 10;

/// One metric parsed back from a manifest's `metric` rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic event count.
    Counter(u64),
    /// Last-write value.
    Gauge(f64),
    /// Distribution summary as snapshotted.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: f64,
        /// Median.
        p50: f64,
        /// 99th percentile.
        p99: f64,
    },
}

/// One run manifest parsed back from `manifest_<experiment>.tsv`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// Experiment name from the `run` row.
    pub experiment: String,
    /// Seed from the `run` row.
    pub seed: u64,
    /// Final simulated time from the `run` row.
    pub sim_duration_ns: u64,
    /// Wall-clock phases (name, nanoseconds), in recorded order.
    pub phases: Vec<(String, u64)>,
    /// All metric rows, keyed by (possibly labeled) metric name.
    pub metrics: BTreeMap<String, Metric>,
}

impl RunInfo {
    /// Per-tenant SLO table from labeled counters: `(tenant, completed,
    /// violations)` rows for every `control.slo.*{tenant=i}` pair.
    #[must_use]
    pub fn tenant_slo(&self) -> Vec<(u64, u64, u64)> {
        let mut rows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (name, m) in &self.metrics {
            let Some((base, label)) = name.split_once('{') else {
                continue;
            };
            let Some(tenant) = label
                .strip_suffix('}')
                .and_then(|l| l.strip_prefix("tenant="))
                .and_then(|t| t.parse::<u64>().ok())
            else {
                continue;
            };
            let Metric::Counter(v) = m else { continue };
            match base {
                "control.slo.completed" => rows.entry(tenant).or_default().0 = *v,
                "control.slo.violations" => rows.entry(tenant).or_default().1 = *v,
                _ => {}
            }
        }
        rows.into_iter().map(|(t, (c, v))| (t, c, v)).collect()
    }
}

/// One row of `attribution.tsv` (the `fault` cell is a schedule index or
/// the literal `unattributed`).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Schedule index or `unattributed`.
    pub fault: String,
    /// Injection instant.
    pub t_ns: u64,
    /// Fault-kind name (`-` on the unattributed row).
    pub kind: String,
    /// Target slot/salt.
    pub target: u64,
    /// Flows killed.
    pub killed: u64,
    /// Bytes lost.
    pub bytes_lost: u64,
    /// SLO breaches charged.
    pub breaches: u64,
}

/// One slow flow surfaced from a span stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowFlow {
    /// Which spans file (stem without extension) it came from.
    pub source: String,
    /// Flow id (the completion span's subject).
    pub flow: u64,
    /// Arrival-to-completion latency.
    pub latency_ns: u64,
    /// Bytes the completing segment carried.
    pub bytes: u64,
}

/// One folded profile stack with its self time.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileLine {
    /// `;`-joined stack.
    pub stack: String,
    /// Sim-nanoseconds charged to exactly this stack.
    pub self_ns: u64,
}

/// The assembled report over one results directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Parsed manifests, sorted by filename.
    pub runs: Vec<RunInfo>,
    /// Parsed `attribution.tsv` rows (empty when absent).
    pub attribution: Vec<AttributionRow>,
    /// Global top-[`TOP_FLOWS`] slowest completions across span files.
    pub slow_flows: Vec<SlowFlow>,
    /// `(file stem, span count)` per spans file found.
    pub span_files: Vec<(String, usize)>,
    /// `(file stem, top stacks)` per profile file found.
    pub profiles: Vec<(String, Vec<ProfileLine>)>,
}

/// Scans `dir` (typically `./results`) and assembles the report. A
/// missing directory yields an empty report, not an error; unreadable
/// or malformed files are skipped row-by-row.
///
/// # Errors
///
/// Propagates directory-listing I/O errors (other than the directory
/// not existing).
pub fn assemble(dir: impl AsRef<Path>) -> io::Result<RunReport> {
    let dir = dir.as_ref();
    let mut report = RunReport::default();
    let mut names: Vec<String> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    names.sort();

    for name in &names {
        let path = dir.join(name);
        if name.starts_with("spans_") && name.ends_with(".tsv") {
            // Streamed: a span file can hold millions of rows.
            let Ok((rows, top)) = scan_spans(&path) else {
                continue;
            };
            let stem = name.trim_end_matches(".tsv").to_string();
            for (latency_ns, flow, bytes) in top {
                let s = SlowFlow {
                    source: stem.clone(),
                    flow,
                    latency_ns,
                    bytes,
                };
                keep_slowest(&mut report.slow_flows, s, |a, b| {
                    b.latency_ns
                        .cmp(&a.latency_ns)
                        .then(a.flow.cmp(&b.flow))
                        .then(a.source.cmp(&b.source))
                });
            }
            report.span_files.push((stem, rows));
            continue;
        }
        let Ok(body) = fs::read_to_string(&path) else {
            continue;
        };
        if name.starts_with("manifest_") && name.ends_with(".tsv") {
            report.runs.push(parse_manifest(&body));
        } else if name == "attribution.tsv" {
            report.attribution = parse_attribution(&body);
        } else if name.starts_with("profile_") && name.ends_with(".folded") {
            let stem = name.trim_end_matches(".folded").to_string();
            let mut lines: Vec<ProfileLine> = body
                .lines()
                .filter_map(|l| {
                    let (stack, ns) = l.rsplit_once(' ')?;
                    Some(ProfileLine {
                        stack: stack.to_string(),
                        self_ns: ns.parse().ok()?,
                    })
                })
                .collect();
            lines.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.stack.cmp(&b.stack)));
            lines.truncate(TOP_STACKS);
            report.profiles.push((stem, lines));
        }
    }
    Ok(report)
}

/// Inserts `item` into `top`, kept sorted by `cmp` and at most
/// [`TOP_FLOWS`] long, after any equal item: the bounded form of a
/// stable sort of every item followed by a truncation.
fn keep_slowest<T>(top: &mut Vec<T>, item: T, cmp: impl Fn(&T, &T) -> std::cmp::Ordering) {
    let at = top.partition_point(|x| cmp(x, &item).is_le());
    if at < TOP_FLOWS {
        top.insert(at, item);
        top.truncate(TOP_FLOWS);
    }
}

/// One completion of a span file: `(latency_ns, flow, bytes)`.
type Completion = (u64, u64, u64);

/// Reads one span file line by line: the number of rows that parse as
/// spans, and the file's [`TOP_FLOWS`] slowest completions, slowest
/// first, flow id then row order breaking ties. Fails, like
/// `fs::read_to_string`, on a read error or on bytes that are not
/// UTF-8, so such a file is skipped whole.
fn scan_spans(path: &Path) -> io::Result<(usize, Vec<Completion>)> {
    let mut file = io::BufReader::with_capacity(1 << 16, fs::File::open(path)?);
    let (mut rows, mut top) = (0, Vec::new());
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if file.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let line =
            std::str::from_utf8(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        // `str::lines`: a line ends at `\n` or `\r\n`.
        let line = line
            .strip_suffix('\n')
            .map_or(line, |l| l.strip_suffix('\r').unwrap_or(l));
        let Some(s) = SpanRecord::from_tsv(line) else {
            continue;
        };
        rows += 1;
        if s.kind == SpanKind::FlowComplete {
            keep_slowest(&mut top, (s.a, s.subject, s.b), |x, y| {
                y.0.cmp(&x.0).then(x.1.cmp(&y.1))
            });
        }
    }
    Ok((rows, top))
}

/// Parses one `manifest_*.tsv` body (`run` / `phase` / `metric` rows).
fn parse_manifest(body: &str) -> RunInfo {
    let mut info = RunInfo {
        experiment: String::new(),
        seed: 0,
        sim_duration_ns: 0,
        phases: Vec::new(),
        metrics: BTreeMap::new(),
    };
    for line in body.lines() {
        let cells: Vec<&str> = line.split('\t').collect();
        match cells.first().copied() {
            Some("run") => {
                for c in &cells[1..] {
                    if let Some(v) = c.strip_prefix("experiment=") {
                        info.experiment = v.to_string();
                    } else if let Some(v) = c.strip_prefix("seed=") {
                        info.seed = v.parse().unwrap_or(0);
                    } else if let Some(v) = c.strip_prefix("sim_duration_ns=") {
                        info.sim_duration_ns = v.parse().unwrap_or(0);
                    }
                }
            }
            Some("phase") if cells.len() >= 3 => {
                if let Some(ns) = cells[2]
                    .strip_prefix("wall_ns=")
                    .and_then(|v| v.parse().ok())
                {
                    info.phases.push((cells[1].to_string(), ns));
                }
            }
            Some("metric") if cells.len() >= 4 => {
                let name = cells[1].to_string();
                match cells[2] {
                    "counter" => {
                        if let Ok(v) = cells[3].parse() {
                            info.metrics.insert(name, Metric::Counter(v));
                        }
                    }
                    "gauge" => {
                        if let Ok(v) = cells[3].parse() {
                            info.metrics.insert(name, Metric::Gauge(v));
                        }
                    }
                    "histogram" => {
                        let field = |key: &str| cells[3..].iter().find_map(|c| c.strip_prefix(key));
                        if let (Some(count), Some(sum), Some(p50), Some(p99)) = (
                            field("count=").and_then(|v| v.parse::<u64>().ok()),
                            field("sum=").and_then(|v| v.parse::<f64>().ok()),
                            field("p50=").and_then(|v| v.parse::<f64>().ok()),
                            field("p99=").and_then(|v| v.parse::<f64>().ok()),
                        ) {
                            info.metrics.insert(
                                name,
                                Metric::Histogram {
                                    count,
                                    sum,
                                    p50,
                                    p99,
                                },
                            );
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    info
}

/// Parses `attribution.tsv` rows (skipping the `#` header).
fn parse_attribution(body: &str) -> Vec<AttributionRow> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let c: Vec<&str> = l.split('\t').collect();
            if c.len() != 7 {
                return None;
            }
            Some(AttributionRow {
                fault: c[0].to_string(),
                t_ns: c[1].parse().ok()?,
                kind: c[2].to_string(),
                target: c[3].parse().ok()?,
                killed: c[4].parse().ok()?,
                bytes_lost: c[5].parse().ok()?,
                breaches: c[6].parse().ok()?,
            })
        })
        .collect()
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cronets report: {} run(s), {} span file(s), {} profile(s)",
            self.runs.len(),
            self.span_files.len(),
            self.profiles.len(),
        )?;
        for r in &self.runs {
            writeln!(
                f,
                "\nrun {} (seed {}, sim {:.3} s, {} metrics)",
                r.experiment,
                r.seed,
                r.sim_duration_ns as f64 / 1e9,
                r.metrics.len(),
            )?;
            for (name, ns) in &r.phases {
                writeln!(f, "  phase {name}: {:.3} ms wall", *ns as f64 / 1e6)?;
            }
            let slo = r.tenant_slo();
            if !slo.is_empty() {
                writeln!(f, "  tenant\tcompleted\tviolations")?;
                for (t, completed, violations) in slo {
                    writeln!(f, "  {t}\t{completed}\t{violations}")?;
                }
            }
        }
        if self.attribution.is_empty() {
            writeln!(f, "\nfault attribution: no attribution.tsv found")?;
        } else {
            writeln!(
                f,
                "\nfault attribution ({} fault rows)",
                self.attribution.len().saturating_sub(1),
            )?;
            writeln!(
                f,
                "  fault\tt_ns\tkind\ttarget\tkilled\tbytes_lost\tbreaches"
            )?;
            for a in &self.attribution {
                // Zero-impact faults stay in the TSV but would drown the
                // text report; show only rows that charged something.
                if a.killed == 0 && a.breaches == 0 && a.fault != "unattributed" {
                    continue;
                }
                writeln!(
                    f,
                    "  {}\t{}\t{}\t{}\t{}\t{}\t{}",
                    a.fault, a.t_ns, a.kind, a.target, a.killed, a.bytes_lost, a.breaches,
                )?;
            }
        }
        if self.slow_flows.is_empty() {
            writeln!(f, "\nslowest flows: no spans_*.tsv found")?;
        } else {
            writeln!(f, "\ntop {} slowest flows", self.slow_flows.len())?;
            for s in &self.slow_flows {
                writeln!(
                    f,
                    "  flow {}: {:.3} s, {} bytes ({})",
                    s.flow,
                    s.latency_ns as f64 / 1e9,
                    s.bytes,
                    s.source,
                )?;
            }
        }
        for (stem, lines) in &self.profiles {
            writeln!(
                f,
                "\nprofile {stem} (top {} stacks, self sim-time)",
                lines.len()
            )?;
            for l in lines {
                writeln!(f, "  {}: {:.3} s", l.stack, l.self_ns as f64 / 1e9)?;
            }
        }
        Ok(())
    }
}

/// Sanitizes a metric name into an OpenMetrics metric name.
fn om_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("cronets_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Splits an internal labeled name (`base{tenant=0}`) into its base and
/// an OpenMetrics label fragment.
fn om_labels(name: &str, run: &str) -> (String, String) {
    match name.split_once('{') {
        Some((base, label)) => {
            let label = label.trim_end_matches('}');
            let mut parts = vec![format!("run=\"{run}\"")];
            for kv in label.split(',') {
                if let Some((k, v)) = kv.split_once('=') {
                    parts.push(format!("{k}=\"{v}\""));
                }
            }
            (om_name(base), parts.join(","))
        }
        None => (om_name(name), format!("run=\"{run}\"")),
    }
}

impl RunReport {
    /// Renders every parsed metric as OpenMetrics-style text: counters
    /// and gauges as single samples labeled with their run, histograms
    /// as summaries with `quantile` labels. Ends with `# EOF`.
    #[must_use]
    pub fn to_openmetrics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for r in &self.runs {
            for (name, m) in &r.metrics {
                let (base, labels) = om_labels(name, &r.experiment);
                let kind = match m {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram { .. } => "summary",
                };
                if typed.insert(base.clone()) {
                    let _ = writeln!(out, "# TYPE {base} {kind}");
                }
                match m {
                    Metric::Counter(v) => {
                        let _ = writeln!(out, "{base}{{{labels}}} {v}");
                    }
                    Metric::Gauge(v) => {
                        let _ = writeln!(out, "{base}{{{labels}}} {v}");
                    }
                    Metric::Histogram {
                        count,
                        sum,
                        p50,
                        p99,
                    } => {
                        let _ = writeln!(out, "{base}{{{labels},quantile=\"0.5\"}} {p50}");
                        let _ = writeln!(out, "{base}{{{labels},quantile=\"0.99\"}} {p99}");
                        let _ = writeln!(out, "{base}_count{{{labels}}} {count}");
                        let _ = writeln!(out, "{base}_sum{{{labels}}} {sum}");
                    }
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cronets_run_report_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_fixtures(dir: &Path) {
        fs::write(
            dir.join("manifest_chaos.tsv"),
            "run\texperiment=chaos\tseed=42\tsim_duration_ns=2000000000\n\
             phase\tchaos\twall_ns=5000000\n\
             metric\tcontrol.slo.completed\tcounter\t10\n\
             metric\tcontrol.slo.completed{tenant=0}\tcounter\t6\n\
             metric\tcontrol.slo.violations{tenant=0}\tcounter\t2\n\
             metric\tcontrol.slo.completed{tenant=1}\tcounter\t4\n\
             metric\tcontrol.slo.violations{tenant=1}\tcounter\t0\n\
             metric\tdes.sim_time_ns\tgauge\t2000000000\n\
             metric\tdes.rtt_ns\thistogram\tcount=3\tsum=60.5\tp50=20\tp99=30\n",
        )
        .unwrap();
        fs::write(
            dir.join("attribution.tsv"),
            "# fault\tt_ns\tkind\ttarget\tkilled\tbytes_lost\tbreaches\n\
             0\t100\trelay_crash\t2\t3\t4000\t2\n\
             1\t200\tcache_poison\t0\t0\t0\t0\n\
             unattributed\t0\t-\t0\t0\t0\t5\n",
        )
        .unwrap();
        fs::write(
            dir.join("spans_chaos.tsv"),
            "# t_ns\tid\tparent\tkind\tsubject\ta\tb\n\
             10\t1\t0\tflow_arrive\t7\t0\t500\n\
             20\t2\t1\tadmit\t7\t1\t0\n\
             900\t3\t2\tflow_complete\t7\t890\t500\n\
             950\t4\t0\tflow_arrive\t8\t0\t600\n\
             960\t5\t4\tadmit\t8\t2\t1\n\
             5000\t6\t5\tflow_complete\t8\t4040\t600\n",
        )
        .unwrap();
        fs::write(
            dir.join("profile_chaos.folded"),
            "chaos;arrive 500\nchaos;complete 1500\nnetsim;hop 900\n",
        )
        .unwrap();
    }

    #[test]
    fn missing_directory_yields_an_empty_report() {
        let r = assemble("/nonexistent/cronets/results").unwrap();
        assert_eq!(r, RunReport::default());
        let text = r.to_string();
        assert!(text.contains("0 run(s)"));
        assert!(text.contains("no attribution.tsv"));
        assert_eq!(r.to_openmetrics(), "# EOF\n");
    }

    #[test]
    fn assemble_parses_every_artifact_kind() {
        let dir = fixture_dir("full");
        write_fixtures(&dir);
        let r = assemble(&dir).unwrap();
        assert_eq!(r.runs.len(), 1);
        let run = &r.runs[0];
        assert_eq!(run.experiment, "chaos");
        assert_eq!(run.seed, 42);
        assert_eq!(run.phases, vec![("chaos".to_string(), 5_000_000)]);
        assert_eq!(run.tenant_slo(), vec![(0, 6, 2), (1, 4, 0)]);
        assert_eq!(
            run.metrics.get("des.rtt_ns"),
            Some(&Metric::Histogram {
                count: 3,
                sum: 60.5,
                p50: 20.0,
                p99: 30.0
            })
        );
        assert_eq!(r.attribution.len(), 3);
        assert_eq!(r.attribution[0].killed, 3);
        assert_eq!(r.span_files, vec![("spans_chaos".to_string(), 6)]);
        // Slowest flow first.
        assert_eq!(r.slow_flows[0].flow, 8);
        assert_eq!(r.slow_flows[0].latency_ns, 4040);
        assert_eq!(r.slow_flows[1].flow, 7);
        assert_eq!(r.profiles.len(), 1);
        assert_eq!(r.profiles[0].1[0].stack, "chaos;complete");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn display_and_openmetrics_carry_the_key_facts() {
        let dir = fixture_dir("render");
        write_fixtures(&dir);
        let r = assemble(&dir).unwrap();
        let text = r.to_string();
        assert!(text.contains("run chaos (seed 42"));
        assert!(text.contains("0\t6\t2"), "tenant SLO row:\n{text}");
        assert!(text.contains("relay_crash"));
        assert!(
            !text.contains("cache_poison"),
            "zero-impact faults stay out of the text report"
        );
        assert!(text.contains("unattributed"));
        assert!(text.contains("flow 8"));
        assert!(text.contains("chaos;complete"));
        let om = r.to_openmetrics();
        assert!(om.contains("# TYPE cronets_control_slo_completed counter"));
        assert!(om.contains("cronets_control_slo_completed{run=\"chaos\",tenant=\"0\"} 6"));
        assert!(om.contains("cronets_des_rtt_ns{run=\"chaos\",quantile=\"0.99\"} 30"));
        assert!(om.contains("cronets_des_rtt_ns_sum{run=\"chaos\"} 60.5"));
        assert!(om.ends_with("# EOF\n"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn assembly_is_deterministic() {
        let dir = fixture_dir("det");
        write_fixtures(&dir);
        let a = assemble(&dir).unwrap();
        let b = assemble(&dir).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.to_openmetrics(), b.to_openmetrics());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The sort-everything top list the streamed scan replaced: every
    /// completion of every file, in file order, stably sorted.
    fn slowest_by_full_sort(files: &[(&str, &[u8])]) -> Vec<SlowFlow> {
        let mut slow = Vec::new();
        for (name, body) in files {
            let Ok(body) = std::str::from_utf8(body) else {
                continue;
            };
            for s in body.lines().filter_map(SpanRecord::from_tsv) {
                if s.kind == SpanKind::FlowComplete {
                    slow.push(SlowFlow {
                        source: name.trim_end_matches(".tsv").to_string(),
                        flow: s.subject,
                        latency_ns: s.a,
                        bytes: s.b,
                    });
                }
            }
        }
        slow.sort_by(|a, b| {
            b.latency_ns
                .cmp(&a.latency_ns)
                .then(a.flow.cmp(&b.flow))
                .then(a.source.cmp(&b.source))
        });
        slow.truncate(TOP_FLOWS);
        slow
    }

    /// One completion row (plus an arrival row before it).
    fn completion(id: u64, flow: u64, latency: u64, bytes: u64) -> String {
        format!(
            "{id}\t{id}\t0\tflow_arrive\t{flow}\t0\t{bytes}\n\
             {id}\t{}\t{id}\tflow_complete\t{flow}\t{latency}\t{bytes}\n",
            id + 1
        )
    }

    #[test]
    fn streamed_top_flows_match_the_full_sort() {
        let header = "# t_ns\tid\tparent\tkind\tsubject\ta\tb\n";
        // Crafted ties: one latency for several flows in one file, one
        // (latency, flow) twice in one file with other bytes, straddling
        // the cut, and the same (latency, flow) in two files; a CRLF
        // line; a file that is not UTF-8 after a row that would top the
        // list.
        let mut a = String::from(header);
        for (i, (flow, latency, bytes)) in [
            (5, 900, 1),
            (3, 900, 2),
            (3, 900, 3),
            (9, 100, 4),
            (8, 950, 5),
            (2, 950, 6),
        ]
        .into_iter()
        .enumerate()
        {
            a.push_str(&completion(10 * i as u64 + 1, flow, latency, bytes));
        }
        a.push_str("7\t99\t0\tflow_complete\t1\t900\t7\r\n");
        let mut b = String::from(header);
        b.push_str(&completion(1, 3, 900, 8));
        b.push_str(&completion(3, 2, 950, 9));
        b.push_str("not a span\n");
        let mut bad = completion(1, 1, u64::MAX, 10).into_bytes();
        bad.extend_from_slice(b"\xff\xfe\n");
        let crafted: Vec<(String, Vec<u8>)> = vec![
            ("spans_a.tsv".into(), a.into_bytes()),
            ("spans_a-b.tsv".into(), b.into_bytes()),
            ("spans_bad.tsv".into(), bad),
        ];
        // Pseudo-random streams over few latencies and flows, so ties
        // run across files and within them.
        let mut x = 11u64;
        let mut streams = vec![crafted];
        for round in 0..20 {
            let files = (0..1 + round % 4)
                .map(|f| {
                    let mut body = String::from(header);
                    for id in 0..(round * 7 + f * 3) as u64 {
                        x = simcore::rng::mix64(x);
                        body.push_str(&completion(2 * id + 1, x % 5, (x >> 8) % 4, x >> 40));
                    }
                    (format!("spans_r{f}.tsv"), body.into_bytes())
                })
                .collect();
            streams.push(files);
        }
        for (i, files) in streams.iter().enumerate() {
            let dir = fixture_dir(&format!("topk_{i}"));
            for (name, body) in files {
                fs::write(dir.join(name), body).unwrap();
            }
            let mut sorted: Vec<(&str, &[u8])> = files
                .iter()
                .map(|(n, b)| (n.as_str(), b.as_slice()))
                .collect();
            sorted.sort();
            let r = assemble(&dir).unwrap();
            assert_eq!(r.slow_flows, slowest_by_full_sort(&sorted), "stream {i}");
            let counts: Vec<(String, usize)> = sorted
                .iter()
                .filter_map(|(name, body)| {
                    let body = std::str::from_utf8(body).ok()?;
                    let n = body.lines().filter_map(SpanRecord::from_tsv).count();
                    Some((name.trim_end_matches(".tsv").to_string(), n))
                })
                .collect();
            assert_eq!(r.span_files, counts, "stream {i}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn malformed_rows_are_skipped_not_fatal() {
        let dir = fixture_dir("malformed");
        fs::write(
            dir.join("manifest_x.tsv"),
            "run\texperiment=x\tseed=1\tsim_duration_ns=0\n\
             garbage line without tabs\n\
             metric\tbad.counter\tcounter\tnot_a_number\n\
             metric\tgood.counter\tcounter\t5\n",
        )
        .unwrap();
        fs::write(dir.join("attribution.tsv"), "# header\nshort\trow\n").unwrap();
        let r = assemble(&dir).unwrap();
        assert_eq!(r.runs[0].metrics.len(), 1);
        assert!(r.attribution.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
