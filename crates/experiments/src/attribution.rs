//! Fault attribution: charging kills, lost bytes, and SLO breaches to
//! the fault events that caused them by walking span causality.
//!
//! The chaos run emits a causal span stream ([`obs::SpanRecord`]): every
//! `flow_kill` points at the `fault_inject` span that crashed its relay,
//! every `flow_retry` points at its kill, every `admit` points at the
//! arrival or retry it served, and every `slo_breach` points at the
//! completion (or deny-admission) that broke the objective. Attribution
//! is then a pure parent walk: follow a breach back through
//! completion → admission → retry → kill until a `fault_inject` root is
//! reached. A chain that ends at a plain arrival carried no fault, so
//! its breach is **unattributed** — explicitly counted, never silently
//! dropped. The same goes for a chain broken by a dropped span: the
//! chaos run keeps a bounded window of spans per epoch
//! (`ChaosReport::span_dropped`), and a kill or breach whose own span
//! was dropped is counted in no row.
//!
//! A chaos run holds only its open span window, so it builds the table
//! online (`OnlineAttribution`), one closed window at a time. The
//! whole-stream walk [`Attribution::attribute`] is the reference it
//! matches, and the join the planet run's merged stream still takes.
//!
//! When a flow is killed more than once, the walk charges the breach to
//! the **proximate** (most recent) kill's fault: the last admission in
//! the chain is a retry of that kill by construction.
//!
//! The output is one [`FaultCharge`] row per scheduled fault event —
//! including zero-impact faults, so the table's shape is the schedule's
//! shape — plus one `unattributed` row, exported as
//! `results/attribution.tsv`.

use std::borrow::Cow;
use std::collections::HashMap;

use obs::{SpanKind, SpanRecord};
use simcore::rng::Mix64Map;

/// What one scheduled fault event is charged with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultCharge {
    /// Index of the fault in the schedule (the `fault_inject` span's
    /// subject).
    pub fault_idx: u64,
    /// Injection instant, simulated nanoseconds.
    pub t_ns: u64,
    /// Fault-kind name (stable, from the discriminant).
    pub kind: &'static str,
    /// Target index the fault names (relay slot, link salt, 0 global).
    pub target: u64,
    /// Flows this fault killed mid-transfer.
    pub killed: u64,
    /// Bytes those kills lost (the un-delivered remainder).
    pub bytes_lost: u64,
    /// SLO violations whose causal chain ends at this fault. Weighted
    /// like the ledger: a completion breaching both objectives counts
    /// twice, a denial once.
    pub breaches: u64,
}

/// The fault-kind name for a `fault_inject` span's discriminant operand.
#[must_use]
pub fn fault_kind_name(discriminant: u64) -> &'static str {
    match discriminant {
        0 => "relay_crash",
        1 => "relay_restore",
        2 => "link_degrade",
        3 => "link_clear",
        4 => "probe_blackhole_start",
        5 => "probe_blackhole_end",
        6 => "cache_poison",
        _ => "unknown",
    }
}

/// The number of ledger violations one `slo_breach` span represents:
/// denial masks (bit 2) count one, completion masks count one per
/// breached objective bit.
fn breach_weight(mask: u64) -> u64 {
    if mask & 4 != 0 {
        1
    } else {
        (mask & 3).count_ones().into()
    }
}

/// The completed attribution join over one run's span stream.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// One row per scheduled fault event, in schedule order.
    pub charges: Vec<FaultCharge>,
    /// Kills whose fault span was lost (span-ring overwrite).
    pub unattributed_killed: u64,
    /// Lost bytes belonging to unattributed kills.
    pub unattributed_bytes_lost: u64,
    /// Breaches whose causal chain reaches no fault: clean-path flows
    /// that missed their objective anyway, plus broken chains.
    pub unattributed_breaches: u64,
}

/// Id → span lookup over the stream. A serial run's stream is strictly
/// id-ascending (ids are allocated monotonically), so the common case
/// is a zero-allocation binary search; anything else (hand-assembled or
/// merged streams) falls back to a hash map.
enum SpanIndex<'a> {
    Sorted(&'a [SpanRecord]),
    Map(HashMap<u64, &'a SpanRecord>),
}

impl<'a> SpanIndex<'a> {
    fn build(spans: &'a [SpanRecord]) -> SpanIndex<'a> {
        if spans.windows(2).all(|w| w[0].id < w[1].id) {
            SpanIndex::Sorted(spans)
        } else {
            SpanIndex::Map(spans.iter().map(|s| (s.id, s)).collect())
        }
    }

    fn get(&self, id: u64) -> Option<&'a SpanRecord> {
        match self {
            SpanIndex::Sorted(spans) => spans
                .binary_search_by(|s| s.id.cmp(&id))
                .ok()
                .map(|i| &spans[i]),
            SpanIndex::Map(map) => map.get(&id).copied(),
        }
    }
}

impl Attribution {
    /// Walks the span stream and builds the per-fault charge table.
    /// Takes the stream as a slice or a `Vec`, or as
    /// [`obs::PackedSpans`], which it decodes first.
    #[must_use]
    pub fn attribute<'a>(spans: impl Into<Cow<'a, [SpanRecord]>>) -> Attribution {
        let spans = spans.into();
        let spans = &*spans;
        let by_id = SpanIndex::build(spans);
        let mut charges: Vec<FaultCharge> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::FaultInject)
            .map(|s| FaultCharge {
                fault_idx: s.subject,
                t_ns: s.t_ns,
                kind: fault_kind_name(s.a),
                target: s.b,
                killed: 0,
                bytes_lost: 0,
                breaches: 0,
            })
            .collect();
        charges.sort_by_key(|c| c.fault_idx);
        let slot: HashMap<u64, usize> = charges
            .iter()
            .enumerate()
            .map(|(i, c)| (c.fault_idx, i))
            .collect();
        let mut out = Attribution {
            charges,
            ..Attribution::default()
        };

        for s in spans {
            match s.kind {
                SpanKind::FlowKill => {
                    // A kill's parent IS the fault span.
                    match by_id
                        .get(s.parent)
                        .filter(|p| p.kind == SpanKind::FaultInject)
                    {
                        Some(fault) => {
                            let i = slot[&fault.subject];
                            out.charges[i].killed += 1;
                            out.charges[i].bytes_lost += s.a;
                        }
                        None => {
                            out.unattributed_killed += 1;
                            out.unattributed_bytes_lost += s.a;
                        }
                    }
                }
                SpanKind::SloBreach => {
                    let weight = breach_weight(s.b);
                    match root_fault(s, &by_id) {
                        Some(fault_idx) => out.charges[slot[&fault_idx]].breaches += weight,
                        None => out.unattributed_breaches += weight,
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Total kills charged to fault events.
    #[must_use]
    pub fn attributed_killed(&self) -> u64 {
        self.charges.iter().map(|c| c.killed).sum()
    }

    /// Total breaches charged to fault events.
    #[must_use]
    pub fn attributed_breaches(&self) -> u64 {
        self.charges.iter().map(|c| c.breaches).sum()
    }

    /// The charge table as TSV: a `#` header, one row per fault event in
    /// schedule order, and a final `unattributed` row — so every kill
    /// and breach in the run appears in exactly one row.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = obs::Tsv::new();
        out.raw_line("# fault\tt_ns\tkind\ttarget\tkilled\tbytes_lost\tbreaches");
        for c in &self.charges {
            out.row([
                c.fault_idx.to_string(),
                c.t_ns.to_string(),
                c.kind.to_string(),
                c.target.to_string(),
                c.killed.to_string(),
                c.bytes_lost.to_string(),
                c.breaches.to_string(),
            ]);
        }
        out.row([
            "unattributed".to_string(),
            "0".to_string(),
            "-".to_string(),
            "0".to_string(),
            self.unattributed_killed.to_string(),
            self.unattributed_bytes_lost.to_string(),
            self.unattributed_breaches.to_string(),
        ]);
        out.finish()
    }
}

/// The attribution join built online, one closed span window at a
/// time, for a run whose span log holds only its open window. Over the
/// streams the chaos loop emits it gives the table
/// [`Attribution::attribute`] gives over the run's kept windows
/// concatenated. Two properties of those streams make one pass enough:
///
/// * every parent link stays inside one window except two: a
///   completion names its admission, and a retry names its kill;
/// * a flow has at most one pending link at a time: an admission that
///   placed it, waiting for its completion or kill, or a kill, waiting
///   for its retry.
///
/// So each kept span resolves its root fault once, from its parent's:
/// by position when the parent is in the same window (a window keeps
/// the newest spans it emitted, so a parent before the window's first
/// kept span was dropped), and through `live` for those two links. An
/// entry leaves `live` when its child is walked, when the log drops
/// that child, or, for an admission, when its flow is killed, so `live`
/// holds one entry per flow in flight.
#[derive(Debug, Default)]
pub(crate) struct OnlineAttribution {
    /// The table so far; its rows are sorted into schedule order by
    /// [`OnlineAttribution::finish`].
    table: Attribution,
    /// Fault schedule index → its row in `table.charges`.
    rows: HashMap<u64, usize>,
    /// Flow → the span id and root fault of its pending admission or
    /// kill.
    live: Mix64Map<(u64, Option<u64>)>,
    /// The root fault of each kept span of the window being walked, by
    /// position.
    roots: Vec<Option<u64>>,
}

impl OnlineAttribution {
    /// Walks one closed window's kept spans, in emission order.
    pub(crate) fn window(&mut self, kept: &[SpanRecord]) {
        let first = kept.first().map_or(0, |s| s.id);
        self.roots.clear();
        for s in kept {
            // The parent's position in this window, when it was kept.
            let local = s
                .parent
                .checked_sub(first)
                .map(|i| i as usize)
                .filter(|&i| i < self.roots.len());
            let parent_root = local.and_then(|i| self.roots[i]);
            let root = match s.kind {
                SpanKind::FaultInject => {
                    self.rows.insert(s.subject, self.table.charges.len());
                    self.table.charges.push(FaultCharge {
                        fault_idx: s.subject,
                        t_ns: s.t_ns,
                        kind: fault_kind_name(s.a),
                        target: s.b,
                        killed: 0,
                        bytes_lost: 0,
                        breaches: 0,
                    });
                    Some(s.subject)
                }
                SpanKind::FlowArrive | SpanKind::FleetScale => None,
                SpanKind::Admit => {
                    // A denial (a = 0) has no completion; its breach
                    // follows it in this window.
                    if s.a != 0 {
                        self.live.insert(s.subject, (s.id, parent_root));
                    }
                    parent_root
                }
                SpanKind::FlowComplete | SpanKind::FlowRetry => self
                    .live
                    .remove(&s.subject)
                    .filter(|&(id, _)| id == s.parent)
                    .and_then(|(_, root)| root),
                SpanKind::FlowKill => {
                    // A kill's parent IS the fault span. The kill ends
                    // the flow's admission and waits for its retry.
                    let fault = local.map(|i| &kept[i]);
                    match fault.filter(|p| p.kind == SpanKind::FaultInject) {
                        Some(fault) => {
                            let c = &mut self.table.charges[self.rows[&fault.subject]];
                            c.killed += 1;
                            c.bytes_lost += s.a;
                        }
                        None => {
                            self.table.unattributed_killed += 1;
                            self.table.unattributed_bytes_lost += s.a;
                        }
                    }
                    self.live.insert(s.subject, (s.id, parent_root));
                    parent_root
                }
                SpanKind::SloBreach => {
                    let weight = breach_weight(s.b);
                    match parent_root {
                        Some(fault) => self.table.charges[self.rows[&fault]].breaches += weight,
                        None => self.table.unattributed_breaches += weight,
                    }
                    None
                }
            };
            self.roots.push(root);
        }
    }

    /// Notes a span the log dropped before its window closed. A dropped
    /// completion, kill or retry was the child of its flow's pending
    /// link, which no later span can read any more.
    pub(crate) fn dropped(&mut self, s: &SpanRecord) {
        if matches!(
            s.kind,
            SpanKind::FlowComplete | SpanKind::FlowKill | SpanKind::FlowRetry
        ) {
            self.live.remove(&s.subject);
        }
    }

    /// Flows with a pending link.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live.len()
    }

    /// The finished table, its rows in schedule order.
    pub(crate) fn finish(mut self) -> Attribution {
        self.table.charges.sort_by_key(|c| c.fault_idx);
        self.table
    }
}

/// Walks one breach's causal chain to its fault root, if any: breach →
/// completion/denied-admit → admit → retry → kill → fault. Returns the
/// fault's schedule index. `None` when the chain ends at a plain
/// arrival (no fault involved) or breaks at a missing span.
fn root_fault(breach: &SpanRecord, by_id: &SpanIndex<'_>) -> Option<u64> {
    let mut at = by_id.get(breach.parent)?;
    // Bounded walk: chains are short (≤ 5 hops), but a defensive cap
    // keeps a malformed stream from looping.
    for _ in 0..16 {
        match at.kind {
            SpanKind::FaultInject => return Some(at.subject),
            SpanKind::FlowComplete | SpanKind::Admit | SpanKind::FlowRetry | SpanKind::FlowKill => {
                at = by_id.get(at.parent)?;
            }
            // Chain reached a faultless root.
            SpanKind::FlowArrive | SpanKind::SloBreach | SpanKind::FleetScale => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, kind: SpanKind, subject: u64, a: u64, b: u64) -> SpanRecord {
        SpanRecord {
            t_ns: id * 10,
            id,
            parent,
            kind,
            subject,
            a,
            b,
        }
    }

    /// One fault kills a flow; the retry completes late, breaching both
    /// objectives. A clean flow breaches ratio on its own.
    fn sample_stream() -> Vec<SpanRecord> {
        vec![
            sp(1, 0, SpanKind::FaultInject, 3, 0, 2), // fault #3: relay_crash on relay 2
            sp(2, 0, SpanKind::FlowArrive, 100, 0, 5000),
            sp(3, 2, SpanKind::Admit, 100, 2, 3),
            sp(4, 1, SpanKind::FlowKill, 100, 4000, 2), // 4000 bytes lost
            sp(5, 4, SpanKind::FlowRetry, 100, 4000, 0),
            sp(6, 5, SpanKind::Admit, 100, 1, 0),
            sp(7, 6, SpanKind::FlowComplete, 100, 9999, 4000),
            sp(8, 7, SpanKind::SloBreach, 100, 0, 3), // both objectives
            sp(9, 0, SpanKind::FlowArrive, 200, 1, 800),
            sp(10, 9, SpanKind::Admit, 200, 1, 0),
            sp(11, 10, SpanKind::FlowComplete, 200, 50, 800),
            sp(12, 11, SpanKind::SloBreach, 200, 1, 1), // ratio only, no fault
        ]
    }

    #[test]
    fn kills_and_breaches_charge_the_causing_fault() {
        let a = Attribution::attribute(sample_stream());
        assert_eq!(a.charges.len(), 1);
        let c = a.charges[0];
        assert_eq!(c.fault_idx, 3);
        assert_eq!(c.kind, "relay_crash");
        assert_eq!(c.target, 2);
        assert_eq!(c.killed, 1);
        assert_eq!(c.bytes_lost, 4000);
        assert_eq!(c.breaches, 2, "both-objective breach counts twice");
        assert_eq!(a.unattributed_breaches, 1, "clean-path ratio breach");
        assert_eq!(a.unattributed_killed, 0);
    }

    #[test]
    fn denial_breaches_walk_through_the_deny_admit() {
        let spans = vec![
            sp(1, 0, SpanKind::FaultInject, 0, 0, 1),
            sp(2, 0, SpanKind::FlowArrive, 7, 0, 100),
            sp(3, 2, SpanKind::Admit, 7, 2, 2),
            sp(4, 1, SpanKind::FlowKill, 7, 100, 1),
            sp(5, 4, SpanKind::FlowRetry, 7, 100, 0),
            sp(6, 5, SpanKind::Admit, 7, 0, 0),     // retry denied
            sp(7, 6, SpanKind::SloBreach, 7, 0, 4), // denial mask
        ];
        let a = Attribution::attribute(&spans);
        assert_eq!(a.charges[0].breaches, 1);
        assert_eq!(a.unattributed_breaches, 0);
    }

    #[test]
    fn orphaned_chains_land_in_the_unattributed_row() {
        // Ring-wrap truncation: the kill and fault spans were
        // overwritten; the retry's parent is missing.
        let spans = vec![
            sp(5, 4, SpanKind::FlowRetry, 9, 300, 0), // parent 4 missing
            sp(6, 5, SpanKind::Admit, 9, 1, 0),
            sp(7, 6, SpanKind::FlowComplete, 9, 1234, 300),
            sp(8, 7, SpanKind::SloBreach, 9, 0, 2),
            sp(9, 3, SpanKind::FlowKill, 11, 50, 0), // parent 3 missing
        ];
        let a = Attribution::attribute(&spans);
        assert!(a.charges.is_empty());
        assert_eq!(a.unattributed_breaches, 1);
        assert_eq!(a.unattributed_killed, 1);
        assert_eq!(a.unattributed_bytes_lost, 50);
    }

    #[test]
    fn zero_impact_faults_still_get_rows() {
        let spans = vec![
            sp(1, 0, SpanKind::FaultInject, 0, 6, 0),
            sp(2, 0, SpanKind::FaultInject, 1, 4, 0),
        ];
        let a = Attribution::attribute(&spans);
        assert_eq!(a.charges.len(), 2);
        assert!(a.charges.iter().all(|c| c.killed == 0 && c.breaches == 0));
        let tsv = a.to_tsv();
        assert!(tsv.contains("0\t10\tcache_poison\t0\t0\t0\t0"));
        assert!(tsv.ends_with("unattributed\t0\t-\t0\t0\t0\t0\n"));
    }
}
