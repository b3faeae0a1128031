//! Causal span records: parent/child event records with stable IDs.
//!
//! Where [`crate::trace`](mod@crate::trace) records what happened to one packet-level flow,
//! spans record **why** things happened across the whole run: every span
//! carries the id of the span that caused it, so a completed (or killed)
//! flow can be walked back through its admission decision to the arrival
//! or fault event at the root. The chaos experiment uses exactly this
//! walk to charge kills and SLO breaches to fault events
//! (`experiments::attribution`).
//!
//! This module holds only the record types and their TSV form. The run
//! that emits spans owns them: the chaos run's event loop keeps its own
//! span log, numbers its spans from 1 in emission order (0 means "no
//! parent") and stamps them with simulated nanoseconds, so the stream is
//! a pure function of the run's inputs.

use std::fmt;

/// What kind of event a span marks. Operand meanings (`a`, `b`) are
/// kind-specific and documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A flow entered the system (`subject` = flow id, `a` = tenant,
    /// `b` = requested bytes). Root span: parent 0.
    FlowArrive,
    /// Admission + broker path decision (`subject` = flow id, `a` =
    /// decision: 0 deny / 1 direct / 2 overlay, `b` = relay index + 1,
    /// or 0 for deny/direct). Parent: the arrival or retry span.
    Admit,
    /// The flow finished (`subject` = flow id, `a` = latency in ns,
    /// `b` = bytes delivered). Parent: the admit span.
    FlowComplete,
    /// A fault killed the flow mid-transfer (`subject` = flow id, `a` =
    /// bytes lost, `b` = relay index). Parent: the fault span.
    FlowKill,
    /// A killed flow re-entered after detection (`subject` = flow id,
    /// `a` = bytes left to move). Parent: the kill span.
    FlowRetry,
    /// An SLO objective was violated (`subject` = flow id, `a` = tenant,
    /// `b` = breach mask: 1 ratio / 2 latency / 3 both / 4 denial).
    /// Parent: the completion span (or the deny admit span for `b`=4).
    SloBreach,
    /// A fault-schedule event fired (`subject` = schedule index, `a` =
    /// `FaultKind` discriminant, `b` = target index). Root span.
    FaultInject,
    /// The autoscaler changed the fleet (`subject` = epoch, `a` =
    /// scale-ups, `b` = drains this epoch). Root span.
    FleetScale,
}

impl SpanKind {
    /// The stable on-disk name (the `kind` column of span TSVs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::FlowArrive => "flow_arrive",
            SpanKind::Admit => "admit",
            SpanKind::FlowComplete => "flow_complete",
            SpanKind::FlowKill => "flow_kill",
            SpanKind::FlowRetry => "flow_retry",
            SpanKind::SloBreach => "slo_breach",
            SpanKind::FaultInject => "fault_inject",
            SpanKind::FleetScale => "fleet_scale",
        }
    }

    /// Parses the on-disk name back into a kind.
    #[must_use]
    pub fn from_name(s: &str) -> Option<SpanKind> {
        Some(match s {
            "flow_arrive" => SpanKind::FlowArrive,
            "admit" => SpanKind::Admit,
            "flow_complete" => SpanKind::FlowComplete,
            "flow_kill" => SpanKind::FlowKill,
            "flow_retry" => SpanKind::FlowRetry,
            "slo_breach" => SpanKind::SloBreach,
            "fault_inject" => SpanKind::FaultInject,
            "fleet_scale" => SpanKind::FleetScale,
            _ => return None,
        })
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One causal event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Simulated time in nanoseconds.
    pub t_ns: u64,
    /// This span's id (monotonic from 1 within a run).
    pub id: u64,
    /// The id of the span that caused this one; 0 for roots.
    pub parent: u64,
    /// Event kind.
    pub kind: SpanKind,
    /// What the span is about (flow id, schedule index, or epoch).
    pub subject: u64,
    /// First kind-specific operand (see [`SpanKind`]).
    pub a: u64,
    /// Second kind-specific operand.
    pub b: u64,
}

impl SpanRecord {
    /// Renders as one TSV row: `t_ns  id  parent  kind  subject  a  b`.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        crate::emit::tsv_row([
            self.t_ns.to_string(),
            self.id.to_string(),
            self.parent.to_string(),
            self.kind.to_string(),
            self.subject.to_string(),
            self.a.to_string(),
            self.b.to_string(),
        ])
    }

    /// Parses one TSV row written by [`SpanRecord::to_tsv`].
    #[must_use]
    pub fn from_tsv(line: &str) -> Option<SpanRecord> {
        let mut f = line.split('\t');
        let rec = SpanRecord {
            t_ns: f.next()?.parse().ok()?,
            id: f.next()?.parse().ok()?,
            parent: f.next()?.parse().ok()?,
            kind: SpanKind::from_name(f.next()?)?,
            subject: f.next()?.parse().ok()?,
            a: f.next()?.parse().ok()?,
            b: f.next()?.parse().ok()?,
        };
        if f.next().is_some() {
            return None;
        }
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_roundtrip() {
        let rec = SpanRecord {
            t_ns: 42,
            id: 7,
            parent: 3,
            kind: SpanKind::FlowKill,
            subject: 9,
            a: 512,
            b: 2,
        };
        let row = rec.to_tsv();
        assert_eq!(row, "42\t7\t3\tflow_kill\t9\t512\t2");
        assert_eq!(SpanRecord::from_tsv(&row), Some(rec));
        assert_eq!(SpanRecord::from_tsv("not a span"), None);
    }
}
