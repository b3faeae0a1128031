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
    /// Renders as one TSV row: `t_ns  id  parent  kind  subject  a  b`
    /// (the record's [`Display`](fmt::Display) form).
    #[must_use]
    pub fn to_tsv(self) -> String {
        self.to_string()
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

/// One TSV row, as [`SpanRecord::to_tsv`] gives it. Every cell is a
/// number or a kind name, so none needs escaping.
impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.t_ns, self.id, self.parent, self.kind, self.subject, self.a, self.b
        )
    }
}

/// Every kind, in declaration order: a kind's index here is its
/// discriminant and its 3-bit code in [`PackedSpans`].
const KINDS: [SpanKind; 8] = [
    SpanKind::FlowArrive,
    SpanKind::Admit,
    SpanKind::FlowComplete,
    SpanKind::FlowKill,
    SpanKind::FlowRetry,
    SpanKind::SloBreach,
    SpanKind::FaultInject,
    SpanKind::FleetScale,
];

/// Header bit: the id is not the previous id + 1; a gap follows.
const ID_GAP: u8 = 1 << 3;
/// Header bits: how the parent is coded.
const PARENT: u8 = 3 << 4;
/// Parent code: the span before this id.
const PARENT_PREV: u8 = 1 << 4;
/// Parent code: an explicit distance back from the id follows.
const PARENT_FAR: u8 = 2 << 4;
/// Header bit: the time moved; its delta follows.
const T_MOVED: u8 = 1 << 6;
/// Header bit: the subject changed; its delta follows.
const SUBJECT_MOVED: u8 = 1 << 7;
/// The longest coded record, a header byte and six 9-byte varints,
/// plus the 7 bytes the last varint's 8-byte store may run past it.
const MAX_CODED: usize = 1 + 6 * 9 + 7;
/// Bytes per chunk of a [`PackedSpans`].
const CHUNK: usize = 1 << 16;

/// A span stream held in memory at about a fifth of its
/// [`SpanRecord`] size. Each record is coded against the one before it:
/// a header byte (kind, and which fields moved), then varints for the
/// id gap, the parent's distance back, the time and subject deltas
/// (zigzag, so any sequence codes), and the two operands. A run's
/// stream, where ids count up by one, parents sit close behind and time
/// creeps forward, takes about 11 bytes a span against 56. The bytes
/// live in fixed-size chunks, so the stream grows without copying what
/// it holds. Iteration decodes records by value, in push order.
///
/// A varint keeps 7 bits of the value a byte, like LEB128, but puts its
/// byte count n in unary in the low bits of its first byte: values up
/// to 56 bits take n = 1..=8 bytes, wider ones a zero byte and 8 more.
/// Coding and decoding then need no branch per byte.
#[derive(Debug, Clone, Default)]
pub struct PackedSpans {
    /// Full chunks, each cut to its coded bytes, then the open chunk,
    /// zero-filled to [`CHUNK`] bytes and coded up to `open`.
    chunks: Vec<Vec<u8>>,
    open: usize,
    len: usize,
    /// The record pushed last (or all zeros): what the next one is
    /// coded against.
    last: Anchor,
}

/// The fields the next record is coded against.
#[derive(Debug, Clone, Copy, Default)]
struct Anchor {
    t_ns: u64,
    id: u64,
    subject: u64,
}

fn zigzag(from: u64, to: u64) -> u64 {
    let d = to.wrapping_sub(from) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(from: u64, z: u64) -> u64 {
    let d = ((z >> 1) as i64) ^ -((z & 1) as i64);
    from.wrapping_add(d as u64)
}

/// A varint's byte count by its value's leading zero bits.
const VARINT_LEN: [u32; 64] = {
    let mut len = [0; 64];
    let mut zeros = 0;
    while zeros < 64 {
        let bits = 64 - zeros as u32;
        len[zeros] = if bits <= 56 { bits.div_ceil(7) } else { 9 };
        zeros += 1;
    }
    len
};

/// Codes `v` at `at` when `keep`, advancing `at` past it; otherwise
/// writes scratch bytes the next field overwrites.
#[inline]
fn put_varint(buf: &mut [u8], at: &mut usize, v: u64, keep: bool) {
    let n = VARINT_LEN[(v | 1).leading_zeros() as usize];
    let n = if n <= 8 {
        let word = (v << n) | (1 << (n - 1));
        buf[*at..*at + 8].copy_from_slice(&word.to_le_bytes());
        n as usize
    } else {
        buf[*at] = 0;
        buf[*at + 1..*at + 9].copy_from_slice(&v.to_le_bytes());
        9
    };
    *at += n * usize::from(keep);
}

/// The 8 bytes at `at`, zero past the end of `bytes`.
#[inline]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8) {
        Some(w) => u64::from_le_bytes(w.try_into().expect("8 bytes")),
        None => {
            let mut w = [0u8; 8];
            let tail = &bytes[at..];
            w[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(w)
        }
    }
}

fn take_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let w = word_at(bytes, *at);
    let n = (w as u8).trailing_zeros() + 1;
    if n > 8 {
        let v = word_at(bytes, *at + 1);
        *at += 9;
        return v;
    }
    *at += n as usize;
    (w >> n) & ((1 << (7 * n)) - 1)
}

impl PackedSpans {
    /// An empty stream.
    #[must_use]
    pub fn new() -> PackedSpans {
        PackedSpans::default()
    }

    /// Spans held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no span.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one span.
    pub fn push(&mut self, s: SpanRecord) {
        if self.chunks.is_empty() || self.open + MAX_CODED > CHUNK {
            if let Some(full) = self.chunks.last_mut() {
                full.truncate(self.open);
            }
            self.chunks.push(vec![0; CHUNK]);
            self.open = 0;
        }
        let buf = &mut self.chunks.last_mut().expect("an open chunk")[self.open..];
        let last = self.last;
        let mut at = 1;
        let gap = zigzag(last.id.wrapping_add(1), s.id);
        put_varint(buf, &mut at, gap, gap != 0);
        let prev = s.parent != 0 && s.parent == s.id.wrapping_sub(1);
        let far = s.parent != 0 && !prev;
        put_varint(buf, &mut at, zigzag(s.parent, s.id), far);
        let dt = zigzag(last.t_ns, s.t_ns);
        put_varint(buf, &mut at, dt, dt != 0);
        let ds = zigzag(last.subject, s.subject);
        put_varint(buf, &mut at, ds, ds != 0);
        put_varint(buf, &mut at, s.a, true);
        put_varint(buf, &mut at, s.b, true);
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        buf[0] = s.kind as u8
            | flag(gap != 0, ID_GAP)
            | flag(prev, PARENT_PREV)
            | flag(far, PARENT_FAR)
            | flag(dt != 0, T_MOVED)
            | flag(ds != 0, SUBJECT_MOVED);
        self.open += at;
        self.len += 1;
        self.last = Anchor {
            t_ns: s.t_ns,
            id: s.id,
            subject: s.subject,
        };
    }

    /// Appends `spans` in order.
    pub fn extend_from_slice(&mut self, spans: &[SpanRecord]) {
        for &s in spans {
            self.push(s);
        }
    }

    /// The spans, decoded in push order.
    #[must_use]
    pub fn iter(&self) -> Unpack<'_> {
        Unpack {
            stream: self,
            next_chunk: 0,
            chunk: &[],
            at: 0,
            left: self.len,
            last: Anchor::default(),
        }
    }

    /// The coded bytes of chunk `i`.
    fn coded(&self, i: usize) -> &[u8] {
        let chunk = &self.chunks[i];
        if i + 1 == self.chunks.len() {
            &chunk[..self.open]
        } else {
            chunk
        }
    }
}

impl<'a> IntoIterator for &'a PackedSpans {
    type Item = SpanRecord;
    type IntoIter = Unpack<'a>;

    fn into_iter(self) -> Unpack<'a> {
        self.iter()
    }
}

/// The stream decoded into a slice, for walks that index it.
impl<'a> From<&'a PackedSpans> for std::borrow::Cow<'a, [SpanRecord]> {
    fn from(spans: &'a PackedSpans) -> Self {
        std::borrow::Cow::Owned(spans.iter().collect())
    }
}

/// The decoding iterator of [`PackedSpans::iter`].
#[derive(Debug, Clone)]
pub struct Unpack<'a> {
    stream: &'a PackedSpans,
    next_chunk: usize,
    chunk: &'a [u8],
    at: usize,
    left: usize,
    last: Anchor,
}

impl Iterator for Unpack<'_> {
    type Item = SpanRecord;

    fn next(&mut self) -> Option<SpanRecord> {
        if self.left == 0 {
            return None;
        }
        if self.at == self.chunk.len() {
            self.chunk = self.stream.coded(self.next_chunk);
            self.next_chunk += 1;
            self.at = 0;
        }
        let (bytes, at) = (self.chunk, &mut self.at);
        let head = bytes[*at];
        *at += 1;
        let last = self.last;
        let id = if head & ID_GAP == 0 {
            last.id.wrapping_add(1)
        } else {
            unzigzag(last.id.wrapping_add(1), take_varint(bytes, at))
        };
        let parent = match head & PARENT {
            0 => 0,
            PARENT_PREV => id.wrapping_sub(1),
            _ => id.wrapping_sub(unzigzag(0, take_varint(bytes, at))),
        };
        let t_ns = if head & T_MOVED == 0 {
            last.t_ns
        } else {
            unzigzag(last.t_ns, take_varint(bytes, at))
        };
        let subject = if head & SUBJECT_MOVED == 0 {
            last.subject
        } else {
            unzigzag(last.subject, take_varint(bytes, at))
        };
        let a = take_varint(bytes, at);
        let b = take_varint(bytes, at);
        self.left -= 1;
        self.last = Anchor { t_ns, id, subject };
        Some(SpanRecord {
            t_ns,
            id,
            parent,
            kind: KINDS[usize::from(head & 7)],
            subject,
            a,
            b,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Unpack<'_> {}

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

    #[test]
    fn kind_codes_are_discriminants() {
        for (i, k) in KINDS.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k}");
        }
    }

    /// Any record sequence packs and unpacks exactly: ids that repeat,
    /// jump or run backwards, parents ahead of their child, time and
    /// subjects that fall, and the extremes of every field, across
    /// several chunks.
    #[test]
    fn packed_spans_roundtrip_any_stream() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let edge = [0, 1, 2, 127, 128, u64::MAX - 1, u64::MAX, 1 << 63];
        let mut want = Vec::new();
        let mut id = 0u64;
        for i in 0..40_000u64 {
            let r = next();
            // Mostly run-like records, with every kind of outlier mixed in.
            id = match r % 7 {
                0 => edge[(r >> 8) as usize % edge.len()],
                1 => id.wrapping_sub(r >> 60),
                _ => id.wrapping_add(1),
            };
            let pick = |v: u64| match (v >> 3) % 5 {
                0 => edge[(v >> 11) as usize % edge.len()],
                1 => v,
                _ => v >> 40,
            };
            want.push(SpanRecord {
                t_ns: if r % 5 == 0 { pick(next()) } else { i * 1_000 },
                id,
                parent: match r % 4 {
                    0 => 0,
                    1 => id.wrapping_sub(1),
                    _ => pick(next()),
                },
                kind: KINDS[(r >> 32) as usize % KINDS.len()],
                subject: pick(next()),
                a: pick(next()),
                b: pick(next()),
            });
        }
        let mut packed = PackedSpans::new();
        assert!(packed.is_empty() && packed.iter().next().is_none());
        packed.extend_from_slice(&want[..1]);
        for &s in &want[1..] {
            packed.push(s);
        }
        assert!(packed.chunks.len() > 1, "the stream spans chunks");
        assert!(packed.chunks.iter().all(|c| c.capacity() == CHUNK));
        let full = &packed.chunks[..packed.chunks.len() - 1];
        assert!(full.iter().all(|c| c.len() + MAX_CODED > CHUNK));
        assert_eq!(packed.len(), want.len());
        assert_eq!(packed.iter().len(), want.len());
        let got: Vec<SpanRecord> = packed.iter().collect();
        assert_eq!(got, want);
        let cow: std::borrow::Cow<'_, [SpanRecord]> = (&packed).into();
        assert_eq!(&*cow, &want[..]);
    }

    /// A run's shape (ids up by one, an arrival, its admission, a
    /// completion naming an admission further back) packs into a few
    /// bytes a span.
    #[test]
    fn run_shaped_streams_pack_small() {
        let mut packed = PackedSpans::new();
        let mut id = 0;
        for flow in 0..10_000u64 {
            let t = flow * 86_000_000;
            let mut span = |kind, parent, a, b| {
                id += 1;
                packed.push(SpanRecord {
                    t_ns: t,
                    id,
                    parent,
                    kind,
                    subject: flow,
                    a,
                    b,
                });
                id
            };
            let arrive = span(SpanKind::FlowArrive, 0, flow % 4, 100_000 + flow);
            let admit = span(SpanKind::Admit, arrive, 2, 3);
            // The completion names the admission before this one.
            let named = if flow == 0 { admit } else { admit - 3 };
            span(SpanKind::FlowComplete, named, 25_000_000, 100_000 + flow);
        }
        let bytes: usize = (0..packed.chunks.len())
            .map(|i| packed.coded(i).len())
            .sum();
        assert!(bytes < 13 * packed.len(), "{bytes} bytes");
        let back: Vec<SpanRecord> = packed.iter().collect();
        assert_eq!(back.len(), 30_000);
        assert_eq!((back[4].id, back[4].parent), (5, 4));
        assert_eq!((back[5].id, back[5].parent), (6, 2));
    }
}
