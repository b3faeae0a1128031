//! The harness's own span recorder: `(name, start, end, parent)` around
//! each public call the benchmark makes, kept in memory and written out
//! when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified call name, e.g. `routing.prefetch`.
    pub name: &'static str,
    /// Start, s.
    pub start_s: f64,
    /// End, s.
    pub end_s: f64,
    /// Index of the enclosing span in [`Spans::records`], if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    /// Duration, s.
    #[must_use]
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span stream. A disabled recorder only runs the closures.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    open: Vec<usize>,
    recs: Vec<SpanRec>,
}

impl Spans {
    /// A recorder; `on = false` records nothing.
    #[must_use]
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            open: Vec::new(),
            recs: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`; spans `f` opens on the
    /// recorder it is handed nest under this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.recs.len();
        self.recs.push(SpanRec {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.recs[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every closed span, in start order.
    #[must_use]
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Summed duration of every span named `name`, s.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(SpanRec::dur_s)
            .fold(0.0, |a, b| a + b)
    }

    /// The stream as TSV: `id  parent  name  start_s  end_s  self_s`,
    /// where self time is the duration minus what child spans cover.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut child_s = vec![0.0; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_s[p] += r.dur_s();
            }
        }
        let mut out = String::from("# id\tparent\tname\tstart_s\tend_s\tself_s\n");
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{:.9}\t{:.9}\t{:.9}",
                r.name,
                r.start_s,
                r.end_s,
                r.dur_s() - child_s[i]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total_by_name() {
        let mut tr = Spans::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
            tr.span("inner", |_| ());
        });
        let recs = tr.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].parent, None);
        assert_eq!(recs[1].parent, Some(0));
        assert_eq!(recs[2].parent, Some(0));
        assert!(tr.total_s("inner") <= tr.total_s("outer"));
        assert_eq!(tr.to_tsv().lines().count(), 4);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut tr = Spans::new(false);
        assert_eq!(tr.span("x", |tr| tr.span("y", |_| 3)), 3);
        assert!(tr.records().is_empty());
    }
}
