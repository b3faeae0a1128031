//! The one escaping-safe writer behind every TSV / JSON-lines export.
//!
//! Four hand-rolled emitters grew up around the repo (the metric
//! snapshot, the flow tracer, the run manifest, and the experiment
//! exports); each interpolated fields straight into `format!` strings,
//! so a metric name or label containing a tab or newline would silently
//! corrupt the row structure. This module centralizes the two formats:
//!
//! * [`Tsv`] — tab-separated rows. Every cell passes through
//!   [`tsv_field`], which escapes the four characters that would break a
//!   row (`\t`, `\n`, `\r`, `\\`) C-style. Existing outputs contain none
//!   of them, so routing the emitters through here is byte-identical.
//! * [`json_escape`] — JSON string-literal escaping for the `.jsonl`
//!   manifests and metric exports.
//!
//! [`write_tsv`] is the shared file shape (`# `-prefixed header line,
//! then one row per line) used by the experiment exports, span streams,
//! and attribution tables; [`TsvFile`] writes the same shape row by row.

use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Escapes one TSV cell: `\t`, `\n`, `\r` and `\\` become two-character
/// C-style sequences so a row always has exactly as many tabs as
/// separators. Borrowed (zero-copy) when nothing needs escaping — the
/// common case for every emitter in this repo.
#[must_use]
pub fn tsv_field(s: &str) -> Cow<'_, str> {
    if !s.contains(['\t', '\n', '\r', '\\']) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An in-memory TSV document builder. Cells are escaped per
/// [`tsv_field`]; rows end with `\n`.
#[derive(Debug, Default)]
pub struct Tsv {
    buf: String,
}

impl Tsv {
    /// An empty document.
    #[must_use]
    pub fn new() -> Tsv {
        Tsv::default()
    }

    /// Appends one row, escaping every cell.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut first = true;
        for cell in cells {
            if !first {
                self.buf.push('\t');
            }
            first = false;
            self.buf.push_str(&tsv_field(cell.as_ref()));
        }
        self.buf.push('\n');
    }

    /// Appends one pre-formed line verbatim (callers own its escaping —
    /// used to nest already-escaped sub-documents, e.g. manifest
    /// `metric` rows wrapping snapshot rows).
    pub fn raw_line(&mut self, line: &str) {
        self.buf.push_str(line);
        self.buf.push('\n');
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Formats one TSV row (escaped cells joined by tabs, no trailing
/// newline) — the per-record shape `TraceRecord::to_tsv` and
/// `SpanRecord::to_tsv` return.
#[must_use]
pub fn tsv_row<I, S>(cells: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut tsv = Tsv::new();
    tsv.row(cells);
    let mut s = tsv.finish();
    s.pop();
    s
}

/// Writes `dir/name` as a TSV file: a `# `-prefixed header line, then
/// one (already formatted, escaped) row per line. Creates `dir` if
/// needed and returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_tsv(
    dir: &Path,
    name: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> io::Result<PathBuf> {
    let mut file = TsvFile::create(dir, name, header)?;
    for row in rows {
        file.row(row)?;
    }
    file.finish()
}

/// A TSV file written row by row, in [`write_tsv`]'s shape, so a
/// producer can stream rows out without holding them.
pub struct TsvFile {
    path: PathBuf,
    out: io::BufWriter<fs::File>,
}

impl TsvFile {
    /// Creates `dir` if needed and `dir/name` with its `# header` line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(dir: &Path, name: &str, header: &str) -> io::Result<TsvFile> {
        fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let mut out = io::BufWriter::with_capacity(1 << 16, fs::File::create(&path)?);
        writeln!(out, "# {header}")?;
        Ok(TsvFile { path, out })
    }

    /// Appends one (already formatted, escaped) row.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn row(&mut self, row: impl fmt::Display) -> io::Result<()> {
        writeln!(self.out, "{row}")
    }

    /// Flushes the file and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        self.out.flush()?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_fields_borrow() {
        assert!(matches!(tsv_field("plain"), Cow::Borrowed(_)));
        assert_eq!(tsv_field("plain"), "plain");
    }

    #[test]
    fn hostile_fields_escape() {
        assert_eq!(tsv_field("a\tb"), "a\\tb");
        assert_eq!(tsv_field("a\nb\r"), "a\\nb\\r");
        assert_eq!(tsv_field("a\\b"), "a\\\\b");
    }

    #[test]
    fn rows_keep_their_cell_count() {
        let mut t = Tsv::new();
        t.row(["x", "evil\tcell", "y"]);
        let doc = t.finish();
        assert_eq!(doc, "x\tevil\\tcell\ty\n");
        assert_eq!(doc.trim_end().split('\t').count(), 3);
    }

    #[test]
    fn tsv_row_matches_builder() {
        assert_eq!(tsv_row(["5", "2", "retransmit"]), "5\t2\tretransmit");
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn write_tsv_emits_header_and_rows() {
        let dir = std::env::temp_dir().join(format!("obs-emit-{}", std::process::id()));
        let path = write_tsv(&dir, "t.tsv", "a\tb", vec!["1\t2".to_string()]).unwrap();
        let body = fs::read_to_string(&path).unwrap();
        assert_eq!(body, "# a\tb\n1\t2\n");
        let _ = fs::remove_dir_all(&dir);
    }
}
