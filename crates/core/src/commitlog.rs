//! The workspace's one crash-safe commit log (DESIGN.md §12).
//!
//! Three durable files share it: the explore checkpoint, the soak log and
//! the warehouse log. Each is a text file of newline-terminated records
//! with tab-separated fields; each names its header lines and its commit
//! record in a [`Framing`]. They share one rule:
//!
//! * a line counts only when it ends in a newline;
//! * the log is cut back to its last newline-terminated commit record.
//!
//! Records before a commit belong to its block, so a crash anywhere in an
//! append loses only the uncommitted block, never committed state.
//! Writers go through [`create`] and [`append`], which flush after every
//! line, so an interrupt tears at most the final line. A repaired prefix
//! is written back with [`replace`] (temp file + rename), so a crash
//! during the repair leaves either the old bytes or the new ones.

use std::io::Write;
use std::path::Path;

use crate::report::ReportKind;

/// Escape backslashes, tabs and newlines so arbitrary paths, function
/// names and descriptions survive a tab-separated line record.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`esc`].
pub fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// How one log format frames its commits.
pub struct Framing {
    /// Lines that open every log (magic, provenance). They commit
    /// themselves; a log torn inside them has nothing to resume from.
    pub header_lines: usize,
    /// Whether a newline-terminated record line commits its block.
    pub is_commit: fn(&str) -> bool,
}

impl Framing {
    /// The committed prefix of `text`: the header plus everything up to
    /// and including the last newline-terminated commit record. Errors
    /// only when the header itself is not whole.
    pub fn committed<'a>(&self, text: &'a str) -> Result<&'a str, String> {
        let mut end = None;
        let mut pos = 0;
        for (n, line) in text.split_inclusive('\n').enumerate() {
            if !line.ends_with('\n') {
                break;
            }
            pos += line.len();
            if n + 1 == self.header_lines || (n >= self.header_lines && (self.is_commit)(line)) {
                end = Some(pos);
            }
        }
        end.map(|e| &text[..e]).ok_or_else(|| "log torn inside its header".to_string())
    }
}

/// One record line of a committed log: a keyword, one space, then
/// tab-separated fields. The formats keep only their grammar: which
/// keywords exist and what their fields mean.
pub struct Record<'a> {
    /// 1-based line number, for errors.
    line: usize,
    pub key: &'a str,
    /// Everything after the keyword, unsplit.
    pub rest: &'a str,
}

impl<'a> Record<'a> {
    /// A `line N: ...` error about this record.
    pub fn err(&self, what: impl std::fmt::Display) -> String {
        format!("line {}: {what}", self.line)
    }

    /// The fields, which must number exactly `N`.
    pub fn fields<const N: usize>(&self) -> Result<[&'a str; N], String> {
        let mut out = [""; N];
        let mut it = self.rest.split('\t');
        for slot in &mut out {
            *slot = it.next().ok_or_else(|| self.err(format!("{} needs {N} fields", self.key)))?;
        }
        match it.next() {
            None => Ok(out),
            Some(_) => Err(self.err(format!("{} has more than {N} fields", self.key))),
        }
    }

    /// A decimal number field.
    pub fn num<T: std::str::FromStr>(&self, field: &str) -> Result<T, String> {
        field.parse().map_err(|_| self.err(format!("bad number {field:?}")))
    }

    /// A `0`/`1` flag field.
    pub fn flag(&self, field: &str) -> Result<bool, String> {
        match field {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.err(format!("bad flag {field:?}"))),
        }
    }

    /// A report-kind code field.
    pub fn kind(&self, field: &str) -> Result<ReportKind, String> {
        ReportKind::from_code(field).ok_or_else(|| self.err(format!("unknown kind {field:?}")))
    }
}

/// The record lines of `text` after its first line, which must be `magic`.
pub fn records<'a>(
    text: &'a str,
    magic: &str,
) -> Result<impl Iterator<Item = Result<Record<'a>, String>>, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l == magic => {}
        other => return Err(format!("bad header {:?}, expected {magic:?}", other.map(|(_, l)| l))),
    }
    Ok(lines.map(|(i, l)| {
        let (key, rest) = l.split_once(' ').ok_or_else(|| format!("line {}: no record", i + 1))?;
        Ok(Record { line: i + 1, key, rest })
    }))
}

/// Crash-injection hook for the resume tests: with
/// `RACELINE_TEST_TORN_WRITE=N` in the environment, the Nth line (counted
/// from 0, process-wide, across every log) written through
/// [`write_lines`] is cut in half, flushed, and the process exits 42 — a
/// reproducible crash mid-write.
fn torn_write_limit() -> Option<usize> {
    static LIMIT: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *LIMIT
        .get_or_init(|| std::env::var("RACELINE_TEST_TORN_WRITE").ok().and_then(|v| v.parse().ok()))
}

/// Write `rendered` line by line, flushing after every line so an
/// interrupt tears at most the final line.
fn write_lines(w: &mut impl Write, rendered: &str) -> std::io::Result<()> {
    static WRITTEN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    for line in rendered.split_inclusive('\n') {
        let n = WRITTEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if torn_write_limit() == Some(n) {
            w.write_all(&line.as_bytes()[..line.len() / 2])?;
            w.flush()?;
            std::process::exit(42);
        }
        w.write_all(line.as_bytes())?;
        w.flush()?;
    }
    w.flush()
}

/// Create (or truncate) `path` and write `rendered` through [`write_lines`].
pub fn create(path: &Path, rendered: &str) -> std::io::Result<()> {
    write_lines(&mut std::fs::File::create(path)?, rendered)
}

/// Append `rendered` to the existing log at `path` through [`write_lines`].
pub fn append(path: &Path, rendered: &str) -> std::io::Result<()> {
    write_lines(&mut std::fs::OpenOptions::new().append(true).open(path)?, rendered)
}

/// Replace `path` with a repaired `committed` prefix atomically: write a
/// sibling temp file, then rename it over the log.
pub fn replace(path: &Path, committed: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("repair.tmp");
    std::fs::write(&tmp, committed)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAMING: Framing = Framing { header_lines: 2, is_commit: |l| l.starts_with("commit ") };

    #[test]
    fn escaping_round_trips_hostile_text() {
        for s in ["", "plain", "a\tb\nc\\d", "\\", "trailing\\", "\\n literal", "é\t✓"] {
            assert_eq!(unesc(&esc(s)), s);
            assert!(!esc(s).contains(['\t', '\n']));
        }
    }

    #[test]
    fn only_newline_terminated_commits_count() {
        let log = "magic\nspec x\nrec a\ncommit 1\nrec b\ncommit 2\nrec c\n";
        assert_eq!(FRAMING.committed(log), Ok("magic\nspec x\nrec a\ncommit 1\nrec b\ncommit 2\n"));
        // A torn commit record does not commit, even when it would parse.
        assert_eq!(
            FRAMING.committed("magic\nspec x\ncommit 1\ncommit 2"),
            Ok("magic\nspec x\ncommit 1\n")
        );
        assert_eq!(FRAMING.committed("magic\nspec x\nrec a"), Ok("magic\nspec x\n"));
        assert!(FRAMING.committed("magic\nspec x").is_err());
        assert!(FRAMING.committed("").is_err());
    }
}
