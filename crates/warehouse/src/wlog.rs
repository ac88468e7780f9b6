//! The warehouse's durable state: an append-only, newline-committed line
//! log, the same crash-safety idiom as the soak log and the explore
//! checkpoint (§12). Layout per ingested trace: the trace's `warn` lines
//! first, then one `trace` line acting as the commit record — a crash
//! anywhere during an append loses only uncommitted lines, never committed
//! state. `suppress` lines are single-line and therefore self-committing.
//!
//! `parse_repair` applies the shared [`helgrind_core::commitlog`] rule:
//! the log is cut back to its last newline-terminated `trace` or
//! `suppress` line, and errors in committed lines still propagate — those
//! are real corruption, not a crash artifact.

use std::collections::{BTreeMap, BTreeSet};

use helgrind_core::commitlog::{self, esc, unesc, Framing};
use helgrind_core::ReportKind;

pub const LOG_MAGIC: &str = "raceline-warehouse-log v1";

/// Two header lines (magic, engine provenance); `trace` lines commit an
/// ingest block and `suppress` lines commit themselves.
const FRAMING: Framing = Framing {
    header_lines: 2,
    is_commit: |l| l.starts_with("trace ") || l.starts_with("suppress "),
};

/// One fingerprint-deduped warning location in the warehouse catalogue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarehouseEntry {
    pub kind: ReportKind,
    pub file: String,
    pub line: u32,
    pub func: String,
    /// Distinct ingested traces that reported this location.
    pub hits: u64,
    /// Every build id that reported it. First-seen = min, last-seen = max;
    /// a set (not a min/max pair) so per-build warning counts and
    /// build-to-build diffs fall out of the same fold.
    pub builds: BTreeSet<u64>,
}

impl WarehouseEntry {
    pub fn fingerprint(&self) -> String {
        format!("{}|{}|{}|{}", self.kind.code(), self.file, self.line, self.func)
    }

    pub fn first_build(&self) -> u64 {
        self.builds.first().copied().unwrap_or(0)
    }

    pub fn last_build(&self) -> u64 {
        self.builds.last().copied().unwrap_or(0)
    }
}

/// Per-trace accounting, keyed by `(build, content hash)` — the exact
/// dedup identity for uploads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    pub events: u64,
    pub warnings: u64,
}

/// The durable warehouse state, a pure fold over the log's committed
/// blocks. Every container is a BTree keyed by value (fingerprint,
/// `(build, hash)`), and every fold step is commutative — which is what
/// makes the rendered catalogue a function of the *set* of ingested
/// traces, independent of upload order and worker interleaving.
#[derive(Clone, Debug, Default)]
pub struct WarehouseLog {
    /// Engine-config provenance: detector preset name.
    pub engine: String,
    /// Engine-config provenance: HB read-state representation toggle.
    pub hb_reference: bool,
    /// Fingerprint → catalogue entry.
    pub entries: BTreeMap<String, WarehouseEntry>,
    /// `(build, FNV-1a-64 of the trace bytes)` → per-trace accounting.
    pub traces: BTreeMap<(u64, u64), TraceMeta>,
    /// Fingerprints currently marked suppressed (triage state, not the
    /// Valgrind-style pattern suppressions applied at analysis time).
    pub suppressed: BTreeSet<String>,
}

/// The warnings of one analyzed trace, ready to commit: `(kind, file,
/// line, func)` per distinct fingerprint (the report sink already dedups
/// within a trace by kind + location).
pub type TraceWarnings = Vec<(ReportKind, String, u32, String)>;

impl WarehouseLog {
    pub fn new(engine: &str, hb_reference: bool) -> Self {
        WarehouseLog { engine: engine.to_string(), hb_reference, ..Self::default() }
    }

    /// The log header: magic + engine-config provenance. Written once at
    /// creation; [`Self::parse`] rejects a log whose provenance does not
    /// match what the serving process was configured with — mixing engine
    /// configs in one warehouse would break fingerprint comparability.
    pub fn header(&self) -> String {
        format!(
            "{LOG_MAGIC}\nengine {}\t{}\n",
            esc(&self.engine),
            if self.hb_reference { 1 } else { 0 }
        )
    }

    /// Render one ingest block: the trace's `warn` lines, then the `trace`
    /// commit line. Appending this (with per-line flushes) is the only way
    /// trace state enters the log.
    pub fn ingest_block(build: u64, hash: u64, events: u64, warnings: &TraceWarnings) -> String {
        let mut s = String::new();
        for (kind, file, line, func) in warnings {
            s.push_str(&format!("warn {}\t{line}\t{}\t{}\n", kind.code(), esc(file), esc(func)));
        }
        s.push_str(&format!("trace {build}\t{hash:016x}\t{events}\t{}\n", warnings.len()));
        s
    }

    /// Render one suppression flip (self-committing single line).
    pub fn suppress_line(fingerprint: &str, on: bool) -> String {
        format!("suppress {}\t{}\n", u8::from(on), esc(fingerprint))
    }

    /// Fold one committed ingest into the in-memory state. Commutative:
    /// entry hits count distinct traces, builds are a set, traces are keyed
    /// by content identity.
    pub fn fold_ingest(&mut self, build: u64, hash: u64, events: u64, warnings: &TraceWarnings) {
        for (kind, file, line, func) in warnings {
            let fp = format!("{}|{file}|{line}|{func}", kind.code());
            let e = self.entries.entry(fp).or_insert_with(|| WarehouseEntry {
                kind: *kind,
                file: file.clone(),
                line: *line,
                func: func.clone(),
                hits: 0,
                builds: BTreeSet::new(),
            });
            e.hits += 1;
            e.builds.insert(build);
        }
        self.traces.insert((build, hash), TraceMeta { events, warnings: warnings.len() as u64 });
    }

    /// Fold one suppression flip.
    pub fn fold_suppress(&mut self, fingerprint: &str, on: bool) -> bool {
        if on {
            self.suppressed.insert(fingerprint.to_string())
        } else {
            self.suppressed.remove(fingerprint)
        }
    }

    /// Strict parse of a complete log. `expect_engine` pins the provenance
    /// the serving process was configured with.
    pub fn parse(text: &str, expect_engine: Option<(&str, bool)>) -> Result<Self, String> {
        if FRAMING.committed(text)? != text {
            return Err("log has an uncommitted tail".to_string());
        }
        Self::fold(text, expect_engine)
    }

    /// The record grammar, over a committed prefix.
    fn fold(text: &str, expect_engine: Option<(&str, bool)>) -> Result<Self, String> {
        let mut recs = commitlog::records(text, LOG_MAGIC)?;
        let (engine, hb_reference) = match recs.next().transpose()? {
            Some(rec) if rec.key == "engine" => {
                let [name, hb] = rec.fields()?;
                (unesc(name), rec.flag(hb)?)
            }
            _ => return Err("missing engine line".to_string()),
        };
        if let Some((want_engine, want_hbref)) = expect_engine {
            if engine != want_engine || hb_reference != want_hbref {
                return Err(format!(
                    "engine mismatch: log has {engine}/hb_reference={hb_reference}, \
                     server configured {want_engine}/hb_reference={want_hbref}"
                ));
            }
        }
        let mut log = WarehouseLog::new(&engine, hb_reference);
        // `warn` records accumulate here until their `trace` commit record.
        let mut pending: TraceWarnings = Vec::new();
        for rec in recs {
            let rec = rec?;
            match rec.key {
                "warn" => {
                    let [kind, line, file, func] = rec.fields()?;
                    pending.push((rec.kind(kind)?, unesc(file), rec.num(line)?, unesc(func)));
                }
                "trace" => {
                    let [build, hash, events, warnings] = rec.fields()?;
                    let hash = u64::from_str_radix(hash, 16)
                        .map_err(|_| rec.err(format!("bad trace hash {hash:?}")))?;
                    let warnings: usize = rec.num(warnings)?;
                    if warnings != pending.len() {
                        return Err(rec.err(format!(
                            "trace commits {warnings} warning(s), block has {}",
                            pending.len()
                        )));
                    }
                    log.fold_ingest(rec.num(build)?, hash, rec.num(events)?, &pending);
                    pending.clear();
                }
                "suppress" => {
                    let [on, fingerprint] = rec.fields()?;
                    log.fold_suppress(&unesc(fingerprint), rec.flag(on)?);
                }
                other => return Err(rec.err(format!("unrecognized record {other:?}"))),
            }
        }
        if !pending.is_empty() {
            return Err(format!("{} warn line(s) without a trace commit", pending.len()));
        }
        Ok(log)
    }

    /// Tolerant parse: cut back to the committed prefix first, so a torn
    /// final line and `warn` lines whose `trace` commit line was lost are
    /// dropped. Returns the log, the committed prefix to rewrite the file
    /// with, and whether anything was dropped. Interior errors still
    /// propagate.
    pub fn parse_repair<'a>(
        text: &'a str,
        expect_engine: Option<(&str, bool)>,
    ) -> Result<(Self, &'a str, bool), String> {
        let committed = FRAMING.committed(text)?;
        Ok((Self::fold(committed, expect_engine)?, committed, committed.len() < text.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (WarehouseLog, String) {
        let mut log = WarehouseLog::new("hwlc-dr", false);
        let mut text = log.header();
        let w1: TraceWarnings = vec![
            (ReportKind::RaceWrite, "a.cpp".to_string(), 10, "f".to_string()),
            (ReportKind::LockOrderCycle, "b.cpp".to_string(), 20, "g".to_string()),
        ];
        text.push_str(&WarehouseLog::ingest_block(1, 0xabc, 100, &w1));
        log.fold_ingest(1, 0xabc, 100, &w1);
        let w2: TraceWarnings =
            vec![(ReportKind::RaceWrite, "a.cpp".to_string(), 10, "f".to_string())];
        text.push_str(&WarehouseLog::ingest_block(2, 0xdef, 50, &w2));
        log.fold_ingest(2, 0xdef, 50, &w2);
        text.push_str(&WarehouseLog::suppress_line("RaceWrite|a.cpp|10|f", true));
        log.fold_suppress("RaceWrite|a.cpp|10|f", true);
        (log, text)
    }

    #[test]
    fn round_trip() {
        let (log, text) = sample();
        let parsed = WarehouseLog::parse(&text, Some(("hwlc-dr", false))).unwrap();
        assert_eq!(parsed.entries, log.entries);
        assert_eq!(parsed.traces, log.traces);
        assert_eq!(parsed.suppressed, log.suppressed);
        let e = &parsed.entries["RaceWrite|a.cpp|10|f"];
        assert_eq!(e.hits, 2);
        assert_eq!((e.first_build(), e.last_build()), (1, 2));
    }

    #[test]
    fn engine_mismatch_rejected() {
        let (_, text) = sample();
        assert!(WarehouseLog::parse(&text, Some(("djit", false))).is_err());
        assert!(WarehouseLog::parse(&text, Some(("hwlc-dr", true))).is_err());
        assert!(WarehouseLog::parse(&text, None).is_ok());
    }

    #[test]
    fn torn_suppress_line_is_not_committed() {
        // `sample` ends with a suppress line: tear it mid-fingerprint.
        let (log, text) = sample();
        let torn = &text[..text.len() - 4];
        let (back, committed, repaired) = WarehouseLog::parse_repair(torn, None).unwrap();
        assert!(repaired, "a torn suppress line is not a shorter fingerprint");
        assert!(back.suppressed.is_empty());
        assert_eq!(back.traces, log.traces);
        assert!(
            committed.ends_with('\n') && committed.lines().last().unwrap().starts_with("trace 2\t")
        );
    }

    #[test]
    fn interior_corruption_still_errors() {
        let (_, text) = sample();
        let bad = text.replace("trace 1\t", "trqce 1\t");
        assert!(WarehouseLog::parse_repair(&bad, None).is_err());
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let mut log = WarehouseLog::new("hwlc-dr", false);
        let mut text = log.header();
        let w: TraceWarnings = vec![(
            ReportKind::RaceRead,
            "we\tird\npath\\x.cpp".to_string(),
            7,
            "op\terator<<".to_string(),
        )];
        text.push_str(&WarehouseLog::ingest_block(3, 1, 9, &w));
        log.fold_ingest(3, 1, 9, &w);
        let parsed = WarehouseLog::parse(&text, None).unwrap();
        assert_eq!(parsed.entries, log.entries);
    }
}
