//! Every-truncation suite for the three commit-log formats: the explore
//! checkpoint, the soak log and the warehouse log (DESIGN.md §12).
//!
//! For one log per format, every cut `0..=len` must repair to exactly the
//! fold of the commit blocks that lie wholly before the cut, or be refused
//! only while the header itself is cut. Repair is idempotent, and a
//! committed line whose record keyword is corrupted is refused rather than
//! dropped as a torn tail.

use raceline::helgrind_core::{
    AnyDetector, DetectorConfig, ExploreCheckpoint, LocationHit, Report, ReportKind, StackFrame,
    SuppressionSet,
};
use raceline::sipsim::{run_phase, PhaseEnd, SoakLog, SoakSpec};
use raceline_warehouse::wlog::TraceWarnings;
use raceline_warehouse::WarehouseLog;

/// What a format's repair yields: a canonical rendering of the folded
/// state, the committed prefix's length, and whether anything was dropped.
type Repair = fn(&str) -> Result<(String, usize, bool), String>;

/// One log, its header length, the end offset of each commit block, and
/// the canonical state after folding the first `k` blocks (`k = 0..=n`).
struct Log {
    name: &'static str,
    text: String,
    header_len: usize,
    commits: Vec<usize>,
    folds: Vec<String>,
    repair: Repair,
}

fn check(log: &Log) {
    let Log { name, text, header_len, commits, folds, repair } = log;
    assert_eq!(folds.len(), commits.len() + 1, "{name}: one fold per commit prefix");
    for cut in 0..=text.len() {
        let torn = &text[..cut];
        let k = commits.iter().filter(|&&end| end <= cut).count();
        match repair(torn) {
            Err(e) => assert!(cut < *header_len, "{name}: cut {cut} refused: {e}"),
            Ok((state, committed, repaired)) => {
                assert!(cut >= *header_len, "{name}: cut {cut} inside the header repaired");
                assert_eq!(state, folds[k], "{name}: cut {cut} is not the fold of {k} block(s)");
                let want = if k == 0 { *header_len } else { commits[k - 1] };
                assert_eq!(committed, want, "{name}: cut {cut} committed prefix");
                assert_eq!(repaired, committed < cut, "{name}: cut {cut} repaired flag");
                let again = repair(&torn[..committed]);
                let want = Ok((state, committed, false));
                assert_eq!(again, want, "{name}: cut {cut} repair not idempotent");
            }
        }
    }
    // Corrupt the keyword of each committed line before the last commit
    // record: real corruption, not a torn tail.
    let last_commit = text[..text.len() - 1].rfind('\n').map_or(0, |p| p + 1);
    for start in std::iter::once(0).chain(text.match_indices('\n').map(|(p, _)| p + 1)) {
        if start >= last_commit {
            break;
        }
        let mut bad = text.clone().into_bytes();
        bad[start] = b'#';
        let bad = String::from_utf8(bad).unwrap();
        assert!(repair(&bad).is_err(), "{name}: corrupt line at byte {start} was accepted");
    }
}

fn hostile_report(kind: ReportKind, file: &str, line: u32, func: &str, details: &str) -> Report {
    Report {
        kind,
        tid: 1,
        file: file.to_string(),
        line,
        func: func.to_string(),
        addr: 0x1040,
        stack: vec![StackFrame { func: func.to_string(), file: file.to_string(), line }],
        block: None,
        details: details.to_string(),
        truncated: false,
    }
}

/// The explore checkpoint is rewritten whole on every save: one block,
/// committed by its final `next_index` line.
#[test]
fn explore_checkpoint_repairs_every_cut_to_a_committed_prefix() {
    let mut ck = ExploreCheckpoint {
        base_seed: 0xACE,
        runs: 12,
        next_index: 9,
        clean_runs: 7,
        deadlocked_runs: 1,
        failed_runs: 1,
        fuel_exhausted_runs: 1,
        slots_used: 4242,
        locations: Vec::new(),
    };
    for (i, (file, func, details)) in [
        ("a b.cpp", "op<>", "Previous state: shared RO, locks held: {BUSLOCK}"),
        ("we\tird\\x.cpp", "f\ng", "line one\n\tline\\two"),
    ]
    .into_iter()
    .enumerate()
    {
        ck.locations.push(LocationHit {
            report: hostile_report(ReportKind::RaceWrite, file, 7 + i as u32, func, details),
            hits: 5 - i,
            first_run: 0,
        });
    }
    let text = ck.render();
    let repair: Repair = |t| {
        ExploreCheckpoint::parse_repair(t).map(|(ck, c, repaired)| (ck.render(), c.len(), repaired))
    };
    check(&Log {
        name: "explore",
        header_len: text.find('\n').unwrap() + 1,
        commits: vec![text.len()],
        folds: vec![ExploreCheckpoint::default().render(), text.clone()],
        text,
        repair,
    });
}

fn soak_state(log: &SoakLog) -> String {
    format!("{:?}\n{:?}\n{}", log.phases, log.catalogue, log.render_summary(true))
}

#[test]
fn soak_log_repairs_every_cut_to_a_committed_prefix() {
    let spec = SoakSpec { dialogs: 240, phases: 3, seed: 0x50A4_0001, ..Default::default() };
    let mut log = SoakLog::new(&spec);
    let mut text = log.header();
    let header_len = text.len();
    let (mut commits, mut folds) = (Vec::new(), vec![soak_state(&log)]);
    for phase in 0..spec.phases {
        let det = AnyDetector::by_name("hybrid", DetectorConfig::hybrid(), SuppressionSet::new());
        let mut out = run_phase(&spec, phase, Some(det), true, None);
        if phase == 1 {
            // Free text in a commit record must survive escaping.
            out.stats.end = PhaseEnd::GuestError("bad\tfree\nof 0x10 \\ here".to_string());
        }
        assert!(!out.reports.is_empty(), "phase {phase}: a block with warn lines");
        text.push_str(&SoakLog::phase_block(&out));
        log.fold_phase(&out);
        commits.push(text.len());
        folds.push(soak_state(&log));
    }
    let repair: Repair = |t| {
        SoakLog::parse_repair(t).map(|(log, c, repaired)| (soak_state(&log), c.len(), repaired))
    };
    check(&Log { name: "soak", text, header_len, commits, folds, repair });
}

fn warehouse_state(log: &WarehouseLog) -> String {
    let WarehouseLog { engine, hb_reference, entries, traces, suppressed } = log;
    format!("{engine} {hb_reference}\n{entries:?}\n{traces:?}\n{suppressed:?}")
}

/// Ingest blocks (`warn` lines committed by a `trace` line) interleaved
/// with self-committing `suppress` lines.
#[test]
fn warehouse_log_repairs_every_cut_to_a_committed_prefix() {
    enum Rec<'a> {
        Ingest(u64, u64, u64, &'a TraceWarnings),
        Suppress(&'a str, bool),
    }
    let w1: TraceWarnings = vec![
        (ReportKind::RaceWrite, "a.cpp".to_string(), 10, "work".to_string()),
        (ReportKind::LockOrderCycle, "b.cpp".to_string(), 20, "g".to_string()),
    ];
    let w2: TraceWarnings = vec![(
        ReportKind::RaceRead,
        "we\tird\npath\\x.cpp".to_string(),
        7,
        "op\terator<<".to_string(),
    )];
    let hostile = "RaceRead|we\tird\npath\\x.cpp|7|op\terator<<";
    let mut log = WarehouseLog::new("hwlc-dr", false);
    let mut text = log.header();
    let header_len = text.len();
    let (mut commits, mut folds) = (Vec::new(), vec![warehouse_state(&log)]);
    for rec in [
        Rec::Ingest(1, 0xabc, 100, &w1),
        Rec::Suppress("RaceWrite|a.cpp|10|work", true),
        Rec::Ingest(2, 0xdef, 50, &w2),
        Rec::Ingest(2, 0x123, 9, &Vec::new()),
        Rec::Suppress("RaceWrite|a.cpp|10|work", false),
        Rec::Suppress(hostile, true),
    ] {
        match rec {
            Rec::Ingest(build, hash, events, w) => {
                text.push_str(&WarehouseLog::ingest_block(build, hash, events, w));
                log.fold_ingest(build, hash, events, w);
            }
            Rec::Suppress(fp, on) => {
                text.push_str(&WarehouseLog::suppress_line(fp, on));
                log.fold_suppress(fp, on);
            }
        }
        commits.push(text.len());
        folds.push(warehouse_state(&log));
    }
    let repair: Repair = |t| {
        WarehouseLog::parse_repair(t, Some(("hwlc-dr", false)))
            .map(|(log, c, repaired)| (warehouse_state(&log), c.len(), repaired))
    };
    check(&Log { name: "warehouse", text, header_len, commits, folds, repair });
}
