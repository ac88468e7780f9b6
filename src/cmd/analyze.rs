//! `raceline analyze` and `raceline trace-diff`: detection over recorded
//! `.rltrace` files — no VM, no re-execution.

use super::check::{finish_run, print_engine_stats};
use super::{read_file, CmdError, Opts, EXIT_FINDINGS};
use helgrind_core::replay::{analyze_trace_bytes, analyze_trace_repair, warning_fingerprint};
use helgrind_core::{AnyDetector, Report, SuppressionSet};
use raceline_trace::format::TraceTermination;
use raceline_warehouse::{render_diff_json, DiffEntry};
use std::collections::BTreeMap;

/// `raceline analyze`: feed a recorded trace through any detector
/// configuration and print exactly what `raceline check` would have
/// printed inline.
pub(super) fn analyze(o: &Opts) -> Result<i32, CmdError> {
    let [(path, _)] = o.operands.as_slice() else {
        return Err(CmdError::Usage("analyze takes one trace".to_string()));
    };
    let bytes = read_file(path)?;
    let suppressions = o.suppressions()?;
    let detector =
        AnyDetector::by_name(&o.detector, o.detector_config(&o.detector)?, suppressions.clone());
    let jobs = o.jobs.max(1);
    let outcome = if o.repair {
        let (outcome, info) = analyze_trace_repair(&bytes, detector, jobs, o.from_epoch)
            .map_err(|e| format!("{path}: {e}"))?;
        if info.repaired {
            eprintln!(
                "repaired: dropped {} torn byte(s), analyzing {} intact epoch(s)",
                info.dropped_bytes, outcome.footer.epochs
            );
        }
        outcome
    } else {
        analyze_trace_bytes(&bytes, detector, jobs, o.from_epoch)
            .map_err(|e| format!("{path}: {e}"))?
    };
    eprintln!(
        "analyzed {} event(s) from {} epoch(s) [{}]",
        outcome.events, outcome.footer.epochs, o.detector
    );
    if o.stats {
        // Replay-side counters only: the trace is already filtered (or
        // not) at record time; analyze never re-filters.
        print_engine_stats(&outcome.engine_stats);
    }

    let dynamic: Vec<Report> =
        outcome.reports.into_iter().filter(|r| !suppressions.matches(r)).collect();
    let (end, faults) = (&outcome.footer.termination, outcome.footer.faults);
    let label = trace_label(end);
    Ok(finish_run(o, dynamic, outcome.truncated, end, label, faults, None))
}

/// The JSON `termination` label of a replayed run. The trace footer keeps
/// deadlock waits and the rendered guest error but not the full live
/// `Termination` value, so those two labels are summaries rather than the
/// live Debug string; the text output (the byte-identity contract) is
/// unaffected.
fn trace_label(t: &TraceTermination) -> String {
    match t {
        TraceTermination::AllExited => "AllExited".to_string(),
        TraceTermination::Deadlock(waits) => format!("Deadlock({} waiting)", waits.len()),
        TraceTermination::GuestError(e) => format!("GuestError({e})"),
        TraceTermination::FuelExhausted => "FuelExhausted".to_string(),
        TraceTermination::Unknown => "Unknown".to_string(),
    }
}

/// `raceline trace-diff`: analyze two traces (or one trace under two
/// detector configurations) and report warnings by stable fingerprint —
/// which are new, which are fixed. Exit 0 when the sets match, 1 when they
/// differ, 2 on error.
pub(super) fn trace_diff(o: &Opts) -> Result<i32, CmdError> {
    let [(old_path, _), (new_path, _)] = o.operands.as_slice() else {
        return Err(CmdError::Usage("trace-diff takes two traces".to_string()));
    };
    let detector_a = &o.detector;
    let detector_b = o.detector_b.as_ref().unwrap_or(detector_a);
    let analyze_one = |path: &str, name: &str| -> Result<BTreeMap<String, Report>, CmdError> {
        let bytes = read_file(path)?;
        let det = AnyDetector::by_name(name, o.detector_config(name)?, SuppressionSet::new());
        let outcome = analyze_trace_bytes(&bytes, det, o.jobs.max(1), 0)
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(outcome.reports.into_iter().map(|r| (warning_fingerprint(&r), r)).collect())
    };
    let old = analyze_one(old_path, detector_a)?;
    let new = analyze_one(new_path, detector_b)?;

    let fresh: Vec<(&String, &Report)> =
        new.iter().filter(|(k, _)| !old.contains_key(*k)).collect();
    let fixed: Vec<(&String, &Report)> =
        old.iter().filter(|(k, _)| !new.contains_key(*k)).collect();
    let unchanged = new.keys().filter(|k| old.contains_key(*k)).count();

    if o.json {
        // The warehouse `diff` command renders through the same function,
        // so served regression edges byte-match this output.
        let to_entries = |rs: &[(&String, &Report)]| -> Vec<DiffEntry> {
            rs.iter()
                .map(|(k, r)| DiffEntry {
                    fingerprint: (*k).clone(),
                    kind: r.kind,
                    file: r.file.clone(),
                    line: r.line,
                    func: r.func.clone(),
                })
                .collect()
        };
        // Already newline-terminated — print! keeps the bytes identical
        // to the warehouse `diff` body.
        print!(
            "{}",
            render_diff_json(
                detector_a,
                detector_b,
                &to_entries(&fresh),
                &to_entries(&fixed),
                unchanged as u64
            )
        );
    } else {
        let describe =
            |r: &Report| format!("{} at {}:{} ({})", r.kind.name(), r.file, r.line, r.func);
        println!("trace-diff: {} new, {} fixed, {} unchanged", fresh.len(), fixed.len(), unchanged);
        for (_, r) in &fresh {
            println!("[new] {}", describe(r));
        }
        for (_, r) in &fixed {
            println!("[fixed] {}", describe(r));
        }
    }
    Ok(if fresh.is_empty() && fixed.is_empty() { 0 } else { EXIT_FINDINGS })
}
