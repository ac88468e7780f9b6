//! `raceline soak`: phased generative load (the §3.3 long-run scenario at
//! scale) through the VM under a kill schedule, with the warning catalogue
//! checkpointed between phases.
//!
//! Every phase is a pure function of `(spec, phase)`: a fresh guest
//! program, schedule, and detector. That makes `--jobs N` byte-identical
//! to sequential, and makes crash/resume exact — the append-only log
//! commits each phase's deduped `warn` lines *before* the `phase` line, so
//! a harness crash mid-append loses only an uncommitted block that the
//! resumed run recomputes bit-identically. Exit contract: 0 = clean run,
//! 1 = catalogue non-empty or a phase deadlocked, 2 = tool/guest error.

use super::{read_checkpoint, CmdError, Opts, EXIT_ERROR, EXIT_FINDINGS};
use helgrind_core::{commitlog, par, AnyDetector, SuppressionSet};
use sipsim::{run_phase_in, PhaseEnd, SoakLog, SoakSpec};

pub(super) fn run(o: &Opts) -> Result<i32, CmdError> {
    let spec = SoakSpec { seed: o.seed, ..o.soak };
    let cfg = o.detector_config(&o.detector)?;
    let jobs = o.jobs.max(1);
    let max_slots = o.max_slots.or(o.budget.and_then(|b| b.max_slots));

    // Resume from a checkpoint if one exists; otherwise start fresh (and
    // seed the log file with its header so appends have a base).
    let mut log = SoakLog::new(&spec);
    if let Some(path) = &o.checkpoint {
        match read_checkpoint(path)? {
            Some(text) => {
                let (parsed, committed, repaired) = SoakLog::parse_repair(&text)
                    .map_err(|e| format!("soak: checkpoint {path}: {e}"))?;
                if parsed.params != log.params {
                    return Err(format!(
                        "soak: checkpoint {path} was recorded with different parameters\n  \
                         checkpoint: {}\n  requested:  {}",
                        parsed.params, log.params
                    )
                    .into());
                }
                if repaired {
                    // The dropped tail was never committed; rewrite the
                    // file to the committed prefix so appends line up.
                    commitlog::replace(path.as_ref(), committed)
                        .map_err(|e| format!("soak: cannot rewrite {path}: {e}"))?;
                    eprintln!(
                        "soak: checkpoint repaired (dropped uncommitted tail); \
                         resuming at phase {}",
                        parsed.next_phase()
                    );
                } else if parsed.next_phase() > 0 {
                    eprintln!("soak: resuming at phase {}", parsed.next_phase());
                }
                log = parsed;
            }
            None => commitlog::create(path.as_ref(), &log.header())
                .map_err(|e| format!("soak: cannot write {path}: {e}"))?,
        }
    }

    // Phases still to run, in chunks of `jobs`: each phase is independent,
    // so the chunk fans out over the worker pool and the in-order fold
    // (and the appended log) is identical to a sequential run.
    let mut phase = log.next_phase();
    while phase < spec.phases {
        let chunk = jobs.min((spec.phases - phase) as usize);
        let outcomes = par::map_indexed(jobs, chunk, |i| {
            let det = AnyDetector::by_name(&o.detector, cfg, SuppressionSet::new());
            run_phase_in(&spec, phase + i as u32, Some(det), !o.no_filter, max_slots, o.vm_mode())
        });
        for out in outcomes {
            if let Some(path) = &o.checkpoint {
                commitlog::append(path.as_ref(), &SoakLog::phase_block(&out))
                    .map_err(|e| format!("soak: cannot append to {path}: {e}"))?;
            }
            let s = &out.stats;
            eprintln!(
                "soak: phase {}/{}: {} dialog(s), {} event(s), {} kill(s), {} warning(s), \
                 peak granules {}, {}",
                s.phase + 1,
                spec.phases,
                s.dialogs,
                s.events,
                s.kills,
                s.warnings,
                s.peak_granules,
                match &s.end {
                    PhaseEnd::Clean => "clean".to_string(),
                    PhaseEnd::Deadlock(n) => format!("DEADLOCK ({n} blocked)"),
                    PhaseEnd::GuestError(e) => format!("guest error: {e}"),
                    PhaseEnd::FuelExhausted => "slot budget exhausted".to_string(),
                }
            );
            log.fold_phase(&out);
        }
        phase += chunk as u32;
    }

    print!("{}", log.render_summary(o.mem_report));
    let guest_err = log.phases.iter().any(|p| matches!(p.end, PhaseEnd::GuestError(_)));
    let deadlocked = log.phases.iter().any(|p| matches!(p.end, PhaseEnd::Deadlock(_)));
    if guest_err {
        eprintln!("soak: guest error: exiting with status {EXIT_ERROR}");
        return Ok(EXIT_ERROR);
    }
    Ok(if log.catalogue.is_empty() && !deadlocked { 0 } else { EXIT_FINDINGS })
}
