//! `raceline check`, `record` and `lint`: the paper's Fig 3 debugging
//! process — preprocess, annotate, compile, then run the guest under a
//! detector (`check`), under the trace writer (`record`), or not at all
//! (`lint`, the static passes only). Also the tail `check` shares with
//! `analyze`, which is what makes offline output byte-identical to inline.

use super::{read_checkpoint, read_text, CmdError, Opts, EXIT_ERROR, EXIT_FINDINGS};
use helgrind_core::explore::{
    explore_schedules_directed, explore_schedules_with, DirectedTarget, ExploreCheckpoint,
    ExploreLimits,
};
use helgrind_core::Suppression;
use helgrind_core::{commitlog, AnyDetector, DetectorConfig, EngineStats, Report, ReportKind};
use minicpp::analysis::escape::{EscapeFinding, SiteRef};
use minicpp::analysis::AnalysisResult;
use minicpp::pipeline::{run_pipeline, PipelineOutput, SourceFile};
use raceline_trace::format::TraceTermination;
use raceline_trace::writer::{trace_termination, TraceWriter};
use serde::{Serialize, Value};
use std::collections::BTreeSet;
use vexec::faults::FaultStats;
use vexec::filter::{FilterStats, FilterTool};
use vexec::ir::lower::FlatProgram;
use vexec::sched::Scheduler;
use vexec::tool::Tool;
use vexec::vm::{run_flat, RunResult, RunStats, Termination, VmMode, VmOptions};

pub(super) fn run(o: &Opts) -> Result<i32, CmdError> {
    let mut files = Vec::new();
    for (path, raw) in &o.operands {
        let text = read_text(path)?;
        files.push(if *raw {
            SourceFile::without_instrumentation(path, &text)
        } else {
            SourceFile::new(path, &text)
        });
    }
    let suppressions = o.suppressions()?;
    // `record --case NAME` records a built-in sipsim proxy scenario (the
    // T1–T8 Fig 6 cases) instead of compiling sources — the trace corpus
    // the serve gates and benches upload.
    if let Some(case) = &o.case {
        if o.cmd != "record" || !files.is_empty() {
            return Err(CmdError::Usage("--case records a built-in scenario".to_string()));
        }
        let Some(tc) = sipsim::testcases().into_iter().find(|t| t.name == *case) else {
            let names: Vec<&str> = sipsim::testcases().iter().map(|t| t.name).collect();
            return Err(format!("unknown case {case}; available: {}", names.join(",")).into());
        };
        return record(o, &tc.build().program.lower());
    }
    if files.is_empty() {
        return Err(CmdError::Usage(String::new()));
    }
    if o.cmd == "lint" {
        return lint(&files, o.json);
    }

    // Stage 1+2+3 (Fig 3): preprocess, parse + annotate, compile.
    let out = run_pipeline(&files).map_err(|e| format!("compile error: {e}"))?;
    eprintln!(
        "compiled {} unit(s); {} delete site(s) annotated",
        files.len(),
        out.deletes_annotated
    );
    if o.emit_annotated {
        for (name, src) in &out.annotated_sources {
            println!("// ---- {name} (annotated) ----");
            println!("{src}");
        }
    }
    if o.emit_ir {
        println!("{}", vexec::ir::disasm::disassemble(&out.program.lower()));
    }

    let cfg = o.detector_config(&o.detector)?;
    if let Some(runs) = o.explore {
        return explore(o, &out, cfg, runs);
    }
    let flat = out.program.lower();
    // Record mode: run the VM once with the trace writer as the tool and
    // leave all detection for `raceline analyze`.
    if o.cmd == "record" {
        return record(o, &flat);
    }

    // Single-run mode: collect the post-suppression dynamic findings.
    let mut sched = o.scheduler()?;
    let det = AnyDetector::by_name(&o.detector, cfg, suppressions.clone());
    let (r, mut det, filter_stats) =
        run_filtered(&flat, det, sched.as_mut(), o.vm_options(), o.no_filter);
    let truncated = det.truncated();
    if o.stats {
        print_engine_stats(&det.engine_stats());
        if let Some(fs) = filter_stats {
            print_filter_stats(&fs);
        }
        print_interp_stats(&r.stats, o.vm_mode());
    }
    let dynamic: Vec<Report> =
        det.take_reports().into_iter().filter(|r| !suppressions.matches(r)).collect();

    // Static cross-check: join the two report streams by (kind, file,
    // line). The static side sees paths no schedule exercised; the
    // dynamic side sees heap/alias behaviour the static side abstracts.
    let cross = o.cross_check.then(|| {
        let stat = minicpp::analysis::analyze(&out.units);
        let join = CrossCheck::join(&stat, dynamic.iter().collect());
        let text = join.render(|r| {
            format!("{} at {} ({}:{}) — {}", r.kind.name(), r.func, r.file, r.line, r.details)
        });
        (text, join.json)
    });
    let (end, label) = (trace_termination(&r.termination), format!("{:?}", r.termination));
    Ok(finish_run(o, dynamic, truncated, &end, label, r.faults, cross))
}

/// `--explore`: aggregate warnings across many schedules.
fn explore(
    o: &Opts,
    out: &PipelineOutput,
    cfg: DetectorConfig,
    runs: usize,
) -> Result<i32, CmdError> {
    let limits = ExploreLimits {
        max_slots_per_run: o.budget.and_then(|b| b.max_slots),
        total_slot_budget: o.budget.and_then(|b| b.total_slots),
        faults: o.faults,
        jobs: o.jobs,
        no_filter: o.no_filter,
        vm_reference: o.vm_reference,
    };
    let mut resume = None;
    if let Some(p) = &o.checkpoint {
        if let Some(text) = read_checkpoint(p)? {
            // An interrupted save leaves an uncommitted tail; repair (drop
            // it) rather than refusing to resume.
            let (ck, _, repaired) =
                ExploreCheckpoint::parse_repair(&text).map_err(|e| format!("{p}: {e}"))?;
            if repaired {
                eprintln!("{p}: repaired truncated checkpoint (dropped uncommitted tail)");
            }
            eprintln!("resuming from {p}: {}/{} runs done", ck.next_index, ck.runs);
            resume = Some(ck);
        }
    }
    if o.directed && !o.cross_check {
        let msg = "--directed requires --static-cross-check (it consumes static findings)";
        return Err(CmdError::Failed(msg.to_string()));
    }
    let stat = o.cross_check.then(|| minicpp::analysis::analyze(&out.units));
    let summary = match &stat {
        Some(stat) if o.directed => {
            let targets = directed_targets(stat);
            eprintln!("directed: {} probe target(s) from static findings", targets.len());
            explore_schedules_directed(
                &out.program,
                cfg,
                runs,
                0xACE,
                limits,
                resume.as_ref(),
                &targets,
            )
        }
        _ => explore_schedules_with(&out.program, cfg, runs, 0xACE, limits, resume.as_ref()),
    };
    if let Some(p) = &o.checkpoint {
        commitlog::create(p.as_ref(), &summary.checkpoint().render())
            .map_err(|e| format!("cannot write checkpoint {p}: {e}"))?;
    }
    if !o.json {
        println!(
            "explored {} schedules: {} clean, {} deadlocked",
            summary.runs, summary.clean_runs, summary.deadlocked_runs
        );
        if summary.timed_out {
            println!(
                "timed out: {}/{} runs completed ({} fuel-exhausted)",
                summary.completed_runs, summary.runs, summary.fuel_exhausted_runs
            );
        }
        for hit in &summary.locations {
            println!("[{:>3}/{:<3}] {}", hit.hits, summary.runs, hit.report.render().trim_end());
        }
    }
    // Join the static findings against every location any explored
    // schedule hit — the union is the fairest dynamic baseline.
    let cross = stat.as_ref().map(|stat| {
        let join = CrossCheck::join(stat, summary.locations.iter().map(|h| &h.report).collect());
        if !o.json {
            print!("{}", join.render(|r| format!("{} at {}:{}", r.kind.name(), r.file, r.line)));
        }
        join.json
    });
    if o.json {
        let locs = summary
            .locations
            .iter()
            .map(|h| {
                Value::Object(vec![
                    ("hits".to_string(), Value::UInt(h.hits as u64)),
                    ("first_run".to_string(), Value::UInt(h.first_run as u64)),
                    ("report".to_string(), h.report.to_value()),
                ])
            })
            .collect();
        let mut obj = vec![
            ("runs".to_string(), Value::UInt(summary.runs as u64)),
            ("completed_runs".to_string(), Value::UInt(summary.completed_runs as u64)),
            ("clean_runs".to_string(), Value::UInt(summary.clean_runs as u64)),
            ("deadlocked_runs".to_string(), Value::UInt(summary.deadlocked_runs as u64)),
            ("timed_out".to_string(), Value::Bool(summary.timed_out)),
            ("directed".to_string(), Value::Bool(o.directed)),
            ("locations".to_string(), Value::Array(locs)),
        ];
        if let Some(c) = cross {
            obj.push(("static_cross_check".to_string(), c));
        }
        println!("{}", Value::Object(obj));
    }
    Ok(if summary.locations.is_empty() { 0 } else { EXIT_FINDINGS })
}

/// The static/dynamic join, keyed by (kind, file, line). A static finding
/// is confirmed when a dynamic report shares its key — or, for an
/// escaping-guarded-ref finding, which has no dynamic twin by kind, when
/// a dynamic race lands on one of its recorded post-release use sites.
struct CrossCheck<'a> {
    confirmed: Vec<&'a Report>,
    static_only: Vec<&'a Report>,
    dynamic_only: Vec<&'a Report>,
    json: Value,
}

impl<'a> CrossCheck<'a> {
    fn join(stat: &'a AnalysisResult, dynamic: Vec<&'a Report>) -> Self {
        let key = |r: &Report| (r.kind.name(), r.file.clone(), r.line);
        let dyn_keys: BTreeSet<_> = dynamic.iter().map(|r| key(r)).collect();
        let dyn_lines: BTreeSet<(String, u32)> =
            dynamic.iter().map(|r| (r.file.clone(), r.line)).collect();
        let stat_keys: BTreeSet<_> = stat.reports.iter().map(key).collect();
        let (confirmed, static_only): (Vec<&Report>, Vec<&Report>) =
            stat.reports.iter().partition(|r| {
                dyn_keys.contains(&key(r)) || escape_confirmed(r, &stat.escapes, &dyn_lines)
            });
        let dynamic_only: Vec<&Report> =
            dynamic.into_iter().filter(|r| !stat_keys.contains(&key(r))).collect();
        let to_vals = |rs: &[&Report]| Value::Array(rs.iter().map(|r| r.to_value()).collect());
        let json = Value::Object(vec![
            ("confirmed_both".to_string(), to_vals(&confirmed)),
            ("static_only".to_string(), to_vals(&static_only)),
            ("dynamic_only".to_string(), to_vals(&dynamic_only)),
            ("escapes".to_string(), escapes_json(&stat.escapes, &dyn_lines)),
        ]);
        CrossCheck { confirmed, static_only, dynamic_only, json }
    }

    /// The text block: the counts, then one `[label] <line(r)>` line per
    /// finding.
    fn render(&self, line: impl Fn(&Report) -> String) -> String {
        let mut text = format!(
            "static cross-check: {} confirmed-both, {} static-only, {} dynamic-only\n",
            self.confirmed.len(),
            self.static_only.len(),
            self.dynamic_only.len()
        );
        for (label, set) in [
            ("confirmed-both", &self.confirmed),
            ("static-only", &self.static_only),
            ("dynamic-only", &self.dynamic_only),
        ] {
            for r in set {
                text.push_str(&format!("[{label}] {}\n", line(r)));
            }
        }
        text
    }
}

/// An escape finding is dynamically confirmed when some explored schedule
/// reported a warning at one of its post-release use sites.
fn escape_confirmed(
    r: &Report,
    escapes: &[EscapeFinding],
    dyn_lines: &BTreeSet<(String, u32)>,
) -> bool {
    r.kind == ReportKind::EscapingGuardedRef
        && escapes.iter().any(|e| {
            e.file == r.file
                && e.line == r.line
                && e.use_sites.iter().any(|u| dyn_lines.contains(&(u.file.clone(), u.line)))
        })
}

fn escapes_json(escapes: &[EscapeFinding], dyn_lines: &BTreeSet<(String, u32)>) -> Value {
    let site = |s: &SiteRef| {
        Value::Object(vec![
            ("func".to_string(), Value::Str(s.func.clone())),
            ("file".to_string(), Value::Str(s.file.clone())),
            ("line".to_string(), Value::UInt(u64::from(s.line))),
        ])
    };
    Value::Array(
        escapes
            .iter()
            .map(|e| {
                let confirmed =
                    e.use_sites.iter().any(|u| dyn_lines.contains(&(u.file.clone(), u.line)));
                Value::Object(vec![
                    ("kind".to_string(), Value::Str("EscapingGuardedRef".to_string())),
                    ("func".to_string(), Value::Str(e.func.clone())),
                    ("file".to_string(), Value::Str(e.file.clone())),
                    ("line".to_string(), Value::UInt(u64::from(e.line))),
                    (
                        "locks".to_string(),
                        Value::Array(e.locks.iter().map(|l| Value::Str(l.clone())).collect()),
                    ),
                    ("route".to_string(), Value::Str(e.route.clone())),
                    ("source".to_string(), Value::Str(e.source.clone())),
                    (
                        "release_sites".to_string(),
                        Value::Array(e.release_sites.iter().map(site).collect()),
                    ),
                    ("use_sites".to_string(), Value::Array(e.use_sites.iter().map(site).collect())),
                    ("confirmed".to_string(), Value::Bool(confirmed)),
                ])
            })
            .collect(),
    )
}

/// Probe targets for `--directed`, most promising first: each escape
/// finding's release sites (the window the probe preempts into), then the
/// locations of the static race findings themselves.
fn directed_targets(stat: &AnalysisResult) -> Vec<DirectedTarget> {
    let mut targets: Vec<DirectedTarget> = Vec::new();
    for e in &stat.escapes {
        if e.release_sites.is_empty() {
            targets.push(DirectedTarget { file: e.file.clone(), line: e.line });
        }
        for rs in &e.release_sites {
            targets.push(DirectedTarget { file: rs.file.clone(), line: rs.line });
        }
    }
    let mut races: Vec<DirectedTarget> = stat
        .reports
        .iter()
        .filter(|r| matches!(r.kind, ReportKind::RaceRead | ReportKind::RaceWrite))
        .map(|r| DirectedTarget { file: r.file.clone(), line: r.line })
        .collect();
    races.sort();
    races.dedup();
    targets.extend(races);
    // Keep first occurrence (escape release sites outrank race locations).
    let mut seen = BTreeSet::new();
    targets.retain(|t| seen.insert(t.clone()));
    targets
}

/// Record one program run to an `.rltrace` file — the body of
/// `raceline record`, shared by the compile-from-source and `--case`
/// (built-in sipsim scenario) paths.
fn record(o: &Opts, flat: &FlatProgram) -> Result<i32, CmdError> {
    let mut sched = o.scheduler()?;
    let out_path = o.out.as_deref().unwrap_or("trace.rltrace");
    let file =
        std::fs::File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file));
    if let Some(n) = o.epoch_events {
        writer = writer.with_epoch_events(n);
    }
    // The filter elides exact-repeat accesses before they reach the
    // writer: smaller traces, same reports on replay (elided events are
    // state-transition no-ops). --no-filter forces full streams.
    let (r, writer, filter_stats) =
        run_filtered(flat, writer, sched.as_mut(), o.vm_options(), o.no_filter);
    let summary = writer
        .finish(&r.termination, &r.stats, r.faults.as_ref())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    if o.stats {
        if let Some(fs) = filter_stats {
            print_filter_stats(&fs);
        }
        print_interp_stats(&r.stats, o.vm_mode());
    }
    match &r.termination {
        Termination::AllExited => {}
        Termination::Deadlock(waits) => {
            eprintln!("note: run ended in deadlock ({} thread(s) blocked)", waits.len());
        }
        Termination::GuestError(e) => eprintln!("note: run ended with guest error: {e}"),
        Termination::FuelExhausted => {
            eprintln!("note: slot budget exhausted before the program finished");
        }
    }
    eprintln!(
        "recorded {} event(s) in {} epoch(s) to {out_path} ({} bytes)",
        summary.events, summary.epochs, summary.bytes
    );
    Ok(0)
}

/// `raceline lint`: parse + annotate + static passes, no execution.
fn lint(files: &[SourceFile], json: bool) -> Result<i32, CmdError> {
    let result =
        minicpp::analysis::analyze_files(files).map_err(|e| format!("compile error: {e}"))?;
    let n = result.reports.len();
    if json {
        let obj = Value::Object(vec![
            ("findings".to_string(), Value::UInt(n as u64)),
            ("reports".to_string(), reports_json(&result.reports)),
        ]);
        println!("{obj}");
    } else {
        for r in &result.reports {
            println!("{}", r.render());
        }
    }
    eprintln!("{n} finding(s)");
    Ok(if n == 0 { 0 } else { EXIT_FINDINGS })
}

fn reports_json(reports: &[Report]) -> Value {
    Value::Array(reports.iter().map(|r| r.to_value()).collect())
}

/// Run a tool through the VM, with the redundant-access filter in front
/// unless `--no-filter`. The filter is report-preserving (the equivalence
/// gates enforce it), so both paths print identical stdout.
fn run_filtered<T: Tool>(
    flat: &FlatProgram,
    mut tool: T,
    sched: &mut dyn Scheduler,
    opts: VmOptions,
    no_filter: bool,
) -> (RunResult, T, Option<FilterStats>) {
    if no_filter {
        let r = run_flat(flat, &mut tool, sched, opts);
        (r, tool, None)
    } else {
        let mut filtered = FilterTool::new(tool);
        let r = run_flat(flat, &mut filtered, sched, opts);
        let (tool, fstats) = filtered.into_parts();
        (r, tool, Some(fstats))
    }
}

/// `--stats` output, stderr only: stdout report identity between filtered
/// and unfiltered runs is a hard contract, and engine access counts
/// legitimately differ when the filter elides events.
pub(super) fn print_engine_stats(stats: &[EngineStats]) {
    for s in stats {
        eprintln!(
            "stats: engine {} processed {} access(es), shadow overflow {}, \
             live granules {} (peak {})",
            s.name, s.accesses, s.shadow_overflow, s.live_granules, s.peak_granules
        );
        if let Some(e) = s.epoch {
            eprintln!(
                "stats: engine {} epochs: {} hit(s), {} promotion(s), \
                 {} demotion(s), {} vc fallback(s)",
                s.name, e.epoch_hits, e.promotions, e.demotions, e.vc_fallbacks
            );
        }
    }
}

fn print_filter_stats(fs: &FilterStats) {
    eprintln!(
        "stats: filter elided {} of {} candidate access(es) ({:.1}% hit rate, \
         {:.1}% of all {} event(s)); epoch bumps: {} thread, {} global",
        fs.elided,
        fs.candidates,
        fs.hit_rate() * 100.0,
        fs.elided_fraction() * 100.0,
        fs.events,
        fs.thread_epoch_bumps,
        fs.global_epoch_bumps
    );
}

/// `--stats` interpreter counters, stderr only: stdout identity between
/// the compiled and reference cores is a hard contract (the
/// interp-equivalence gates pin it), so per-core telemetry never lands
/// on stdout.
fn print_interp_stats(stats: &RunStats, mode: VmMode) {
    let i = &stats.interp;
    let core = match mode {
        VmMode::Compiled => "compiled",
        VmMode::Reference => "reference",
    };
    eprintln!(
        "stats: interp ({core}) {} op(s): {} arith, {} branch, {} mem, {} call, \
         {} sync, {} thread, {} heap, {} misc",
        i.total(),
        i.arith,
        i.branch,
        i.mem,
        i.call,
        i.sync,
        i.thread,
        i.heap,
        i.misc
    );
    let covered = i.fused * 2;
    let pct = if stats.ops > 0 { covered as f64 / stats.ops as f64 * 100.0 } else { 0.0 };
    eprintln!(
        "stats: interp ({core}) {} superinstruction(s) covering {pct:.1}% of ops; \
         {} eval-slot fallback(s)",
        i.fused, i.slot_evals
    );
}

/// Shared tail of `check` and `analyze`: print reports, termination
/// diagnostics, the optional cross-check block and JSON object, and
/// return the 0/1/2 exit code. A live run's end arrives in its trace
/// footer form, so offline output is byte-identical to inline;
/// `term_label` is the JSON `termination` string.
pub(super) fn finish_run(
    o: &Opts,
    dynamic: Vec<Report>,
    truncated: bool,
    end: &TraceTermination,
    term_label: String,
    faults: Option<FaultStats>,
    cross: Option<(String, Value)>,
) -> i32 {
    let json = o.json;
    let mut warnings = dynamic.len();

    if !json {
        for (i, r) in dynamic.iter().enumerate() {
            println!("{}", r.render());
            if o.gen_suppressions {
                println!("{}", Suppression::from_report(&format!("auto-{}", i + 1), r, 3).render());
            }
        }
    }

    let mut guest_error: Option<String> = None;
    let timed_out = matches!(end, TraceTermination::FuelExhausted);
    match end {
        // A repaired trace ends mid-run: the analyzed prefix is valid, the
        // outcome of the original run is simply not in the file.
        TraceTermination::AllExited | TraceTermination::Unknown => {}
        TraceTermination::Deadlock(waits) => {
            if !json {
                println!("DEADLOCK: {} thread(s) blocked:", waits.len());
                for w in waits {
                    println!("  thread {} blocked on {:?} held by {:?}", w.tid, w.on, w.holders);
                }
            }
            warnings += 1;
        }
        TraceTermination::GuestError(e) => {
            // The *guest* faulted; the detector kept its state. Report as a
            // diagnostic and exit 2 — this is neither clean nor a finding.
            guest_error = Some(e.clone());
            if !json {
                println!("guest error: {e}");
            }
        }
        TraceTermination::FuelExhausted => {
            // Budget cap hit: a partial (but valid) run, not an error.
            if !json {
                println!("timed out: slot budget exhausted before the program finished");
            }
        }
    }

    if !json {
        if let Some((text, _)) = &cross {
            print!("{text}");
        }
    }

    if json {
        let mut obj = vec![
            ("warnings".to_string(), Value::UInt(warnings as u64)),
            ("termination".to_string(), Value::Str(term_label)),
            ("truncated".to_string(), Value::Bool(truncated)),
            ("timed_out".to_string(), Value::Bool(timed_out)),
            ("reports".to_string(), reports_json(&dynamic)),
        ];
        if let Some(e) = &guest_error {
            obj.push(("guest_error".to_string(), Value::Str(e.clone())));
        }
        if let Some(fs) = &faults {
            obj.push((
                "injected_faults".to_string(),
                Value::Object(vec![
                    ("total".to_string(), Value::UInt(fs.total())),
                    ("spurious_wakeups".to_string(), Value::UInt(fs.spurious_wakeups)),
                    ("lock_failures".to_string(), Value::UInt(fs.lock_failures)),
                    ("alloc_failures".to_string(), Value::UInt(fs.alloc_failures)),
                    ("kills".to_string(), Value::UInt(fs.kills)),
                ]),
            ));
        }
        if let Some((_, c)) = cross {
            obj.push(("static_cross_check".to_string(), c));
        }
        println!("{}", Value::Object(obj));
    }

    eprintln!("{warnings} warning(s)");
    if guest_error.is_some() {
        eprintln!("guest error: exiting with status {EXIT_ERROR}");
        return EXIT_ERROR;
    }
    if warnings == 0 {
        0
    } else {
        EXIT_FINDINGS
    }
}
