//! The per-layer ledger: every layer's public functions called from
//! outside on one workload's own inputs, timed, and reduced to the
//! per-layer metrics.
//!
//! A workload names its subjects (the guest programs it runs, with their
//! schedule and VM options). Each repetition pushes every subject through
//! every layer once, variants interleaved so host drift hits them alike;
//! a metric is the median over repetitions. Per-event costs are
//! differences against the same run with a null tool, which is how the
//! VM's own cost is separated from the tool's.

use std::path::Path;
use std::time::{Duration, Instant};

use helgrind_core::replay::{analyze_trace_bytes, ReplayDetector};
use helgrind_core::{AnyDetector, DetectorConfig, SuppressionSet};
use raceline_trace::{decode_epoch, parse_trace};
use raceline_warehouse::{analyze_for_warehouse, client, content_hash, render_catalogue};
use vexec::filter::FilterTool;
use vexec::ir::Program;
use vexec::sched::{RoundRobin, Scheduler, SeededRandom};
use vexec::tool::NullTool;
use vexec::vm::{PreparedProgram, RunResult, VmMode, VmOptions};
use vexec::Tool;

use crate::stats::{expect_eq, median, timed, Outcome, Samples};
use crate::wh::{self, TraceInfo};

/// Builds in the seeded warehouse the probe opens and renders. The
/// catalogue render loops over builds × (traces + entries); 160 builds is
/// the size at which it was first measured (3.5 ms), so the figure stays
/// comparable with that one.
pub const SEED_BUILDS: u64 = 160;

/// The six detector presets, in ledger order.
pub const ENGINES: [&str; 6] = ["original", "hwlc", "hwlc-dr", "djit", "hybrid", "hybrid-queue"];

/// How a subject is scheduled.
#[derive(Clone, Copy, Debug)]
pub enum Sched {
    RoundRobin,
    Seeded(u64),
}

impl Sched {
    pub fn make(self) -> Box<dyn Scheduler> {
        match self {
            Sched::RoundRobin => Box::new(RoundRobin::new()),
            Sched::Seeded(s) => Box::new(SeededRandom::new(s)),
        }
    }
}

/// One guest program a workload runs.
pub struct Subject {
    pub label: String,
    pub build: Box<dyn Fn() -> Program>,
    pub sched: Sched,
    pub opts: VmOptions,
}

impl Subject {
    pub fn run(&self, prepared: &PreparedProgram<'_>, tool: &mut dyn Tool) -> RunResult {
        prepared.run(tool, self.sched.make().as_mut(), self.opts.clone())
    }
}

/// A preset detector as `check` builds it (no suppressions loaded).
pub fn detector(name: &str) -> AnyDetector {
    let cfg = DetectorConfig::by_name(name).expect("ledger engines are presets");
    AnyDetector::by_name(name, cfg, SuppressionSet::new())
}

/// One repetition's timings, in nanoseconds.
#[derive(Default)]
struct Rep {
    build: f64,
    lower: f64,
    compile: f64,
    null: f64,
    filter: f64,
    engines: [f64; 6],
    filter_writer: f64,
    render: f64,
    parse: f64,
    decode: f64,
    replay: f64,
}

/// What the ledger measured that a workload may report in its own way.
pub struct Ledger {
    /// Uploads answered as duplicates over uploads, in the ledger's own
    /// warehouse probe (the recording uploaded twice).
    pub dedup_hit_rate: f64,
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Run the ledger on subject `s` for `reps` repetitions and add every
/// per-layer metric except `warehouse.service.dedup_hit_rate`,
/// `generator.late_ms` and `native.ms`, which the workload reports.
/// `engine` is the detector the workload itself runs.
pub fn run(
    s: &Subject,
    engine: &str,
    work: &Path,
    reps: usize,
    out: &mut Outcome,
) -> Result<Ledger, String> {
    let engine_idx =
        ENGINES.iter().position(|e| *e == engine).expect("workload engine is a preset");
    let mut reps_out: Vec<Rep> = Vec::new();
    let mut vm_events = 0u64;
    let mut peak = [0usize; 6];
    let (mut candidates, mut elided) = (0u64, 0u64);
    let mut trace: Option<TraceInfo> = None;

    for _ in 0..reps {
        let mut r = Rep::default();
        let (program, d) = timed(|| (s.build)());
        r.build = ns(d);
        let (flat, d) = timed(|| program.lower());
        r.lower = ns(d);
        let (prepared, d) = timed(|| PreparedProgram::new(&flat, VmMode::Compiled));
        r.compile = ns(d);

        let (res, d) = timed(|| s.run(&prepared, &mut NullTool));
        r.null = ns(d);
        vm_events = res.stats.events;

        let mut ft = FilterTool::new(NullTool);
        let (_, d) = timed(|| s.run(&prepared, &mut ft));
        r.filter = ns(d);
        let fs = ft.stats();
        (candidates, elided) = (fs.candidates, fs.elided);

        let mut inline_reports = 0;
        for (i, name) in ENGINES.iter().enumerate() {
            let mut det = detector(name);
            let (_, d) = timed(|| s.run(&prepared, &mut det));
            r.engines[i] = ns(d);
            let p = det.engine_stats().iter().map(|e| e.peak_granules).max().unwrap_or(0);
            peak[i] = peak[i].max(p);
            if i == engine_idx {
                let reports = det.take_reports();
                let (rendered, d) =
                    timed(|| reports.iter().map(|rep| rep.render().len()).sum::<usize>());
                std::hint::black_box(rendered);
                r.render = ns(d);
                inline_reports = reports.len();
            }
        }

        let (rec, d) = timed(|| wh::record(&prepared, s.sched.make().as_mut(), s.opts.clone()));
        r.filter_writer = ns(d);
        let (bytes, _) = rec.map_err(|e| format!("record {}: {e}", s.label))?;
        match &trace {
            None => trace = Some(wh::analyze(&s.label, bytes.clone())?),
            Some(t) if content_hash(&bytes) != t.hash => {
                out.check(Err(format!("{}: recording is not deterministic", s.label)))
            }
            Some(_) => {}
        }

        // Reader layers on the recorded trace.
        let (parsed, d) = timed(|| parse_trace(&bytes));
        r.parse = ns(d);
        let parsed = parsed.map_err(|e| format!("{}: {e}", s.label))?;
        let nsyms = parsed.header.symbols.len() as u32;
        let t = Instant::now();
        for desc in &parsed.epochs {
            decode_epoch(&bytes, desc, nsyms).map_err(|e| format!("{}: {e}", s.label))?;
        }
        r.decode = ns(t.elapsed());
        let cfg = DetectorConfig::by_name(engine).expect("preset");
        let det = ReplayDetector::by_name(engine, cfg, SuppressionSet::new());
        let (replayed, d) = timed(|| analyze_trace_bytes(&bytes, det, 1, 0));
        r.replay = ns(d);
        let replayed = replayed.map_err(|e| format!("{}: {e}", s.label))?;
        // Replay must reproduce the inline run's reports: the
        // record/replay contract.
        out.check(expect_eq(
            &format!("{}: replayed {engine} reports", s.label),
            replayed.reports.len(),
            inline_reports,
        ));
        reps_out.push(r);
    }
    let trace = trace.ok_or("the ledger needs at least one repetition")?;
    let trace_events = trace.events;

    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps_out.iter().map(f).collect::<Vec<_>>());
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let null = med(&|r| r.null);
    out.metric("sipsim.build_ms", med(&|r| r.build) / 1e6, "ms");
    out.metric("vexec.ir.lower_ms", med(&|r| r.lower) / 1e6, "ms");
    out.metric("vexec.ir.compile_ms", med(&|r| r.compile) / 1e6, "ms");
    out.metric("vexec.vm.ns_per_event", per(null, vm_events), "ns/event");
    out.metric("vexec.vm.events", vm_events as f64, "count");
    out.metric(
        "vexec.filter.ns_per_event",
        per(med(&|r| r.filter - r.null), vm_events),
        "ns/event",
    );
    out.metric("vexec.filter.hit_rate", per(elided as f64, candidates), "ratio");
    for (i, name) in ENGINES.iter().enumerate() {
        let cost = med(&|r| r.engines[i] - r.null);
        out.metric(&format!("core.{name}.ns_per_event"), per(cost, vm_events), "ns/event");
        out.metric(&format!("core.{name}.peak_granules"), peak[i] as f64, "count");
    }
    out.metric("core.report.render_us", med(&|r| r.render) / 1e3, "us");
    // Writer cost on the events the filter forwards: recording minus the
    // filter in front of a null tool.
    let writer = med(&|r| r.filter_writer - r.filter);
    out.metric("trace.writer.ns_per_event", per(writer, trace_events), "ns/event");
    out.metric("trace.bytes_per_event", per(trace.bytes.len() as f64, trace_events), "B/event");
    out.metric("trace.reader.parse_ns_per_event", per(med(&|r| r.parse), trace_events), "ns/event");
    out.metric(
        "trace.reader.decode_ns_per_event",
        per(med(&|r| r.decode), trace_events),
        "ns/event",
    );
    let dispatch = med(&|r| r.replay - r.parse - r.decode);
    out.metric("core.replay.dispatch_ns_per_event", per(dispatch, trace_events), "ns/event");

    let dedup_hit_rate = warehouse(&trace, work, reps, out)?;
    Ok(Ledger { dedup_hit_rate })
}

/// Warehouse layers on the subject traces: open a seeded warehouse,
/// render its catalogue, hash, analyse and commit uploads in process and
/// over the wire, and read the catalogue back over the wire. Returns the
/// probe's dedup hit rate.
fn warehouse(t: &TraceInfo, work: &Path, reps: usize, out: &mut Outcome) -> Result<f64, String> {
    let (log_text, seeded) = wh::seeded_log(t, SEED_BUILDS);
    let spool = wh::fresh_spool(&work.join("ledger-warehouse"), &log_text)?;
    let mut open = Samples::default();
    for _ in 0..reps.max(3) {
        let (svc, d) = timed(|| wh::open(&spool));
        svc?;
        open.push(d);
    }
    out.metric("warehouse.wlog.open_ms", open.median_ms(), "ms");
    let mut render = Samples::default();
    for _ in 0..reps.max(3) {
        let (cat, d) = timed(|| render_catalogue(&seeded));
        std::hint::black_box(cat);
        render.push(d);
    }
    out.metric("warehouse.render.catalogue_ms", render.median_ms(), "ms");

    let service = wh::open(&spool)?;
    let mut next_build = 1_000_000u64;
    let (mut hash_ns, mut analyze_ns, mut submit_ns, mut rtt_ns) = (vec![], vec![], vec![], vec![]);
    let (mut uploads, mut dups) = (0u64, 0u64);
    let mut queries = Samples::default();
    let served = wh::with_server(&service, |addr| -> Result<(), String> {
        for _ in 0..reps {
            next_build += 2;
            let b = next_build;
            // In-process calls run on a fresh thread, as the server's
            // thread-per-connection handler does, after one untimed
            // analysis so first-call allocation is paid by neither side
            // of the wire difference.
            let inproc = std::thread::scope(|sc| {
                sc.spawn(|| -> Result<[f64; 3], String> {
                    analyze_for_warehouse(&t.bytes, wh::WAREHOUSE_ENGINE, wh::warehouse_cfg())?;
                    let (hash, dh) = timed(|| content_hash(&t.bytes));
                    std::hint::black_box(hash);
                    let (res, da) = timed(|| {
                        analyze_for_warehouse(&t.bytes, wh::WAREHOUSE_ENGINE, wh::warehouse_cfg())
                    });
                    res?;
                    let (fresh, ds) = timed(|| service.submit(b, &t.bytes));
                    expect_eq("ledger fresh upload is new", fresh?.duplicate, false)?;
                    let again = service.submit(b, &t.bytes)?;
                    expect_eq("ledger re-upload is duplicate", again.duplicate, true)?;
                    Ok([ns(dh), ns(da), ns(ds)])
                })
                .join()
                .unwrap_or_else(|_| Err("ledger probe thread panicked".to_string()))
            });
            out.check(inproc.as_ref().map(drop).map_err(Clone::clone));
            let [dh, da, ds] = inproc?;
            uploads += 2;
            dups += 1;
            let (res, dw) = timed(|| client::submit(addr, b - 1, &t.bytes));
            let resp = res?;
            out.check(if resp.ok() {
                Ok(())
            } else {
                Err(format!("ledger upload rejected: {:?}", resp.error()))
            });
            hash_ns.push(dh);
            analyze_ns.push(da);
            submit_ns.push(ds);
            rtt_ns.push(ns(dw));
        }
        for _ in 0..30 {
            let (resp, d) = timed(|| client::request(addr, &client::cmd("query"), None));
            let resp = resp?;
            queries.push(d);
            out.check(if resp.ok() { Ok(()) } else { Err("ledger query failed".to_string()) });
        }
        Ok(())
    })?;
    served?;
    drop(service);
    let _ = std::fs::remove_dir_all(&spool);

    // Differences are taken within a repetition, then the median.
    let per_rep = |f: &dyn Fn(usize) -> f64| median(&(0..hash_ns.len()).map(f).collect::<Vec<_>>());
    let commit = per_rep(&|i| submit_ns[i] - hash_ns[i] - analyze_ns[i]);
    let wire = per_rep(&|i| rtt_ns[i] - submit_ns[i]);
    out.metric(
        "warehouse.service.hash_ns_per_byte",
        median(&hash_ns) / t.bytes.len().max(1) as f64,
        "ns/byte",
    );
    out.metric("warehouse.service.analyze_ms", median(&analyze_ns) / 1e6, "ms");
    out.metric("warehouse.service.commit_ms", commit / 1e6, "ms");
    out.metric("warehouse.server.wire_ms", wire / 1e6, "ms");
    out.metric("warehouse.server.query_tail_ms", queries.tail_ms().0, "ms");
    Ok(if uploads == 0 { 0.0 } else { dups as f64 / uploads as f64 })
}
