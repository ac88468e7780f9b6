//! The oracle-matrix harness shared by the golden suites.
//!
//! One `observe` folds everything a user sees of one run into text, with
//! the knob a suite flips as a parameter: the redundant-access filter,
//! `hb_reference`, the VM core, or record → analyze. The relative suites
//! assert that their
//! knob is invisible over T1–T8 × six presets, clean and under faults;
//! `report_pin.rs` digests the same text from the production setting.

#![allow(dead_code)] // each suite uses its own slice of the harness

use raceline::helgrind_core::replay::analyze_trace_bytes;
use raceline::helgrind_core::AnyDetector;
use raceline::prelude::*;
use raceline::sipsim::{self, ChaosRunOutcome};
use raceline::vexec::ir::lower::FlatProgram;
use raceline::vexec::vm::{run_flat, RunStats, VmMode};
use raceline::vexec::FaultPlan;
use raceline_trace::TraceWriter;

/// The six detector presets.
pub const PRESETS: [&str; 6] = ["original", "hwlc", "hwlc-dr", "djit", "hybrid", "hybrid-queue"];

/// The setting a relative golden suite flips between its two sides. The
/// production path is the filter on, adaptive HB read state, compiled core.
#[derive(Clone, Copy, Debug)]
pub enum Knob {
    /// The redundant-access filter in front of the detector, or not.
    Filter(bool),
    /// Full vector-clock HB read state instead of the adaptive epochs.
    HbReference(bool),
    /// The compiled bytecode core or the tree-walking reference core.
    Vm(VmMode),
    /// Record the run to an `.rltrace` (small epochs, so every case spans
    /// several) and analyze the bytes, or run the detector live.
    Replay(bool),
}

/// Events per epoch of a [`Knob::Replay`] recording.
const REPLAY_EPOCH_EVENTS: u64 = 512;

/// The aggressive plan of every faulted sweep.
pub fn fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 11,
        wakeup_permille: 120,
        lockfail_permille: 60,
        allocfail_permille: 25,
        kill_permille: 8,
        max_kills: 2,
    }
}

/// Everything one run of preset `name` shows a user: termination, run and
/// fault counters, the truncation flag and every rendered report. The run
/// stats come along for the counters only some suites compare.
pub fn observe(
    name: &str,
    flat: &FlatProgram,
    opts: &VmOptions,
    seed: Option<u64>,
    knob: Knob,
) -> (String, RunStats) {
    let mut cfg = DetectorConfig::by_name(name).unwrap();
    let mut opts = opts.clone();
    let (mut filtered, mut replay) = (true, false);
    match knob {
        Knob::Filter(on) => filtered = on,
        Knob::HbReference(on) => cfg.hb_reference = on,
        Knob::Vm(mode) => opts.mode = mode,
        Knob::Replay(on) => replay = on,
    }
    let mut det = AnyDetector::by_name(name, cfg, SuppressionSet::new());
    let mut sched: Box<dyn Scheduler> = match seed {
        Some(s) => Box::new(SeededRandom::new(s)),
        None => Box::new(RoundRobin::new()),
    };
    let (r, truncated, reports) = if replay {
        // `record` puts the filter in front of the writer, as `check` puts
        // it in front of the detector.
        let mut bytes = Vec::new();
        let writer = TraceWriter::new(&mut bytes).with_epoch_events(REPLAY_EPOCH_EVENTS);
        let mut tool = FilterTool::new(writer);
        let r = run_flat(flat, &mut tool, sched.as_mut(), opts);
        let writer = tool.into_parts().0;
        writer.finish(&r.termination, &r.stats, r.faults.as_ref()).expect("trace written");
        let outcome = analyze_trace_bytes(&bytes, det, 1, 0).expect("recorded trace analyzes");
        (r, outcome.truncated, outcome.reports)
    } else {
        let r = if filtered {
            let mut tool = FilterTool::new(det);
            let r = run_flat(flat, &mut tool, sched.as_mut(), opts);
            det = tool.into_parts().0;
            r
        } else {
            run_flat(flat, &mut det, sched.as_mut(), opts)
        };
        (r, det.truncated(), det.take_reports())
    };
    let mut out = format!(
        "{name}\ntermination: {:?}\ntruncated: {}\nslots: {} events: {} ops: {} faults: {:?}\n",
        r.termination, truncated, r.stats.slots, r.stats.events, r.stats.ops, r.faults,
    );
    for rep in reports {
        out.push_str(&rep.render());
        out.push('\n');
    }
    (out, r.stats)
}

/// Call `f(case, preset, flat, opts, seed)` for T1–T8 × six presets:
/// RoundRobin, or with `faulted` the [`fault_plan`] under SeededRandom
/// `0xC0FFEE + case index`.
pub fn for_each_run(
    faulted: bool,
    mut f: impl FnMut(&str, &str, &FlatProgram, &VmOptions, Option<u64>),
) {
    let opts = VmOptions { faults: faulted.then(fault_plan), ..VmOptions::default() };
    for (i, case) in sipsim::testcases().into_iter().enumerate() {
        let flat = case.build().program.lower();
        let seed = faulted.then_some(0xC0FFEE + i as u64);
        for name in PRESETS {
            f(case.name, name, &flat, &opts, seed);
        }
    }
}

/// Panic on the first T1–T8 × six-preset run whose output differs between
/// knob settings `a` and `b`: every rendered byte plus the thread and
/// allocation counters, which the trace footer and soak log persist.
pub fn assert_knob_invisible(a: Knob, b: Knob, faulted: bool) {
    for_each_run(faulted, |case, name, flat, opts, seed| {
        let side = |knob| {
            let (text, s) = observe(name, flat, opts, seed, knob);
            format!("{text}threads: {} allocs: {}\n", s.threads_created, s.allocs)
        };
        assert_eq!(side(a), side(b), "{case}: {name} diverged between {a:?} and {b:?}");
    });
}

/// The chaos harness over T1–T8 under hwlc-dr, four seeded plans per
/// case, labelled `case/plan`.
pub fn chaos_sweep(mode: VmMode) -> Vec<(String, ChaosRunOutcome)> {
    let mut out = Vec::new();
    for (i, case) in sipsim::testcases().into_iter().enumerate() {
        let built = case.build();
        for p in 0..4u64 {
            let plan = FaultPlan::from_seed(0xFACE + i as u64 * 13 + p);
            let sched_seed = 0xBEEF ^ (i as u64) << 8 | p;
            let cfg = DetectorConfig::hwlc_dr();
            let run = sipsim::run_case_chaos_in(&built, cfg, plan, sched_seed, None, true, mode);
            out.push((format!("{}/{p} seed {sched_seed:#x}", case.name), run));
        }
    }
    out
}
