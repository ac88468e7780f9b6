//! On a host with a second CPU the live hybrid detector folds its events
//! on an analysis worker. The detector it leaves behind must read exactly
//! like the VM-thread fold over the live `VmView` (what a one-CPU host
//! runs): the same reports, the same guest fault, the same truncation
//! flags and engine counters. These tests compare the two for `hybrid`
//! and `hybrid-queue` on T1–T8, under fault plans, on guest faults and
//! under budgets, and pin the worker's lifecycle (reuse across runs, a
//! detector dropped mid-run). The unit tests of the `live` module put a
//! panic on the worker.

mod golden;

use golden::fault_plan;
use raceline::helgrind_core::{BudgetSpec, HybridDetector};
use raceline::prelude::*;
use raceline::sipsim;
use raceline::vexec::ir::lower::FlatProgram;
use raceline::vexec::vm::{run_flat, GuestError, VmView};

const ENGINES: [&str; 2] = ["hybrid", "hybrid-queue"];

#[derive(Clone, Copy, Debug)]
enum Path {
    /// The reference: `handle_event` against the live `VmView`, on the VM
    /// thread.
    View,
    /// The detector's own `Tool` impl: the worker on a multi-CPU host.
    Live,
}

/// The fold every event would get without the worker.
struct ViewFold(HybridDetector);

impl Tool for ViewFold {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        self.0.handle_event(ev, vm);
    }

    fn on_guest_fault(&mut self, err: &GuestError, _vm: &VmView<'_>) {
        self.0.guest_fault = Some(err.to_string());
    }

    fn on_finish(&mut self, _vm: &VmView<'_>) {
        self.0.handle_finish();
    }
}

/// Everything a caller can read of `det` after a run.
fn describe(det: &mut HybridDetector) -> String {
    let mut out = format!(
        "truncated: {}\nguest fault: {:?}\nsink: suppressed {} duplicates {} dropped {}\n",
        det.truncated(),
        det.guest_fault,
        det.sink.suppressed,
        det.sink.duplicates,
        det.sink.dropped,
    );
    for s in det.engine_stats() {
        out.push_str(&format!("{s:?}\n"));
    }
    for r in det.sink.take_reports() {
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

/// Run `flat` `runs` times through one detector behind the filter, as
/// `check` does, and describe the detector after each run.
fn observe(
    cfg: DetectorConfig,
    flat: &FlatProgram,
    opts: &VmOptions,
    seed: Option<u64>,
    runs: usize,
    path: Path,
) -> String {
    let det = HybridDetector::new(cfg);
    let mut out = String::new();
    let sched = || -> Box<dyn Scheduler> {
        match seed {
            Some(s) => Box::new(SeededRandom::new(s)),
            None => Box::new(RoundRobin::new()),
        }
    };
    match path {
        Path::View => {
            let mut tool = FilterTool::new(ViewFold(det));
            for _ in 0..runs {
                let r = run_flat(flat, &mut tool, sched().as_mut(), opts.clone());
                let det = &mut tool.inner_mut().0;
                out.push_str(&format!("{:?}\n{:?}\n{}", r.termination, r.faults, describe(det)));
            }
        }
        Path::Live => {
            let mut tool = FilterTool::new(det);
            for _ in 0..runs {
                let r = run_flat(flat, &mut tool, sched().as_mut(), opts.clone());
                let det = tool.inner_mut();
                out.push_str(&format!("{:?}\n{:?}\n{}", r.termination, r.faults, describe(det)));
            }
        }
    }
    out
}

fn assert_paths_agree(
    what: &str,
    cfg: DetectorConfig,
    flat: &FlatProgram,
    opts: &VmOptions,
    seed: Option<u64>,
) -> String {
    let view = observe(cfg, flat, opts, seed, 1, Path::View);
    assert_eq!(observe(cfg, flat, opts, seed, 1, Path::Live), view, "{what}: diverged");
    view
}

#[test]
fn t1_t8_live_folds_match_the_view_fold() {
    for case in sipsim::testcases() {
        let flat = case.build().program.lower();
        for name in ENGINES {
            let cfg = DetectorConfig::by_name(name).unwrap();
            let clean = assert_paths_agree(case.name, cfg, &flat, &VmOptions::default(), None);
            assert!(clean.contains("AllExited"), "{}: {clean}", case.name);
        }
    }
}

/// Under the golden sweep's fault plan runs lose threads and deadlock;
/// each must leave the same detector behind on both paths. (The guest
/// fault test below covers the remaining way a run ends.)
#[test]
fn t1_t8_paths_agree_under_faults_kills_and_deadlocks() {
    let opts = VmOptions { faults: Some(fault_plan()), ..VmOptions::default() };
    let mut ends = String::new();
    for (i, case) in sipsim::testcases().into_iter().enumerate() {
        let flat = case.build().program.lower();
        for name in ENGINES {
            let cfg = DetectorConfig::by_name(name).unwrap();
            let seed = Some(0xC0FFEE + i as u64);
            ends.push_str(&assert_paths_agree(case.name, cfg, &flat, &opts, seed));
        }
    }
    assert!(ends.contains("Deadlock"), "the sweep must reach a deadlock");
    assert!(
        ends.lines().any(|l| l.contains("kills: ") && !l.contains("kills: 0,")),
        "the sweep must kill a thread"
    );
}

/// A program that runs past several chunks, races, and fails an
/// assertion: the race right before the fault must be folded before the
/// fault is, and the fault must come back with the detector. The racing
/// store sits in a callee called from the line of the caller's last
/// event, so only the top-frame rule moves the caller's frame there.
fn racy_then_fault(spin: u64) -> FlatProgram {
    let mut pb = ProgramBuilder::new();
    let shared = pb.global("shared", 8);
    let wloc = pb.loc("worker.cpp", 7, "worker");
    let mut w = ProcBuilder::new(0);
    w.at(wloc);
    w.store(shared, 1u64, 8);
    let worker = pb.add_proc("worker", w);

    let tloc = pb.loc("main.cpp", 30, "touch");
    let mut t = ProcBuilder::new(0);
    t.at(tloc);
    t.store(shared, 2u64, 8);
    let touch = pb.add_proc("touch", t);

    let mut m = ProcBuilder::new(0);
    let mloc = pb.loc("main.cpp", 10, "main");
    m.at(mloc);
    m.spawn(worker, vec![]);
    let sloc = pb.loc("main.cpp", 14, "main");
    m.at(sloc);
    m.begin_repeat(spin);
    let cell = m.alloc(8u64);
    m.store(Expr::Reg(cell), 7u64, 8);
    m.free(Expr::Reg(cell));
    m.end_repeat();
    m.call(touch, vec![], None);
    m.assert_eq(1u64, 2u64, "invariant broken");
    let main = pb.add_proc("main", m);
    pb.set_entry(main);
    pb.finish().lower()
}

#[test]
fn a_guest_fault_arrives_after_every_event_before_it() {
    let flat = racy_then_fault(1500);
    for name in ENGINES {
        let cfg = DetectorConfig::by_name(name).unwrap();
        let out = assert_paths_agree(name, cfg, &flat, &VmOptions::default(), None);
        assert!(out.contains("GuestError"), "{out}");
        assert!(out.contains("assertion failed: invariant broken"), "{out}");
        assert!(out.contains("main.cpp:30"), "the race just before the fault: {out}");
        assert!(out.contains("by main (main.cpp:14)"), "the caller's frame: {out}");
    }
}

#[test]
fn budget_truncation_flags_come_back_from_the_worker() {
    let flat = sipsim::testcases()[0].build().program.lower();
    for name in ENGINES {
        for budget in ["reports=1", "shadow=64", "locksets=2"] {
            let mut cfg = DetectorConfig::by_name(name).unwrap();
            cfg.budget = BudgetSpec::parse(budget).unwrap().detector;
            let out = assert_paths_agree(budget, cfg, &flat, &VmOptions::default(), None);
            assert!(out.contains("truncated: true"), "{name} {budget}: {out}");
        }
    }
}

/// One detector over several runs keeps its engines between them, on
/// both paths.
#[test]
fn one_detector_folds_several_runs() {
    let flat = sipsim::testcases()[2].build().program.lower();
    for name in ENGINES {
        let cfg = DetectorConfig::by_name(name).unwrap();
        let opts = VmOptions::default();
        let view = observe(cfg, &flat, &opts, Some(5), 3, Path::View);
        assert_eq!(observe(cfg, &flat, &opts, Some(5), 3, Path::Live), view, "{name}");
    }
}

/// Hands a hybrid detector `keep` events, then drops it mid-run.
struct DropMidRun {
    det: Option<HybridDetector>,
    keep: u64,
}

impl Tool for DropMidRun {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        if self.keep == 0 {
            self.det = None;
            return;
        }
        self.keep -= 1;
        if let Some(d) = &mut self.det {
            d.on_event(ev, vm);
        }
    }
}

#[test]
fn dropping_a_detector_mid_run_neither_hangs_nor_breaks_the_next_run() {
    let flat = sipsim::testcases()[0].build().program.lower();
    for keep in [0, 1, 5000] {
        let det = HybridDetector::new(DetectorConfig::hybrid());
        let mut tool = DropMidRun { det: Some(det), keep };
        run_flat(&flat, &mut tool, &mut RoundRobin::new(), VmOptions::default());
        assert!(tool.det.is_none());
    }
    let cfg = DetectorConfig::hybrid();
    let view = observe(cfg, &flat, &VmOptions::default(), None, 1, Path::View);
    assert_eq!(observe(cfg, &flat, &VmOptions::default(), None, 1, Path::Live), view);
}
