//! `raceline chaos`: sweep seeded fault plans across the T1–T8 evaluation
//! cases and the §4.1 bug catalogue, asserting the *detector's* resilience
//! invariants — chaos-testing the tracer the way the paper's SIP proxy was
//! tested:
//!
//! 1. no host panic, whatever the injected faults do to the guest;
//! 2. identical (seed, plan) ⇒ bit-identical report fingerprint;
//! 3. the true-positive catalogue is still detected under faults.
//!
//! Findings in the guest are *expected* here (that is the point); the exit
//! code reflects only the invariants: 0 = all hold, 2 = a resilience bug.

use super::{CmdError, Opts, EXIT_ERROR};
use helgrind_core::{par, EraserDetector};
use serde::Value;
use vexec::faults::FaultPlan;
use vexec::sched::{PriorityOrder, RoundRobin, Scheduler};
use vexec::vm::{run_flat, VmOptions};

pub(super) fn run(o: &Opts) -> Result<i32, CmdError> {
    let (runs, seed, jobs, max_slots) = (o.runs, o.seed, o.jobs, o.max_slots);
    let cfg = o.detector_config(&o.detector)?;
    let vm_mode = o.vm_mode();

    let cases: Vec<sipsim::TestCase> = sipsim::testcases()
        .into_iter()
        .filter(|tc| o.cases.as_ref().is_none_or(|f| f.iter().any(|n| n == tc.name)))
        .collect();
    if cases.is_empty() {
        return Err(format!("no test cases match {:?}", o.cases).into());
    }
    eprintln!(
        "chaos: {} run(s), base seed {seed:#x}, {} case(s): {}",
        runs,
        cases.len(),
        cases.iter().map(|c| c.name).collect::<Vec<_>>().join(",")
    );
    let built: Vec<sipsim::BuiltProxy> = cases.iter().map(|tc| tc.build()).collect();

    // Silence the default "thread panicked" spew: a panic is *recorded* as
    // a resilience failure, not splattered over the report.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut panics: usize = 0;
    let mut mismatches: usize = 0;
    let mut deadlocks: usize = 0;
    let mut guest_errors: usize = 0;
    let mut fuel_exhausted: usize = 0;
    let mut truncated_runs: usize = 0;
    let mut faults_injected: u64 = 0;
    let mut case_real_cover: Vec<bool> = vec![false; cases.len()];

    // Each run index fully determines its own inputs (plan, case, schedule
    // seed), so the sweep fans out over a worker pool and folds back in
    // index order — counters, diagnostics and the exit code are
    // bit-identical to the sequential sweep whatever `jobs` is.
    enum Probe {
        Mismatch,
        Panicked,
    }
    let outcomes = par::map_indexed(jobs, runs, |i| {
        let plan = FaultPlan::from_seed(seed.wrapping_add(i as u64));
        let ci = i % cases.len();
        let sched_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
        let b = &built[ci];
        let filter = !o.no_filter;
        let run =
            || sipsim::run_case_chaos_in(b, cfg, plan, sched_seed, max_slots, filter, vm_mode);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).ok();
        // Determinism probe on a sample of runs: the same (plan, schedule)
        // must reproduce the exact report fingerprint.
        let probe = match &outcome {
            Some(first) if i % 10 == 0 => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                    Ok(again) if again.fingerprint == first.fingerprint => None,
                    Ok(_) => Some(Probe::Mismatch),
                    Err(_) => Some(Probe::Panicked),
                }
            }
            _ => None,
        };
        (outcome, probe)
    });
    for (i, (outcome, probe)) in outcomes.into_iter().enumerate() {
        let plan_seed = seed.wrapping_add(i as u64);
        let ci = i % cases.len();
        let Some(outcome) = outcome else {
            panics += 1;
            eprintln!("PANIC: case {} plan seed {plan_seed:#x}", cases[ci].name);
            continue;
        };
        match probe {
            None => {}
            Some(Probe::Mismatch) => {
                mismatches += 1;
                eprintln!("NONDETERMINISM: case {} plan seed {plan_seed:#x}", cases[ci].name);
            }
            Some(Probe::Panicked) => panics += 1,
        }
        if outcome.deadlocked {
            deadlocks += 1;
        }
        if outcome.guest_error.is_some() {
            guest_errors += 1;
        }
        if outcome.fuel_exhausted {
            fuel_exhausted += 1;
        }
        if outcome.truncated {
            truncated_runs += 1;
        }
        faults_injected += outcome.fault_stats.map(|f| f.total()).unwrap_or(0);
        if outcome.real_hits > 0 {
            case_real_cover[ci] = true;
        }
    }

    // §4.1 catalogue under faults: each bug must still be detected under
    // at least one plan of the sweep. Bugs are independent of each other,
    // so they fan out across the pool too; within one bug the plans run in
    // order with the sequential early-exit, keeping the panic tally and
    // the missed list identical to --jobs 1.
    let all_bugs = sipsim::bugs::all_bugs();
    let bug_results = par::map_indexed(jobs, all_bugs.len(), |bi| {
        let bug = &all_bugs[bi];
        let flat = bug.program.lower();
        let mut attempt_panics: usize = 0;
        let mut found = false;
        for i in 0..runs.clamp(1, 25) {
            let plan = FaultPlan::from_seed(seed.wrapping_add(i as u64));
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut det = EraserDetector::new(cfg);
                let mut sched: Box<dyn Scheduler> = match &bug.schedule {
                    Some(order) => Box::new(PriorityOrder::new(
                        order.iter().map(|&t| vexec::ThreadId(t)).collect(),
                    )),
                    None => Box::new(RoundRobin::new()),
                };
                let opts = VmOptions { faults: Some(plan), mode: vm_mode, ..Default::default() };
                let _ = run_flat(&flat, &mut det, sched.as_mut(), opts);
                det.sink.reports().iter().any(|r| r.func == bug.expected_func)
            }));
            match attempt {
                Ok(true) => {
                    found = true;
                    break;
                }
                Ok(false) => {}
                Err(_) => attempt_panics += 1,
            }
        }
        (found, attempt_panics)
    });
    let mut bugs_missed: Vec<&'static str> = Vec::new();
    for (bi, (found, attempt_panics)) in bug_results.into_iter().enumerate() {
        panics += attempt_panics;
        if !found {
            bugs_missed.push(all_bugs[bi].name);
        }
    }
    drop(std::panic::take_hook());
    std::panic::set_hook(prev_hook);

    let uncovered: Vec<&str> =
        cases.iter().zip(&case_real_cover).filter(|&(_, &c)| !c).map(|(tc, _)| tc.name).collect();
    let ok = panics == 0 && mismatches == 0 && uncovered.is_empty() && bugs_missed.is_empty();

    if o.json {
        let names =
            |ns: &[&str]| Value::Array(ns.iter().map(|n| Value::Str(n.to_string())).collect());
        let obj = Value::Object(vec![
            ("runs".to_string(), Value::UInt(runs as u64)),
            ("panics".to_string(), Value::UInt(panics as u64)),
            ("nondeterministic".to_string(), Value::UInt(mismatches as u64)),
            ("deadlocks".to_string(), Value::UInt(deadlocks as u64)),
            ("guest_errors".to_string(), Value::UInt(guest_errors as u64)),
            ("fuel_exhausted".to_string(), Value::UInt(fuel_exhausted as u64)),
            ("truncated".to_string(), Value::UInt(truncated_runs as u64)),
            ("faults_injected".to_string(), Value::UInt(faults_injected)),
            ("uncovered_cases".to_string(), names(&uncovered)),
            ("bugs_missed".to_string(), names(&bugs_missed)),
            ("resilient".to_string(), Value::Bool(ok)),
        ]);
        println!("{obj}");
    } else {
        println!(
            "chaos: {runs} run(s): {panics} panic(s), {mismatches} nondeterministic, \
             {deadlocks} deadlock(s), {guest_errors} guest error(s), \
             {fuel_exhausted} fuel-exhausted, {truncated_runs} truncated, \
             {faults_injected} fault(s) injected"
        );
        if !uncovered.is_empty() {
            println!("real races NOT covered in: {}", uncovered.join(","));
        }
        if !bugs_missed.is_empty() {
            println!("catalogue bugs NOT detected under faults: {}", bugs_missed.join(","));
        }
        println!("resilience: {}", if ok { "OK" } else { "FAILED" });
    }
    Ok(if ok { 0 } else { EXIT_ERROR })
}
