//! `overhead`: the §4.5 experiment as a user meets it. One closed-loop
//! caller runs the default `check` path (compiled VM → redundant-access
//! filter → the `hwlc-dr` lockset engine) on the §4.5 guest, with the
//! same work run natively on OS threads interleaved as the baseline. No
//! trace or warehouse work happens, so this isolates the interpreter,
//! the filter and the engine.

use std::time::{Duration, Instant};

use helgrind_core::AnyDetector;
use sipsim::native::{native_workload, vm_workload_program, WorkloadSpec};
use vexec::filter::FilterTool;
use vexec::ir::lower::FlatProgram;
use vexec::sched::RoundRobin;
use vexec::tool::NullTool;
use vexec::vm::{PreparedProgram, RunResult, Termination, VmMode, VmOptions, VmView};
use vexec::{AccessKind, Event, Tool};

use crate::layers::{self, Sched, Subject};
use crate::spans::{SampledTool, SelfTimes};
use crate::spec::Params;
use crate::stats::{expect_eq, timed, Outcome, Rng, Samples};
use crate::Ctx;

/// The engine `raceline check` runs by default.
const ENGINE: &str = "hwlc-dr";

struct Cfg {
    spec: WorkloadSpec,
    /// The §4.5 guest is race-free: its verdict is pinned in `spec.json`.
    expected_warnings: usize,
    /// The Fig 6 HWLC+DR count of each regression case T1–T8.
    fig6: Vec<(String, usize)>,
    ledger_reps: usize,
}

impl Cfg {
    fn from(p: Params<'_>) -> Result<Cfg, String> {
        Ok(Cfg {
            spec: WorkloadSpec {
                threads: p.usize("threads")?,
                iterations: p.u64("iterations")?,
                parse_reads: p.u64("parse_reads")?,
            },
            expected_warnings: p.usize("expected_warnings")?,
            fig6: p
                .counts("fig6_hwlc_dr_warnings")?
                .into_iter()
                .map(|(case, n)| (case.to_string(), n as usize))
                .collect(),
            ledger_reps: p.usize("ledger_reps")?,
        })
    }
}

/// One run of the native twin on OS threads; its counter must equal
/// threads × iterations.
pub fn native(spec: WorkloadSpec, out: &mut Outcome) -> Duration {
    let (count, d) = timed(|| native_workload(spec));
    out.check(expect_eq("native counter", count, spec.threads as u64 * spec.iterations));
    d
}

/// The verdict `check` prints: the rendered reports. Any ending but a
/// clean exit fails the check.
fn verdict(r: &RunResult, det: &mut AnyDetector) -> (usize, Result<(), String>) {
    let reports = det.take_reports();
    let rendered: usize = reports.iter().map(|rep| rep.render().len()).sum();
    std::hint::black_box(rendered);
    let ended = match &r.termination {
        Termination::AllExited => Ok(()),
        t => Err(format!("check ended {t:?}")),
    };
    (reports.len(), ended)
}

fn peak(det: &AnyDetector) -> usize {
    det.engine_stats().iter().map(|s| s.peak_granules).max().unwrap_or(0)
}

/// One untraced `check`: time to verdict.
fn check(cfg: &Cfg, prepared: &PreparedProgram<'_>, out: &mut Outcome) -> (Duration, usize, u64) {
    let t = Instant::now();
    let mut tool = FilterTool::new(layers::detector(ENGINE));
    let r = prepared.run(&mut tool, &mut RoundRobin::new(), VmOptions::default());
    let (mut det, _) = tool.into_parts();
    let (warnings, ended) = verdict(&r, &mut det);
    let d = t.elapsed();
    out.check(ended.and(expect_eq("check verdict", warnings, cfg.expected_warnings)));
    (d, peak(&det), r.stats.events)
}

/// Counts the guest's stores to `g_session`, its first global: the VM
/// allocates globals first, in declaration order, so it is the first heap
/// block.
#[derive(Default)]
struct SessionStores(u64);

impl Tool for SessionStores {
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        if let Event::Access { addr, kind: AccessKind::Write, .. } = ev {
            if vm.heap_blocks().first().is_some_and(|b| b.addr == *addr) {
                self.0 += 1;
            }
        }
    }
}

/// Untimed known-answer checks, once per run, that the detection the
/// timed checks pay for still happens:
/// - T1–T8 through the same path (compiled VM → filter → `hwlc-dr`) must
///   give the Fig 6 HWLC+DR counts. The §4.5 guest is race-free, so only
///   these catch an engine or filter that stops seeing accesses.
/// - The guest must store to `g_session` once per increment, threads ×
///   iterations times. Its own closing assertion checks the final value
///   in every timed check too: a failed assertion ends the run with a
///   guest error, which fails the check.
fn known_answers(cfg: &Cfg, flat: &FlatProgram, out: &mut Outcome) {
    let cases = sipsim::testcases();
    out.check(expect_eq(
        "Fig 6 cases",
        cases.iter().map(|tc| tc.name.to_string()).collect::<Vec<_>>(),
        cfg.fig6.iter().map(|(name, _)| name.clone()).collect(),
    ));
    for (tc, (name, want)) in cases.iter().zip(&cfg.fig6) {
        let flat = tc.build().program.lower();
        let prepared = PreparedProgram::new(&flat, VmMode::Compiled);
        let mut tool = FilterTool::new(layers::detector(ENGINE));
        let r = prepared.run(&mut tool, &mut RoundRobin::new(), VmOptions::default());
        let (mut det, _) = tool.into_parts();
        let (warnings, ended) = verdict(&r, &mut det);
        out.check(ended.and(expect_eq(&format!("{name} {ENGINE} warnings"), warnings, *want)));
    }
    let prepared = PreparedProgram::new(flat, VmMode::Compiled);
    let mut stores = SessionStores::default();
    let r = prepared.run(&mut stores, &mut RoundRobin::new(), VmOptions::default());
    let ended = match &r.termination {
        Termination::AllExited => Ok(()),
        t => Err(format!("session count run ended {t:?}")),
    };
    let want = cfg.spec.threads as u64 * cfg.spec.iterations;
    out.check(ended.and(expect_eq("g_session stores", stores.0, want)));
}

/// Build, lower and compile the guest: what every `check` does before
/// the VM starts. Timed once per round over the whole run, so the median
/// sees the host in all the states the checks do.
fn setup(spec: WorkloadSpec) -> (FlatProgram, Duration) {
    let t = Instant::now();
    let flat = vm_workload_program(spec).lower();
    let prepared = PreparedProgram::new(&flat, VmMode::Compiled);
    std::hint::black_box(prepared.compile_stats());
    drop(prepared);
    (flat, t.elapsed())
}

pub fn run(p: Params<'_>, ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let (seed, seconds) = (ctx.seed, ctx.seconds);
    let cfg = Cfg::from(p)?;
    let mut out = Outcome::default();
    let (flat, first) = setup(cfg.spec);
    known_answers(&cfg, &flat, &mut out);
    let mut setups = Samples(vec![first.as_nanos() as u64]);
    let prepared = PreparedProgram::new(&flat, VmMode::Compiled);
    let mut rng = Rng::new(seed);
    if ctx.trace {
        traced(&cfg, &prepared, &mut rng, ctx, &mut out)?;
        return Ok(out);
    }

    let (mut checks, mut natives) = (Samples::default(), Samples::default());
    let (mut peak_granules, mut events) = (0usize, 0u64);
    let start = Instant::now();
    // Closed loop, one caller. Each round runs one check and one native
    // baseline in a seeded order, so neither side always runs first.
    while start.elapsed().as_secs_f64() < seconds {
        setups.push(setup(cfg.spec).1);
        let native_first = rng.unit() < 0.5;
        for step in 0..2 {
            if (step == 0) == native_first {
                natives.push(native(cfg.spec, &mut out));
            } else {
                let (d, pk, ev) = check(&cfg, &prepared, &mut out);
                checks.push(d);
                peak_granules = peak_granules.max(pk);
                events += ev;
            }
        }
    }
    // Printed, not gated: the median and mean follow the share of the run
    // the host spent contended, and spread over the bounds between runs.
    let (tail, pct) = checks.tail_ms();
    println!(
        "overhead: {} checks: median {:.3} ms, mean {:.3} ms, {:.0} events/s; tail is \
         p{pct:.1}, 10 samples beyond it; {:.2}x native (mean over mean)",
        checks.len(),
        checks.median_ms(),
        checks.mean_ms(),
        events as f64 / (checks.total_ms() / 1e3),
        checks.mean_ms() / natives.mean_ms()
    );
    out.metric("setup_s", setups.median_ms() / 1e3, "s");
    out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    out.metric("tail_ms", tail, "ms");
    out.metric("peak_live_granules", peak_granules as f64, "count");
    Ok(out)
}

/// The traced run: the layer ledger on the guest, then the span pass.
///
/// The span pass runs three variants of one check per round, in a seeded
/// order: untraced, traced, and the same run with a null tool. The traced
/// check's filter and engine self times come from sampled callback spans;
/// the VM's self time is the null-tool run's own time, measured apart.
/// So the self times are not a remainder of the traced span, and the
/// residual (untraced minus their sum) shows time nothing explains.
fn traced(
    cfg: &Cfg,
    prepared: &PreparedProgram<'_>,
    rng: &mut Rng,
    ctx: &Ctx<'_>,
    out: &mut Outcome,
) -> Result<(), String> {
    let (seconds, work, residual_bound_pct) = (ctx.seconds, ctx.work, ctx.residual_bound_pct);
    let spec = cfg.spec;
    let subject = Subject {
        label: "workload".to_string(),
        build: Box::new(move || vm_workload_program(spec)),
        sched: Sched::RoundRobin,
        opts: VmOptions::default(),
    };
    let ledger = layers::run(&subject, ENGINE, work, cfg.ledger_reps, out)?;
    out.metric("warehouse.service.dedup_hit_rate", ledger.dedup_hit_rate, "ratio");

    let mut st = SelfTimes::default();
    let mut natives = Samples::default();
    let mut gaps = Samples::default();
    let engine_layer = format!("core.{ENGINE}");
    let start = Instant::now();
    // Closed loop: the generator is "late" by the gap between one op's end
    // and the next op's start.
    let mut last_end = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        gaps.push(last_end.elapsed());
        natives.push(native(cfg.spec, out));
        last_end = Instant::now();
        let mut untraced = Duration::ZERO;
        let mut traced = Duration::ZERO;
        for variant in rng.order3() {
            gaps.push(last_end.elapsed());
            match variant {
                0 => untraced = check(cfg, prepared, out).0,
                1 => {
                    let root = Instant::now();
                    let (mut tool, d) = timed(|| {
                        let inner = SampledTool::new(layers::detector(ENGINE), rng.next_u64());
                        SampledTool::new(FilterTool::new(inner), rng.next_u64())
                    });
                    st.add_dur(&engine_layer, d);
                    let r = prepared.run(&mut tool, &mut RoundRobin::new(), VmOptions::default());
                    let outer = tool.estimate_ns();
                    let (filter, _) = tool.inner.into_parts();
                    let engine_ns = filter.estimate_ns();
                    st.add("vexec.filter", outer - engine_ns);
                    st.add(&engine_layer, engine_ns);
                    let mut det = filter.inner;
                    let ((warnings, ended), d) = timed(|| verdict(&r, &mut det));
                    st.add_dur("core.report", d);
                    out.check(ended.and(expect_eq(
                        "traced check verdict",
                        warnings,
                        cfg.expected_warnings,
                    )));
                    traced = root.elapsed();
                }
                _ => {
                    let (r, d) = timed(|| {
                        prepared.run(&mut NullTool, &mut RoundRobin::new(), VmOptions::default())
                    });
                    st.add_dur("vexec.vm", d);
                    out.check(match &r.termination {
                        Termination::AllExited => Ok(()),
                        t => Err(format!("null-tool run ended {t:?}")),
                    });
                }
            }
            last_end = Instant::now();
        }
        st.op(untraced, traced);
    }
    st.report("overhead", residual_bound_pct, out);
    out.metric("native.slowdown_x", st.untraced_mean_ms() / natives.mean_ms(), "x");
    out.metric("native.ms", natives.median_ms(), "ms");
    out.metric("generator.late_ms", gaps.mean_ms(), "ms");
    Ok(())
}
