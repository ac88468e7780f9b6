//! `soak`: phases of the default heavy-tailed SIP dialog mix, each one
//! guest build + lower + compile + VM run with the `hybrid` detector
//! behind the filter and shadow reclaim on (`sipsim::run_phase`, the
//! body of `raceline soak`). Same VM, filter and detector layers as
//! `overhead`, but a server-shaped guest: a thread pool, alloc/free
//! churn and destructor annotations.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use sipsim::native::WorkloadSpec;
use sipsim::{
    build_soak_phase, phase_fault_plan, phase_sched_seed, run_phase, PhaseEnd, PhaseOutcome,
    PhaseStats, SoakLog, SoakSpec,
};
use vexec::filter::FilterTool;
use vexec::sched::SeededRandom;
use vexec::tool::NullTool;
use vexec::vm::{PreparedProgram, Termination, VmMode, VmOptions};

use crate::layers::{self, Sched, Subject};
use crate::overhead;
use crate::spans::{SampledTool, SelfTimes};
use crate::spec::Params;
use crate::stats::{expect_eq, timed, Outcome, Rng, Samples};
use crate::Ctx;

/// Phases a run may reach; only the ones time allows are run.
const MAX_PHASES: u32 = 100_000;

/// The engine `raceline soak` runs by default.
const ENGINE: &str = "hybrid";

/// The native baseline interleaved with the phases: the §4.5 work at a
/// size that takes a few milliseconds, on two OS threads.
const NATIVE: WorkloadSpec = WorkloadSpec { threads: 2, iterations: 2000, parse_reads: 32 };

struct Cfg {
    spec: SoakSpec,
    planted: BTreeSet<String>,
    ledger_reps: usize,
}

impl Cfg {
    fn from(p: Params<'_>, seed: u64) -> Result<Cfg, String> {
        let per_phase = p.u64("dialogs_per_phase")?;
        let spec = SoakSpec {
            dialogs: per_phase * u64::from(MAX_PHASES),
            phases: MAX_PHASES,
            seed: Rng::new(seed).next_u64(),
            // Kills off: a killed worker can deadlock a phase, and every
            // phase must end cleanly to be checked.
            kill_permille: 0,
            ..SoakSpec::default()
        };
        Ok(Cfg {
            spec,
            planted: p.strs("planted_sites")?.into_iter().map(str::to_string).collect(),
            ledger_reps: p.usize("ledger_reps")?,
        })
    }

    fn opts(&self, phase: u32) -> VmOptions {
        VmOptions { faults: Some(phase_fault_plan(&self.spec, phase)), ..VmOptions::default() }
    }
}

/// Every report of a phase must sit at a planted site, and the phase must
/// finish: kills are off, so nothing may deadlock.
fn check_phase(cfg: &Cfg, o: &PhaseOutcome) -> Result<(), String> {
    expect_eq(&format!("phase {} end", o.stats.phase), &o.stats.end, &PhaseEnd::Clean)?;
    for r in &o.reports {
        let site = format!("{}:{}", r.file, r.line);
        if !cfg.planted.contains(&site) {
            return Err(format!("phase {}: warning at unplanted site {site}", o.stats.phase));
        }
    }
    Ok(())
}

/// The whole planted catalogue must have been found.
fn check_catalogue(cfg: &Cfg, log: &SoakLog) -> Result<(), String> {
    let found: BTreeSet<String> =
        log.catalogue.values().map(|e| format!("{}:{}", e.file, e.line)).collect();
    expect_eq("soak catalogue sites", found, cfg.planted.clone())
}

/// Set-up: prepare the first phase's guest (build, lower, compile).
/// Timed once per phase over the whole run, so the median sees the host
/// in all the states the phases do.
fn setup(cfg: &Cfg) -> Duration {
    let t = Instant::now();
    let flat = build_soak_phase(&cfg.spec, 0).lower();
    let prepared = PreparedProgram::new(&flat, VmMode::Compiled);
    std::hint::black_box(prepared.compile_stats());
    t.elapsed()
}

/// One phase as `raceline soak` runs it, folded into the catalogue.
fn phase_op(cfg: &Cfg, phase: u32, log: &mut SoakLog) -> (Duration, PhaseOutcome) {
    let t = Instant::now();
    let o = run_phase(&cfg.spec, phase, Some(layers::detector(ENGINE)), true, None);
    log.fold_phase(&o);
    (t.elapsed(), o)
}

pub fn run(p: Params<'_>, ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let (seed, seconds) = (ctx.seed, ctx.seconds);
    let cfg = Cfg::from(p, seed)?;
    let mut out = Outcome::default();

    let mut setups = Samples::default();
    setups.push(setup(&cfg));
    let mut rng = Rng::new(seed ^ 0x50AC);
    if ctx.trace {
        traced(&cfg, &mut rng, ctx, &mut out)?;
        return Ok(out);
    }

    let mut log = SoakLog::new(&cfg.spec);
    let (mut phases, mut natives) = (Samples::default(), Samples::default());
    let (mut dialogs, mut peak) = (0u64, 0usize);
    let start = Instant::now();
    let mut phase = 0u32;
    while start.elapsed().as_secs_f64() < seconds && phase < MAX_PHASES {
        setups.push(setup(&cfg));
        if rng.unit() < 0.5 {
            natives.push(overhead::native(NATIVE, &mut out));
        }
        let (d, o) = phase_op(&cfg, phase, &mut log);
        phases.push(d);
        out.check(check_phase(&cfg, &o));
        dialogs += o.stats.dialogs;
        peak = peak.max(o.stats.peak_granules);
        phase += 1;
    }
    out.check(check_catalogue(&cfg, &log));
    // Printed, not gated: the median and mean follow the share of the run
    // the host spent contended, and spread over the bounds between runs.
    let (tail, pct) = phases.tail_ms();
    println!(
        "soak: {} phases: median {:.3} ms, mean {:.3} ms, {:.0} dialogs/s; tail is \
         p{pct:.1}, 10 samples beyond it; {:.2}x native (mean over mean)",
        phases.len(),
        phases.median_ms(),
        phases.mean_ms(),
        dialogs as f64 / (phases.total_ms() / 1e3),
        phases.mean_ms() / natives.mean_ms()
    );
    out.metric("setup_s", setups.median_ms() / 1e3, "s");
    out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    out.metric("tail_ms", tail, "ms");
    out.metric("peak_live_granules", peak as f64, "count");
    Ok(out)
}

/// `run_phase` decomposed into its public steps, each in its own span.
/// Returns the same outcome `run_phase` would. The VM run's filter and
/// engine self times come from sampled callback spans; the VM's own self
/// time is taken from a separate null-tool run ([`null_phase`]).
fn traced_phase(cfg: &Cfg, phase: u32, rng: &mut Rng, st: &mut SelfTimes) -> PhaseOutcome {
    let engine_layer = format!("core.{ENGINE}");
    let (program, d) = timed(|| build_soak_phase(&cfg.spec, phase));
    st.add_dur("sipsim.build", d);
    let (flat, d) = timed(|| program.lower());
    st.add_dur("vexec.ir.lower", d);
    let (prepared, d) = timed(|| PreparedProgram::new(&flat, VmMode::Compiled));
    st.add_dur("vexec.ir.compile", d);
    let (mut tool, d) = timed(|| {
        let inner = SampledTool::new(layers::detector(ENGINE), rng.next_u64());
        SampledTool::new(FilterTool::new(inner), rng.next_u64())
    });
    st.add_dur(&engine_layer, d);
    let mut sched = SeededRandom::new(phase_sched_seed(&cfg.spec, phase));
    let r = prepared.run(&mut tool, &mut sched, cfg.opts(phase));
    let outer = tool.estimate_ns();
    let (filter, _) = tool.inner.into_parts();
    let engine_ns = filter.estimate_ns();
    st.add("vexec.filter", outer - engine_ns);
    st.add(&engine_layer, engine_ns);
    let mut det = filter.inner;
    let ((reports, stats, truncated), d) = timed(|| {
        let stats = det.engine_stats();
        (det.take_reports(), stats, det.truncated())
    });
    st.add_dur("core.report", d);
    let faults = r.faults.unwrap_or_default();
    let end = match &r.termination {
        Termination::AllExited => PhaseEnd::Clean,
        Termination::Deadlock(waits) => PhaseEnd::Deadlock(waits.len()),
        Termination::GuestError(e) => PhaseEnd::GuestError(e.to_string()),
        Termination::FuelExhausted => PhaseEnd::FuelExhausted,
    };
    PhaseOutcome {
        stats: PhaseStats {
            phase,
            dialogs: cfg.spec.phase_dialogs(phase),
            events: r.stats.events,
            slots: r.stats.slots,
            kills: faults.kills,
            leaked_locks: faults.leaked_locks,
            leaked_bytes: faults.leaked_bytes,
            warnings: reports.len(),
            peak_granules: stats.iter().map(|s| s.peak_granules).max().unwrap_or(0),
            end_granules: stats.iter().map(|s| s.live_granules).max().unwrap_or(0),
            truncated,
            end,
        },
        reports,
    }
}

/// The phase's VM run with a null tool, on the same schedule and options:
/// the VM's self time in the traced phase. Build, lower and compile are
/// not timed here; the traced phase times them.
fn null_phase(cfg: &Cfg, phase: u32, st: &mut SelfTimes) -> Result<(), String> {
    let flat = build_soak_phase(&cfg.spec, phase).lower();
    let prepared = PreparedProgram::new(&flat, VmMode::Compiled);
    let mut sched = SeededRandom::new(phase_sched_seed(&cfg.spec, phase));
    let (r, d) = timed(|| prepared.run(&mut NullTool, &mut sched, cfg.opts(phase)));
    st.add_dur("vexec.vm", d);
    match &r.termination {
        Termination::AllExited => Ok(()),
        t => Err(format!("phase {phase}: null-tool run ended {t:?}")),
    }
}

fn traced(cfg: &Cfg, rng: &mut Rng, ctx: &Ctx<'_>, out: &mut Outcome) -> Result<(), String> {
    let (seconds, work, residual_bound_pct) = (ctx.seconds, ctx.work, ctx.residual_bound_pct);
    let spec = cfg.spec;
    let subject = Subject {
        label: "phase-0".to_string(),
        build: Box::new(move || build_soak_phase(&spec, 0)),
        sched: Sched::Seeded(phase_sched_seed(&cfg.spec, 0)),
        opts: cfg.opts(0),
    };
    let ledger = layers::run(&subject, ENGINE, work, cfg.ledger_reps, out)?;
    out.metric("warehouse.service.dedup_hit_rate", ledger.dedup_hit_rate, "ratio");

    // Untraced, traced and null-tool runs of the same phase, in a seeded
    // order; the traced decomposition must reproduce `run_phase` exactly.
    let mut st = SelfTimes::default();
    let (mut natives, mut gaps) = (Samples::default(), Samples::default());
    let (mut plain_log, mut traced_log) = (SoakLog::new(&cfg.spec), SoakLog::new(&cfg.spec));
    let start = Instant::now();
    let mut last_end = Instant::now();
    let mut phase = 0u32;
    while start.elapsed().as_secs_f64() < seconds && phase < MAX_PHASES {
        gaps.push(last_end.elapsed());
        natives.push(overhead::native(NATIVE, out));
        last_end = Instant::now();
        let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
        let (mut plain, mut decomposed) = (None, None);
        for variant in rng.order3() {
            gaps.push(last_end.elapsed());
            match variant {
                0 => {
                    let (d, o) = phase_op(cfg, phase, &mut plain_log);
                    untraced = d;
                    plain = Some(o);
                }
                1 => {
                    let root = Instant::now();
                    let o = traced_phase(cfg, phase, rng, &mut st);
                    let (_, d) = timed(|| traced_log.fold_phase(&o));
                    st.add_dur("sipsim.soak", d);
                    traced = root.elapsed();
                    decomposed = Some(o);
                }
                _ => out.check(null_phase(cfg, phase, &mut st)),
            }
            last_end = Instant::now();
        }
        let (plain, decomposed) = (plain.expect("ran"), decomposed.expect("ran"));
        out.check(check_phase(cfg, &plain));
        out.check(expect_eq(
            "traced phase block",
            SoakLog::phase_block(&decomposed),
            SoakLog::phase_block(&plain),
        ));
        st.op(untraced, traced);
        phase += 1;
    }
    st.report("soak", residual_bound_pct, out);
    out.metric("native.slowdown_x", st.untraced_mean_ms() / natives.mean_ms(), "x");
    out.metric("native.ms", natives.median_ms(), "ms");
    out.metric("generator.late_ms", gaps.mean_ms(), "ms");
    Ok(())
}
