//! The one option table. Each [`Flag`] row names a flag, its value
//! placeholder, the subcommands that accept it and its help text; [`parse`]
//! reads the table to accept a command line into one typed [`Opts`], and
//! [`usage`] renders the same rows as the usage text.

use super::CmdError;
use helgrind_core::{BudgetSpec, DetectorConfig, SuppressionSet};
use race_bench::snapshot::Mode;
use sipsim::SoakSpec;
use vexec::faults::{parse_u64, FaultPlan};
use vexec::sched::{Pct, RoundRobin, Scheduler, SeededRandom};
use vexec::vm::{VmMode, VmOptions};

/// One row of the option table.
pub struct Flag {
    pub name: &'static str,
    /// Value placeholder such as `<n>`; empty for a switch.
    pub value: &'static str,
    /// The subcommands that accept the flag, space-separated.
    pub cmds: &'static str,
    pub help: &'static str,
}

impl Flag {
    pub fn accepts(&self, cmd: &str) -> bool {
        self.cmds.split(' ').any(|c| c == cmd)
    }

    /// The flag with its value placeholder, e.g. `--jobs <n>`.
    fn synopsis(&self) -> String {
        format!("{} {}", self.name, self.value).trim_end().to_string()
    }
}

const fn flag(
    name: &'static str,
    value: &'static str,
    cmds: &'static str,
    help: &'static str,
) -> Flag {
    Flag { name, value, cmds, help }
}

/// Every subcommand with its operands; an empty operand string means the
/// command takes none.
pub const COMMANDS: &[(&str, &str)] = &[
    ("check", "<file.mcpp>..."),
    ("record", "<file.mcpp>..."),
    ("analyze", "<trace.rltrace>"),
    ("trace-diff", "<old.rltrace> <new.rltrace>"),
    ("serve", "[<build>=<trace.rltrace>...]"),
    ("client", "submit|query|diff|suppress|stats|ping|shutdown [<arg>]"),
    ("lint", "<file.mcpp>..."),
    ("chaos", ""),
    ("soak", ""),
    ("bench-snapshot", ""),
];

// The check, record and lint subcommands share one set of flags.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    flag("--detector", "<name>", "check record lint analyze trace-diff serve chaos soak",
        "original|hwlc|hwlc-dr|djit|hybrid|hybrid-queue (default hwlc-dr; soak: hybrid)"),
    flag("--schedule", "<spec>", "check record lint",
        "rr|random:<seed>|pct:<seed>[:<depth>] (default rr; pct depth 2)"),
    flag("--raw", "<file.mcpp>", "check record lint",
        "compile <file.mcpp> without instrumentation (third-party source, §3.1)"),
    flag("--suppressions", "<file>", "check record lint analyze",
        "load a Valgrind-style suppression file"),
    flag("--gen-suppressions", "", "check record lint analyze",
        "print a suppression entry for each warning"),
    flag("--explore", "<n>", "check record lint", "run under <n> random schedules and aggregate"),
    flag("--jobs", "<n>", "check record lint analyze trace-diff serve chaos soak",
        "spread the work over <n> worker threads; output is bit-identical to --jobs 1"),
    flag("--checkpoint", "<file>", "check record lint soak",
        "resume from and save a crash-safe checkpoint (check: with --explore)"),
    flag("--faults", "<spec>", "check record lint",
        "inject faults, e.g. seed=7,wakeup=20,kill=1 (keys: seed wakeup lockfail allocfail kill \
         max-kills, rates in permille)"),
    flag("--budget", "<spec>", "check record lint analyze soak",
        "cap detector state, e.g. shadow=10000,locksets=256,reports=64,slots=200000 (keys: shadow \
         locksets reports slots total-slots, the last the --explore watchdog); capped runs set \
         truncated/timed_out flags instead of aborting"),
    flag("--no-filter", "", "check record lint chaos soak",
        "disable the redundant-access filter cache (reports are identical either way)"),
    flag("--stats", "", "check record lint analyze",
        "print engine, filter, epoch and interpreter counters to stderr (stdout is unchanged)"),
    flag("--hb-reference", "", "check record lint analyze serve chaos soak",
        "run the HB engines on the reference full-VC read state (reports are identical)"),
    flag("--vm-reference", "", "check record lint chaos soak",
        "run the guest on the tree-walking reference interpreter (output is identical)"),
    flag("--static-cross-check", "", "check record lint",
        "also run the static analysis and label each finding confirmed-both / static-only / \
         dynamic-only"),
    flag("--directed", "", "check record lint",
        "(with --explore and --static-cross-check) probe each static finding's window first"),
    flag("--json", "", "check record lint analyze trace-diff chaos", "machine-readable output"),
    flag("--emit-annotated", "", "check record lint", "print the annotated source (Fig 4 view)"),
    flag("--emit-ir", "", "check record lint", "print the lowered guest IR (disassembly)"),
    flag("--case", "<name>", "check record lint",
        "record: a built-in T1..T8 proxy scenario instead of sources"),
    flag("--out", "<file>", "check record lint bench-snapshot",
        "output file (record: trace.rltrace; bench-snapshot: BENCH_<mode>.json)"),
    flag("--epoch-events", "<n>", "check record lint", "record: events per trace epoch frame"),
    flag("--from-epoch", "<k>", "analyze", "start the replay at epoch <k>"),
    flag("--repair", "", "analyze", "drop a crash-torn tail and analyze the intact prefix"),
    flag("--detector-a", "<name>", "trace-diff", "engine for the old trace (same as --detector)"),
    flag("--detector-b", "<name>", "trace-diff", "engine for the new trace (default: the old's)"),
    flag("--listen", "<addr>", "serve", "address to accept uploads on (port 0 picks one)"),
    flag("--spool", "<dir>", "serve", "spool directory holding the warehouse log"),
    flag("--fold", "", "serve", "fold <build>=<trace> operands offline and print the catalogue"),
    flag("--connect", "<addr>", "client", "address of a running serve"),
    flag("--build", "<n>", "client", "submit: the build id of the upload"),
    flag("--a", "<build>", "client", "diff: the old build"),
    flag("--b", "<build>", "client", "diff: the new build"),
    flag("--off", "", "client", "suppress: lift the suppression instead"),
    flag("--runs", "<n>", "chaos", "fault plans to sweep (default 100)"),
    flag("--seed", "<s>", "chaos soak", "base seed (chaos default 0xC0FFEE)"),
    flag("--cases", "<T1,T3,...>", "chaos", "restrict the sweep to these test cases"),
    flag("--max-slots", "<n>", "chaos soak", "per-run slot budget"),
    flag("--dialogs", "<n>", "soak", "total dialogs across all phases"),
    flag("--phases", "<n>", "soak", "traffic phases, one VM run each"),
    flag("--workers", "<n>", "soak", "thread-pool workers at phase start"),
    flag("--resize", "<n>", "soak", "workers added mid-phase"),
    flag("--hops", "<n>", "soak", "maximum forwarding hops per call (1..4)"),
    flag("--churn", "<permille>", "soak", "share of REGISTER churn dialogs"),
    flag("--options", "<permille>", "soak", "share of OPTIONS keep-alive dialogs"),
    flag("--reinvites", "<n>", "soak", "maximum re-INVITEs per call"),
    flag("--kill", "<permille>", "soak", "worker kill rate in armed phases"),
    flag("--max-kills", "<n>", "soak", "thread-death cap per armed phase"),
    flag("--no-reclaim", "", "soak", "keep dead-dialog shadow state (no HgCleanMemory)"),
    flag("--mem-report", "", "soak", "print the per-phase memory verdict"),
    flag("--samples", "<n>", "bench-snapshot", "timed runs per row (default 15)"),
    flag("--quick", "", "bench-snapshot", "3 samples per row"),
    flag("--trace", "", "bench-snapshot", "measure recording cost and codec throughput"),
    flag("--soak", "", "bench-snapshot", "measure soak dialogs/s with detection on and off"),
    flag("--serve", "", "bench-snapshot", "measure warehouse ingest throughput over TCP"),
];

/// A parsed command line. Fields a subcommand does not accept keep their
/// defaults.
#[derive(Debug, Default)]
pub struct Opts {
    pub cmd: String,
    /// Operands in command-line order, each with whether it came from
    /// `--raw` (compile without instrumentation).
    pub operands: Vec<(String, bool)>,
    pub detector: String,
    pub detector_b: Option<String>,
    pub schedule: String,
    pub suppressions: Option<String>,
    pub gen_suppressions: bool,
    pub explore: Option<usize>,
    pub jobs: usize,
    pub checkpoint: Option<String>,
    pub faults: Option<FaultPlan>,
    pub budget: Option<BudgetSpec>,
    pub no_filter: bool,
    pub stats: bool,
    pub hb_reference: bool,
    pub vm_reference: bool,
    pub cross_check: bool,
    pub directed: bool,
    pub json: bool,
    pub emit_annotated: bool,
    pub emit_ir: bool,
    pub case: Option<String>,
    pub out: Option<String>,
    pub epoch_events: Option<u64>,
    pub from_epoch: u64,
    pub repair: bool,
    pub listen: Option<String>,
    pub spool: Option<String>,
    pub fold: bool,
    pub connect: Option<String>,
    pub build: u64,
    pub diff_a: Option<u64>,
    pub diff_b: Option<u64>,
    pub off: bool,
    pub runs: usize,
    pub seed: u64,
    pub cases: Option<Vec<String>>,
    pub max_slots: Option<u64>,
    /// The soak workload; its seed comes from [`Opts::seed`].
    pub soak: SoakSpec,
    pub mem_report: bool,
    pub samples: usize,
    pub bench: Mode,
}

/// Parse `args` (the words after the subcommand) for subcommand `cmd`.
pub fn parse(cmd: &str, args: &[String]) -> Result<Opts, CmdError> {
    let Some(&(_, operands)) = COMMANDS.iter().find(|(c, _)| *c == cmd) else {
        return Err(CmdError::Usage(format!("unknown command: {cmd}")));
    };
    let soak = cmd == "soak";
    let mut o = Opts {
        cmd: cmd.to_string(),
        detector: if soak { "hybrid" } else { "hwlc-dr" }.to_string(),
        schedule: "rr".to_string(),
        jobs: 1,
        runs: 100,
        seed: if soak { SoakSpec::default().seed } else { 0xC0FFEE },
        samples: 15,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            if operands.is_empty() {
                return Err(CmdError::Usage(format!("{cmd} takes no operand: {a}")));
            }
            o.operands.push((a.clone(), false));
            continue;
        }
        let f = FLAGS
            .iter()
            .find(|f| f.name == a && f.accepts(cmd))
            .ok_or_else(|| CmdError::Usage(format!("{cmd} does not take {a}")))?;
        let value = if f.value.is_empty() {
            ""
        } else {
            it.next().ok_or_else(|| CmdError::Usage(format!("{a} needs a value {}", f.value)))?
        };
        o.set(f.name, value)?;
    }
    Ok(o)
}

impl Opts {
    fn set(&mut self, flag: &str, v: &str) -> Result<(), CmdError> {
        let num = || parse_u64(v).map_err(|e| CmdError::Failed(format!("{flag}: {e}")));
        match flag {
            "--detector" | "--detector-a" => self.detector = v.to_string(),
            "--detector-b" => self.detector_b = Some(v.to_string()),
            "--schedule" => self.schedule = v.to_string(),
            "--raw" => self.operands.push((v.to_string(), true)),
            "--suppressions" => self.suppressions = Some(v.to_string()),
            "--gen-suppressions" => self.gen_suppressions = true,
            "--explore" => self.explore = Some(num()? as usize),
            "--jobs" => self.jobs = num()? as usize,
            "--checkpoint" => self.checkpoint = Some(v.to_string()),
            "--faults" => {
                self.faults = Some(FaultPlan::parse(v).map_err(|e| format!("{flag}: {e}"))?)
            }
            "--budget" => {
                self.budget = Some(BudgetSpec::parse(v).map_err(|e| format!("{flag}: {e}"))?)
            }
            "--no-filter" => self.no_filter = true,
            "--stats" => self.stats = true,
            "--hb-reference" => self.hb_reference = true,
            "--vm-reference" => self.vm_reference = true,
            "--static-cross-check" => self.cross_check = true,
            "--directed" => self.directed = true,
            "--json" => self.json = true,
            "--emit-annotated" => self.emit_annotated = true,
            "--emit-ir" => self.emit_ir = true,
            "--case" => self.case = Some(v.to_string()),
            "--out" => self.out = Some(v.to_string()),
            "--epoch-events" => self.epoch_events = Some(num()?),
            "--from-epoch" => self.from_epoch = num()?,
            "--repair" => self.repair = true,
            "--listen" => self.listen = Some(v.to_string()),
            "--spool" => self.spool = Some(v.to_string()),
            "--fold" => self.fold = true,
            "--connect" => self.connect = Some(v.to_string()),
            "--build" => self.build = num()?,
            "--a" => self.diff_a = Some(num()?),
            "--b" => self.diff_b = Some(num()?),
            "--off" => self.off = true,
            "--runs" => self.runs = num()? as usize,
            "--seed" => self.seed = num()?,
            "--cases" => self.cases = Some(v.split(',').map(|c| c.trim().to_string()).collect()),
            "--max-slots" => self.max_slots = Some(num()?),
            "--dialogs" => self.soak.dialogs = num()?,
            "--phases" => self.soak.phases = num()?.max(1) as u32,
            "--workers" => self.soak.workers = num()?.max(1) as u32,
            "--resize" => self.soak.resize_workers = num()? as u32,
            "--hops" => self.soak.hops = num()?.clamp(1, 4) as u32,
            "--churn" => self.soak.churn_permille = num()?.min(1000) as u32,
            "--options" => self.soak.options_permille = num()?.min(1000) as u32,
            "--reinvites" => self.soak.max_reinvites = num()? as u32,
            "--kill" => self.soak.kill_permille = num()?.min(1000) as u32,
            "--max-kills" => self.soak.max_kills_per_phase = num()? as u32,
            "--no-reclaim" => self.soak.reclaim = false,
            "--mem-report" => self.mem_report = true,
            "--samples" => self.samples = num()? as usize,
            "--quick" => self.samples = 3,
            "--trace" => self.bench = self.bench.min(Mode::Trace),
            "--soak" => self.bench = self.bench.min(Mode::Soak),
            "--serve" => self.bench = self.bench.min(Mode::Serve),
            _ => unreachable!("{flag} is in FLAGS but has no setter"),
        }
        Ok(())
    }

    /// The detector configuration for engine `name`, with the `--budget`
    /// caps and `--hb-reference` applied.
    pub fn detector_config(&self, name: &str) -> Result<DetectorConfig, CmdError> {
        let mut cfg = DetectorConfig::by_name(name)
            .ok_or_else(|| CmdError::Usage(format!("unknown detector: {name}")))?;
        if let Some(b) = &self.budget {
            cfg.budget = b.detector;
        }
        cfg.hb_reference = self.hb_reference;
        Ok(cfg)
    }

    pub fn vm_mode(&self) -> VmMode {
        if self.vm_reference {
            VmMode::Reference
        } else {
            VmMode::Compiled
        }
    }

    /// VM options for a single run: injected faults, the `--budget` slot
    /// cap and the interpreter core.
    pub fn vm_options(&self) -> VmOptions {
        let default = VmOptions::default();
        let max_slots = self.budget.and_then(|b| b.max_slots).unwrap_or(default.max_slots);
        VmOptions { faults: self.faults, max_slots, mode: self.vm_mode(), ..default }
    }

    /// The `--schedule` scheduler: `rr`, `random:<seed>`, or
    /// `pct:<seed>[:<depth>]` (depth 2 when omitted).
    pub fn scheduler(&self) -> Result<Box<dyn Scheduler>, CmdError> {
        let s = self.schedule.as_str();
        let bad = || CmdError::Usage(format!("bad schedule: {s}"));
        let num = |x: &str| parse_u64(x).ok();
        if s == "rr" {
            return Ok(Box::new(RoundRobin::new()));
        }
        if let Some(seed) = s.strip_prefix("random:") {
            return Ok(Box::new(SeededRandom::new(num(seed).ok_or_else(bad)?)));
        }
        let rest = s.strip_prefix("pct:").ok_or_else(bad)?;
        let (seed, depth) = rest.split_once(':').unwrap_or((rest, "2"));
        let depth = num(depth).and_then(|d| u32::try_from(d).ok()).ok_or_else(bad)?;
        Ok(Box::new(Pct::new(num(seed).ok_or_else(bad)?, depth, 10_000)))
    }

    /// The `--suppressions` file, parsed (empty when not given).
    pub fn suppressions(&self) -> Result<SuppressionSet, CmdError> {
        let Some(path) = &self.suppressions else { return Ok(SuppressionSet::new()) };
        let text = super::read_text(path)?;
        Ok(SuppressionSet::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    }
}

/// The usage text, rendered from [`COMMANDS`] and [`FLAGS`].
pub fn usage() -> String {
    let mut out = String::from("usage:\n");
    for (cmd, operands) in COMMANDS {
        let mut line = format!("  raceline {cmd}");
        let flags = FLAGS.iter().filter(|f| f.accepts(cmd)).map(|f| format!("[{}]", f.synopsis()));
        for word in operands.split(' ').filter(|w| !w.is_empty()).map(str::to_string).chain(flags) {
            if line.len() + word.len() >= 80 {
                out.push_str(&line);
                out.push('\n');
                line = "     ".to_string();
            }
            line.push(' ');
            line.push_str(&word);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("\noptions:\n");
    for f in FLAGS {
        out.push_str(&format!("  {}\n      {}\n", f.synopsis(), f.help));
    }
    out.push_str(
        "\nexit codes: 0 = ran clean, 1 = findings reported, 2 = tool or guest error \
         (unreadable input, compile error, bad usage, guest fault)\n",
    );
    out
}
