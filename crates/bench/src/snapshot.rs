//! `raceline bench-snapshot`: wall-clock medians of the §4.5 overhead
//! ladder and of the trace, soak and serve paths, written as one JSON
//! object per mode. CI's bench smoke runs it in `--quick` mode; the
//! committed `BENCH_*.json` snapshots come from full runs.

use helgrind_core::{
    par, AnyDetector, DetectorConfig, DjitDetector, EraserDetector, HybridDetector, SuppressionSet,
};
use raceline_trace::writer::TraceWriter;
use raceline_warehouse::{client as wclient, json as wjson, server as wserver};
use raceline_warehouse::{Service, ServiceConfig};
use serde::Value;
use sipsim::native::{native_workload, vm_workload_program, WorkloadSpec};
use vexec::filter::FilterTool;
use vexec::sched::RoundRobin;
use vexec::tool::{NullTool, RecordingTool};
use vexec::vm::{run_flat, run_program, VmMode, VmOptions};

/// Which snapshot to take. When several mode flags are given the first
/// in declaration order wins, so the derived order is the precedence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    Trace,
    Soak,
    Serve,
    #[default]
    Overhead,
}

impl Mode {
    fn default_out(self) -> &'static str {
        match self {
            Mode::Trace => "BENCH_trace.json",
            Mode::Soak => "BENCH_soak.json",
            Mode::Serve => "BENCH_serve.json",
            Mode::Overhead => "BENCH_overhead.json",
        }
    }
}

/// One mode's result: the JSON object, per-row stderr lines, and the
/// headline detail of the closing `wrote` line.
struct Snapshot {
    json: Value,
    lines: Vec<String>,
    detail: String,
}

/// Take the `mode` snapshot over `samples` timed runs per row and write
/// it to `out` (default `BENCH_<mode>.json`).
pub fn run(mode: Mode, samples: usize, out: Option<&str>) -> Result<(), String> {
    let samples = samples.max(1);
    let out = out.unwrap_or(mode.default_out());
    let snap = match mode {
        Mode::Overhead => overhead(samples),
        Mode::Trace => trace(samples),
        Mode::Soak => soak(samples),
        Mode::Serve => serve(samples)?,
    };
    std::fs::write(out, format!("{}\n", snap.json))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    for line in &snap.lines {
        eprintln!("bench-snapshot {line}");
    }
    eprintln!("bench-snapshot: wrote {out} ({})", snap.detail);
    Ok(())
}

fn field(name: &str, v: Value) -> (String, Value) {
    (name.to_string(), v)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn medians_json(medians: &[(&str, u64)]) -> Value {
    Value::Object(medians.iter().map(|(n, ns)| field(n, Value::UInt(*ns))).collect())
}

fn median_lines(medians: &[(&str, u64)]) -> Vec<String> {
    medians.iter().map(|(n, ns)| format!("{n}: median {:.3} ms", *ns as f64 / 1e6)).collect()
}

/// A named bench workload; boxed so heterogeneous closures can share one
/// interleaved sampling loop.
type BenchRow<'a> = (&'a str, Box<dyn FnMut() + 'a>);

/// Per-row median wall-clock nanoseconds with round-robin sampling: each
/// round times every row once, so slow machine drift hits all rows
/// equally instead of biasing whichever row happened to run last. One
/// untimed warm-up round absorbs lazy init and cold caches.
fn median_ns_interleaved<'a>(samples: usize, mut rows: Vec<BenchRow<'a>>) -> Vec<(&'a str, u64)> {
    for (_, f) in rows.iter_mut() {
        f();
    }
    let mut times: Vec<Vec<u64>> = vec![Vec::with_capacity(samples); rows.len()];
    for _ in 0..samples {
        for (i, (_, f)) in rows.iter_mut().enumerate() {
            let t = std::time::Instant::now();
            f();
            times[i].push(t.elapsed().as_nanos() as u64);
        }
    }
    rows.iter()
        .zip(times.iter_mut())
        .map(|((name, _), ts)| {
            ts.sort_unstable();
            (*name, ts[ts.len() / 2])
        })
        .collect()
}

/// Median of one row: the single-row case of [`median_ns_interleaved`].
fn median_ns<'a>(samples: usize, f: impl FnMut() + 'a) -> u64 {
    median_ns_interleaved(samples, vec![("", Box::new(f))])[0].1
}

/// The §4.5 overhead ladder (native < VM < VM+detector), every row
/// sampled round-robin.
fn overhead(samples: usize) -> Snapshot {
    const SPEC: WorkloadSpec = WorkloadSpec { threads: 4, iterations: 1_000, parse_reads: 32 };
    let prog = vm_workload_program(SPEC);
    let flat = prog.lower();

    // Every row as a closure so sampling can interleave them: one timed
    // call per row per round, not all of row A before any of row B. The
    // headline numbers are *ratios* between rows, and on a busy host
    // sequential sampling lets clock-speed drift between rows masquerade
    // as detector overhead; round-robin sampling gives each row the same
    // exposure to the machine's moods.
    let rows: Vec<BenchRow<'_>> = vec![
        (
            "native-threads",
            Box::new(|| {
                std::hint::black_box(native_workload(SPEC));
            }),
        ),
        (
            "vm-no-tool",
            Box::new(|| {
                let r = run_program(&prog, &mut NullTool, &mut RoundRobin::new());
                std::hint::black_box(r.stats.events);
            }),
        ),
        // Reference-interpreter twin of the bare-VM row: the tree-walking
        // loop the compiled operand-specialized bytecode replaced
        // (`--vm-reference`). Output is byte-identical; the
        // vm-no-tool-reference/vm-no-tool multiple is the compile win.
        (
            "vm-no-tool-reference",
            Box::new(|| {
                let opts = VmOptions { mode: VmMode::Reference, ..Default::default() };
                let r = run_flat(&flat, &mut NullTool, &mut RoundRobin::new(), opts);
                std::hint::black_box(r.stats.events);
            }),
        ),
        (
            "vm-eraser-original",
            Box::new(|| {
                let mut det = EraserDetector::new(DetectorConfig::original());
                run_program(&prog, &mut det, &mut RoundRobin::new());
                std::hint::black_box(det.sink.location_count());
            }),
        ),
        (
            "vm-eraser-hwlc-dr",
            Box::new(|| {
                let mut det = EraserDetector::new(DetectorConfig::hwlc_dr());
                run_program(&prog, &mut det, &mut RoundRobin::new());
                std::hint::black_box(det.sink.location_count());
            }),
        ),
        (
            "vm-djit",
            Box::new(|| {
                let mut det = DjitDetector::new(DetectorConfig::djit());
                run_program(&prog, &mut det, &mut RoundRobin::new());
                std::hint::black_box(det.sink.location_count());
            }),
        ),
        (
            "vm-hybrid",
            Box::new(|| {
                let mut det = HybridDetector::new(DetectorConfig::hybrid());
                run_program(&prog, &mut det, &mut RoundRobin::new());
                std::hint::black_box(det.sink.location_count());
            }),
        ),
        // Filter-on twins of the detector rows (the plain rows are
        // filter-off, matching what earlier snapshots measured). `check`
        // defaults to the filtered path, so these are what users get.
        (
            "vm-eraser-hwlc-dr-filter",
            Box::new(|| {
                let mut tool = FilterTool::new(EraserDetector::new(DetectorConfig::hwlc_dr()));
                run_program(&prog, &mut tool, &mut RoundRobin::new());
                std::hint::black_box(tool.inner().sink.location_count());
            }),
        ),
        (
            "vm-djit-filter",
            Box::new(|| {
                let mut tool = FilterTool::new(DjitDetector::new(DetectorConfig::djit()));
                run_program(&prog, &mut tool, &mut RoundRobin::new());
                std::hint::black_box(tool.inner().sink.location_count());
            }),
        ),
        (
            "vm-hybrid-filter",
            Box::new(|| {
                let mut tool = FilterTool::new(HybridDetector::new(DetectorConfig::hybrid()));
                run_program(&prog, &mut tool, &mut RoundRobin::new());
                std::hint::black_box(tool.inner().sink.location_count());
            }),
        ),
        // Reference-VC twins of the HB rows: the same detectors with the
        // adaptive epoch lattice disabled (`--hb-reference`), i.e. the
        // full vector-clock read state the FastTrack representation
        // replaced. Reports are byte-identical; only the per-access cost
        // differs.
        (
            "vm-djit-reference",
            Box::new(|| {
                let cfg = DetectorConfig { hb_reference: true, ..DetectorConfig::djit() };
                let mut det = DjitDetector::new(cfg);
                run_program(&prog, &mut det, &mut RoundRobin::new());
                std::hint::black_box(det.sink.location_count());
            }),
        ),
        (
            "vm-hybrid-reference",
            Box::new(|| {
                let cfg = DetectorConfig { hb_reference: true, ..DetectorConfig::hybrid() };
                let mut det = HybridDetector::new(cfg);
                run_program(&prog, &mut det, &mut RoundRobin::new());
                std::hint::black_box(det.sink.location_count());
            }),
        ),
    ];
    let medians = median_ns_interleaved(samples, rows);

    let ns_of = |name: &str| medians.iter().find(|(n, _)| *n == name).expect("bench row").1 as f64;
    let native = ns_of("native-threads");
    let vm = ns_of("vm-no-tool");

    // The two multiples the paper reports in §4.5: analysis vs native
    // (20-30x there) and the bare VM tax (8-10x for uninstrumented
    // Valgrind). Detector-over-VM isolates the shadow-memory cost this
    // workspace's page table optimises.
    let mut multiples = vec![field("vm-no-tool/native-threads", Value::Float(ratio(vm, native)))];
    for (name, ns) in &medians {
        if name.starts_with("vm-") && *name != "vm-no-tool" {
            multiples
                .push(field(&format!("{name}/vm-no-tool"), Value::Float(ratio(*ns as f64, vm))));
            multiples.push(field(
                &format!("{name}/native-threads"),
                Value::Float(ratio(*ns as f64, native)),
            ));
        }
    }
    // Filter speedups: off/on per detector — the access-filter acceptance
    // bar is ≥1.3x on vm-hybrid.
    for base in ["vm-eraser-hwlc-dr", "vm-djit", "vm-hybrid"] {
        let r = ratio(ns_of(base), ns_of(&format!("{base}-filter")));
        multiples.push(field(&format!("{base}/{base}-filter"), Value::Float(r)));
    }
    // Epoch wins: reference-VC over adaptive per HB detector. >1.0 means
    // the FastTrack lattice is paying for itself on this workload.
    for base in ["vm-djit", "vm-hybrid"] {
        let r = ratio(ns_of(&format!("{base}-reference")), ns_of(base));
        multiples.push(field(&format!("{base}-reference/{base}"), Value::Float(r)));
    }

    // Micro-comparison of the per-access HB read check: one
    // `Epoch::visible_to` (the O(1) fast path) against a full
    // vector-clock clone+join+leq (the O(width) state update the epoch
    // representation avoids). Measured over a fixed iteration count so
    // the per-op cost is `ns / iterations`.
    let vc_micro = {
        use helgrind_core::{Epoch, VectorClock};
        const ITERS: u32 = 100_000;
        let e = Epoch { tid: 3, clock: 41 };
        let mut tvc = VectorClock::new();
        for t in 0..8usize {
            tvc.set(t, 42 + t as u32);
        }
        let epoch_ns = median_ns(samples, || {
            for _ in 0..ITERS {
                std::hint::black_box(e.visible_to(std::hint::black_box(&tvc)));
            }
        });
        let mut reads = VectorClock::new();
        for t in 0..8usize {
            reads.set(t, 7 * t as u32);
        }
        let vc_ns = median_ns(samples, || {
            for _ in 0..ITERS {
                let mut j = std::hint::black_box(&reads).clone();
                j.set(e.tid as usize, e.clock);
                std::hint::black_box(j.leq(std::hint::black_box(&tvc)));
            }
        });
        Value::Object(vec![
            field("iterations", Value::UInt(ITERS as u64)),
            field("epoch_visible_to_ns", Value::UInt(epoch_ns)),
            field("vc_clone_set_leq_ns", Value::UInt(vc_ns)),
            field("speedup", Value::Float(ratio(vc_ns as f64, epoch_ns as f64))),
        ])
    };

    let json = Value::Object(vec![
        field(
            "workload",
            Value::Object(vec![
                field("threads", Value::UInt(SPEC.threads as u64)),
                field("iterations", Value::UInt(SPEC.iterations)),
                field("parse_reads", Value::UInt(SPEC.parse_reads)),
            ]),
        ),
        field("samples", Value::UInt(samples as u64)),
        field("median_ns", medians_json(&medians)),
        field("multiples", Value::Object(multiples)),
        field("vc_micro", vc_micro),
        field(
            "paper",
            Value::Str("§4.5: analysis 20-30x slower than native; bare Valgrind 8-10x".to_string()),
        ),
    ]);
    let detail = format!(
        "vm/native {:.1}x, hwlc-dr/vm {:.1}x, hybrid filter speedup {:.2}x",
        ratio(vm, native),
        ratio(ns_of("vm-eraser-hwlc-dr"), vm),
        ratio(ns_of("vm-hybrid"), ns_of("vm-hybrid-filter"))
    );
    Snapshot { json, lines: median_lines(&medians), detail }
}

/// What recording costs. Two angles: end-to-end VM overhead (record tool
/// vs no tool vs inline detectors — recording must be the cheapest
/// instrumented mode, that is the subsystem's reason to exist) and raw
/// codec throughput over the workload's event stream.
fn trace(samples: usize) -> Snapshot {
    use raceline_trace::format::{decode_record, encode_event, CodecState, Cursor};

    const SPEC: WorkloadSpec = WorkloadSpec { threads: 4, iterations: 1_000, parse_reads: 16 };
    let prog = vm_workload_program(SPEC);

    let medians: Vec<(&str, u64)> = vec![
        (
            "vm-no-tool",
            median_ns(samples, || {
                let r = run_program(&prog, &mut NullTool, &mut RoundRobin::new());
                std::hint::black_box(r.stats.events);
            }),
        ),
        (
            "vm-record",
            median_ns(samples, || {
                let mut w = TraceWriter::new(Vec::with_capacity(1 << 20));
                let r = run_program(&prog, &mut w, &mut RoundRobin::new());
                let s = w.finish(&r.termination, &r.stats, r.faults.as_ref()).expect("vec sink");
                std::hint::black_box(s.bytes);
            }),
        ),
        (
            "vm-eraser-hwlc-dr",
            median_ns(samples, || {
                let mut det = EraserDetector::new(DetectorConfig::hwlc_dr());
                run_program(&prog, &mut det, &mut RoundRobin::new());
                std::hint::black_box(det.sink.location_count());
            }),
        ),
        (
            "vm-hybrid",
            median_ns(samples, || {
                let mut det = HybridDetector::new(DetectorConfig::hybrid());
                run_program(&prog, &mut det, &mut RoundRobin::new());
                std::hint::black_box(det.sink.location_count());
            }),
        ),
    ];

    // Raw codec throughput over the workload's own event stream, VM cost
    // excluded. Symbol bounds are irrelevant here, so decode with the
    // loosest cap.
    let mut rec = RecordingTool::new();
    run_program(&prog, &mut rec, &mut RoundRobin::new());
    let events = rec.events;
    let mut encoded = Vec::new();
    let mut st = CodecState::default();
    for ev in &events {
        encode_event(&mut encoded, &mut st, ev);
    }
    let encode_ns = median_ns(samples, || {
        let mut buf = Vec::with_capacity(encoded.len());
        let mut st = CodecState::default();
        for ev in &events {
            encode_event(&mut buf, &mut st, ev);
        }
        std::hint::black_box(buf.len());
    });
    let decode_ns = median_ns(samples, || {
        let mut c = Cursor::new(&encoded, 0);
        let mut st = CodecState::default();
        let mut n = 0u64;
        while !c.is_empty() {
            decode_record(&mut c, &mut st, u32::MAX).expect("self-encoded stream");
            n += 1;
        }
        std::hint::black_box(n);
    });
    let per_sec = |ns: u64| ratio(events.len() as f64, ns as f64 / 1e9);
    let bytes_per_event = ratio(encoded.len() as f64, events.len() as f64);

    let ns_of = |name: &str| medians.iter().find(|(n, _)| *n == name).expect("bench row").1 as f64;
    let vm = ns_of("vm-no-tool");
    let record = ns_of("vm-record");
    let hybrid = ns_of("vm-hybrid");
    let multiples = vec![
        field("vm-record/vm-no-tool", Value::Float(ratio(record, vm))),
        field("vm-eraser-hwlc-dr/vm-no-tool", Value::Float(ratio(ns_of("vm-eraser-hwlc-dr"), vm))),
        field("vm-hybrid/vm-no-tool", Value::Float(ratio(hybrid, vm))),
        field("vm-hybrid/vm-record", Value::Float(ratio(hybrid, record))),
    ];

    let json = Value::Object(vec![
        field(
            "workload",
            Value::Object(vec![
                field("threads", Value::UInt(SPEC.threads as u64)),
                field("iterations", Value::UInt(SPEC.iterations)),
            ]),
        ),
        field("samples", Value::UInt(samples as u64)),
        field("median_ns", medians_json(&medians)),
        field(
            "codec",
            Value::Object(vec![
                field("events", Value::UInt(events.len() as u64)),
                field("encoded_bytes", Value::UInt(encoded.len() as u64)),
                field("bytes_per_event", Value::Float(bytes_per_event)),
                field("encode_events_per_sec", Value::Float(per_sec(encode_ns))),
                field("decode_events_per_sec", Value::Float(per_sec(decode_ns))),
            ]),
        ),
        field("multiples", Value::Object(multiples)),
        field("record_cheaper_than_hybrid", Value::Bool(record < hybrid)),
    ]);
    let detail = format!(
        "record/vm {:.2}x, hybrid/record {:.2}x, {bytes_per_event:.1} B/event",
        ratio(record, vm),
        ratio(hybrid, record)
    );
    Snapshot { json, lines: median_lines(&medians), detail }
}

/// Soak-phase throughput in dialogs per second, detection-on (hybrid
/// behind the redundant-access filter, the soak default) against
/// detection-off (counting tool), plus the peak live-granule count — the
/// bounded-memory headline number.
fn soak(samples: usize) -> Snapshot {
    use sipsim::{run_phase, SoakSpec};

    // One calm phase (kills disarm even phases) of the default mix, big
    // enough that per-phase setup noise vanishes.
    let spec = SoakSpec { dialogs: 20_000, phases: 1, kill_permille: 0, ..SoakSpec::default() };
    let dialogs = spec.phase_dialogs(0);
    let hybrid = || AnyDetector::by_name("hybrid", DetectorConfig::hybrid(), SuppressionSet::new());

    let probe = run_phase(&spec, 0, Some(hybrid()), true, None);
    let detect_ns = median_ns(samples, || {
        let out = run_phase(&spec, 0, Some(hybrid()), true, None);
        std::hint::black_box(out.stats.warnings);
    });
    let off_ns = median_ns(samples, || {
        let out = run_phase(&spec, 0, None, false, None);
        std::hint::black_box(out.stats.events);
    });
    let per_sec = |ns: u64| ratio(dialogs as f64, ns as f64 / 1e9);

    let json = Value::Object(vec![
        field(
            "workload",
            Value::Object(vec![
                field("dialogs", Value::UInt(dialogs)),
                field("workers", Value::UInt(u64::from(spec.workers))),
                field("events", Value::UInt(probe.stats.events)),
            ]),
        ),
        field("samples", Value::UInt(samples as u64)),
        field(
            "median_ns",
            medians_json(&[("soak-hybrid-filter", detect_ns), ("soak-detection-off", off_ns)]),
        ),
        field(
            "dialogs_per_sec",
            Value::Object(vec![
                field("soak-hybrid-filter", Value::Float(per_sec(detect_ns))),
                field("soak-detection-off", Value::Float(per_sec(off_ns))),
            ]),
        ),
        field("detection-off/hybrid-filter", Value::Float(ratio(off_ns as f64, detect_ns as f64))),
        field("peak_live_granules", Value::UInt(probe.stats.peak_granules as u64)),
        field("warnings", Value::UInt(probe.stats.warnings as u64)),
    ]);
    let detail = format!(
        "{:.0} dialogs/s detected vs {:.0} off, peak {} granule(s)",
        per_sec(detect_ns),
        per_sec(off_ns),
        probe.stats.peak_granules
    );
    Snapshot { json, lines: Vec::new(), detail }
}

/// Ingest throughput of the warehouse service over real TCP on
/// localhost. Records the T1–T8 proxy regression traces once in memory,
/// then times uploading the full set from 1, 4, and 8 concurrent
/// producers (each upload under a fresh build id, so every one pays full
/// analysis), plus a dedup round that re-submits the set under one build
/// id to exercise the content-hash fast path.
fn serve(samples: usize) -> Result<Snapshot, String> {
    // Record the whole regression suite once, in memory.
    let mut traces: Vec<Vec<u8>> = Vec::new();
    let mut total_events: u64 = 0;
    for tc in sipsim::testcases() {
        let built = tc.build();
        let mut buf = Vec::with_capacity(1 << 20);
        let mut w = TraceWriter::new(&mut buf);
        let r = run_program(&built.program, &mut w, &mut RoundRobin::new());
        w.finish(&r.termination, &r.stats, r.faults.as_ref())
            .map_err(|e| format!("record {}: {e}", tc.name))?;
        total_events += r.stats.events;
        traces.push(buf);
    }

    let spool = std::env::temp_dir().join(format!("raceline-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let service = Service::open(ServiceConfig {
        spool: spool.clone(),
        engine: "hwlc-dr".to_string(),
        hb_reference: false,
        jobs: 8,
    })?;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let submit = |build: u64, trace: &[u8]| match wclient::submit(&addr, build, trace) {
        Ok(r) if r.ok() => Ok(r),
        Ok(r) => Err(format!("submit rejected: {}", r.error().unwrap_or("unknown"))),
        Err(e) => Err(e),
    };

    let measured = std::thread::scope(|s| {
        s.spawn(|| wserver::serve(&service, listener));
        let measured = (|| {
            // Throughput rows: all traces uploaded by P concurrent
            // producers, every upload under a fresh build id.
            let mut next_build = 1u64;
            let mut failure: Option<String> = None;
            let mut rows: Vec<(usize, u64)> = Vec::new();
            for producers in [1usize, 4, 8] {
                let ns = median_ns(samples, || {
                    let base = next_build;
                    next_build += traces.len() as u64;
                    let uploads = par::map_indexed(producers, traces.len(), |i| {
                        submit(base + i as u64, &traces[i]).map(|_| ())
                    });
                    if let Some(Err(e)) = uploads.into_iter().find(Result::is_err) {
                        failure.get_or_insert(e);
                    }
                });
                rows.push((producers, ns));
            }
            if let Some(e) = failure {
                return Err(e);
            }
            // Dedup round: the same set twice under one build id — the
            // second pass must hit the content-hash fast path without
            // re-analysis.
            let (mut uploads, mut hits) = (0u64, 0u64);
            for _ in 0..2 {
                for t in &traces {
                    let r = submit(next_build, t)?;
                    uploads += 1;
                    if wjson::get_bool(&r.header, "duplicate") == Some(true) {
                        hits += 1;
                    }
                }
            }
            Ok((rows, uploads, hits))
        })();
        let _ = wclient::request(&addr, &wclient::cmd("shutdown"), None);
        measured
    });
    let _ = std::fs::remove_dir_all(&spool);
    let (rows, dedup_uploads, dedup_hits) = measured?;

    let per_sec = |count: f64, ns: u64| ratio(count, ns as f64 / 1e9);
    let hit_rate = ratio(dedup_hits as f64, dedup_uploads as f64);
    let producer_rows = rows
        .iter()
        .map(|(p, ns)| {
            let row = Value::Object(vec![
                field("median_ns", Value::UInt(*ns)),
                field("traces_per_sec", Value::Float(per_sec(traces.len() as f64, *ns))),
                field("events_per_sec", Value::Float(per_sec(total_events as f64, *ns))),
            ]);
            field(&p.to_string(), row)
        })
        .collect();
    let json = Value::Object(vec![
        field("cases", Value::UInt(traces.len() as u64)),
        field("events_per_upload_set", Value::UInt(total_events)),
        field("samples", Value::UInt(samples as u64)),
        field("producers", Value::Object(producer_rows)),
        field(
            "dedup",
            Value::Object(vec![
                field("uploads", Value::UInt(dedup_uploads)),
                field("hits", Value::UInt(dedup_hits)),
                field("hit_rate", Value::Float(hit_rate)),
            ]),
        ),
    ]);
    let lines = rows
        .iter()
        .map(|(p, ns)| {
            format!(
                "serve: {p} producer(s): median {:.3} ms ({:.0} events/s)",
                *ns as f64 / 1e6,
                per_sec(total_events as f64, *ns)
            )
        })
        .collect();
    Ok(Snapshot { json, lines, detail: format!("dedup hit rate {hit_rate:.2}") })
}
