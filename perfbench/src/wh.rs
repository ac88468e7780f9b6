//! Warehouse plumbing for the layer probes: recorded traces with their
//! known analysis, a seeded warehouse log, and a served instance on a
//! localhost port.

use std::net::TcpListener;
use std::path::{Path, PathBuf};

use helgrind_core::DetectorConfig;
use raceline_warehouse::wlog::TraceWarnings;
use raceline_warehouse::{
    analyze_for_warehouse, client, content_hash, server, Service, ServiceConfig, WarehouseLog,
    LOG_FILE,
};
use vexec::filter::FilterTool;
use vexec::vm::{PreparedProgram, RunResult, VmOptions};
use vexec::Scheduler;

/// The warehouse's detector preset (`raceline serve` default).
pub const WAREHOUSE_ENGINE: &str = "hwlc-dr";

/// One recorded upload and what analysing it yields.
#[derive(Clone, Debug)]
pub struct TraceInfo {
    pub bytes: Vec<u8>,
    pub hash: u64,
    pub events: u64,
    pub warnings: TraceWarnings,
}

/// Record one run the way `raceline record` does by default: the
/// redundant-access filter in front of the trace writer.
pub fn record(
    prepared: &PreparedProgram<'_>,
    sched: &mut dyn Scheduler,
    opts: VmOptions,
) -> Result<(Vec<u8>, RunResult), String> {
    let mut buf = Vec::with_capacity(1 << 18);
    let mut tool = FilterTool::new(raceline_trace::TraceWriter::new(&mut buf));
    let r = prepared.run(&mut tool, sched, opts);
    let (writer, _) = tool.into_parts();
    writer.finish(&r.termination, &r.stats, r.faults.as_ref()).map_err(|e| e.to_string())?;
    Ok((buf, r))
}

/// Analyse a recorded trace with the warehouse engine.
pub fn analyze(label: &str, bytes: Vec<u8>) -> Result<TraceInfo, String> {
    let (warnings, events) = analyze_for_warehouse(&bytes, WAREHOUSE_ENGINE, warehouse_cfg())
        .map_err(|e| format!("{label}: {e}"))?;
    Ok(TraceInfo { hash: content_hash(&bytes), bytes, events, warnings })
}

pub fn warehouse_cfg() -> DetectorConfig {
    DetectorConfig::by_name(WAREHOUSE_ENGINE).expect("warehouse engine is a preset")
}

/// Seed `builds` builds (numbered from 1), each holding trace `t`: the log
/// text a warehouse with that history has on disk, and the same history
/// folded in memory.
pub fn seeded_log(t: &TraceInfo, builds: u64) -> (String, WarehouseLog) {
    let mut log = WarehouseLog::new(WAREHOUSE_ENGINE, false);
    let mut text = log.header();
    for b in 1..=builds {
        text.push_str(&WarehouseLog::ingest_block(b, t.hash, t.events, &t.warnings));
        log.fold_ingest(b, t.hash, t.events, &t.warnings);
    }
    (text, log)
}

/// A fresh spool directory holding only `log_text` as its warehouse log.
pub fn fresh_spool(dir: &Path, log_text: &str) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(dir.join(LOG_FILE), log_text).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// Open (recover) the warehouse in `spool`, with one analysis job: the
/// load is sized for a 2-core host, and the probe's one client is the
/// other core's work.
pub fn open(spool: &Path) -> Result<Service, String> {
    Service::open(ServiceConfig {
        spool: spool.to_path_buf(),
        engine: WAREHOUSE_ENGINE.to_string(),
        hb_reference: false,
        jobs: 1,
    })
}

/// Serve `service` on a localhost port for the duration of `f`, then shut
/// the server down over the wire and wait for it.
pub fn with_server<R>(service: &Service, f: impl FnOnce(&str) -> R) -> Result<R, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?.to_string();
    std::thread::scope(|s| {
        let server = s.spawn(|| server::serve(service, listener));
        let r = f(&addr);
        let down = client::request(&addr, &client::cmd("shutdown"), None);
        let served = server.join().map_err(|_| "server thread panicked".to_string())?;
        served.map_err(|e| format!("serve: {e}"))?;
        down.map_err(|e| format!("shutdown: {e}"))?;
        Ok(r)
    })
}
