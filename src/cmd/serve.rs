//! `raceline serve` and `raceline client`: the trace-ingest service
//! (DESIGN.md §14) and its command-line client.

use super::{read_file, CmdError, Opts};
use raceline_warehouse::{client as wclient, server as wserver};
use raceline_warehouse::{Service, ServiceConfig, WarehouseLog};
use serde::Value;
use std::io::Write as _;
use vexec::faults::parse_u64;

/// `raceline serve`: with `--listen`, run the threaded TCP front end over
/// a spool-dir-backed report warehouse until a `shutdown` command arrives.
/// With `--fold`, run the *offline oracle* instead: ingest the given
/// `<build>=<path>` traces sequentially through the identical fold and
/// print the catalogue — the byte-compare baseline for the equivalence
/// gates.
pub(super) fn serve(o: &Opts) -> Result<i32, CmdError> {
    let mut uploads: Vec<(u64, &str)> = Vec::new();
    for (arg, _) in &o.operands {
        let parsed = arg.split_once('=').and_then(|(b, p)| Some((parse_u64(b).ok()?, p)));
        uploads.push(parsed.ok_or_else(|| CmdError::Usage(format!("not <build>=<trace>: {arg}")))?);
    }
    // Validates the engine name up front on both paths.
    let cfg = o.detector_config(&o.detector)?;

    if o.fold {
        // Sequential offline fold: same analysis, same commutative state,
        // same renderer as the server — only the transport is missing.
        let mut log = WarehouseLog::new(&o.detector, o.hb_reference);
        for (build, path) in uploads {
            let bytes = read_file(path)?;
            let hash = raceline_warehouse::content_hash(&bytes);
            if log.traces.contains_key(&(build, hash)) {
                continue;
            }
            let (warnings, events) =
                raceline_warehouse::analyze_for_warehouse(&bytes, &o.detector, cfg)
                    .map_err(|e| format!("{path}: {e}"))?;
            log.fold_ingest(build, hash, events, &warnings);
        }
        print!("{}", raceline_warehouse::render_catalogue(&log));
        return Ok(0);
    }

    let (Some(listen), Some(spool)) = (&o.listen, &o.spool) else {
        return Err(CmdError::Usage("serve needs --listen and --spool, or --fold".to_string()));
    };
    if !uploads.is_empty() {
        return Err(CmdError::Usage(
            "serve takes <build>=<trace> operands only with --fold".into(),
        ));
    }
    let service = Service::open(ServiceConfig {
        spool: spool.into(),
        engine: o.detector.clone(),
        hb_reference: o.hb_reference,
        jobs: o.jobs,
    })
    .map_err(|e| format!("serve: {e}"))?;
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("serve: cannot listen on {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("serve: {e}"))?;
    // Stdout so harnesses that bind port 0 can parse the real address;
    // flushed before accept starts.
    println!("listening {addr}");
    let _ = std::io::stdout().flush();
    wserver::serve(&service, listener).map_err(|e| format!("serve: {e}"))?;
    eprintln!("serve: shutdown complete");
    Ok(0)
}

/// `raceline client`: drive a running `raceline serve` over the wire.
/// Response bodies (`query`, `diff`, `stats`) go to stdout verbatim so CI
/// can `cmp` them; bodiless responses print their JSON header line.
/// Exit 0 on `ok:true`, 2 on transport failure or `ok:false`.
pub(super) fn client(o: &Opts) -> Result<i32, CmdError> {
    let usage = || CmdError::Usage(String::new());
    let addr = o.connect.as_deref().ok_or_else(usage)?;
    let Some(((verb, _), rest)) = o.operands.split_first() else { return Err(usage()) };
    let result = match (verb.as_str(), rest) {
        ("submit", [(path, _)]) => wclient::submit(addr, o.build, &read_file(path)?),
        ("query" | "stats" | "ping" | "shutdown", _) => {
            wclient::request(addr, &wclient::cmd(verb), None)
        }
        ("diff", _) => {
            let (Some(a), Some(b)) = (o.diff_a, o.diff_b) else { return Err(usage()) };
            let header = Value::Object(vec![
                ("cmd".to_string(), Value::Str("diff".to_string())),
                ("a".to_string(), Value::UInt(a)),
                ("b".to_string(), Value::UInt(b)),
            ]);
            wclient::request(addr, &header, None)
        }
        ("suppress", [(fingerprint, _)]) => {
            let header = Value::Object(vec![
                ("cmd".to_string(), Value::Str("suppress".to_string())),
                ("fingerprint".to_string(), Value::Str(fingerprint.clone())),
                ("on".to_string(), Value::Bool(!o.off)),
            ]);
            wclient::request(addr, &header, None)
        }
        _ => return Err(usage()),
    };

    let resp = result.map_err(|e| format!("client: {e}"))?;
    if !resp.ok() {
        return Err(format!("client: server error: {}", resp.error().unwrap_or("unknown")).into());
    }
    if resp.body.is_empty() {
        println!("{}", resp.header);
    } else {
        std::io::stdout().write_all(&resp.body).map_err(|e| format!("client: {e}"))?;
    }
    Ok(0)
}
