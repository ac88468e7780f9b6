//! raceline's benchmark harness.
//!
//! ```text
//! perfbench --workload overhead|soak --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it runs the per-layer ledger and the traced pass instead. Every metric
//! is printed by name with its unit; the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The exit
//! code is 0 only when every output check passed. Spools go to a scratch
//! directory under `$CARGO_TARGET_DIR` (default `.bench_build`), removed
//! after the run.

mod layers;
mod overhead;
mod soak;
mod spans;
mod spec;
mod stats;
mod wh;

use std::path::{Path, PathBuf};

use serde::Value;

use crate::stats::Outcome;

/// What every workload's run receives besides its own parameters.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for spools; removed after the run.
    pub work: &'a Path,
    /// The largest residual, in percent of the untraced time, that the
    /// traced run's self times may leave unexplained.
    pub residual_bound_pct: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn run(a: &Args) -> Result<Outcome, String> {
    let spec = spec::load()?;
    let path = format!("workloads.{}", a.workload);
    let params = lookup(&spec, &["workloads", &a.workload])
        .map(|v| spec::Params::new(v, &path))
        .ok_or_else(|| format!("unknown workload {:?}", a.workload))?;
    let residual_bound_pct = spec::Params::new(&spec, "spec").f64("residual_bound_pct")?;
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let work = PathBuf::from(target).join(format!("perfbench-work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx =
        Ctx { seed: a.seed, seconds: a.seconds, trace: a.trace, work: &work, residual_bound_pct };
    let result = match a.workload.as_str() {
        "overhead" => overhead::run(params, &ctx),
        "soak" => soak::run(params, &ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn lookup<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| raceline_warehouse::json::get(v, key))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    for m in &out.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics = Value::Object(
        out.metrics
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    );
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(out.attempted)),
        ("failed".to_string(), Value::UInt(out.failed)),
        ("metrics".to_string(), metrics),
    ]);
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}
