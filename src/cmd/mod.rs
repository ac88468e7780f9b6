//! The `raceline` subcommands as library functions.
//!
//! [`main`] parses the command line against the one option table
//! ([`FLAGS`]) into a typed [`Opts`], runs the subcommand and returns
//! its exit code; the binary only exits with it. Commands report failure by
//! returning [`CmdError`] rather than exiting, so each is callable (and
//! testable) in-process.
//!
//! Exit-code contract: 0 = ran clean, 1 = findings reported, 2 = tool or
//! guest error (unreadable input, compile error, bad usage, guest fault).
//! The crash-safe logs' torn-write test hook exits 42 from inside
//! [`helgrind_core::commitlog`].

mod analyze;
mod chaos;
mod check;
mod opts;
mod serve;
mod soak;

pub use opts::{parse, usage, Flag, Opts, COMMANDS, FLAGS};

pub const EXIT_FINDINGS: i32 = 1;
pub const EXIT_ERROR: i32 = 2;

/// Why a command stopped early. Both kinds exit [`EXIT_ERROR`].
#[derive(Debug)]
pub enum CmdError {
    /// A malformed command line: reported followed by the usage text.
    Usage(String),
    /// A tool or input error: reported as is.
    Failed(String),
}

impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        CmdError::Failed(msg)
    }
}

/// Run `raceline <args>` and return its exit code.
pub fn main(args: Vec<String>) -> i32 {
    match run(&args) {
        Ok(code) => code,
        Err(CmdError::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprint!("{}", usage());
            EXIT_ERROR
        }
        Err(CmdError::Failed(msg)) => {
            eprintln!("{msg}");
            EXIT_ERROR
        }
    }
}

fn run(args: &[String]) -> Result<i32, CmdError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CmdError::Usage(String::new()));
    };
    let o = parse(cmd, rest)?;
    match cmd.as_str() {
        "check" | "record" | "lint" => check::run(&o),
        "analyze" => analyze::analyze(&o),
        "trace-diff" => analyze::trace_diff(&o),
        "serve" => serve::serve(&o),
        "client" => serve::client(&o),
        "chaos" => chaos::run(&o),
        "soak" => soak::run(&o),
        "bench-snapshot" => race_bench::snapshot::run(o.bench, o.samples, o.out.as_deref())
            .map(|()| 0)
            .map_err(|e| CmdError::Failed(format!("bench-snapshot: {e}"))),
        _ => unreachable!("parse accepts only the commands in COMMANDS"),
    }
}

fn read_file(path: &str) -> Result<Vec<u8>, CmdError> {
    std::fs::read(path).map_err(|e| CmdError::Failed(format!("cannot read {path}: {e}")))
}

fn read_text(path: &str) -> Result<String, CmdError> {
    std::fs::read_to_string(path).map_err(|e| CmdError::Failed(format!("cannot read {path}: {e}")))
}

/// Read a checkpoint file. `None` when it does not exist yet (a fresh
/// run); any other read error is fatal, so a file that exists but cannot
/// be read is never overwritten.
fn read_checkpoint(path: &str) -> Result<Option<String>, CmdError> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(CmdError::Failed(format!("cannot read checkpoint {path}: {e}"))),
    }
}
