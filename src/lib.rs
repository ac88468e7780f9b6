//! # raceline — dynamic fault detection for multi-threaded programs
//!
//! A full Rust reproduction of Mühlenfeld & Wotawa, *Fault Detection in
//! Multi-Threaded C++ Server Applications* (ENTCS 174, 2007): the Eraser
//! lockset race detector as shipped in Valgrind's Helgrind, the thread-
//! segment refinement, and the paper's two improvements — the corrected
//! hardware bus-lock model (**HWLC**) and automatic destructor annotation
//! (**DR**) — together with every substrate the evaluation needs: a
//! deterministic guest-program VM ([`vexec`]), a C++ runtime-behaviour
//! model ([`cxxmodel`]), a mini-C++ front end with the Fig 4 annotation
//! pipeline ([`minicpp`]), and the SIP proxy application model with the
//! eight evaluation test cases ([`sipsim`]).
//!
//! ## Quickstart
//!
//! ```
//! use raceline::prelude::*;
//!
//! // Build a racy two-thread guest program.
//! let mut pb = ProgramBuilder::new();
//! let counter = pb.global("counter", 8);
//! let loc = pb.loc("app.cpp", 7, "worker");
//! let mut w = ProcBuilder::new(0);
//! w.at(loc);
//! let v = w.load_new(counter, 8);
//! w.store(counter, Expr::Reg(v).add(1u64.into()), 8);
//! let worker = pb.add_proc("worker", w);
//! let mut main = ProcBuilder::new(0);
//! main.at(pb.loc("app.cpp", 20, "main"));
//! let h1 = main.spawn(worker, vec![]);
//! let h2 = main.spawn(worker, vec![]);
//! main.join(h1);
//! main.join(h2);
//! let main_id = pb.add_proc("main", main);
//! pb.set_entry(main_id);
//! let program = pb.finish();
//!
//! // Run it under the HWLC+DR detector.
//! let mut detector = EraserDetector::new(DetectorConfig::hwlc_dr());
//! run_program(&program, &mut detector, &mut RoundRobin::new());
//! assert_eq!(detector.sink.race_location_count(), 1);
//! ```

pub mod cmd;

pub use cxxmodel;
pub use helgrind_core;
pub use minicpp;
pub use sipsim;
pub use vexec;

/// The most common imports in one place.
pub mod prelude {
    pub use helgrind_core::{
        BusLockModel, DetectorConfig, DjitDetector, EraserDetector, HybridDetector, Report,
        ReportKind, SuppressionSet,
    };
    pub use vexec::filter::{FilterCache, FilterStats, FilterTool};
    pub use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
    pub use vexec::ir::{Cond, Expr, Program, SyncKind, SyncOp};
    pub use vexec::sched::{PriorityOrder, Quantum, RoundRobin, Scheduler, SeededRandom};
    pub use vexec::tool::{CountingTool, NullTool, RecordingTool, Tool};
    pub use vexec::vm::{run_program, RunResult, Termination, VmOptions};
    pub use vexec::{AccessKind, Event, ThreadId};
}
