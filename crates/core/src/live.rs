//! Live hybrid analysis on its own core.
//!
//! The VM is single-threaded, and the detector only ever sees its event
//! stream, so nothing but the callback ties the analysis to the VM's
//! thread. [`LiveRun`] is the VM-thread half: it turns each event into
//! `.rltrace` records — the [`StackMirror`] deltas, then the event — and
//! hands them in chunks to a [`Fold`], which applies them to a
//! [`ReplayCtx`] and runs [`HybridEngines::handle_event`] on each event:
//! the fold `analyze` performs over a recorded trace. Records are folded
//! in VM order through a context that shows what the live `VmView`
//! showed, so the reports are the ones an inline run writes.
//!
//! The fold runs on a persistent analysis thread, one per calling thread,
//! reused by every run that thread starts. Chunks travel over a bounded
//! channel and come back emptied, so a run allocates no buffers once the
//! pool is warm. On a host with one CPU there is no core to overlap with,
//! and [`LiveRun::start`] declines: the detector then folds each event on
//! the VM thread against the live `VmView`, with no records at all.

use std::cell::RefCell;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::OnceLock;
use std::thread::JoinHandle;

use raceline_trace::format::TraceRecord;
use raceline_trace::stack::StackMirror;
use vexec::event::Event;
use vexec::vm::VmView;

use crate::detector::HybridEngines;
use crate::replay::ReplayCtx;
use crate::report::ReportSink;

/// Records per chunk.
const CHUNK: usize = 1024;
/// Chunks queued for the worker before the VM thread waits.
const QUEUE: usize = 4;

/// What the detector lends a live run: the engines, the sink and the
/// guest-fault slot.
pub(crate) struct Fold {
    pub(crate) engines: Box<HybridEngines>,
    pub(crate) sink: ReportSink,
    pub(crate) guest_fault: Option<String>,
}

impl Fold {
    /// Apply `recs` to `ctx` in order, running both engines on each event.
    fn fold(&mut self, ctx: &mut ReplayCtx, recs: &[TraceRecord]) {
        for rec in recs {
            ctx.apply(rec);
            if let TraceRecord::Event(ev) = rec {
                #[cfg(test)]
                tests::panic_on_marker(ev, ctx);
                self.engines.handle_event(&mut self.sink, ev, ctx);
            }
        }
    }
}

enum Job {
    /// A run's fold and the context it starts from.
    Start(Box<Fold>, ReplayCtx),
    Chunk(Vec<TraceRecord>),
    Fault(String),
    Finish,
}

enum Reply {
    /// A folded chunk, emptied, for reuse.
    Spent(Vec<TraceRecord>),
    Done(Box<Fold>),
}

/// A persistent analysis thread and the chunk buffers it has handed back.
/// Dropping it closes the job channel and joins the thread.
struct Worker {
    jobs: SyncSender<Job>,
    replies: Receiver<Reply>,
    thread: Option<JoinHandle<()>>,
    spare: Vec<Vec<TraceRecord>>,
    /// The thread is gone (its channel closed): a panic in the fold.
    dead: bool,
}

thread_local! {
    /// The calling thread's idle worker, between runs.
    static IDLE: RefCell<Option<Worker>> = const { RefCell::new(None) };
}

/// Whether the host has a second CPU for the fold to run on.
fn multi_cpu() -> bool {
    static MULTI: OnceLock<bool> = OnceLock::new();
    *MULTI.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

impl Worker {
    /// The calling thread's idle worker, or a new one; `None` if no
    /// thread can be started.
    fn acquire() -> Option<Worker> {
        if let Some(w) = IDLE.try_with(|idle| idle.borrow_mut().take()).ok().flatten() {
            return Some(w);
        }
        let (jobs, job_rx) = mpsc::sync_channel(QUEUE);
        let (reply_tx, replies) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("hybrid-fold".to_string())
            .spawn(move || serve(job_rx, reply_tx))
            .ok()?;
        Some(Worker { jobs, replies, thread: Some(thread), spare: Vec::new(), dead: false })
    }

    /// Park the worker for the calling thread's next run (a thread that
    /// already has an idle one, or is exiting, lets this one go).
    fn release(self) {
        let _ = IDLE.try_with(|idle| {
            let mut idle = idle.borrow_mut();
            if idle.is_none() {
                *idle = Some(self);
            }
        });
    }

    fn send(&mut self, job: Job) {
        if !self.dead && self.jobs.send(job).is_err() {
            self.dead = true;
        }
    }

    /// An empty chunk: a spent one if the worker has handed any back.
    fn chunk(&mut self) -> Vec<TraceRecord> {
        while let Ok(reply) = self.replies.try_recv() {
            match reply {
                Reply::Spent(v) => self.spare.push(v),
                Reply::Done(_) => unreachable!("a run finishes only in LiveRun::finish"),
            }
        }
        self.spare.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK))
    }

    /// Wait for the run's fold, or resume the worker's panic.
    fn finish(mut self, last: Vec<TraceRecord>) -> Box<Fold> {
        self.send(Job::Finish);
        while let Ok(reply) = self.replies.recv() {
            match reply {
                Reply::Spent(v) => self.spare.push(v),
                Reply::Done(fold) => {
                    self.spare.push(last);
                    self.release();
                    return fold;
                }
            }
        }
        // The reply channel closed: the thread is gone.
        match self.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => panic!("hybrid analysis worker exited mid-run"),
        }
    }

    /// Close the job channel and wait for the thread, which folds what
    /// is queued (a few chunks at most) and exits.
    fn join(&mut self) -> std::thread::Result<()> {
        let (closed, _) = mpsc::sync_channel(0);
        drop(std::mem::replace(&mut self.jobs, closed));
        self.thread.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // A panic in the fold has been printed by the panic hook; with no
        // run waiting for it there is nothing to resume it into.
        let _ = self.join();
    }
}

/// The worker loop: fold each run's chunks in order until the calling
/// thread lets go of the channel. A panic in the fold ends the thread;
/// the VM thread sees the channels close and resumes the panic.
fn serve(jobs: Receiver<Job>, replies: Sender<Reply>) {
    let mut fold: Option<Box<Fold>> = None;
    // Kept across runs, so its block table stops growing once warm.
    let mut ctx = ReplayCtx::default();
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Start(f, start) => {
                ctx.restart(start);
                fold = Some(f);
            }
            Job::Chunk(mut recs) => {
                fold.as_mut().expect("chunk outside a run").fold(&mut ctx, &recs);
                recs.clear();
                let _ = replies.send(Reply::Spent(recs));
            }
            Job::Fault(e) => fold.as_mut().expect("fault outside a run").guest_fault = Some(e),
            Job::Finish => {
                let done = fold.take().expect("finish outside a run");
                if replies.send(Reply::Done(done)).is_err() {
                    return;
                }
            }
        }
    }
}

/// The VM-thread half of one live hybrid run.
pub(crate) struct LiveRun {
    mirror: StackMirror,
    chunk: Vec<TraceRecord>,
    worker: Worker,
}

impl LiveRun {
    /// Start a run on the calling thread's worker with the fold `lend`
    /// builds and the context `vm` shows now. `None`, without calling
    /// `lend`, when the host has one CPU or no thread can be started.
    pub(crate) fn start(lend: impl FnOnce() -> Fold, vm: &VmView<'_>) -> Option<LiveRun> {
        if !multi_cpu() {
            return None;
        }
        let mut worker = Worker::acquire()?;
        worker.send(Job::Start(Box::new(lend()), ReplayCtx::from_view(vm)));
        let chunk = worker.chunk();
        Some(LiveRun { mirror: StackMirror::new(), chunk, worker })
    }

    /// Queue `ev` behind the stack deltas a reader applies before it.
    pub(crate) fn push(&mut self, ev: &Event, vm: &VmView<'_>) {
        let chunk = &mut self.chunk;
        self.mirror.sync(ev.tid(), vm, ev.loc(), |rec| chunk.push(rec));
        chunk.push(TraceRecord::Event(*ev));
        if chunk.len() >= CHUNK {
            self.ship();
        }
    }

    /// Hand the current chunk, if any, to the worker.
    fn ship(&mut self) {
        if !self.chunk.is_empty() {
            let next = self.worker.chunk();
            self.worker.send(Job::Chunk(std::mem::replace(&mut self.chunk, next)));
        }
    }

    /// A guest fault, delivered after every event before it.
    pub(crate) fn fault(&mut self, err: String) {
        self.ship();
        self.worker.send(Job::Fault(err));
    }

    /// Fold what is left and hand the analysis back; a panic in the
    /// worker resumes here, on the VM thread.
    pub(crate) fn finish(mut self) -> Box<Fold> {
        self.ship();
        self.worker.finish(self.chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::detector::HybridDetector;
    use crate::report::ReportCtx;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use vexec::event::ClientEv;
    use vexec::ir::builder::{ProcBuilder, ProgramBuilder};
    use vexec::ir::lower::FlatProgram;
    use vexec::ir::{ClientOp, Expr};
    use vexec::sched::SeededRandom;
    use vexec::vm::{run_flat, VmOptions};

    /// A client label with this text makes the fold panic: the way the
    /// test below puts a panic on the analysis thread.
    pub(super) const PANIC_LABEL: &str = "panic-in-fold";

    pub(super) fn panic_on_marker(ev: &Event, ctx: &ReplayCtx) {
        if let Event::Client { req: ClientEv::Label(sym), .. } = ev {
            if ctx.resolve_sym(*sym) == PANIC_LABEL {
                panic!("{PANIC_LABEL}");
            }
        }
    }

    /// Two threads bump a locked counter and race on a global for `spin`
    /// rounds (several chunks); with `marker`, main then drops the panic
    /// label.
    fn program(spin: u64, marker: bool) -> FlatProgram {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("g", 8);
        let counter = pb.global("counter", 8);
        let mutex = pb.global("mutex", 8);
        let label = pb.intern(PANIC_LABEL);
        let loc = pb.loc("t.cpp", 3, "bump");
        let mut w = ProcBuilder::new(0);
        w.at(loc);
        let m = w.load_new(mutex, 8);
        w.begin_repeat(spin);
        w.lock(Expr::Reg(m));
        let c = w.load_new(counter, 8);
        w.store(counter, Expr::Reg(c), 8);
        w.unlock(Expr::Reg(m));
        w.store(g, 1u64, 8);
        w.end_repeat();
        let worker = pb.add_proc("bump", w);
        let mut main = ProcBuilder::new(0);
        let mx = main.new_mutex();
        main.store(mutex, Expr::Reg(mx), 8);
        let a = main.spawn(worker, vec![]);
        let b = main.spawn(worker, vec![]);
        if marker {
            main.client(ClientOp::Label(label));
        }
        main.join(a);
        main.join(b);
        let id = pb.add_proc("main", main);
        pb.set_entry(id);
        pb.finish().lower()
    }

    /// Everything a caller reads of one run's detector.
    fn run(flat: &FlatProgram, cfg: DetectorConfig) -> String {
        let mut det = HybridDetector::new(cfg);
        let r = run_flat(flat, &mut det, &mut SeededRandom::new(9), VmOptions::default());
        let mut out = format!(
            "{:?}\ntruncated {} fault {:?}\n{:?}\n",
            r.termination,
            det.truncated(),
            det.guest_fault,
            det.engine_stats()
        );
        for rep in det.sink.take_reports() {
            out.push_str(&rep.render());
        }
        out
    }

    #[test]
    fn a_panic_in_the_fold_reaches_the_caller_and_the_next_run_recovers() {
        let clean = program(1500, false);
        let poisoned = program(1500, true);
        for cfg in [DetectorConfig::hybrid(), DetectorConfig::hybrid_queue_hb()] {
            let reference = run(&clean, cfg);
            assert!(reference.contains("Possible"), "{reference}");
            let caught = catch_unwind(AssertUnwindSafe(|| run(&poisoned, cfg)));
            let payload = caught.expect_err("the fold's panic resumes on the VM thread");
            assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some(PANIC_LABEL));
            // The thread's next hybrid run gets a working fold again.
            assert_eq!(run(&clean, cfg), reference);
        }
    }
}
