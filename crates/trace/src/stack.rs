//! [`StackMirror`]: the per-thread backtraces a trace consumer rebuilds,
//! kept in step with the VM's real stacks by `StackPush`/`StackPop`
//! delta records.
//!
//! A consumer applies the records in stream order, plus one implicit rule
//! per event ([`overwrite_top`]): the VM overwrites the top frame's
//! current location as each op executes, so the event's own location
//! overwrites the mirrored top frame. The mirror therefore emits records
//! only at call/return boundaries; straight-line code within one
//! function needs none. [`crate::TraceWriter`] encodes the records into
//! the `.rltrace` payload; a live consumer can queue them as they are.

use vexec::event::ThreadId;
use vexec::ir::SrcLoc;
use vexec::util::Symbol;
use vexec::vm::VmView;

use crate::format::TraceRecord;

/// One mirrored frame: function symbol and current location.
pub type Frame = (Symbol, SrcLoc);

/// The reader's top-frame rule: an event at `loc` moves the top frame to
/// `loc`, and renames it when the location carries a function.
#[inline]
pub fn overwrite_top(top: &mut Frame, loc: SrcLoc) {
    top.1 = loc;
    if loc.func != Symbol::EMPTY {
        top.0 = loc.func;
    }
}

/// Reader-visible backtraces of every thread, outermost frame first.
#[derive(Clone, Debug, Default)]
pub struct StackMirror {
    threads: Vec<Vec<Frame>>,
    /// The true backtrace on the slow path; swapped with the mirror after
    /// each sync, so frame boundaries allocate nothing in steady state.
    scratch: Vec<Frame>,
}

impl StackMirror {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconcile the mirror of `tid` with the VM's real backtrace at an
    /// event located at `ev_loc`, passing the minimal pop/push delta to
    /// `out` in the order a reader must apply it (before the event). When
    /// the only difference is the top frame's location — the
    /// overwhelmingly common case — [`overwrite_top`] absorbs it and no
    /// records are emitted.
    pub fn sync(
        &mut self,
        tid: ThreadId,
        vm: &VmView<'_>,
        ev_loc: Option<SrcLoc>,
        mut out: impl FnMut(TraceRecord),
    ) {
        let n = vm.frame_count(tid);
        let i = tid.index();
        if i >= self.threads.len() {
            self.threads.resize_with(i + 1, Vec::new);
        }
        let frame = |d: usize| {
            let f = vm.frame_info(tid, d);
            (f.func, f.loc)
        };

        // Fast path (consecutive events in the same call nest): same
        // depth, outer frames unchanged, and the top-frame rule reproduces
        // the top frame. No records, no allocation.
        let mirror = &mut self.threads[i];
        if mirror.len() == n && n > 0 {
            if (0..n - 1).all(|d| mirror[d] == frame(d)) {
                let mut top = mirror[n - 1];
                if let Some(loc) = ev_loc {
                    overwrite_top(&mut top, loc);
                }
                let truth = frame(n - 1);
                if top == truth {
                    mirror[n - 1] = truth;
                    return;
                }
            }
        } else if mirror.is_empty() && n == 0 {
            return;
        }

        // Slow path (frame boundary): materialise the true backtrace and
        // emit the minimal pop/push delta against the reader's predicted
        // state.
        let truth = &mut self.scratch;
        truth.clear();
        truth.extend((0..n).map(frame));
        if !predicts(mirror, ev_loc, truth) {
            let common = mirror.iter().zip(truth.iter()).take_while(|(m, t)| m == t).count();
            let pops = (mirror.len() - common) as u32;
            if pops > 0 {
                out(TraceRecord::StackPop { tid, n: pops });
            }
            for &(func, loc) in &truth[common..] {
                out(TraceRecord::StackPush { tid, func, loc });
            }
        }
        std::mem::swap(mirror, truth);
    }
}

/// Whether the top-frame rule alone turns `mirror` into `truth` for an
/// event at `ev_loc`.
fn predicts(mirror: &[Frame], ev_loc: Option<SrcLoc>, truth: &[Frame]) -> bool {
    if mirror.len() != truth.len() {
        return false;
    }
    let Some((&top, outer)) = mirror.split_last() else {
        return true;
    };
    let mut top = top;
    if let Some(loc) = ev_loc {
        overwrite_top(&mut top, loc);
    }
    outer == &truth[..outer.len()] && top == truth[outer.len()]
}
