//! Trace replay: run any detector over a recorded `.rltrace` byte stream
//! — no VM, no re-execution — and reproduce the inline report exactly.
//!
//! The writer serialises three things the detectors need beyond the raw
//! events: the symbol table (header), per-thread backtraces (stack delta
//! records + the top-frame-overwrite rule), and heap blocks (header
//! snapshot + Alloc/Free events). [`ReplayCtx`] reconstructs all three
//! ([`ReplayCtx::apply`], one record at a time) and implements
//! [`ReportCtx`], so `EraserDetector::handle_event` runs the same code
//! inline and offline; byte-identical reports follow by construction.
//! The live hybrid detector folds its own record stream through the same
//! step on an analysis worker.
//!
//! Sharding: epoch payloads are codec-independent, so decoding fans out
//! over the [`crate::par`] worker pool. Detector dispatch is a *sequential
//! fold in epoch order* over the decoded records — identical for any
//! `--jobs N`, which is what makes parallel analysis bit-reproducible.
//!
//! Starting mid-trace (`from_epoch > 0`) replays stack/block context from
//! the beginning (cheap — no detector work) and primes the detector's
//! lock state with synthetic `Acquire` events from the target epoch's
//! held-lock snapshot; shadow memory starts virgin, like attaching a
//! detector to a live process.
//!
//! The HB engines' adaptive epoch lattice (§13) is below this layer:
//! `DetectorConfig::hb_reference` selects the read-state representation
//! inside [`crate::HbEngine`], so `analyze ... --hb-reference` flows
//! through the same [`ReplayDetector`] plumbing and must stay
//! byte-identical to the adaptive default — the CI epoch job cmp-gates
//! sharded analyze across both modes.

use std::collections::BTreeMap;

use raceline_trace::format::{TraceError, TraceFooter, TraceRecord};
use raceline_trace::reader::{decode_epoch, parse_trace, parse_trace_repair, ParsedTrace};
use raceline_trace::stack::{overwrite_top, Frame};
use vexec::event::{Event, ThreadId};
use vexec::util::Symbol;
use vexec::vm::VmView;

use crate::detector::{AnyDetector, EngineStats};
use crate::report::{format_block_note, Report, ReportCtx, StackFrame};

/// The detector a replay dispatches into: the same name-dispatched
/// [`AnyDetector`] that live runs use. Build it the way the inline path
/// builds its tool (same name, config, suppressions) and reports come out
/// byte-identical.
pub type ReplayDetector = AnyDetector;

/// What offline analysis hands back to the caller.
pub struct ReplayOutcome {
    pub reports: Vec<Report>,
    pub truncated: bool,
    /// Events dispatched to the detector (suffix only under `from_epoch`).
    pub events: u64,
    pub footer: TraceFooter,
    /// Per-engine counters from the replay-side detector (`--stats`).
    pub engine_stats: Vec<EngineStats>,
}

/// One heap block: size, allocating thread, freed flag.
type BlockRec = (u64, u32, bool);

/// Reconstructed report context: symbol table, per-thread backtraces,
/// heap blocks. The offline twin of the live `VmView`, and what the live
/// hybrid analysis folds its record stream through.
#[derive(Default)]
pub struct ReplayCtx {
    symbols: Vec<String>,
    stacks: Vec<Vec<Frame>>,
    /// Blocks by address; mirrors the VM's bump allocator (freed blocks
    /// stay, marked). Addresses only grow, so a recorded stream only ever
    /// appends here. An address at or below the last one that is not
    /// already known — only hand-made or hostile traces have them — goes
    /// to `strays` instead, so no input makes insertion quadratic.
    blocks: Vec<(u64, BlockRec)>,
    strays: BTreeMap<u64, BlockRec>,
}

impl ReplayCtx {
    fn new(symbols: Vec<String>, initial: impl IntoIterator<Item = (u64, BlockRec)>) -> Self {
        let mut ctx =
            ReplayCtx { symbols, stacks: Vec::new(), blocks: Vec::new(), strays: BTreeMap::new() };
        for (addr, b) in initial {
            *ctx.block_mut(addr, b) = b;
        }
        ctx
    }

    /// The context a trace written at this point of a live run would
    /// start from: the run's symbol table and its heap blocks so far
    /// (what `TraceWriter` puts in the header).
    pub(crate) fn from_view(vm: &VmView<'_>) -> Self {
        let interner = vm.interner();
        let symbols =
            (0..interner.len()).map(|i| interner.resolve(Symbol(i as u32)).to_string()).collect();
        let blocks = vm.heap_blocks().iter().map(|b| (b.addr, (b.size, b.alloc_tid.0, b.freed)));
        ReplayCtx::new(symbols, blocks)
    }

    /// Become `start`, keeping this context's allocations: a persistent
    /// live fold reuses one block table run after run instead of growing a
    /// new one each time.
    pub(crate) fn restart(&mut self, start: ReplayCtx) {
        self.symbols = start.symbols;
        self.stacks.iter_mut().for_each(Vec::clear);
        self.blocks.clear();
        self.blocks.extend_from_slice(&start.blocks);
        self.strays = start.strays;
    }

    fn stack_mut(&mut self, tid: ThreadId) -> &mut Vec<Frame> {
        let i = tid.index();
        if i >= self.stacks.len() {
            self.stacks.resize_with(i + 1, Vec::new);
        }
        &mut self.stacks[i]
    }

    /// The block starting at `addr`, inserted as `fresh` if unknown.
    fn block_mut(&mut self, addr: u64, fresh: BlockRec) -> &mut BlockRec {
        if self.blocks.last().is_none_or(|&(last, _)| last < addr) {
            self.blocks.push((addr, fresh));
            return &mut self.blocks.last_mut().expect("just pushed").1;
        }
        match self.blocks.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => &mut self.blocks[i].1,
            Err(_) => self.strays.entry(addr).or_insert(fresh),
        }
    }

    /// Apply one record in stream order: stack deltas, then for an event
    /// the top-frame rule and its heap bookkeeping. After this the context
    /// shows what the live `VmView` showed when the event was delivered.
    pub fn apply(&mut self, rec: &TraceRecord) {
        match *rec {
            TraceRecord::StackPush { tid, func, loc } => self.stack_mut(tid).push((func, loc)),
            TraceRecord::StackPop { tid, n } => {
                let stack = self.stack_mut(tid);
                stack.truncate(stack.len().saturating_sub(n as usize));
            }
            TraceRecord::Event(ref ev) => {
                if let Some(loc) = ev.loc() {
                    if let Some(top) = self.stack_mut(ev.tid()).last_mut() {
                        overwrite_top(top, loc);
                    }
                }
                match *ev {
                    Event::Alloc { tid, addr, size, .. } => {
                        *self.block_mut(addr, (size, tid.0, false)) = (size, tid.0, false);
                    }
                    Event::Free { tid, addr, size, .. } => {
                        self.block_mut(addr, (size, tid.0, true)).2 = true;
                    }
                    _ => {}
                }
            }
        }
    }
}

impl ReportCtx for ReplayCtx {
    fn resolve_sym(&self, sym: Symbol) -> &str {
        self.symbols.get(sym.0 as usize).map(String::as_str).unwrap_or("")
    }

    fn stack_of(&self, tid: ThreadId) -> Vec<StackFrame> {
        let Some(stack) = self.stacks.get(tid.index()) else {
            return Vec::new();
        };
        stack
            .iter()
            .rev()
            .map(|&(func, loc)| StackFrame {
                func: self.resolve_sym(func).to_string(),
                file: self.resolve_sym(loc.file).to_string(),
                line: loc.line,
            })
            .collect()
    }

    fn block_note(&self, addr: u64) -> Option<String> {
        let i = self.blocks.partition_point(|&(a, _)| a <= addr);
        let sorted = i.checked_sub(1).map(|i| self.blocks[i]);
        let stray = self.strays.range(..=addr).next_back().map(|(&a, &b)| (a, b));
        let (base, (size, alloc_tid, freed)) = match (sorted, stray) {
            (Some(s), Some(t)) => s.max(t),
            (s, t) => s.or(t)?,
        };
        (addr < base + size).then(|| format_block_note(addr, base, size, alloc_tid, freed))
    }
}

/// Decode every epoch payload on the [`crate::par`] pool. Results land in
/// index order, so the output — including which error surfaces when
/// several epochs are corrupt (the first in epoch order) — is independent
/// of thread timing.
fn decode_epochs(
    bytes: &[u8],
    parsed: &ParsedTrace,
    jobs: usize,
) -> Result<Vec<Vec<TraceRecord>>, TraceError> {
    let nsyms = parsed.header.symbols.len() as u32;
    crate::par::map_indexed(jobs, parsed.epochs.len(), |i| {
        decode_epoch(bytes, &parsed.epochs[i], nsyms)
    })
    .into_iter()
    .collect()
}

/// Run `detector` over a complete `.rltrace` byte stream.
///
/// `jobs` parallelises epoch *decoding* only; dispatch is a sequential
/// fold in epoch order, so the outcome is byte-identical for any `jobs`.
/// `from_epoch` skips detector dispatch for earlier epochs (context is
/// still replayed) and primes lock state from that epoch's snapshot.
pub fn analyze_trace_bytes(
    bytes: &[u8],
    detector: ReplayDetector,
    jobs: usize,
    from_epoch: u64,
) -> Result<ReplayOutcome, TraceError> {
    let parsed = parse_trace(bytes)?;
    analyze_parsed(bytes, parsed, detector, jobs, from_epoch)
}

/// What the tolerant analyze path recovered.
#[derive(Clone, Copy, Debug)]
pub struct RepairInfo {
    /// `false` when the trace was whole and no repair was needed.
    pub repaired: bool,
    /// Torn-tail bytes discarded before analysis.
    pub dropped_bytes: usize,
}

/// `analyze --repair`: like [`analyze_trace_bytes`], but a crash-truncated
/// trace (missing or torn envelope trailer) is recovered via
/// [`parse_trace_repair`] — the torn final epoch is dropped and the intact
/// prefix analyzed. Real corruption (checksum mismatch, interior structure
/// errors in a complete file) still propagates.
pub fn analyze_trace_repair(
    bytes: &[u8],
    detector: ReplayDetector,
    jobs: usize,
    from_epoch: u64,
) -> Result<(ReplayOutcome, RepairInfo), TraceError> {
    let rt = parse_trace_repair(bytes)?;
    let info = RepairInfo { repaired: rt.repaired, dropped_bytes: rt.dropped_bytes };
    Ok((analyze_parsed(bytes, rt.parsed, detector, jobs, from_epoch)?, info))
}

fn analyze_parsed(
    bytes: &[u8],
    parsed: ParsedTrace,
    mut detector: ReplayDetector,
    jobs: usize,
    from_epoch: u64,
) -> Result<ReplayOutcome, TraceError> {
    let decoded = decode_epochs(bytes, &parsed, jobs)?;

    let blocks =
        parsed.header.initial_blocks.iter().map(|b| (b.addr, (b.size, b.alloc_tid, b.freed)));
    let mut ctx = ReplayCtx::new(parsed.header.symbols.clone(), blocks);
    let mut counts: Vec<u64> = Vec::new();
    let mut dispatched: u64 = 0;

    for (desc, recs) in parsed.epochs.iter().zip(&decoded) {
        let epoch = desc.snapshot.index;
        // Cross-check the snapshot's per-thread sequence numbers against
        // the stream decoded so far: cheap end-to-end integrity on top of
        // the file checksum.
        for (i, t) in desc.snapshot.threads.iter().enumerate() {
            let have = counts.get(i).copied().unwrap_or(0);
            if have != t.seq {
                return Err(TraceError::Corrupt {
                    offset: desc.payload_offset as u64,
                    detail: format!(
                        "epoch {epoch} snapshot says thread {i} emitted {} events, stream has {have}",
                        t.seq
                    ),
                });
            }
        }
        if epoch == from_epoch && from_epoch > 0 {
            // Prime lock state: the suffix starts with these locks held.
            // Snapshot order is acquisition order, so lock-order edges
            // between them are faithful too.
            for (i, t) in desc.snapshot.threads.iter().enumerate() {
                for h in &t.held {
                    for _ in 0..h.count {
                        let ev = Event::Acquire {
                            tid: ThreadId(i as u32),
                            sync: h.sync,
                            kind: h.kind,
                            mode: h.mode,
                            loc: h.loc,
                        };
                        detector.handle_event(&ev, &ctx);
                    }
                }
            }
        }
        for rec in recs {
            ctx.apply(rec);
            if let TraceRecord::Event(ev) = rec {
                if epoch >= from_epoch {
                    detector.handle_event(ev, &ctx);
                    dispatched += 1;
                }
                let i = ev.tid().index();
                if i >= counts.len() {
                    counts.resize(i + 1, 0);
                }
                counts[i] += 1;
            }
        }
    }
    let total: u64 = counts.iter().sum();
    if total != parsed.footer.events {
        return Err(TraceError::Corrupt {
            offset: bytes.len() as u64,
            detail: format!(
                "footer claims {} events, stream decoded {total}",
                parsed.footer.events
            ),
        });
    }
    detector.handle_finish();
    Ok(ReplayOutcome {
        truncated: detector.truncated(),
        engine_stats: detector.engine_stats(),
        reports: detector.take_reports(),
        events: dispatched,
        footer: parsed.footer,
    })
}

/// Stable identity of a warning across runs and engines, for `trace-diff`:
/// kind + source location. Deliberately excludes the address (heap layout
/// shifts between builds) and the stack (inlining and call paths churn).
pub fn warning_fingerprint(r: &Report) -> String {
    format!("{}|{}|{}|{}", r.kind.code(), r.file, r.line, r.func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::ir::SrcLoc;

    /// The block table against a `BTreeMap` model of the same rules (an
    /// Alloc overwrites, a Free marks or inserts freed), on streams that
    /// mix rising addresses with the out-of-order ones only hand-made
    /// traces carry.
    #[test]
    fn block_table_matches_an_ordered_map_on_any_address_order() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for _ in 0..200 {
            let initial: Vec<(u64, BlockRec)> =
                (0..next(4)).map(|_| (next(64) * 16, (1 + next(40), 0, next(2) == 0))).collect();
            let mut model: BTreeMap<u64, BlockRec> = initial.iter().copied().collect();
            let mut ctx = ReplayCtx::new(Vec::new(), initial);
            let mut top = 0;
            for _ in 0..next(40) {
                // Mostly rising addresses, as the bump allocator makes them.
                let addr = if next(4) == 0 { next(64) * 16 } else { top + 16 * (1 + next(3)) };
                top = top.max(addr);
                let (tid, size, loc) = (ThreadId(next(3) as u32), 1 + next(40), SrcLoc::UNKNOWN);
                let ev = if next(3) == 0 {
                    model.entry(addr).and_modify(|b| b.2 = true).or_insert((size, tid.0, true));
                    Event::Free { tid, addr, size, loc }
                } else {
                    model.insert(addr, (size, tid.0, false));
                    Event::Alloc { tid, addr, size, loc }
                };
                ctx.apply(&TraceRecord::Event(ev));
            }
            for addr in 0..top + 64 {
                let want = model.range(..=addr).next_back().and_then(|(&base, &(size, t, f))| {
                    (addr < base + size).then(|| format_block_note(addr, base, size, t, f))
                });
                assert_eq!(ctx.block_note(addr), want, "address {addr:#x}");
            }
        }
    }
}
