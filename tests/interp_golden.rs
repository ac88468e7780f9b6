//! Golden interp-equivalence gate: the compiled operand-specialized
//! bytecode core must be invisible in every report a user can read.
//!
//! Each of the eight evaluation cases T1–T8 is run under all six detector
//! configurations, once on the compiled bytecode core and once on the
//! tree-walking reference interpreter (`--vm-reference`), and the complete
//! observable output — termination, the truncation flag, the rendered
//! report text, and the slot/event/op/thread/alloc counters the trace
//! footer and soak log persist — must be byte-identical. A second sweep
//! repeats the matrix under an aggressive fault-injection plan and a
//! seeded random scheduler, so the equivalence is exercised off the happy
//! path too (killed threads, failed allocations, spurious wakeups). A
//! third sweep pins the chaos harness fingerprint — an FNV-1a hash over
//! termination, every report, and the injector counters — across both
//! cores.
//!
//! Only the stderr-side statistics (`--stats` interp counters) may differ
//! between the two runs; nothing here looks at those.

mod golden;

use golden::{assert_knob_invisible, chaos_sweep, Knob};
use raceline::vexec::vm::VmMode;

/// T1–T8 × 6 engines, clean deterministic schedule.
#[test]
fn t1_t8_compiled_and_reference_are_byte_identical() {
    assert_knob_invisible(Knob::Vm(VmMode::Compiled), Knob::Vm(VmMode::Reference), false);
}

/// T1–T8 × 6 engines under fault injection and a randomized schedule:
/// the equivalence must survive killed threads, failed allocations and
/// spurious wakeups, where runs legitimately end in deadlocks or guest
/// errors. The injector consults its counters at fixed points in the
/// dispatch, so any drift in the compiled core's op sequencing would
/// change which faults fire and show up here immediately.
#[test]
fn t1_t8_compiled_and_reference_are_byte_identical_under_faults() {
    assert_knob_invisible(Knob::Vm(VmMode::Compiled), Knob::Vm(VmMode::Reference), true);
}

/// Chaos harness fingerprints pin the full outcome (termination, reports,
/// fault counters) per (case, plan, schedule) across both cores — the
/// same invariance the `chaos` CLI gate checks over full sweeps.
#[test]
fn chaos_fingerprints_are_core_invariant() {
    let compiled = chaos_sweep(VmMode::Compiled);
    let reference = chaos_sweep(VmMode::Reference);
    for ((label, c), (_, r)) in compiled.iter().zip(&reference) {
        assert_eq!(c.fingerprint, r.fingerprint, "{label}: chaos fingerprint diverged");
        assert_eq!(c.real_hits, r.real_hits, "{label}: real hits");
        assert_eq!(c.locations, r.locations, "{label}: locations");
    }
    assert_eq!(compiled.len(), reference.len());
}
