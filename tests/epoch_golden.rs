//! Golden epoch-equivalence gate: the adaptive FastTrack epoch lattice
//! must be invisible in every report a user can read.
//!
//! Each of the eight evaluation cases T1–T8 is run under all six detector
//! configurations, once with the adaptive epoch read state and once in
//! `hb_reference` mode (full vector clocks), and the complete observable
//! output — termination, run and fault counters, the truncation flag, and
//! the rendered report text — must be byte-identical. The Eraser rows have
//! no HB engine, but running them pins that `hb_reference` is a no-op
//! there. A second sweep repeats the matrix under an aggressive
//! fault-injection plan and a seeded random scheduler, so the equivalence
//! is exercised off the happy path too (killed threads, failed
//! allocations, spurious wakeups).
//!
//! Only the stderr-side statistics (`--stats` epoch counters) may differ
//! between the two runs; nothing here looks at those.

mod golden;

use golden::{assert_knob_invisible, Knob};

/// T1–T8 × 6 engines, clean deterministic schedule.
#[test]
fn t1_t8_adaptive_and_reference_are_byte_identical() {
    assert_knob_invisible(Knob::HbReference(false), Knob::HbReference(true), false);
}

/// T1–T8 × 6 engines under fault injection and a randomized schedule:
/// the equivalence must survive killed threads, failed allocations and
/// spurious wakeups, where runs legitimately end in deadlocks or guest
/// errors.
#[test]
fn t1_t8_adaptive_and_reference_are_byte_identical_under_faults() {
    assert_knob_invisible(Knob::HbReference(false), Knob::HbReference(true), true);
}
