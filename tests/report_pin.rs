//! Absolute report pin: FNV-1a digests of rendered reports, fixed as
//! constants.
//!
//! Every other golden suite is relative — adaptive vs reference epochs,
//! filtered vs unfiltered, compiled vs tree-walking core, record→analyze vs
//! inline. A change to formatting that both sides of such a pair share
//! (race descriptions, the scheduler's draw, the fault hook) passes all of
//! them. These digests were taken from the implementation that preceded
//! typed race descriptions, so any drift in report bytes, run counters,
//! fault counters or soak log lines fails here.
//!
//! On a mismatch the assertion prints the digest the tree now produces;
//! only replace a constant when the output change is intended.

mod golden;

use golden::{chaos_sweep, for_each_run, observe, Knob};
use raceline::helgrind_core::AnyDetector;
use raceline::prelude::*;
use raceline::sipsim::{self, SoakLog, SoakSpec};
use raceline::vexec::vm::VmMode;

/// T1–T8 × six presets, RoundRobin, no faults.
const T1_T8_ROUND_ROBIN: u64 = 0x6d48_9393_6607_fb28;
/// T1–T8 × six presets, [`golden::fault_plan`] under SeededRandom.
const T1_T8_FAULTED: u64 = 0x5c1e_13a1_16f7_efca;
/// Soak phases 0–3 under `hybrid`: every report plus the log block.
const SOAK_PHASES_0_3: u64 = 0x5298_769d_1fd9_f76c;
/// Chaos fingerprints of the `interp_golden` sweep (hwlc-dr, four seeded
/// plans per case).
const CHAOS_FINGERPRINTS: u64 = 0x5d05_86d7_9cea_2da7;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the production setting's [`observe`] text over T1–T8 × six
/// presets.
fn t1_t8_digest(faulted: bool) -> u64 {
    let mut h = FNV_OFFSET;
    for_each_run(faulted, |case, name, flat, opts, seed| {
        fnv1a(&mut h, case.as_bytes());
        fnv1a(&mut h, observe(name, flat, opts, seed, Knob::Filter(true)).0.as_bytes());
    });
    h
}

#[test]
fn t1_t8_reports_match_the_pinned_digest() {
    let got = t1_t8_digest(false);
    assert_eq!(got, T1_T8_ROUND_ROBIN, "round-robin digest is now {got:#018x}");
}

#[test]
fn t1_t8_reports_under_faults_match_the_pinned_digest() {
    let got = t1_t8_digest(true);
    assert_eq!(got, T1_T8_FAULTED, "faulted digest is now {got:#018x}");
}

#[test]
fn soak_phases_match_the_pinned_digest() {
    let spec = SoakSpec::default();
    let mut h = FNV_OFFSET;
    for phase in 0..4 {
        let det = AnyDetector::by_name("hybrid", DetectorConfig::hybrid(), SuppressionSet::new());
        let out = sipsim::run_phase(&spec, phase, Some(det), true, None);
        for rep in &out.reports {
            fnv1a(&mut h, rep.render().as_bytes());
        }
        fnv1a(&mut h, SoakLog::phase_block(&out).as_bytes());
    }
    assert_eq!(h, SOAK_PHASES_0_3, "soak digest is now {h:#018x}");
}

#[test]
fn chaos_fingerprints_match_the_pinned_digest() {
    let mut h = FNV_OFFSET;
    for (_, out) in chaos_sweep(VmMode::Compiled) {
        fnv1a(&mut h, &out.fingerprint.to_le_bytes());
    }
    assert_eq!(h, CHAOS_FINGERPRINTS, "chaos digest is now {h:#018x}");
}
