//! # race-bench — the reproduction harness
//!
//! One runner per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index). The `repro` binary prints every table; the
//! Criterion benches in `benches/` measure the §4.5 overhead story;
//! [`snapshot`] writes the `BENCH_*.json` wall-clock snapshots behind
//! `raceline bench-snapshot`.

pub mod experiments;
pub mod scenarios;
pub mod snapshot;
