//! `raceline bench-snapshot`, one run per mode with a single sample: each
//! mode exits 0 and publishes every row and multiple its snapshot schema
//! promises. The values are asserted from the committed `BENCH_*.json`
//! files, not from these runs.

use std::process::Command;

fn snapshot_keys(mode: &[&str], keys: &[&str]) {
    let out = std::env::temp_dir()
        .join(format!("raceline_bench_snapshot{}.json", mode.concat().replace('-', "_")));
    let out_p = out.to_str().expect("temp path is UTF-8");
    let run = Command::new(env!("CARGO_BIN_EXE_raceline"))
        .args(["bench-snapshot", "--samples", "1", "--out", out_p])
        .args(mode)
        .output()
        .expect("run raceline");
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    let json = std::fs::read_to_string(&out).expect("snapshot written");
    for key in keys {
        assert!(json.contains(&format!("\"{key}\"")), "missing {key} in\n{json}");
    }
    let _ = std::fs::remove_file(&out);
}

#[test]
fn overhead_mode_publishes_every_row_and_multiple() {
    snapshot_keys(
        &[],
        &[
            "workload",
            "median_ns",
            "multiples",
            "vm-eraser-hwlc-dr",
            // The redundant-access filter's twin rows and on/off speedups.
            "vm-hybrid-filter",
            "vm-eraser-hwlc-dr-filter",
            "vm-djit-filter",
            "vm-hybrid/vm-hybrid-filter",
            // The HB engines' reference-VC twins and the epoch win.
            "vm-djit-reference",
            "vm-hybrid-reference",
            "vm-hybrid-reference/vm-hybrid",
            "vc_micro",
            // The reference interpreter's twin row and the compile win.
            "vm-no-tool-reference",
            "vm-no-tool-reference/vm-no-tool",
        ],
    );
}

#[test]
fn trace_mode_publishes_record_and_codec_rows() {
    snapshot_keys(&["--trace"], &["vm-record", "codec", "record_cheaper_than_hybrid"]);
}

#[test]
fn soak_mode_emits_its_schema() {
    snapshot_keys(
        &["--soak"],
        &[
            "workload",
            "median_ns",
            "soak-hybrid-filter",
            "soak-detection-off",
            "dialogs_per_sec",
            "peak_live_granules",
        ],
    );
}

#[test]
fn serve_mode_publishes_producer_rows_and_dedup_rate() {
    snapshot_keys(&["--serve"], &["producers", "traces_per_sec", "events_per_sec", "hit_rate"]);
}
