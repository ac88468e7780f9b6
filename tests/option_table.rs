//! The option table, driven in-process through `raceline::cmd` without
//! spawning the binary: every (subcommand, flag) pair the CLI has always
//! accepted still parses, no other pair does, and every row reaches the
//! usage text.

use raceline::cmd::{self, CmdError, COMMANDS, FLAGS};
use std::collections::BTreeSet;

/// The accepted (subcommands, flag, sample value) triples, written out by
/// hand from the per-command argument loops the table replaced; an empty
/// sample marks a switch.
const ACCEPTED: &[(&str, &str, &str)] = &[
    ("check record lint", "--detector", "hwlc"),
    ("check record lint", "--schedule", "random:3"),
    ("check record lint", "--raw", "a.mcpp"),
    ("check record lint", "--suppressions", "s.supp"),
    ("check record lint", "--faults", "seed=7,kill=1"),
    ("check record lint", "--budget", "reports=4"),
    ("check record lint", "--checkpoint", "ck"),
    ("check record lint", "--case", "T1"),
    ("check record lint", "--out", "t.rltrace"),
    ("check record lint", "--epoch-events", "8"),
    ("check record lint", "--gen-suppressions", ""),
    ("check record lint", "--emit-annotated", ""),
    ("check record lint", "--emit-ir", ""),
    ("check record lint", "--json", ""),
    ("check record lint", "--no-filter", ""),
    ("check record lint", "--hb-reference", ""),
    ("check record lint", "--vm-reference", ""),
    ("check record lint", "--stats", ""),
    ("check record lint", "--static-cross-check", ""),
    ("check record lint", "--directed", ""),
    ("check record lint", "--explore", "6"),
    ("check record lint", "--jobs", "4"),
    ("analyze", "--detector", "djit"),
    ("analyze", "--jobs", "4"),
    ("analyze", "--from-epoch", "3"),
    ("analyze", "--stats", ""),
    ("analyze", "--repair", ""),
    ("analyze", "--hb-reference", ""),
    ("analyze", "--suppressions", "s.supp"),
    ("analyze", "--budget", "reports=4"),
    ("analyze", "--gen-suppressions", ""),
    ("analyze", "--json", ""),
    ("trace-diff", "--detector", "original"),
    ("trace-diff", "--detector-a", "original"),
    ("trace-diff", "--detector-b", "hwlc-dr"),
    ("trace-diff", "--jobs", "2"),
    ("trace-diff", "--json", ""),
    ("serve", "--listen", "127.0.0.1:0"),
    ("serve", "--spool", "spool"),
    ("serve", "--detector", "hybrid"),
    ("serve", "--hb-reference", ""),
    ("serve", "--fold", ""),
    ("serve", "--jobs", "4"),
    ("client", "--connect", "127.0.0.1:1"),
    ("client", "--build", "7"),
    ("client", "--a", "1"),
    ("client", "--b", "2"),
    ("client", "--off", ""),
    ("chaos", "--no-filter", ""),
    ("chaos", "--hb-reference", ""),
    ("chaos", "--vm-reference", ""),
    ("chaos", "--jobs", "8"),
    ("chaos", "--runs", "10"),
    ("chaos", "--seed", "0xC0FFEE"),
    ("chaos", "--cases", "T1,T3"),
    ("chaos", "--detector", "djit"),
    ("chaos", "--max-slots", "5000"),
    ("chaos", "--json", ""),
    ("soak", "--dialogs", "20000"),
    ("soak", "--phases", "6"),
    ("soak", "--seed", "0x50AC"),
    ("soak", "--workers", "3"),
    ("soak", "--resize", "1"),
    ("soak", "--hops", "2"),
    ("soak", "--churn", "100"),
    ("soak", "--options", "100"),
    ("soak", "--reinvites", "2"),
    ("soak", "--kill", "30"),
    ("soak", "--max-kills", "3"),
    ("soak", "--no-reclaim", ""),
    ("soak", "--detector", "hwlc-dr"),
    ("soak", "--budget", "slots=1000"),
    ("soak", "--jobs", "2"),
    ("soak", "--checkpoint", "v.log"),
    ("soak", "--max-slots", "1000"),
    ("soak", "--no-filter", ""),
    ("soak", "--mem-report", ""),
    ("soak", "--hb-reference", ""),
    ("soak", "--vm-reference", ""),
    ("bench-snapshot", "--out", "b.json"),
    ("bench-snapshot", "--samples", "1"),
    ("bench-snapshot", "--quick", ""),
    ("bench-snapshot", "--trace", ""),
    ("bench-snapshot", "--soak", ""),
    ("bench-snapshot", "--serve", ""),
];

fn args(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

fn accepted_pairs() -> BTreeSet<(&'static str, &'static str)> {
    ACCEPTED.iter().flat_map(|&(cmds, flag, _)| cmds.split(' ').map(move |c| (c, flag))).collect()
}

#[test]
fn every_accepted_pair_still_parses() {
    for &(cmds, flag, value) in ACCEPTED {
        for cmd in cmds.split(' ') {
            let mut words = vec![flag];
            if !value.is_empty() {
                words.push(value);
            }
            if let Err(e) = cmd::parse(cmd, &args(&words)) {
                panic!("{cmd} {words:?} must parse: {e:?}");
            }
        }
    }
}

#[test]
fn the_table_adds_no_pair() {
    let table: BTreeSet<(&str, &str)> = FLAGS
        .iter()
        .flat_map(|f| COMMANDS.iter().filter(|(c, _)| f.accepts(c)).map(move |(c, _)| (*c, f.name)))
        .collect();
    assert_eq!(table, accepted_pairs());
}

#[test]
fn every_other_pair_is_a_usage_error() {
    let accepted = accepted_pairs();
    for (cmd, _) in COMMANDS {
        for f in FLAGS.iter().filter(|f| !accepted.contains(&(cmd, f.name))) {
            match cmd::parse(cmd, &args(&[f.name, "1"])) {
                Err(CmdError::Usage(_)) => {}
                other => panic!("{cmd} {} must be rejected: {other:?}", f.name),
            }
        }
    }
    for words in [
        &["analyze", "--faults", "seed=1", "t.rltrace"][..],
        &["serve", "--stats", "--fold"],
        &["chaos", "--budget", "reports=4"],
        &["lint", "--from-epoch", "1", "a.mcpp"],
        &["chaos", "stray-operand"],
        &["frobnicate"],
        &[],
    ] {
        assert_eq!(cmd::main(args(words)), 2, "{words:?}");
    }
}

#[test]
fn values_parse_to_the_same_numbers() {
    let o = cmd::parse("soak", &args(&["--dialogs", "20000", "--seed", "0x50AC", "--hops", "9"]))
        .expect("valid soak flags");
    assert_eq!((o.soak.dialogs, o.seed, o.soak.hops), (20000, 0x50AC, 4));
    let o = cmd::parse("check", &args(&["--jobs", "8", "--explore", "16", "a.mcpp"]))
        .expect("valid check flags");
    assert_eq!((o.jobs, o.explore), (8, Some(16)));
    assert_eq!(o.operands, vec![("a.mcpp".to_string(), false)]);
    assert!(matches!(cmd::parse("check", &args(&["--jobs", "8x"])), Err(CmdError::Failed(_))));
    // `--quick` and `--samples` apply in command-line order.
    let o = cmd::parse("bench-snapshot", &args(&["--samples", "9", "--quick"])).expect("valid");
    assert_eq!(o.samples, 3);
}

#[test]
fn every_row_appears_in_the_usage_text() {
    let usage = cmd::usage();
    for f in FLAGS {
        assert!(usage.contains(f.name), "{} missing from usage", f.name);
        assert!(usage.contains(f.help), "help of {} missing from usage", f.name);
    }
    for (c, _) in COMMANDS {
        assert!(usage.contains(&format!("raceline {c}")), "{c} missing from usage");
    }
}
