//! Codec round-trip property tests: any sequence of payload records must
//! survive encode → decode bit-exactly, including across epoch boundaries
//! (where both sides reset their delta baselines).

use proptest::prelude::*;

use raceline_trace::format::{decode_record, encode_record, CodecState, Cursor, TraceRecord};
use vexec::event::{AccessKind, AcqMode, ClientEv, Event, SyncId, ThreadId};
use vexec::ir::{SrcLoc, SyncKind};
use vexec::util::Symbol;

const NSYMS: u32 = 16;

fn arb_loc() -> impl Strategy<Value = SrcLoc> {
    (0u32..NSYMS, 0u32..100_000, 0u32..NSYMS).prop_map(|(file, line, func)| SrcLoc {
        file: Symbol(file),
        line,
        func: Symbol(func),
    })
}

fn arb_sync_kind() -> impl Strategy<Value = SyncKind> {
    prop_oneof![
        Just(SyncKind::Mutex),
        Just(SyncKind::RwLock),
        Just(SyncKind::CondVar),
        Just(SyncKind::Semaphore),
        Just(SyncKind::Queue),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    let tid = || (0u32..8).prop_map(ThreadId);
    let sync = || (0u32..16).prop_map(SyncId);
    // Addresses span the full u64 range on purpose: the codec stores
    // signed deltas, so wrap-around and sign flips are the interesting
    // cases.
    let addr = || prop_oneof![0u64..4096, proptest::prelude::any::<u64>()];
    prop_oneof![
        (tid(), addr(), 1u8..=16, arb_loc()).prop_map(|(tid, addr, size, loc)| Event::Access {
            tid,
            addr,
            size,
            kind: AccessKind::Read,
            loc
        }),
        (tid(), addr(), 1u8..=16, arb_loc()).prop_map(|(tid, addr, size, loc)| Event::Access {
            tid,
            addr,
            size,
            kind: AccessKind::Write,
            loc
        }),
        (tid(), addr(), 1u8..=16, arb_loc()).prop_map(|(tid, addr, size, loc)| Event::Access {
            tid,
            addr,
            size,
            kind: AccessKind::AtomicRmw,
            loc
        }),
        (tid(), sync(), arb_sync_kind(), proptest::prelude::any::<bool>(), arb_loc()).prop_map(
            |(tid, sync, kind, shared, loc)| Event::Acquire {
                tid,
                sync,
                kind,
                mode: if shared { AcqMode::Shared } else { AcqMode::Exclusive },
                loc
            }
        ),
        (tid(), sync(), arb_sync_kind(), arb_loc())
            .prop_map(|(tid, sync, kind, loc)| Event::Release { tid, sync, kind, loc }),
        (tid(), tid(), arb_loc()).prop_map(|(parent, child, loc)| Event::ThreadCreate {
            parent,
            child,
            loc
        }),
        (tid(), tid(), arb_loc()).prop_map(|(joiner, joined, loc)| Event::ThreadJoin {
            joiner,
            joined,
            loc
        }),
        tid().prop_map(|tid| Event::ThreadExit { tid }),
        (tid(), addr(), 1u64..4096, arb_loc()).prop_map(|(tid, addr, size, loc)| Event::Alloc {
            tid,
            addr,
            size,
            loc
        }),
        (tid(), addr(), 1u64..4096, arb_loc()).prop_map(|(tid, addr, size, loc)| Event::Free {
            tid,
            addr,
            size,
            loc
        }),
        (tid(), sync(), proptest::prelude::any::<bool>(), arb_loc()).prop_map(
            |(tid, sync, broadcast, loc)| Event::CondSignal { tid, sync, broadcast, loc }
        ),
        (tid(), sync(), tid(), arb_loc()).prop_map(|(tid, sync, signaler, loc)| Event::CondWake {
            tid,
            sync,
            signaler,
            loc
        }),
        (tid(), sync(), arb_loc()).prop_map(|(tid, sync, loc)| Event::SemPost { tid, sync, loc }),
        (tid(), sync(), arb_loc()).prop_map(|(tid, sync, loc)| Event::SemAcquired {
            tid,
            sync,
            loc
        }),
        (tid(), sync(), proptest::prelude::any::<u64>(), arb_loc())
            .prop_map(|(tid, sync, token, loc)| Event::QueuePut { tid, sync, token, loc }),
        (tid(), sync(), proptest::prelude::any::<u64>(), arb_loc())
            .prop_map(|(tid, sync, token, loc)| Event::QueueGot { tid, sync, token, loc }),
        (tid(), addr(), 0u64..65536, arb_loc()).prop_map(|(tid, addr, size, loc)| Event::Client {
            tid,
            req: ClientEv::HgDestruct { addr, size },
            loc
        }),
        (tid(), addr(), 0u64..65536, arb_loc()).prop_map(|(tid, addr, size, loc)| Event::Client {
            tid,
            req: ClientEv::HgCleanMemory { addr, size },
            loc
        }),
        (tid(), 0u32..NSYMS, arb_loc()).prop_map(|(tid, label, loc)| Event::Client {
            tid,
            req: ClientEv::Label(Symbol(label)),
            loc
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    prop_oneof![
        arb_event().prop_map(TraceRecord::Event),
        arb_event().prop_map(TraceRecord::Event),
        arb_event().prop_map(TraceRecord::Event),
        ((0u32..8).prop_map(ThreadId), 0u32..NSYMS, arb_loc())
            .prop_map(|(tid, func, loc)| TraceRecord::StackPush { tid, func: Symbol(func), loc }),
        ((0u32..8).prop_map(ThreadId), 0u32..6)
            .prop_map(|(tid, n)| TraceRecord::StackPop { tid, n }),
    ]
}

fn encode_records(records: &[TraceRecord], state: &mut CodecState) -> Vec<u8> {
    let mut out = Vec::new();
    for rec in records {
        encode_record(&mut out, state, rec);
    }
    out
}

fn decode_records(bytes: &[u8]) -> Vec<TraceRecord> {
    let mut c = Cursor::new(bytes, 0);
    let mut state = CodecState::default();
    let mut out = Vec::new();
    while !c.is_empty() {
        out.push(decode_record(&mut c, &mut state, NSYMS).expect("self-encoded record"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity on any record sequence.
    #[test]
    fn codec_round_trips(records in proptest::collection::vec(arb_record(), 0..200)) {
        let mut state = CodecState::default();
        let bytes = encode_records(&records, &mut state);
        prop_assert_eq!(decode_records(&bytes), records);
    }

    /// Splitting a stream at an arbitrary epoch boundary — both sides
    /// reset their delta baselines — decodes each half independently to
    /// the same records. This is the property sharded analysis relies on.
    #[test]
    fn epoch_split_round_trips(
        head in proptest::collection::vec(arb_record(), 0..100),
        tail in proptest::collection::vec(arb_record(), 0..100),
    ) {
        let mut state = CodecState::default();
        let head_bytes = encode_records(&head, &mut state);
        state.reset();
        let tail_bytes = encode_records(&tail, &mut state);
        prop_assert_eq!(decode_records(&head_bytes), head);
        prop_assert_eq!(decode_records(&tail_bytes), tail);
    }
}

/// Delta extremes that a uniform sampler is unlikely to hit: maximal
/// positive/negative address swings between consecutive accesses of one
/// thread, interleaved with a second thread to exercise per-thread state.
#[test]
fn codec_handles_extreme_deltas() {
    let loc = SrcLoc { file: Symbol(1), line: u32::MAX, func: Symbol(2) };
    let access = |tid: u32, addr: u64| Event::Access {
        tid: ThreadId(tid),
        addr,
        size: 8,
        kind: AccessKind::Write,
        loc,
    };
    let records: Vec<TraceRecord> = [
        access(0, 0),
        access(1, u64::MAX),
        access(0, u64::MAX),
        access(1, 0),
        access(0, 1),
        access(0, u64::MAX / 2 + 1),
        access(1, u64::MAX / 2),
    ]
    .into_iter()
    .map(TraceRecord::Event)
    .collect();
    let mut state = CodecState::default();
    let bytes = encode_records(&records, &mut state);
    assert_eq!(decode_records(&bytes), records);
}
