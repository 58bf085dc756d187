//! Round-trip property tests for the wire codec: `decode(encode(x)) == x`
//! for **every** `MuninMsg`, `IvyMsg` and `TardisMsg` variant, for the data
//! stream's `Op`/`Resume` frames, for the control-plane vocabulary, and for
//! boundary-shaped diffs; a multi-frame buffer fed to the buffered reader
//! at every cut point yields the same frames. Corrupt and truncated inputs
//! must fail as `WireError`s, never panic.

use munin_core::{MuninMsg, UpdateItem};
use munin_ivy::IvyMsg;
use munin_mem::{Diff, PageId};
use munin_proto::wire::{ProtoTag, Wire};
use munin_sim::{DsmOp, OpResult};
use munin_tardis::TardisMsg;
use munin_tcp::frames::{
    append_frame, put_msg, CtrlFrame, DataFrame, FrameReader, RegReply, RegRequest, StartConfig,
    TestFault,
};
use munin_types::{
    BarrierId, ByteRange, CondId, DsmError, IvyConfig, LockId, MuninConfig, NodeId, ObjectDecl,
    ObjectId, SharingType, SyncDecls, TardisConfig, ThreadId,
};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const MUNIN_VARIANTS: usize = 32;
const IVY_VARIANTS: usize = 15;
const TARDIS_VARIANTS: usize = 13;
const DSMOP_VARIANTS: usize = 13;

fn arb_bytes(rng: &mut SmallRng, max: usize) -> Vec<u8> {
    let n = rng.gen_range(0..=max);
    (0..n).map(|_| rng.gen_range(0..=255u64) as u8).collect()
}

fn arb_diff(rng: &mut SmallRng) -> Diff {
    let mut d = Diff::default();
    let mut start = rng.gen_range(0u64..1024) as u32;
    for _ in 0..rng.gen_range(0u64..5) {
        let len = rng.gen_range(1u64..64) as u32;
        let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        assert!(d.append_run(start, &bytes));
        // Leave a gap so runs stay non-adjacent (the canonical layout).
        start += len + rng.gen_range(1u64..32) as u32;
    }
    d
}

fn arb_items(rng: &mut SmallRng) -> Vec<UpdateItem> {
    (0..rng.gen_range(0u64..4))
        .map(|i| UpdateItem { obj: ObjectId(i), diff: Arc::new(arb_diff(rng)) })
        .collect()
}

fn arb_obj(rng: &mut SmallRng) -> ObjectId {
    ObjectId(rng.gen_range(0u64..u64::MAX))
}

fn arb_page(rng: &mut SmallRng) -> Option<u32> {
    rng.gen_bool(0.5).then(|| rng.gen_range(0u64..4096) as u32)
}

fn arb_munin(rng: &mut SmallRng, variant: usize) -> MuninMsg {
    let obj = arb_obj(rng);
    match variant % MUNIN_VARIANTS {
        0 => MuninMsg::ReadReq { obj, page: arb_page(rng) },
        1 => MuninMsg::ReadReply {
            obj,
            page: arb_page(rng),
            data: arb_bytes(rng, 512),
            install: rng.gen_bool(0.5),
            confirm: rng.gen_bool(0.5),
        },
        2 => MuninMsg::ReadConfirm { obj },
        3 => MuninMsg::FwdRead { obj, requester: NodeId(rng.gen_range(0u64..16) as u16) },
        4 => MuninMsg::WriteReq { obj },
        5 => MuninMsg::OwnerYield { obj },
        6 => MuninMsg::OwnerData { obj, data: arb_bytes(rng, 512) },
        7 => MuninMsg::OwnerGrant { obj, data: rng.gen_bool(0.5).then(|| arb_bytes(rng, 512)) },
        8 => MuninMsg::Inval { obj, session: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1000)) },
        9 => MuninMsg::InvalAck { obj, session: rng.gen_range(0u64..1000) },
        10 => MuninMsg::MigrateReq { obj },
        11 => MuninMsg::MigrateYield { obj, requester: NodeId(rng.gen_range(0u64..16) as u16) },
        12 => MuninMsg::MigrateData { obj, data: arb_bytes(rng, 512) },
        13 => MuninMsg::MigrateNotify { obj },
        14 => MuninMsg::FlushIn { session: rng.gen_range(0u64..1000), items: arb_items(rng) },
        15 => MuninMsg::FlushOut { session: rng.gen_range(0u64..1000), items: arb_items(rng) },
        16 => MuninMsg::FlushInval {
            session: rng.gen_range(0u64..1000),
            objs: (0..rng.gen_range(0u64..5)).map(ObjectId).collect(),
        },
        17 => MuninMsg::FlushOutAck {
            session: rng.gen_range(0u64..1000),
            used: (0..rng.gen_range(0u64..5)).map(|i| (ObjectId(i), i % 2 == 0)).collect(),
        },
        18 => MuninMsg::FlushDone { session: rng.gen_range(0u64..1000) },
        19 => MuninMsg::Eager { items: arb_items(rng) },
        20 => MuninMsg::EagerOut { items: arb_items(rng) },
        21 => MuninMsg::AtomicReq {
            obj,
            offset: rng.gen_range(0u64..4096) as u32,
            delta: rng.gen_range(-1000i64..1000),
            thread: ThreadId(rng.gen_range(0u64..64) as u32),
        },
        22 => MuninMsg::AtomicReply {
            thread: ThreadId(rng.gen_range(0u64..64) as u32),
            old: rng.gen_range(-1000i64..1000),
        },
        23 => MuninMsg::LockReq { lock: LockId(rng.gen_range(0u64..32) as u32) },
        24 => MuninMsg::LockFetch {
            lock: LockId(rng.gen_range(0u64..32) as u32),
            to: NodeId(rng.gen_range(0u64..16) as u16),
        },
        25 => MuninMsg::LockPass {
            lock: LockId(rng.gen_range(0u64..32) as u32),
            piggyback: (0..rng.gen_range(0u64..3))
                .map(|i| (ObjectId(i), arb_bytes(rng, 128)))
                .collect(),
        },
        26 => MuninMsg::LockNotify { lock: LockId(rng.gen_range(0u64..32) as u32) },
        27 => MuninMsg::BarrierArrive {
            barrier: BarrierId(rng.gen_range(0u64..8) as u32),
            threads: rng.gen_range(1u64..16) as u32,
        },
        28 => MuninMsg::BarrierRelease { barrier: BarrierId(rng.gen_range(0u64..8) as u32) },
        29 => MuninMsg::CvWait {
            cond: CondId(rng.gen_range(0u64..8) as u32),
            thread: ThreadId(rng.gen_range(0u64..64) as u32),
        },
        30 => MuninMsg::CvSignal {
            cond: CondId(rng.gen_range(0u64..8) as u32),
            broadcast: rng.gen_bool(0.5),
        },
        _ => MuninMsg::CvWake {
            cond: CondId(rng.gen_range(0u64..8) as u32),
            thread: ThreadId(rng.gen_range(0u64..64) as u32),
        },
    }
}

fn arb_ivy(rng: &mut SmallRng, variant: usize) -> IvyMsg {
    let page = PageId(rng.gen_range(0u64..1 << 20));
    match variant % IVY_VARIANTS {
        0 => IvyMsg::RReq { page },
        1 => IvyMsg::FwdRead { page, requester: NodeId(rng.gen_range(0u64..16) as u16) },
        2 => IvyMsg::PData { page, data: arb_bytes(rng, 1024), confirm: rng.gen_bool(0.5) },
        3 => IvyMsg::RConfirm { page },
        4 => IvyMsg::WReq { page },
        5 => IvyMsg::Yield { page },
        6 => IvyMsg::YieldData { page, data: arb_bytes(rng, 1024) },
        7 => IvyMsg::Inval { page },
        8 => IvyMsg::InvalAck { page },
        9 => IvyMsg::Grant { page, data: rng.gen_bool(0.5).then(|| arb_bytes(rng, 1024)) },
        10 => IvyMsg::CLockReq {
            lock: LockId(rng.gen_range(0u64..32) as u32),
            thread: ThreadId(rng.gen_range(0u64..64) as u32),
        },
        11 => IvyMsg::CLockGrant { thread: ThreadId(rng.gen_range(0u64..64) as u32) },
        12 => IvyMsg::CUnlock { lock: LockId(rng.gen_range(0u64..32) as u32) },
        13 => IvyMsg::CBarrierArrive {
            barrier: BarrierId(rng.gen_range(0u64..8) as u32),
            threads: rng.gen_range(1u64..16) as u32,
        },
        _ => IvyMsg::CBarrierRelease { barrier: BarrierId(rng.gen_range(0u64..8) as u32) },
    }
}

fn arb_tardis(rng: &mut SmallRng, variant: usize) -> TardisMsg {
    let obj = arb_obj(rng);
    let thread = ThreadId(rng.gen_range(0u64..64) as u32);
    let pts = rng.gen_range(0u64..u64::MAX);
    match variant % TARDIS_VARIANTS {
        0 => TardisMsg::ReadReq { obj, thread, pts },
        1 => TardisMsg::ReadReply {
            thread,
            obj,
            data: arb_bytes(rng, 1024),
            wts: rng.gen_range(0u64..u64::MAX),
            rts: rng.gen_range(0u64..u64::MAX),
        },
        2 => TardisMsg::RenewReq { obj, thread, pts, have_wts: rng.gen_range(0u64..u64::MAX) },
        3 => TardisMsg::RenewAck {
            thread,
            obj,
            wts: rng.gen_range(0u64..u64::MAX),
            rts: rng.gen_range(0u64..u64::MAX),
        },
        4 => {
            let data = arb_bytes(rng, 1024);
            TardisMsg::WriteReq {
                obj,
                range: ByteRange::new(rng.gen_range(0u64..1024) as u32, data.len() as u32),
                data,
                thread,
                pts,
            }
        }
        5 => TardisMsg::WriteAck { thread, wts: rng.gen_range(0u64..u64::MAX) },
        6 => TardisMsg::AtomicReq {
            obj,
            offset: rng.gen_range(0u64..1024) as u32,
            delta: rng.gen_range(-100i64..100),
            thread,
            pts,
        },
        7 => TardisMsg::AtomicReply {
            thread,
            old: rng.gen_range(i64::MIN..i64::MAX),
            wts: rng.gen_range(0u64..u64::MAX),
        },
        8 => TardisMsg::LockReq { lock: LockId(rng.gen_range(0u64..32) as u32), thread, pts },
        9 => TardisMsg::LockGrant { thread, ts: rng.gen_range(0u64..u64::MAX) },
        10 => TardisMsg::Unlock { lock: LockId(rng.gen_range(0u64..32) as u32), pts },
        11 => TardisMsg::BarrierArrive {
            barrier: BarrierId(rng.gen_range(0u64..8) as u32),
            threads: rng.gen_range(1u64..16) as u32,
            pts,
        },
        _ => TardisMsg::BarrierRelease { barrier: BarrierId(rng.gen_range(0u64..8) as u32), pts },
    }
}

fn arb_decl(rng: &mut SmallRng) -> ObjectDecl {
    let sharing = SharingType::ALL[rng.gen_range(0u64..SharingType::ALL.len() as u64) as usize];
    let mut d = ObjectDecl::new(
        arb_obj(rng),
        format!("obj-{}", rng.gen_range(0u64..100)),
        rng.gen_range(1u64..1 << 20) as u32,
        sharing,
        NodeId(rng.gen_range(0u64..16) as u16),
    );
    if rng.gen_bool(0.3) {
        d.associated_lock = Some(LockId(rng.gen_range(0u64..32) as u32));
    }
    d.eager = rng.gen_bool(0.3);
    d
}

fn arb_dsmop(rng: &mut SmallRng, variant: usize) -> DsmOp {
    let obj = arb_obj(rng);
    match variant % DSMOP_VARIANTS {
        0 => DsmOp::Alloc(arb_decl(rng)),
        1 => DsmOp::Read { obj, range: ByteRange::new(rng.gen_range(0u64..100) as u32, 8) },
        2 => {
            let data = arb_bytes(rng, 128);
            DsmOp::Write {
                obj,
                range: ByteRange::new(rng.gen_range(0u64..100) as u32, data.len() as u32),
                data,
            }
        }
        3 => DsmOp::AtomicFetchAdd {
            obj,
            offset: rng.gen_range(0u64..100) as u32,
            delta: rng.gen_range(-5i64..5),
        },
        4 => DsmOp::Lock(LockId(rng.gen_range(0u64..32) as u32)),
        5 => DsmOp::Unlock(LockId(rng.gen_range(0u64..32) as u32)),
        6 => DsmOp::BarrierWait(BarrierId(rng.gen_range(0u64..8) as u32)),
        7 => DsmOp::CondWait {
            cond: CondId(rng.gen_range(0u64..8) as u32),
            lock: LockId(rng.gen_range(0u64..32) as u32),
        },
        8 => DsmOp::CondSignal {
            cond: CondId(rng.gen_range(0u64..8) as u32),
            broadcast: rng.gen_bool(0.5),
        },
        9 => DsmOp::Flush,
        10 => DsmOp::Phase(rng.gen_range(0u64..10) as u32),
        11 => DsmOp::Compute(rng.gen_range(0u64..1000)),
        _ => DsmOp::Exit,
    }
}

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.encode();
    let back = T::decode(&bytes).expect("decode of a just-encoded value");
    assert_eq!(&back, v);
}

proptest! {
    /// Every `MuninMsg` variant survives frame encode → decode untouched
    /// (each case sweeps all 32 variants with fresh random fields).
    #[test]
    fn munin_msg_roundtrips(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for variant in 0..MUNIN_VARIANTS {
            let msg = arb_munin(&mut rng, variant);
            roundtrip(&msg);
            roundtrip(&DataFrame::Msg(msg));
        }
    }

    /// Every `IvyMsg` variant likewise.
    #[test]
    fn ivy_msg_roundtrips(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for variant in 0..IVY_VARIANTS {
            let msg = arb_ivy(&mut rng, variant);
            roundtrip(&msg);
            roundtrip(&DataFrame::Msg(msg));
        }
    }

    /// Every `TardisMsg` variant likewise — timestamps sweep the full u64
    /// range so lease arithmetic at the edges still has a faithful wire
    /// form.
    #[test]
    fn tardis_msg_roundtrips(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for variant in 0..TARDIS_VARIANTS {
            let msg = arb_tardis(&mut rng, variant);
            roundtrip(&msg);
            roundtrip(&DataFrame::Msg(msg));
        }
    }

    /// A buffer of several data frames (protocol messages, a forwarded
    /// op, a resume) fed to the buffered reader in two reads, split at
    /// **every** byte, yields exactly those frames in order — whichever
    /// frame, prefix or body the cut falls into.
    #[test]
    fn buffered_reader_yields_the_same_frames_at_every_cut(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut frames: Vec<DataFrame<MuninMsg>> = (0..rng.gen_range(1u64..5))
            .map(|_| {
                let variant = rng.gen_range(0u64..999) as usize;
                DataFrame::Msg(arb_munin(&mut rng, variant))
            })
            .collect();
        frames.push(DataFrame::Op {
            thread: ThreadId(3),
            op: arb_dsmop(&mut rng, 2),
            fwd_us: 1_754_000_000_017,
        });
        frames.push(DataFrame::Resume {
            thread: ThreadId(3),
            result: OpResult::Bytes(arb_bytes(&mut rng, 64)),
            span: None,
        });
        let mut bytes = Vec::new();
        for f in &frames {
            append_frame(&mut bytes, |out| f.put(out)).expect("frame under the cap");
        }
        for cut in 0..=bytes.len() {
            let mut reader = FrameReader::default();
            let mut got = Vec::new();
            for mut part in [&bytes[..cut], &bytes[cut..]] {
                while !part.is_empty() {
                    reader.fill(&mut part).expect("reading from a slice");
                    while let Some(f) = reader.next_frame::<DataFrame<MuninMsg>>().expect("decodes") {
                        got.push(f);
                    }
                }
            }
            prop_assert_eq!(&got, &frames, "cut at {}", cut);
        }
    }

    /// Application operations and results, bare and inside the data
    /// stream's `Op` / `Resume` frames.
    #[test]
    fn ops_and_results_roundtrip(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for variant in 0..DSMOP_VARIANTS {
            let op = arb_dsmop(&mut rng, variant);
            roundtrip(&op);
            roundtrip(&DataFrame::<MuninMsg>::Op {
                thread: ThreadId(variant as u32),
                op,
                fwd_us: rng.gen_range(0u64..u64::MAX),
            });
        }
        roundtrip(&DataFrame::<IvyMsg>::Resume {
            thread: ThreadId(5),
            result: OpResult::Bytes(arb_bytes(&mut rng, 256)),
            span: Some(munin_obs::SrvSpan {
                seq: 42,
                fwd_us: 1_754_000_000_017,
                dispatch_us: 1_754_000_000_103,
                reply_us: 1_754_000_000_251,
            }),
        });
        roundtrip(&DataFrame::<TardisMsg>::Resume {
            thread: ThreadId(6),
            result: OpResult::Unit,
            span: None,
        });
        roundtrip(&OpResult::Unit);
        roundtrip(&OpResult::Bytes(arb_bytes(&mut rng, 256)));
        roundtrip(&OpResult::Value(rng.gen_range(i64::MIN..i64::MAX)));
        roundtrip(&OpResult::Object(arb_obj(&mut rng)));
        roundtrip(&OpResult::Err(DsmError::OutOfBounds {
            obj: arb_obj(&mut rng),
            range: ByteRange::new(4, 16),
            size: 8,
        }));
        roundtrip(&OpResult::Err(DsmError::SharingViolation {
            obj: arb_obj(&mut rng),
            sharing: SharingType::WriteOnce,
            detail: "already published",
        }));
        roundtrip(&OpResult::Err(DsmError::Internal("x".into())));
    }

    /// Diffs of arbitrary write patterns round-trip exactly (run table,
    /// payload bytes, and wire-size accounting all preserved).
    #[test]
    fn diffs_roundtrip(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let size = rng.gen_range(16u64..512) as usize;
        let old: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let mut new = old.clone();
        for _ in 0..rng.gen_range(0u64..10) {
            let at = rng.gen_range(0u64..size as u64) as usize;
            new[at] = new[at].wrapping_add(rng.gen_range(1u64..255) as u8);
        }
        let d = Diff::between(&old, &new);
        let back = Diff::decode(&d.encode()).expect("diff decode");
        assert_eq!(back, d);
        assert_eq!(back.wire_bytes(), d.wire_bytes());
    }
}

/// The largest legal diff shapes: a run ending exactly at the u32 boundary,
/// and a megabyte-sized single-run payload (a whole-object overwrite).
#[test]
fn max_size_diffs_roundtrip() {
    let mut d = Diff::default();
    let tail = vec![0xabu8; 100];
    assert!(d.append_run(u32::MAX - 100, &tail), "run ending at u32::MAX is legal");
    roundtrip(&d);

    let big = Diff::overwrite(ByteRange::new(0, 1 << 20), vec![0x5au8; 1 << 20]);
    let bytes = big.encode();
    assert!(bytes.len() >= 1 << 20);
    assert_eq!(Diff::decode(&bytes).expect("big diff decode"), big);

    // One byte past the boundary is rejected, not wrapped.
    let mut over = Diff::default();
    assert!(!over.append_run(u32::MAX - 99, &tail), "run crossing u32::MAX must be rejected");
}

/// A diff whose second run starts exactly where the first ends is not
/// canonical: every encoder coalesces such runs. Decoding it fails instead
/// of silently merging the two into a one-run diff the frame never carried.
#[test]
fn touching_diff_runs_fail_closed() {
    // Two 4-byte runs at offsets 0 and `second`, in the `Diff` wire layout:
    // run count, then (start, length, payload) per run.
    let frame = |second: u32| {
        let mut out = Vec::new();
        for word in [2, 0, 4] {
            out.extend_from_slice(&u32::to_le_bytes(word));
        }
        out.extend_from_slice(&[1; 4]);
        for word in [second, 4] {
            out.extend_from_slice(&u32::to_le_bytes(word));
        }
        out.extend_from_slice(&[2; 4]);
        out
    };
    let gapped = Diff::decode(&frame(5)).expect("runs with a gap decode");
    assert_eq!(gapped.ranges(), vec![ByteRange::new(0, 4), ByteRange::new(5, 4)]);
    assert_eq!(gapped.encode(), frame(5), "decode -> encode is the identity");

    let err = Diff::decode(&frame(4)).expect_err("touching runs must not decode");
    assert!(err.0.contains("run-table order"), "{err}");
}

/// Control-plane vocabulary round-trips, including a fully-populated
/// `StartConfig` for each protocol. The start frame carries the protocol
/// config as an opaque byte blob behind a tag, so the fabric never learns
/// the config types — here we check the blob survives and decodes back to
/// the original config on the far side, exactly as `run_proto_node` does.
#[test]
fn control_frames_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(7);
    let decls: Vec<ObjectDecl> = (0..6).map(|_| arb_decl(&mut rng)).collect();
    let protos: [(u8, Vec<u8>); 3] = [
        (0, MuninConfig::default().encode()),
        (1, IvyConfig::default().encode()),
        (2, TardisConfig::default().encode()),
    ];
    let after = Duration::from_millis(250);
    let faults = [
        TestFault::Exit { node: NodeId(1), after },
        TestFault::HalfClose { node: NodeId(1), peer: NodeId(0), after },
        TestFault::StepPanic { node: NodeId(0), after },
    ];
    for (tag, proto_cfg) in protos {
        let start = StartConfig {
            node: NodeId(2),
            n_nodes: 4,
            proto_tag: ProtoTag(tag),
            proto_cfg,
            decls: decls.clone(),
            sync: SyncDecls::round_robin(3, 2, 4, 4),
            heartbeat: Duration::from_millis(25),
            peers: vec![(NodeId(0), 4000), (NodeId(1), 4001), (NodeId(2), 4002)],
            test_fault: Some(faults[tag as usize]),
            telemetry: munin_types::Telemetry::Spans,
            coverage: true,
            n_threads: 6,
        };
        roundtrip(&CtrlFrame::Start(Box::new(start)));
    }
    let frames = vec![
        CtrlFrame::Hello { node: NodeId(3), data_port: 40123 },
        CtrlFrame::Ready,
        CtrlFrame::Reg(RegRequest::Retype {
            obj: ObjectId(9),
            sharing: SharingType::ProducerConsumer,
        }),
        CtrlFrame::RegReply(RegReply::Decl { id: ObjectId(17), version: 3 }),
        CtrlFrame::RegUpdate { decl: arb_decl(&mut rng), version: 4, seq: 6 },
        CtrlFrame::RegUpdateAck { seq: 6 },
        CtrlFrame::Heartbeat { activity: 12345, timers_pending: 2 },
        CtrlFrame::DumpReq,
        CtrlFrame::DumpReply { text: "proxy l0: token=true".into() },
        CtrlFrame::ReportError { msg: "data stream from peer n2 failed".into() },
        CtrlFrame::Finish,
        CtrlFrame::Done {
            stats: sample_stats(),
            errors: vec!["e1".into()],
            homes: vec![(ThreadId(5), 1_754_000_000_200), (ThreadId(7), 1_754_000_000_300)],
            cover: vec![munin_obs::CovRow {
                proto: "tardis".into(),
                object: "write-many".into(),
                state: "lease".into(),
                event: "expired-renew".into(),
                count: 3,
            }],
        },
        CtrlFrame::Poison,
        CtrlFrame::Bye,
    ];
    for f in frames {
        roundtrip(&f);
    }
}

fn sample_stats() -> munin_net::NetStats {
    let mut s = munin_net::NetStats::new();
    s.record(munin_net::MsgClass::Data, "ReadReply", 4096);
    s.record(munin_net::MsgClass::Sync, "LockReq", 0);
    s.record_multicast(3, 3);
    s
}

/// Truncating a valid encoding at any byte boundary yields a decode error,
/// never a panic or a bogus success; flipped tag bytes are rejected too.
#[test]
fn corrupt_input_fails_closed() {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut encodings: Vec<Vec<u8>> = Vec::new();
    for variant in 0..MUNIN_VARIANTS {
        encodings.push(arb_munin(&mut rng, variant).encode());
    }
    encodings.push(
        CtrlFrame::Done {
            stats: sample_stats(),
            errors: vec!["x".into()],
            homes: vec![(ThreadId(1), 7)],
            cover: Vec::new(),
        }
        .encode(),
    );
    for bytes in &encodings {
        for cut in 0..bytes.len() {
            assert!(
                MuninMsg::decode(&bytes[..cut]).is_err()
                    || CtrlFrame::decode(&bytes[..cut]).is_err(),
                "truncation accepted at {cut}/{}",
                bytes.len()
            );
        }
    }
    assert!(MuninMsg::decode(&[0xff, 0, 0, 0]).is_err(), "bad tag must be rejected");
    // A count prefix larger than the remaining input must be rejected
    // before allocation.
    let mut evil = Vec::new();
    evil.push(19u8); // Eager tag
    evil.extend_from_slice(&u32::MAX.to_le_bytes()); // item count
    assert!(MuninMsg::decode(&evil).is_err());
}

/// The same fail-closed discipline for every `TardisMsg` variant:
/// truncation at any boundary errors, flipped tags error, and an oversized
/// data-length prefix is rejected before allocation.
#[test]
fn tardis_corrupt_input_fails_closed() {
    let mut rng = SmallRng::seed_from_u64(13);
    for variant in 0..TARDIS_VARIANTS {
        let bytes = arb_tardis(&mut rng, variant).encode();
        for cut in 0..bytes.len() {
            assert!(
                TardisMsg::decode(&bytes[..cut]).is_err(),
                "truncation accepted at {cut}/{} for variant {variant}",
                bytes.len()
            );
        }
    }
    assert!(TardisMsg::decode(&[0xff, 0, 0, 0]).is_err(), "bad tag must be rejected");
    // ReadReply with a data length far beyond the remaining input.
    let mut evil = Vec::new();
    evil.push(1u8); // ReadReply tag
    evil.extend_from_slice(&7u32.to_le_bytes()); // thread
    evil.extend_from_slice(&9u64.to_le_bytes()); // obj
    evil.extend_from_slice(&u32::MAX.to_le_bytes()); // data length
    assert!(TardisMsg::decode(&evil).is_err());
}

/// A `Msg` frame encoded from a borrowed payload the way the kernel does
/// it (`append_frame` + `put_msg`) parses back as the same message through
/// the reader's `DataFrame` path.
#[test]
fn single_msg_frame_encode_matches_dataframe() {
    let mut rng = SmallRng::seed_from_u64(3);
    let msg = arb_munin(&mut rng, 1);
    let mut framed = Vec::new();
    append_frame(&mut framed, |out| put_msg(&msg, out)).expect("message under the frame cap");
    let (len_bytes, body) = framed.split_at(4);
    assert_eq!(u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize, body.len());
    match DataFrame::<MuninMsg>::decode(body).expect("frame decodes") {
        DataFrame::Msg(m) => assert_eq!(m, msg),
        other => panic!("expected Msg frame, got {other:?}"),
    }
}
