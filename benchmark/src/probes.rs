//! Layer probes: public functions of single crates, timed from outside in
//! short batches. They ride along with every traced run (about a second in
//! all) and do not depend on the workload; each batch is a span with its
//! exact call and byte count beside it.
//!
//! * `proto` — `Wire::put` / `Wire::take` on `MuninMsg`: a small frame
//!   (`AtomicReq`) and a bulk one (`FlushIn` with one 512 KiB diff).
//! * `mem` — twin snapshot, diff extraction (full and sparse), diff apply.
//! * `tcp` — `frames::write_frame` / `read_frame` / `FrameWriter::send` on
//!   a loopback `TcpStream` pair.
//! * `obs` — `ObsCollector::record_op` in the default Counters mode.

use crate::harness::RunOut;
use crate::spans::{Recorder, Span, ROOT};
use crate::stats;
use munin_core::{MuninMsg, UpdateItem};
use munin_mem::{Diff, TwinStore};
use munin_obs::{ObsCollector, OpClass};
use munin_proto::Wire;
use munin_tcp::frames::{read_frame, write_frame, FrameWriter};
use munin_types::{ByteRange, ObjectId, Telemetry, ThreadId};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const SLICE: Duration = Duration::from_millis(60);
/// Batches of one probe that leave a span in the trace (all are measured).
const SPANS_PER_PROBE: usize = 200;
const BULK_BYTES: usize = 512 << 10;
const MIB: f64 = 1048576.0;

/// Run `batch` (which returns the instants around its timed part) for one
/// time slice; p50 over batches of nanoseconds per call.
fn timed(
    rec: &mut Recorder,
    name: &'static str,
    calls: u64,
    bytes_per_call: u64,
    mut batch: impl FnMut() -> (Instant, Instant),
) -> f64 {
    let began = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || began.elapsed() < SLICE {
        let (start, end) = batch();
        if per_call.len() < SPANS_PER_PROBE {
            let id = rec.enter();
            rec.push(id, ROOT, name, start, end, calls, calls * bytes_per_call);
            rec.leave();
        }
        per_call.push((end - start).as_nanos() as f64 / calls as f64);
    }
    stats::median(&per_call)
}

/// Time all of `f`, `calls` times over.
fn looped(calls: u64, mut f: impl FnMut()) -> impl FnMut() -> (Instant, Instant) {
    move || {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        (start, Instant::now())
    }
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / MIB / (ns / 1e9)
}

/// Pseudo-random bytes (so no two buffers share a word by accident).
fn noise(len: usize, mut x: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

fn proto(rec: &mut Recorder, out: &mut RunOut) {
    let small = MuninMsg::AtomicReq { obj: ObjectId(3), offset: 0, delta: 1, thread: ThreadId(1) };
    let bulk = MuninMsg::FlushIn {
        session: 7,
        items: vec![UpdateItem::new(
            ObjectId(5),
            Diff::overwrite(ByteRange::new(0, BULK_BYTES as u32), noise(BULK_BYTES, 1)),
        )],
    };
    let small_bytes = small.encode();
    let bulk_bytes = bulk.encode();
    out.check(
        MuninMsg::decode(&small_bytes).ok() == Some(small.clone())
            && MuninMsg::decode(&bulk_bytes).ok() == Some(bulk.clone()),
        || "proto: a message did not decode to itself".into(),
    );
    out.num("proto.encoded_bytes.small", small_bytes.len() as f64);
    out.num(
        "proto.encoded_bytes_per_payload_byte.bulk",
        bulk_bytes.len() as f64 / BULK_BYTES as f64,
    );

    let mut buf = Vec::with_capacity(bulk_bytes.len());
    let encode_small = timed(rec, "proto.encode.small", 2000, small_bytes.len() as u64, {
        looped(2000, || {
            buf.clear();
            black_box(&small).put(&mut buf);
            black_box(&buf);
        })
    });
    out.num("proto.encode_ns.small", encode_small);
    let decode_small = timed(rec, "proto.decode.small", 2000, small_bytes.len() as u64, {
        looped(2000, || {
            black_box(MuninMsg::take(&mut black_box(&small_bytes[..])).expect("decodes"));
        })
    });
    out.num("proto.decode_ns.small", decode_small);
    let encode_bulk = timed(rec, "proto.encode.bulk", 1, BULK_BYTES as u64, {
        looped(1, || {
            buf.clear();
            black_box(&bulk).put(&mut buf);
            black_box(&buf);
        })
    });
    out.num("proto.encode_mib_per_s.bulk", mib_per_s(BULK_BYTES, encode_bulk));
    let decode_bulk = timed(rec, "proto.decode.bulk", 1, BULK_BYTES as u64, {
        looped(1, || {
            black_box(MuninMsg::take(&mut black_box(&bulk_bytes[..])).expect("decodes"));
        })
    });
    out.num("proto.decode_mib_per_s.bulk", mib_per_s(BULK_BYTES, decode_bulk));
}

fn mem(rec: &mut Recorder, out: &mut RunOut) {
    let obj = ObjectId(1);
    let old = noise(BULK_BYTES, 2);
    let new: Vec<u8> = old.iter().map(|b| !b).collect();
    let whole = ByteRange::new(0, BULK_BYTES as u32);

    let note = timed(rec, "mem.twin_note_write", 1, BULK_BYTES as u64, || {
        let mut twins = TwinStore::new();
        let start = Instant::now();
        twins.note_write(obj, whole, black_box(&old));
        (start, Instant::now())
    });
    out.num("mem.twin_note_write_mib_per_s", mib_per_s(BULK_BYTES, note));

    let mut diff = None;
    let full = timed(rec, "mem.take_diff.full", 1, BULK_BYTES as u64, || {
        let mut twins = TwinStore::new();
        twins.note_write(obj, whole, &old);
        let start = Instant::now();
        diff = black_box(twins.take_diff(obj, black_box(&new)));
        (start, Instant::now())
    });
    out.num("mem.take_diff_mib_per_s.full", mib_per_s(BULK_BYTES, full));
    let diff = diff.unwrap_or_default();
    out.check(diff.data_bytes() == BULK_BYTES, || {
        format!("mem: the all-dirty diff carries {} of {BULK_BYTES} bytes", diff.data_bytes())
    });

    // 64 dirty bytes in the middle of a 1 MiB object.
    let big_old = noise(2 * BULK_BYTES, 3);
    let mut big_new = big_old.clone();
    let dirty = ByteRange::new(BULK_BYTES as u32, 64);
    for b in &mut big_new[dirty.start as usize..dirty.end() as usize] {
        *b = !*b;
    }
    let mut sparse_bytes = 0;
    let sparse = timed(rec, "mem.take_diff.sparse", 1, 64, || {
        let mut twins = TwinStore::new();
        twins.note_write(obj, dirty, &big_old);
        let start = Instant::now();
        let d = black_box(twins.take_diff(obj, black_box(&big_new)));
        let end = Instant::now();
        sparse_bytes = d.map_or(0, |d| d.data_bytes());
        (start, end)
    });
    out.num("mem.take_diff_us.sparse", sparse / 1e3);
    out.check(sparse_bytes == 64, || format!("mem: the sparse diff carries {sparse_bytes} bytes"));

    let mut target = old.clone();
    let apply = timed(rec, "mem.diff_apply", 1, BULK_BYTES as u64, {
        looped(1, || black_box(&diff).apply(black_box(&mut target)))
    });
    out.num("mem.diff_apply_mib_per_s", mib_per_s(BULK_BYTES, apply));
    out.check(target == new, || "mem: applying the diff did not give the new bytes".into());
}

fn obs(rec: &mut Recorder, out: &mut RunOut) {
    let collector = ObsCollector::new(Telemetry::default(), 2);
    let record = timed(rec, "obs.record_op", 10_000, 0, {
        let mut us = 0u64;
        looped(10_000, move || {
            us = (us + 7) % 500;
            black_box(&collector).record_op(ThreadId(1), OpClass::FetchAdd, false, black_box(us));
        })
    });
    out.num("obs.record_op_ns", record);
}

/// A connected loopback pair with the fabric's socket setting.
fn stream_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let a = TcpStream::connect(listener.local_addr()?)?;
    let (b, _) = listener.accept()?;
    a.set_nodelay(true)?;
    b.set_nodelay(true)?;
    Ok((a, b))
}

fn tcp(rec: &mut Recorder, out: &mut RunOut) -> std::io::Result<()> {
    let (mut near, mut far) = stream_pair()?;
    // The far end echoes small frames and swallows bulk ones, acknowledging
    // each with a one-byte frame, until the near end hangs up.
    let echo = std::thread::spawn(move || {
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        while let Ok(frame) = read_frame::<Vec<u8>>(&mut far, &mut buf) {
            let reply = if frame.len() > 64 { vec![1u8] } else { frame };
            if write_frame(&mut far, &mut scratch, &reply).is_err() {
                break;
            }
        }
    });
    let small = noise(32, 4);
    let bulk = noise(BULK_BYTES, 5);
    let (mut buf, mut scratch) = (Vec::new(), Vec::new());
    let mut failed: Option<std::io::Error> = None;
    let mut echoed = true;

    let rtt = timed(rec, "tcp.frame_rtt.small", 200, 32, || {
        let start = Instant::now();
        for _ in 0..200 {
            let sent = write_frame(&mut near, &mut scratch, &small);
            match sent.and_then(|()| read_frame::<Vec<u8>>(&mut near, &mut buf)) {
                Ok(back) => echoed &= back == small,
                Err(e) => failed = Some(e),
            }
        }
        (start, Instant::now())
    });
    out.num("tcp.frame_rtt_us.small", rtt / 1e3);

    let stream = timed(rec, "tcp.frame_stream", 4, BULK_BYTES as u64, || {
        let start = Instant::now();
        for _ in 0..4 {
            if let Err(e) = write_frame(&mut near, &mut scratch, &bulk) {
                failed = Some(e);
            }
        }
        for _ in 0..4 {
            if let Err(e) = read_frame::<Vec<u8>>(&mut near, &mut buf) {
                failed = Some(e);
            }
        }
        (start, Instant::now())
    });
    out.num("tcp.frame_stream_mib_per_s", mib_per_s(BULK_BYTES, stream));

    // Write cost alone: the echoes are collected outside the timed part.
    let mut writer = FrameWriter::new(near.try_clone()?);
    let write = timed(rec, "tcp.frame_write.small", 200, 32, || {
        let start = Instant::now();
        for _ in 0..200 {
            if let Err(e) = writer.send(&small) {
                failed = Some(e);
            }
        }
        let end = Instant::now();
        for _ in 0..200 {
            if let Err(e) = read_frame::<Vec<u8>>(&mut near, &mut buf) {
                failed = Some(e);
            }
        }
        (start, end)
    });
    out.num("tcp.frame_write_ns.small", write);

    drop(writer);
    near.shutdown(std::net::Shutdown::Both)?;
    echo.join().expect("echo thread panicked");
    out.check(failed.is_none() && echoed, || format!("tcp probe: {failed:?}, echoed {echoed}"));
    Ok(())
}

/// Run every probe; the metrics go into `out`, the batch spans come back.
pub fn run(out: &mut RunOut) -> Vec<Span> {
    let mut rec = Recorder::new(Instant::now(), 0, 0, 16 * SPANS_PER_PROBE);
    proto(&mut rec, out);
    mem(&mut rec, out);
    obs(&mut rec, out);
    if let Err(e) = tcp(&mut rec, out) {
        out.check(false, || format!("tcp probe: {e}"));
    }
    rec.spans
}
