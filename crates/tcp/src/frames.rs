//! Stream framing and the fabric's two frame vocabularies.
//!
//! Every TCP stream carries length-prefixed frames: a `u32` little-endian
//! body length followed by the [`Wire`]-encoded body. Streams come in two
//! kinds, announced by a single kind byte right after connect:
//!
//! * **data streams** (`b'D'`, one per node pair) carry [`DataFrame`]s:
//!   protocol payloads between any two nodes, and on the coordinator's
//!   stream to child `j` also the application ops of threads placed on `j`
//!   (`Op`, 0 → j) and their completions (`Resume`, j → 0). Everything on
//!   an operation's path rides here, written through a [`crate::link::Link`]
//!   and read through a [`FrameReader`]: a flush of several frames is one
//!   socket write and one socket read returns several frames, which is all
//!   the batching this fabric has.
//! * **control streams** (`b'C'`, one per child node, terminating at the
//!   coordinator) carry [`CtrlFrame`]s: the control plane only — handshake,
//!   registry request/reply/update traffic, watchdog heartbeats, state-dump
//!   requests, errors, and teardown. They use the plain one-frame-per-call
//!   [`write_frame`] / [`read_frame`], as the handshake does.
//!
//! Frame bodies are capped at [`MAX_FRAME_BYTES`]; a peer announcing a
//! larger frame is treated as corrupt and the stream is torn down. Both
//! readers follow one rule for memory: the announced length is checked
//! against the cap first, and a buffer grows with the bytes that have
//! arrived (at most doubling, see [`grow_received`]), never with the
//! announced length — a peer that announces 256 MiB and stalls costs what it
//! sent.

use munin_net::NetStats;
use munin_proto::wire::{put_u8, take_u8, ProtoTag, Wire, WireError, WireResult};
use munin_proto::{wire_enum, wire_struct};
use munin_sim::{DsmOp, OpResult};
use munin_types::{NodeId, ObjectDecl, ObjectId, SharingType, SyncDecls, ThreadId};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Stream-kind byte sent immediately after connect.
pub const STREAM_DATA: u8 = b'D';
/// Stream-kind byte for a child's control connection to the coordinator.
pub const STREAM_CTRL: u8 = b'C';

/// Upper bound on one frame body. Generous (the largest legitimate frames
/// are whole-object data replies plus batching overhead) while still
/// rejecting corrupt length prefixes before they become allocations.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// One frame on a per-pair data stream. The source node is implied by the
/// stream (one stream per node pair), and per-(src,dst) FIFO is the stream's
/// byte order. `Op` and `Resume` are fabric frames, not protocol messages:
/// `NetStats` never counts them.
#[derive(Debug, Clone, PartialEq)]
pub enum DataFrame<P> {
    /// First frame after the kind byte: identifies the dialing node.
    Hello { src: NodeId },
    /// One protocol message.
    Msg(P),
    /// Coordinator → child: an application thread placed on that child
    /// (and hosted by the coordinator) issued a DSM operation. `fwd_us` is
    /// the issuing thread's wall-clock stamp (µs since epoch) when the run
    /// records spans, `0` otherwise — the span's "hit the wire" mark.
    Op { thread: ThreadId, op: DsmOp, fwd_us: u64 },
    /// Child → coordinator: the operation completed; resume the thread.
    /// `span` carries the server half of the op's telemetry span (dispatch
    /// and reply stamps) when the run records spans.
    Resume { thread: ThreadId, result: OpResult, span: Option<munin_obs::SrvSpan> },
}

const DATA_TAG_HELLO: u8 = 0;
const DATA_TAG_MSG: u8 = 1;
const DATA_TAG_OP: u8 = 2;
const DATA_TAG_RESUME: u8 = 3;

/// Encode a `DataFrame::Msg` body from a borrowed payload (the kernel
/// encodes straight into a link's out-buffer, without building the enum).
pub fn put_msg<P: Wire>(payload: &P, out: &mut Vec<u8>) {
    put_u8(DATA_TAG_MSG, out);
    payload.put(out);
}

/// Encode a `DataFrame::Op` body from borrowed parts.
pub fn put_op(thread: ThreadId, op: &DsmOp, fwd_us: u64, out: &mut Vec<u8>) {
    put_u8(DATA_TAG_OP, out);
    thread.put(out);
    op.put(out);
    fwd_us.put(out);
}

/// Encode a `DataFrame::Resume` body from borrowed parts.
pub fn put_resume(
    thread: ThreadId,
    result: &OpResult,
    span: &Option<munin_obs::SrvSpan>,
    out: &mut Vec<u8>,
) {
    put_u8(DATA_TAG_RESUME, out);
    thread.put(out);
    result.put(out);
    span.put(out);
}

impl<P: Wire> Wire for DataFrame<P> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            DataFrame::Hello { src } => {
                put_u8(DATA_TAG_HELLO, out);
                src.put(out);
            }
            DataFrame::Msg(p) => put_msg(p, out),
            DataFrame::Op { thread, op, fwd_us } => put_op(*thread, op, *fwd_us, out),
            DataFrame::Resume { thread, result, span } => put_resume(*thread, result, span, out),
        }
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        match take_u8(inp)? {
            DATA_TAG_HELLO => Ok(DataFrame::Hello { src: Wire::take(inp)? }),
            DATA_TAG_MSG => Ok(DataFrame::Msg(Wire::take(inp)?)),
            DATA_TAG_OP => Ok(DataFrame::Op {
                thread: Wire::take(inp)?,
                op: Wire::take(inp)?,
                fwd_us: Wire::take(inp)?,
            }),
            DATA_TAG_RESUME => Ok(DataFrame::Resume {
                thread: Wire::take(inp)?,
                result: Wire::take(inp)?,
                span: Wire::take(inp)?,
            }),
            t => Err(WireError(format!("bad DataFrame tag {t}"))),
        }
    }
}

/// Deterministic fault injection for the fault-path tests: children know
/// their own misbehaviour from the start config, so tests need no
/// process-global environment variables (which racing test threads could
/// not set safely).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TestFault {
    /// `node` exits abruptly (no teardown protocol) after `after`.
    Exit { node: NodeId, after: Duration },
    /// `node` half-closes its data stream to `peer` after `after`.
    HalfClose { node: NodeId, peer: NodeId, after: Duration },
    /// The first protocol step `node` (the coordinator's node 0 included)
    /// runs once `after` has passed panics while it holds the node's lock.
    StepPanic { node: NodeId, after: Duration },
}

wire_enum!(TestFault {
    0 => Exit { node, after },
    1 => HalfClose { node, peer, after },
    2 => StepPanic { node, after },
});

/// Everything a child process needs to become node `node` of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct StartConfig {
    pub node: NodeId,
    pub n_nodes: u16,
    /// [`munin_proto::Protocol::TAG`] of the run's protocol. The child
    /// looks the tag up in its protocol registry (see
    /// [`crate::node::run_node`]) — the fabric itself never names a
    /// protocol type.
    pub proto_tag: ProtoTag,
    /// The protocol's `Wire`-encoded config, decoded by the registry
    /// entry that matched `proto_tag`. Opaque to the fabric.
    pub proto_cfg: Vec<u8>,
    /// Build-time object declarations (the initial registry snapshot).
    pub decls: Vec<ObjectDecl>,
    pub sync: SyncDecls,
    /// Watchdog heartbeat period.
    pub heartbeat: Duration,
    /// Loopback data-listener ports of every node, indexed by `NodeId`
    /// order (`peers[i]` belongs to node `i`; entry 0 is the coordinator).
    pub peers: Vec<(NodeId, u16)>,
    pub test_fault: Option<TestFault>,
    /// Telemetry mode of the run (`RtTuning::telemetry`); children size
    /// their observability collectors from this.
    pub telemetry: munin_types::Telemetry,
    /// Application threads of the run (all coordinator-hosted). Children
    /// need the count to preallocate per-thread server-span slots.
    pub n_threads: usize,
    /// Record protocol-state transition coverage (campaign explore mode):
    /// the child keeps a local `CoverageMap` and ships its rows home in
    /// the `Done` frame.
    pub coverage: bool,
}

wire_struct!(StartConfig {
    node,
    n_nodes,
    proto_tag,
    proto_cfg,
    decls,
    sync,
    heartbeat,
    peers,
    test_fault,
    telemetry,
    n_threads,
    coverage,
});

/// A registry write, sent by any node's kernel to the coordinator-hosted
/// registry service (reads are answered from the local versioned snapshot).
#[derive(Debug, Clone, PartialEq)]
pub enum RegRequest {
    /// Allocate an id for `decl` and publish it (the `KernelApi::
    /// register_decl` path).
    Decl { decl: ObjectDecl, home: NodeId },
    /// Change an object's sharing annotation (`KernelApi::retype`).
    Retype { obj: ObjectId, sharing: SharingType },
}

wire_enum!(RegRequest {
    0 => Decl { decl, home },
    1 => Retype { obj, sharing },
});

/// The registry service's reply, sent only after the write has been applied
/// to **every** node's snapshot (ack-barrier): any protocol message the
/// writer sends afterwards is causally ordered after every peer learned the
/// update, even though registry and protocol traffic ride different
/// streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegReply {
    Decl { id: ObjectId, version: u64 },
    Retype { version: u64 },
}

wire_enum!(RegReply {
    0 => Decl { id, version },
    1 => Retype { version },
});

/// One frame on a child's control stream: control plane only. Neither
/// end's reader of this stream ever waits on a node's lock (the dump path's
/// bounded `try_lock` is its only touch), so a protocol step that blocks in
/// a registry write while holding its node's lock still gets its `RegReply`,
/// and every node still acks `RegUpdate`.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlFrame {
    /// Child → coordinator, first frame: who am I, where do I accept data
    /// streams.
    Hello { node: NodeId, data_port: u16 },
    /// Coordinator → child: the run configuration.
    Start(Box<StartConfig>),
    /// Child → coordinator: mesh established, node serving.
    Ready,
    /// Child → coordinator: registry write.
    Reg(RegRequest),
    /// Coordinator → child: registry write reply (ack-barrier done).
    RegReply(RegReply),
    /// Coordinator → child: apply this declaration to your snapshot.
    /// `seq` identifies the ack-barrier this update belongs to.
    RegUpdate { decl: ObjectDecl, version: u64, seq: u64 },
    /// Child → coordinator: snapshot updated (echoes the update's `seq`,
    /// so a late ack from a timed-out barrier can never satisfy a later
    /// one).
    RegUpdateAck { seq: u64 },
    /// Child → coordinator: periodic liveness/progress report for the
    /// distributed stall watchdog.
    Heartbeat { activity: u64, timers_pending: u64 },
    /// Coordinator → child: capture `debug_stuck_state` and reply.
    DumpReq,
    /// Child → coordinator: the captured state (possibly empty).
    DumpReply { text: String },
    /// Child → coordinator: an asynchronous error worth reporting now
    /// (the rest arrive with `Done`).
    ReportError { msg: String },
    /// Coordinator → child: clean shutdown (the run is quiescent).
    Finish,
    /// Child → coordinator: final traffic shard, accumulated errors,
    /// (spans mode) home-leg stamps `(thread, wall_us)` recorded while
    /// handling peers' protocol messages, and (explore mode) the child's
    /// protocol-state coverage rows — all merged into the coordinator's
    /// collectors at teardown.
    Done {
        stats: NetStats,
        errors: Vec<String>,
        homes: Vec<(ThreadId, u64)>,
        cover: Vec<munin_obs::CovRow>,
    },
    /// Coordinator → child: the run is poisoned; tear down immediately.
    Poison,
    /// Coordinator → child, after every node's `Done` arrived: all peers
    /// are known quiescent, so closing your sockets can no longer look
    /// like a mid-run fault to anyone — exit now. (Without this second
    /// phase, the first child to exit closes data streams that a sibling —
    /// which may not have processed its own `Finish` yet — would report as
    /// a lost peer, poisoning a perfectly clean run.)
    Bye,
}

wire_enum!(CtrlFrame {
    0 => Hello { node, data_port },
    1 => Start(cfg),
    2 => Ready,
    5 => Reg(req),
    6 => RegReply(reply),
    7 => RegUpdate { decl, version, seq },
    8 => RegUpdateAck { seq },
    9 => Heartbeat { activity, timers_pending },
    10 => DumpReq,
    11 => DumpReply { text },
    12 => ReportError { msg },
    13 => Finish,
    14 => Done { stats, errors, homes, cover },
    15 => Poison,
    16 => Bye,
});

impl Wire for Box<StartConfig> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        Ok(Box::new(StartConfig::take(inp)?))
    }
}

// ---- framed stream IO ------------------------------------------------------

/// Accept `expected` connections on `listener` before `deadline`, reading
/// each stream's kind byte and handing the (blocking, `TCP_NODELAY`,
/// deadline-bounded-read) stream to `handle`. Shared by the coordinator's
/// two handshake phases and the child mesh accept. Reads on a freshly
/// accepted stream carry a read timeout bounded by the remaining deadline
/// (cleared in `handle`'s successor code path once the stream joins the
/// run), so a connected-but-silent peer — a port scanner, a wedged
/// process — cannot hang the handshake past the deadline.
pub fn accept_streams(
    listener: &TcpListener,
    deadline: std::time::Instant,
    expected: usize,
    mut handle: impl FnMut(u8, TcpStream) -> io::Result<()>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut accepted = 0usize;
    while accepted < expected {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                stream.set_read_timeout(Some(left.max(Duration::from_millis(10))))?;
                // One malformed connection (a port scanner, a stray local
                // prober, a crashed peer's half-written Hello) must not
                // kill a handshake whose real peers are healthy: reject
                // the stream and keep waiting — a genuinely missing peer
                // still fails loudly via the deadline.
                let mut kind = [0u8; 1];
                if let Err(e) = stream.read_exact(&mut kind) {
                    eprintln!("handshake: rejecting connection with unreadable kind byte: {e}");
                    continue;
                }
                if let Err(e) = handle(kind[0], stream) {
                    eprintln!("handshake: rejecting malformed connection: {e}");
                    continue;
                }
                accepted += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if std::time::Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("handshake timed out with {accepted}/{expected} streams"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    listener.set_nonblocking(false)?;
    Ok(())
}

/// Append `frame` to `scratch` as one length-prefixed frame (clearing
/// `scratch` first) and write it with a single `write_all`. An oversized
/// frame surfaces as `InvalidData` (not a panic), so the fabric's
/// named-error/poison teardown handles it like any other stream failure.
pub fn write_frame<T: Wire>(
    stream: &mut TcpStream,
    scratch: &mut Vec<u8>,
    frame: &T,
) -> io::Result<()> {
    scratch.clear();
    append_frame(scratch, |out| frame.put(out))?;
    stream.write_all(scratch)
}

/// Append one length-prefixed frame to `out`, its body written by `encode`
/// straight into place and the prefix patched in afterwards. A body over
/// the cap is taken back out and reported as `InvalidData` — a frame the
/// receiver would refuse must not be sent (and must not panic the sender;
/// the caller's stream-failure path names the peer and poisons the run).
pub fn append_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    encode(out);
    let body = out.len() - at - 4;
    if body > MAX_FRAME_BYTES {
        out.truncate(at);
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("outgoing frame of {body} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let len = u32::try_from(body).expect("cap fits u32");
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// What a reader's buffer gains when it is full of received bytes.
const READ_STEP: usize = 64 << 10;

/// Validate an announced body length against the cap, before anything is
/// allocated for it.
fn check_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    Ok(len)
}

/// The growth rule of both frame readers: `buf` is full of received bytes
/// and the frame in it needs `need` bytes in all, so make room for at most
/// as many more as have arrived (and at least one [`READ_STEP`]), never
/// past `need`. Only the new room is zeroed, and only this once: callers
/// keep the buffer's length across frames.
fn grow_received(buf: &mut Vec<u8>, need: usize) {
    let step = buf.len().max(READ_STEP);
    buf.resize((buf.len() + step).min(need), 0);
}

fn decode_body<T: Wire>(body: &[u8]) -> io::Result<T> {
    T::decode(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn closed_mid_frame(got: usize, need: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("stream closed inside a frame ({got} of {need} bytes)"),
    )
}

/// Read one length-prefixed frame and nothing past it (the handshake hands
/// the stream on afterwards). `buf` is scratch whose length only grows; the
/// frame is decoded from its front. Decode failures and oversized length
/// prefixes surface as `io::ErrorKind::InvalidData`; a clean EOF at a frame
/// boundary is `UnexpectedEof` (callers treat any error on a live run as a
/// lost peer).
pub fn read_frame<T: Wire>(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<T> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = check_len(prefix)?;
    let mut got = 0;
    while got < len {
        if got == buf.len() {
            grow_received(buf, len);
        }
        let room = buf.len().min(len);
        match stream.read(&mut buf[got..room]) {
            Ok(0) => return Err(closed_mid_frame(got, len)),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    decode_body(&buf[..len])
}

/// The buffered reader of a data stream: one `read` per wake-up into a
/// per-link buffer, frames decoded in place. A read that returns several
/// frames is the receive half of this fabric's batching.
#[derive(Default)]
pub struct FrameReader {
    /// Initialized storage; `start..end` holds received, unconsumed bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// Bytes of storage held (the hostile-input tests bound this).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Total size, prefix included, of the frame at the front of the
    /// buffer, once its prefix has arrived and passed the cap check.
    fn front_frame(&self) -> io::Result<Option<usize>> {
        match self.buf[self.start..self.end].first_chunk::<4>() {
            Some(prefix) => Ok(Some(4 + check_len(*prefix)?)),
            None => Ok(None),
        }
    }

    /// One `read` from `src` into the free space behind what is buffered;
    /// `Ok(0)` is end of stream. Room is made first: an emptied buffer
    /// restarts at its front, a partial frame that cannot finish where it
    /// lies moves to the front, and a buffer full of one partial frame
    /// grows by [`grow_received`].
    pub fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        let need = self.front_frame()?.unwrap_or(4);
        if self.start > 0 && self.start + need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.end == self.buf.len() {
            // No tighter bound than doubling: room past this frame lets the
            // next read bring the frames behind it along.
            grow_received(&mut self.buf, usize::MAX);
        }
        loop {
            match src.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end > self.start => {
                    return Err(closed_mid_frame(self.end - self.start, need))
                }
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The body of the next complete frame already in the buffer.
    fn next_body(&mut self) -> io::Result<Option<&[u8]>> {
        match self.front_frame()? {
            Some(need) if self.end - self.start >= need => {
                let body = &self.buf[self.start + 4..self.start + need];
                self.start += need;
                Ok(Some(body))
            }
            _ => Ok(None),
        }
    }

    /// Decode the next complete frame already in the buffer; `None` when
    /// the buffer ends inside a frame (or is empty) and wants a `fill`.
    pub fn next_frame<T: Wire>(&mut self) -> io::Result<Option<T>> {
        self.next_body()?.map(decode_body).transpose()
    }
}

/// A mutex-shared framed writer for a control stream: it is shared between
/// the node's steps (registry writes), the heartbeat thread and the control
/// reader's ack path, and the lock makes each frame atomic on the wire.
/// Writes block; that is safe because no reader of a control stream ever
/// waits on a node's lock (see [`CtrlFrame`]). Data streams are written
/// through [`crate::link::Link`] instead.
pub struct FrameWriter {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl FrameWriter {
    pub fn new(stream: TcpStream) -> Self {
        FrameWriter { stream, scratch: Vec::new() }
    }

    pub fn send<T: Wire>(&mut self, frame: &T) -> io::Result<()> {
        write_frame(&mut self.stream, &mut self.scratch, frame)
    }
}

pub type SharedWriter = Arc<Mutex<FrameWriter>>;

pub fn shared_writer(stream: TcpStream) -> SharedWriter {
    Arc::new(Mutex::new(FrameWriter::new(stream)))
}

/// Send on a shared writer, surfacing the IO error to the caller.
pub fn send_shared<T: Wire>(w: &SharedWriter, frame: &T) -> io::Result<()> {
    w.lock().expect("frame writer poisoned").send(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a hostile (or broken) peer sends: the largest announcement the
    /// cap admits, 16 bytes of it, then nothing.
    fn announced_but_not_sent() -> Vec<u8> {
        let mut bytes = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[7u8; 16]);
        bytes
    }

    fn stream_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
        let near = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        (near, listener.accept().expect("accept").0)
    }

    #[test]
    fn buffered_reader_holds_what_arrived_not_what_was_announced() {
        let bytes = announced_but_not_sent();
        let mut reader = FrameReader::default();
        assert_eq!(reader.fill(&mut &bytes[..]).expect("first read"), bytes.len());
        assert!(reader.next_frame::<Vec<u8>>().expect("prefix is within the cap").is_none());
        assert!(reader.capacity() <= bytes.len() + READ_STEP, "held {} bytes", reader.capacity());
        // The peer hangs up: fail closed, still without the allocation.
        let e = reader.fill(&mut io::empty()).expect_err("EOF inside a frame");
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");
        assert!(reader.capacity() <= bytes.len() + READ_STEP);
    }

    #[test]
    fn read_frame_holds_what_arrived_not_what_was_announced() {
        let (mut near, mut far) = stream_pair();
        near.write_all(&announced_but_not_sent()).expect("write");
        drop(near);
        let mut buf = Vec::new();
        let e = read_frame::<Vec<u8>>(&mut far, &mut buf).expect_err("EOF inside a frame");
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");
        assert!(buf.capacity() <= 16 + READ_STEP, "held {} bytes", buf.capacity());
    }

    #[test]
    fn both_readers_refuse_a_prefix_over_the_cap_before_allocating() {
        let over = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let mut reader = FrameReader::default();
        reader.fill(&mut &over[..]).expect("the prefix itself arrives");
        let e = reader.next_frame::<Vec<u8>>().expect_err("over the cap");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        assert!(reader.capacity() <= READ_STEP);

        let (mut near, mut far) = stream_pair();
        near.write_all(&over).expect("write");
        let mut buf = Vec::new();
        let e = read_frame::<Vec<u8>>(&mut far, &mut buf).expect_err("over the cap");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        assert_eq!(buf.capacity(), 0);
    }

    /// A frame several growth steps long, arriving a little at a time behind
    /// a small one: the buffer at most doubles past what has arrived, and
    /// both frames come out whole.
    #[test]
    fn buffered_reader_grows_by_doubling_what_arrived() {
        let big: Vec<u8> = (0..5 * READ_STEP).map(|i| (i % 251) as u8).collect();
        let mut bytes = Vec::new();
        append_frame(&mut bytes, |out| vec![1u8, 2, 3].put(out)).expect("small frame");
        append_frame(&mut bytes, |out| big.put(out)).expect("big frame");
        let mut reader = FrameReader::default();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut arrived = 0;
        for mut piece in bytes.chunks(10_000) {
            while !piece.is_empty() {
                arrived += reader.fill(&mut piece).expect("read");
                assert!(reader.capacity() <= 2 * arrived + READ_STEP);
                while let Some(frame) = reader.next_frame().expect("decodes") {
                    got.push(frame);
                }
            }
        }
        assert_eq!(got, vec![vec![1u8, 2, 3], big]);
    }
}
