//! [`Link`]: the write half of one data stream, and [`Links`], one node's
//! links to every peer: the fabric's `munin_rt::Link` under the one
//! wall-clock kernel.
//!
//! One link per destination node. Frames are encoded once, straight into the
//! link's out-buffer ([`Link::push`]); [`Link::flush`] hands the buffer to
//! the socket in **one non-blocking send**. Several threads share a link (on
//! the coordinator: node 0's steps and every application thread placed on
//! that child), so the buffer sits behind a mutex; per-thread and per-step
//! order is push order, which is wire order.
//!
//! ## Flow control
//!
//! *No thread that reads a socket or holds a node's lock ever blocks in a
//! socket write.* What a non-blocking send does not take moves, by
//! ownership, to the link's **overflow writer** thread (spawned on first
//! use), which alone does blocking writes; until it has drained, later
//! flushes queue behind it, so the link stays FIFO. Two nodes flushing
//! multi-MiB diffs at each other therefore cannot deadlock: each one's
//! reader keeps reading whatever its own writes are doing.
//!
//! Lock order: node cell → link out-buffer, never the reverse; the
//! out-buffer lock is never held across a blocking call.

use crate::frames::{append_frame, put_msg, put_resume, RegReply, RegRequest};
use crate::registry::RegClient;
use munin_obs::SrvSpan;
use munin_proto::Wire;
use munin_rt::Shared;
use munin_sim::{OpResult, Registry, ResumeSlot};
use munin_types::{NodeId, ObjectDecl, ObjectId, SharingType, ThreadId};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, RwLock};

/// A buffer on its way to the overflow writer, and how much of its front
/// the non-blocking send already took.
type Chunk = (Vec<u8>, usize);

#[derive(Default)]
struct Out {
    /// Encoded frames not yet handed to the socket.
    buf: Vec<u8>,
    /// The overflow writer's queue, once it exists.
    overflow: Option<Sender<Chunk>>,
    /// The stream failed (reported once); frames are dropped from here on.
    failed: bool,
}

pub struct Link {
    me: NodeId,
    peer: NodeId,
    stream: TcpStream,
    out: Mutex<Out>,
    /// Chunks handed to the overflow writer and not yet fully written.
    /// Raised only under the `out` lock; the writer lowers it (`Release`)
    /// after its last write of a chunk, and a flush that reads 0
    /// (`Acquire`) may therefore send directly without overtaking it.
    queued: Arc<AtomicUsize>,
    /// Frames that went through the overflow writer, in part or whole.
    overflow_frames: AtomicU64,
    /// Bytes a non-blocking send did not take.
    left_behind: AtomicU64,
    shared: Arc<Shared>,
    finishing: Arc<AtomicBool>,
}

impl Link {
    /// The link from node `me` to `peer` over (a clone of) their stream.
    pub fn new(
        me: NodeId,
        peer: NodeId,
        stream: TcpStream,
        shared: Arc<Shared>,
        finishing: Arc<AtomicBool>,
    ) -> Arc<Self> {
        Arc::new(Link {
            me,
            peer,
            stream,
            out: Mutex::default(),
            queued: Arc::default(),
            overflow_frames: AtomicU64::new(0),
            left_behind: AtomicU64::new(0),
            shared,
            finishing,
        })
    }

    /// Append one frame to the out-buffer, its body written by `encode`.
    /// Nothing is sent before [`Link::flush`].
    pub fn push(&self, encode: impl FnOnce(&mut Vec<u8>)) {
        let mut out = self.out.lock().expect("link out-buffer poisoned");
        if out.failed {
            return;
        }
        if let Err(e) = append_frame(&mut out.buf, encode) {
            self.fail(&mut out, &e);
        }
    }

    /// Hand the out-buffer to the socket without blocking; what does not
    /// fit goes to the overflow writer.
    pub fn flush(&self) {
        let mut out = self.out.lock().expect("link out-buffer poisoned");
        if out.buf.is_empty() {
            return;
        }
        let sent = if self.queued.load(Ordering::Acquire) > 0 {
            0
        } else {
            match try_send(&self.stream, &out.buf) {
                Ok(n) => n,
                Err(e) => return self.fail(&mut out, &e),
            }
        };
        if sent == out.buf.len() {
            out.buf.clear();
            return;
        }
        self.left_behind.fetch_add((out.buf.len() - sent) as u64, Ordering::Relaxed);
        self.overflow_frames.fetch_add(frames_past(&out.buf, sent), Ordering::Relaxed);
        let chunk = (std::mem::take(&mut out.buf), sent);
        self.queued.fetch_add(1, Ordering::Relaxed);
        let handed = match &out.overflow {
            Some(tx) => tx.send(chunk).map_err(|_| io::ErrorKind::BrokenPipe.into()),
            None => self.spawn_overflow_writer(chunk).map(|tx| out.overflow = Some(tx)),
        };
        if let Err(e) = handed {
            self.fail(&mut out, &e);
        }
    }

    /// `(frames that took the overflow writer, bytes a non-blocking send
    /// left behind)` so far.
    pub fn overflow_stats(&self) -> (u64, u64) {
        (self.overflow_frames.load(Ordering::Relaxed), self.left_behind.load(Ordering::Relaxed))
    }

    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// The only thread of this link that blocks in a write. It owns each
    /// chunk it writes, holds no lock while writing, and lives until the
    /// link is dropped.
    fn spawn_overflow_writer(self: &Link, first: Chunk) -> io::Result<Sender<Chunk>> {
        let mut stream = self.stream.try_clone()?;
        let (tx, rx) = channel::<Chunk>();
        tx.send(first).expect("receiver is alive");
        let queued = self.queued.clone();
        let (me, peer) = (self.me, self.peer);
        let (shared, finishing) = (self.shared.clone(), self.finishing.clone());
        std::thread::Builder::new().name(format!("tcp-overflow-n{}", peer.index())).spawn(
            move || {
                let mut dead = false;
                for (chunk, sent) in rx {
                    if !dead {
                        if let Err(e) = stream.write_all(&chunk[sent..]) {
                            report_failure(&shared, &finishing, me, peer, &e);
                            dead = true;
                        }
                    }
                    queued.fetch_sub(1, Ordering::Release);
                }
            },
        )?;
        Ok(tx)
    }

    fn fail(&self, out: &mut Out, e: &io::Error) {
        out.failed = true;
        out.buf = Vec::new();
        report_failure(&self.shared, &self.finishing, self.me, self.peer, e);
    }
}

/// Where completed operations resume their thread.
pub enum ResumeSink {
    /// The coordinator process hosts every application thread: queue the
    /// result in the thread's resume slot, indexed by thread id.
    Local(Vec<Arc<ResumeSlot>>),
    /// A child process: the thread lives in the coordinator, so the resume
    /// travels back as a `Resume` frame on the link to node 0.
    Remote,
}

/// One node's links to every peer, under the node's kernel (so used only
/// under the node's lock). A send encodes the payload once, straight into
/// the destination link's out-buffer; the end of the step gives each link
/// it wrote to one non-blocking socket write. The only blocking call a
/// step can make through it is the registry RPC, which is served by
/// threads that need no node state.
pub struct Links {
    /// Indexed by destination node (`None` at our own index).
    peers: Vec<Option<Arc<Link>>>,
    /// Links this step pushed frames onto; the flush writes these.
    dirty: Vec<bool>,
    resumes: ResumeSink,
    /// Threads whose result this step queued while they were parked. The
    /// step runs under the node's lock, which the woken thread's next
    /// inline op needs, so their wakes wait until the lock is released.
    owed_wakes: Vec<ThreadId>,
    registry: RegClient,
}

impl Links {
    pub(crate) fn new(
        peers: Vec<Option<Arc<Link>>>,
        resumes: ResumeSink,
        registry: RegClient,
    ) -> Self {
        Links { dirty: vec![false; peers.len()], peers, resumes, owed_wakes: Vec::new(), registry }
    }

    /// The parked threads the steps since the last call resumed; the
    /// caller wakes them once it has released the node's lock.
    pub(crate) fn take_owed_wakes(&mut self) -> Vec<ThreadId> {
        std::mem::take(&mut self.owed_wakes)
    }

    /// Queue one frame for `dst`; it leaves at the end of the step.
    fn push(&mut self, dst: NodeId, encode: impl FnOnce(&mut Vec<u8>)) {
        // No link can only mean a send to our own node index, which the
        // protocols never make: fail the step loudly rather than stall.
        let link = self.peers[dst.index()].as_ref().expect("send to self over the socket fabric");
        link.push(encode);
        self.dirty[dst.index()] = true;
    }

    /// The links whose non-blocking send stopped fitting (small socket
    /// buffers, a slow peer), for the SIGUSR1 / stall dump; links that never
    /// overflowed are left out, so an empty string means none did.
    pub(crate) fn overflows(&self) -> String {
        let overflowed: Vec<String> = self
            .peers
            .iter()
            .flatten()
            .filter_map(|l| match l.overflow_stats() {
                (0, 0) => None,
                (frames, bytes) => Some(format!(
                    "to n{}: {frames} frame(s) took the overflow writer, {bytes} B left behind",
                    l.peer().index()
                )),
            })
            .collect();
        overflowed.join("; ")
    }
}

impl<P: Wire> munin_rt::Link<P> for Links {
    fn send(&mut self, dst: NodeId, payload: P) {
        self.push(dst, |out| put_msg(&payload, out));
    }

    /// Each destination's copy is encoded from the one payload.
    fn multicast(&mut self, dsts: &[NodeId], payload: P) {
        for &dst in dsts {
            self.push(dst, |out| put_msg(&payload, out));
        }
    }

    fn flush(&mut self) {
        for (link, dirty) in self.peers.iter().zip(&mut self.dirty) {
            if std::mem::take(dirty) {
                link.as_ref().expect("only existing links get dirty").flush();
            }
        }
    }

    /// On the coordinator the result is queued now, so a thread's results
    /// keep step order, and the wake is owed until the lock is released.
    /// On a child the op's server span half rides the `Resume` frame to
    /// the coordinator's span table.
    fn resume(&mut self, thread: ThreadId, result: OpResult, span: Option<SrvSpan>) {
        match &self.resumes {
            ResumeSink::Local(slots) => {
                if slots[thread.index()].push(result) {
                    self.owed_wakes.push(thread);
                }
            }
            ResumeSink::Remote => {
                self.push(NodeId(0), |out| put_resume(thread, &result, &span, out))
            }
        }
    }

    /// The registry service writes every process's copy, this one's too.
    fn register_decl(
        &mut self,
        _registry: &RwLock<Registry>,
        decl: ObjectDecl,
        home: NodeId,
    ) -> Option<ObjectId> {
        match self.registry.write(RegRequest::Decl { decl, home })? {
            RegReply::Decl { id } => Some(id),
            RegReply::Retype => None,
        }
    }

    fn retype(
        &mut self,
        _registry: &RwLock<Registry>,
        obj: ObjectId,
        sharing: SharingType,
    ) -> bool {
        self.registry.write(RegRequest::Retype { obj, sharing }).is_some()
    }
}

/// A dead stream or an unencodable frame poisons the run with an error
/// naming the peer, once, instead of panicking whoever was sending.
fn report_failure(
    shared: &Shared,
    finishing: &AtomicBool,
    me: NodeId,
    peer: NodeId,
    e: &io::Error,
) {
    let (me, peer) = (me.index(), peer.index());
    fail_run(
        shared,
        finishing,
        format!("node n{me}: data stream to peer n{peer} failed: {e} — peer lost"),
    );
}

/// Record `msg` as the run's fatal error and poison the run — unless the run
/// is already finishing or poisoned, when a failure is a consequence, not a
/// cause. Says whether it reported.
pub(crate) fn fail_run(shared: &Shared, finishing: &AtomicBool, msg: String) -> bool {
    if finishing.load(Ordering::SeqCst) || shared.is_poisoned() {
        return false;
    }
    shared.error(msg);
    shared.poisoned.store(true, Ordering::Release);
    true
}

/// How many of the length-prefixed frames in `buf` end past byte `sent`.
fn frames_past(buf: &[u8], sent: usize) -> u64 {
    let (mut at, mut n) = (0usize, 0u64);
    while let Some(prefix) = buf[at..].first_chunk::<4>() {
        at += 4 + u32::from_le_bytes(*prefix) as usize;
        n += u64::from(at > sent);
    }
    n
}

/// One `send(2)` that never blocks: how many bytes of `buf` the socket took
/// (0 when its buffer is full). `MSG_DONTWAIT` applies to this call only;
/// the stream itself stays blocking, because its read half (a clone of the
/// same open file) must.
#[cfg(target_os = "linux")]
fn try_send(stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    use std::os::fd::AsRawFd;
    // No `libc` crate in the offline vendor set (see `sig.rs`).
    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_NOSIGNAL: i32 = 0x4000;
    extern "C" {
        fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
    }
    loop {
        // SAFETY: `buf` is a live slice for the duration of the call, `len`
        // is its length, and `send` only reads from it; the descriptor is
        // open because `stream` is borrowed.
        let n = unsafe {
            send(stream.as_raw_fd(), buf.as_ptr(), buf.len(), MSG_DONTWAIT | MSG_NOSIGNAL)
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        match e.kind() {
            io::ErrorKind::WouldBlock => return Ok(0),
            io::ErrorKind::Interrupted => {}
            _ => return Err(e),
        }
    }
}

/// Without a per-call non-blocking send, everything takes the overflow
/// writer.
#[cfg(not(target_os = "linux"))]
fn try_send(_stream: &TcpStream, _buf: &[u8]) -> io::Result<usize> {
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// The flow-control invariant, at its source: flushing to a peer that
    /// is not reading returns at once however much is queued (the overflow
    /// writer blocks instead), the overflow is counted, and once the peer
    /// does read, every frame arrives whole and in push order.
    #[test]
    fn flush_never_blocks_and_the_link_stays_fifo() {
        const FRAMES: u32 = 48;
        const BODY: usize = 1 << 20;
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
        let near = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut far, _) = listener.accept().expect("accept");
        let shared = Arc::new(Shared::new(Vec::new(), 0, munin_types::Telemetry::Off));
        let link = Link::new(NodeId(0), NodeId(1), near, shared.clone(), Arc::default());

        // 48 MiB at a peer that reads nothing: far more than any pair of
        // socket buffers holds, so a blocking write would never return.
        let started = Instant::now();
        for i in 0..FRAMES {
            link.push(|out| {
                out.extend_from_slice(&i.to_le_bytes());
                out.resize(out.len() + BODY - 4, i as u8);
            });
            link.flush();
        }
        assert!(started.elapsed() < Duration::from_secs(10), "a flush blocked");
        let (frames, bytes) = link.overflow_stats();
        assert!(frames > 0 && bytes > 0, "nothing overflowed: {frames} frames, {bytes} B");

        let mut frame = vec![0u8; 4 + BODY];
        for i in 0..FRAMES {
            far.read_exact(&mut frame).expect("the overflow writer delivers");
            assert_eq!(frame[..4], (BODY as u32).to_le_bytes(), "frame {i}: prefix");
            assert_eq!(frame[4..8], i.to_le_bytes(), "frame {i}: out of order");
            assert!(frame[8..].iter().all(|b| *b == i as u8), "frame {i}: torn");
        }
        assert!(!shared.is_poisoned(), "{:?}", shared.errors.lock().unwrap());
    }

    #[test]
    fn frames_past_counts_frames_a_partial_send_cut_or_missed() {
        let mut buf = Vec::new();
        for len in [3usize, 0, 5] {
            append_frame(&mut buf, |out| out.resize(out.len() + len, 9)).expect("under the cap");
        }
        // Frames end at 7, 11 and 20.
        assert_eq!(frames_past(&buf, 0), 3);
        assert_eq!(frames_past(&buf, 7), 2);
        assert_eq!(frames_past(&buf, 8), 2);
        assert_eq!(frames_past(&buf, 11), 1);
        assert_eq!(frames_past(&buf, 19), 1);
    }
}
