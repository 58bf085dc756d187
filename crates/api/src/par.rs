//! The application-facing shared-memory interface.
//!
//! Three layers:
//!
//! 1. [`Par`] — the object-safe backend contract: identity, synchronization,
//!    and *raw byte* access through the zero-copy pair
//!    [`Par::read_raw_into`] / [`Par::write_raw`] (the allocating
//!    [`Par::read`] / [`Par::write`] are provided shims over it).
//! 2. [`ParTyped`] — the typed accessors every application uses, generic
//!    over [`Element`] and driven by [`SharedArray`] / [`SharedScalar`]
//!    handles. Bounds and element types are checked here, at the API layer,
//!    with precise panics; buffers are caller-owned, so steady-state access
//!    does not allocate.
//! 3. [`Region`] — a scoped read-modify-write view of an array range
//!    (fetch once, edit locally, write back once), the natural shape for
//!    stripe-local write-many access.

use munin_sim::ThreadCtx;
use munin_types::element::{bytes_of, bytes_of_mut};
use munin_types::{
    BarrierId, ByteRange, CondId, Element, LockId, ObjectId, OpToken, SharedArray, SharedScalar,
    TokenState, TokenValue,
};

/// What a parallel program may do: shared-object access plus explicit
/// synchronization. One implementation runs on the simulator (Munin or Ivy
/// servers underneath), another on native threads.
///
/// Applications should not call the byte-level methods directly — use the
/// typed layer ([`ParTyped`]) through [`SharedArray`] / [`SharedScalar`]
/// handles instead.
pub trait Par {
    /// This thread's index (0-based, dense).
    fn self_id(&self) -> usize;
    /// Total threads in the program.
    fn n_threads(&self) -> usize;
    /// Read `range` of a shared object into `out` (`out.len()` must equal
    /// `range.len`). The zero-copy foundation of the typed layer.
    fn read_raw_into(&mut self, obj: ObjectId, range: ByteRange, out: &mut [u8]);
    /// Write `data` at byte offset `start` of a shared object.
    fn write_raw(&mut self, obj: ObjectId, start: u32, data: &[u8]);
    /// Atomic fetch-and-add on the little-endian i64 at `offset`.
    fn fetch_add(&mut self, obj: ObjectId, offset: u32, delta: i64) -> i64;
    fn lock(&mut self, lock: LockId);
    fn unlock(&mut self, lock: LockId);
    fn barrier(&mut self, barrier: BarrierId);
    /// Monitor wait: release `lock`, sleep until signalled, re-acquire.
    /// (Unsupported by the Ivy backend, true to the original system.)
    fn cond_wait(&mut self, cond: CondId, lock: LockId);
    /// Wake one (`broadcast=false`) or all waiters. Caller holds the lock.
    fn cond_signal(&mut self, cond: CondId, broadcast: bool);
    /// Mark a program phase boundary (phase 0 = initialization).
    fn phase(&mut self, phase: u32);
    /// Model `us` microseconds of local computation.
    fn compute(&mut self, us: u64);
    /// Flush this thread's delayed updates (no-op on strict backends).
    fn flush(&mut self);

    /// Read a byte range into a fresh buffer. Allocating shim over
    /// [`Par::read_raw_into`]; backends may override when they already own
    /// a buffer (the simulator's ops do).
    fn read(&mut self, obj: ObjectId, range: ByteRange) -> Vec<u8> {
        let mut out = vec![0u8; range.len as usize];
        self.read_raw_into(obj, range, &mut out);
        out
    }

    /// Write bytes at an offset of a shared object (by-value shim over
    /// [`Par::write_raw`]).
    fn write(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
        self.write_raw(obj, start, &data);
    }

    // ---- pipelined (asynchronous) ops -----------------------------------
    //
    // The defaults complete the op immediately and hand back a Ready token,
    // which is the correct degenerate pipelining for backends whose ops
    // already finish inline (the simulator, the native backend). The
    // real-time kernels override these with a genuinely asynchronous issue
    // path bounded by `munin_rt::MAX_INFLIGHT`.

    /// Issue a write without waiting for completion. The op is complete by
    /// the time the returned state is redeemed ([`Par::token_wait`]) or the
    /// next sync point, whichever comes first.
    fn write_raw_async(&mut self, obj: ObjectId, start: u32, data: &[u8]) -> TokenState {
        self.write_raw(obj, start, data);
        TokenState::Ready(0)
    }

    /// Issue an atomic fetch-and-add without waiting; the old value rides
    /// in the redeemed token.
    fn fetch_add_async(&mut self, obj: ObjectId, offset: u32, delta: i64) -> TokenState {
        TokenState::Ready(self.fetch_add(obj, offset, delta))
    }

    /// Redeem a token state: the raw result of its async op. Backends that
    /// never return [`TokenState::Pending`] keep this default.
    fn token_wait(&mut self, state: TokenState) -> i64 {
        match state {
            TokenState::Ready(v) => v,
            TokenState::Pending(seq) => {
                panic!("this backend never issued pending token {seq} — token from another ctx?")
            }
        }
    }

    /// Complete every op this thread has in flight (including any
    /// client-side write-combining buffer). Implicit at every sync point;
    /// a no-op on backends whose ops complete inline.
    fn drain_ops(&mut self) {}
}

impl Par for ThreadCtx {
    fn self_id(&self) -> usize {
        self.thread_id().index()
    }
    fn n_threads(&self) -> usize {
        ThreadCtx::n_threads(self)
    }
    fn read_raw_into(&mut self, obj: ObjectId, range: ByteRange, out: &mut [u8]) {
        ThreadCtx::read_into(self, obj, range, out)
    }
    fn write_raw(&mut self, obj: ObjectId, start: u32, data: &[u8]) {
        ThreadCtx::write_raw(self, obj, start, data)
    }
    fn read(&mut self, obj: ObjectId, range: ByteRange) -> Vec<u8> {
        // The simulator's op already hands us an owned buffer; return it
        // rather than copying into a second one.
        ThreadCtx::read(self, obj, range)
    }
    fn write(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
        ThreadCtx::write(self, obj, start, data)
    }
    fn fetch_add(&mut self, obj: ObjectId, offset: u32, delta: i64) -> i64 {
        ThreadCtx::fetch_add(self, obj, offset, delta)
    }
    fn lock(&mut self, lock: LockId) {
        ThreadCtx::lock(self, lock)
    }
    fn unlock(&mut self, lock: LockId) {
        ThreadCtx::unlock(self, lock)
    }
    fn barrier(&mut self, barrier: BarrierId) {
        ThreadCtx::barrier(self, barrier)
    }
    fn cond_wait(&mut self, cond: CondId, lock: LockId) {
        ThreadCtx::cond_wait(self, cond, lock)
    }
    fn cond_signal(&mut self, cond: CondId, broadcast: bool) {
        self.op(munin_sim::DsmOp::CondSignal { cond, broadcast }).expect_unit()
    }
    fn phase(&mut self, phase: u32) {
        ThreadCtx::phase(self, phase)
    }
    fn compute(&mut self, us: u64) {
        ThreadCtx::compute(self, us)
    }
    fn flush(&mut self) {
        ThreadCtx::flush(self)
    }
}

/// The real-time kernel's thread handle speaks the same op protocol as the
/// simulator's, so the `Par` mapping is identical (generic over the
/// protocol message type — one impl serves MuninRt and IvyRt).
impl<P> Par for munin_rt::RtCtx<P> {
    fn self_id(&self) -> usize {
        self.thread_id().index()
    }
    fn n_threads(&self) -> usize {
        munin_rt::RtCtx::n_threads(self)
    }
    fn read_raw_into(&mut self, obj: ObjectId, range: ByteRange, out: &mut [u8]) {
        munin_rt::RtCtx::read_into(self, obj, range, out)
    }
    fn write_raw(&mut self, obj: ObjectId, start: u32, data: &[u8]) {
        munin_rt::RtCtx::write_raw(self, obj, start, data)
    }
    fn read(&mut self, obj: ObjectId, range: ByteRange) -> Vec<u8> {
        // The op reply hands us an owned buffer; return it rather than
        // copying into a second one.
        munin_rt::RtCtx::read(self, obj, range)
    }
    fn write(&mut self, obj: ObjectId, start: u32, data: Vec<u8>) {
        munin_rt::RtCtx::write(self, obj, start, data)
    }
    fn fetch_add(&mut self, obj: ObjectId, offset: u32, delta: i64) -> i64 {
        munin_rt::RtCtx::fetch_add(self, obj, offset, delta)
    }
    fn lock(&mut self, lock: LockId) {
        munin_rt::RtCtx::lock(self, lock)
    }
    fn unlock(&mut self, lock: LockId) {
        munin_rt::RtCtx::unlock(self, lock)
    }
    fn barrier(&mut self, barrier: BarrierId) {
        munin_rt::RtCtx::barrier(self, barrier)
    }
    fn cond_wait(&mut self, cond: CondId, lock: LockId) {
        munin_rt::RtCtx::cond_wait(self, cond, lock)
    }
    fn cond_signal(&mut self, cond: CondId, broadcast: bool) {
        self.op(munin_sim::DsmOp::CondSignal { cond, broadcast }).expect_unit()
    }
    fn phase(&mut self, phase: u32) {
        munin_rt::RtCtx::phase(self, phase)
    }
    fn compute(&mut self, us: u64) {
        munin_rt::RtCtx::compute(self, us)
    }
    fn flush(&mut self) {
        munin_rt::RtCtx::flush(self)
    }
    fn write_raw_async(&mut self, obj: ObjectId, start: u32, data: &[u8]) -> TokenState {
        let range = ByteRange::new(start, data.len() as u32);
        self.op_async(munin_sim::DsmOp::Write { obj, range, data: data.to_vec() })
    }
    fn fetch_add_async(&mut self, obj: ObjectId, offset: u32, delta: i64) -> TokenState {
        self.op_async(munin_sim::DsmOp::AtomicFetchAdd { obj, offset, delta })
    }
    fn token_wait(&mut self, state: TokenState) -> i64 {
        munin_rt::RtCtx::token_wait(self, state)
    }
    fn drain_ops(&mut self) {
        munin_rt::RtCtx::drain_ops(self)
    }
}

/// Decode a little-endian byte buffer in place into `out`.
fn decode_into<T: Element>(bytes: &[u8], out: &mut [T]) {
    for (chunk, slot) in bytes.chunks_exact(T::SIZE).zip(out.iter_mut()) {
        *slot = T::read_le(chunk);
    }
}

/// Typed, bounds-checked access to shared objects through
/// [`SharedArray`] / [`SharedScalar`] handles. Blanket-implemented for every
/// [`Par`], including `dyn Par`.
///
/// The bulk accessors are zero-copy on little-endian hosts: the caller's
/// element slice is handed to the backend as its byte representation, so no
/// per-call buffer is allocated (big-endian hosts fall back to a transcoding
/// buffer to preserve the little-endian wire format).
pub trait ParTyped: Par {
    /// Read elements `start..start + out.len()` of `arr` into `out`.
    #[track_caller]
    fn read_into<T: Element>(&mut self, arr: &SharedArray<T>, start: u32, out: &mut [T]) {
        let range = arr.byte_range(start, out.len() as u32);
        if cfg!(target_endian = "little") {
            self.read_raw_into(arr.id(), range, bytes_of_mut(out));
        } else {
            let bytes = self.read(arr.id(), range);
            decode_into(&bytes, out);
        }
    }

    /// Write `vals` over elements `start..start + vals.len()` of `arr`.
    #[track_caller]
    fn write_from<T: Element>(&mut self, arr: &SharedArray<T>, start: u32, vals: &[T]) {
        let range = arr.byte_range(start, vals.len() as u32);
        if cfg!(target_endian = "little") {
            self.write_raw(arr.id(), range.start, bytes_of(vals));
        } else {
            let mut bytes = vec![0u8; vals.len() * T::SIZE];
            for (chunk, v) in bytes.chunks_exact_mut(T::SIZE).zip(vals) {
                v.write_le(chunk);
            }
            self.write_raw(arr.id(), range.start, &bytes);
        }
    }

    /// Read `n` elements starting at `start` into a fresh `Vec`.
    #[track_caller]
    fn read_vec<T: Element>(&mut self, arr: &SharedArray<T>, start: u32, n: u32) -> Vec<T> {
        let mut out = vec![T::default(); n as usize];
        self.read_into(arr, start, &mut out);
        out
    }

    /// Read the whole array into a fresh `Vec`.
    #[track_caller]
    fn read_all<T: Element>(&mut self, arr: &SharedArray<T>) -> Vec<T> {
        self.read_vec(arr, 0, arr.len())
    }

    /// Read one element.
    #[track_caller]
    fn get<T: Element>(&mut self, arr: &SharedArray<T>, idx: u32) -> T {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        self.read_raw_into(arr.id(), ByteRange::new(arr.byte_offset(idx), T::SIZE as u32), buf);
        T::read_le(buf)
    }

    /// Write one element.
    #[track_caller]
    fn set<T: Element>(&mut self, arr: &SharedArray<T>, idx: u32, v: T) {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        v.write_le(buf);
        self.write_raw(arr.id(), arr.byte_offset(idx), buf);
    }

    /// Read a shared scalar.
    #[track_caller]
    fn load<T: Element>(&mut self, s: &SharedScalar<T>) -> T {
        self.get(&s.as_array(), 0)
    }

    /// Write a shared scalar.
    #[track_caller]
    fn store<T: Element>(&mut self, s: &SharedScalar<T>, v: T) {
        self.set(&s.as_array(), 0, v)
    }

    /// Atomic fetch-and-add on an `i64` scalar; returns the old value.
    fn fetch_add_scalar(&mut self, s: &SharedScalar<i64>, delta: i64) -> i64 {
        self.fetch_add(s.id(), 0, delta)
    }

    // ---- pipelined (asynchronous) accessors -----------------------------
    //
    // Each returns an [`OpToken`] instead of blocking: redeem it with
    // [`ParTyped::wait`] / [`ParTyped::wait_all`], or let the next sync
    // point (acquire/release/barrier/flush/exit — any blocking op, in
    // fact) complete it implicitly, per release consistency. On the
    // real-time kernels this keeps up to `munin_rt::MAX_INFLIGHT` ops in
    // flight per thread; on the simulator and native backends the token
    // comes back already complete.

    /// Asynchronous [`ParTyped::write_from`].
    #[track_caller]
    fn write_from_async<T: Element>(
        &mut self,
        arr: &SharedArray<T>,
        start: u32,
        vals: &[T],
    ) -> OpToken<()> {
        let range = arr.byte_range(start, vals.len() as u32);
        let state = if cfg!(target_endian = "little") {
            self.write_raw_async(arr.id(), range.start, bytes_of(vals))
        } else {
            let mut bytes = vec![0u8; vals.len() * T::SIZE];
            for (chunk, v) in bytes.chunks_exact_mut(T::SIZE).zip(vals) {
                v.write_le(chunk);
            }
            self.write_raw_async(arr.id(), range.start, &bytes)
        };
        OpToken::from_state(state)
    }

    /// Asynchronous [`ParTyped::set`].
    #[track_caller]
    fn set_async<T: Element>(&mut self, arr: &SharedArray<T>, idx: u32, v: T) -> OpToken<()> {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        v.write_le(buf);
        // Bounds-check through byte_range like `set` does via byte_offset.
        let range = arr.byte_range(idx, 1);
        OpToken::from_state(self.write_raw_async(arr.id(), range.start, buf))
    }

    /// Asynchronous [`ParTyped::store`].
    #[track_caller]
    fn store_async<T: Element>(&mut self, s: &SharedScalar<T>, v: T) -> OpToken<()> {
        self.set_async(&s.as_array(), 0, v)
    }

    /// Asynchronous [`ParTyped::fetch_add_scalar`]; the old value arrives
    /// when the token is redeemed.
    fn fetch_add_scalar_async(&mut self, s: &SharedScalar<i64>, delta: i64) -> OpToken<i64> {
        OpToken::from_state(self.fetch_add_async(s.id(), 0, delta))
    }

    /// Redeem one token: blocks until its op completes (if it hasn't) and
    /// returns the typed result.
    fn wait<T: TokenValue>(&mut self, token: OpToken<T>) -> T {
        T::from_raw(self.token_wait(token.into_state()))
    }

    /// Redeem a batch of tokens in issue order.
    fn wait_all<T: TokenValue, I: IntoIterator<Item = OpToken<T>>>(&mut self, tokens: I) -> Vec<T> {
        tokens.into_iter().map(|t| self.wait(t)).collect()
    }

    /// Complete every in-flight async op (see [`Par::drain_ops`]).
    fn drain(&mut self) {
        self.drain_ops();
    }

    /// A scoped view of `arr[range]`: reads the range once, gives local
    /// indexed access, and writes the range back when the view is dropped
    /// (or explicitly [`Region::commit`]ted) if it was mutated. The natural
    /// access shape for a thread's stripe of a write-many object.
    #[track_caller]
    fn region<T: Element>(
        &mut self,
        arr: &SharedArray<T>,
        range: std::ops::Range<u32>,
    ) -> Region<'_, Self, T> {
        assert!(
            range.start <= range.end,
            "inverted region {}..{} of {}",
            range.start,
            range.end,
            arr.describe(),
        );
        let n = range.end - range.start;
        let mut buf = vec![T::default(); n as usize];
        self.read_into(arr, range.start, &mut buf);
        Region { par: self, arr: *arr, start: range.start, buf, dirty: false }
    }
}

impl<P: Par + ?Sized> ParTyped for P {}

/// A scoped, locally-buffered view of part of a [`SharedArray`], created by
/// [`ParTyped::region`]. Mutations are written back exactly once.
pub struct Region<'p, P: Par + ?Sized, T: Element> {
    par: &'p mut P,
    arr: SharedArray<T>,
    start: u32,
    buf: Vec<T>,
    dirty: bool,
}

impl<P: Par + ?Sized, T: Element> Region<'_, P, T> {
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// First element's index in the underlying array.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Read-only view of the buffered elements.
    pub fn as_slice(&self) -> &[T] {
        &self.buf
    }

    /// Mutable view; marks the region dirty (it will be written back).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.dirty = true;
        &mut self.buf
    }

    /// Write the buffer back now (only if dirty) and consume the view.
    pub fn commit(mut self) {
        self.flush_back();
    }

    fn flush_back(&mut self) {
        if self.dirty {
            self.dirty = false;
            let range = self.arr.byte_range(self.start, self.buf.len() as u32);
            if cfg!(target_endian = "little") {
                self.par.write_raw(self.arr.id(), range.start, bytes_of(&self.buf));
            } else {
                let mut bytes = vec![0u8; self.buf.len() * T::SIZE];
                for (chunk, v) in bytes.chunks_exact_mut(T::SIZE).zip(&self.buf) {
                    v.write_le(chunk);
                }
                self.par.write_raw(self.arr.id(), range.start, &bytes);
            }
        }
    }
}

impl<P: Par + ?Sized, T: Element> std::ops::Index<usize> for Region<'_, P, T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.buf[i]
    }
}

impl<P: Par + ?Sized, T: Element> std::ops::IndexMut<usize> for Region<'_, P, T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.dirty = true;
        &mut self.buf[i]
    }
}

impl<P: Par + ?Sized, T: Element> Drop for Region<'_, P, T> {
    fn drop(&mut self) {
        // Skip the write-back while unwinding: the buffer may be half-edited,
        // and a failing DSM write inside Drop would double-panic into an
        // abort instead of the backend's clean per-thread panic report.
        if !std::thread::panicking() {
            self.flush_back();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use munin_types::SharingType;
    use std::collections::HashMap;

    /// A toy in-memory Par for testing the access layers.
    pub(crate) struct MemPar {
        pub(crate) objs: HashMap<ObjectId, Vec<u8>>,
    }

    impl Par for MemPar {
        fn self_id(&self) -> usize {
            0
        }
        fn n_threads(&self) -> usize {
            1
        }
        fn read_raw_into(&mut self, obj: ObjectId, range: ByteRange, out: &mut [u8]) {
            out.copy_from_slice(&self.objs[&obj][range.start as usize..range.end() as usize]);
        }
        fn write_raw(&mut self, obj: ObjectId, start: u32, data: &[u8]) {
            let o = self.objs.get_mut(&obj).unwrap();
            o[start as usize..start as usize + data.len()].copy_from_slice(data);
        }
        fn fetch_add(&mut self, obj: ObjectId, offset: u32, delta: i64) -> i64 {
            let mut buf = [0u8; 8];
            self.read_raw_into(obj, ByteRange::new(offset, 8), &mut buf);
            let old = i64::from_le_bytes(buf);
            self.write_raw(obj, offset, &(old + delta).to_le_bytes());
            old
        }
        fn lock(&mut self, _: LockId) {}
        fn unlock(&mut self, _: LockId) {}
        fn barrier(&mut self, _: BarrierId) {}
        fn cond_wait(&mut self, _: CondId, _: LockId) {}
        fn cond_signal(&mut self, _: CondId, _: bool) {}
        fn phase(&mut self, _: u32) {}
        fn compute(&mut self, _: u64) {}
        fn flush(&mut self) {}
    }

    pub(crate) fn mempar(size: usize) -> (MemPar, ObjectId) {
        let obj = ObjectId(0);
        (MemPar { objs: HashMap::from([(obj, vec![0u8; size])]) }, obj)
    }

    #[test]
    fn typed_roundtrip_all_element_types() {
        let (mut p, obj) = mempar(64);
        let f: SharedArray<f64> = SharedArray::from_raw(obj, 8, SharingType::WriteMany);
        p.write_from(&f, 0, &[1.0, 2.0, 3.0]);
        p.set(&f, 3, -2.5);
        assert_eq!(p.read_vec(&f, 0, 4), vec![1.0, 2.0, 3.0, -2.5]);
        assert_eq!(p.get(&f, 1), 2.0);

        let i: SharedArray<i64> = f.cast();
        p.write_from(&i, 4, &[7, -9]);
        assert_eq!(p.read_vec(&i, 4, 2), vec![7, -9]);

        let u: SharedArray<u64> = f.cast();
        p.set(&u, 6, u64::MAX);
        assert_eq!(p.get(&u, 6), u64::MAX);

        let w: SharedArray<u32> = f.cast();
        assert_eq!(w.len(), 16);
        p.set(&w, 15, 0xdead_beef);
        assert_eq!(p.get(&w, 15), 0xdead_beef);

        let b: SharedArray<u8> = f.cast();
        p.write_from(&b, 0, &[9, 8, 7]);
        let mut out = [0u8; 3];
        p.read_into(&b, 0, &mut out);
        assert_eq!(out, [9, 8, 7]);
    }

    #[test]
    fn scalar_load_store_fetch_add() {
        let (mut p, obj) = mempar(8);
        let s: SharedScalar<i64> = SharedScalar::from_raw(obj, SharingType::GeneralReadWrite);
        p.store(&s, 41);
        assert_eq!(p.fetch_add_scalar(&s, 1), 41);
        assert_eq!(p.load(&s), 42);
    }

    #[test]
    fn region_reads_edits_and_writes_back_once() {
        let (mut p, obj) = mempar(64);
        let a: SharedArray<f64> = SharedArray::from_raw(obj, 8, SharingType::WriteMany);
        p.write_from(&a, 0, &[0.0; 8]);
        {
            let mut r = p.region(&a, 2..5);
            assert_eq!(r.len(), 3);
            r[0] = 10.0;
            r[2] = 30.0;
            // Drops here: written back.
        }
        assert_eq!(p.read_vec(&a, 0, 8), vec![0.0, 0.0, 10.0, 0.0, 30.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn clean_region_does_not_write_back() {
        let (mut p, obj) = mempar(16);
        let a: SharedArray<i64> = SharedArray::from_raw(obj, 2, SharingType::WriteMany);
        p.write_from(&a, 0, &[5, 6]);
        {
            let r = p.region(&a, 0..2);
            assert_eq!(r.as_slice(), &[5, 6]);
        }
        // Still intact (and no way to observe a spurious write with MemPar,
        // but the dirty flag is also covered by region_commit below).
        assert_eq!(p.read_vec(&a, 0, 2), vec![5, 6]);
    }

    #[test]
    fn region_commit_is_explicit_writeback() {
        let (mut p, obj) = mempar(16);
        let a: SharedArray<i64> = SharedArray::from_raw(obj, 2, SharingType::WriteMany);
        let mut r = p.region(&a, 0..2);
        r.as_mut_slice().copy_from_slice(&[1, 2]);
        r.commit();
        assert_eq!(p.read_vec(&a, 0, 2), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn typed_read_past_end_panics() {
        let (mut p, obj) = mempar(64);
        let a: SharedArray<f64> = SharedArray::from_raw(obj, 8, SharingType::WriteMany);
        let mut out = [0.0; 4];
        p.read_into(&a, 6, &mut out);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn typed_write_past_end_panics() {
        let (mut p, obj) = mempar(64);
        let a: SharedArray<f64> = SharedArray::from_raw(obj, 8, SharingType::WriteMany);
        p.write_from(&a, 7, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "inverted region")]
    fn inverted_region_panics() {
        let (mut p, obj) = mempar(64);
        let a: SharedArray<f64> = SharedArray::from_raw(obj, 8, SharingType::WriteMany);
        #[allow(clippy::reversed_empty_ranges)]
        let _ = p.region(&a, 5..2);
    }
}
