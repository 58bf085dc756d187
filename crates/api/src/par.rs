//! The application-facing shared-memory interface.
//!
//! [`Par`] is [`munin_sim::DsmThread`] under its application name: the
//! one thread trait every backend implements (the simulator's, rt's and
//! TCP's thread contexts, and native threads). It is object-safe and works
//! in *raw bytes*; its zero-copy pair is `read_raw_into` / `write_raw`.
//! Two layers sit over it here:
//!
//! 1. [`ParTyped`] — the typed accessors every application uses, generic
//!    over [`Element`] and driven by [`SharedArray`] / [`SharedScalar`]
//!    handles. Bounds and element types are checked here, at the API layer,
//!    with precise panics; buffers are caller-owned, so steady-state access
//!    does not allocate.
//! 2. [`Region`] — a scoped read-modify-write view of an array range
//!    (fetch once, edit locally, write back once), the natural shape for
//!    stripe-local write-many access.

pub use munin_sim::DsmThread as Par;
use munin_types::element::{bytes_of, bytes_of_mut};
use munin_types::{ByteRange, Element, OpToken, SharedArray, SharedScalar, TokenValue};
use std::borrow::Cow;

/// Decode a little-endian byte buffer in place into `out`.
fn decode_into<T: Element>(bytes: &[u8], out: &mut [T]) {
    for (chunk, slot) in bytes.chunks_exact(T::SIZE).zip(out.iter_mut()) {
        *slot = T::read_le(chunk);
    }
}

/// `vals` in the little-endian wire format: borrowed as is on a
/// little-endian host, transcoded into a fresh buffer on a big-endian one.
fn le_bytes<T: Element>(vals: &[T]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        return Cow::Borrowed(bytes_of(vals));
    }
    let mut bytes = vec![0u8; vals.len() * T::SIZE];
    for (chunk, v) in bytes.chunks_exact_mut(T::SIZE).zip(vals) {
        v.write_le(chunk);
    }
    Cow::Owned(bytes)
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
        self.write_raw(arr.id(), range.start, &le_bytes(vals));
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
    // simulator and the wall-clock fabrics this keeps up to
    // `munin_sim::MAX_INFLIGHT` ops in flight per thread; on the native
    // backend the token comes back already complete.

    /// Asynchronous [`ParTyped::write_from`].
    #[track_caller]
    fn write_from_async<T: Element>(
        &mut self,
        arr: &SharedArray<T>,
        start: u32,
        vals: &[T],
    ) -> OpToken<()> {
        let range = arr.byte_range(start, vals.len() as u32);
        OpToken::from_state(self.write_raw_async(arr.id(), range.start, &le_bytes(vals)))
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
            self.par.write_raw(self.arr.id(), range.start, &le_bytes(&self.buf));
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
    use munin_sim::{DsmOp, DsmThread, OpResult};
    use munin_types::{NodeId, ObjectId, SharingType, ThreadId};
    use std::collections::HashMap;

    /// A toy in-memory, single-threaded [`Par`] for testing the access
    /// layers: every op completes inline.
    pub(crate) struct MemPar {
        pub(crate) objs: HashMap<ObjectId, Vec<u8>>,
    }

    impl DsmThread for MemPar {
        fn op(&mut self, op: DsmOp) -> OpResult {
            let span = |range: ByteRange| range.start as usize..range.end() as usize;
            match op {
                DsmOp::Read { obj, range } => {
                    OpResult::Bytes(self.objs[&obj][span(range)].to_vec())
                }
                DsmOp::Write { obj, range, data } => {
                    self.objs.get_mut(&obj).unwrap()[span(range)].copy_from_slice(&data);
                    OpResult::Unit
                }
                DsmOp::AtomicFetchAdd { obj, offset, delta } => {
                    let word =
                        &mut self.objs.get_mut(&obj).unwrap()[span(ByteRange::new(offset, 8))];
                    let old = i64::from_le_bytes((&*word).try_into().unwrap());
                    word.copy_from_slice(&(old + delta).to_le_bytes());
                    OpResult::Value(old)
                }
                _ => OpResult::Unit,
            }
        }
        fn thread_id(&self) -> ThreadId {
            ThreadId(0)
        }
        fn node(&self) -> NodeId {
            NodeId(0)
        }
        fn n_nodes(&self) -> usize {
            1
        }
        fn n_threads(&self) -> usize {
            1
        }
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
