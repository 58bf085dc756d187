//! The first-party wire codec.
//!
//! The workspace's `serde` is an offline stub whose derives expand to
//! nothing (`vendor/README.md`), so the socket fabric brings its own
//! serializer: a little-endian, length-delimited binary format with manual
//! `Wire` implementations for every type that crosses a process boundary —
//! application operations (`DsmOp`/`OpResult`), the registry's
//! `ObjectDecl`s, run configuration, and traffic statistics. Protocol
//! payloads (`MuninMsg`, `IvyMsg`, `TardisMsg`) implement [`Wire`] in their
//! own crates via the exported [`wire_struct!`](crate::wire_struct)/[`wire_enum!`](crate::wire_enum) macros.
//!
//! ## Format
//!
//! * integers: fixed-width little-endian; `usize` travels as `u64`
//! * `bool`: one byte, `0`/`1` (anything else is a decode error)
//! * `String` / `Vec<u8>`: `u32` byte length + raw bytes
//! * `Vec<T>` / `BTreeMap<K, V>`: `u32` element count + elements
//! * `Option<T>`: presence byte + payload
//! * enums: one tag byte + the variant's fields in declaration order
//!
//! Every decode validates lengths against the remaining input before
//! allocating, so a truncated or corrupt frame produces a [`WireError`]
//! naming what failed — never a panic or an attacker-sized allocation.
//! Round-trip identity (`decode(encode(x)) == x`) for every message variant
//! is property-tested in `munin-tcp`'s `tests/wire.rs`.

use munin_mem::{Diff, PageId};
use munin_net::{KindStat, MsgClass, NetStats};
use munin_obs::{CovRow, SrvSpan};
use munin_sim::{DsmOp, OpResult};
use munin_types::{
    AllocPolicy, BarrierDecl, BarrierId, ByteRange, CondDecl, CondId, CostModel, DsmError,
    IvyConfig, LockDecl, LockId, MuninConfig, NodeId, ObjectDecl, ObjectId, ReadMostlyMode,
    SharingType, SyncDecls, SyncStrategy, TardisConfig, Telemetry, ThreadId, UpdatePolicy,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A decode failure: truncated input, a bad tag, or a structural invariant
/// violation (e.g. out-of-order diff runs). Encoding never fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

pub type WireResult<T> = Result<T, WireError>;

/// Binary serialization for one type. `put` appends the encoding to `out`;
/// `take` consumes the encoding from the front of `inp`.
pub trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(inp: &mut &[u8]) -> WireResult<Self>;

    /// Encode into a fresh buffer (convenience for tests and one-shot
    /// frames; the transport reuses scratch buffers instead).
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Decode a complete buffer, requiring it to be fully consumed.
    fn decode(mut inp: &[u8]) -> WireResult<Self> {
        let v = Self::take(&mut inp)?;
        if !inp.is_empty() {
            return Err(WireError(format!("{} trailing bytes after value", inp.len())));
        }
        Ok(v)
    }
}

/// Consume and return the next `n` bytes, or fail without allocating.
pub fn need<'a>(inp: &mut &'a [u8], n: usize) -> WireResult<&'a [u8]> {
    if inp.len() < n {
        return Err(WireError(format!("truncated: needed {n} bytes, had {}", inp.len())));
    }
    let (head, tail) = inp.split_at(n);
    *inp = tail;
    Ok(head)
}

pub fn put_u8(v: u8, out: &mut Vec<u8>) {
    out.push(v);
}

pub fn take_u8(inp: &mut &[u8]) -> WireResult<u8> {
    Ok(need(inp, 1)?[0])
}

/// Decode a `u32` element count, sanity-checked against the remaining input
/// (every element encodes to at least one byte, so a count larger than the
/// remaining byte count is corrupt — reject it before allocating).
pub fn take_count(inp: &mut &[u8]) -> WireResult<usize> {
    let n = u32::take(inp)? as usize;
    if n > inp.len() {
        return Err(WireError(format!("count {n} exceeds remaining {} bytes", inp.len())));
    }
    Ok(n)
}

macro_rules! wire_int {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(inp: &mut &[u8]) -> WireResult<Self> {
                let b = need(inp, std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(b.try_into().expect("sized slice")))
            }
        }
    )+};
}

wire_int!(u16, u32, u64, i64);

/// A one-byte protocol tag (see [`crate::Protocol::TAG`]). A newtype
/// rather than a `Wire` impl for bare `u8`: that blanket impl would
/// collide with the specialized bulk `Vec<u8>` codec that keeps data
/// payloads fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoTag(pub u8);

impl Wire for ProtoTag {
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(self.0, out);
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        Ok(ProtoTag(take_u8(inp)?))
    }
}

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        usize::try_from(u64::take(inp)?).map_err(|_| WireError("usize overflow".into()))
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        Ok(f64::from_bits(u64::take(inp)?))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        put_u8(u8::from(*self), out);
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        match take_u8(inp)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError(format!("bad bool byte {b}"))),
        }
    }
}

impl Wire for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len()).expect("byte payloads fit u32").put(out);
        out.extend_from_slice(self);
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        let n = u32::take(inp)? as usize;
        Ok(need(inp, n)?.to_vec())
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len()).expect("strings fit u32").put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        let n = u32::take(inp)? as usize;
        String::from_utf8(need(inp, n)?.to_vec())
            .map_err(|e| WireError(format!("invalid utf-8 string: {e}")))
    }
}

/// `&'static str` fields (diagnostic details inside [`DsmError`]) decode
/// through a global intern table: the distinct detail strings are a small
/// fixed set compiled into the binaries, so the leak per *new* string is
/// bounded by that set's size, not by traffic volume.
impl Wire for &'static str {
    fn put(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len()).expect("strings fit u32").put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        Ok(intern(String::take(inp)?))
    }
}

fn intern(s: String) -> &'static str {
    use std::collections::HashSet;
    use std::sync::Mutex;
    static TABLE: Mutex<Option<HashSet<&'static str>>> = Mutex::new(None);
    let mut guard = TABLE.lock().expect("intern table poisoned");
    let table = guard.get_or_insert_with(HashSet::new);
    if let Some(hit) = table.get(s.as_str()) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.into_boxed_str());
    table.insert(leaked);
    leaked
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len()).expect("vec lengths fit u32").put(out);
        for item in self {
            item.put(out);
        }
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        let n = take_count(inp)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::take(inp)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => put_u8(0, out),
            Some(v) => {
                put_u8(1, out);
                v.put(out);
            }
        }
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        match take_u8(inp)? {
            0 => Ok(None),
            1 => Ok(Some(T::take(inp)?)),
            b => Err(WireError(format!("bad option byte {b}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        let a = A::take(inp)?;
        let b = B::take(inp)?;
        Ok((a, b))
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len()).expect("map lengths fit u32").put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        let n = take_count(inp)?;
        let mut m = BTreeMap::new();
        for _ in 0..n {
            let k = K::take(inp)?;
            let v = V::take(inp)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        Ok(Arc::new(T::take(inp)?))
    }
}

impl Wire for Duration {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_secs().put(out);
        self.subsec_nanos().put(out);
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        let secs = u64::take(inp)?;
        let nanos = u32::take(inp)?;
        if nanos >= 1_000_000_000 {
            return Err(WireError(format!("bad duration nanos {nanos}")));
        }
        Ok(Duration::new(secs, nanos))
    }
}

macro_rules! wire_newtype {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }
            fn take(inp: &mut &[u8]) -> WireResult<Self> {
                Ok($ty(Wire::take(inp)?))
            }
        }
    )+};
}

wire_newtype!(NodeId, ThreadId, ObjectId, LockId, BarrierId, CondId, PageId);

/// Implement [`Wire`] for a struct by encoding its fields in declaration
/// order. Exported so protocol crates and the TCP fabric can use it for
/// their own frame and message types.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $( $crate::wire::Wire::put(&self.$f, out); )+
            }
            fn take(inp: &mut &[u8]) -> $crate::wire::WireResult<Self> {
                $( let $f = $crate::wire::Wire::take(inp)?; )+
                Ok($ty { $($f),+ })
            }
        }
    };
}

/// Implement [`Wire`] for an enum: one tag byte, then the variant's fields
/// in declaration order. Supports struct variants (`{ fields }`) and tuple
/// variants (`( bindings )`). An unknown tag is a decode error, never a
/// panic.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $( $tag:literal => $V:ident $( { $($f:ident),+ } )? $( ( $($b:ident),+ ) )? ),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $( $ty::$V $( { $($f),+ } )? $( ( $($b),+ ) )? => {
                        $crate::wire::put_u8($tag, out);
                        $( $( $crate::wire::Wire::put($f, out); )+ )?
                        $( $( $crate::wire::Wire::put($b, out); )+ )?
                    } )+
                }
            }
            fn take(inp: &mut &[u8]) -> $crate::wire::WireResult<Self> {
                match $crate::wire::take_u8(inp)? {
                    $( $tag => Ok($ty::$V
                        $( { $($f: $crate::wire::Wire::take(inp)?),+ } )?
                        $( ( $( { stringify!($b); $crate::wire::Wire::take(inp)? } ),+ ) )?
                    ), )+
                    t => Err($crate::wire::WireError(format!(
                        "bad {} tag {t}", stringify!($ty)
                    ))),
                }
            }
        }
    };
}

// ---- shared value types --------------------------------------------------

wire_struct!(ByteRange { start, len });

wire_enum!(SharingType {
    0 => WriteOnce,
    1 => WriteMany,
    2 => Result,
    3 => Migratory,
    4 => ProducerConsumer,
    5 => Private,
    6 => ReadMostly,
    7 => GeneralReadWrite,
    8 => Synchronization,
});

wire_struct!(ObjectDecl { id, name, size, sharing, home, associated_lock, eager });

wire_enum!(DsmError {
    0 => UnknownObject(obj),
    1 => OutOfBounds { obj, range, size },
    2 => SharingViolation { obj, sharing, detail },
    3 => NotLockHolder { lock, thread },
    4 => BarrierMisuse { expected, got },
    5 => Livelock(what),
    6 => Internal(msg),
});

impl Wire for Diff {
    fn put(&self, out: &mut Vec<u8>) {
        u32::try_from(self.run_count()).expect("run counts fit u32").put(out);
        for (range, bytes) in self.runs() {
            range.start.put(out);
            u32::try_from(bytes.len()).expect("run lengths fit u32").put(out);
            out.extend_from_slice(bytes);
        }
    }
    fn take(inp: &mut &[u8]) -> WireResult<Self> {
        let n = take_count(inp)?;
        let mut d = Diff::default();
        for _ in 0..n {
            let start = u32::take(inp)?;
            let len = u32::take(inp)? as usize;
            let bytes = need(inp, len)?;
            if !d.append_run(start, bytes) {
                return Err(WireError(format!(
                    "diff run at {start} (+{len}) violates run-table order"
                )));
            }
        }
        Ok(d)
    }
}

// ---- application operations ----------------------------------------------

wire_enum!(DsmOp {
    0 => Alloc(decl),
    1 => Read { obj, range },
    2 => Write { obj, range, data },
    3 => AtomicFetchAdd { obj, offset, delta },
    4 => Lock(lock),
    5 => Unlock(lock),
    6 => BarrierWait(barrier),
    7 => CondWait { cond, lock },
    8 => CondSignal { cond, broadcast },
    9 => Flush,
    10 => Phase(n),
    11 => Compute(us),
    12 => Exit,
});

wire_enum!(OpResult {
    0 => Unit,
    1 => Bytes(data),
    2 => Value(v),
    3 => Object(obj),
    4 => Err(err),
});

// ---- statistics -----------------------------------------------------------

wire_enum!(MsgClass {
    0 => Data,
    1 => Control,
    2 => Update,
    3 => Sync,
    4 => Ack,
});

wire_struct!(KindStat { count, bytes });

wire_struct!(NetStats {
    messages,
    bytes,
    by_class,
    by_kind,
    multicasts,
    multicast_saved,
    dropped,
    retransmissions,
    gave_up,
});

// ---- telemetry -------------------------------------------------------------

wire_enum!(Telemetry {
    0 => Off,
    1 => Counters,
    2 => Spans,
});

wire_struct!(SrvSpan { seq, fwd_us, dispatch_us, reply_us });

// Coverage rows ship home from child node processes in `Done` frames.
wire_struct!(CovRow { proto, object, state, event, count });

// ---- run configuration ----------------------------------------------------

wire_struct!(CostModel {
    msg_fixed_us,
    msg_per_kib_us,
    local_access_us,
    fault_overhead_us,
    local_lock_us,
    flush_per_object_us,
    hardware_multicast,
});

wire_enum!(ReadMostlyMode {
    0 => RemoteAccess,
    1 => ReplicatedRefresh,
    2 => ReplicatedInvalidate,
    3 => Adaptive,
});

wire_enum!(UpdatePolicy {
    0 => Refresh,
    1 => Invalidate,
    2 => Adaptive,
});

wire_enum!(SyncStrategy {
    0 => ProxyLocks,
    1 => CentralServer,
    2 => DsmSpin,
});

wire_enum!(AllocPolicy {
    0 => Packed,
    1 => PageAligned,
});

wire_struct!(MuninConfig {
    cost,
    duq_max_objects,
    delayed_updates,
    read_mostly,
    write_many_policy,
    pc_policy,
    write_once_page,
    sync,
    adaptive_typing,
    adapt_min_samples,
    adapt_read_fraction,
    chaos_skip_updates,
});

wire_struct!(IvyConfig {
    cost,
    page_size,
    alloc,
    sync,
    spin_backoff_us,
    spin_attempt_limit,
    barrier_poll_limit,
});

wire_struct!(TardisConfig { cost, lease, decay_us, chaos_skip_wts });

wire_struct!(LockDecl { id, home });
wire_struct!(BarrierDecl { id, home, count });
wire_struct!(CondDecl { id, home });
wire_struct!(SyncDecls { locks, barriers, conds });
