//! Error types shared by the DSM runtimes.

use crate::ids::{LockId, ObjectId, ThreadId};
use crate::range::ByteRange;
use crate::sharing::SharingType;
use std::fmt;

/// Errors surfaced to application threads by a DSM runtime.
///
/// Protocol-internal failures (a message held back by an injected fault,
/// etc.) are never visible here; these are programming errors or
/// declared-semantics violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsmError {
    /// Access to an object that was never allocated.
    UnknownObject(ObjectId),
    /// Access outside the object's bounds.
    OutOfBounds { obj: ObjectId, range: ByteRange, size: u32 },
    /// A write to an object whose declared sharing type forbids it
    /// (e.g. writing a `WriteOnce` object after it has been published, or a
    /// remote thread touching a `Private` object).
    SharingViolation { obj: ObjectId, sharing: SharingType, detail: &'static str },
    /// Unlock of a lock the thread does not hold.
    NotLockHolder { lock: LockId, thread: ThreadId },
    /// A barrier was entered with an inconsistent participant count.
    BarrierMisuse { expected: u32, got: u32 },
    /// The runtime detected livelock (e.g. a DSM spin lock exceeded its
    /// attempt limit) — reported so experiments fail loudly instead of
    /// spinning forever.
    Livelock(&'static str),
    /// Internal invariant violation; always a bug in the runtime, never in
    /// the application.
    Internal(String),
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsmError::UnknownObject(o) => write!(f, "unknown object {o}"),
            DsmError::OutOfBounds { obj, range, size } => {
                write!(f, "access {range} out of bounds for {obj} (size {size})")
            }
            DsmError::SharingViolation { obj, sharing, detail } => {
                write!(f, "sharing violation on {obj} ({sharing}): {detail}")
            }
            DsmError::NotLockHolder { lock, thread } => {
                write!(f, "{thread} released {lock} without holding it")
            }
            DsmError::BarrierMisuse { expected, got } => {
                write!(f, "barrier misuse: expected {expected} participants, got {got}")
            }
            DsmError::Livelock(what) => write!(f, "livelock detected: {what}"),
            DsmError::Internal(msg) => write!(f, "internal DSM error: {msg}"),
        }
    }
}

impl std::error::Error for DsmError {}

pub type DsmResult<T> = Result<T, DsmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = DsmError::OutOfBounds { obj: ObjectId(3), range: ByteRange::new(8, 16), size: 16 };
        assert_eq!(e.to_string(), "access [8..24) out of bounds for obj3 (size 16)");

        let e = DsmError::SharingViolation {
            obj: ObjectId(1),
            sharing: SharingType::WriteOnce,
            detail: "write after publication",
        };
        assert!(e.to_string().contains("write-once"));

        let e = DsmError::NotLockHolder { lock: LockId(2), thread: ThreadId(7) };
        assert!(e.to_string().contains("lk2"));
        assert!(e.to_string().contains("t7"));
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> = Box::new(DsmError::Livelock("spin lock"));
        assert!(e.to_string().contains("livelock"));
    }
}
