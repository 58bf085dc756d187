//! Completion tokens for pipelined (asynchronous) DSM operations.
//!
//! An async accessor (`ParTyped::write_from_async`, `fetch_add_scalar_async`,
//! ...) issues its operation without blocking and returns an [`OpToken`].
//! The token is a claim on the op's eventual result: `ParTyped::wait`
//! redeems it, and every synchronization point (acquire/release/barrier/
//! flush/exit) implicitly drains all in-flight ops first, per the release-
//! consistency rules the checker enforces — so a token can outlive its sync
//! block, but an op can never outlive one.
//!
//! The native backend completes ops immediately and hands back
//! already-[`TokenState::Ready`] tokens; the simulator and the wall-clock
//! fabrics return [`TokenState::Pending`] tokens carrying the per-thread
//! issue sequence number that identifies the op's slot in the thread's
//! in-flight window (a write, absorbed by write combining, comes back
//! ready).

use std::marker::PhantomData;

/// The raw state behind an [`OpToken`], produced and redeemed by the
/// backend's object-safe async hooks (`Par::{write_raw_async,
/// fetch_add_async, token_wait}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenState {
    /// The op already completed; the raw result rides in the token.
    /// (Unit results encode as 0.)
    Ready(i64),
    /// The op is in flight; the value is the issuing thread's op sequence
    /// number. Only meaningful to the context that issued it.
    Pending(u64),
}

/// Typed result carried by an [`OpToken`]: `()` for writes, `i64` for
/// fetch-and-add.
pub trait TokenValue: Sized {
    fn from_raw(raw: i64) -> Self;
}

impl TokenValue for () {
    fn from_raw(_: i64) -> Self {}
}

impl TokenValue for i64 {
    fn from_raw(raw: i64) -> Self {
        raw
    }
}

/// A claim on the result of one asynchronous DSM operation, redeemed with
/// `ParTyped::wait` (or implicitly completed at the next sync point —
/// dropping a token never loses the op, only the result value).
///
/// Tokens are not `Copy`: each one is redeemed at most once, by the thread
/// that issued it.
#[derive(Debug)]
#[must_use = "an async op completes by `wait(token)` or at the next sync point; \
              dropping the token discards its result"]
pub struct OpToken<T: TokenValue> {
    state: TokenState,
    _value: PhantomData<fn() -> T>,
}

impl<T: TokenValue> OpToken<T> {
    /// Wrap a backend token state. Applications never call this; the typed
    /// async accessors do.
    pub fn from_state(state: TokenState) -> Self {
        OpToken { state, _value: PhantomData }
    }

    /// The raw state, consumed when the token is redeemed.
    pub fn into_state(self) -> TokenState {
        self.state
    }

    /// Whether the op already completed (waiting will not block).
    pub fn is_ready(&self) -> bool {
        matches!(self.state, TokenState::Ready(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_state_roundtrip() {
        let t: OpToken<i64> = OpToken::from_state(TokenState::Ready(41));
        assert!(t.is_ready());
        assert_eq!(t.into_state(), TokenState::Ready(41));
        let t: OpToken<()> = OpToken::from_state(TokenState::Pending(7));
        assert!(!t.is_ready());
        assert_eq!(t.into_state(), TokenState::Pending(7));
    }

    #[test]
    fn token_values_decode() {
        assert_eq!(i64::from_raw(-3), -3);
        <() as TokenValue>::from_raw(99);
    }
}
