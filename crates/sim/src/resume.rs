//! [`ResumeSlot`]: where a blocked application thread waits for its ops'
//! results on rt and TCP. (The simulator's threads are fibers: no slot.)
//!
//! The rule at every resume site: **enqueue the result while holding the
//! lock that ordered it, and wake the thread only after releasing that
//! lock.** A thread woken while its waker still holds a lock it needs next
//! preempts the waker, blocks on that lock and switches back: three
//! context switches where one would do. So [`ResumeSlot::push`] only
//! enqueues and reports whether the taker is parked, and the caller calls
//! [`ResumeSlot::wake`] once it has dropped every lock it holds. A caller
//! that holds none uses [`ResumeSlot::deliver`].
//!
//! The slot's own mutex is never held across a wake either: `push` returns
//! before anyone is notified.

use crate::op::OpResult;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One thread's queue of op results: a FIFO, so results come out in the
/// order they were pushed.
#[derive(Default)]
pub struct ResumeSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Default)]
struct SlotState {
    queue: VecDeque<OpResult>,
    /// No result will come any more: a take on an empty queue fails.
    closed: bool,
    /// The taker is parked on the condvar and nobody has promised to wake
    /// it yet.
    waiting: bool,
}

/// Why a take returned no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeError {
    /// The timeout passed with nothing queued.
    TimedOut,
    /// The slot was closed and everything queued before that is taken.
    Closed,
}

impl ResumeSlot {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        // No code panics while holding this lock; recover the state anyway.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue `result` for the taker. `true` means the taker is parked and
    /// this caller now owes it one [`ResumeSlot::wake`], to be made after
    /// releasing every lock the caller holds. Only the first push after the
    /// taker parked returns `true`, so the later results of a pipelined
    /// window cost no wake call at all.
    #[must_use = "a `true` push must be followed by `wake` once locks are released"]
    pub fn push(&self, result: OpResult) -> bool {
        let mut state = self.lock();
        state.queue.push_back(result);
        std::mem::take(&mut state.waiting)
    }

    /// Wake the parked taker (after a [`ResumeSlot::push`] that returned
    /// `true`).
    pub fn wake(&self) {
        self.ready.notify_one();
    }

    /// Push and wake at once: for a caller that holds no lock the woken
    /// thread could need.
    pub fn deliver(&self, result: OpResult) {
        if self.push(result) {
            self.wake();
        }
    }

    /// No more results will come. A parked taker wakes; once the queue is
    /// empty every take fails with [`TakeError::Closed`].
    pub fn close(&self) {
        let parked = {
            let mut state = self.lock();
            state.closed = true;
            std::mem::take(&mut state.waiting)
        };
        if parked {
            self.ready.notify_all();
        }
    }

    /// The oldest result, parking until one is pushed. Fails only once the
    /// slot is closed and empty.
    pub fn take(&self) -> Result<OpResult, TakeError> {
        self.take_until(None)
    }

    /// As [`ResumeSlot::take`], giving up with [`TakeError::TimedOut`] after
    /// `timeout` with nothing queued.
    pub fn take_timeout(&self, timeout: Duration) -> Result<OpResult, TakeError> {
        self.take_until(Some(timeout))
    }

    fn take_until(&self, timeout: Option<Duration>) -> Result<OpResult, TakeError> {
        let mut state = self.lock();
        let mut deadline = None;
        loop {
            if let Some(result) = state.queue.pop_front() {
                return Ok(result);
            }
            if state.closed {
                return Err(TakeError::Closed);
            }
            state.waiting = true;
            state = match timeout {
                None => self.ready.wait(state).unwrap_or_else(PoisonError::into_inner),
                Some(timeout) => {
                    let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        state.waiting = false;
                        return Err(TakeError::TimedOut);
                    }
                    self.ready.wait_timeout(state, left).unwrap_or_else(PoisonError::into_inner).0
                }
            };
            state.waiting = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn parked(slot: &ResumeSlot) -> bool {
        slot.lock().waiting
    }

    #[test]
    fn results_come_out_in_push_order() {
        let slot = ResumeSlot::new();
        for v in 1..=4 {
            assert!(!slot.push(OpResult::Value(v)));
        }
        for v in 1..=4 {
            assert_eq!(slot.take(), Ok(OpResult::Value(v)));
        }
    }

    #[test]
    fn only_the_first_push_to_a_parked_taker_asks_for_a_wake() {
        let slot = Arc::new(ResumeSlot::new());
        // Nobody parked: a whole pipelined window of pushes asks for no wake.
        for v in 0..16 {
            assert!(!slot.push(OpResult::Value(v)), "push {v} with no taker parked");
        }
        for v in 0..16 {
            assert_eq!(slot.take(), Ok(OpResult::Value(v)));
        }
        // A real second thread parks on the empty slot.
        let taker = {
            let slot = slot.clone();
            std::thread::spawn(move || slot.take())
        };
        while !parked(&slot) {
            std::thread::yield_now();
        }
        assert!(slot.push(OpResult::Value(7)), "the taker is parked");
        assert!(!slot.push(OpResult::Value(8)), "the wake is already owed");
        slot.wake();
        assert_eq!(taker.join().unwrap(), Ok(OpResult::Value(7)));
        assert_eq!(slot.take(), Ok(OpResult::Value(8)));
    }

    #[test]
    fn close_wakes_a_parked_taker_and_every_later_take_fails() {
        let slot = Arc::new(ResumeSlot::new());
        let taker = {
            let slot = slot.clone();
            std::thread::spawn(move || slot.take())
        };
        while !parked(&slot) {
            std::thread::yield_now();
        }
        slot.close();
        assert_eq!(taker.join().unwrap(), Err(TakeError::Closed));
        assert_eq!(slot.take(), Err(TakeError::Closed));
        assert_eq!(slot.take_timeout(Duration::from_millis(1)), Err(TakeError::Closed));
    }

    #[test]
    fn a_closed_slot_still_hands_out_what_was_queued_first() {
        let slot = ResumeSlot::new();
        assert!(!slot.push(OpResult::Unit));
        slot.close();
        assert_eq!(slot.take(), Ok(OpResult::Unit));
        assert_eq!(slot.take(), Err(TakeError::Closed));
    }

    #[test]
    fn take_timeout_on_an_empty_slot_times_out() {
        let slot = ResumeSlot::new();
        assert_eq!(slot.take_timeout(Duration::from_millis(5)), Err(TakeError::TimedOut));
        assert!(!parked(&slot), "a timed-out taker is no longer parked");
        assert!(!slot.push(OpResult::Value(3)));
        assert_eq!(slot.take_timeout(Duration::from_millis(5)), Ok(OpResult::Value(3)));
    }
}
