//! The event queue.
//!
//! Events are ordered by virtual time, with a global push-sequence number as
//! the tie-breaker. The tie-breaker is what makes simultaneous events (two
//! messages arriving at the same instant, a thread resuming while a timer
//! fires) execute in a reproducible order.

use crate::op::OpResult;
use munin_types::{NodeId, ThreadId, VirtualTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// Resume an application thread with the result of its pending op.
    ThreadResume { thread: ThreadId, result: OpResult },
    /// The transport hands `dst` the next message(s) from `src`.
    Deliver { src: NodeId, dst: NodeId },
    /// A server timer registered via `Kernel::set_timer`.
    Timer { node: NodeId, token: u64 },
}

#[derive(Debug)]
pub struct Event {
    pub at: VirtualTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-queue of events in (virtual time, insertion order).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, at: VirtualTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resume(t: u32) -> EventKind {
        EventKind::ThreadResume { thread: ThreadId(t), result: OpResult::Unit }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(VirtualTime::micros(30), resume(0));
        q.push(VirtualTime::micros(10), resume(1));
        q.push(VirtualTime::micros(20), resume(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.as_micros()).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = VirtualTime::micros(5);
        q.push(t, resume(7));
        q.push(t, resume(8));
        q.push(t, resume(9));
        let mut threads = Vec::new();
        while let Some(e) = q.pop() {
            if let EventKind::ThreadResume { thread, .. } = e.kind {
                threads.push(thread.0);
            }
        }
        assert_eq!(threads, vec![7, 8, 9], "FIFO among simultaneous events");
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(VirtualTime::ZERO, resume(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
