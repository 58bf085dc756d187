//! The wall-clock timer thread: the real-time replacement for the
//! simulator's virtual-time timer events.
//!
//! Servers arm timers through `KernelApi::set_timer`; the kernel converts
//! the relative delay into a deadline, bumps `timers_pending`, and mails it
//! here. The thread keeps a min-heap of deadlines and hands `(node, token)`
//! to the fabric's `deliver` sink when each comes due: the channel fabric
//! mails `NodeEvent::Timer(token)` to the owning node's inbox, the TCP
//! fabric runs the node's step on this thread. It exits when every
//! `TimerReq` sender (one per node kernel plus the builder's) is gone.
//!
//! Two invariants matter for the stall watchdog:
//!
//! * **`timers_pending` is decremented only after delivery.** The watchdog
//!   treats "a timer is pending" as proof the run can still make progress,
//!   so the event must be delivered before the counter
//!   drops — decrementing first opens a window where a due-but-undelivered
//!   timer looks like a genuine stall.
//! * **Firing counts as activity.** The epoch bump on fire restarts the
//!   watchdog's stability window, giving the destination server a full
//!   stall timeout to drain the event it was just handed.

use crate::fabric::Shared;
use munin_types::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Instant;

/// A timer armed by a server.
pub struct TimerReq {
    pub due: Instant,
    pub node: NodeId,
    pub token: u64,
}

/// Heap entry ordered by deadline (earliest first via `Reverse`), with an
/// arming sequence number as tie-break so equal deadlines fire in order.
type Entry = Reverse<(Instant, u64, u16, u64)>;

pub fn run_timer_thread(
    rx: Receiver<TimerReq>,
    mut deliver: impl FnMut(NodeId, u64),
    shared: Arc<Shared>,
) {
    let pending = &shared.timers_pending;
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    let mut seq: u64 = 0;
    loop {
        // Fire everything due, then wait for the next deadline or request.
        let now = Instant::now();
        while let Some(&Reverse((due, _, node, token))) = heap.peek() {
            if due > now {
                break;
            }
            heap.pop();
            // Deliver, then mark activity, then decrement — in that order.
            deliver(NodeId(node), token);
            shared.mark_activity();
            pending.fetch_sub(1, Ordering::Release);
        }
        let req = match heap.peek() {
            // A deadline is pending: sleep at most until it is due.
            Some(&Reverse((due, ..))) => {
                match rx.recv_timeout(due.saturating_duration_since(now)) {
                    Ok(req) => Some(req),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            // Idle: block until a request arrives. No periodic wake-up is
            // needed — a blocking `recv` returns `Err(Disconnected)` the
            // moment the last sender is dropped, so teardown is noticed
            // immediately without burning a wake-up every 100 ms for the
            // whole run.
            None => match rx.recv() {
                Ok(req) => Some(req),
                Err(_) => break,
            },
        };
        if let Some(req) = req {
            seq += 1;
            heap.push(Reverse((req.due, seq, req.node.0, req.token)));
        }
    }
    // All kernels gone: the timers still in the heap (and their pending
    // counts, which the arming kernels added) will never be delivered.
    pending.fetch_sub(heap.len(), Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::NodeEvent;
    use std::sync::atomic::Ordering;
    use std::sync::mpsc::{channel, Sender};
    use std::time::Duration;

    // The payload type is irrelevant to the timer thread; any Send type do.
    type Ev = NodeEvent<u8>;

    fn harness() -> (Sender<TimerReq>, Receiver<Ev>, Arc<Shared>, std::thread::JoinHandle<()>) {
        let (timer_tx, timer_rx) = channel();
        let (inbox_tx, inbox_rx) = channel::<Ev>();
        let shared = Arc::new(Shared::new(Vec::new(), 0, munin_types::Telemetry::Off));
        let s = shared.clone();
        let deliver = move |_node, token| {
            let _ = inbox_tx.send(NodeEvent::Timer(token));
        };
        let j = std::thread::spawn(move || run_timer_thread(timer_rx, deliver, s));
        (timer_tx, inbox_rx, shared, j)
    }

    /// Arm a timer the way `RtKernel::set_timer` does: bump the pending
    /// count *before* mailing the request.
    fn arm(tx: &Sender<TimerReq>, shared: &Shared, delay: Duration, token: u64) {
        shared.timers_pending.fetch_add(1, Ordering::Release);
        tx.send(TimerReq { due: Instant::now() + delay, node: NodeId(0), token })
            .expect("timer thread alive");
    }

    fn expect_timer(ev: Ev) -> u64 {
        match ev {
            NodeEvent::Timer(tok) => tok,
            _ => panic!("unexpected non-timer event"),
        }
    }

    /// Regression for the timer-in-flight watchdog race: from the moment
    /// `timers_pending` drops to zero, the fired event must already be in
    /// the destination inbox (the old code decremented before sending,
    /// leaving a window where the watchdog saw "no pending timer" while the
    /// event was still undelivered). Repeats to give a regressed ordering
    /// many chances to expose the gap.
    #[test]
    fn pending_never_drops_before_the_event_is_delivered() {
        let (tx, inbox, shared, join) = harness();
        for round in 0..200u64 {
            arm(&tx, &shared, Duration::from_micros(50), round);
            // Spin until the timer thread claims nothing is pending …
            while shared.timers_pending.load(Ordering::Acquire) != 0 {
                std::hint::spin_loop();
            }
            // … at which point the event must be receivable *now*.
            let ev = inbox.try_recv().unwrap_or_else(|_| {
                panic!("round {round}: pending hit 0 with the Timer event still undelivered")
            });
            assert_eq!(expect_timer(ev), round);
        }
        drop(tx);
        join.join().unwrap();
    }

    /// Firing a timer must bump the activity epoch so the watchdog's
    /// stability window restarts while the event sits in the inbox.
    #[test]
    fn firing_counts_as_kernel_activity() {
        let (tx, inbox, shared, join) = harness();
        let before = shared.activity.load(Ordering::Relaxed);
        arm(&tx, &shared, Duration::from_micros(10), 7);
        assert_eq!(expect_timer(inbox.recv_timeout(Duration::from_secs(5)).unwrap()), 7);
        // The fire sequence is send → mark_activity → decrement, so the
        // epoch bump is guaranteed visible once the pending count drops.
        while shared.timers_pending.load(Ordering::Acquire) != 0 {
            std::hint::spin_loop();
        }
        assert!(
            shared.activity.load(Ordering::Relaxed) > before,
            "timer fire did not bump the activity epoch"
        );
        drop(tx);
        join.join().unwrap();
    }

    /// Equal-deadline timers fire in arming order; later deadlines fire
    /// after earlier ones even when armed first.
    #[test]
    fn timers_fire_in_deadline_then_arming_order() {
        let (tx, inbox, shared, join) = harness();
        let due = Instant::now() + Duration::from_millis(20);
        shared.timers_pending.fetch_add(3, Ordering::Release);
        tx.send(TimerReq { due: due + Duration::from_millis(10), node: NodeId(0), token: 3 })
            .unwrap();
        tx.send(TimerReq { due, node: NodeId(0), token: 1 }).unwrap();
        tx.send(TimerReq { due, node: NodeId(0), token: 2 }).unwrap();
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(expect_timer(inbox.recv_timeout(Duration::from_secs(5)).unwrap()));
        }
        assert_eq!(got, vec![1, 2, 3]);
        drop(tx);
        join.join().unwrap();
    }

    /// With an empty heap the thread blocks in `recv` (no 100 ms polling)
    /// and still exits promptly when the last sender drops; armed-but-
    /// undeliverable timers left in the heap are drained from the pending
    /// count on exit.
    #[test]
    fn idle_thread_exits_on_disconnect_and_drains_pending() {
        let (tx, inbox, shared, join) = harness();
        // Never fires: deadline far in the future.
        arm(&tx, &shared, Duration::from_secs(3600), 9);
        assert_eq!(shared.timers_pending.load(Ordering::Acquire), 1);
        drop(tx);
        join.join().unwrap();
        assert_eq!(
            shared.timers_pending.load(Ordering::Acquire),
            0,
            "undelivered heap entries must not leave the pending count stuck"
        );
        assert!(inbox.try_recv().is_err(), "nothing should have fired");
    }
}
