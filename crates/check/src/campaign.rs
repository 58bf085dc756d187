//! Invariant checking over fault-campaign observation logs.
//!
//! A campaign run records an [`ObsEvent`] stream while the plan executes:
//! writes at intent, reads at completion (with the observed write label),
//! lock acquire after `lock()` returns / release before `unlock()` is
//! called, barrier *arrivals* before the barrier call, and atomic
//! fetch-adds with the previous value they observed. [`check_campaign`]
//! validates the stream against the coherence contract:
//!
//! * **lock discipline / exclusion** — acquires and releases nest per lock,
//!   and no two threads hold one lock at once (sound even on real-time
//!   backends: the acquire record postdates the grant and the release
//!   record predates the release, so recorded critical sections can only
//!   shrink, never overlap spuriously);
//! * **locked-cell chains** — a cell only ever accessed under its lock
//!   behaves strictly: each locked read observes exactly the previous
//!   locked write (no lost updates across lock handoffs);
//! * **counter integrity** — atomic fetch-adds with positive deltas observe
//!   strictly increasing previous values per thread, and no two fetch-adds
//!   on one counter observe the same previous value (a duplicate means two
//!   read-modify-writes interleaved: a lost update);
//! * **loose coherence** — the stream converts to a [`History`]
//!   (barrier-arrival episodes collapse into [`Event::Barrier`] at the last
//!   arrival) and must pass [`check_loose`].

use crate::history::{check_loose, Event, History, Violation};
use munin_types::{LockId, ObjectId, ThreadId};
use std::collections::BTreeMap;

/// One recorded observation during a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// Write intent (recorded before the store is issued): unique label.
    Write { thread: ThreadId, obj: ObjectId, label: u32 },
    /// Completed read and the write label it observed (0 = initial value).
    Read { thread: ThreadId, obj: ObjectId, observed: u32 },
    /// `lock()` returned.
    Acquire { thread: ThreadId, lock: LockId },
    /// `unlock()` is about to be called.
    Release { thread: ThreadId, lock: LockId },
    /// The thread is about to enter barrier `barrier`.
    BarrierArrive { thread: ThreadId, barrier: u64 },
    /// Completed atomic fetch-add of `delta`: the previous value it
    /// returned.
    FetchAdd { thread: ThreadId, obj: ObjectId, delta: i64, observed_prev: i64 },
}

/// The full observation log of one campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignHistory {
    pub n_threads: usize,
    /// Participant count per barrier id (arrival episodes collapse when
    /// this many threads have arrived).
    pub barrier_counts: BTreeMap<u64, usize>,
    pub events: Vec<ObsEvent>,
}

impl CampaignHistory {
    /// Convert to a checker [`History`]: fetch-adds are dropped (validated
    /// separately), and each complete set of barrier arrivals collapses to
    /// one [`Event::Barrier`] at the position of its *last* arrival — by
    /// then every participant has recorded all pre-barrier work, so the
    /// collapsed event is both sound and as precise as the log allows.
    /// Arrivals of an episode that never completed (a faulted run died
    /// mid-barrier) are dropped: the synchronization never took effect.
    pub fn to_history(&self) -> History {
        let mut events = Vec::with_capacity(self.events.len());
        let mut arrivals: BTreeMap<u64, Vec<ThreadId>> = BTreeMap::new();
        for ev in &self.events {
            match ev {
                ObsEvent::Write { thread, obj, label } => {
                    events.push(Event::Write { thread: *thread, obj: *obj, label: *label });
                }
                ObsEvent::Read { thread, obj, observed } => {
                    events.push(Event::Read { thread: *thread, obj: *obj, observed: *observed });
                }
                ObsEvent::Acquire { thread, lock } => {
                    events.push(Event::Acquire { thread: *thread, lock: *lock });
                }
                ObsEvent::Release { thread, lock } => {
                    events.push(Event::Release { thread: *thread, lock: *lock });
                }
                ObsEvent::BarrierArrive { thread, barrier } => {
                    let ep = arrivals.entry(*barrier).or_default();
                    ep.push(*thread);
                    let count = self.barrier_counts.get(barrier).copied().unwrap_or(usize::MAX);
                    if ep.len() >= count {
                        events.push(Event::Barrier { threads: std::mem::take(ep) });
                    }
                }
                ObsEvent::FetchAdd { .. } => {}
            }
        }
        History { n_threads: self.n_threads, events }
    }
}

/// Check every campaign invariant. `locked_cells` names the cells the plan
/// only ever accesses under the given lock (enabling the strict chain
/// check); all other objects are checked under loose coherence only.
pub fn check_campaign(h: &CampaignHistory, locked_cells: &[(ObjectId, LockId)]) -> Vec<Violation> {
    let mut violations = check_lock_discipline(h);
    violations.extend(check_locked_chains(h, locked_cells));
    violations.extend(check_counters(h));
    violations.extend(check_loose(&h.to_history()));
    violations.sort_by_key(|v| v.event_index);
    violations
}

/// Locks are exclusive and properly nested in the recorded order.
fn check_lock_discipline(h: &CampaignHistory) -> Vec<Violation> {
    let mut holder: BTreeMap<LockId, ThreadId> = BTreeMap::new();
    let mut violations = Vec::new();
    for (i, ev) in h.events.iter().enumerate() {
        match ev {
            ObsEvent::Acquire { thread, lock } => {
                if let Some(prev) = holder.insert(*lock, *thread) {
                    violations.push(Violation {
                        event_index: i,
                        reason: format!(
                            "lock exclusion: {thread} acquired {lock} while {prev} held it"
                        ),
                    });
                }
            }
            ObsEvent::Release { thread, lock } => match holder.remove(lock) {
                Some(t) if t == *thread => {}
                Some(t) => violations.push(Violation {
                    event_index: i,
                    reason: format!("lock discipline: {thread} released {lock} held by {t}"),
                }),
                None => violations.push(Violation {
                    event_index: i,
                    reason: format!("lock discipline: {thread} released unheld {lock}"),
                }),
            },
            _ => {}
        }
    }
    violations
}

/// Cells accessed only under their lock form a strict chain: each locked
/// read observes the previous locked write (lock handoff flushes the
/// writer's update and invalidates stale copies, so anything else is a lost
/// or stale update the release-consistency contract forbids).
fn check_locked_chains(h: &CampaignHistory, locked_cells: &[(ObjectId, LockId)]) -> Vec<Violation> {
    let locked: BTreeMap<ObjectId, LockId> = locked_cells.iter().copied().collect();
    let mut held: BTreeMap<ThreadId, Vec<LockId>> = BTreeMap::new();
    let mut chain_last: BTreeMap<ObjectId, u32> = BTreeMap::new();
    let mut violations = Vec::new();
    for (i, ev) in h.events.iter().enumerate() {
        match ev {
            ObsEvent::Acquire { thread, lock } => held.entry(*thread).or_default().push(*lock),
            ObsEvent::Release { thread, lock } => {
                if let Some(v) = held.get_mut(thread) {
                    v.retain(|l| l != lock);
                }
            }
            ObsEvent::Write { thread, obj, label } => {
                if let Some(lock) = locked.get(obj) {
                    if !held.get(thread).is_some_and(|v| v.contains(lock)) {
                        violations.push(Violation {
                            event_index: i,
                            reason: format!(
                                "locked cell: {thread} wrote {obj} without holding {lock}"
                            ),
                        });
                    }
                    chain_last.insert(*obj, *label);
                }
            }
            ObsEvent::Read { thread, obj, observed } => {
                if let Some(lock) = locked.get(obj) {
                    if !held.get(thread).is_some_and(|v| v.contains(lock)) {
                        violations.push(Violation {
                            event_index: i,
                            reason: format!(
                                "locked cell: {thread} read {obj} without holding {lock}"
                            ),
                        });
                    }
                    let want = chain_last.get(obj).copied().unwrap_or(0);
                    if *observed != want {
                        violations.push(Violation {
                            event_index: i,
                            reason: format!(
                                "locked chain: read of {obj} observed w{observed}, \
                                 chain expects w{want} (lost or stale update across handoff)"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    violations
}

/// Atomic counters with positive deltas: per-thread previous values rise
/// strictly, no previous value repeats across the whole run, and an add
/// that saw a later value saw at least the earlier add's delta on top of
/// that add's own previous value (an add whose result went to another
/// add's caller breaks this when the deltas differ).
fn check_counters(h: &CampaignHistory) -> Vec<Violation> {
    let mut per_thread: BTreeMap<(ThreadId, ObjectId), i64> = BTreeMap::new();
    let mut seen_prev: BTreeMap<ObjectId, BTreeMap<i64, usize>> = BTreeMap::new();
    let mut deltas: BTreeMap<(ObjectId, i64), i64> = BTreeMap::new();
    let mut violations = Vec::new();
    for (i, ev) in h.events.iter().enumerate() {
        let ObsEvent::FetchAdd { thread, obj, delta, observed_prev } = ev else {
            continue;
        };
        deltas.insert((*obj, *observed_prev), *delta);
        if let Some(prev) = per_thread.get(&(*thread, *obj)) {
            if observed_prev <= prev {
                violations.push(Violation {
                    event_index: i,
                    reason: format!(
                        "counter: {thread} fetch-add on {obj} observed {observed_prev} \
                         after observing {prev} (not strictly increasing)"
                    ),
                });
            }
        }
        per_thread.insert((*thread, *obj), *observed_prev);
        if let Some(first) = seen_prev.entry(*obj).or_default().insert(*observed_prev, i) {
            violations.push(Violation {
                event_index: i,
                reason: format!(
                    "counter: two fetch-adds on {obj} observed previous value \
                     {observed_prev} (events {first} and {i}): lost update"
                ),
            });
        }
    }
    for (((obj, prev), delta), ((next_obj, next), _)) in deltas.iter().zip(deltas.iter().skip(1)) {
        if obj == next_obj && *next < prev + delta {
            violations.push(Violation {
                event_index: seen_prev[next_obj][next],
                reason: format!(
                    "counter: a fetch-add on {obj} observed {next}, but the add of {delta} \
                     that observed {prev} had already made it {} (results out of order)",
                    prev + delta
                ),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);
    const X: ObjectId = ObjectId(0);
    const C: ObjectId = ObjectId(1);
    const L: LockId = LockId(0);

    fn hist(events: Vec<ObsEvent>) -> CampaignHistory {
        let mut barrier_counts = BTreeMap::new();
        barrier_counts.insert(0, 3);
        CampaignHistory { n_threads: 3, barrier_counts, events }
    }

    #[test]
    fn clean_locked_chain_passes() {
        let h = hist(vec![
            ObsEvent::Acquire { thread: T0, lock: L },
            ObsEvent::Read { thread: T0, obj: X, observed: 0 },
            ObsEvent::Write { thread: T0, obj: X, label: 1 },
            ObsEvent::Release { thread: T0, lock: L },
            ObsEvent::Acquire { thread: T1, lock: L },
            ObsEvent::Read { thread: T1, obj: X, observed: 1 },
            ObsEvent::Write { thread: T1, obj: X, label: 2 },
            ObsEvent::Release { thread: T1, lock: L },
        ]);
        assert!(check_campaign(&h, &[(X, L)]).is_empty());
    }

    #[test]
    fn stale_read_across_lock_handoff_is_flagged() {
        let h = hist(vec![
            ObsEvent::Acquire { thread: T0, lock: L },
            ObsEvent::Write { thread: T0, obj: X, label: 1 },
            ObsEvent::Release { thread: T0, lock: L },
            ObsEvent::Acquire { thread: T1, lock: L },
            ObsEvent::Read { thread: T1, obj: X, observed: 0 }, // lost update!
            ObsEvent::Release { thread: T1, lock: L },
        ]);
        let v = check_campaign(&h, &[(X, L)]);
        assert!(v.iter().any(|v| v.reason.contains("locked chain")), "{v:?}");
    }

    #[test]
    fn overlapping_critical_sections_are_flagged() {
        let h = hist(vec![
            ObsEvent::Acquire { thread: T0, lock: L },
            ObsEvent::Acquire { thread: T1, lock: L },
            ObsEvent::Release { thread: T1, lock: L },
            ObsEvent::Release { thread: T0, lock: L },
        ]);
        let v = check_campaign(&h, &[]);
        assert!(v.iter().any(|v| v.reason.contains("lock exclusion")), "{v:?}");
    }

    #[test]
    fn unlocked_access_to_a_locked_cell_is_flagged() {
        let h = hist(vec![ObsEvent::Write { thread: T0, obj: X, label: 1 }]);
        let v = check_campaign(&h, &[(X, L)]);
        assert!(v.iter().any(|v| v.reason.contains("without holding")), "{v:?}");
    }

    #[test]
    fn duplicate_counter_prev_is_a_lost_update() {
        let h = hist(vec![
            ObsEvent::FetchAdd { thread: T0, obj: C, delta: 1, observed_prev: 0 },
            ObsEvent::FetchAdd { thread: T1, obj: C, delta: 1, observed_prev: 0 }, // lost!
        ]);
        let v = check_campaign(&h, &[]);
        assert!(v.iter().any(|v| v.reason.contains("lost update")), "{v:?}");
    }

    #[test]
    fn per_thread_counter_regression_is_flagged() {
        let h = hist(vec![
            ObsEvent::FetchAdd { thread: T0, obj: C, delta: 1, observed_prev: 5 },
            ObsEvent::FetchAdd { thread: T0, obj: C, delta: 1, observed_prev: 3 },
        ]);
        let v = check_campaign(&h, &[]);
        assert!(v.iter().any(|v| v.reason.contains("strictly increasing")), "{v:?}");
    }

    /// Adds of 3 and then 1 by one thread whose results were handed out in
    /// each other's place: the values still rise, and none repeats, but
    /// the add that saw 0 added 3, so no add can have seen 1.
    #[test]
    fn results_handed_out_of_order_are_flagged() {
        let h = hist(vec![
            ObsEvent::FetchAdd { thread: T0, obj: C, delta: 3, observed_prev: 0 },
            ObsEvent::FetchAdd { thread: T0, obj: C, delta: 1, observed_prev: 1 },
        ]);
        let v = check_campaign(&h, &[]);
        assert!(v.iter().any(|v| v.reason.contains("out of order")), "{v:?}");
        let ok = hist(vec![
            ObsEvent::FetchAdd { thread: T0, obj: C, delta: 3, observed_prev: 0 },
            ObsEvent::FetchAdd { thread: T1, obj: C, delta: 1, observed_prev: 5 },
        ]);
        assert!(check_campaign(&ok, &[]).is_empty(), "a gap is an unobserved add");
    }

    #[test]
    fn barrier_episodes_collapse_at_the_last_arrival() {
        let h = hist(vec![
            ObsEvent::Write { thread: T0, obj: X, label: 1 },
            ObsEvent::BarrierArrive { thread: T0, barrier: 0 },
            ObsEvent::BarrierArrive { thread: T1, barrier: 0 },
            ObsEvent::BarrierArrive { thread: T2, barrier: 0 },
            ObsEvent::Read { thread: T1, obj: X, observed: 0 }, // must see w1
        ]);
        let conv = h.to_history();
        assert!(conv
            .events
            .iter()
            .any(|e| matches!(e, Event::Barrier { threads } if threads.len() == 3)));
        let v = check_campaign(&h, &[]);
        assert!(!v.is_empty(), "stale read across a barrier must be flagged");
    }

    #[test]
    fn incomplete_barrier_episode_orders_nothing() {
        // Only 2 of 3 arrivals: a faulted run died mid-barrier. The stale
        // read would be a violation if the barrier had taken effect, but the
        // episode never completed, so no synchronization is assumed.
        let h = hist(vec![
            ObsEvent::Write { thread: T0, obj: X, label: 1 },
            ObsEvent::BarrierArrive { thread: T0, barrier: 0 },
            ObsEvent::BarrierArrive { thread: T1, barrier: 0 },
            ObsEvent::Read { thread: T1, obj: X, observed: 0 },
        ]);
        assert!(!h.to_history().events.iter().any(|e| matches!(e, Event::Barrier { .. })));
        assert!(check_campaign(&h, &[]).is_empty());
    }

    #[test]
    fn repeated_barrier_use_forms_episodes() {
        let mut events = Vec::new();
        for round in 0..3u32 {
            events.push(ObsEvent::Write { thread: T0, obj: X, label: round + 1 });
            for t in [T0, T1, T2] {
                events.push(ObsEvent::BarrierArrive { thread: t, barrier: 0 });
            }
            events.push(ObsEvent::Read { thread: T1, obj: X, observed: round + 1 });
        }
        let h = hist(events);
        let n_barriers =
            h.to_history().events.iter().filter(|e| matches!(e, Event::Barrier { .. })).count();
        assert_eq!(n_barriers, 3, "one episode per round");
        assert!(check_campaign(&h, &[]).is_empty());
    }
}
