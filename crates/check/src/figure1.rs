//! Figure 1 of the paper, reconstructed and machine-checked.
//!
//! The figure shows three threads accessing one object between two
//! synchronization points:
//!
//! ```text
//!   A:  SYNCH ── W1 ───────── W4 ──────────── SYNCH
//!   B:  SYNCH ──── W2 ── W3 ───── W5 ──────── SYNCH
//!   C:  SYNCH ────── R1 ──────────── R2 ───── SYNCH ── R3
//!                 (time flows left to right)
//! ```
//!
//! The prose fixes the semantics exactly:
//!
//! * strict coherence: R1 reads W2; R2 and R3 read W5 (the most recent
//!   writes in real time);
//! * loose coherence: R1 and R2 may read "the value written at any of W1
//!   through W5 such that the value read at R2 does not logically precede
//!   the value read at R1", and R3 must read W4 or W5 (the last writes of
//!   A and B, now ordered before R3 by the second synchronization, with
//!   neither ordered after the other).
//!
//! This module materializes that schedule as a [`History`] and computes the
//! legal sets with the checkers — the E3 "figure regeneration".

use crate::history::{legal_loose_writes, Event, History};
use munin_types::{LockId, ObjectId, ThreadId};
use std::collections::BTreeSet;

pub const A: ThreadId = ThreadId(0);
pub const B: ThreadId = ThreadId(1);
pub const C: ThreadId = ThreadId(2);
pub const X: ObjectId = ObjectId(0);

/// The figure's schedule, with reads observing `obs = [r1, r2, r3]`.
/// Synchronization points are modelled as barrier episodes over all three
/// threads (the paper draws them as global SYNCH lines).
pub fn schedule(obs: [u32; 3]) -> History {
    History {
        n_threads: 3,
        events: vec![
            Event::Barrier { threads: vec![A, B, C] }, // SYNCH (left)
            Event::Write { thread: A, obj: X, label: 1 }, // W1
            Event::Write { thread: B, obj: X, label: 2 }, // W2
            Event::Read { thread: C, obj: X, observed: obs[0] }, // R1
            Event::Write { thread: B, obj: X, label: 3 }, // W3
            Event::Write { thread: A, obj: X, label: 4 }, // W4
            Event::Write { thread: B, obj: X, label: 5 }, // W5
            Event::Read { thread: C, obj: X, observed: obs[1] }, // R2
            Event::Barrier { threads: vec![A, B, C] }, // SYNCH (right)
            Event::Read { thread: C, obj: X, observed: obs[2] }, // R3
        ],
    }
}

/// Index of R1/R2/R3 in the schedule's event list.
pub const READ_INDICES: [usize; 3] = [3, 7, 9];

/// The unique strict-coherence outcome: what each read must return.
pub fn strict_outcome() -> [u32; 3] {
    [2, 5, 5] // R1 → W2, R2 → W5, R3 → W5 (prose of the paper)
}

/// Legal loose-coherence sets for each read (independent of monotonicity,
/// which couples R1/R2; see [`loose_assignment_legal`]).
pub fn loose_sets() -> [BTreeSet<u32>; 3] {
    let h = schedule(strict_outcome());
    [
        legal_loose_writes(&h, READ_INDICES[0]),
        legal_loose_writes(&h, READ_INDICES[1]),
        legal_loose_writes(&h, READ_INDICES[2]),
    ]
}

/// Is a full assignment (r1, r2, r3) legal under loose coherence (including
/// the monotonicity constraint between R1 and R2)?
pub fn loose_assignment_legal(obs: [u32; 3]) -> bool {
    crate::history::check_loose(&schedule(obs)).is_empty()
}

/// A lock-based variant of the same schedule, demonstrating that the
/// checkers treat lock release→acquire edges like barrier edges: the writer
/// releases after W5 and R3's thread acquires before reading.
pub fn lock_variant(obs_r3: u32) -> History {
    const L: LockId = LockId(0);
    History {
        n_threads: 3,
        events: vec![
            Event::Write { thread: A, obj: X, label: 4 },
            Event::Write { thread: B, obj: X, label: 5 },
            Event::Release { thread: A, lock: L },
            Event::Release { thread: B, lock: L },
            Event::Acquire { thread: C, lock: L },
            Event::Read { thread: C, obj: X, observed: obs_r3 },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{check_loose, check_strict};

    #[test]
    fn strict_outcome_is_the_unique_strict_answer() {
        let h = schedule(strict_outcome());
        assert!(check_strict(&h).is_empty());
        // Perturbing any read breaks strictness.
        for i in 0..3 {
            for wrong in 1..=5u32 {
                let mut obs = strict_outcome();
                if obs[i] == wrong {
                    continue;
                }
                obs[i] = wrong;
                assert!(
                    !check_strict(&schedule(obs)).is_empty(),
                    "strict must reject R{} = W{}",
                    i + 1,
                    wrong
                );
            }
        }
    }

    #[test]
    fn loose_sets_match_the_paper() {
        let [r1, r2, r3] = loose_sets();
        // "read the value written at any of W1 through W5": all five writes
        // are legal for R1 and R2 (the pre-SYNCH initial value is formally
        // legal too; the paper's prose does not enumerate it).
        for w in 1..=5u32 {
            assert!(r1.contains(&w), "W{w} legal at R1: {r1:?}");
            assert!(r2.contains(&w), "W{w} legal at R2: {r2:?}");
        }
        // "thread C at R3 read either the value written by thread A at W4
        // or the value written by thread B at W5".
        assert_eq!(r3, BTreeSet::from([4, 5]), "R3 legal set");
    }

    #[test]
    fn monotonicity_couples_r1_r2() {
        // R1 = W3 then R2 = W2 goes backwards in B's program order:
        // illegal. The reverse direction is fine.
        assert!(!loose_assignment_legal([3, 2, 5]));
        assert!(loose_assignment_legal([2, 3, 5]));
        // Unordered writes (W4 by A, W3 by B) may be read in either order.
        assert!(loose_assignment_legal([4, 3, 5]));
        assert!(loose_assignment_legal([3, 4, 5]));
    }

    #[test]
    fn strict_outcome_is_loose_legal() {
        assert!(loose_assignment_legal(strict_outcome()));
    }

    #[test]
    fn every_loose_legal_r3_is_exactly_w4_or_w5() {
        for r3 in 0..=5u32 {
            let legal = loose_assignment_legal([2, 5, r3]);
            assert_eq!(legal, r3 == 4 || r3 == 5, "R3 = {r3}");
        }
    }

    #[test]
    fn lock_edges_order_reads_too() {
        assert!(check_loose(&lock_variant(5)).is_empty());
        assert!(check_loose(&lock_variant(4)).is_empty());
        // W4/W5 are unordered with each other even through the lock, but
        // the *initial* value is overwritten for C.
        assert!(!check_loose(&lock_variant(0)).is_empty());
    }

    #[test]
    fn count_loose_legal_assignments_exceeds_strict() {
        // Strict admits exactly one assignment; loose admits many — the
        // quantitative content of Figure 1.
        let mut loose_count = 0;
        for r1 in 0..=5u32 {
            for r2 in 0..=5u32 {
                for r3 in 0..=5u32 {
                    if loose_assignment_legal([r1, r2, r3]) {
                        loose_count += 1;
                    }
                }
            }
        }
        assert!(loose_count > 20, "loose admits {loose_count} assignments");
    }
}
