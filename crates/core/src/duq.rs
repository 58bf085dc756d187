//! The delayed update queue (DUQ).
//!
//! "We use a delayed update queue ... to maintain a list of the updates that
//! have not yet been propagated. Whenever a thread modifies a shared object,
//! we can delay sending out the update to remote copies of the object ...
//! the delayed update queue must be flushed whenever a thread synchronizes."
//!
//! The queue records, in program order, which objects have pending local
//! modifications. Two entry kinds:
//!
//! * **Twinned** — the object's writes are range-tracked by
//!   [`munin_mem::TwinStore`], which snapshots the pristine bytes of each
//!   written range; the diff is computed lazily at flush time by scanning
//!   only those dirty ranges, so any number of writes between
//!   synchronizations cost exactly one update ("delaying updates allows the
//!   system to combine updates to the same object") and the flush costs
//!   O(bytes written), not O(object size).
//! * **Logged** — write-without-fetch: the writes themselves are accumulated
//!   as a growing [`Diff`] (result objects, and replicas invalidated while
//!   holding unflushed writes).
//!
//! The queue is per *node*; entries carry the writing thread for traces.
//! Flushing on any local thread's synchronization propagates all local
//! pending updates, which is always legal under loose coherence (delaying is
//! the optimization, propagating early is never wrong).
//!
//! Program order lives in a slot vector; a side index maps `ObjectId` →
//! slot, so the per-write operations (`note_twinned`, `note_logged`,
//! `contains`) and `remove` are O(1) even with thousands of pending objects.
//! `remove` leaves a tombstone to keep slot numbers stable; tombstones are
//! reclaimed by the next `drain` (i.e. the next flush) — and, so that a
//! long-running node whose objects keep migrating away between flushes
//! cannot grow the slot vector unboundedly, `remove` also compacts the
//! vector in place (amortized O(1)) whenever tombstones outnumber live
//! entries.

use munin_mem::Diff;
use munin_types::{ByteRange, IdMap, ObjectId, ThreadId};

/// How a pending entry's update is materialized at flush time.
#[derive(Debug)]
pub enum DuqKind {
    /// Diff against the dirty-range twin snapshots at flush time.
    Twinned,
    /// Accumulated write log (write-without-fetch).
    Logged(Diff),
}

/// One pending object in the queue.
#[derive(Debug)]
pub struct DuqEntry {
    pub obj: ObjectId,
    pub kind: DuqKind,
    /// Thread whose write created the entry (traces / diagnostics).
    pub first_writer: ThreadId,
}

/// The per-node delayed update queue.
#[derive(Debug, Default)]
pub struct Duq {
    /// Program-order slots; `None` is a tombstone left by `remove`.
    entries: Vec<Option<DuqEntry>>,
    /// Live objects → slot in `entries`.
    index: IdMap<ObjectId, usize>,
    /// Tombstoned slots in `entries` (== `entries.len() - index.len()`,
    /// tracked so the compaction trigger is O(1)).
    tombstones: usize,
}

impl Duq {
    pub fn new() -> Self {
        Self::default()
    }

    /// Note a write to a twinned object. The first write enqueues; repeats
    /// keep the original program-order position (updates are propagated in
    /// the order the objects were first dirtied, and the diff covers all
    /// writes up to the flush).
    pub fn note_twinned(&mut self, obj: ObjectId, thread: ThreadId) {
        if self.index.contains_key(&obj) {
            return;
        }
        self.index.insert(obj, self.entries.len());
        self.entries.push(Some(DuqEntry { obj, kind: DuqKind::Twinned, first_writer: thread }));
    }

    /// Append a write to a logged (write-without-fetch) object.
    pub fn note_logged(
        &mut self,
        obj: ObjectId,
        thread: ThreadId,
        range: ByteRange,
        data: Vec<u8>,
    ) {
        let new = Diff::overwrite(range, data);
        if let Some(&slot) = self.index.get(&obj) {
            match &mut self.entries[slot].as_mut().expect("indexed slot is live").kind {
                DuqKind::Logged(log) => log.merge(&new),
                DuqKind::Twinned => {
                    // A twinned entry already tracks this object; the write
                    // went through the local copy, so the twin diff will
                    // cover it.
                }
            }
            return;
        }
        self.index.insert(obj, self.entries.len());
        self.entries.push(Some(DuqEntry { obj, kind: DuqKind::Logged(new), first_writer: thread }));
    }

    /// Convert a twinned entry to a logged one carrying `salvaged` — used
    /// when an invalidation takes the local copy away while writes are still
    /// pending (the writes must survive the invalidation).
    pub fn convert_to_logged(&mut self, obj: ObjectId, salvaged: Diff) {
        if let Some(&slot) = self.index.get(&obj) {
            let e = self.entries[slot].as_mut().expect("indexed slot is live");
            debug_assert!(matches!(e.kind, DuqKind::Twinned));
            e.kind = DuqKind::Logged(salvaged);
        }
    }

    /// Is this object pending?
    pub fn contains(&self, obj: ObjectId) -> bool {
        self.index.contains_key(&obj)
    }

    /// Number of pending objects.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drain all entries in program order for flushing (reclaims
    /// tombstones).
    pub fn drain(&mut self) -> Vec<DuqEntry> {
        self.index.clear();
        self.tombstones = 0;
        std::mem::take(&mut self.entries).into_iter().flatten().collect()
    }

    /// Remove (and return) the entry for one object, if present — used when
    /// an object migrates away with unflushed writes. Compacts the slot
    /// vector once tombstones outnumber live entries, so removal-heavy
    /// workloads (many migrations between flushes) stay O(live), not
    /// O(all-time writes).
    pub fn remove(&mut self, obj: ObjectId) -> Option<DuqEntry> {
        let slot = self.index.remove(&obj)?;
        let entry = self.entries[slot].take();
        debug_assert!(entry.is_some(), "index pointed at a tombstone");
        self.tombstones += 1;
        if self.tombstones > self.index.len() {
            self.compact();
        }
        entry
    }

    /// Drop tombstones in place, preserving program order, and point the
    /// index at the new slots.
    fn compact(&mut self) {
        self.entries.retain(Option::is_some);
        self.tombstones = 0;
        for (slot, e) in self.entries.iter().enumerate() {
            let obj = e.as_ref().expect("retained entries are live").obj;
            self.index.insert(obj, slot);
        }
        debug_assert_eq!(self.index.len(), self.entries.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: ThreadId = ThreadId(0);

    #[test]
    fn first_write_position_is_kept() {
        let mut q = Duq::new();
        q.note_twinned(ObjectId(1), T);
        q.note_twinned(ObjectId(2), T);
        q.note_twinned(ObjectId(1), T); // repeat write
        let order: Vec<u64> = q.drain().iter().map(|e| e.obj.0).collect();
        assert_eq!(order, vec![1, 2], "X dirtied before Y flushes before Y");
    }

    #[test]
    fn logged_writes_accumulate() {
        let mut q = Duq::new();
        q.note_logged(ObjectId(3), T, ByteRange::new(0, 2), vec![1, 1]);
        q.note_logged(ObjectId(3), T, ByteRange::new(4, 2), vec![2, 2]);
        assert_eq!(q.len(), 1);
        let entries = q.drain();
        match &entries[0].kind {
            DuqKind::Logged(d) => {
                assert_eq!(d.data_bytes(), 4);
                assert_eq!(d.run_count(), 2);
            }
            _ => panic!("expected logged entry"),
        }
    }

    #[test]
    fn logged_after_twinned_is_subsumed() {
        let mut q = Duq::new();
        q.note_twinned(ObjectId(1), T);
        q.note_logged(ObjectId(1), T, ByteRange::new(0, 1), vec![7]);
        assert_eq!(q.len(), 1);
        assert!(matches!(q.drain()[0].kind, DuqKind::Twinned));
    }

    #[test]
    fn convert_to_logged_preserves_position() {
        let mut q = Duq::new();
        q.note_twinned(ObjectId(1), T);
        q.note_twinned(ObjectId(2), T);
        q.convert_to_logged(ObjectId(1), Diff::overwrite(ByteRange::new(0, 1), vec![9]));
        let entries = q.drain();
        assert_eq!(entries[0].obj, ObjectId(1));
        assert!(matches!(&entries[0].kind, DuqKind::Logged(d) if d.data_bytes() == 1));
        assert_eq!(entries[1].obj, ObjectId(2));
    }

    #[test]
    fn drain_empties_the_queue() {
        let mut q = Duq::new();
        q.note_twinned(ObjectId(1), T);
        assert!(!q.is_empty());
        let _ = q.drain();
        assert!(q.is_empty());
        assert!(q.drain().is_empty());
    }

    #[test]
    fn remove_extracts_single_entry() {
        let mut q = Duq::new();
        q.note_twinned(ObjectId(1), T);
        q.note_twinned(ObjectId(2), T);
        let e = q.remove(ObjectId(1)).unwrap();
        assert_eq!(e.obj, ObjectId(1));
        assert_eq!(q.len(), 1);
        assert!(q.remove(ObjectId(9)).is_none());
    }

    #[test]
    fn reenqueue_after_remove_and_drain_order() {
        let mut q = Duq::new();
        q.note_twinned(ObjectId(1), T);
        q.note_twinned(ObjectId(2), T);
        q.remove(ObjectId(1)).unwrap();
        assert!(!q.contains(ObjectId(1)));
        // Re-dirtying after removal takes a fresh (later) position.
        q.note_twinned(ObjectId(1), T);
        let order: Vec<u64> = q.drain().iter().map(|e| e.obj.0).collect();
        assert_eq!(order, vec![2, 1]);
        // Tombstones were reclaimed.
        assert!(q.is_empty());
    }

    #[test]
    fn removal_heavy_workload_keeps_slot_vec_bounded() {
        // A long-running node whose pending objects keep migrating away
        // between flushes: without compaction the tombstoned slot vector
        // grows forever even though almost nothing is pending.
        let mut q = Duq::new();
        q.note_twinned(ObjectId(u64::MAX), T); // one long-lived resident
        for i in 0..100_000u64 {
            q.note_twinned(ObjectId(i), T);
            q.remove(ObjectId(i)).unwrap();
            // Invariant: tombstones never exceed live entries (plus the
            // one just created), so slots stay O(live).
            assert!(q.entries.len() <= 2 * q.index.len() + 1, "slots grew: {}", q.entries.len());
        }
        assert_eq!(q.len(), 1);
        assert!(q.entries.len() <= 3);
        let order: Vec<u64> = q.drain().iter().map(|e| e.obj.0).collect();
        assert_eq!(order, vec![u64::MAX]);
    }

    #[test]
    fn compaction_preserves_program_order_and_index() {
        let mut q = Duq::new();
        for i in 0..8u64 {
            q.note_twinned(ObjectId(i), T);
        }
        // Remove enough to trigger compaction (tombstones > live).
        for i in 0..5u64 {
            q.remove(ObjectId(i)).unwrap();
        }
        assert_eq!(q.len(), 3);
        // Index still points at the right (now-moved) slots.
        for i in 5..8u64 {
            assert!(q.contains(ObjectId(i)));
        }
        // Repeat-write after compaction keeps the original position.
        q.note_twinned(ObjectId(6), T);
        q.note_logged(ObjectId(7), T, ByteRange::new(0, 1), vec![1]);
        let order: Vec<u64> = q.drain().iter().map(|e| e.obj.0).collect();
        assert_eq!(order, vec![5, 6, 7]);
    }

    #[test]
    fn ops_stay_cheap_with_many_pending_objects() {
        // Smoke test for the O(1) index: 10k pending objects, repeat writes
        // and membership checks do not rescan the queue.
        let mut q = Duq::new();
        for i in 0..10_000u64 {
            q.note_twinned(ObjectId(i), T);
        }
        for i in 0..10_000u64 {
            q.note_twinned(ObjectId(i), T); // repeats are O(1)
            assert!(q.contains(ObjectId(i)));
        }
        assert_eq!(q.len(), 10_000);
        assert_eq!(q.drain().len(), 10_000);
    }
}
