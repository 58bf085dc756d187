//! Dirty-range twin management for delayed updates.
//!
//! Before a local write lands on a loosely-coherent object, the runtime
//! snapshots the pristine bytes of *the range being written* — a per-region
//! twin. The store keeps, per object, a sorted list of disjoint dirty
//! regions, each carrying the snapshot of its pristine bytes. At flush time
//! the working copy is diffed against the snapshots **region by region**, so
//! a flush costs O(bytes written), never O(object size): one dirty byte in a
//! 1 MiB object snapshots one byte and scans one byte.
//!
//! Adjacent/overlapping writes coalesce into a single region (the common
//! sequential-fill pattern extends the last region's snapshot in place), so
//! region count tracks the number of *distinct* dirty areas, not the number
//! of writes.
//!
//! The snapshots also let incoming remote diffs be patched into the twin
//! while local writes are pending ([`TwinStore::apply_remote`]), so a later
//! local flush does not re-send (or overwrite) bytes a remote thread wrote —
//! the merge behaviour that makes concurrent writers to independent portions
//! of a write-many object work. Remote runs that fall *outside* every dirty
//! region need no bookkeeping at all: those bytes are not locally dirty and
//! are never re-flushed.

use crate::diff::Diff;
use munin_types::{ByteRange, IdMap, ObjectId};
use std::collections::VecDeque;

/// One dirty region: the range local writes have touched, plus the pristine
/// bytes it held before the first of those writes.
///
/// The snapshot is a deque so the region can grow in *either* direction at
/// amortized O(new bytes): forward fills extend the back, backward fills
/// push the front — neither re-copies the accumulated snapshot.
#[derive(Debug)]
struct Region {
    range: ByteRange,
    snap: VecDeque<u8>,
}

/// Sorted, disjoint, non-touching dirty regions of one object.
#[derive(Debug, Default)]
struct TwinEntry {
    regions: Vec<Region>,
}

impl TwinEntry {
    /// Record a write to `range`, snapshotting the not-yet-covered parts of
    /// it from `current` (which must still hold the pre-write bytes).
    fn note_write(&mut self, range: ByteRange, current: &[u8]) {
        // Window of regions touching (overlapping or adjacent to) `range`.
        let lo = self.regions.partition_point(|r| r.range.end() < range.start);
        let hi = self.regions.partition_point(|r| r.range.start <= range.end());
        if lo == hi {
            // No neighbours: brand-new region.
            let mut snap = VecDeque::with_capacity(range.len as usize);
            snap.extend(&current[range.start as usize..range.end() as usize]);
            self.regions.insert(lo, Region { range, snap });
            return;
        }
        if hi - lo == 1 {
            // One neighbour: grow it in place (rewrites inside the region
            // fall through both branches for free). Head growth uses
            // push_front so descending fills stay amortized O(new bytes),
            // the mirror of the ascending-fill tail extension.
            let r = &mut self.regions[lo];
            if range.end() > r.range.end() {
                r.snap.extend(&current[r.range.end() as usize..range.end() as usize]);
                r.range.len = range.end() - r.range.start;
            }
            if range.start < r.range.start {
                for &b in current[range.start as usize..r.range.start as usize].iter().rev() {
                    r.snap.push_front(b);
                }
                r.range.len += r.range.start - range.start;
                r.range.start = range.start;
            }
            return;
        }
        // General case (a write bridging several regions): fuse the window
        // plus `range` into one region, keeping existing snapshots and
        // filling the gaps from `current`.
        let hull = self.regions[lo..hi].iter().fold(range, |acc, r| acc.union_hull(r.range));
        let mut snap = VecDeque::with_capacity(hull.len as usize);
        let mut cur = hull.start;
        for r in &self.regions[lo..hi] {
            if r.range.start > cur {
                snap.extend(&current[cur as usize..r.range.start as usize]);
            }
            snap.extend(&r.snap);
            cur = r.range.end();
        }
        if cur < hull.end() {
            snap.extend(&current[cur as usize..hull.end() as usize]);
        }
        self.regions[lo] = Region { range: hull, snap };
        self.regions.drain(lo + 1..hi);
    }

    /// Overwrite the snapshotted bytes that intersect `range` with the
    /// corresponding slice of `bytes` (remote writes must not read back as
    /// local modifications).
    fn patch(&mut self, range: ByteRange, bytes: &[u8]) {
        debug_assert_eq!(range.len as usize, bytes.len());
        let lo = self.regions.partition_point(|r| r.range.end() <= range.start);
        for r in &mut self.regions[lo..] {
            if r.range.start >= range.end() {
                break;
            }
            let Some(i) = r.range.intersect(range) else { continue };
            let dst = (i.start - r.range.start) as usize;
            let src = (i.start - range.start) as usize;
            let len = i.len as usize;
            // Copy across the deque's (at most) two segments at memcpy
            // speed without linearizing it — a patch must stay O(copied
            // bytes) even when interleaved with head-growing writes.
            let (front, back) = r.snap.as_mut_slices();
            let n1 = front.len().saturating_sub(dst).min(len);
            if n1 > 0 {
                front[dst..dst + n1].copy_from_slice(&bytes[src..src + n1]);
            }
            if n1 < len {
                // Entering this branch, dst + n1 >= front.len(): either the
                // front copy was clipped at the segment end, or (n1 == 0)
                // the whole copy starts past the front segment.
                let dst2 = dst + n1 - front.len();
                back[dst2..dst2 + (len - n1)].copy_from_slice(&bytes[src + n1..src + len]);
            }
        }
    }

    /// Diff `current` against every region snapshot, in order.
    fn diff(&mut self, current: &[u8]) -> Diff {
        let mut d = Diff::default();
        for r in &mut self.regions {
            assert!(
                r.range.end() as usize <= current.len(),
                "working copy shorter than its dirty region {}",
                r.range
            );
            d.append_scan(
                r.range.start,
                r.snap.make_contiguous(),
                &current[r.range.start as usize..r.range.end() as usize],
            );
        }
        d
    }

    fn dirty_bytes(&self) -> usize {
        self.regions.iter().map(|r| r.range.len as usize).sum()
    }
}

/// Twins for the objects with pending local modifications on one node.
#[derive(Debug, Default)]
pub struct TwinStore {
    twins: IdMap<ObjectId, TwinEntry>,
}

impl TwinStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a local write to `range` of `obj`, lazily snapshotting the
    /// pristine bytes of any part of the range not already covered.
    /// `current` is the object's working copy, *before* the write lands.
    pub fn note_write(&mut self, obj: ObjectId, range: ByteRange, current: &[u8]) {
        if range.is_empty() {
            return;
        }
        debug_assert!(range.fits_in(current.len() as u32), "write beyond object");
        self.twins.entry(obj).or_default().note_write(range, current);
    }

    pub fn has(&self, obj: ObjectId) -> bool {
        self.twins.contains_key(&obj)
    }

    /// Diff `current` against the dirty-region snapshots and *drop* the twin
    /// (flush completed). Scans only the dirty regions, O(bytes written).
    /// Returns `None` if no twin exists.
    pub fn take_diff(&mut self, obj: ObjectId, current: &[u8]) -> Option<Diff> {
        let mut entry = self.twins.remove(&obj)?;
        Some(entry.diff(current))
    }

    /// Apply an incoming remote diff to the twin as well, so the remote
    /// thread's bytes are not treated as local modifications at the next
    /// flush. Only the runs intersecting dirty regions need patching.
    pub fn apply_remote(&mut self, obj: ObjectId, diff: &Diff) {
        if let Some(entry) = self.twins.get_mut(&obj) {
            for (range, bytes) in diff.runs() {
                entry.patch(*range, bytes);
            }
        }
    }

    /// [`Self::apply_remote`] for one raw range (the eager-push path patches
    /// straight from the write's byte slice without building a diff).
    pub fn patch(&mut self, obj: ObjectId, range: ByteRange, bytes: &[u8]) {
        if let Some(entry) = self.twins.get_mut(&obj) {
            entry.patch(range, bytes);
        }
    }

    /// Drop a twin without diffing (invalidation / migration away).
    pub fn drop_twin(&mut self, obj: ObjectId) {
        self.twins.remove(&obj);
    }

    /// Total dirty (snapshotted) bytes across `obj`'s regions.
    pub fn dirty_bytes(&self, obj: ObjectId) -> usize {
        self.twins.get(&obj).map_or(0, |e| e.dirty_bytes())
    }

    /// Number of distinct dirty regions for `obj`.
    pub fn region_count(&self, obj: ObjectId) -> usize {
        self.twins.get(&obj).map_or(0, |e| e.regions.len())
    }

    pub fn len(&self) -> usize {
        self.twins.len()
    }

    pub fn is_empty(&self) -> bool {
        self.twins.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const OBJ: ObjectId = ObjectId(7);

    #[test]
    fn first_write_snapshot_wins() {
        let mut t = TwinStore::new();
        let whole = ByteRange::new(0, 3);
        t.note_write(OBJ, whole, &[1, 2, 3]);
        // A later write to the same range must not re-snapshot (the bytes
        // are already dirty; their pristine values are fixed).
        t.note_write(OBJ, whole, &[9, 9, 9]);
        let d = t.take_diff(OBJ, &[1, 2, 9]).unwrap();
        assert_eq!(d.data_bytes(), 1, "only byte 2 changed vs the original snapshot");
    }

    #[test]
    fn take_diff_drops_twin() {
        let mut t = TwinStore::new();
        t.note_write(OBJ, ByteRange::new(0, 4), &[0; 4]);
        let _ = t.take_diff(OBJ, &[0, 1, 0, 0]).unwrap();
        assert!(!t.has(OBJ));
        assert!(t.take_diff(OBJ, &[0; 4]).is_none());
    }

    #[test]
    fn flush_then_rewrite_only_sees_new_change() {
        let mut t = TwinStore::new();
        let mut cur = vec![0u8; 4];
        t.note_write(OBJ, ByteRange::new(0, 1), &cur);
        cur[0] = 1;
        let d1 = t.take_diff(OBJ, &cur).unwrap();
        assert_eq!(d1.data_bytes(), 1);
        // Next flush only sees the *new* change.
        t.note_write(OBJ, ByteRange::new(1, 1), &cur);
        cur[1] = 2;
        let d2 = t.take_diff(OBJ, &cur).unwrap();
        assert_eq!(d2.data_bytes(), 1);
        assert_eq!(d2.ranges(), vec![ByteRange::new(1, 1)]);
    }

    #[test]
    fn remote_diff_does_not_reflush() {
        // Local thread wrote byte 0; remote thread wrote byte 3. The remote
        // diff arrives before the local flush. The local flush must contain
        // only byte 0.
        let mut t = TwinStore::new();
        let mut working = vec![0u8; 4];
        t.note_write(OBJ, ByteRange::new(0, 1), &working);
        working[0] = 1; // local write

        let remote = Diff::overwrite(ByteRange::new(3, 1), vec![9]);
        remote.apply(&mut working);
        t.apply_remote(OBJ, &remote);

        let flush = t.take_diff(OBJ, &working).unwrap();
        assert_eq!(flush.ranges(), vec![ByteRange::new(0, 1)]);
    }

    #[test]
    fn remote_diff_inside_dirty_region_is_patched() {
        // Local write snapshots [0,4); a remote run then lands inside the
        // region. Without the patch those bytes would diff against the stale
        // snapshot and be re-sent as local writes.
        let mut t = TwinStore::new();
        let mut working = vec![0u8; 8];
        t.note_write(OBJ, ByteRange::new(0, 4), &working);
        working[0] = 1; // the actual local modification

        let remote = Diff::overwrite(ByteRange::new(2, 4), vec![9, 9, 9, 9]);
        remote.apply(&mut working);
        t.apply_remote(OBJ, &remote);

        let flush = t.take_diff(OBJ, &working).unwrap();
        assert_eq!(flush.ranges(), vec![ByteRange::new(0, 1)], "{flush:?}");
    }

    #[test]
    fn drop_twin_discards_pending() {
        let mut t = TwinStore::new();
        t.note_write(OBJ, ByteRange::new(0, 2), &[0; 2]);
        t.drop_twin(OBJ);
        assert!(t.is_empty());
    }

    #[test]
    fn snapshot_is_proportional_to_writes_not_object() {
        let mut t = TwinStore::new();
        let mut cur = vec![0u8; 1 << 20];
        t.note_write(OBJ, ByteRange::new(17, 1), &cur);
        cur[17] = 5;
        assert_eq!(t.dirty_bytes(OBJ), 1, "one dirty byte snapshots one byte");
        assert_eq!(t.region_count(OBJ), 1);
        let d = t.take_diff(OBJ, &cur).unwrap();
        assert_eq!(d.ranges(), vec![ByteRange::new(17, 1)]);
    }

    #[test]
    fn sequential_fill_coalesces_into_one_region() {
        let mut t = TwinStore::new();
        let mut cur = vec![0u8; 1024];
        for i in 0..64u32 {
            let r = ByteRange::new(i * 8, 8);
            t.note_write(OBJ, r, &cur);
            for b in &mut cur[(i * 8) as usize..(i * 8 + 8) as usize] {
                *b = 1;
            }
        }
        assert_eq!(t.region_count(OBJ), 1, "adjacent writes fuse");
        assert_eq!(t.dirty_bytes(OBJ), 512);
        let d = t.take_diff(OBJ, &cur).unwrap();
        assert_eq!(d.ranges(), vec![ByteRange::new(0, 512)]);
    }

    #[test]
    fn descending_fill_coalesces_into_one_region() {
        // The mirror image of the sequential fill: back-to-front writes
        // grow the region's head (push_front path) instead of re-fusing.
        let mut t = TwinStore::new();
        let mut cur = vec![9u8; 1024];
        for i in (0..64u32).rev() {
            let r = ByteRange::new(i * 8, 8);
            t.note_write(OBJ, r, &cur);
            for b in &mut cur[(i * 8) as usize..(i * 8 + 8) as usize] {
                *b = 1;
            }
        }
        assert_eq!(t.region_count(OBJ), 1, "adjacent writes fuse");
        assert_eq!(t.dirty_bytes(OBJ), 512);
        let d = t.take_diff(OBJ, &cur).unwrap();
        assert_eq!(d.ranges(), vec![ByteRange::new(0, 512)]);
        assert_eq!(d.data_bytes(), 512);
    }

    #[test]
    fn gap_filling_write_fuses_regions() {
        let mut t = TwinStore::new();
        let mut cur = vec![7u8; 64];
        t.note_write(OBJ, ByteRange::new(0, 8), &cur);
        cur[0] = 1;
        t.note_write(OBJ, ByteRange::new(24, 8), &cur);
        cur[24] = 2;
        assert_eq!(t.region_count(OBJ), 2);
        // Bridge the gap (plus overlap into both neighbours).
        t.note_write(OBJ, ByteRange::new(4, 24), &cur);
        cur[10] = 3;
        assert_eq!(t.region_count(OBJ), 1);
        assert_eq!(t.dirty_bytes(OBJ), 32);
        let d = t.take_diff(OBJ, &cur).unwrap();
        // Snapshots taken before each write were pristine, so exactly the
        // three modified bytes diff.
        assert_eq!(d.data_bytes(), 3);
    }

    #[test]
    fn patch_spans_a_wrapped_snapshot() {
        // Head growth wraps the deque; a remote patch crossing the wrap
        // point must land on both segments.
        let mut t = TwinStore::new();
        let mut working = vec![0u8; 64];
        t.note_write(OBJ, ByteRange::new(32, 16), &working); // back half first
        t.note_write(OBJ, ByteRange::new(16, 16), &working); // head growth wraps
        for b in &mut working[16..48] {
            *b = 1; // the local writes themselves
        }
        let remote = Diff::overwrite(ByteRange::new(24, 16), vec![9; 16]);
        remote.apply(&mut working);
        t.apply_remote(OBJ, &remote);
        let flush = t.take_diff(OBJ, &working).unwrap();
        // Remote bytes [24,40) are patched out; only [16,24) and [40,48)
        // remain as local changes.
        assert_eq!(flush.ranges(), vec![ByteRange::new(16, 8), ByteRange::new(40, 8)]);
    }

    #[test]
    fn backward_extension_keeps_earlier_snapshots() {
        let mut t = TwinStore::new();
        let mut cur = vec![0u8; 32];
        t.note_write(OBJ, ByteRange::new(16, 8), &cur);
        for b in &mut cur[16..24] {
            *b = 1;
        }
        // Prepend-adjacent write: region grows left; the old snapshot (the
        // zeros, not the 1s) must be preserved for [16,24).
        t.note_write(OBJ, ByteRange::new(8, 8), &cur);
        for b in &mut cur[8..16] {
            *b = 2;
        }
        assert_eq!(t.region_count(OBJ), 1);
        let d = t.take_diff(OBJ, &cur).unwrap();
        assert_eq!(d.ranges(), vec![ByteRange::new(8, 16)]);
        assert_eq!(d.data_bytes(), 16);
    }

    proptest! {
        /// Dirty-range-bounded diffing produces byte-identical runs to a
        /// full-object scan, for arbitrary write patterns.
        #[test]
        fn bounded_diff_equals_full_scan(
            size in 16usize..512,
            writes in proptest::collection::vec(
                (any::<prop::sample::Index>(), 1u32..24, any::<u8>()), 0..24),
        ) {
            let pristine: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let mut working = pristine.clone();
            let mut t = TwinStore::new();
            for (idx, len, val) in writes {
                let start = idx.index(size) as u32;
                let len = len.min(size as u32 - start);
                let range = ByteRange::new(start, len);
                t.note_write(OBJ, range, &working);
                for b in &mut working[start as usize..(start + len) as usize] {
                    // Some writes are no-ops on some bytes, exercising runs
                    // that are narrower than their dirty region.
                    *b = b.wrapping_add(val % 3);
                }
            }
            let bounded = t.take_diff(OBJ, &working).unwrap_or_default();
            let full = Diff::between(&pristine, &working);
            prop_assert_eq!(bounded, full);
        }

        /// Remote patches arriving between local writes never leak remote
        /// bytes into the local flush, and local bytes always flush.
        #[test]
        fn remote_patch_interleaving_is_exact(
            local in proptest::collection::vec((0u32..56, 1u32..8), 1..8),
            remote in proptest::collection::vec((0u32..56, 1u32..8), 0..8),
        ) {
            let size = 64usize;
            let pristine = vec![0u8; size];
            let mut working = pristine.clone();
            let mut reference = pristine.clone(); // pristine + remote only
            let mut t = TwinStore::new();
            let mut li = local.iter();
            let mut ri = remote.iter();
            loop {
                match (li.next(), ri.next()) {
                    (None, None) => break,
                    (l, r) => {
                        if let Some(&(s, len)) = l {
                            let range = ByteRange::new(s, len.min(size as u32 - s));
                            t.note_write(OBJ, range, &working);
                            for b in &mut working[s as usize..(s + range.len) as usize] {
                                *b = 1;
                            }
                        }
                        if let Some(&(s, len)) = r {
                            let range = ByteRange::new(s, len.min(size as u32 - s));
                            let bytes = vec![2u8; range.len as usize];
                            let d = Diff::overwrite(range, bytes);
                            d.apply(&mut working);
                            d.apply(&mut reference);
                            t.apply_remote(OBJ, &d);
                        }
                    }
                }
            }
            // Flushing local changes over "pristine + remote" must exactly
            // reproduce the working copy.
            let flush = t.take_diff(OBJ, &working).unwrap();
            let mut rebuilt = reference.clone();
            flush.apply(&mut rebuilt);
            prop_assert_eq!(rebuilt, working);
        }
    }
}
