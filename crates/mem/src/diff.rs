//! Run-length diffs.
//!
//! A [`Diff`] is the wire representation of "what changed in this object":
//! a sorted list of disjoint byte ranges with their new contents. Diffs are
//! produced by comparing a working copy against its twin (see
//! [`crate::twin`]), shipped by the delayed update queue, and applied at
//! receivers. Applying diffs from different threads that wrote *independent*
//! portions of an object commutes — which is exactly why Munin's loose
//! coherence can let multiple writers proceed without synchronization.
//!
//! ## Layout
//!
//! A diff is a *run table* over a single contiguous payload buffer: each run
//! records its object-relative [`ByteRange`] plus an offset into the shared
//! `data` vector. An N-run diff therefore costs two allocations total (one
//! run table, one payload buffer), not one allocation per run, and clones of
//! a diff are two `memcpy`s. Runs are always appended in ascending object
//! order, so run payloads are contiguous and in-order inside `data`.
//!
//! ## Scan cost
//!
//! [`Diff::between`] walks both kinds of stretch eight bytes at a time and
//! touches single bytes only in the last < 8 bytes of a window. An *equal*
//! stretch ends at the first word whose two halves differ; the lowest set
//! bit of their XOR names the first differing byte. A *differing* stretch
//! ends at the first zero byte of the XOR `x`, found with the SWAR test
//! `(x - 0x01..01) & !x & 0x80..80`. That test can raise a false flag only
//! in a byte *above* a true zero byte (a `0x01` byte that the borrow out of
//! the zero wraps to `0xFF`), so its lowest flag is exact and the run ends
//! there. Both stretches therefore cost word speed, and the runs are exactly
//! the ones a byte-at-a-time scan finds.
//!
//! The flush path never hands the scanner a whole object anyway:
//! [`crate::twin::TwinStore`] bounds the scan to the byte ranges local
//! writes actually touched, making flush cost O(bytes written).

use munin_types::ByteRange;
use serde::{Deserialize, Serialize};

/// Per-range wire overhead: offset (4) + length (4).
const RANGE_HEADER_BYTES: usize = 8;

/// `0x01` in every byte of a word.
const LOW_BITS: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x80` in every byte of a word.
const HIGH_BITS: u64 = u64::from_le_bytes([0x80; 8]);

/// The eight bytes of `b` at `i`, little-endian, so byte `i` is the word's
/// lowest byte.
#[inline(always)]
fn le_word(b: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte chunk"))
}

/// One run of the table: `range` within the object, payload at
/// `data[offset .. offset + range.len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Run {
    range: ByteRange,
    offset: u32,
}

/// A run-length encoded update to one object.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Diff {
    /// Sorted, disjoint, non-adjacent ranges; payload offsets ascend with
    /// the ranges (runs are packed into `data` in object order).
    runs: Vec<Run>,
    /// Concatenated payloads of every run.
    data: Vec<u8>,
}

impl Diff {
    /// Compare `new` against the pristine `old` (the twin) and record every
    /// differing run. Both slices must be the same length.
    pub fn between(old: &[u8], new: &[u8]) -> Diff {
        assert_eq!(old.len(), new.len(), "diff requires equal-length buffers");
        let mut d = Diff::default();
        d.append_scan(0, old, new);
        d
    }

    /// Scan `old` vs `new` (equal-length windows of one object, starting at
    /// object offset `base`) and append the differing runs. Callers must
    /// append windows in ascending, non-touching order so the run table
    /// stays canonical; [`crate::twin::TwinStore`] uses this to diff only
    /// the dirty regions of an object.
    pub(crate) fn append_scan(&mut self, base: u32, old: &[u8], new: &[u8]) {
        debug_assert_eq!(old.len(), new.len());
        let n = new.len();
        let mut i = 0usize;
        while i < n {
            // Skip equal bytes a word at a time; on a mismatching word, jump
            // straight to its first differing byte (little-endian order puts
            // the lowest-index byte in the lowest bits of the XOR).
            while i + 8 <= n {
                let a = le_word(old, i);
                let b = le_word(new, i);
                if a == b {
                    i += 8;
                } else {
                    i += ((a ^ b).trailing_zeros() / 8) as usize;
                    break;
                }
            }
            while i < n && old[i] == new[i] {
                i += 1;
            }
            if i >= n {
                break;
            }
            let start = i;
            // Extend the differing run a word at a time: an equal byte is a
            // zero byte of the XOR, and the lowest flag of the SWAR zero-byte
            // test marks the first one (see "Scan cost" above).
            while i + 8 <= n {
                let x = le_word(old, i) ^ le_word(new, i);
                let zero = x.wrapping_sub(LOW_BITS) & !x & HIGH_BITS;
                if zero == 0 {
                    i += 8;
                } else {
                    i += (zero.trailing_zeros() / 8) as usize;
                    break;
                }
            }
            while i < n && old[i] != new[i] {
                i += 1;
            }
            self.push_run(base + start as u32, &new[start..i]);
        }
    }

    /// Append a run, coalescing with the previous run when adjacent. Runs
    /// must be pushed in ascending order.
    fn push_run(&mut self, start: u32, bytes: &[u8]) {
        debug_assert!(!bytes.is_empty());
        if let Some(last) = self.runs.last_mut() {
            debug_assert!(last.range.end() <= start, "runs must be pushed in order");
            if last.range.end() == start {
                last.range.len += bytes.len() as u32;
                self.data.extend_from_slice(bytes);
                return;
            }
        }
        self.runs.push(Run {
            range: ByteRange::new(start, bytes.len() as u32),
            offset: self.data.len() as u32,
        });
        self.data.extend_from_slice(bytes);
    }

    /// A diff that overwrites `range` with `data` unconditionally (used by
    /// write-without-fetch paths where no twin exists, e.g. result objects
    /// written before ever being read).
    pub fn overwrite(range: ByteRange, data: Vec<u8>) -> Diff {
        assert_eq!(range.len as usize, data.len());
        if range.is_empty() {
            return Diff::default();
        }
        Diff { runs: vec![Run { range, offset: 0 }], data }
    }

    /// Append a run while rebuilding a diff from its wire form. Runs must
    /// arrive in ascending object order with non-empty payloads and a gap
    /// between neighbours — exactly the invariant [`Diff::runs`] iterates
    /// in — so a decode → encode of any diff is the identity. A run that
    /// touches the previous one is rejected rather than coalesced: no
    /// encoder emits one, and merging it would decode a diff other than the
    /// one the frame carried. Returns `false` (leaving the diff untouched)
    /// instead of panicking when the input violates the invariant, so a
    /// corrupt frame surfaces as a decode error rather than a crash in the
    /// transport.
    pub fn append_run(&mut self, start: u32, bytes: &[u8]) -> bool {
        if bytes.is_empty()
            || u32::try_from(bytes.len()).is_err()
            || start.checked_add(bytes.len() as u32).is_none()
            || self.runs.last().is_some_and(|last| last.range.end() >= start)
        {
            return false;
        }
        self.push_run(start, bytes);
        true
    }

    /// No changes?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of distinct runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total payload bytes (data only).
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes this diff occupies on the wire (runs + per-run headers).
    pub fn wire_bytes(&self) -> usize {
        self.data_bytes() + self.runs.len() * RANGE_HEADER_BYTES
    }

    /// Payload slice of run `i`.
    fn run_bytes(&self, i: usize) -> &[u8] {
        let r = &self.runs[i];
        &self.data[r.offset as usize..r.offset as usize + r.range.len as usize]
    }

    /// Iterate over the runs.
    pub fn runs(&self) -> impl Iterator<Item = (&ByteRange, &[u8])> {
        (0..self.runs.len()).map(move |i| (&self.runs[i].range, self.run_bytes(i)))
    }

    /// Apply to `data` (last-applied-wins on overlap, which is the legal
    /// loose-coherence outcome for unsynchronized overlapping writes).
    ///
    /// Panics if any run is out of bounds — receivers validated the object
    /// size when the copy was created, so an out-of-bounds run is a protocol
    /// bug, not an application error.
    pub fn apply(&self, data: &mut [u8]) {
        for i in 0..self.runs.len() {
            let range = self.runs[i].range;
            let start = range.start as usize;
            let end = start + range.len as usize;
            data[start..end].copy_from_slice(self.run_bytes(i));
        }
    }

    /// Fold `later` into `self`, with `later` taking precedence on overlap.
    /// Used to combine successive flushes addressed to the same destination
    /// into one message ("delaying updates allows the system to combine
    /// updates to the same object").
    ///
    /// Cost is O(runs + payload bytes): the two sorted run lists are merged
    /// with a two-pointer walk (`self`'s runs clipped against `later`'s
    /// coverage, `later`'s runs taken whole), never materializing the
    /// covering hull — two diffs at far ends of a large object cost their
    /// own bytes, not the distance between them.
    pub fn merge(&mut self, later: &Diff) {
        if later.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = later.clone();
            return;
        }
        // 1. Clip self's runs against later's coverage: the surviving
        //    sub-pieces, in order. A later-run may span several self-runs,
        //    so the cursor into later's runs only advances once a run is
        //    provably behind the current position.
        let mut pieces: Vec<(u32, &[u8])> = Vec::new();
        let mut bi = 0usize;
        for i in 0..self.runs.len() {
            let range = self.runs[i].range;
            let bytes = self.run_bytes(i);
            while bi < later.runs.len() && later.runs[bi].range.end() <= range.start {
                bi += 1;
            }
            let mut bj = bi;
            let mut cur = range.start;
            while cur < range.end() {
                if bj >= later.runs.len() || later.runs[bj].range.start >= range.end() {
                    pieces.push((cur, &bytes[(cur - range.start) as usize..]));
                    break;
                }
                let b = later.runs[bj].range;
                if b.start > cur {
                    let s = (cur - range.start) as usize;
                    let e = (b.start - range.start) as usize;
                    pieces.push((cur, &bytes[s..e]));
                }
                cur = b.end().min(range.end()).max(cur);
                if b.end() <= range.end() {
                    bj += 1;
                }
            }
        }
        // 2. Merge the (disjoint, sorted) piece list with later's runs.
        let mut out = Diff {
            runs: Vec::with_capacity(pieces.len() + later.runs.len()),
            data: Vec::with_capacity(self.data.len() + later.data.len()),
        };
        let mut pi = 0usize;
        let mut li = 0usize;
        while pi < pieces.len() || li < later.runs.len() {
            let take_piece = li >= later.runs.len()
                || (pi < pieces.len() && pieces[pi].0 < later.runs[li].range.start);
            if take_piece {
                out.push_run(pieces[pi].0, pieces[pi].1);
                pi += 1;
            } else {
                out.push_run(later.runs[li].range.start, later.run_bytes(li));
                li += 1;
            }
        }
        *self = out;
    }

    /// The ranges this diff touches.
    pub fn ranges(&self) -> Vec<ByteRange> {
        self.runs.iter().map(|r| r.range).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_buffers_produce_empty_diff() {
        let a = vec![7u8; 64];
        let d = Diff::between(&a, &a);
        assert!(d.is_empty());
        assert_eq!(d.wire_bytes(), 0);
    }

    #[test]
    fn single_run_detected() {
        let old = vec![0u8; 16];
        let mut new = old.clone();
        new[4..8].copy_from_slice(&[1, 2, 3, 4]);
        let d = Diff::between(&old, &new);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.data_bytes(), 4);
        assert_eq!(d.wire_bytes(), 4 + 8);
        let mut target = old.clone();
        d.apply(&mut target);
        assert_eq!(target, new);
    }

    #[test]
    fn multiple_runs_skip_unchanged_bytes() {
        let old = vec![0u8; 10];
        let new = vec![1, 0, 1, 1, 0, 0, 1, 0, 0, 1];
        let d = Diff::between(&old, &new);
        assert_eq!(d.run_count(), 4);
        assert_eq!(d.data_bytes(), 5);
    }

    #[test]
    fn word_boundaries_are_respected() {
        // Runs starting/ending at every offset around the 8-byte chunk
        // boundaries the scanner uses.
        for size in [7usize, 8, 9, 15, 16, 17, 31, 64] {
            for start in 0..size {
                for len in 1..=(size - start) {
                    let old = vec![0xA5u8; size];
                    let mut new = old.clone();
                    for b in &mut new[start..start + len] {
                        *b = 0x5A;
                    }
                    let d = Diff::between(&old, &new);
                    assert_eq!(d.run_count(), 1, "size={size} start={start} len={len}");
                    assert_eq!(
                        d.ranges(),
                        vec![ByteRange::new(start as u32, len as u32)],
                        "size={size} start={start} len={len}"
                    );
                    let mut target = old.clone();
                    d.apply(&mut target);
                    assert_eq!(target, new);
                }
            }
        }
    }

    /// The byte-at-a-time scanner the word scan must agree with exactly.
    fn reference_scan(old: &[u8], new: &[u8]) -> Diff {
        let mut d = Diff::default();
        let mut i = 0;
        while i < new.len() {
            if old[i] == new[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < new.len() && old[i] != new[i] {
                i += 1;
            }
            d.push_run(start as u32, &new[start..i]);
        }
        d
    }

    /// xorshift64 bytes: a fixed, incompressible pattern per seed.
    fn noise(len: usize, mut s: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s as u8
            })
            .collect()
    }

    #[test]
    fn word_scan_matches_reference_on_every_16_byte_mask() {
        // Each set bit of `mask` makes one byte of a 16-byte window differ;
        // the window sits at every alignment within its buffer. The XOR
        // bytes include 0x01 (which the borrow out of an equal byte below it
        // turns into the SWAR false flag), 0x80 and 0xFF (the high bit
        // already set) and 0x7F.
        const XORS: [u8; 4] = [0x01, 0x7F, 0x80, 0xFF];
        let pattern = noise(40, 7);
        for base in 0..8 {
            // One buffer ends with the window, so runs reach the byte tail;
            // the other has a word of equal bytes after it.
            for len in [base + 16, base + 24] {
                let old = &pattern[..len];
                for mask in 0..=u16::MAX {
                    // Pass 0: every differing byte is 0x01, so every run
                    // that follows an equal byte begins with the borrow case.
                    for pass in 0..2 {
                        let mut new = old.to_vec();
                        for bit in (0..16).filter(|b| mask & (1 << b) != 0) {
                            let xor =
                                if pass == 0 { 0x01 } else { XORS[(bit + mask as usize) % 4] };
                            new[base + bit] ^= xor;
                        }
                        let got = Diff::between(old, &new);
                        assert_eq!(
                            got,
                            reference_scan(old, &new),
                            "base={base} len={len} mask={mask:#06x} pass={pass}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn word_scan_matches_reference_on_the_bulk_shape() {
        // Two independent 512 KiB patterns: runs of every short length.
        let old = noise(512 << 10, 1);
        let new = noise(512 << 10, 2);
        let d = Diff::between(&old, &new);
        assert_eq!(d, reference_scan(&old, &new));
        assert!(d.run_count() > 1000, "{} runs", d.run_count());

        // Every byte flipped: exactly one run, the whole buffer.
        let flipped: Vec<u8> = old.iter().map(|b| !b).collect();
        let d = Diff::between(&old, &flipped);
        assert_eq!(d.ranges(), vec![ByteRange::new(0, old.len() as u32)]);
        assert_eq!(d, reference_scan(&old, &flipped));
    }

    #[test]
    fn disjoint_diffs_commute() {
        // Two threads write independent halves — the heart of write-many.
        let base = vec![0u8; 8];
        let mut a_ver = base.clone();
        a_ver[0..4].copy_from_slice(&[1, 1, 1, 1]);
        let mut b_ver = base.clone();
        b_ver[4..8].copy_from_slice(&[2, 2, 2, 2]);
        let da = Diff::between(&base, &a_ver);
        let db = Diff::between(&base, &b_ver);
        assert_eq!(da.ranges(), vec![ByteRange::new(0, 4)]);
        assert_eq!(db.ranges(), vec![ByteRange::new(4, 4)]);

        let mut ab = base.clone();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = base.clone();
        db.apply(&mut ba);
        da.apply(&mut ba);
        assert_eq!(ab, ba);
        assert_eq!(ab, vec![1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn merge_combines_and_later_wins() {
        let mut d1 = Diff::overwrite(ByteRange::new(0, 4), vec![1, 1, 1, 1]);
        let d2 = Diff::overwrite(ByteRange::new(2, 4), vec![2, 2, 2, 2]);
        d1.merge(&d2);
        let mut buf = vec![0u8; 8];
        d1.apply(&mut buf);
        assert_eq!(buf, vec![1, 1, 2, 2, 2, 2, 0, 0]);
        assert_eq!(d1.run_count(), 1, "adjacent runs coalesce: {d1:?}");
    }

    #[test]
    fn merge_preserves_gaps() {
        let mut d1 = Diff::overwrite(ByteRange::new(0, 2), vec![1, 1]);
        let d2 = Diff::overwrite(ByteRange::new(6, 2), vec![2, 2]);
        d1.merge(&d2);
        assert_eq!(d1.run_count(), 2, "gap between runs must survive merge");
        let mut buf = vec![9u8; 8];
        d1.apply(&mut buf);
        assert_eq!(buf, vec![1, 1, 9, 9, 9, 9, 2, 2]);
    }

    #[test]
    fn merge_does_not_materialize_the_hull() {
        // Two single-byte runs 16 MiB apart: the merged diff must stay two
        // bytes of payload, not 16 MiB.
        let mut d1 = Diff::overwrite(ByteRange::new(0, 1), vec![1]);
        let d2 = Diff::overwrite(ByteRange::new(16 << 20, 1), vec![2]);
        d1.merge(&d2);
        assert_eq!(d1.run_count(), 2);
        assert_eq!(d1.data_bytes(), 2);
        assert_eq!(d1.wire_bytes(), 2 + 16);
    }

    #[test]
    fn merge_later_spanning_several_earlier_runs() {
        // Earlier: three runs; later: one run covering the middle one and
        // parts of the outer two.
        let mut d1 = Diff::overwrite(ByteRange::new(0, 4), vec![1; 4]);
        d1.merge(&Diff::overwrite(ByteRange::new(8, 4), vec![2; 4]));
        d1.merge(&Diff::overwrite(ByteRange::new(16, 4), vec![3; 4]));
        assert_eq!(d1.run_count(), 3);
        let later = Diff::overwrite(ByteRange::new(2, 16), vec![7; 16]);
        d1.merge(&later);
        let mut buf = vec![0u8; 24];
        d1.apply(&mut buf);
        let mut want = vec![0u8; 24];
        want[0..4].copy_from_slice(&[1; 4]);
        want[8..12].copy_from_slice(&[2; 4]);
        want[16..20].copy_from_slice(&[3; 4]);
        want[2..18].copy_from_slice(&[7; 16]);
        assert_eq!(buf, want);
        assert_eq!(d1.run_count(), 1, "everything touches: {d1:?}");
    }

    #[test]
    fn merge_into_empty_clones() {
        let mut d = Diff::default();
        let other = Diff::overwrite(ByteRange::new(1, 2), vec![5, 6]);
        d.merge(&other);
        assert_eq!(d, other);
        // And merging empty into non-empty is a no-op.
        let snapshot = d.clone();
        d.merge(&Diff::default());
        assert_eq!(d, snapshot);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn length_mismatch_panics() {
        Diff::between(&[0u8; 4], &[0u8; 5]);
    }

    proptest! {
        /// apply(diff(old→new)) over old always reconstructs new.
        #[test]
        fn diff_apply_roundtrip(
            old in proptest::collection::vec(any::<u8>(), 1..200),
            seed_positions in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..32)
        ) {
            let mut new = old.clone();
            for (idx, val) in seed_positions {
                let i = idx.index(new.len());
                new[i] = val;
            }
            let d = Diff::between(&old, &new);
            let mut rebuilt = old.clone();
            d.apply(&mut rebuilt);
            prop_assert_eq!(rebuilt, new);
        }

        /// A diff's runs are sorted, disjoint and non-adjacent, and its
        /// data_bytes equals the hamming-differing byte count.
        #[test]
        fn diff_runs_are_canonical(
            old in proptest::collection::vec(any::<u8>(), 1..120),
            flips in proptest::collection::vec(any::<prop::sample::Index>(), 0..40)
        ) {
            let mut new = old.clone();
            for idx in flips {
                let i = idx.index(new.len());
                new[i] = new[i].wrapping_add(1);
            }
            let d = Diff::between(&old, &new);
            let ranges = d.ranges();
            for w in ranges.windows(2) {
                prop_assert!(w[0].end() < w[1].start, "sorted + gap: {:?}", ranges);
            }
            let differing = old.iter().zip(&new).filter(|(a, b)| a != b).count();
            prop_assert_eq!(d.data_bytes(), differing);
        }

        /// Merging two diffs then applying equals applying them in sequence.
        #[test]
        fn merge_equals_sequential_apply(
            base in proptest::collection::vec(any::<u8>(), 16..64),
            w1 in (0usize..48, proptest::collection::vec(any::<u8>(), 1..16)),
            w2 in (0usize..48, proptest::collection::vec(any::<u8>(), 1..16)),
        ) {
            let clip = |start: usize, data: &Vec<u8>| {
                let start = start.min(base.len() - 1);
                let len = data.len().min(base.len() - start);
                (ByteRange::new(start as u32, len as u32), data[..len].to_vec())
            };
            let (r1, d1) = clip(w1.0, &w1.1);
            let (r2, d2) = clip(w2.0, &w2.1);
            let diff1 = Diff::overwrite(r1, d1);
            let diff2 = Diff::overwrite(r2, d2);

            let mut seq = base.clone();
            diff1.apply(&mut seq);
            diff2.apply(&mut seq);

            let mut merged = diff1.clone();
            merged.merge(&diff2);
            let mut via_merge = base.clone();
            merged.apply(&mut via_merge);

            prop_assert_eq!(seq, via_merge);
        }

        /// Merging multi-run diffs equals sequential application, and the
        /// merged diff stays canonical (two-pointer merge, no hull).
        #[test]
        fn merge_multirun_equals_sequential_apply(
            base in proptest::collection::vec(any::<u8>(), 32..128),
            flips1 in proptest::collection::vec(any::<prop::sample::Index>(), 0..24),
            flips2 in proptest::collection::vec(any::<prop::sample::Index>(), 0..24),
        ) {
            let mut v1 = base.clone();
            for idx in flips1 {
                let i = idx.index(v1.len());
                v1[i] = v1[i].wrapping_add(1);
            }
            let diff1 = Diff::between(&base, &v1);
            let mut v2 = v1.clone();
            for idx in flips2 {
                let i = idx.index(v2.len());
                v2[i] = v2[i].wrapping_add(1);
            }
            let diff2 = Diff::between(&v1, &v2);

            let mut merged = diff1.clone();
            merged.merge(&diff2);
            let mut via_merge = base.clone();
            merged.apply(&mut via_merge);
            prop_assert_eq!(&via_merge, &v2);

            let ranges = merged.ranges();
            for w in ranges.windows(2) {
                prop_assert!(w[0].end() < w[1].start, "canonical after merge: {:?}", ranges);
            }
        }
    }
}
