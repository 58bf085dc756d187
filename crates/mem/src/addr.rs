//! The Ivy baseline's flat shared address space.
//!
//! Ivy provides "a virtual address space that is shared among all the
//! processors", divided into fixed-size pages; "all sharing is on a per-page
//! basis, entailing the possibility of significant amounts of false
//! sharing". This module reproduces that: objects are *placed* at addresses
//! (packed back-to-back, or page-aligned as an ablation), and every access
//! is translated from (object, byte range) to the page pieces it touches.
//!
//! Placement is deterministic given the declaration order, so every node
//! computes the identical layout without communication — exactly like a
//! linker laying out a shared segment.

use munin_types::{AllocPolicy, ByteRange, IdMap, ObjectId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A page number in the flat space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId(pub u64);

impl PageId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// The contiguous run of pages `[first, end)` an access touches; empty for
/// a zero-length access. Every access is one run of bytes, so its pages are
/// one run too: the span is what [`AddressSpace::pieces`] would list,
/// without the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageSpan {
    pub first: u64,
    pub end: u64,
}

impl PageSpan {
    /// The pages bytes `[addr, addr + len)` touch, at `page_size`.
    pub fn of_bytes(addr: u64, len: u32, page_size: u32) -> Self {
        if len == 0 {
            return PageSpan::default();
        }
        let ps = page_size as u64;
        PageSpan { first: addr / ps, end: (addr + len as u64 - 1) / ps + 1 }
    }

    pub fn pages(self) -> impl Iterator<Item = PageId> {
        (self.first..self.end).map(PageId)
    }

    pub fn contains(self, page: PageId) -> bool {
        self.first <= page.0 && page.0 < self.end
    }
}

/// One page-sized (or smaller) piece of an object access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagePiece {
    /// Which page.
    pub page: PageId,
    /// Offset of the piece within the page.
    pub off_in_page: u32,
    /// Offset of the piece within the *object*.
    pub obj_offset: u32,
    /// Piece length in bytes.
    pub len: u32,
}

/// The pieces of bytes `[addr, addr + len)` at `page_size`, in page order,
/// without a list. The first byte is at `offset` in its object, and each
/// piece's `obj_offset` continues from there.
pub fn page_pieces(
    page_size: u32,
    addr: u64,
    offset: u32,
    len: u32,
) -> impl Iterator<Item = PagePiece> {
    let ps = page_size as u64;
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = addr + done as u64;
            let off_in_page = (a % ps) as u32;
            let take = (len - done).min(page_size - off_in_page);
            let piece = PagePiece {
                page: PageId(a / ps),
                off_in_page,
                obj_offset: offset + done,
                len: take,
            };
            done += take;
            piece
        })
    })
}

/// Deterministic object placement + translation.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    page_size: u32,
    policy: AllocPolicy,
    next_addr: u64,
    bases: IdMap<ObjectId, (u64, u32)>, // (base address, size)
}

impl AddressSpace {
    pub fn new(page_size: u32, policy: AllocPolicy) -> Self {
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        AddressSpace { page_size, policy, next_addr: 0, bases: IdMap::default() }
    }

    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Place an object; returns its base address. Word-aligns packed
    /// placements (8 bytes) so numeric views never straddle for alignment
    /// reasons alone.
    pub fn place(&mut self, obj: ObjectId, size: u32) -> u64 {
        let base = match self.policy {
            AllocPolicy::Packed => (self.next_addr + 7) & !7,
            AllocPolicy::PageAligned => {
                let ps = self.page_size as u64;
                self.next_addr.div_ceil(ps) * ps
            }
        };
        self.next_addr = base + size as u64;
        self.bases.insert(obj, (base, size));
        base
    }

    pub fn base(&self, obj: ObjectId) -> Option<u64> {
        self.bases.get(&obj).map(|(b, _)| *b)
    }

    pub fn size(&self, obj: ObjectId) -> Option<u32> {
        self.bases.get(&obj).map(|(_, s)| *s)
    }

    /// Total pages the placed objects span.
    pub fn page_count(&self) -> u64 {
        self.next_addr.div_ceil(self.page_size as u64)
    }

    /// Page containing flat address `addr`.
    pub fn page_of(&self, addr: u64) -> PageId {
        PageId(addr / self.page_size as u64)
    }

    /// Flat address of byte `range.start` of `obj` and the pages the access
    /// touches; `None` for an unplaced object or a range past its end.
    pub fn span(&self, obj: ObjectId, range: ByteRange) -> Option<(u64, PageSpan)> {
        let (base, size) = *self.bases.get(&obj)?;
        if !range.fits_in(size) {
            return None;
        }
        let addr = base + range.start as u64;
        Some((addr, PageSpan::of_bytes(addr, range.len, self.page_size)))
    }

    /// Translate an access to `range` of `obj` into per-page pieces, in
    /// ascending page order.
    pub fn pieces(&self, obj: ObjectId, range: ByteRange) -> Option<Vec<PagePiece>> {
        let (base, size) = *self.bases.get(&obj)?;
        if !range.fits_in(size) {
            return None;
        }
        let addr = base + range.start as u64;
        Some(page_pieces(self.page_size, addr, range.start, range.len).collect())
    }

    /// All pages an object occupies (for sizing page tables).
    pub fn pages_of_object(&self, obj: ObjectId) -> Option<Vec<PageId>> {
        let (base, size) = *self.bases.get(&obj)?;
        Some(PageSpan::of_bytes(base, size, self.page_size).pages().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn packed_placement_shares_pages() {
        let mut a = AddressSpace::new(1024, AllocPolicy::Packed);
        let o1 = ObjectId(0);
        let o2 = ObjectId(1);
        a.place(o1, 100);
        a.place(o2, 100);
        // Both objects in page 0 — false sharing territory.
        assert_eq!(a.pages_of_object(o1).unwrap(), vec![PageId(0)]);
        assert_eq!(a.pages_of_object(o2).unwrap(), vec![PageId(0)]);
        assert_eq!(a.base(o2).unwrap(), 104, "word aligned after 100 bytes");
    }

    #[test]
    fn page_aligned_placement_isolates_objects() {
        let mut a = AddressSpace::new(1024, AllocPolicy::PageAligned);
        let o1 = ObjectId(0);
        let o2 = ObjectId(1);
        a.place(o1, 100);
        a.place(o2, 100);
        assert_eq!(a.base(o2).unwrap(), 1024);
        assert_eq!(a.pages_of_object(o2).unwrap(), vec![PageId(1)]);
        assert_eq!(a.page_count(), 2);
    }

    #[test]
    fn pieces_split_at_page_boundaries() {
        let mut a = AddressSpace::new(256, AllocPolicy::Packed);
        let o = ObjectId(0);
        a.place(o, 1000);
        // Access [200, 600) spans pages 0,1,2.
        let pieces = a.pieces(o, ByteRange::new(200, 400)).unwrap();
        assert_eq!(pieces.len(), 3);
        assert_eq!(
            pieces[0],
            PagePiece { page: PageId(0), off_in_page: 200, obj_offset: 200, len: 56 }
        );
        assert_eq!(
            pieces[1],
            PagePiece { page: PageId(1), off_in_page: 0, obj_offset: 256, len: 256 }
        );
        assert_eq!(
            pieces[2],
            PagePiece { page: PageId(2), off_in_page: 0, obj_offset: 512, len: 88 }
        );
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut a = AddressSpace::new(256, AllocPolicy::Packed);
        let o = ObjectId(0);
        a.place(o, 100);
        assert!(a.pieces(o, ByteRange::new(90, 20)).is_none());
        assert!(a.pieces(ObjectId(9), ByteRange::new(0, 1)).is_none());
    }

    #[test]
    fn placement_is_deterministic() {
        let build = || {
            let mut a = AddressSpace::new(512, AllocPolicy::Packed);
            for i in 0..20 {
                a.place(ObjectId(i), (i as u32 + 1) * 13);
            }
            (0..20).map(|i| a.base(ObjectId(i)).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    proptest! {
        /// Pieces tile the requested range exactly: contiguous object
        /// offsets, lengths sum to the range, and no piece crosses a page
        /// boundary.
        #[test]
        fn pieces_tile_the_range(
            page_pow in 6u32..12,
            sizes in proptest::collection::vec(1u32..5000, 1..10),
            pick in any::<prop::sample::Index>(),
            start_frac in 0.0f64..1.0,
            len_frac in 0.0f64..1.0,
        ) {
            let ps = 1u32 << page_pow;
            let mut a = AddressSpace::new(ps, AllocPolicy::Packed);
            for (i, s) in sizes.iter().enumerate() {
                a.place(ObjectId(i as u64), *s);
            }
            let idx = pick.index(sizes.len());
            let obj = ObjectId(idx as u64);
            let size = sizes[idx];
            let start = ((size - 1) as f64 * start_frac) as u32;
            let len = 1 + (((size - start - 1) as f64) * len_frac) as u32;
            let range = ByteRange::new(start, len);
            let pieces = a.pieces(obj, range).unwrap();

            let mut expect_off = start;
            let mut total = 0u32;
            for p in &pieces {
                prop_assert_eq!(p.obj_offset, expect_off);
                prop_assert!(p.off_in_page + p.len <= ps, "piece crosses page boundary");
                prop_assert!(p.len > 0);
                expect_off += p.len;
                total += p.len;
            }
            prop_assert_eq!(total, len);
            // Pages ascend.
            for w in pieces.windows(2) {
                prop_assert!(w[1].page.0 == w[0].page.0 + 1);
            }
        }

        /// The span lists exactly the pages of `pieces`, for either
        /// placement policy and any range that fits, zero-length and
        /// page-straddling ones included; the address is the first piece's.
        #[test]
        fn span_is_the_page_list_of_pieces(
            page_pow in 3u32..12,
            aligned in any::<bool>(),
            sizes in proptest::collection::vec(0u32..5000, 1..10),
            pick in any::<prop::sample::Index>(),
            start_frac in 0.0f64..=1.0,
            len_frac in 0.0f64..=1.0,
        ) {
            let ps = 1u32 << page_pow;
            let policy = if aligned { AllocPolicy::PageAligned } else { AllocPolicy::Packed };
            let mut a = AddressSpace::new(ps, policy);
            for (i, s) in sizes.iter().enumerate() {
                a.place(ObjectId(i as u64), *s);
            }
            let idx = pick.index(sizes.len());
            let obj = ObjectId(idx as u64);
            let size = sizes[idx];
            let start = (size as f64 * start_frac) as u32;
            let len = ((size - start) as f64 * len_frac) as u32;
            let range = ByteRange::new(start, len);
            let pieces = a.pieces(obj, range).unwrap();
            let (addr, span) = a.span(obj, range).unwrap();
            let listed: Vec<PageId> = pieces.iter().map(|p| p.page).collect();
            prop_assert_eq!(span.pages().collect::<Vec<_>>(), listed);
            prop_assert_eq!(addr, a.base(obj).unwrap() + start as u64);
            if let Some(p) = pieces.first() {
                prop_assert_eq!(addr % ps as u64, p.off_in_page as u64);
            }
            // Out-of-bounds agrees too.
            let past = ByteRange::new(start, size - start + 1);
            prop_assert_eq!(a.span(obj, past).is_none(), a.pieces(obj, past).is_none());
        }
    }

    #[test]
    fn span_of_bytes_edges() {
        assert_eq!(PageSpan::of_bytes(100, 0, 64), PageSpan::default());
        assert_eq!(PageSpan::of_bytes(64, 64, 64), PageSpan { first: 1, end: 2 });
        assert_eq!(PageSpan::of_bytes(63, 2, 64), PageSpan { first: 0, end: 2 });
        let s = PageSpan::of_bytes(60, 200, 64);
        assert_eq!(s.pages().collect::<Vec<_>>(), (0..5).map(PageId).collect::<Vec<_>>());
        assert!(s.contains(PageId(4)) && !s.contains(PageId(5)));
    }
}
