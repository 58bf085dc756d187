//! An unseeded hasher for maps keyed by small integer ids (pages, objects,
//! locks, threads).
//!
//! std's `RandomState` runs SipHash with a per-process random key: robust
//! against adversarial keys, but a few dozen cycles per lookup and an
//! iteration order that differs from one process to the next. Protocol
//! tables are keyed by ids the runtime itself hands out, so neither
//! property is wanted there. [`IdHasher`] is the Fx mix (rotate, xor,
//! multiply by an odd constant): one multiply per word, and a map's
//! iteration order depends only on what was inserted. Keep it off keys
//! that come from outside the program, whose chooser could make them
//! collide.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx word mix: fast and unseeded, so equal inputs hash alike in every
/// process.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

const MUL: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` over [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectId;
    use std::hash::BuildHasher;

    fn hash_of<T: std::hash::Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn unseeded_and_distinct_for_adjacent_ids() {
        assert_eq!(hash_of(ObjectId(7)), hash_of(ObjectId(7)));
        let mut hashes: Vec<u64> = (0..4096u64).map(hash_of).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn iteration_order_depends_only_on_the_inserts() {
        let build = || {
            let mut m: IdMap<u64, u64> = IdMap::default();
            for i in (0..200u64).rev() {
                m.insert(i * 37, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IdHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
