//! Per-node object storage.
//!
//! Each node's server keeps the bytes of every object it currently has a
//! copy of. The store is protocol-agnostic: validity/ownership state lives
//! in the protocol layer; this is just bounds-checked bytes plus the
//! little-endian integer views used by atomic counters and work queues.

use munin_types::{ByteRange, DsmError, DsmResult, IdMap, ObjectId};

/// Bytes of local object copies.
#[derive(Debug, Default)]
pub struct ObjectStore {
    objects: IdMap<ObjectId, Vec<u8>>,
}

impl ObjectStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a copy (zero-filled) of `size` bytes. No-op if present.
    pub fn ensure_zeroed(&mut self, obj: ObjectId, size: u32) -> &mut Vec<u8> {
        self.objects.entry(obj).or_insert_with(|| vec![0; size as usize])
    }

    /// Install a copy with the given bytes, replacing any existing copy.
    pub fn install(&mut self, obj: ObjectId, data: Vec<u8>) {
        self.objects.insert(obj, data);
    }

    /// Drop the local copy (invalidation / migration away).
    pub fn evict(&mut self, obj: ObjectId) -> Option<Vec<u8>> {
        self.objects.remove(&obj)
    }

    pub fn contains(&self, obj: ObjectId) -> bool {
        self.objects.contains_key(&obj)
    }

    pub fn get(&self, obj: ObjectId) -> Option<&[u8]> {
        self.objects.get(&obj).map(|v| v.as_slice())
    }

    pub fn get_mut(&mut self, obj: ObjectId) -> Option<&mut Vec<u8>> {
        self.objects.get_mut(&obj)
    }

    /// Read `range`, bounds-checked.
    pub fn read(&self, obj: ObjectId, range: ByteRange) -> DsmResult<Vec<u8>> {
        let data = self.objects.get(&obj).ok_or(DsmError::UnknownObject(obj))?;
        if !range.fits_in(data.len() as u32) {
            return Err(DsmError::OutOfBounds { obj, range, size: data.len() as u32 });
        }
        Ok(data[range.start as usize..range.end() as usize].to_vec())
    }

    /// Write `bytes` at `range.start`, bounds-checked.
    pub fn write(&mut self, obj: ObjectId, range: ByteRange, bytes: &[u8]) -> DsmResult<()> {
        debug_assert_eq!(range.len as usize, bytes.len());
        let data = self.objects.get_mut(&obj).ok_or(DsmError::UnknownObject(obj))?;
        if !range.fits_in(data.len() as u32) {
            return Err(DsmError::OutOfBounds { obj, range, size: data.len() as u32 });
        }
        data[range.start as usize..range.end() as usize].copy_from_slice(bytes);
        Ok(())
    }

    /// Atomic fetch-and-add on the little-endian i64 at `offset`; returns the
    /// previous value. ("More elaborate synchronization objects, such as
    /// monitors and atomic integers, are built on top.")
    pub fn fetch_add_i64(&mut self, obj: ObjectId, offset: u32, delta: i64) -> DsmResult<i64> {
        let range = ByteRange::new(offset, 8);
        let data = self.objects.get_mut(&obj).ok_or(DsmError::UnknownObject(obj))?;
        if !range.fits_in(data.len() as u32) {
            return Err(DsmError::OutOfBounds { obj, range, size: data.len() as u32 });
        }
        let s = offset as usize;
        let old = i64::from_le_bytes(data[s..s + 8].try_into().expect("8-byte slice"));
        let new = old.wrapping_add(delta);
        data[s..s + 8].copy_from_slice(&new.to_le_bytes());
        Ok(old)
    }

    /// Number of objects with local copies.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Total bytes held locally (memory-economy diagnostics: replication of
    /// large objects "can restrict the size of the problems that can be
    /// solved").
    pub fn resident_bytes(&self) -> usize {
        self.objects.values().map(|v| v.len()).sum()
    }
}

/// Read a little-endian i64 out of a byte slice (helper shared by typed
/// views in the API layer).
pub fn read_i64_le(data: &[u8], offset: usize) -> i64 {
    i64::from_le_bytes(data[offset..offset + 8].try_into().expect("8-byte slice"))
}

/// Write a little-endian i64 into a byte slice.
pub fn write_i64_le(data: &mut [u8], offset: usize, value: i64) {
    data[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
}

/// Read a little-endian f64.
pub fn read_f64_le(data: &[u8], offset: usize) -> f64 {
    f64::from_le_bytes(data[offset..offset + 8].try_into().expect("8-byte slice"))
}

/// Write a little-endian f64.
pub fn write_f64_le(data: &mut [u8], offset: usize, value: f64) {
    data[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBJ: ObjectId = ObjectId(1);

    #[test]
    fn install_read_write_roundtrip() {
        let mut s = ObjectStore::new();
        s.install(OBJ, vec![0; 16]);
        s.write(OBJ, ByteRange::new(4, 3), &[9, 8, 7]).unwrap();
        assert_eq!(s.read(OBJ, ByteRange::new(3, 5)).unwrap(), vec![0, 9, 8, 7, 0]);
    }

    #[test]
    fn unknown_object_errors() {
        let s = ObjectStore::new();
        assert_eq!(s.read(OBJ, ByteRange::new(0, 1)).unwrap_err(), DsmError::UnknownObject(OBJ));
    }

    #[test]
    fn out_of_bounds_errors() {
        let mut s = ObjectStore::new();
        s.install(OBJ, vec![0; 8]);
        let err = s.read(OBJ, ByteRange::new(5, 4)).unwrap_err();
        assert!(matches!(err, DsmError::OutOfBounds { size: 8, .. }));
        let err = s.write(OBJ, ByteRange::new(8, 1), &[1]).unwrap_err();
        assert!(matches!(err, DsmError::OutOfBounds { .. }));
    }

    #[test]
    fn fetch_add_returns_previous_and_wraps() {
        let mut s = ObjectStore::new();
        s.install(OBJ, vec![0; 16]);
        assert_eq!(s.fetch_add_i64(OBJ, 8, 5).unwrap(), 0);
        assert_eq!(s.fetch_add_i64(OBJ, 8, -2).unwrap(), 5);
        assert_eq!(s.fetch_add_i64(OBJ, 8, 0).unwrap(), 3);
        // Offset 0 is untouched.
        assert_eq!(read_i64_le(s.get(OBJ).unwrap(), 0), 0);
        // Wrapping, not panicking.
        s.write(OBJ, ByteRange::new(0, 8), &i64::MAX.to_le_bytes()).unwrap();
        assert_eq!(s.fetch_add_i64(OBJ, 0, 1).unwrap(), i64::MAX);
        assert_eq!(read_i64_le(s.get(OBJ).unwrap(), 0), i64::MIN);
    }

    #[test]
    fn fetch_add_bounds_checked() {
        let mut s = ObjectStore::new();
        s.install(OBJ, vec![0; 8]);
        assert!(s.fetch_add_i64(OBJ, 4, 1).is_err(), "8-byte read at offset 4 of size 8");
        assert!(s.fetch_add_i64(OBJ, 0, 1).is_ok());
    }

    #[test]
    fn evict_and_residency() {
        let mut s = ObjectStore::new();
        s.install(OBJ, vec![0; 100]);
        s.install(ObjectId(2), vec![0; 28]);
        assert_eq!(s.resident_bytes(), 128);
        assert_eq!(s.len(), 2);
        let evicted = s.evict(OBJ).unwrap();
        assert_eq!(evicted.len(), 100);
        assert!(!s.contains(OBJ));
        assert_eq!(s.resident_bytes(), 28);
    }

    #[test]
    fn ensure_zeroed_is_idempotent() {
        let mut s = ObjectStore::new();
        s.ensure_zeroed(OBJ, 4);
        s.write(OBJ, ByteRange::new(0, 1), &[42]).unwrap();
        s.ensure_zeroed(OBJ, 4);
        assert_eq!(s.read(OBJ, ByteRange::new(0, 1)).unwrap(), vec![42]);
    }

    #[test]
    fn le_helpers_roundtrip() {
        let mut buf = vec![0u8; 24];
        write_i64_le(&mut buf, 0, -123456789);
        write_f64_le(&mut buf, 8, 3.25);
        assert_eq!(read_i64_le(&buf, 0), -123456789);
        assert_eq!(read_f64_le(&buf, 8), 3.25);
    }
}
