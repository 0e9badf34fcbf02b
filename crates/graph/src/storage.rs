//! Backing storage for [`UndirectedCsr`](crate::UndirectedCsr): owned
//! vectors or a borrowed view into a shared byte region.
//!
//! The binary `.nsg` corpus format stores the exact CSR buffers —
//! little-endian `u64` offsets followed by `(u32, u32)` slot and edge
//! pairs — so on a 64-bit little-endian target those file bytes *are*
//! valid `&[usize]` / `&[(NodeId, EdgeId)]` slices, provided the region
//! is suitably aligned. [`CsrStorage::from_region`] performs a validated
//! cast: it proves (once, at construction) that the target's in-memory
//! layout of the id tuples matches the on-disk [`RawSlotPair`] layout,
//! checks alignment and bounds of every buffer, and only then reborrows
//! the region as typed slices. Unsupported targets (big-endian, 32-bit)
//! and misaligned regions are reported as errors so callers can fall
//! back to an owned decode — the cast is never assumed.
//!
//! This is the single module in the crate that uses `unsafe`; every
//! other module keeps the crate-level `deny(unsafe_code)`.
#![allow(unsafe_code)]

use crate::{EdgeId, NodeId};
use std::ops::Range;
use std::sync::Arc;

/// A shared, immutable byte region that can back a borrowed CSR graph —
/// typically a memory-mapped `.nsg` file, or the file's bytes read into
/// a `Vec<u8>` where mapping is unavailable.
///
/// # Safety
///
/// Implementors must guarantee that, for the whole lifetime of the
/// value, `bytes()` returns the *same* pointer and length on every call
/// and the underlying memory is never mutated or unmapped. Borrowed CSR
/// storage caches typed slices into the region at construction time and
/// dereferences them for as long as the region is alive.
pub unsafe trait CsrBytes: Send + Sync + 'static {
    /// The backing bytes. Must be pointer-stable (see the trait docs).
    fn bytes(&self) -> &[u8];
}

// A `Vec` behind an `Arc` is never mutated, so its heap buffer is
// pointer-stable until the last `Arc` drops.
unsafe impl CsrBytes for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }
}

/// A byte buffer whose start is guaranteed 8-byte aligned (it is backed
/// by `u64` words), so a `.nsg` image held on the heap can serve
/// zero-copy CSR views just like a page-aligned file mapping. This is
/// the fallback region type where `mmap` is unavailable — a plain
/// `Vec<u8>` offers no alignment guarantee.
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into an 8-byte-aligned buffer.
    pub fn from_bytes(bytes: &[u8]) -> AlignedBytes {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        for (word, chunk) in words.iter_mut().zip(bytes.chunks(8)) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            *word = u64::from_ne_bytes(b);
        }
        AlignedBytes {
            words,
            len: bytes.len(),
        }
    }

    /// The buffered length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// The word buffer is never mutated after construction, so the byte view
// is pointer-stable behind an `Arc` exactly like `Vec<u8>`.
unsafe impl CsrBytes for AlignedBytes {
    fn bytes(&self) -> &[u8] {
        // SAFETY: any initialized memory is valid as bytes; `len` never
        // exceeds the word buffer (from_bytes rounds the words up).
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// Byte ranges of the three CSR buffers inside a [`CsrBytes`] region:
/// `offsets` as `u64`s, then `slots` and `edge_list` as `(u32, u32)`
/// pairs, all little-endian.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrLayout {
    /// Byte range of the `(n + 1)` vertex offsets (`u64` each).
    pub offsets: Range<usize>,
    /// Byte range of the `2m` incidence slots ([`RawSlotPair`] each).
    pub slots: Range<usize>,
    /// Byte range of the `m` edge-endpoint pairs ([`RawSlotPair`] each).
    pub edge_list: Range<usize>,
}

/// The on-disk shape of one incidence slot (or edge-endpoint pair): two
/// little-endian `u32`s. `#[repr(C)]` pins the field order, making this
/// the layout that `CsrStorage::from_region` validates `(NodeId,
/// EdgeId)` and `(NodeId, NodeId)` against before casting.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSlotPair {
    /// First `u32` of the pair (slot neighbor / edge source).
    pub a: u32,
    /// Second `u32` of the pair (slot edge id / edge target).
    pub b: u32,
}

/// The buffers behind an `UndirectedCsr`: owned vectors, or slices
/// borrowed from a shared byte region.
#[derive(Clone)]
pub(crate) enum CsrStorage {
    /// The classic representation: three heap-owned vectors.
    Owned {
        offsets: Vec<usize>,
        slots: Vec<(NodeId, EdgeId)>,
        edge_list: Vec<(NodeId, NodeId)>,
    },
    /// Slices into a shared byte region (zero-copy).
    Borrowed(BorrowedCsr),
}

/// Typed slices into a kept-alive byte region.
///
/// The slices are lifetime-erased to `'static`; this is sound because
/// they point into `region`, whose [`CsrBytes`] contract guarantees a
/// pointer-stable, immutable buffer for as long as the `Arc` lives, and
/// the `Arc` lives at least as long as this struct. Accessors reborrow
/// them at the storage's own (shorter) lifetime.
#[derive(Clone)]
pub(crate) struct BorrowedCsr {
    /// Keeps the byte region alive; the slices below point into it.
    _region: Arc<dyn CsrBytes>,
    offsets: &'static [usize],
    slots: &'static [(NodeId, EdgeId)],
    edge_list: &'static [(NodeId, NodeId)],
}

impl CsrStorage {
    /// Borrows the three CSR buffers out of `region` at the byte ranges
    /// given by `layout`, without copying.
    ///
    /// Errors (with a human-readable reason) if the target cannot
    /// express the cast ([`zero_copy_support`]), a range is out of
    /// bounds or not a whole number of elements, or a buffer start is
    /// misaligned for its element type. Structural CSR validation is the
    /// caller's job — this function only proves the *memory* view safe.
    pub(crate) fn from_region(
        region: Arc<dyn CsrBytes>,
        layout: &CsrLayout,
    ) -> Result<CsrStorage, String> {
        zero_copy_support()?;
        let bytes = region.bytes();
        // SAFETY (for all three casts below): `cast_slice` proves the
        // byte range is in bounds, a whole number of elements, and that
        // its start is aligned for the element type; the layout probes in
        // `zero_copy_support` proved the element types are exactly their
        // on-disk little-endian shapes. The `'static` lifetime erasure is
        // sound because `region`'s `CsrBytes` contract pins the buffer
        // for as long as the `Arc` (stored alongside the slices) lives.
        let offsets = unsafe { cast_slice::<usize>(bytes, &layout.offsets, "offsets")? };
        let slots = unsafe { cast_slice::<(NodeId, EdgeId)>(bytes, &layout.slots, "slots")? };
        let edge_list =
            unsafe { cast_slice::<(NodeId, NodeId)>(bytes, &layout.edge_list, "edge_list")? };
        Ok(CsrStorage::Borrowed(BorrowedCsr {
            offsets,
            slots,
            edge_list,
            _region: region,
        }))
    }

    #[inline]
    pub(crate) fn offsets(&self) -> &[usize] {
        match self {
            CsrStorage::Owned { offsets, .. } => offsets,
            CsrStorage::Borrowed(b) => b.offsets,
        }
    }

    #[inline]
    pub(crate) fn slots(&self) -> &[(NodeId, EdgeId)] {
        match self {
            CsrStorage::Owned { slots, .. } => slots,
            CsrStorage::Borrowed(b) => b.slots,
        }
    }

    #[inline]
    pub(crate) fn edge_list(&self) -> &[(NodeId, NodeId)] {
        match self {
            CsrStorage::Owned { edge_list, .. } => edge_list,
            CsrStorage::Borrowed(b) => b.edge_list,
        }
    }

    pub(crate) fn is_borrowed(&self) -> bool {
        matches!(self, CsrStorage::Borrowed(_))
    }

    /// Converts borrowed storage into owned vectors (no-op when already
    /// owned), then returns the offsets alongside the mutable slot
    /// buffer — the pair slot-shuffling needs.
    pub(crate) fn offsets_and_slots_mut(&mut self) -> (&[usize], &mut [(NodeId, EdgeId)]) {
        self.make_owned();
        match self {
            CsrStorage::Owned { offsets, slots, .. } => (offsets, slots),
            CsrStorage::Borrowed(_) => unreachable!("make_owned left storage borrowed"),
        }
    }

    /// Copies borrowed slices into owned vectors, detaching the graph
    /// from its backing region.
    pub(crate) fn make_owned(&mut self) {
        if let CsrStorage::Borrowed(b) = self {
            *self = CsrStorage::Owned {
                offsets: b.offsets.to_vec(),
                slots: b.slots.to_vec(),
                edge_list: b.edge_list.to_vec(),
            };
        }
    }
}

/// Whether this target can reinterpret `.nsg` payload bytes as CSR
/// slices directly: it must be 64-bit little-endian, and the in-memory
/// layouts of `usize`, `(NodeId, EdgeId)`, and `(NodeId, NodeId)` must
/// match the on-disk `u64` / [`RawSlotPair`] shapes. The tuple layouts
/// are not guaranteed by the language, so they are *probed* with known
/// bit patterns rather than assumed; on any mismatch callers fall back
/// to an owned decode.
pub fn zero_copy_support() -> Result<(), String> {
    #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
    {
        Err("zero-copy CSR views need a 64-bit little-endian target".to_string())
    }
    #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
    {
        use std::mem::{align_of, size_of, transmute_copy};
        fn probe<T>(value: T, expect: [u8; 8], what: &str) -> Result<(), String> {
            if size_of::<T>() != 8 {
                return Err(format!(
                    "{what} is {} bytes in memory, not the on-disk 8",
                    size_of::<T>()
                ));
            }
            if align_of::<T>() > 8 {
                return Err(format!("{what} is over-aligned ({})", align_of::<T>()));
            }
            // SAFETY: `T` was just proven to be exactly 8 bytes.
            let raw: [u8; 8] = unsafe { transmute_copy(&value) };
            if raw != expect {
                return Err(format!("{what} has an unexpected in-memory byte layout"));
            }
            Ok(())
        }
        let le = 0x0807_0605_0403_0201u64.to_le_bytes();
        probe(0x0807_0605_0403_0201usize, le, "usize")?;
        probe(
            RawSlotPair {
                a: 0x0403_0201,
                b: 0x0807_0605,
            },
            le,
            "RawSlotPair",
        )?;
        probe(
            (NodeId::new(0x0403_0201), EdgeId::new(0x0807_0605)),
            le,
            "(NodeId, EdgeId)",
        )?;
        probe(
            (NodeId::new(0x0403_0201), NodeId::new(0x0807_0605)),
            le,
            "(NodeId, NodeId)",
        )?;
        Ok(())
    }
}

/// Reinterprets `bytes[range]` as a `T` slice with a `'static` lifetime.
///
/// # Safety
///
/// The caller must guarantee that `T`'s in-memory layout matches the
/// raw bytes (see [`zero_copy_support`]) and that the bytes outlive the
/// returned slice and are never mutated. Bounds, element-size, and
/// alignment violations are caught here and reported as errors.
unsafe fn cast_slice<T>(
    bytes: &[u8],
    range: &Range<usize>,
    what: &str,
) -> Result<&'static [T], String> {
    let elem = std::mem::size_of::<T>();
    if range.start > range.end || range.end > bytes.len() {
        return Err(format!(
            "{what} byte range {range:?} exceeds the {}-byte region",
            bytes.len()
        ));
    }
    let len_bytes = range.end - range.start;
    if !len_bytes.is_multiple_of(elem) {
        return Err(format!(
            "{what} byte range {range:?} is not a whole number of {elem}-byte elements"
        ));
    }
    let ptr = bytes[range.start..range.end].as_ptr();
    if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return Err(format!(
            "{what} buffer at {ptr:p} is misaligned for its element type"
        ));
    }
    // SAFETY: in-bounds, aligned, whole elements (checked above); layout
    // and lifetime are the caller's contract.
    Ok(unsafe { std::slice::from_raw_parts(ptr.cast::<T>(), len_bytes / elem) })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes a tiny CSR region by hand: the 1-edge graph 0—1.
    /// offsets [0, 1, 2], slots [(1, e0), (0, e0)], edges [(0, 1)].
    /// `AlignedBytes` makes the alignment tests below deterministic.
    fn tiny_region() -> (AlignedBytes, CsrLayout) {
        let mut bytes = Vec::new();
        for o in [0u64, 1, 2] {
            bytes.extend_from_slice(&o.to_le_bytes());
        }
        for (a, b) in [(1u32, 0u32), (0, 0)] {
            bytes.extend_from_slice(&a.to_le_bytes());
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        let layout = CsrLayout {
            offsets: 0..24,
            slots: 24..40,
            edge_list: 40..48,
        };
        (AlignedBytes::from_bytes(&bytes), layout)
    }

    #[test]
    fn aligned_bytes_roundtrip_and_alignment() {
        for len in [0usize, 1, 7, 8, 9, 48] {
            let src: Vec<u8> = (0..len as u8).collect();
            let aligned = AlignedBytes::from_bytes(&src);
            assert_eq!(aligned.bytes(), &src[..]);
            assert_eq!(aligned.len(), len);
            assert_eq!(aligned.is_empty(), len == 0);
            assert_eq!(aligned.bytes().as_ptr() as usize % 8, 0);
        }
    }

    #[test]
    fn this_target_supports_zero_copy() {
        // The whole test suite runs on x86-64/aarch64 linux; if this
        // starts failing the owned-decode fallback still keeps every
        // reader correct, but the perf story should be revisited.
        #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
        zero_copy_support().unwrap();
    }

    #[test]
    fn from_region_borrows_the_expected_slices() {
        let (bytes, layout) = tiny_region();
        let storage = CsrStorage::from_region(Arc::new(bytes), &layout).unwrap();
        assert!(storage.is_borrowed());
        assert_eq!(storage.offsets(), &[0, 1, 2]);
        assert_eq!(
            storage.slots(),
            &[
                (NodeId::new(1), EdgeId::new(0)),
                (NodeId::new(0), EdgeId::new(0)),
            ]
        );
        assert_eq!(storage.edge_list(), &[(NodeId::new(0), NodeId::new(1))]);
    }

    #[test]
    fn clone_shares_the_region() {
        let (bytes, layout) = tiny_region();
        let storage = CsrStorage::from_region(Arc::new(bytes), &layout).unwrap();
        let cloned = storage.clone();
        assert!(cloned.is_borrowed());
        assert_eq!(storage.offsets(), cloned.offsets());
        assert_eq!(
            storage.slots().as_ptr(),
            cloned.slots().as_ptr(),
            "clone reborrows the same bytes"
        );
    }

    #[test]
    fn make_owned_detaches_from_the_region() {
        let (bytes, layout) = tiny_region();
        let mut storage = CsrStorage::from_region(Arc::new(bytes), &layout).unwrap();
        let borrowed_ptr = storage.slots().as_ptr();
        storage.make_owned();
        assert!(!storage.is_borrowed());
        assert_ne!(storage.slots().as_ptr(), borrowed_ptr);
        assert_eq!(storage.offsets(), &[0, 1, 2]);
        // Mutable access on owned storage stays owned.
        let (offsets, slots) = storage.offsets_and_slots_mut();
        assert_eq!(offsets.len(), 3);
        slots[0] = (NodeId::new(0), EdgeId::new(0));
        assert!(!storage.is_borrowed());
    }

    #[test]
    fn bad_layouts_are_rejected() {
        let (bytes, layout) = tiny_region();
        let region: Arc<dyn CsrBytes> = Arc::new(bytes);

        // Range beyond the region.
        let mut far = layout.clone();
        far.edge_list = 40..56;
        let err = CsrStorage::from_region(Arc::clone(&region), &far)
            .err()
            .unwrap();
        assert!(err.contains("exceeds"), "{err}");

        // Inverted range.
        let mut inverted = layout.clone();
        inverted.slots = Range { start: 40, end: 24 };
        assert!(CsrStorage::from_region(Arc::clone(&region), &inverted).is_err());

        // Ragged element count.
        let mut ragged = layout.clone();
        ragged.offsets = 0..20;
        let err = CsrStorage::from_region(Arc::clone(&region), &ragged)
            .err()
            .unwrap();
        assert!(err.contains("whole number"), "{err}");

        // Misaligned offsets start (u64 wants 8-byte alignment).
        let mut shifted = layout;
        shifted.offsets = 4..20;
        let err = CsrStorage::from_region(region, &shifted).err().unwrap();
        assert!(err.contains("misaligned"), "{err}");
    }

    #[test]
    fn storage_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CsrStorage>();
    }
}
