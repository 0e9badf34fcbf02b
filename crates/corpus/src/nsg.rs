//! The `.nsg` binary graph format: a little-endian serialization of the
//! exact CSR buffers of an [`UndirectedCsr`].
//!
//! Layout (all integers little-endian):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `b"NSG1"` |
//! | 4      | 2    | format version (`2`) |
//! | 6      | 2    | flags (reserved, `0`) |
//! | 8      | 8    | vertex count `n` (u64) |
//! | 16     | 8    | edge count `m` (u64) |
//! | 24     | 8    | XXH64 (seed 0) checksum of the payload |
//! | 32     | —    | payload |
//!
//! Payload: `offsets` as `(n+1) × u64`, then `slots` as
//! `2m × (u32 neighbor, u32 edge id)`, then `edge_list` as
//! `m × (u32, u32)`. Storing all three buffers (rather than just the
//! edge list) is what makes the reader *zero-copy-style*: decoding is a
//! straight bulk conversion into
//! [`UndirectedCsr::from_raw_parts`] with no CSR re-derivation, so the
//! exact incidence-slot order — including the slot shuffle baked in at
//! generation time — survives the round trip bit for bit.
//!
//! Format version 2 differs from version 1 only in the checksum
//! function (XXH64 instead of FNV-1a 64); the payload is unchanged.
//! Readers speak version 2 alone, so a corpus built with version 1
//! files must be rebuilt (`xp corpus build`).

use crate::error::CorpusError;
use crate::mmap::MappedFile;
use nonsearch_graph::{CsrBytes, CsrLayout, EdgeId, NodeId, UndirectedCsr};
use std::path::Path;
use std::sync::Arc;

/// File magic: "NonSearch Graph", format generation 1.
pub const MAGIC: [u8; 4] = *b"NSG1";
/// Current format version: 2, the XXH64 payload checksum.
pub const VERSION: u16 = 2;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 32;

/// XXH64 with seed 0 — the checksum used by both the `.nsg` header
/// (over the payload) and the corpus manifest (over whole files).
///
/// Four independent 8-byte lanes absorb each 32-byte stripe, so the
/// multiplies of one stripe do not wait on each other; the tail is
/// folded in 8-, 4- and 1-byte steps, then avalanched.
pub fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn merge(hash: u64, acc: u64) -> u64 {
        (hash ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
    }
    let u64_at = |chunk: &[u8], at: usize| {
        u64::from_le_bytes(chunk[at..at + 8].try_into().expect("8 bytes"))
    };

    let stripes = bytes.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut hash = if bytes.len() >= 32 {
        let mut acc = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for stripe in stripes {
            for (lane, acc) in acc.iter_mut().enumerate() {
                *acc = round(*acc, u64_at(stripe, 8 * lane));
            }
        }
        let [a, b, c, d] = acc;
        let hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        acc.iter().fold(hash, |hash, &acc| merge(hash, acc))
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);

    while tail.len() >= 8 {
        hash ^= round(0, u64_at(tail, 0));
        hash = hash.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        hash ^= u64::from(word).wrapping_mul(P1);
        hash = hash.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash ^= u64::from(byte).wrapping_mul(P5);
        hash = hash.rotate_left(11).wrapping_mul(P1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// Serializes `graph` into `.nsg` bytes.
///
/// # Errors
///
/// Returns [`CorpusError::Format`] if the graph exceeds the format's
/// `u32` id range (more than `u32::MAX` vertices or edges).
pub fn encode_graph(graph: &UndirectedCsr) -> Result<Vec<u8>, CorpusError> {
    let (offsets, slots, edge_list) = graph.raw_parts();
    let n = graph.node_count();
    let m = graph.edge_count();
    if n > u32::MAX as usize || m > u32::MAX as usize {
        return Err(CorpusError::format(format!(
            "graph with {n} vertices / {m} edges exceeds the u32 id range"
        )));
    }

    // The file image is written once: the header with a zero checksum,
    // then the payload, then the payload's checksum patched in.
    let len = HEADER_LEN + 8 * offsets.len() + 8 * slots.len() + 8 * edge_list.len();
    let mut bytes = Vec::with_capacity(len);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes()); // flags
    bytes.extend_from_slice(&(n as u64).to_le_bytes());
    bytes.extend_from_slice(&(m as u64).to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes()); // payload checksum, patched below
    for &o in offsets {
        bytes.extend_from_slice(&(o as u64).to_le_bytes());
    }
    for &(v, e) in slots {
        bytes.extend_from_slice(&(v.index() as u32).to_le_bytes());
        bytes.extend_from_slice(&(e.index() as u32).to_le_bytes());
    }
    for &(u, v) in edge_list {
        bytes.extend_from_slice(&(u.index() as u32).to_le_bytes());
        bytes.extend_from_slice(&(v.index() as u32).to_le_bytes());
    }
    debug_assert_eq!(bytes.len(), len);
    let checksum = xxh64(&bytes[HEADER_LEN..]);
    bytes[24..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    Ok(bytes)
}

/// Deserializes `.nsg` bytes into heap-owned CSR buffers, validating
/// the header, the payload checksum, and (via
/// [`UndirectedCsr::from_raw_parts`]) the structural consistency of the
/// CSR buffers. This owned decode is the reference the zero-copy load
/// is tested against, and [`graph_from_region`]'s fallback on targets
/// that cannot express a borrowed view.
///
/// # Errors
///
/// Returns [`CorpusError::Format`] on any violation.
pub fn decode_graph(bytes: &[u8]) -> Result<UndirectedCsr, CorpusError> {
    let (n, m) = validate_bytes(bytes)?;
    decode_validated(bytes, n, m)
}

/// The owned decode of an image whose header already passed
/// [`read_header`].
fn decode_validated(bytes: &[u8], n: usize, m: usize) -> Result<UndirectedCsr, CorpusError> {
    let payload = &bytes[HEADER_LEN..];
    let mut at = 0usize;
    let mut next_u64 = || {
        let v = u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
        at += 8;
        v
    };
    let offsets: Vec<usize> = (0..=n).map(|_| next_u64() as usize).collect();
    let mut next_u32_pair = || {
        let a = u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
        let b = u32::from_le_bytes(payload[at + 4..at + 8].try_into().expect("4 bytes"));
        at += 8;
        (a as usize, b as usize)
    };
    let slots: Vec<(NodeId, EdgeId)> = (0..2 * m)
        .map(|_| {
            let (v, e) = next_u32_pair();
            (NodeId::new(v), EdgeId::new(e))
        })
        .collect();
    let edge_list: Vec<(NodeId, NodeId)> = (0..m)
        .map(|_| {
            let (u, v) = next_u32_pair();
            (NodeId::new(u), NodeId::new(v))
        })
        .collect();

    UndirectedCsr::from_raw_parts(offsets, slots, edge_list)
        .map_err(|e| CorpusError::format(e.to_string()))
}

/// Validates everything about an `.nsg` image short of CSR structure —
/// header magic, version, byte length vs the claimed counts, and the
/// payload checksum — and returns `(n, m)`. Both [`decode_graph`] and
/// [`graph_from_region`] run this exactly once per image.
///
/// # Errors
///
/// Returns [`CorpusError::Format`] on any violation.
fn validate_bytes(bytes: &[u8]) -> Result<(usize, usize), CorpusError> {
    let (n, m, stored_checksum) = read_header(bytes)?;
    let actual_checksum = xxh64(&bytes[HEADER_LEN..]);
    if actual_checksum != stored_checksum {
        return Err(CorpusError::format(format!(
            "payload checksum mismatch (header {stored_checksum:016x}, payload {actual_checksum:016x})"
        )));
    }
    Ok((n, m))
}

/// The header checks of [`validate_bytes`] — magic, version, flags and
/// byte length vs the claimed counts — returning `(n, m, stored
/// payload checksum)` without hashing the payload.
fn read_header(bytes: &[u8]) -> Result<(usize, usize, u64), CorpusError> {
    if bytes.len() < HEADER_LEN {
        return Err(CorpusError::format(format!(
            "{} bytes is shorter than the {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[0..4] != MAGIC {
        return Err(CorpusError::format("bad magic (not an .nsg file)"));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(CorpusError::format(format!(
            "unsupported format version {version} (reader speaks {VERSION}; \
             rebuild the corpus with `xp corpus build`)"
        )));
    }
    // The flags field is reserved: a writer that sets it speaks a
    // dialect this reader does not, so refusing is safer than guessing
    // (and every header bit stays covered by corruption detection).
    let flags = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if flags != 0 {
        return Err(CorpusError::format(format!(
            "unknown flags {flags:#06x} (reserved field must be 0)"
        )));
    }
    let read_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let n64 = read_u64(8);
    let m64 = read_u64(16);

    // Checked arithmetic: a corrupt header with absurd counts must fail
    // cleanly here, not overflow or attempt a huge allocation below.
    let expected_len = n64
        .checked_add(1)
        .and_then(|x| x.checked_mul(8))
        .and_then(|x| x.checked_add(m64.checked_mul(24)?))
        .and_then(|x| x.checked_add(HEADER_LEN as u64));
    if expected_len != Some(bytes.len() as u64) {
        return Err(CorpusError::format(format!(
            "file is {} bytes but the header claims n={n64}, m={m64}",
            bytes.len()
        )));
    }
    // The length equality bounds both counts far below usize::MAX.
    Ok((n64 as usize, m64 as usize, read_u64(24)))
}

/// The byte ranges of the three CSR buffers inside a *validated* `.nsg`
/// image with `n` vertices and `m` edges: the payload is `offsets`
/// (`(n + 1) × u64`), `slots` (`2m × (u32, u32)`), then `edge_list`
/// (`m × (u32, u32)`), and `HEADER_LEN` is 8-byte aligned — exactly the
/// shape [`UndirectedCsr::from_csr_bytes`] borrows without copying.
pub fn csr_layout(n: usize, m: usize) -> CsrLayout {
    let offsets_end = HEADER_LEN + 8 * (n + 1);
    let slots_end = offsets_end + 16 * m;
    CsrLayout {
        offsets: HEADER_LEN..offsets_end,
        slots: offsets_end..slots_end,
        edge_list: slots_end..slots_end + 8 * m,
    }
}

/// Serves the graph inside `region` (a whole `.nsg` image) zero-copy:
/// after one pass of validation — header, checksum, and (inside
/// [`UndirectedCsr::from_csr_bytes`]) CSR structure — the returned
/// graph borrows the region's bytes directly; no per-buffer vectors are
/// allocated. If the *target* cannot express the borrowed view
/// (big-endian, 32-bit, or an unexpectedly misaligned region), falls
/// back to the owned [`decode_graph`] so every platform stays correct.
///
/// # Errors
///
/// Returns [`CorpusError::Format`] for malformed content.
pub fn graph_from_region(region: Arc<dyn CsrBytes>) -> Result<UndirectedCsr, CorpusError> {
    let (n, m) = validate_bytes(region.bytes())?;
    borrow_region(region, n, m)
}

/// [`graph_from_region`] without the payload hash, for `corpus verify`:
/// its manifest checksum has already covered every byte of the file,
/// header included, so verify stays one hash per file.
pub(crate) fn graph_from_hashed_region(
    region: Arc<dyn CsrBytes>,
) -> Result<UndirectedCsr, CorpusError> {
    let (n, m, _) = read_header(region.bytes())?;
    borrow_region(region, n, m)
}

fn borrow_region(
    region: Arc<dyn CsrBytes>,
    n: usize,
    m: usize,
) -> Result<UndirectedCsr, CorpusError> {
    match UndirectedCsr::from_csr_bytes(Arc::clone(&region), &csr_layout(n, m)) {
        Ok(graph) => Ok(graph),
        // Structural errors reproduce identically below; target/alignment
        // limitations silently degrade to the owned decode.
        Err(_) => decode_validated(region.bytes(), n, m),
    }
}

/// Loads the `.nsg` file at `path` the way a corpus does: the region
/// comes from [`MappedFile::open`] (a mapping, or the aligned heap read
/// where the kernel or target refuses one) and is served through
/// [`graph_from_region`], so the OS page cache backs the CSR buffers
/// and warm re-loads cost page faults, not decodes.
///
/// # Errors
///
/// Returns [`CorpusError::Io`] for filesystem failures and
/// [`CorpusError::Format`] for malformed content.
pub fn map_graph_file(path: &Path) -> Result<UndirectedCsr, CorpusError> {
    graph_from_region(Arc::new(MappedFile::open(path)?))
}

/// Encodes `graph` and writes it to `path`, returning the XXH64
/// checksum of the whole file (the value recorded in the manifest).
///
/// # Errors
///
/// Returns [`CorpusError::Format`] for unencodable graphs and
/// [`CorpusError::Io`] for filesystem failures.
pub fn write_graph_file(path: &Path, graph: &UndirectedCsr) -> Result<u64, CorpusError> {
    let bytes = encode_graph(graph)?;
    std::fs::write(path, &bytes).map_err(|e| CorpusError::io(path, e))?;
    Ok(xxh64(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_generators::{rng_from_seed, BarabasiAlbert};

    fn sample() -> UndirectedCsr {
        let mut g = BarabasiAlbert::sample(80, 2, &mut rng_from_seed(1))
            .unwrap()
            .undirected();
        g.shuffle_slots(&mut rng_from_seed(2));
        g
    }

    #[test]
    fn roundtrip_preserves_graph_exactly() {
        let g = sample();
        let bytes = encode_graph(&g).unwrap();
        let back = decode_graph(&bytes).unwrap();
        assert_eq!(g, back); // slot shuffle included
    }

    #[test]
    fn roundtrip_edge_cases() {
        for g in [
            UndirectedCsr::from_edges(0, []).unwrap(),
            UndirectedCsr::from_edges(1, []).unwrap(),
            UndirectedCsr::from_edges(1, [(0, 0)]).unwrap(), // self-loop
            UndirectedCsr::from_edges(2, [(0, 1), (0, 1)]).unwrap(), // parallel
        ] {
            let bytes = encode_graph(&g).unwrap();
            assert_eq!(decode_graph(&bytes).unwrap(), g);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = sample();
        assert_eq!(encode_graph(&g).unwrap(), encode_graph(&g).unwrap());
    }

    #[test]
    fn header_fields_are_laid_out_as_documented() {
        let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let bytes = encode_graph(&g).unwrap();
        assert_eq!(&bytes[0..4], b"NSG1");
        assert_eq!(u16::from_le_bytes(bytes[4..6].try_into().unwrap()), 2);
        assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 3);
        assert_eq!(u64::from_le_bytes(bytes[16..24].try_into().unwrap()), 2);
        assert_eq!(
            u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
            xxh64(&bytes[32..])
        );
        assert_eq!(bytes.len(), HEADER_LEN + 8 * 4 + 16 * 2 + 8 * 2);
    }

    #[test]
    fn corruption_is_detected() {
        let g = sample();
        let bytes = encode_graph(&g).unwrap();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(decode_graph(&bad_magic).is_err());

        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert!(decode_graph(&bad_version).is_err());

        // A version-1 (FNV-1a) image is refused, never read.
        let mut version_one = bytes.clone();
        version_one[4..6].copy_from_slice(&1u16.to_le_bytes());
        let err = decode_graph(&version_one).unwrap_err().to_string();
        assert!(err.contains("unsupported format version 1"), "{err}");
        assert!(err.contains("xp corpus build"), "{err}");

        let mut flipped_payload = bytes.clone();
        let last = flipped_payload.len() - 1;
        flipped_payload[last] ^= 0xFF;
        assert!(decode_graph(&flipped_payload).is_err());

        let truncated = &bytes[..bytes.len() - 8];
        assert!(decode_graph(truncated).is_err());

        assert!(decode_graph(&bytes[..10]).is_err());

        // Absurd header counts must error cleanly, not overflow or
        // attempt a huge allocation.
        let mut huge_n = bytes.clone();
        huge_n[8..16].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(decode_graph(&huge_n).is_err());
        let mut huge_m = bytes;
        huge_m[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_graph(&huge_m).is_err());
    }

    #[test]
    fn file_roundtrip_and_checksum() {
        let dir = std::env::temp_dir().join(format!("nsg_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.nsg");
        let g = sample();
        let checksum = write_graph_file(&path, &g).unwrap();
        assert_eq!(checksum, xxh64(&std::fs::read(&path).unwrap()));
        assert_eq!(map_graph_file(&path).unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_load_is_zero_copy_and_equals_heap_decode() {
        let dir = std::env::temp_dir().join(format!("nsg_map_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.nsg");
        let g = sample();
        write_graph_file(&path, &g).unwrap();

        let mapped = map_graph_file(&path).unwrap();
        let heap = decode_graph(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(mapped, heap);
        assert_eq!(mapped, g, "slot shuffle survives the mapped path");
        assert!(!heap.is_borrowed());
        if nonsearch_graph::zero_copy_support().is_ok() {
            assert!(mapped.is_borrowed(), "CI targets must really borrow");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_load_runs_the_full_corruption_matrix() {
        let dir = std::env::temp_dir().join(format!("nsg_map_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.nsg");
        let g = sample();
        let good = encode_graph(&g).unwrap();

        // Payload flip: caught by the checksum at map time.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert!(map_graph_file(&path).is_err());

        // Truncation: caught by the length-vs-header check.
        std::fs::write(&path, &good[..good.len() - 8]).unwrap();
        assert!(map_graph_file(&path).is_err());

        // Bad magic.
        let mut bad_magic = good;
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(map_graph_file(&path).is_err());

        // Missing file: clean I/O error.
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(map_graph_file(&path), Err(CorpusError::Io { .. })));
    }

    #[test]
    fn region_layout_matches_the_documented_format() {
        let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let layout = csr_layout(3, 2);
        assert_eq!(layout.offsets, 32..64); // 4 × u64
        assert_eq!(layout.slots, 64..96); // 4 slots × 8
        assert_eq!(layout.edge_list, 96..112); // 2 edges × 8
        let bytes = encode_graph(&g).unwrap();
        assert_eq!(layout.edge_list.end, bytes.len());
        // A heap image (aligned) decodes zero-copy through the region
        // path too.
        let region: std::sync::Arc<dyn CsrBytes> =
            std::sync::Arc::new(nonsearch_graph::AlignedBytes::from_bytes(&bytes));
        let view = graph_from_region(region).unwrap();
        assert_eq!(view, g);
    }

    #[test]
    fn xxh64_vectors() {
        // Published XXH64 (seed 0) vectors. The 39-byte one runs one
        // 32-byte stripe, then the 4-byte and three 1-byte tail steps.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }
}
