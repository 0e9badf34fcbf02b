//! Minimal read-only file mapping.
//!
//! This container builds without network access, so instead of the
//! `memmap2` crate this module hand-rolls the two libc calls a
//! read-only mapping needs (`mmap`/`munmap`) on Linux — matching the
//! repo's vendored-stub convention — and falls back to reading the file
//! into an 8-byte-aligned heap buffer everywhere else (and whenever the
//! kernel refuses the mapping). Either way the result is a
//! [`CsrBytes`] region that can back zero-copy
//! [`UndirectedCsr`](nonsearch_graph::UndirectedCsr) views.
//!
//! This is the only module in the crate that uses `unsafe`; the rest
//! keeps the crate-level `deny(unsafe_code)`.
#![allow(unsafe_code)]

use crate::error::CorpusError;
use nonsearch_graph::{AlignedBytes, CsrBytes};
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// Where a stored file's bytes come from. Either way the region is
/// validated, hashed and borrowed the same way, so the served graphs
/// are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Map the file, falling back to the aligned heap read when the
    /// kernel or target refuses the mapping.
    #[default]
    Mmap,
    /// Always read the file into an aligned heap buffer (`xp chaos`
    /// uses this to prove the fallback is invisible).
    Heap,
}

// The raw-ABI declaration below (i64 offset = off_t) matches 64-bit
// linux only; 32-bit glibc takes a 32-bit off_t, so mapping is gated to
// 64-bit targets there — which lose nothing, since the zero-copy CSR
// cast is 64-bit-only anyway and the heap fallback stays correct.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    // The canonical linux ABI for the two calls; linking against libc
    // needs no crate because every Rust binary on linux already does.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

enum Backing {
    /// A live `mmap(2)` region, unmapped on drop.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    Mapped { ptr: *const u8, len: usize },
    /// The read-into-memory fallback (8-byte aligned, so zero-copy CSR
    /// views work from the heap image too).
    Heap(AlignedBytes),
}

/// A whole file exposed as a shared byte region: memory-mapped on
/// 64-bit Linux, read into an aligned heap buffer elsewhere.
///
/// The mapping is private and read-only; page faults — not `read(2)`
/// calls or heap copies — bring the bytes in, so a corpus larger than
/// RAM can serve graphs at page-cache cost. Note the usual `mmap`
/// caveat: truncating the file *while it is mapped* turns later
/// accesses into `SIGBUS`. Corpus files are written once and verified
/// by checksum at map time, so this only matters for corpora modified
/// mid-run (which the store already documents as unsupported).
pub struct MappedFile {
    backing: Backing,
}

impl std::fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedFile")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

// SAFETY: the region is immutable for the whole lifetime of the value —
// PROT_READ mapping or untouched heap buffer — and `munmap` only runs
// on drop, when no shared reference can remain.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Opens `path` as a shared read-only byte region, preferring an
    /// actual file mapping and silently degrading to a heap read.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] if the file cannot be opened, sized,
    /// or (in the fallback) read.
    pub fn open(path: &Path) -> Result<MappedFile, CorpusError> {
        Self::open_with(path, LoadMode::Mmap)
    }

    /// Opens `path` as a shared read-only byte region: mapped (with the
    /// heap fallback) for [`LoadMode::Mmap`], read into an aligned heap
    /// buffer for [`LoadMode::Heap`].
    ///
    /// # Errors
    ///
    /// Same contract as [`MappedFile::open`].
    pub fn open_with(path: &Path, mode: LoadMode) -> Result<MappedFile, CorpusError> {
        let mut file = File::open(path).map_err(|e| CorpusError::io(path, e))?;
        let len = file.metadata().map_err(|e| CorpusError::io(path, e))?.len();
        let len = usize::try_from(len).map_err(|_| {
            CorpusError::io(
                path,
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "file exceeds the address space",
                ),
            )
        })?;
        // mmap(2) rejects zero-length mappings; an empty heap buffer is
        // the honest representation anyway.
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if len > 0 && mode == LoadMode::Mmap {
            {
                use std::os::fd::AsRawFd;
                // SAFETY: a fresh anonymous address (addr = null), a
                // length matching the open file, PROT_READ only, and a
                // fd we own; the kernel validates everything else and
                // returns MAP_FAILED (-1) on refusal.
                let ptr = unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        sys::PROT_READ,
                        sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as usize != usize::MAX && !ptr.is_null() {
                    // The mapping persists after the fd closes (POSIX),
                    // so `file` can drop normally.
                    return Ok(MappedFile {
                        backing: Backing::Mapped {
                            ptr: ptr.cast::<u8>().cast_const(),
                            len,
                        },
                    });
                }
            }
        }
        let mut bytes = Vec::with_capacity(len);
        file.read_to_end(&mut bytes)
            .map_err(|e| CorpusError::io(path, e))?;
        Ok(MappedFile {
            backing: Backing::Heap(AlignedBytes::from_bytes(&bytes)),
        })
    }

    /// `true` if the region is an actual `mmap(2)` mapping rather than
    /// the heap fallback.
    fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            Backing::Mapped { .. } => true,
            Backing::Heap(_) => false,
        }
    }

    /// The region length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// `true` if the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if let Backing::Mapped { ptr, len } = self.backing {
            // SAFETY: exactly the address and length mmap returned, and
            // the last reference is going away.
            unsafe {
                sys::munmap(ptr.cast_mut().cast(), len);
            }
        }
    }
}

// SAFETY of the contract: the pointer and length never change after
// `open`, and the memory stays valid until `Drop` unmaps it — which
// cannot happen while any `Arc<MappedFile>` clone is alive.
unsafe impl CsrBytes for MappedFile {
    fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            Backing::Mapped { ptr, len } => {
                // SAFETY: a live PROT_READ mapping of exactly `len`
                // bytes, unmapped only on drop.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Backing::Heap(bytes) => bytes.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_file(tag: &str, contents: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("mmap_test_{}_{tag}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn maps_file_contents_faithfully() {
        let contents: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("contents", &contents);
        let mapped = MappedFile::open(&path).unwrap();
        assert_eq!(mapped.bytes(), &contents[..]);
        assert_eq!(mapped.len(), contents.len());
        assert!(!mapped.is_empty());
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        assert!(mapped.is_mapped(), "64-bit linux should really map");
        // The bytes must be pointer-stable across calls (the CsrBytes
        // contract borrowed CSR views rely on).
        assert_eq!(mapped.bytes().as_ptr(), mapped.bytes().as_ptr());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn forced_heap_fallback_serves_identical_bytes_unmapped() {
        let contents: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let path = temp_file("forced_heap", &contents);

        let forced = MappedFile::open_with(&path, LoadMode::Heap).unwrap();
        assert!(!forced.is_mapped(), "heap opens must not map");
        assert_eq!(forced.bytes(), &contents[..]);
        // The default mode maps on 64-bit linux.
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        assert!(MappedFile::open(&path).unwrap().is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_uses_the_heap_representation() {
        let path = temp_file("empty", b"");
        let mapped = MappedFile::open(&path).unwrap();
        assert!(mapped.is_empty());
        assert!(!mapped.is_mapped());
        assert_eq!(mapped.bytes(), b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_clean_io_error() {
        let path = std::env::temp_dir().join(format!("mmap_missing_{}", std::process::id()));
        let err = MappedFile::open(&path).unwrap_err();
        assert!(matches!(err, CorpusError::Io { .. }));
        assert!(err.to_string().contains("mmap_missing"));
    }

    #[test]
    fn mapped_file_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MappedFile>();
    }

    #[test]
    fn region_outlives_the_handle_through_an_arc() {
        use std::sync::Arc;
        let contents = vec![7u8; 4096];
        let path = temp_file("arc", &contents);
        let mapped: Arc<dyn CsrBytes> = Arc::new(MappedFile::open(&path).unwrap());
        let clone = Arc::clone(&mapped);
        drop(mapped);
        assert_eq!(clone.bytes(), &contents[..]);
        std::fs::remove_file(&path).ok();
    }
}
