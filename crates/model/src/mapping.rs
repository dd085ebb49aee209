//! Read-only file mappings for zero-copy snapshot opens.
//!
//! A [`Mapping`] holds the bytes of one snapshot file for the lifetime
//! of every dataset borrowing from it. On unix the backing is a private
//! read-only `mmap(2)` established through a hand-rolled syscall
//! declaration (std already links libc; no new dependency), so N
//! datasets opened from the same file share one set of physical pages.
//! Everywhere else — and under `CFD_MMAP=0`, or when the syscall fails,
//! or for zero-length files (`mmap` with `len == 0` is `EINVAL`) — the
//! backing degrades to an owned in-memory buffer read through `std::fs`.
//! Borrowing is identical over both backings: [`Mapping::bytes`] is the
//! whole file either way, so the zero-copy column segments in
//! [`crate::storage::ColumnStore`] work (and are tested) without the
//! syscall.
//!
//! The [`MappingCache`] deduplicates concurrent opens of the same file:
//! a [`crate::Catalog`] holds one, keyed by `(dev, ino)` on unix so the
//! tmp-file + rename dance [`crate::Catalog::save`] performs yields a
//! *new* mapping for the new inode while datasets still borrowing the
//! old bytes keep them alive through their `Arc`. Entries are weak —
//! dropping the last dataset unmaps the file.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::sync::{Arc, Mutex, Weak};

use crate::hash::FnvMap;

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// Map `len` bytes of `fd` read-only and private. `None` on failure
    /// (the caller falls back to an owned read) — and for `len == 0`,
    /// which the syscall rejects with `EINVAL`.
    pub fn map_file(fd: i32, len: usize) -> Option<*const u8> {
        if len == 0 {
            return None;
        }
        let p = unsafe { mmap(core::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, fd, 0) };
        // MAP_FAILED is (void*)-1.
        if p.is_null() || p as usize == usize::MAX {
            None
        } else {
            Some(p as *const u8)
        }
    }

    pub fn unmap(ptr: *const u8, len: usize) {
        // A failing munmap leaks the region; there is no recovery and
        // the pointer/len came from a successful mmap, so ignore it.
        unsafe {
            munmap(ptr as *mut c_void, len);
        }
    }
}

/// Whether opens should attempt the mmap fast path. `CFD_MMAP=0`
/// disables the syscall (opens still work — owned backing); any other
/// value, or the variable being unset, leaves it on.
pub fn mmap_enabled() -> bool {
    std::env::var("CFD_MMAP").map(|v| v != "0").unwrap_or(true)
}

enum Backing {
    /// A private read-only mmap of the whole file (unix fast path).
    #[cfg(unix)]
    Mmap { ptr: *const u8, len: usize },
    /// The whole file read into memory (fallback everywhere else).
    Owned(Vec<u8>),
}

// SAFETY: the mmap variant is a private read-only mapping — the pages
// never change under us and are only ever read through `&self`; the
// owned variant is a plain Vec. Sharing across threads is sound.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

/// The bytes of one snapshot file, shared across every dataset opened
/// from it. See the [module docs](self) for backing semantics.
pub struct Mapping {
    backing: Backing,
}

impl Mapping {
    /// Open `path`, mmap-backed when possible (see [`mmap_enabled`]),
    /// owned-buffer otherwise. I/O errors (including `NotFound`) come
    /// back verbatim for the caller to classify.
    pub fn open(path: &Path) -> io::Result<Arc<Mapping>> {
        let mut file = File::open(path)?;
        #[cfg(unix)]
        if mmap_enabled() {
            use std::os::unix::io::AsRawFd;
            let len = file.metadata()?.len();
            if let Ok(len) = usize::try_from(len) {
                if let Some(ptr) = sys::map_file(file.as_raw_fd(), len) {
                    return Ok(Arc::new(Mapping {
                        backing: Backing::Mmap { ptr, len },
                    }));
                }
            }
        }
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        Ok(Arc::new(Mapping {
            backing: Backing::Owned(buf),
        }))
    }

    /// An owned-backing mapping over bytes already in memory — the
    /// differential and corruption suites drive the mapped reader
    /// through this without touching the filesystem.
    pub fn from_bytes(bytes: Vec<u8>) -> Arc<Mapping> {
        Arc::new(Mapping {
            backing: Backing::Owned(bytes),
        })
    }

    /// The whole file.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mmap { ptr, len } => {
                // SAFETY: ptr/len delimit a live read-only mapping owned
                // by self; unmapped only in Drop.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Backing::Owned(v) => v,
        }
    }

    /// File size in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the backing is an actual mmap (false: owned buffer).
    pub fn is_mmap(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mmap { .. } => true,
            Backing::Owned(_) => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mmap { ptr, len } = self.backing {
            sys::unmap(ptr, len);
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping")
            .field("len", &self.len())
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

/// Identity of a file on disk, for deduplicating opens.
///
/// On unix this is `(dev, ino)`: a catalog re-save (tmp + rename) makes
/// a new inode, so readers of the replaced snapshot get a new mapping
/// while holders of the old one keep the old bytes. Elsewhere the key
/// degrades to canonical path + size + mtime.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum FileKey {
    #[cfg(unix)]
    DevIno(u64, u64),
    #[allow(dead_code)]
    PathMeta(std::path::PathBuf, u64, Option<std::time::SystemTime>),
}

fn file_key(path: &Path) -> io::Result<FileKey> {
    let meta = std::fs::metadata(path)?;
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        Ok(FileKey::DevIno(meta.dev(), meta.ino()))
    }
    #[cfg(not(unix))]
    {
        let canon = std::fs::canonicalize(path)?;
        Ok(FileKey::PathMeta(canon, meta.len(), meta.modified().ok()))
    }
}

/// Deduplicates live [`Mapping`]s by file identity: two datasets opened
/// from the same snapshot file share one `Arc<Mapping>` (one physical
/// copy). Holds only weak references — the cache never keeps a file
/// mapped past its last dataset.
#[derive(Debug, Default)]
pub struct MappingCache {
    entries: Mutex<FnvMap<FileKey, Weak<Mapping>>>,
}

impl MappingCache {
    /// An empty cache.
    pub fn new() -> MappingCache {
        MappingCache::default()
    }

    /// The mapping of `path`: the live one when a dataset already has
    /// the same file open, a fresh [`Mapping::open`] otherwise.
    pub fn get_or_open(&self, path: &Path) -> io::Result<Arc<Mapping>> {
        let key = file_key(path)?;
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.retain(|_, w| w.strong_count() > 0);
        if let Some(live) = entries.get(&key).and_then(Weak::upgrade) {
            return Ok(live);
        }
        let map = Mapping::open(path)?;
        entries.insert(key, Arc::downgrade(&map));
        Ok(map)
    }

    /// Live mappings currently tracked (dead entries pruned first).
    pub fn live(&self) -> usize {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.retain(|_, w| w.strong_count() > 0);
        entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cfd-mapping-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn open_reads_the_whole_file() {
        let path = tmp_path("whole.bin");
        std::fs::write(&path, b"0123456789abcdef").unwrap();
        let map = Mapping::open(&path).unwrap();
        assert_eq!(map.bytes(), b"0123456789abcdef");
        assert_eq!(map.len(), 16);
        assert!(!map.is_empty());
    }

    #[test]
    fn empty_files_fall_back_to_owned() {
        let path = tmp_path("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let map = Mapping::open(&path).unwrap();
        assert!(!map.is_mmap(), "mmap of len 0 is EINVAL; must fall back");
        assert!(map.is_empty());
        assert_eq!(map.bytes(), b"");
    }

    #[test]
    fn missing_files_error_with_not_found() {
        let err = Mapping::open(Path::new("/nonexistent/cfd-mapping")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn from_bytes_is_owned() {
        let map = Mapping::from_bytes(vec![1, 2, 3]);
        assert!(!map.is_mmap());
        assert_eq!(map.bytes(), &[1, 2, 3]);
    }

    #[test]
    fn cache_shares_one_mapping_per_file() {
        let path = tmp_path("shared.bin");
        std::fs::write(&path, b"shared bytes").unwrap();
        let cache = MappingCache::new();
        let a = cache.get_or_open(&path).unwrap();
        let b = cache.get_or_open(&path).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same file must share one mapping");
        assert_eq!(cache.live(), 1);
    }

    #[test]
    fn cache_entries_die_with_their_last_holder() {
        let path = tmp_path("weak.bin");
        std::fs::write(&path, b"x").unwrap();
        let cache = MappingCache::new();
        let a = cache.get_or_open(&path).unwrap();
        let ptr = Arc::as_ptr(&a);
        drop(a);
        assert_eq!(cache.live(), 0, "weak entry must die with the mapping");
        let b = cache.get_or_open(&path).unwrap();
        // A fresh mapping (possibly at the same address — only identity
        // with a *live* prior Arc would be a bug, and `live()` above
        // proved there was none).
        let _ = ptr;
        assert_eq!(b.bytes(), b"x");
    }

    #[test]
    fn rename_over_yields_a_new_mapping() {
        let path = tmp_path("renamed.bin");
        let tmp = tmp_path("renamed.bin.tmp");
        std::fs::write(&path, b"old contents").unwrap();
        let cache = MappingCache::new();
        let old = cache.get_or_open(&path).unwrap();
        std::fs::write(&tmp, b"new contents").unwrap();
        std::fs::rename(&tmp, &path).unwrap();
        let new = cache.get_or_open(&path).unwrap();
        assert!(
            !Arc::ptr_eq(&old, &new),
            "a replaced file must map separately"
        );
        assert_eq!(old.bytes(), b"old contents", "old holders keep old bytes");
        assert_eq!(new.bytes(), b"new contents");
    }

    #[cfg(unix)]
    #[test]
    fn unix_opens_are_mmap_backed_unless_disabled() {
        // Can't toggle the env var safely in-process (tests run
        // threaded); just pin that the default path maps for real when
        // the switch is on.
        let path = tmp_path("mmapped.bin");
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        let map = Mapping::open(&path).unwrap();
        if mmap_enabled() {
            assert!(map.is_mmap(), "unix open of a non-empty file must mmap");
        } else {
            assert!(!map.is_mmap());
        }
        assert_eq!(map.len(), 4096);
        assert!(map.bytes().iter().all(|b| *b == 7));
    }
}
