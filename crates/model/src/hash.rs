//! A fixed-seed FNV-1a 64 [`Hasher`](std::hash::Hasher) for hot-path maps.
//!
//! `std`'s default hasher is SipHash, seeded per process: slower on the
//! short keys these maps hold (interned id pairs, CSV field text), and a
//! per-process seed is one more way for iteration order to differ between
//! runs. FNV has neither cost. It is not DoS-resistant: keys crafted to
//! collide degrade a map's lookups to linear scans. That costs time,
//! never results, since no caller lets map iteration order reach its
//! output.

/// FNV-1a 64 as a [`std::hash::Hasher`].
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `BuildHasher` for [`Fnv64`], for `HashMap::with_hasher`/`Default`.
pub type FnvBuildHasher = std::hash::BuildHasherDefault<Fnv64>;

/// A `HashMap` under [`FnvBuildHasher`]: no per-process seed.
#[allow(
    clippy::disallowed_types,
    reason = "the fixed-seed alias the workspace ban points to"
)]
pub type FnvMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` under [`FnvBuildHasher`]: no per-process seed.
#[allow(
    clippy::disallowed_types,
    reason = "the fixed-seed alias the workspace ban points to"
)]
pub type FnvSet<T> = std::collections::HashSet<T, FnvBuildHasher>;
