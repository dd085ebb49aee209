//! [`IdKey`]: the compound index key of the dictionary-encoded layer.
//!
//! Hash indexes, LHS-indices and equivalence-class censuses all key maps
//! on the projection `t[X]` of a tuple onto an attribute list. With values
//! interned, that projection is a short run of [`ValueId`]s — almost always ≤ 4 of them (the experiment Σ's LHS lists
//! are 1–2 attributes). `IdKey` stores up to four ids inline (no heap
//! allocation, 24 bytes) and spills longer keys to a boxed slice, the
//! moral equivalent of `SmallVec<[ValueId; 4]>` without the dependency.
//!
//! `Hash`/`Eq`/`Ord` delegate to the id slice, and
//! `Borrow<[ValueId]>` is implemented so a `HashMap<IdKey, _>` can be
//! probed with a stack-built `&[ValueId]` — no key allocation on lookups.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::pool::ValueId;

/// Number of ids stored inline before spilling to the heap.
pub const INLINE_KEY_LEN: usize = 4;

/// A compound key of interned value ids, inline up to [`INLINE_KEY_LEN`].
#[derive(Clone)]
pub enum IdKey {
    /// At most [`INLINE_KEY_LEN`] ids, no allocation.
    Inline {
        /// Number of live ids in `buf`.
        len: u8,
        /// Storage; slots past `len` are unspecified.
        buf: [ValueId; INLINE_KEY_LEN],
    },
    /// Longer keys, boxed.
    Heap(Box<[ValueId]>),
}

impl IdKey {
    /// Build from a slice of ids.
    pub fn from_slice(ids: &[ValueId]) -> Self {
        if ids.len() <= INLINE_KEY_LEN {
            let mut buf = [ValueId(0); INLINE_KEY_LEN];
            buf[..ids.len()].copy_from_slice(ids);
            IdKey::Inline {
                len: ids.len() as u8,
                buf,
            }
        } else {
            IdKey::Heap(ids.into())
        }
    }

    /// The key as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[ValueId] {
        match self {
            IdKey::Inline { len, buf } => &buf[..*len as usize],
            IdKey::Heap(ids) => ids,
        }
    }

    /// Number of ids in the key.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            IdKey::Inline { len, .. } => *len as usize,
            IdKey::Heap(ids) => ids.len(),
        }
    }

    /// True for the empty key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does any component equal `id`?
    pub fn contains(&self, id: ValueId) -> bool {
        self.as_slice().contains(&id)
    }
}

impl FromIterator<ValueId> for IdKey {
    fn from_iter<I: IntoIterator<Item = ValueId>>(iter: I) -> Self {
        let mut buf = [ValueId(0); INLINE_KEY_LEN];
        let mut len = 0usize;
        let mut iter = iter.into_iter();
        for id in iter.by_ref() {
            if len == INLINE_KEY_LEN {
                // Spill: collect the rest on the heap.
                let mut v = Vec::with_capacity(INLINE_KEY_LEN * 2);
                v.extend_from_slice(&buf);
                v.push(id);
                v.extend(iter);
                return IdKey::Heap(v.into_boxed_slice());
            }
            buf[len] = id;
            len += 1;
        }
        IdKey::Inline {
            len: len as u8,
            buf,
        }
    }
}

impl PartialEq for IdKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for IdKey {}

impl Hash for IdKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with <[ValueId] as Hash> for Borrow-based lookups.
        self.as_slice().hash(state)
    }
}

impl PartialOrd for IdKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IdKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Borrow<[ValueId]> for IdKey {
    fn borrow(&self) -> &[ValueId] {
        self.as_slice()
    }
}

impl From<&[ValueId]> for IdKey {
    fn from(ids: &[ValueId]) -> Self {
        IdKey::from_slice(ids)
    }
}

impl fmt::Debug for IdKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{FixedHasher, FixedMap};
    use std::collections::hash_map::DefaultHasher;

    fn ids(raw: &[u32]) -> Vec<ValueId> {
        raw.iter().map(|i| ValueId(*i)).collect()
    }

    fn hash_of<H: Hasher + Default, T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = H::default();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn short_keys_stay_inline() {
        for n in 0..=INLINE_KEY_LEN {
            let v = ids(&(0..n as u32).collect::<Vec<_>>());
            let k = IdKey::from_slice(&v);
            assert!(matches!(k, IdKey::Inline { .. }), "len {n}");
            assert_eq!(k.as_slice(), &v[..]);
            assert_eq!(k.len(), n);
        }
    }

    #[test]
    fn long_keys_spill() {
        let v = ids(&[1, 2, 3, 4, 5, 6]);
        let k = IdKey::from_slice(&v);
        assert!(matches!(k, IdKey::Heap(_)));
        assert_eq!(k.as_slice(), &v[..]);
    }

    #[test]
    fn from_iterator_matches_from_slice() {
        for n in [0, 1, 4, 5, 9] {
            let v = ids(&(0..n).collect::<Vec<_>>());
            let a = IdKey::from_slice(&v);
            let b: IdKey = v.iter().copied().collect();
            assert_eq!(a, b, "len {n}");
        }
    }

    /// Map lookups by `&[ValueId]` need the key and its slice to hash
    /// alike, under `std`'s hasher and under the workspace's, whose
    /// `ValueId` slices pack two ids per word (odd lengths included).
    #[test]
    fn hash_agrees_with_slice_hash() {
        for n in 0..=7usize {
            let v = ids(&(0..n as u32).map(|i| i * 7 + 1).collect::<Vec<_>>());
            let k = IdKey::from_slice(&v);
            assert_eq!(
                hash_of::<DefaultHasher, _>(&k),
                hash_of::<DefaultHasher, [ValueId]>(&v),
                "len {n}"
            );
            assert_eq!(
                hash_of::<FixedHasher, _>(&k),
                hash_of::<FixedHasher, [ValueId]>(&v),
                "len {n}"
            );
        }
    }

    #[test]
    fn borrowed_slice_lookup_works() {
        let mut m: FixedMap<IdKey, &str> = FixedMap::default();
        m.insert(IdKey::from_slice(&ids(&[7, 8])), "short");
        m.insert(IdKey::from_slice(&ids(&[1, 2, 3, 4, 5])), "long");
        assert_eq!(m.get(ids(&[7, 8]).as_slice()), Some(&"short"));
        assert_eq!(m.get(ids(&[1, 2, 3, 4, 5]).as_slice()), Some(&"long"));
        assert_eq!(m.get(ids(&[7]).as_slice()), None);
    }

    #[test]
    fn equality_ignores_representation() {
        // An inline key and a heap key can never be equal (different
        // lengths), but equal-length keys compare by content.
        let a = IdKey::from_slice(&ids(&[1, 2]));
        let b: IdKey = ids(&[1, 2]).into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, IdKey::from_slice(&ids(&[2, 1])));
    }

    #[test]
    fn ord_is_lexicographic() {
        let a = IdKey::from_slice(&ids(&[1, 2]));
        let b = IdKey::from_slice(&ids(&[1, 3]));
        let c = IdKey::from_slice(&ids(&[1, 2, 0]));
        assert!(a < b);
        assert!(a < c); // prefix sorts first
    }

    #[test]
    fn contains_checks_components() {
        let k = IdKey::from_slice(&ids(&[3, 9]));
        assert!(k.contains(ValueId(9)));
        assert!(!k.contains(ValueId(4)));
    }
}
