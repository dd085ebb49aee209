//! A fixed-constant word hasher for hot-path maps.
//!
//! Nearly every hot map of the workspace is keyed on interned ids: a
//! [`ValueId`](crate::ValueId), an id pair, an [`IdKey`](crate::IdKey)
//! of one to four ids. [`FixedHasher`] mixes one 64-bit word per step: a
//! folded multiply (the full 128-bit product of the state and a constant,
//! its high half XORed into its low half), so both the low bits a map
//! indexes with and the top bits its control bytes read depend on every
//! input bit. Each integer write (`write_u32`, `write_u64`, `write_usize`,
//! …) is one step; byte strings are read eight bytes per step, their
//! length folded into the last word. `[ValueId]` packs two ids per word
//! (see [`ValueId`](crate::ValueId)'s `hash_slice`), so a three-id group
//! key costs three steps, its length included.
//!
//! The state starts from a constant, not a per-process seed: `std`'s
//! SipHash is seeded per process, slower on these short keys, and a
//! per-process seed is one more way for iteration order to differ between
//! runs. Without a seed the hasher is not DoS-resistant: keys crafted to
//! collide degrade a map's lookups to linear scans. That costs time,
//! never results, since no caller lets map iteration order reach its
//! output.

/// Multiplier of every mixing step: the 64-bit golden-ratio constant.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The state every hash starts from (the digits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The workspace's fixed-constant [`std::hash::Hasher`]: one folded
/// multiply per 64-bit word (see the module docs).
#[derive(Clone, Debug)]
pub struct FixedHasher(u64);

impl Default for FixedHasher {
    fn default() -> Self {
        FixedHasher(SEED)
    }
}

impl FixedHasher {
    /// Fold one word into the state.
    #[inline]
    fn mix(&mut self, word: u64) {
        let p = u128::from(self.0 ^ word) * u128::from(MUL);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl std::hash::Hasher for FixedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        // The 0–7 trailing bytes, with their count in the top byte.
        let tail = words.remainder();
        let mut last = (tail.len() as u64) << 56;
        for (i, &b) in tail.iter().enumerate() {
            last |= u64::from(b) << (8 * i);
        }
        self.mix(last);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `BuildHasher` for [`FixedHasher`], for `HashMap::with_hasher`/`Default`:
/// the fixed counterpart of `std`'s `RandomState`.
pub type FixedState = std::hash::BuildHasherDefault<FixedHasher>;

/// A `HashMap` under [`FixedState`]: no per-process seed.
#[allow(
    clippy::disallowed_types,
    reason = "the fixed-seed alias the workspace ban points to"
)]
pub type FixedMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// A `HashSet` under [`FixedState`]: no per-process seed.
#[allow(
    clippy::disallowed_types,
    reason = "the fixed-seed alias the workspace ban points to"
)]
pub type FixedSet<T> = std::collections::HashSet<T, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ValueId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        FixedState::default().hash_one(t)
    }

    /// Dense small ids as keys of `len` ids: every id below `side`
    /// in every position.
    fn dense_keys(len: u32, side: u32) -> Vec<Vec<ValueId>> {
        (0..side.pow(len))
            .map(|mut n| {
                (0..len)
                    .map(|_| {
                        let id = ValueId(n % side);
                        n /= side;
                        id
                    })
                    .collect()
            })
            .collect()
    }

    /// hashbrown reads a hash twice: its low bits pick the bucket, its
    /// top seven bits are the control byte probes compare first. Dense
    /// small ids (what interning hands out, and what group keys are made
    /// of) must spread over both about as well as random hashes would.
    #[test]
    fn dense_id_keys_spread_over_index_and_control_bits() {
        for (len, side) in [(1, 4096), (2, 64), (3, 16), (4, 8)] {
            let keys = dense_keys(len, side);
            let n = keys.len();
            let hashes: Vec<u64> = keys.iter().map(|k| hash_of(k.as_slice())).collect();

            // Index bits: `n` keys into `n` buckets. Random hashes
            // occupy 1 - 1/e ≈ 63% of them, with the fullest bucket
            // holding a handful.
            let mask = n as u64 - 1;
            let mut load = vec![0u32; n];
            for h in &hashes {
                load[(h & mask) as usize] += 1;
            }
            let occupied = load.iter().filter(|&&c| c > 0).count();
            let fullest = *load.iter().max().unwrap();
            assert!(
                occupied * 100 >= n * 58 && fullest <= 9,
                "len {len}: {occupied} of {n} buckets used, fullest holds {fullest}"
            );

            // Control bits: every 7-bit tag in use, none far above its
            // share.
            let mut tags = [0usize; 128];
            for h in &hashes {
                tags[(h >> 57) as usize] += 1;
            }
            let share = n / 128;
            assert!(
                tags.iter().all(|&c| c > 0 && c <= 2 * share),
                "len {len}: tag counts {:?}",
                tags
            );
        }
    }

    #[test]
    fn every_integer_write_is_one_step_and_keys_differ() {
        // One step each: a u32, a u64 and a usize of one value hash alike.
        assert_eq!(hash_of(&7u32), hash_of(&7u64));
        assert_eq!(hash_of(&7u64), hash_of(&7usize));
        assert_ne!(hash_of(&7u32), hash_of(&8u32));
        // Byte strings: the tail length keeps a trailing zero byte apart.
        let write = |bytes: &[u8]| {
            let mut h = FixedHasher::default();
            std::hash::Hasher::write(&mut h, bytes);
            std::hash::Hasher::finish(&h)
        };
        assert_ne!(write(b"ab"), write(b"ab\0"));
        assert_ne!(write(b""), write(b"\0"));
        assert_ne!(hash_of("abcdefgh"), hash_of("abcdefgi"));
        assert_ne!(hash_of("abcdefgh1"), hash_of("abcdefgh2"));
    }
}
