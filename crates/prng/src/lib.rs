//! # cfd-prng — self-contained deterministic randomness
//!
//! The workload generator, noise injector, and sampling module all need a
//! seedable, reproducible PRNG. The container this workspace builds in has
//! no network access, so the usual `rand` + `rand_chacha` pair cannot be
//! vendored; this crate supplies the small API surface the workspace
//! actually uses — [`ChaCha8Rng`] with [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_range`] / [`Rng::gen_bool`], and [`SliceRandom`] — on top of
//! a from-scratch ChaCha (8 rounds) block function.
//!
//! Streams are *stable across runs and platforms* for a given seed, which
//! is all the experiments need; they are not bit-compatible with the
//! `rand_chacha` crate.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step, used to expand a `u64` seed into key material.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construction from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The ChaCha quarter round.
#[inline(always)]
fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// A ChaCha stream cipher core with 8 rounds, exposed as a PRNG.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Key + constants + counter layout of the ChaCha state.
    key: [u32; 8],
    counter: u64,
    /// Buffered block output.
    buf: [u32; 16],
    /// Next unread word in `buf`; 16 means exhausted.
    pos: usize,
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // state[14], state[15]: zero nonce.
        let input = state;
        for _ in 0..4 {
            // 8 rounds = 4 double-rounds.
            quarter(&mut state, 0, 4, 8, 12);
            quarter(&mut state, 1, 5, 9, 13);
            quarter(&mut state, 2, 6, 10, 14);
            quarter(&mut state, 3, 7, 11, 15);
            quarter(&mut state, 0, 5, 10, 15);
            quarter(&mut state, 1, 6, 11, 12);
            quarter(&mut state, 2, 7, 8, 13);
            quarter(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        self.buf = state;
        self.pos = 0;
        self.counter = self.counter.wrapping_add(1);
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let word = splitmix64(&mut sm);
            pair[0] = word as u32;
            pair[1] = (word >> 32) as u32;
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buf: [0; 16],
            pos: 16,
        }
    }
}

/// The random-generation methods the workspace uses.
pub trait Rng {
    /// The next raw 32 bits of the stream.
    fn next_u32(&mut self) -> u32;

    /// The next raw 64 bits of the stream.
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// A uniform draw from `range` (exclusive or inclusive).
    ///
    /// # Panics
    /// Panics on an empty range.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped into `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }
}

impl Rng for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.pos >= 16 {
            self.refill();
        }
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }
}

/// Map 64 random bits onto `[0, 1)` with 53-bit precision.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Unbiased uniform draw from `[0, span)` by rejection over a power-of-two
/// mask.
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    let mask = span.next_power_of_two() - 1;
    loop {
        let x = rng.next_u64() & mask;
        if x < span {
            return x;
        }
    }
}

/// Range types [`Rng::gen_range`] accepts.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draw one uniform sample.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Only reachable for the full i64/u64 domain.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_u64(rng, span as u64) as $t)
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, i64, i32);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

/// Slice helpers mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// The element type.
    type Item;
    /// Fisher–Yates shuffle in place.
    fn shuffle<R: Rng>(&mut self, rng: &mut R);
    /// A uniformly random element, or `None` when empty.
    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_u64(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }
}

/// Run `n` independent randomized trials, each with its own seeded
/// generator — the workspace's stand-in for a property-testing harness.
/// Failures reproduce exactly from `(seed, n)`.
pub fn trials(n: usize, seed: u64, mut f: impl FnMut(&mut ChaCha8Rng)) {
    for i in 0..n {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        f(&mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(3..17usize);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(1..=9i64);
            assert!((1..=9).contains(&y));
            let f = rng.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut xs: Vec<u32> = (0..50).collect();
        xs.shuffle(&mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs, sorted,
            "50 elements virtually never shuffle to identity"
        );
    }

    #[test]
    fn choose_returns_member() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let xs = [10, 20, 30];
        for _ in 0..100 {
            assert!(xs.contains(xs[..].choose(&mut rng).unwrap()));
        }
        let empty: [i32; 0] = [];
        assert!(empty[..].choose(&mut rng).is_none());
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn trials_reproduce() {
        let mut first = Vec::new();
        trials(5, 99, |rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        trials(5, 99, |rng| second.push(rng.next_u64()));
        assert_eq!(first, second);
    }
}
