//! Bit-parallel batched distance pricing: the Myers/Hyyrö kernel behind
//! `FINDV` and `CFD-RESOLVE` candidate scoring.
//!
//! ## Algorithm
//!
//! The scalar reference kernel ([`crate::distance`]'s rolling-row OSA
//! dynamic program) costs O(|v|·|v'|) cell updates per pair, each a
//! char-by-char compare. This module replaces the inner loop with Myers'
//! bit-vector algorithm extended by Hyyrö's adjacent-transposition term
//! (Hyyrö 2003, *A bit-vector algorithm for computing Levenshtein and
//! Damerau edit distances*): the target string becomes a set of
//! per-character **pattern bitmasks** (`PM[c]` has bit `i` set iff
//! `target[i] == c`), and one column of the DP matrix then updates in
//! O(1) word operations:
//!
//! ```text
//! TR = ((~D0') & PM) << 1 & PM'      // Hyyrö's OSA transposition term
//! D0 = TR | (((PM & VP) + VP) ^ VP) | PM | VN
//! HP = VN | ~(D0 | VP);  HN = D0 & VP
//! score ± (HP|HN bit m−1);  shift;  VP/VN update
//! ```
//!
//! where `D0'`/`PM'` are the previous text character's vectors. The
//! running `score` is exactly the scalar DP's `D[m, j]`, so the kernel
//! returns the **same integers** as the reference for every input pair —
//! the property suite pins this on ASCII, multibyte UTF-8, empty and
//! transposition-heavy strings.
//!
//! ## Word-boundary handling
//!
//! The bitmask DP packs the target into one `u64` word, so it applies to
//! targets of at most 64 characters — which covers every attribute value
//! in the paper's workloads (zips, codes, names, streets). Longer targets
//! fall back to the scalar reference kernel wholesale; the property suite
//! exercises 63/64/65-char and ~100-char values so the boundary crossing
//! is pinned equal on both sides. Candidate (text) length is unbounded
//! either way — the kernel loops over candidate characters.
//!
//! ## Target-major batching
//!
//! [`TargetPricer`] is the batching vehicle: build it **once** per target
//! (one mask table), then price a whole candidate set against it. The
//! ASCII fast path skips `Vec<char>` collection entirely — masks index by
//! byte, candidates stream byte-by-byte — and mixed ASCII/non-ASCII pairs
//! stay correct because a non-ASCII candidate character simply maps to an
//! all-zero mask (it can never equal an ASCII target character).
//!
//! ## Determinism argument
//!
//! The cost model is `dis(v, v') / max(|v|, |v'|)` with integer `dis`.
//! The kernel returns the same integer distances as the scalar reference
//! (pinned by `tests/distance_kernel_oracle.rs`), the normalizer is the
//! same cached character count, and one IEEE division of equal integers
//! is bit-exact — so every price, every `(residual, cost)` comparison,
//! and every use-count tie-break in `FINDV` is the one the reference
//! kernel would give. The bounded variant is equally exact: it returns `Some(d)` iff the true distance `d ≤ cutoff`, like
//! [`crate::distance::dl_distance_bounded`].

use crate::distance::{osa_bounded_reference, osa_reference};

/// Maximum target length (in characters) the single-word bitmask DP
/// handles; longer targets price through the scalar reference kernel.
pub const MAX_PATTERN_CHARS: usize = 64;

/// Per-character pattern bitmasks for one target string.
enum Masks {
    /// ASCII target, ≤ 64 chars: masks indexed directly by byte.
    Ascii(Box<[u64; 256]>),
    /// Non-ASCII target, ≤ 64 chars: sorted `(char, mask)` pairs.
    Chars(Vec<(char, u64)>),
    /// Target longer than 64 chars: keep the collected chars for the
    /// reference DP.
    Scalar(Vec<char>),
}

/// A target value prepared for batch pricing: pattern bitmasks built
/// once, then any number of candidates priced against it.
pub struct TargetPricer {
    masks: Masks,
    /// Character count of the target.
    m: usize,
}

impl TargetPricer {
    /// Prepare `target`: the bit-parallel kernel for targets of at most
    /// [`MAX_PATTERN_CHARS`] characters, the scalar reference past that.
    pub fn new(target: &str) -> Self {
        if target.is_ascii() {
            let m = target.len();
            if m <= MAX_PATTERN_CHARS {
                let mut masks = Box::new([0u64; 256]);
                for (i, b) in target.bytes().enumerate() {
                    masks[b as usize] |= 1u64 << i;
                }
                return TargetPricer {
                    masks: Masks::Ascii(masks),
                    m,
                };
            }
            return TargetPricer {
                masks: Masks::Scalar(target.chars().collect()),
                m,
            };
        }
        let chars: Vec<char> = target.chars().collect();
        let m = chars.len();
        if m <= MAX_PATTERN_CHARS {
            let mut masks: Vec<(char, u64)> = Vec::with_capacity(m);
            for (i, c) in chars.iter().enumerate() {
                match masks.binary_search_by_key(c, |(mc, _)| *mc) {
                    Ok(pos) => masks[pos].1 |= 1u64 << i,
                    Err(pos) => masks.insert(pos, (*c, 1u64 << i)),
                }
            }
            TargetPricer {
                masks: Masks::Chars(masks),
                m,
            }
        } else {
            TargetPricer {
                masks: Masks::Scalar(chars),
                m,
            }
        }
    }

    /// Character count of the target.
    pub fn target_chars(&self) -> usize {
        self.m
    }

    /// DL (optimal string alignment) distance from the target to `other`.
    /// Same integers as the scalar reference on every input.
    pub fn distance(&self, other: &str) -> usize {
        match &self.masks {
            Masks::Scalar(chars) => {
                let oc: Vec<char> = other.chars().collect();
                osa_reference(chars, &oc)
            }
            Masks::Ascii(masks) if other.is_ascii() => {
                self.run(other.bytes().map(|b| masks[b as usize]))
            }
            Masks::Ascii(masks) => self.run(other.chars().map(|c| {
                if c.is_ascii() {
                    masks[c as usize]
                } else {
                    0 // non-ASCII never matches an ASCII target char
                }
            })),
            Masks::Chars(masks) => self.run(other.chars().map(|c| char_mask(masks, c))),
        }
    }

    /// [`distance`](TargetPricer::distance) with a cutoff: `Some(d)` iff
    /// the true distance `d ≤ cutoff`, `None` otherwise — the exact
    /// semantics of [`crate::distance::dl_distance_bounded`]. Abandons as
    /// soon as the running score can no longer return below the cutoff.
    pub fn distance_bounded(&self, other: &str, cutoff: usize) -> Option<usize> {
        // Character count without allocation; the length difference is a
        // lower bound on the distance.
        let n = if other.is_ascii() {
            other.len()
        } else {
            other.chars().count()
        };
        if n.abs_diff(self.m) > cutoff {
            return None;
        }
        match &self.masks {
            Masks::Scalar(chars) => {
                let oc: Vec<char> = other.chars().collect();
                osa_bounded_reference(chars, &oc, cutoff)
            }
            Masks::Ascii(masks) if other.is_ascii() => {
                self.run_bounded(other.bytes().map(|b| masks[b as usize]), n, cutoff)
            }
            Masks::Ascii(masks) => self.run_bounded(
                other
                    .chars()
                    .map(|c| if c.is_ascii() { masks[c as usize] } else { 0 }),
                n,
                cutoff,
            ),
            Masks::Chars(masks) => {
                self.run_bounded(other.chars().map(|c| char_mask(masks, c)), n, cutoff)
            }
        }
    }

    /// The Myers/Hyyrö column loop over a stream of pattern-match masks
    /// (one per candidate character).
    fn run(&self, pms: impl Iterator<Item = u64>) -> usize {
        let m = self.m;
        if m == 0 {
            return pms.count();
        }
        let msb = 1u64 << (m - 1);
        let mut vp = ones(m);
        let mut vn = 0u64;
        let mut score = m;
        let mut pm_prev = 0u64;
        let mut d0_prev = 0u64;
        for pm in pms {
            // Hyyrö's OSA transposition term, then Myers' diagonal vector.
            let tr = (((!d0_prev) & pm) << 1) & pm_prev;
            let d0 = tr | ((((pm & vp).wrapping_add(vp)) ^ vp) | pm | vn);
            let hp = vn | !(d0 | vp);
            let hn = d0 & vp;
            if hp & msb != 0 {
                score += 1;
            } else if hn & msb != 0 {
                score -= 1;
            }
            let hp = (hp << 1) | 1;
            let hn = hn << 1;
            vp = hn | !(d0 | hp);
            vn = d0 & hp;
            pm_prev = pm;
            d0_prev = d0;
        }
        score
    }

    /// The bounded column loop: identical arithmetic, plus an abandon
    /// check — the score drops by at most one per remaining candidate
    /// character, so once `score − remaining > cutoff` the final distance
    /// provably exceeds the cutoff.
    fn run_bounded(
        &self,
        pms: impl Iterator<Item = u64>,
        n: usize,
        cutoff: usize,
    ) -> Option<usize> {
        let m = self.m;
        if m == 0 {
            return Some(n).filter(|d| *d <= cutoff);
        }
        let msb = 1u64 << (m - 1);
        let mut vp = ones(m);
        let mut vn = 0u64;
        let mut score = m;
        let mut pm_prev = 0u64;
        let mut d0_prev = 0u64;
        for (j, pm) in pms.enumerate() {
            let tr = (((!d0_prev) & pm) << 1) & pm_prev;
            let d0 = tr | ((((pm & vp).wrapping_add(vp)) ^ vp) | pm | vn);
            let hp = vn | !(d0 | vp);
            let hn = d0 & vp;
            if hp & msb != 0 {
                score += 1;
            } else if hn & msb != 0 {
                score -= 1;
            }
            let remaining = n - (j + 1);
            if score > cutoff.saturating_add(remaining) {
                return None;
            }
            let hp = (hp << 1) | 1;
            let hn = hn << 1;
            vp = hn | !(d0 | hp);
            vn = d0 & hp;
            pm_prev = pm;
            d0_prev = d0;
        }
        Some(score).filter(|d| *d <= cutoff)
    }
}

/// Low m bits set; `m` is in `1..=64`.
#[inline]
fn ones(m: usize) -> u64 {
    if m >= 64 {
        u64::MAX
    } else {
        (1u64 << m) - 1
    }
}

/// Mask lookup in the sorted non-ASCII table; absent chars never match.
#[inline]
fn char_mask(masks: &[(char, u64)], c: char) -> u64 {
    match masks.binary_search_by_key(&c, |(mc, _)| *mc) {
        Ok(pos) => masks[pos].1,
        Err(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &str, b: &str) -> usize {
        let ac: Vec<char> = a.chars().collect();
        let bc: Vec<char> = b.chars().collect();
        osa_reference(&ac, &bc)
    }

    fn assert_pair(a: &str, b: &str) {
        let want = reference(a, b);
        let p = TargetPricer::new(a);
        assert_eq!(p.distance(b), want, "{a:?} vs {b:?}");
        for cutoff in 0..=want + 2 {
            let got = p.distance_bounded(b, cutoff);
            if want <= cutoff {
                assert_eq!(got, Some(want), "bounded {a:?} {b:?} cutoff {cutoff}");
            } else {
                assert_eq!(got, None, "bounded {a:?} {b:?} cutoff {cutoff}");
            }
        }
    }

    #[test]
    fn pinned_distances() {
        assert_pair("kitten", "sitting");
        assert_pair("19014", "10012");
        assert_pair("ca", "ac");
        assert_pair("ab", "ba");
        assert_pair("", "abc");
        assert_pair("abc", "");
        assert_pair("", "");
        assert_pair("PHI", "NYC");
        assert_pair("Springfield", "Sprignfeild");
    }

    #[test]
    fn exhaustive_small_alphabet_equals_reference() {
        // Every pair of strings over {a, b, c} up to length 4: 121 strings,
        // 14 641 pairs — transposition-heavy by construction, and small
        // enough to make the kernel's equality with the reference DP a
        // near-proof rather than a spot check.
        let mut words: Vec<String> = vec![String::new()];
        let mut frontier = vec![String::new()];
        for _ in 0..4 {
            let mut next = Vec::new();
            for w in &frontier {
                for c in ['a', 'b', 'c'] {
                    let mut s = w.clone();
                    s.push(c);
                    next.push(s);
                }
            }
            words.extend(next.iter().cloned());
            frontier = next;
        }
        for a in &words {
            let p = TargetPricer::new(a);
            for b in &words {
                assert_eq!(p.distance(b), reference(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn transposition_counts_one() {
        assert_eq!(TargetPricer::new("ca").distance("ac"), 1);
        assert_eq!(TargetPricer::new("abcd").distance("abdc"), 1);
        // OSA: no substring edited twice — "ca" → "ac" → "abc" is 2 edits.
        assert_eq!(TargetPricer::new("ca").distance("abc"), 3);
    }

    #[test]
    fn multibyte_targets_and_candidates() {
        assert_pair("naïve", "naive");
        assert_pair("café", "cafe");
        assert_pair("日本語", "日本");
        assert_pair("über", "uber");
        assert_pair("mix日ed", "mixed");
        // ASCII target, non-ASCII candidate: the zero-mask path.
        assert_pair("abc", "aéc");
    }

    #[test]
    fn word_boundary_crossing() {
        // 63, 64, 65 and ~100 chars: both sides of the single-word limit.
        for len in [63usize, 64, 65, 100] {
            let a: String = (0..len).map(|i| char::from(b'a' + (i % 7) as u8)).collect();
            let mut b = a.clone();
            b.replace_range(0..1, "z");
            b.push('q');
            assert_pair(&a, &b);
            assert_pair(&a, "short");
        }
    }

    #[test]
    fn m_equals_64_mask_arithmetic() {
        let a = "x".repeat(64);
        let mut b = a.clone();
        b.replace_range(30..31, "y");
        assert_pair(&a, &b);
        assert_pair(&a, &a);
    }

    #[test]
    fn bounded_prunes_on_length_gap() {
        let p = TargetPricer::new("ab");
        assert_eq!(p.distance_bounded("abcdefgh", 3), None);
        assert_eq!(p.distance_bounded("abc", usize::MAX - 1), Some(1));
    }
}
