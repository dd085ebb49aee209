//! The Damerau–Levenshtein (DL) metric of §3.2.
//!
//! The paper measures similarity of two values as the minimum number of
//! single-character insertions, deletions and substitutions required to
//! transform one into the other, normalized by the longer length so that
//! "longer strings with 1-character difference are closer than shorter
//! strings with 1-character difference". We implement the *optimal string
//! alignment* variant (adjacent transpositions count 1, no substring may be
//! edited twice), which is the standard reading of "Damerau–Levenshtein" in
//! record-linkage practice and is what typo-style noise needs.
//!
//! A cutoff-aware variant ([`dl_distance_bounded`]) supports the
//! nearest-value index: if the distance provably exceeds the cutoff the
//! function abandons early and returns `None`, which turns candidate
//! enumeration over large active domains from quadratic into near-linear.

use std::sync::Arc;

use cfd_model::hash::FixedMap;
use cfd_model::{Value, ValueId, ValuePool};

use crate::pricing::TargetPricer;

/// DL (optimal string alignment) distance between two char slices — the
/// scalar reference kernel. The bit-parallel kernel
/// ([`crate::pricing::TargetPricer`]) is pinned equal to this function by
/// the property suites; keep it branch-for-branch boring.
pub(crate) fn osa_reference(a: &[char], b: &[char]) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    // Three rolling rows: i-2, i-1, i.
    let mut prev2 = vec![0usize; m + 1];
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(prev2[j - 2] + 1);
            }
            cur[j] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Bounded scalar reference: `Some(d)` iff the true distance `d ≤ cutoff`.
/// Abandons when a full row's minimum exceeds the cutoff.
pub(crate) fn osa_bounded_reference(a: &[char], b: &[char], cutoff: usize) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > cutoff {
        return None;
    }
    if n == 0 {
        return Some(m).filter(|d| *d <= cutoff);
    }
    if m == 0 {
        return Some(n).filter(|d| *d <= cutoff);
    }
    let mut prev2 = vec![0usize; m + 1];
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        let mut row_min = cur[0];
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(prev2[j - 2] + 1);
            }
            cur[j] = best;
            row_min = row_min.min(best);
        }
        if row_min > cutoff {
            return None;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    Some(prev[m]).filter(|d| *d <= cutoff)
}

/// Character count without allocating: byte length for ASCII, one
/// `chars()` pass otherwise.
#[inline]
pub(crate) fn char_count(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

/// DL distance between two strings (character-based), through the
/// bit-parallel kernel ([`TargetPricer`]); [`dl_distance_reference`] is
/// its scalar oracle.
pub fn dl_distance(a: &str, b: &str) -> usize {
    TargetPricer::new(a).distance(b)
}

/// The scalar reference kernel on strings — the oracle the kernel
/// property tests and benches compare against.
pub fn dl_distance_reference(a: &str, b: &str) -> usize {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    osa_reference(&ac, &bc)
}

/// DL distance with a cutoff: returns `None` when the distance is
/// guaranteed to exceed `cutoff`. The length-difference lower bound is
/// checked before anything is collected or built, so pruned pairs
/// allocate nothing; past the bound, the kernel abandons as soon as the
/// running score provably exceeds the cutoff.
pub fn dl_distance_bounded(a: &str, b: &str, cutoff: usize) -> Option<usize> {
    if char_count(a).abs_diff(char_count(b)) > cutoff {
        return None;
    }
    TargetPricer::new(a).distance_bounded(b, cutoff)
}

/// Normalized similarity term of the cost model:
/// `dis(v, v') / max(|v|, |v'|)` ∈ `[0, 1]`.
///
/// Values render to text first (`null` renders empty, hence maximally
/// distant from any non-empty value). Two empty/equal renderings cost 0.
pub fn normalized_distance(v: &Value, w: &Value) -> f64 {
    let a = v.render();
    let b = w.render();
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 0.0;
    }
    dl_distance(&a, &b) as f64 / max_len as f64
}

/// Memoized `dis(v, v') / max(|v|, |v'|)` over interned id pairs.
///
/// The repair loops price the same few conflicting values against the
/// same candidate pool over and over; with values interned, the pair
/// `(ValueId, ValueId)` is a perfect memo key. Ids resolve to strings
/// only on a cache miss — this is the single point where the id-encoded
/// repair pipeline touches the text form of a value. The metric is
/// symmetric, so pairs are stored with the smaller id first.
#[derive(Clone, Debug)]
pub struct DistanceCache {
    /// Memo under the fixed word hasher: a key is two ids from the
    /// interner, two mixing steps, where SipHash would be wasteful.
    memo: FixedMap<(ValueId, ValueId), f64>,
    /// The pool ids resolve through on a miss — the owning dataset's
    /// pool, so memoized distances (and the cached renders behind them)
    /// die with the dataset instead of accreting process-wide.
    pool: Arc<ValuePool>,
}

impl DistanceCache {
    /// An empty cache whose ids resolve through `pool`.
    pub fn for_pool(pool: Arc<ValuePool>) -> Self {
        DistanceCache {
            memo: FixedMap::default(),
            pool,
        }
    }

    /// The pool this cache resolves through.
    pub fn pool(&self) -> &Arc<ValuePool> {
        &self.pool
    }

    /// The normalized distance between two interned values.
    pub fn normalized(&mut self, a: ValueId, b: ValueId) -> f64 {
        if a == b {
            return 0.0;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(d) = self.memo.get(&key) {
            return *d;
        }
        let pool = &self.pool;
        let ra = pool.rendered(key.0);
        let rb = pool.rendered(key.1);
        let max_len = ra.chars.max(rb.chars) as usize;
        let d = if max_len == 0 {
            0.0
        } else {
            let dis = TargetPricer::new(&ra.text).distance(&rb.text);
            dis as f64 / max_len as f64
        };
        self.memo.insert(key, d);
        d
    }

    /// Target-major batch pricing: the normalized distance from `target`
    /// to every candidate, in candidate order. The target's pattern
    /// bitmasks are built once and reused across all cache misses, whose
    /// renders come back in one batch through the pool's rendered-text
    /// cache. Each result is bit-identical to what
    /// [`normalized`](DistanceCache::normalized) returns for that pair:
    /// same integer distance, same cached normalizer, one IEEE division.
    pub fn normalized_batch(&mut self, target: ValueId, candidates: &[ValueId]) -> Vec<f64> {
        let mut out = vec![0.0f64; candidates.len()];
        let mut misses: Vec<(usize, ValueId)> = Vec::new();
        for (i, &c) in candidates.iter().enumerate() {
            if c == target {
                continue; // out[i] stays the exact 0.0 of the equal-id path
            }
            let key = if target < c { (target, c) } else { (c, target) };
            match self.memo.get(&key) {
                Some(d) => out[i] = *d,
                None => misses.push((i, c)),
            }
        }
        if misses.is_empty() {
            return out;
        }
        let pool = &self.pool;
        let rt = pool.rendered(target);
        let pricer = TargetPricer::new(&rt.text);
        let ids: Vec<ValueId> = misses.iter().map(|&(_, c)| c).collect();
        let rendered = pool.rendered_batch(&ids);
        for (&(i, c), rc) in misses.iter().zip(rendered.iter()) {
            let max_len = rt.chars.max(rc.chars) as usize;
            // The metric is symmetric (pinned by the property suite), so
            // pricing target-major yields the single-pair number even when
            // the memo key puts the candidate first.
            let d = if max_len == 0 {
                0.0
            } else {
                pricer.distance(&rc.text) as f64 / max_len as f64
            };
            let key = if target < c { (target, c) } else { (c, target) };
            self.memo.insert(key, d);
            out[i] = d;
        }
        out
    }

    /// Number of memoized pairs.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_are_zero() {
        assert_eq!(dl_distance("", ""), 0);
        assert_eq!(dl_distance("PHI", "PHI"), 0);
    }

    #[test]
    fn single_edits() {
        assert_eq!(dl_distance("NYC", "NY"), 1); // deletion
        assert_eq!(dl_distance("NY", "NYC"), 1); // insertion
        assert_eq!(dl_distance("PHI", "PHX"), 1); // substitution
        assert_eq!(dl_distance("ab", "ba"), 1); // transposition
    }

    #[test]
    fn transposition_beats_two_substitutions() {
        // plain Levenshtein would say 2
        assert_eq!(dl_distance("ca", "ac"), 1);
    }

    #[test]
    fn known_distances() {
        assert_eq!(dl_distance("kitten", "sitting"), 3);
        assert_eq!(dl_distance("19014", "10012"), 2);
        assert_eq!(dl_distance("", "abc"), 3);
    }

    #[test]
    fn metric_properties_smoke() {
        let words = ["", "a", "ab", "ba", "abc", "cab", "walnut", "walnot"];
        for x in words {
            for y in words {
                let d = dl_distance(x, y);
                assert_eq!(d, dl_distance(y, x), "symmetry {x} {y}");
                assert_eq!(d == 0, x == y, "identity {x} {y}");
            }
        }
    }

    #[test]
    fn bounded_agrees_with_exact_within_cutoff() {
        let words = ["walnut", "spruce", "broad", "canel", "elm", ""];
        for x in words {
            for y in words {
                let exact = dl_distance(x, y);
                for cutoff in 0..8 {
                    let got = dl_distance_bounded(x, y, cutoff);
                    if exact <= cutoff {
                        assert_eq!(got, Some(exact), "{x} {y} cutoff {cutoff}");
                    } else {
                        assert_eq!(got, None, "{x} {y} cutoff {cutoff}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_prunes_on_length_gap() {
        assert_eq!(dl_distance_bounded("ab", "abcdefgh", 3), None);
    }

    #[test]
    fn normalized_matches_paper_example_3_1() {
        // Example 3.1: changing t3[CT] "PHI" → "NYC" costs dis/max = 3/3;
        // changing t3[zip] "10012" → "19014" costs 3/5… the paper's text
        // says 1/3 for zip under a different reading; we match the formula:
        assert_eq!(
            normalized_distance(&Value::str("PHI"), &Value::str("NYC")),
            1.0
        );
        let z = normalized_distance(&Value::str("10012"), &Value::str("19014"));
        assert!((z - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_null_handling() {
        assert_eq!(normalized_distance(&Value::Null, &Value::Null), 0.0);
        assert_eq!(normalized_distance(&Value::Null, &Value::str("abc")), 1.0);
        assert_eq!(normalized_distance(&Value::str("abc"), &Value::Null), 1.0);
    }

    #[test]
    fn normalized_is_scale_aware() {
        // longer strings with a 1-char difference are closer
        let short = normalized_distance(&Value::str("ab"), &Value::str("ac"));
        let long = normalized_distance(&Value::str("abcdefgh"), &Value::str("abcdefgx"));
        assert!(long < short);
    }

    #[test]
    fn int_values_compare_by_rendering() {
        let d = normalized_distance(&Value::int(19014), &Value::int(10012));
        assert!((d - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn cache_memoizes_and_agrees() {
        let pool = ValuePool::new_handle();
        let mut cache = DistanceCache::for_pool(Arc::clone(&pool));
        let words = ["walnut", "walnot", "spruce", ""];
        let ids: Vec<ValueId> = words.iter().map(|w| pool.intern(&Value::str(*w))).collect();
        for a in &ids {
            for b in &ids {
                let got = cache.normalized(*a, *b);
                let want = normalized_distance(&pool.resolve(*a), &pool.resolve(*b));
                assert_eq!(got, want, "{a} vs {b}");
                // symmetry through the shared key
                assert_eq!(cache.normalized(*b, *a), got);
            }
        }
        // 4 values → at most C(4,2) = 6 off-diagonal pairs memoized
        assert!(cache.len() <= 6);
        // null resolves to the empty rendering: distance 1 to non-empty
        let nyc = pool.intern(&Value::str("NYC"));
        assert_eq!(cache.normalized(cfd_model::NULL_ID, nyc), 1.0);
    }
}
