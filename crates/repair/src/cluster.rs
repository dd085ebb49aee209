//! Cost-based candidate-value index (§5.2, "Cost-based indices").
//!
//! The paper arranges `adom(Repr, A)` in a hierarchical-agglomerative-
//! clustering tree over the DL metric, built once, so that `TUPLERESOLVE`
//! can iterate candidate values in decreasing similarity to the value
//! being repaired. We keep the *contract* — the `limit` active-domain
//! values nearest a probe, exactly, ordered by `(distance, value)` — and
//! implement it in two layers:
//!
//! * **Length bands.** Values are bucketed by rendered length, and a
//!   query expands outward from the probe's band, scoring values with the
//!   cutoff-aware DL kernel and abandoning candidates whose distance
//!   provably exceeds the current `limit`-th best. Because
//!   `dis(a, b) ≥ ||a| − |b||`, bands farther than that bound are skipped
//!   wholesale; the search is exact and needs no O(n²) build.
//! * **A memo of base answers.** The index keeps its contents in two band
//!   sets: the *base* it was built over and the ids *added* since (the ΔD
//!   values a request activates). For a probe that is itself a base value
//!   it keeps the top-`limit` list over the base, computed on first use,
//!   and answers by merging that list with a bounded scan of the added
//!   bands. The merge is exact: under one total order,
//!   `top-k(B ∪ A) = top-k(top-k(B) ∪ A)`, since an element of `B` outside
//!   `top-k(B)` already has `k` better elements in `B`. So only a probe
//!   asked for the first time, or one outside the base, scans the base
//!   bands. Keys are base values only: the memo is bounded by the base
//!   domain and never keeps an id that only a sealed ΔD holds. Removing
//!   an added id leaves the memo as it is; removing a base value clears
//!   it.
//!
//! The `kernels` bench (`value_index/*`) compares the banded scan with
//! the naive full scan, and a memo hit with a miss.
//!
//! Entries carry `(Value, ValueId)` pairs: the resolved value keeps
//! enumeration order deterministic (ties break by *value* order, which is
//! independent of interning history), while callers receive the interned
//! id they feed straight into the id-encoded candidate machinery.

use std::collections::BTreeMap;
use std::sync::Arc;

use cfd_model::hash::FixedMap;
use cfd_model::{ActiveDomain, AttrId, Value, ValueId, ValuePool};

use crate::pricing::TargetPricer;

/// One scored candidate: `(distance, value, id)`, ordered that way.
type Near = (usize, Value, ValueId);

/// Distinct values bucketed by rendered length, each bucket sorted by
/// value for determinism. A bucket that empties is dropped.
#[derive(Clone, Debug, Default, PartialEq)]
struct Bands(BTreeMap<usize, Vec<(Value, ValueId)>>);

impl Bands {
    /// Insert `(v, id)`; false when it was already present.
    fn insert(&mut self, v: Value, id: ValueId) -> bool {
        let bucket = self.0.entry(v.render_len()).or_default();
        let entry = (v, id);
        match bucket.binary_search(&entry) {
            Ok(_) => false,
            Err(pos) => {
                bucket.insert(pos, entry);
                true
            }
        }
    }

    /// Remove `(v, id)`; false when it was absent.
    fn remove(&mut self, v: &Value, id: ValueId) -> bool {
        let band = v.render_len();
        let Some(bucket) = self.0.get_mut(&band) else {
            return false;
        };
        let Ok(pos) = bucket.binary_search_by(|(bv, bid)| (bv, *bid).cmp(&(v, id))) else {
            return false;
        };
        bucket.remove(pos);
        if bucket.is_empty() {
            self.0.remove(&band);
        }
        true
    }

    fn contains(&self, v: &Value, id: ValueId) -> bool {
        self.0.get(&v.render_len()).is_some_and(|bucket| {
            bucket
                .binary_search_by(|(bv, bid)| (bv, *bid).cmp(&(v, id)))
                .is_ok()
        })
    }

    fn entries(&self) -> impl Iterator<Item = &(Value, ValueId)> {
        self.0.values().flatten()
    }

    /// Fold these bands into `best`, the (sorted) `limit` nearest entries
    /// found so far, expanding outward from the probe's length band.
    fn scan(&self, probe: &Probe, limit: usize, best: &mut Vec<Near>) {
        let max_len = self.0.keys().next_back().copied().unwrap_or(0);
        for gap in 0..=max_len.max(probe.len) {
            let below = (gap > 0).then(|| probe.len.checked_sub(gap)).flatten();
            for band in std::iter::once(probe.len + gap).chain(below) {
                // Length difference is a lower bound on the distance: once
                // the gap alone exceeds the worst kept distance, no farther
                // band can contribute.
                if best.len() >= limit && gap > best[limit - 1].0 {
                    return;
                }
                let Some(bucket) = self.0.get(&band) else {
                    continue;
                };
                for (v, id) in bucket {
                    let cutoff = if best.len() >= limit {
                        best[limit - 1].0
                    } else {
                        usize::MAX - 1
                    };
                    let Some(d) = probe.pricer.distance_bounded(&v.render(), cutoff) else {
                        continue;
                    };
                    let entry = (d, v.clone(), *id);
                    let pos = best.partition_point(|e| *e <= entry);
                    if pos < limit {
                        best.insert(pos, entry);
                        best.truncate(limit);
                    }
                }
            }
        }
    }
}

/// A probe prepared for scoring: its rendered length and one prepared
/// kernel whose pattern bitmasks are reused against every entry.
struct Probe {
    value: Value,
    len: usize,
    pricer: TargetPricer,
}

impl Probe {
    fn new(pool: &ValuePool, id: ValueId) -> Self {
        let value = pool.resolve(id);
        Probe {
            len: value.render_len(),
            pricer: TargetPricer::new(&value.render()),
            value,
        }
    }
}

/// A memoized base answer: the top-`limit` list over the base contents.
#[derive(Clone, Debug)]
struct Memo {
    limit: usize,
    best: Box<[Near]>,
}

/// A queryable view of one attribute's active domain.
#[derive(Clone, Debug)]
pub struct ValueIndex {
    /// The values the index was built over.
    base: Bands,
    /// Values [`ValueIndex::add`]ed since, none of them in `base`.
    added: Bands,
    len: usize,
    /// Base answers keyed by probe; every key is a base value.
    memo: FixedMap<ValueId, Memo>,
    /// The pool probe ids and [`ValueIndex::add`]ed ids resolve through —
    /// the pool of the relation whose active domain this indexes.
    pool: Arc<ValuePool>,
}

impl ValueIndex {
    /// Build from the distinct values of `adom(a, D)`, resolving through
    /// the owning relation's pool.
    pub fn build_in(adom: &ActiveDomain, a: AttrId, pool: Arc<ValuePool>) -> Self {
        Self::from_ids_in(adom.ids(a).map(|(id, _)| id), pool)
    }

    /// Build directly from ids interned in `pool`.
    pub fn from_ids_in<I: IntoIterator<Item = ValueId>>(ids: I, pool: Arc<ValuePool>) -> Self {
        let mut distinct: Vec<(Value, ValueId)> =
            ids.into_iter().map(|id| (pool.resolve(id), id)).collect();
        distinct.sort();
        distinct.dedup();
        let len = distinct.len();
        let mut base = Bands::default();
        for (v, id) in distinct {
            base.0.entry(v.render_len()).or_default().push((v, id));
        }
        ValueIndex {
            base,
            added: Bands::default(),
            len,
            memo: FixedMap::default(),
            pool,
        }
    }

    /// Number of distinct values indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The probes whose base answers are memoized, ascending. Every one
    /// is a base value.
    pub(crate) fn memo_keys(&self) -> Vec<ValueId> {
        let mut keys: Vec<ValueId> = self.memo.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Record a value newly added to the domain. A base value is already
    /// indexed; any other joins the added bands.
    pub fn add(&mut self, id: ValueId) {
        if id.is_null() {
            return;
        }
        let v = self.pool.resolve(id);
        if !self.base.contains(&v, id) && self.added.insert(v, id) {
            self.len += 1;
        }
    }

    /// Forget a value that left the domain — the inverse of
    /// [`ValueIndex::add`]. Removing a base value clears the memo, whose
    /// answers may name it. Absent ids and null are no-ops.
    pub fn remove(&mut self, id: ValueId) {
        if id.is_null() {
            return;
        }
        let v = self.pool.resolve(id);
        if self.added.remove(&v, id) {
            self.len -= 1;
        } else if self.base.remove(&v, id) {
            self.len -= 1;
            self.memo.clear();
        }
    }

    /// The `limit` ids nearest to `probe` in DL distance, ascending (ties
    /// broken by value order). The probe itself is included when indexed.
    /// A base probe's answer over the base is memoized on first use (see
    /// the module docs).
    pub fn nearest(&mut self, probe: ValueId, limit: usize) -> Vec<(ValueId, usize)> {
        if limit == 0 || self.len == 0 {
            return Vec::new();
        }
        let mut prepared = None;
        let mut best: Vec<Near> = match self.memo.get(&probe) {
            Some(memo) if memo.limit >= limit => memo.best.iter().take(limit).cloned().collect(),
            _ => {
                let p = prepared.insert(Probe::new(&self.pool, probe));
                let mut best = Vec::with_capacity(limit + 1);
                self.base.scan(p, limit, &mut best);
                if self.base.contains(&p.value, probe) {
                    let memo = Memo {
                        limit,
                        best: best.clone().into_boxed_slice(),
                    };
                    self.memo.insert(probe, memo);
                }
                best
            }
        };
        if !self.added.0.is_empty() {
            let p = prepared.get_or_insert_with(|| Probe::new(&self.pool, probe));
            self.added.scan(p, limit, &mut best);
        }
        best.into_iter().map(|(d, _, id)| (id, d)).collect()
    }

    /// Naive full-scan nearest (no banding, no cutoff, no memo). Kept for
    /// the kernels benchmark and as a correctness oracle in tests.
    pub fn nearest_naive(&self, probe: ValueId, limit: usize) -> Vec<(ValueId, usize)> {
        let probe_text = self.pool.resolve(probe).render().into_owned();
        let mut all: Vec<(usize, &Value, ValueId)> = self
            .base
            .entries()
            .chain(self.added.entries())
            .map(|(v, id)| {
                (
                    crate::distance::dl_distance(&probe_text, &v.render()),
                    v,
                    *id,
                )
            })
            .collect();
        all.sort();
        all.truncate(limit);
        all.into_iter().map(|(d, _, id)| (id, d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(pool: &ValuePool, s: &str) -> ValueId {
        pool.intern(&Value::str(s))
    }

    fn idx(pool: &Arc<ValuePool>, values: &[&str]) -> ValueIndex {
        let ids = values.iter().map(|s| vid(pool, s));
        ValueIndex::from_ids_in(ids, pool.clone())
    }

    /// Every value indexed, base and added alike, in one band set.
    fn contents(i: &ValueIndex) -> Bands {
        let mut all = i.base.clone();
        for (v, id) in i.added.entries() {
            all.insert(v.clone(), *id);
        }
        all
    }

    #[test]
    fn nearest_orders_by_distance() {
        let p = ValuePool::new_handle();
        let mut i = idx(&p, &["walnut", "walnot", "spruce", "broad", "walnuts"]);
        let got = i.nearest(vid(&p, "walnut"), 3);
        assert_eq!(got[0], (vid(&p, "walnut"), 0));
        assert_eq!(got[1].1, 1); // walnot or walnuts
        assert_eq!(got[2].1, 1);
    }

    #[test]
    fn agrees_with_naive_oracle() {
        let p = ValuePool::new_handle();
        let words = [
            "19014", "10012", "19103", "10013", "60601", "94105", "2146", "215", "212", "610",
            "null-ish", "walnut", "spruce",
        ];
        let mut i = idx(&p, &words);
        for probe in ["19014", "212", "walnut", "zzz", ""] {
            let fast = i.nearest(vid(&p, probe), 5);
            let slow = i.nearest_naive(vid(&p, probe), 5);
            let fast_d: Vec<usize> = fast.iter().map(|(_, d)| *d).collect();
            let slow_d: Vec<usize> = slow.iter().map(|(_, d)| *d).collect();
            assert_eq!(fast_d, slow_d, "probe {probe}");
        }
    }

    #[test]
    fn add_keeps_index_queryable() {
        let p = ValuePool::new_handle();
        let mut i = idx(&p, &["abc"]);
        i.add(vid(&p, "abd"));
        i.add(vid(&p, "abd")); // duplicate ignored
        i.add(vid(&p, "abc")); // base value ignored
        i.add(cfd_model::NULL_ID); // nulls ignored
        assert_eq!(i.len(), 2);
        let got = i.nearest(vid(&p, "abd"), 1);
        assert_eq!(got[0], (vid(&p, "abd"), 0));
    }

    #[test]
    fn empty_index_returns_nothing() {
        let p = ValuePool::new_handle();
        let mut i = ValueIndex::from_ids_in([], p.clone());
        assert!(i.nearest(vid(&p, "x"), 3).is_empty());
        assert!(i.is_empty());
    }

    #[test]
    fn limit_zero_returns_nothing() {
        let p = ValuePool::new_handle();
        let mut i = idx(&p, &["a"]);
        assert!(i.nearest(vid(&p, "a"), 0).is_empty());
    }

    #[test]
    fn build_from_active_domain() {
        use cfd_model::{Relation, Schema, Tuple};
        let schema = Schema::new("r", &["ct"]).unwrap();
        let mut rel = Relation::new_in(schema, ValuePool::new_handle());
        for city in ["PHI", "NYC", "PHX"] {
            rel.insert(Tuple::new_in([city], rel.pool())).unwrap();
        }
        let adom = ActiveDomain::of_relation(&rel);
        let pool = rel.pool().clone();
        let mut i = ValueIndex::build_in(&adom, AttrId(0), pool.clone());
        let phi = pool.intern(&Value::str("PHI"));
        let got = i.nearest(phi, 3);
        assert_eq!(got[0], (phi, 0));
        assert_eq!(got[1], (pool.intern(&Value::str("PHX")), 1));
        assert_eq!(got[2], (pool.intern(&Value::str("NYC")), 3));
    }

    #[test]
    fn int_values_searchable_by_rendering() {
        let p = ValuePool::new_handle();
        let ids = [19014, 10012].map(|n| p.intern(&Value::int(n)));
        let mut i = ValueIndex::from_ids_in(ids, p.clone());
        let got = i.nearest(vid(&p, "19013"), 1);
        assert_eq!(got[0].0, ids[0]);
    }

    /// Seeded random add/remove sequences, removing a value when its last
    /// occurrence goes (as the active domain reports it), leave an index
    /// with the contents, `len` and `nearest` answers of a fresh build
    /// over the surviving values.
    #[test]
    fn add_remove_sequences_match_a_fresh_build() {
        let p = ValuePool::new_handle();
        use cfd_prng::{trials, Rng};
        let words = [
            "a", "b", "ab", "ba", "abc", "abd", "bcd", "abcd", "dcba", "abcde", "z",
        ];
        trials(48, 0xC1_05E, |rng| {
            let mut i = ValueIndex::from_ids_in([], p.clone());
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for _ in 0..rng.gen_range(1..80usize) {
                let w = words[rng.gen_range(0..words.len())];
                if rng.gen_range(0..3u32) > 0 {
                    *counts.entry(w).or_default() += 1;
                    i.add(vid(&p, w));
                } else if let Some(c) = counts.get_mut(w) {
                    *c -= 1;
                    if *c == 0 {
                        counts.remove(w);
                        i.remove(vid(&p, w));
                    }
                }
                let mut fresh = idx(&p, &counts.keys().copied().collect::<Vec<_>>());
                assert_eq!(contents(&i), fresh.base);
                assert_eq!(i.len(), fresh.len());
                for probe in ["ab", "abcd", "q"] {
                    assert_eq!(
                        i.nearest(vid(&p, probe), 3),
                        fresh.nearest(vid(&p, probe), 3)
                    );
                }
            }
        });
    }

    /// Seeded trials over a base of 4–6 character words mixing adds,
    /// removals (base ones included) and queries at several limits, base
    /// probes asked again and again: every answer equals the naive scan
    /// over the current contents, and every memo key is a base value.
    #[test]
    fn memoized_answers_match_the_naive_scan() {
        let p = ValuePool::new_handle();
        use cfd_prng::{trials, Rng};
        let letters = b"abcde";
        let word = |rng: &mut cfd_prng::ChaCha8Rng| -> String {
            let n = rng.gen_range(4..7usize);
            (0..n)
                .map(|_| letters[rng.gen_range(0..letters.len())] as char)
                .collect()
        };
        trials(24, 0x3E30, |rng| {
            let base: Vec<String> = (0..rng.gen_range(1..60usize)).map(|_| word(rng)).collect();
            let mut i = idx(&p, &base.iter().map(String::as_str).collect::<Vec<_>>());
            let mut hits = 0;
            for _ in 0..200 {
                match rng.gen_range(0..10u32) {
                    0..=2 => i.add(vid(&p, &word(rng))),
                    3 => {
                        let nth = rng.gen_range(0..i.len().max(1));
                        let pick = contents(&i).entries().nth(nth).map(|(_, id)| *id);
                        if let Some(id) = pick {
                            i.remove(id);
                        }
                    }
                    _ => {
                        let probe = if rng.gen_range(0..4u32) > 0 {
                            vid(&p, &base[rng.gen_range(0..base.len())])
                        } else {
                            vid(&p, &word(rng))
                        };
                        let limit = [1, 3, 6, 9][rng.gen_range(0..4usize)];
                        hits += usize::from(i.memo.contains_key(&probe));
                        assert_eq!(i.nearest(probe, limit), i.nearest_naive(probe, limit));
                    }
                }
                for key in i.memo_keys() {
                    let v = p.resolve(key);
                    assert!(i.base.contains(&v, key), "memo key {v} is not a base value");
                }
            }
            assert!(hits > 0, "no query was answered from the memo");
        });
    }

    #[test]
    fn removing_a_base_value_clears_the_memo() {
        let p = ValuePool::new_handle();
        let mut i = idx(&p, &["abc", "abd", "xyz"]);
        i.add(vid(&p, "abe"));
        assert_eq!(
            i.nearest(vid(&p, "abc"), 2),
            vec![(vid(&p, "abc"), 0), (vid(&p, "abd"), 1)]
        );
        assert_eq!(i.memo_keys(), vec![vid(&p, "abc")]);
        i.remove(vid(&p, "abe")); // an added value: the memo stays
        assert_eq!(i.memo_keys(), vec![vid(&p, "abc")]);
        i.remove(vid(&p, "abd"));
        assert!(i.memo_keys().is_empty());
        assert_eq!(
            i.nearest(vid(&p, "abc"), 2),
            vec![(vid(&p, "abc"), 0), (vid(&p, "xyz"), 3)]
        );
    }

    #[test]
    fn probes_outside_the_base_are_not_memoized() {
        let p = ValuePool::new_handle();
        let mut i = idx(&p, &["abc"]);
        i.add(vid(&p, "abd"));
        assert_eq!(
            i.nearest(vid(&p, "abd"), 2),
            vec![(vid(&p, "abd"), 0), (vid(&p, "abc"), 1)]
        );
        assert_eq!(i.nearest(vid(&p, "zzz"), 1), vec![(vid(&p, "abc"), 3)]);
        assert!(i.memo_keys().is_empty());
    }

    #[test]
    fn remove_drops_empty_buckets_and_ignores_absent_values() {
        let p = ValuePool::new_handle();
        let mut i = idx(&p, &["abc", "x"]);
        i.remove(vid(&p, "zz"));
        i.remove(cfd_model::NULL_ID);
        assert_eq!(i.len(), 2);
        i.remove(vid(&p, "x"));
        assert_eq!(i.len(), 1);
        assert!(!i.base.0.contains_key(&1));
        assert_eq!(i.nearest(vid(&p, "x"), 2), vec![(vid(&p, "abc"), 3)]);
    }
}
