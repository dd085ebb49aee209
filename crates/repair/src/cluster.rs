//! Cost-based candidate-value index (§5.2, "Cost-based indices").
//!
//! The paper arranges `adom(Repr, A)` in a hierarchical-agglomerative-
//! clustering tree over the DL metric so that `TUPLERESOLVE` can iterate
//! candidate values in decreasing similarity to the value being repaired.
//! We keep the *contract* — enumerate active-domain values in (approximately)
//! increasing DL distance from a probe, cheaply — but implement it as a
//! **length-banded exact search**: values are bucketed by rendered length,
//! and a query expands outward from the probe's length band, scoring values
//! with the cutoff-aware DL kernel and abandoning candidates whose distance
//! provably exceeds the current `limit`-th best. Because
//! `dis(a, b) ≥ ||a| − |b||`, bands farther than the current worst bound can
//! be skipped wholesale; the search is exact, needs no O(n²) build, and
//! degrades gracefully on large domains. The `repair_ablations` bench
//! compares it against the naive full scan.
//!
//! Entries carry `(Value, ValueId)` pairs: the resolved value keeps
//! enumeration order deterministic (ties break by *value* order, which is
//! independent of interning history), while callers receive the interned
//! id they feed straight into the id-encoded candidate machinery.

use std::collections::BTreeMap;
use std::sync::Arc;

use cfd_model::{ActiveDomain, AttrId, Value, ValueId, ValuePool};

/// A queryable view of one attribute's active domain.
#[derive(Clone, Debug)]
pub struct ValueIndex {
    /// Distinct values bucketed by rendered length, each bucket sorted by
    /// value for determinism.
    by_len: BTreeMap<usize, Vec<(Value, ValueId)>>,
    len: usize,
    /// The pool probe ids and [`ValueIndex::add`]ed ids resolve through —
    /// the pool of the relation whose active domain this indexes.
    pool: Arc<ValuePool>,
}

impl Default for ValueIndex {
    fn default() -> Self {
        ValueIndex {
            by_len: BTreeMap::new(),
            len: 0,
            pool: ValuePool::shared(),
        }
    }
}

impl ValueIndex {
    /// Build from the distinct values of `adom(a, D)`, resolving through
    /// the process-default shared pool (compatibility shim; see
    /// [`ValueIndex::build_in`]).
    pub fn build(adom: &ActiveDomain, a: AttrId) -> Self {
        Self::build_in(adom, a, ValuePool::shared())
    }

    /// Build from the distinct values of `adom(a, D)`, resolving through
    /// the owning relation's pool.
    pub fn build_in(adom: &ActiveDomain, a: AttrId, pool: Arc<ValuePool>) -> Self {
        Self::from_ids_in(adom.ids(a).map(|(id, _)| id), pool)
    }

    /// Build directly from interned ids in the process-default shared
    /// pool (compatibility shim; see [`ValueIndex::from_ids_in`]).
    pub fn from_ids<I: IntoIterator<Item = ValueId>>(ids: I) -> Self {
        Self::from_ids_in(ids, ValuePool::shared())
    }

    /// Build directly from ids interned in `pool`.
    pub fn from_ids_in<I: IntoIterator<Item = ValueId>>(ids: I, pool: Arc<ValuePool>) -> Self {
        let mut distinct: Vec<(Value, ValueId)> =
            ids.into_iter().map(|id| (pool.resolve(id), id)).collect();
        distinct.sort();
        distinct.dedup();
        let mut by_len: BTreeMap<usize, Vec<(Value, ValueId)>> = BTreeMap::new();
        let len = distinct.len();
        for (v, id) in distinct {
            by_len.entry(v.render_len()).or_default().push((v, id));
        }
        ValueIndex { by_len, len, pool }
    }

    /// Build directly from values (tests, ad-hoc pools), interning into
    /// the process-default shared pool.
    pub fn from_values<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Self::from_ids(values.into_iter().map(|v| ValueId::of(&v)))
    }

    /// Number of distinct values indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record a value newly added to the domain.
    pub fn add(&mut self, id: ValueId) {
        if id.is_null() {
            return;
        }
        let v = self.pool.resolve(id);
        let bucket = self.by_len.entry(v.render_len()).or_default();
        let entry = (v, id);
        if let Err(pos) = bucket.binary_search(&entry) {
            bucket.insert(pos, entry);
            self.len += 1;
        }
    }

    /// Forget a value that left the domain — the inverse of
    /// [`ValueIndex::add`]. A length bucket that empties is dropped, so an
    /// add/remove sequence leaves exactly the index a fresh build over the
    /// surviving values would. Absent ids and null are no-ops.
    pub fn remove(&mut self, id: ValueId) {
        if id.is_null() {
            return;
        }
        let v = self.pool.resolve(id);
        let band = v.render_len();
        let Some(bucket) = self.by_len.get_mut(&band) else {
            return;
        };
        if let Ok(pos) = bucket.binary_search(&(v, id)) {
            bucket.remove(pos);
            self.len -= 1;
            if bucket.is_empty() {
                self.by_len.remove(&band);
            }
        }
    }

    /// The `limit` ids nearest to `probe` in DL distance, ascending (ties
    /// broken by value order). `probe` itself is excluded when
    /// `exclude_probe` — repairs must pick a *different* value.
    pub fn nearest(
        &self,
        probe: ValueId,
        limit: usize,
        exclude_probe: bool,
    ) -> Vec<(ValueId, usize)> {
        if limit == 0 || self.len == 0 {
            return Vec::new();
        }
        let probe_value = self.pool.resolve(probe);
        let probe_text = probe_value.render().into_owned();
        let probe_len = probe_value.render_len();
        // One prepared kernel for the probe: its pattern bitmasks are
        // built once and reused against every bucket entry, instead of a
        // fresh DP matrix per pair.
        let pricer = crate::pricing::TargetPricer::new(&probe_text);
        // Max-heap by (distance, value) capped at `limit`; implemented as a
        // sorted Vec because `limit` is small (≤ a few dozen).
        let mut best: Vec<(usize, &Value, ValueId)> = Vec::with_capacity(limit + 1);
        let mut worst_bound = usize::MAX;
        // Expand outward from the probe's length band.
        let mut offsets: Vec<i64> = Vec::new();
        let max_len = self.by_len.keys().next_back().copied().unwrap_or(0) as i64;
        for d in 0..=max_len.max(probe_len as i64) {
            if d == 0 {
                offsets.push(0);
            } else {
                offsets.push(d);
                offsets.push(-d);
            }
        }
        for off in offsets {
            let band = probe_len as i64 + off;
            if band < 0 {
                continue;
            }
            // Length difference is a lower bound on the distance: once the
            // band gap alone exceeds the worst kept distance, no farther
            // band can contribute.
            if best.len() >= limit && off.unsigned_abs() as usize > worst_bound {
                break;
            }
            let Some(bucket) = self.by_len.get(&(band as usize)) else {
                continue;
            };
            for (v, id) in bucket {
                if exclude_probe && *id == probe {
                    continue;
                }
                let cutoff = if best.len() >= limit {
                    worst_bound
                } else {
                    usize::MAX - 1
                };
                let Some(d) = pricer.distance_bounded(&v.render(), cutoff) else {
                    continue;
                };
                let entry = (d, v, *id);
                let pos = best.partition_point(|e| *e <= entry);
                best.insert(pos, entry);
                if best.len() > limit {
                    best.pop();
                }
                if best.len() >= limit {
                    worst_bound = best.last().expect("non-empty").0;
                }
            }
        }
        best.into_iter().map(|(d, _, id)| (id, d)).collect()
    }

    /// Naive full-scan nearest (no banding, no cutoff). Kept for the
    /// ablation benchmark and as a correctness oracle in tests.
    pub fn nearest_naive(
        &self,
        probe: ValueId,
        limit: usize,
        exclude_probe: bool,
    ) -> Vec<(ValueId, usize)> {
        let probe_text = self.pool.resolve(probe).render().into_owned();
        let mut all: Vec<(usize, &Value, ValueId)> = self
            .by_len
            .values()
            .flatten()
            .filter(|(_, id)| !(exclude_probe && *id == probe))
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

    fn vid(s: &str) -> ValueId {
        ValueId::of(&Value::str(s))
    }

    fn idx(values: &[&str]) -> ValueIndex {
        ValueIndex::from_values(values.iter().map(|s| Value::str(*s)))
    }

    #[test]
    fn nearest_orders_by_distance() {
        let i = idx(&["walnut", "walnot", "spruce", "broad", "walnuts"]);
        let got = i.nearest(vid("walnut"), 3, false);
        assert_eq!(got[0], (vid("walnut"), 0));
        assert_eq!(got[1].1, 1); // walnot or walnuts
        assert_eq!(got[2].1, 1);
    }

    #[test]
    fn exclude_probe_skips_exact_match() {
        let i = idx(&["walnut", "walnot"]);
        let got = i.nearest(vid("walnut"), 2, true);
        assert_eq!(got, vec![(vid("walnot"), 1)]);
    }

    #[test]
    fn agrees_with_naive_oracle() {
        let words = [
            "19014", "10012", "19103", "10013", "60601", "94105", "2146", "215", "212", "610",
            "null-ish", "walnut", "spruce",
        ];
        let i = idx(&words);
        for probe in ["19014", "212", "walnut", "zzz", ""] {
            let fast = i.nearest(vid(probe), 5, false);
            let slow = i.nearest_naive(vid(probe), 5, false);
            let fast_d: Vec<usize> = fast.iter().map(|(_, d)| *d).collect();
            let slow_d: Vec<usize> = slow.iter().map(|(_, d)| *d).collect();
            assert_eq!(fast_d, slow_d, "probe {probe}");
        }
    }

    #[test]
    fn add_keeps_index_queryable() {
        let mut i = idx(&["abc"]);
        i.add(vid("abd"));
        i.add(vid("abd")); // duplicate ignored
        i.add(cfd_model::NULL_ID); // nulls ignored
        assert_eq!(i.len(), 2);
        let got = i.nearest(vid("abd"), 1, false);
        assert_eq!(got[0], (vid("abd"), 0));
    }

    #[test]
    fn empty_index_returns_nothing() {
        let i = ValueIndex::default();
        assert!(i.nearest(vid("x"), 3, false).is_empty());
        assert!(i.is_empty());
    }

    #[test]
    fn limit_zero_returns_nothing() {
        let i = idx(&["a"]);
        assert!(i.nearest(vid("a"), 0, false).is_empty());
    }

    #[test]
    fn build_from_active_domain() {
        use cfd_model::{Relation, Schema, Tuple};
        let schema = Schema::new("r", &["ct"]).unwrap();
        let mut rel = Relation::new(schema);
        for city in ["PHI", "NYC", "PHX"] {
            rel.insert(Tuple::from_iter([city])).unwrap();
        }
        let adom = ActiveDomain::of_relation(&rel);
        let i = ValueIndex::build(&adom, AttrId(0));
        let got = i.nearest(vid("PHI"), 2, true);
        assert_eq!(got[0], (vid("PHX"), 1));
        assert_eq!(got[1], (vid("NYC"), 3));
    }

    #[test]
    fn int_values_searchable_by_rendering() {
        let i = ValueIndex::from_values([Value::int(19014), Value::int(10012)]);
        let got = i.nearest(vid("19013"), 1, false);
        assert_eq!(got[0].0, ValueId::of(&Value::int(19014)));
    }

    /// Seeded random add/remove sequences, removing a value when its last
    /// occurrence goes (as the active domain reports it), leave the same
    /// index a fresh build over the surviving values gives: the same
    /// buckets, the same `len` and the same `nearest` answers.
    #[test]
    fn add_remove_sequences_match_a_fresh_build() {
        use cfd_prng::{trials, Rng};
        use std::collections::BTreeMap;
        let words = [
            "a", "b", "ab", "ba", "abc", "abd", "bcd", "abcd", "dcba", "abcde", "z",
        ];
        trials(48, 0xC1_05E, |rng| {
            let mut i = ValueIndex::default();
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for _ in 0..rng.gen_range(1..80usize) {
                let w = words[rng.gen_range(0..words.len())];
                if rng.gen_range(0..3u32) > 0 {
                    *counts.entry(w).or_default() += 1;
                    i.add(vid(w));
                } else if let Some(c) = counts.get_mut(w) {
                    *c -= 1;
                    if *c == 0 {
                        counts.remove(w);
                        i.remove(vid(w));
                    }
                }
                let fresh = idx(&counts.keys().copied().collect::<Vec<_>>());
                assert_eq!(i.by_len, fresh.by_len);
                assert_eq!(i.len(), fresh.len());
                for probe in ["ab", "abcd", "q"] {
                    assert_eq!(
                        i.nearest(vid(probe), 3, false),
                        fresh.nearest(vid(probe), 3, false)
                    );
                }
            }
        });
    }

    #[test]
    fn remove_drops_empty_buckets_and_ignores_absent_values() {
        let mut i = idx(&["abc", "x"]);
        i.remove(vid("zz"));
        i.remove(cfd_model::NULL_ID);
        assert_eq!(i.len(), 2);
        i.remove(vid("x"));
        assert_eq!(i.len(), 1);
        assert!(!i.by_len.contains_key(&1));
        assert_eq!(i.nearest(vid("x"), 2, false), vec![(vid("abc"), 3)]);
    }
}
