//! The group census `BATCHREPAIR` reads its variable-CFD decisions off:
//! per (variable shape, LHS group key), the live carriers of each
//! non-null RHS value and their weight sum ([`GroupCensus`]).
//!
//! Every shape is built in ascending tuple-id order, so each bucket's
//! carrier list comes out sorted by pushing alone, and the floating-point
//! weight sums are a pure function of the relation. `update` keeps the
//! census equal to a fresh build as the repair loop rewrites cells.
//!
//! The module keeps its `shard` path because `perfbench` imports
//! [`variable_shapes`] and [`GroupCensus`] from it.

use std::collections::BTreeMap;

use cfd_cfd::Sigma;
use cfd_model::hash::FnvMap;
use cfd_model::{AttrId, IdKey, Relation, TupleId, TupleView, ValueId};

use crate::options::Parallelism;

/// FNV-1a over a stream of `u32`s (little-endian bytes).
fn fnv1a(seed: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = seed;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The distinct `(LHS attrs, RHS attr)` shapes among the
/// subsumption-minimal variable CFDs of `sigma` — the shapes a
/// [`GroupCensus`] tracks.
pub fn variable_shapes(sigma: &Sigma) -> Vec<(Vec<AttrId>, AttrId)> {
    let mut seen = Vec::new();
    for id in cfd_cfd::violation::minimal_variable_ids(sigma) {
        let n = sigma.get(id);
        let shape = (n.lhs().to_vec(), n.rhs_attr());
        if !seen.contains(&shape) {
            seen.push(shape);
        }
    }
    seen
}

/// One value bucket of a group: the live carriers of a single RHS value
/// plus their weight sum, maintained incrementally so group-majority
/// decisions are O(distinct values) instead of O(|group|).
#[derive(Default)]
pub(crate) struct ValueBucket {
    /// The carriers as one flat, ascending, duplicate-free id list, so
    /// carrier enumeration within a bucket is deterministic. The build
    /// visits ids in ascending order and simply pushes; `update` inserts
    /// and removes by binary search. Bucket order itself is `ValueId`
    /// (interning) order — the interning-history-sensitive decisions
    /// (merge winner, dirty-mark majority, partner choice) each re-anchor
    /// to value order or tuple id explicitly.
    pub(crate) ids: Vec<TupleId>,
    pub(crate) weight: f64,
}

/// Group key → RHS value → bucket, for one shape. FNV-hashed: no
/// per-process seed, and no reader lets the map's iteration order reach
/// a decision.
pub(crate) type GroupMap = FnvMap<IdKey, BTreeMap<ValueId, ValueBucket>>;

/// The census of one shape: every live tuple with a non-null RHS, pushed
/// in ascending id order. Reads exactly the shape's LHS/RHS/weight column
/// slices on columnar storage, row views otherwise.
fn build_shape(rel: &Relation, lhs: &[AttrId], rhs: AttrId) -> GroupMap {
    let mut map = GroupMap::default();
    if rel.schema().arity() == 0 || rel.column(AttrId(0)).is_some() {
        let lhs_cols: Vec<&[ValueId]> = lhs
            .iter()
            .map(|a| rel.column(*a).expect("columnar layout"))
            .collect();
        let rhs_col = rel.column(rhs).expect("columnar layout");
        let w_col = rel.weight_column(rhs).expect("columnar layout");
        for id in rel.ids() {
            let slot = id.index();
            let v = rhs_col[slot];
            if v.is_null() {
                continue;
            }
            let key: IdKey = lhs_cols.iter().map(|c| c[slot]).collect();
            let bucket = map.entry(key).or_default().entry(v).or_default();
            bucket.ids.push(id);
            bucket.weight += w_col[slot];
        }
        return map;
    }
    for (id, t) in rel.iter() {
        let v = t.id(rhs);
        if v.is_null() {
            continue;
        }
        let bucket = map
            .entry(t.project_key(lhs))
            .or_default()
            .entry(v)
            .or_default();
        bucket.ids.push(id);
        bucket.weight += t.weight(rhs);
    }
    map
}

/// Per-(variable-shape, group-key) census of non-null RHS values. Gives
/// the repair loop's `violates` an O(1) fast path — "this group holds at
/// most one distinct value, nothing to do" — where a scan would be
/// O(|group|). Low-cardinality FDs (CTY → VAT has five groups) make that
/// scan O(|D|) per stale dirty entry, turning the whole repair quadratic
/// without the census. The same buckets drive group-majority merge
/// pricing.
///
/// A group with no non-null carrier has no entry, whether it never had
/// one or `update` emptied it, so a census maintained through `update`
/// equals a fresh build of the updated relation.
pub struct GroupCensus {
    /// One census per distinct (lhs attrs, rhs attr) among variable CFDs:
    /// group key → RHS value → the live tuple ids currently carrying it.
    pub(crate) shapes: Vec<(Vec<AttrId>, AttrId, GroupMap)>,
}

impl GroupCensus {
    /// Build the census for `rel` over the given variable shapes.
    pub fn new(rel: &Relation, variable: &[(Vec<AttrId>, AttrId)]) -> Self {
        let shapes = variable
            .iter()
            .map(|(lhs, rhs)| (lhs.clone(), *rhs, build_shape(rel, lhs, *rhs)))
            .collect();
        GroupCensus { shapes }
    }

    /// [`GroupCensus::new`], ignoring `_par`: `perfbench` still calls it.
    #[doc(hidden)]
    pub fn build(rel: &Relation, variable: &[(Vec<AttrId>, AttrId)], _par: &Parallelism) -> Self {
        GroupCensus::new(rel, variable)
    }

    pub(crate) fn shape(&self, lhs: &[AttrId], rhs: AttrId) -> Option<&GroupMap> {
        self.shapes
            .iter()
            .find(|(l, r, _)| l == lhs && *r == rhs)
            .map(|(_, _, map)| map)
    }

    /// All value buckets of `t`'s group under the shape `(lhs, rhs)`.
    /// `None` when the shape or group is untracked (e.g. every carrier
    /// is null).
    pub(crate) fn value_buckets<V: TupleView + ?Sized>(
        &self,
        lhs: &[AttrId],
        rhs: AttrId,
        t: &V,
    ) -> Option<&BTreeMap<ValueId, ValueBucket>> {
        self.shape(lhs, rhs)
            .and_then(|map| map.get(&t.project_key(lhs)))
    }

    /// Record an in-place update of one tuple.
    pub(crate) fn update(
        &mut self,
        id: TupleId,
        before: &cfd_model::Tuple,
        after: &cfd_model::Tuple,
    ) {
        for (lhs, rhs, map) in &mut self.shapes {
            let key_changed = !before.agrees_on(after, lhs);
            let val_changed = before.id(*rhs) != after.id(*rhs);
            if !key_changed && !val_changed {
                continue;
            }
            let old_v = before.id(*rhs);
            if !old_v.is_null() {
                let key = before.project_key(lhs);
                if let Some(vals) = map.get_mut(&key) {
                    if let Some(bucket) = vals.get_mut(&old_v) {
                        if let Ok(at) = bucket.ids.binary_search(&id) {
                            bucket.ids.remove(at);
                            bucket.weight -= before.weight(*rhs);
                        }
                        if bucket.ids.is_empty() {
                            vals.remove(&old_v);
                        }
                    }
                    if vals.is_empty() {
                        map.remove(&key);
                    }
                }
            }
            let new_v = after.id(*rhs);
            if !new_v.is_null() {
                let bucket = map
                    .entry(after.project_key(lhs))
                    .or_default()
                    .entry(new_v)
                    .or_default();
                if let Err(at) = bucket.ids.binary_search(&id) {
                    bucket.ids.insert(at, id);
                    bucket.weight += after.weight(*rhs);
                }
            }
        }
    }

    /// Total carriers across all shapes and buckets — a cheap black-box
    /// result for benchmarks.
    pub fn carriers(&self) -> usize {
        self.shapes
            .iter()
            .map(|(_, _, map)| {
                map.values()
                    .map(|vals| vals.values().map(|b| b.ids.len()).sum::<usize>())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Order-independent content digest: shapes, group keys, bucket values
    /// and carriers, and the exact weight bits. Two censuses with equal
    /// checksums over the same relation are bit-identical for every
    /// decision the repair loop reads off them — the maintained-vs-fresh
    /// parity assertion in the tests.
    pub fn checksum(&self) -> u64 {
        let mut total: u64 = 0;
        for (si, (_, _, map)) in self.shapes.iter().enumerate() {
            for (key, vals) in map {
                let mut h = fnv1a(
                    0xcbf2_9ce4_8422_2325 ^ (si as u64),
                    key.as_slice().iter().map(|v| v.0),
                );
                for (v, bucket) in vals {
                    h = fnv1a(h, std::iter::once(v.0));
                    h = fnv1a(h, bucket.ids.iter().map(|id| id.0));
                    let w = bucket.weight.to_bits();
                    h = fnv1a(h, [w as u32, (w >> 32) as u32]);
                }
                // Commutative fold: HashMap iteration order cannot leak in.
                total = total.wrapping_add(h);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::{Schema, Tuple, Value};
    use cfd_prng::{ChaCha8Rng, Rng, SeedableRng};

    /// A random cell value: null one time in eight, else one of 16.
    fn random_value(rng: &mut ChaCha8Rng) -> Value {
        if rng.gen_range(0..8u32) == 0 {
            Value::Null
        } else {
            Value::str(format!("x{}", rng.gen_range(0..16u32)))
        }
    }

    /// A random relation whose weights are multiples of `1 / steps`.
    fn random_relation(rng: &mut ChaCha8Rng, rows: usize, steps: u32) -> Relation {
        let schema = Schema::new("s", &["a", "b", "c"]).unwrap();
        let mut rel = Relation::new(schema);
        for _ in 0..rows {
            let values = vec![random_value(rng), random_value(rng), random_value(rng)];
            let weights = (0..3)
                .map(|_| (rng.gen_range(0..=steps) as f64) / steps as f64)
                .collect();
            rel.insert(Tuple::with_weights(values, weights)).unwrap();
        }
        rel
    }

    #[test]
    fn census_updates_match_a_fresh_build() {
        // Every shape keys on an attribute another shape reads as its RHS,
        // so random cell writes move carriers between groups, between
        // buckets, and into and out of null. Weights are multiples of 1/8,
        // so every weight sum is exact in any order and a maintained
        // census can equal a fresh build bit for bit.
        let shapes = vec![
            (vec![AttrId(0)], AttrId(2)),
            (vec![AttrId(0), AttrId(1)], AttrId(2)),
            (vec![AttrId(2)], AttrId(0)),
        ];
        let (mut key_moves, mut rhs_moves, mut to_null, mut from_null) = (0, 0, 0, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(0xCE_2505);
        for _ in 0..20 {
            let mut rel = random_relation(&mut rng, 60, 8);
            let writes: Vec<(TupleId, AttrId, Value)> = (0..80)
                .map(|_| {
                    let id = TupleId(rng.gen_range(0..60u32));
                    (
                        id,
                        AttrId(rng.gen_range(0..3u32) as u16),
                        random_value(&mut rng),
                    )
                })
                .collect();
            let mut census = GroupCensus::new(&rel, &shapes);
            for (id, attr, v) in &writes {
                let before = rel.tuple(*id).unwrap().to_tuple();
                rel.set_value(*id, *attr, v.clone()).unwrap();
                let after = rel.tuple(*id).unwrap().to_tuple();
                census.update(*id, &before, &after);
                let (old, new) = (before.id(*attr), after.id(*attr));
                if old != new {
                    key_moves += usize::from(*attr != AttrId(2));
                    rhs_moves += usize::from(*attr == AttrId(2));
                    to_null += usize::from(new.is_null());
                    from_null += usize::from(old.is_null());
                }
            }
            let fresh = GroupCensus::new(&rel, &shapes);
            assert_eq!(census.checksum(), fresh.checksum());
            assert_eq!(census.carriers(), fresh.carriers());
        }
        assert!(key_moves > 0 && rhs_moves > 0 && to_null > 0 && from_null > 0);
    }

    #[test]
    fn checksum_detects_content_changes() {
        let shapes = vec![(vec![AttrId(0)], AttrId(2))];
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let rel = random_relation(&mut rng, 40, 10);
        let base = GroupCensus::new(&rel, &shapes);
        let mut other = rel.clone();
        // Find a live tuple with a non-null RHS and move it elsewhere.
        let victim = other
            .iter()
            .find(|(_, t)| !t.id(AttrId(2)).is_null())
            .map(|(id, _)| id)
            .expect("some non-null rhs");
        other
            .set_value(victim, AttrId(2), Value::str("moved-away"))
            .unwrap();
        let changed = GroupCensus::new(&other, &shapes);
        assert_ne!(base.checksum(), changed.checksum());
    }
}
