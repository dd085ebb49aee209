//! The group census `BATCHREPAIR` reads its variable-CFD decisions off:
//! per (variable shape, LHS group key), the live carriers of each
//! non-null RHS value and their weight sum ([`GroupCensus`]).
//!
//! There is one build routine: each shape is bucketed off a hash index on
//! its LHS. A repair's t=0 state buckets the detection index's groups;
//! [`GroupCensus::new`] builds the indexes it needs first. Index groups
//! list their ids in ascending order, so each bucket's carrier list comes
//! out sorted by pushing alone, and the floating-point weight sums are a
//! pure function of the relation.
//!
//! A built census is never written. Each repair run borrows it through a
//! `CensusOverlay`, which copies a group the first time the run
//! rewrites one of its cells. The base therefore stays exact for every
//! later run that shares it: no rollback, and no subtraction of f64
//! weights ever reaches it.
//!
//! The module keeps its `shard` path because `perfbench` imports
//! [`variable_shapes`] and [`GroupCensus`] from it.

use std::collections::BTreeMap;

use cfd_cfd::violation::GroupIndexes;
use cfd_cfd::Sigma;
use cfd_model::hash::FnvMap;
use cfd_model::index::HashIndex;
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
#[derive(Clone, Default)]
pub(crate) struct ValueBucket {
    /// The carriers as one flat, ascending, duplicate-free id list, so
    /// carrier enumeration within a bucket is deterministic. The build
    /// walks each index group in ascending id order and simply pushes;
    /// `update` inserts and removes by binary search. Bucket order itself
    /// is `ValueId` (interning) order — the interning-history-sensitive
    /// decisions (merge winner, dirty-mark majority, partner choice) each
    /// re-anchor to value order or tuple id explicitly.
    pub(crate) ids: Vec<TupleId>,
    pub(crate) weight: f64,
}

/// The value buckets of one group, ascending by RHS value id. A sorted
/// vector rather than a tree: most groups hold one or two values, and a
/// census holds a group per distinct LHS key.
#[derive(Clone, Default)]
pub(crate) struct Buckets(Vec<(ValueId, ValueBucket)>);

impl Buckets {
    /// Number of distinct values.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `(value, bucket)` pairs in ascending value-id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&ValueId, &ValueBucket)> {
        self.0.iter().map(|(v, b)| (v, b))
    }

    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = &ValueId> {
        self.0.iter().map(|(v, _)| v)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &ValueBucket> {
        self.0.iter().map(|(_, b)| b)
    }

    pub(crate) fn get_mut(&mut self, v: ValueId) -> Option<&mut ValueBucket> {
        let at = self.0.binary_search_by_key(&v, |(k, _)| *k).ok()?;
        Some(&mut self.0[at].1)
    }

    /// The bucket of `v`, inserted empty if missing.
    pub(crate) fn entry(&mut self, v: ValueId) -> &mut ValueBucket {
        let at = match self.0.binary_search_by_key(&v, |(k, _)| *k) {
            Ok(at) => at,
            Err(at) => {
                self.0.insert(at, (v, ValueBucket::default()));
                at
            }
        };
        &mut self.0[at].1
    }

    pub(crate) fn remove(&mut self, v: ValueId) {
        if let Ok(at) = self.0.binary_search_by_key(&v, |(k, _)| *k) {
            self.0.remove(at);
        }
    }
}

/// Group key → RHS value → bucket, for one shape. FNV-hashed: no
/// per-process seed, and no reader lets the map's iteration order reach
/// a decision.
pub(crate) type GroupMap = FnvMap<IdKey, Buckets>;

/// The census of one shape, bucketed off a hash index on its LHS: each
/// index group's carriers with a non-null RHS, split by RHS value. Index
/// groups list their ids in ascending order, so each bucket's carriers
/// come out sorted by pushing alone, and each weight sum adds the same
/// weights in the same order as a walk of the relation in id order.
/// Every group key is hashed once, not once per carrier.
fn bucket_shape(rel: &Relation, index: &HashIndex, rhs: AttrId) -> GroupMap {
    let rhs_col = rel.column(rhs);
    let w_col = rel.weight_column(rhs);
    let mut map = GroupMap::default();
    for (key, ids) in index.groups() {
        debug_assert!(ids.is_sorted(), "index groups list ids in ascending order");
        let mut buckets = Buckets::default();
        for &id in ids {
            let slot = id.index();
            let v = rhs_col[slot];
            if v.is_null() {
                continue;
            }
            let bucket = buckets.entry(v);
            bucket.ids.push(id);
            bucket.weight += w_col[slot];
        }
        if !buckets.is_empty() {
            map.insert(key.clone(), buckets);
        }
    }
    map
}

/// The content digest of one group of shape `si` (see
/// [`GroupCensus::checksum`]).
fn group_digest(si: usize, key: &IdKey, buckets: &Buckets) -> u64 {
    let mut h = fnv1a(
        0xcbf2_9ce4_8422_2325 ^ (si as u64),
        key.as_slice().iter().map(|v| v.0),
    );
    for (v, bucket) in buckets.iter() {
        h = fnv1a(h, std::iter::once(v.0));
        h = fnv1a(h, bucket.ids.iter().map(|id| id.0));
        let w = bucket.weight.to_bits();
        h = fnv1a(h, [w as u32, (w >> 32) as u32]);
    }
    h
}

/// Per-(variable-shape, group-key) census of non-null RHS values. Gives
/// the repair loop's `violates` an O(1) fast path — "this group holds at
/// most one distinct value, nothing to do" — where a scan would be
/// O(|group|). Low-cardinality FDs (CTY → VAT has five groups) make that
/// scan O(|D|) per stale dirty entry, turning the whole repair quadratic
/// without the census. The same buckets drive group-majority merge
/// pricing.
///
/// A census is built once per t=0 state and never written: a repair run
/// reads it through a `CensusOverlay` that holds the groups the run
/// changed. A group with no non-null carrier has no entry.
pub struct GroupCensus {
    /// One census per distinct (lhs attrs, rhs attr) among variable CFDs:
    /// group key → RHS value → the live tuple ids currently carrying it.
    pub(crate) shapes: Vec<(Vec<AttrId>, AttrId, GroupMap)>,
}

impl GroupCensus {
    /// Build the census for `rel` over the given variable shapes, from
    /// a hash index on each distinct LHS built here.
    pub fn new(rel: &Relation, variable: &[(Vec<AttrId>, AttrId)]) -> Self {
        let mut built: BTreeMap<&[AttrId], HashIndex> = BTreeMap::new();
        for (lhs, _) in variable {
            built
                .entry(lhs.as_slice())
                .or_insert_with(|| HashIndex::build(rel, lhs));
        }
        GroupCensus::bucketed(rel, variable, |lhs| &built[lhs])
    }

    /// Build the census for `rel` by bucketing the groups of `indexes`,
    /// which must hold a t=0 index (ascending groups) on every shape's
    /// LHS — the detection parts of a relation hold one per LHS of Σ.
    pub(crate) fn from_indexes(
        rel: &Relation,
        variable: &[(Vec<AttrId>, AttrId)],
        indexes: &GroupIndexes,
    ) -> Self {
        GroupCensus::bucketed(rel, variable, |lhs| indexes.for_lhs(lhs))
    }

    fn bucketed<'i>(
        rel: &Relation,
        variable: &[(Vec<AttrId>, AttrId)],
        index_of: impl Fn(&[AttrId]) -> &'i HashIndex,
    ) -> Self {
        let shapes = variable
            .iter()
            .map(|(lhs, rhs)| (lhs.clone(), *rhs, bucket_shape(rel, index_of(lhs), *rhs)))
            .collect();
        GroupCensus { shapes }
    }

    /// [`GroupCensus::new`], ignoring `_par`: `perfbench` still calls it.
    #[doc(hidden)]
    pub fn build(rel: &Relation, variable: &[(Vec<AttrId>, AttrId)], _par: &Parallelism) -> Self {
        GroupCensus::new(rel, variable)
    }

    fn shape_index(&self, lhs: &[AttrId], rhs: AttrId) -> Option<usize> {
        self.shapes
            .iter()
            .position(|(l, r, _)| l == lhs && *r == rhs)
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
    /// decision the repair loop reads off them — the overlay-vs-fresh
    /// parity assertion in the tests.
    pub fn checksum(&self) -> u64 {
        // Commutative fold: HashMap iteration order cannot leak in.
        let mut total: u64 = 0;
        for (si, (_, _, map)) in self.shapes.iter().enumerate() {
            for (key, buckets) in map {
                total = total.wrapping_add(group_digest(si, key, buckets));
            }
        }
        total
    }
}

/// One repair run's census: a [`GroupCensus`] it borrows and never
/// writes, plus the groups the run has changed. The first `update` of a
/// group copies it from the base; later updates and reads go to the
/// copy. A group the run empties stays in the overlay with no buckets,
/// which shadows the base group. So the view equals the census a
/// fresh build of the run's relation would give, bit for bit: each
/// weight sum sees the same additions and subtractions, from the same
/// starting bits, as an in-place update of the base would. The base is
/// shared by every run of a t=0 state and stays bit-identical however
/// many runs read it.
pub(crate) struct CensusOverlay<'c> {
    base: &'c GroupCensus,
    /// Per shape, the groups this run has touched, as they stand now.
    touched: Vec<GroupMap>,
}

impl<'c> CensusOverlay<'c> {
    /// A view of `base` with nothing changed yet.
    pub(crate) fn new(base: &'c GroupCensus) -> Self {
        CensusOverlay {
            base,
            touched: base.shapes.iter().map(|_| GroupMap::default()).collect(),
        }
    }

    /// The buckets of group `key` of shape `si`, overlay first; `None`
    /// when the group has no non-null carrier.
    fn group(&self, si: usize, key: &IdKey) -> Option<&Buckets> {
        match self.touched[si].get(key) {
            Some(buckets) if buckets.is_empty() => None,
            Some(buckets) => Some(buckets),
            None => self.base.shapes[si].2.get(key),
        }
    }

    /// Group `key` of shape `si` in the overlay, copied from the base
    /// (or started empty) on first touch.
    fn group_mut(&mut self, si: usize, key: IdKey) -> &mut Buckets {
        let base = &self.base.shapes[si].2;
        self.touched[si]
            .entry(key)
            .or_insert_with_key(|key| base.get(key).cloned().unwrap_or_default())
    }

    /// All value buckets of `t`'s group under the shape `(lhs, rhs)`.
    /// `None` when the shape or group is untracked (e.g. every carrier
    /// is null).
    pub(crate) fn value_buckets<V: TupleView + ?Sized>(
        &self,
        lhs: &[AttrId],
        rhs: AttrId,
        t: &V,
    ) -> Option<&Buckets> {
        let si = self.base.shape_index(lhs, rhs)?;
        self.group(si, &t.project_key(lhs))
    }

    /// Record an in-place update of one tuple.
    pub(crate) fn update(
        &mut self,
        id: TupleId,
        before: &cfd_model::Tuple,
        after: &cfd_model::Tuple,
    ) {
        let base = self.base;
        for (si, (lhs, rhs, _)) in base.shapes.iter().enumerate() {
            let rhs = *rhs;
            let key_changed = !before.agrees_on(after, lhs);
            let val_changed = before.id(rhs) != after.id(rhs);
            if !key_changed && !val_changed {
                continue;
            }
            let old_v = before.id(rhs);
            if !old_v.is_null() {
                let key = before.project_key(lhs);
                if self.group(si, &key).is_some() {
                    let buckets = self.group_mut(si, key);
                    if let Some(bucket) = buckets.get_mut(old_v) {
                        if let Ok(at) = bucket.ids.binary_search(&id) {
                            bucket.ids.remove(at);
                            bucket.weight -= before.weight(rhs);
                        }
                        if bucket.ids.is_empty() {
                            buckets.remove(old_v);
                        }
                    }
                }
            }
            let new_v = after.id(rhs);
            if !new_v.is_null() {
                let bucket = self.group_mut(si, after.project_key(lhs)).entry(new_v);
                if let Err(at) = bucket.ids.binary_search(&id) {
                    bucket.ids.insert(at, id);
                    bucket.weight += after.weight(rhs);
                }
            }
        }
    }

    /// [`GroupCensus::checksum`] of the census this view stands for.
    #[cfg(test)]
    pub(crate) fn checksum(&self) -> u64 {
        let mut total: u64 = 0;
        for (si, (_, _, base)) in self.base.shapes.iter().enumerate() {
            let touched = &self.touched[si];
            let groups = base
                .iter()
                .filter(|(key, _)| !touched.contains_key(*key))
                .chain(touched.iter().filter(|(_, buckets)| !buckets.is_empty()));
            for (key, buckets) in groups {
                total = total.wrapping_add(group_digest(si, key, buckets));
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::{Schema, Tuple, Value, ValuePool};
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
        let mut rel = Relation::new_in(schema, ValuePool::new_handle());
        for _ in 0..rows {
            let values = [random_value(rng), random_value(rng), random_value(rng)];
            let weights: Vec<f64> = (0..3)
                .map(|_| (rng.gen_range(0..=steps) as f64) / steps as f64)
                .collect();
            let id = rel.insert(Tuple::new_in(values, rel.pool())).unwrap();
            rel.set_weights(id, &weights).unwrap();
        }
        rel
    }

    /// The census as a walk of the relation in id order that hashes
    /// every carrier's key: the reference the bucketed build must equal.
    fn census_by_carrier(rel: &Relation, variable: &[(Vec<AttrId>, AttrId)]) -> GroupCensus {
        let shapes = variable
            .iter()
            .map(|(lhs, rhs)| {
                let mut map = GroupMap::default();
                for (id, t) in rel.iter() {
                    let v = t.id(*rhs);
                    if v.is_null() {
                        continue;
                    }
                    let bucket = map.entry(t.project_key(lhs)).or_default().entry(v);
                    bucket.ids.push(id);
                    bucket.weight += t.weight(*rhs);
                }
                (lhs.clone(), *rhs, map)
            })
            .collect();
        GroupCensus { shapes }
    }

    /// An in-place update of `census`, the way a census written by the
    /// repair loop was kept: the reference the overlay must equal.
    fn update_in_place(
        census: &mut GroupCensus,
        id: TupleId,
        before: &cfd_model::Tuple,
        after: &cfd_model::Tuple,
    ) {
        for (lhs, rhs, map) in &mut census.shapes {
            if before.agrees_on(after, lhs) && before.id(*rhs) == after.id(*rhs) {
                continue;
            }
            let old_v = before.id(*rhs);
            if !old_v.is_null() {
                let key = before.project_key(lhs);
                if let Some(vals) = map.get_mut(&key) {
                    if let Some(bucket) = vals.get_mut(old_v) {
                        if let Ok(at) = bucket.ids.binary_search(&id) {
                            bucket.ids.remove(at);
                            bucket.weight -= before.weight(*rhs);
                        }
                        if bucket.ids.is_empty() {
                            vals.remove(old_v);
                        }
                    }
                    if vals.is_empty() {
                        map.remove(&key);
                    }
                }
            }
            let new_v = after.id(*rhs);
            if !new_v.is_null() {
                let bucket = map.entry(after.project_key(lhs)).or_default().entry(new_v);
                if let Err(at) = bucket.ids.binary_search(&id) {
                    bucket.ids.insert(at, id);
                    bucket.weight += after.weight(*rhs);
                }
            }
        }
    }

    /// Every shape keys on an attribute another shape reads as its RHS,
    /// so random cell writes move carriers between groups, between
    /// buckets, and into and out of null.
    fn crossing_shapes() -> Vec<(Vec<AttrId>, AttrId)> {
        vec![
            (vec![AttrId(0)], AttrId(2)),
            (vec![AttrId(0), AttrId(1)], AttrId(2)),
            (vec![AttrId(2)], AttrId(0)),
        ]
    }

    #[test]
    fn bucketed_build_equals_a_per_carrier_walk() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB0C7);
        for _ in 0..10 {
            let rel = random_relation(&mut rng, 80, 1000);
            let reference = census_by_carrier(&rel, &crossing_shapes());
            let census = GroupCensus::new(&rel, &crossing_shapes());
            assert_eq!(census.checksum(), reference.checksum());
            assert_eq!(census.carriers(), reference.carriers());
        }
    }

    #[test]
    fn census_updates_match_a_fresh_build() {
        // Weights are multiples of 1/8, so every weight sum is exact in
        // any order and an updated view can equal a fresh build bit for
        // bit.
        let shapes = crossing_shapes();
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
            let base = GroupCensus::new(&rel, &shapes);
            let mut census = CensusOverlay::new(&base);
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
        }
        assert!(key_moves > 0 && rhs_moves > 0 && to_null > 0 && from_null > 0);
    }

    /// A §7.1 generator relation at ρ = 5%: full-precision weights, Σ's
    /// own variable shapes.
    fn generated(seed: u64) -> (Relation, Vec<(Vec<AttrId>, AttrId)>) {
        let w = cfd_gen::generate(&cfd_gen::GenConfig::sized(400, seed));
        let noise = cfd_gen::inject(
            &w.dopt,
            &w.world,
            &cfd_gen::NoiseConfig {
                rate: 0.05,
                seed,
                ..Default::default()
            },
        );
        (noise.dirty, variable_shapes(&w.sigma))
    }

    #[test]
    fn overlay_matches_in_place_updates_at_full_precision() {
        // Random writes of values drawn from each attribute's own column
        // (or null), so carriers move between real groups and buckets.
        // The generator's weights are not exact binary fractions: a
        // weight sum depends on the order of its additions and
        // subtractions, so only the same operation sequence on the same
        // starting bits can match.
        let mut inexact = 0;
        for seed in [1, 7, 13] {
            let (mut rel, shapes) = generated(seed);
            let ids: Vec<TupleId> = rel.ids().collect();
            let arity = rel.schema().arity();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let base = GroupCensus::new(&rel, &shapes);
            let base_sum = base.checksum();
            inexact += base
                .shapes
                .iter()
                .flat_map(|(_, _, map)| map.values().flat_map(|b| b.values()))
                .filter(|b| (b.weight * 8.0).fract() != 0.0)
                .count();
            let mut in_place = GroupCensus::new(&rel, &shapes);
            let mut overlay = CensusOverlay::new(&base);
            for step in 0..600 {
                let id = ids[rng.gen_range(0..ids.len() as u32) as usize];
                let attr = AttrId(rng.gen_range(0..arity as u32) as u16);
                let v = if rng.gen_range(0..10u32) == 0 {
                    cfd_model::NULL_ID
                } else {
                    let from = ids[rng.gen_range(0..ids.len() as u32) as usize];
                    rel.value_id(from, attr).unwrap()
                };
                let before = rel.tuple(id).unwrap().to_tuple();
                rel.set_value_id(id, attr, v).unwrap();
                let after = rel.tuple(id).unwrap().to_tuple();
                overlay.update(id, &before, &after);
                update_in_place(&mut in_place, id, &before, &after);
                if step % 50 == 0 {
                    assert_eq!(
                        overlay.checksum(),
                        in_place.checksum(),
                        "seed {seed} step {step}"
                    );
                }
                for (si, (lhs, rhs)) in shapes.iter().enumerate() {
                    let want = in_place.shapes[si].2.get(&after.project_key(lhs));
                    let got = overlay.value_buckets(lhs, *rhs, &after);
                    assert_eq!(
                        got.map(|b| b.keys().collect::<Vec<_>>()),
                        want.map(|b| b.keys().collect::<Vec<_>>()),
                        "seed {seed} step {step}"
                    );
                }
            }
            assert_eq!(overlay.checksum(), in_place.checksum(), "seed {seed}");
            assert_eq!(
                base.checksum(),
                base_sum,
                "seed {seed}: the base was written"
            );
        }
        assert!(inexact > 0, "the weights include inexact sums");
    }

    #[test]
    fn an_emptied_group_shadows_the_base() {
        let schema = Schema::new("s", &["k", "v"]).unwrap();
        let mut rel = Relation::new_in(schema, ValuePool::new_handle());
        for (k, v) in [("g", "x"), ("g", "y"), ("h", "x")] {
            rel.insert(Tuple::new_in([k, v], rel.pool())).unwrap();
        }
        let shapes = vec![(vec![AttrId(0)], AttrId(1))];
        let base = GroupCensus::new(&rel, &shapes);
        let base_sum = base.checksum();
        let mut overlay = CensusOverlay::new(&base);
        let g = rel.tuple(TupleId(0)).unwrap().to_tuple();
        assert_eq!(
            overlay
                .value_buckets(&[AttrId(0)], AttrId(1), &g)
                .map(|b| b.len()),
            Some(2)
        );
        // Null every carrier of group `g`: the view loses the group, the
        // base keeps it.
        for id in [TupleId(0), TupleId(1)] {
            let before = rel.tuple(id).unwrap().to_tuple();
            rel.set_value(id, AttrId(1), Value::Null).unwrap();
            let after = rel.tuple(id).unwrap().to_tuple();
            overlay.update(id, &before, &after);
        }
        assert!(overlay.value_buckets(&[AttrId(0)], AttrId(1), &g).is_none());
        assert!(base.shapes[0].2.contains_key(&g.project_key(&[AttrId(0)])));
        assert_eq!(
            overlay.checksum(),
            GroupCensus::new(&rel, &shapes).checksum()
        );
        assert_eq!(base.checksum(), base_sum);
        // A carrier moving back in starts the group afresh in the view.
        let before = rel.tuple(TupleId(1)).unwrap().to_tuple();
        rel.set_value(TupleId(1), AttrId(1), Value::str("z"))
            .unwrap();
        let after = rel.tuple(TupleId(1)).unwrap().to_tuple();
        overlay.update(TupleId(1), &before, &after);
        let buckets = overlay.value_buckets(&[AttrId(0)], AttrId(1), &g).unwrap();
        assert_eq!(
            buckets.values().map(|b| b.ids.clone()).collect::<Vec<_>>(),
            vec![vec![TupleId(1)]]
        );
        assert_eq!(
            overlay.checksum(),
            GroupCensus::new(&rel, &shapes).checksum()
        );
        assert_eq!(base.checksum(), base_sum);
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
