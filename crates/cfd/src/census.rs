//! The variable-CFD group census: per (variable shape `X → A`, LHS group
//! key `t[X]`), the live carriers of each non-null `A` value and their
//! weight sum ([`GroupCensus`]).
//!
//! Every variable-CFD decision of the paper reads this one object.
//! Detection counts `vio(t)` from it (§3.1): in a group that matches the
//! pattern, a member's partners are the group's non-null total minus its
//! own bucket. `BATCHREPAIR` prices merges and marks dirty tuples from its
//! buckets and weight sums (§4.1), and `INCREPAIR` validates candidates
//! against it and prices their `vio` as LHS-indices do (§5.2).
//!
//! The census of a set of detection parts is bucketed off their hash
//! index on each shape's LHS ([`crate::EngineParts::census`]);
//! [`GroupCensus::new`] builds the indexes it needs first. Index groups
//! list their ids in ascending order, so each bucket's carrier list comes
//! out sorted by pushing alone, and the floating-point weight sums are a
//! pure function of the relation.
//!
//! A shared census is never written. A reader that changes cells (a
//! repair run, an insert request, a stream window) works through a
//! [`CensusOverlay`], which copies a group the first time a write reaches
//! it. The base therefore stays exact for every later reader that shares
//! it: no rollback, and no subtraction of f64 weights ever reaches it. A
//! stream, the one reader that owns its census alone, folds its overlay
//! into it when a window closes ([`CensusOverlay::fold`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use cfd_model::hash::FnvMap;
use cfd_model::index::HashIndex;
use cfd_model::{AttrId, IdKey, Relation, TupleId, TupleView, ValueId};

use crate::cfd::{NormalCfd, Sigma};
use crate::violation::minimal_variable_ids;

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
    for id in minimal_variable_ids(sigma) {
        let n = sigma.get(id);
        let shape = (n.lhs().to_vec(), n.rhs_attr());
        if !seen.contains(&shape) {
            seen.push(shape);
        }
    }
    seen
}

/// One value bucket of a group: the live carriers of a single RHS value
/// plus their weight sum, so group-majority decisions are O(distinct
/// values) instead of O(|group|).
#[derive(Clone, Debug, Default)]
pub struct ValueBucket {
    /// The carriers as one flat, ascending, duplicate-free id list, so
    /// carrier enumeration within a bucket is deterministic. Bucket order
    /// itself is `ValueId` (interning) order — the
    /// interning-history-sensitive decisions (merge winner, dirty-mark
    /// majority, partner choice) each re-anchor to value order or tuple
    /// id explicitly.
    pub ids: Vec<TupleId>,
    /// The carriers' weight sum on the shape's RHS attribute.
    pub weight: f64,
}

/// One `(value, bucket)` entry of a group.
type Entry = (ValueId, ValueBucket);

/// The value buckets of one group, ascending by RHS value id. A group
/// with one value — almost every group of a clean relation — holds its
/// bucket inline, so a probe reads it without a second pointer chase;
/// a second value spills every bucket to a sorted vector.
#[derive(Clone, Debug, Default)]
pub struct Buckets(Repr);

#[derive(Clone, Debug)]
enum Repr {
    /// Exactly one value.
    One(Entry),
    /// Any number of values, ascending.
    Many(Vec<Entry>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Many(Vec::new())
    }
}

impl Buckets {
    fn as_slice(&self) -> &[Entry] {
        match &self.0 {
            Repr::One(entry) => std::slice::from_ref(entry),
            Repr::Many(entries) => entries,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Entry] {
        match &mut self.0 {
            Repr::One(entry) => std::slice::from_mut(entry),
            Repr::Many(entries) => entries,
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the group has no non-null carrier.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// `(value, bucket)` pairs in ascending value-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&ValueId, &ValueBucket)> {
        self.as_slice().iter().map(|(v, b)| (v, b))
    }

    /// The buckets in ascending value-id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &ValueBucket> {
        self.as_slice().iter().map(|(_, b)| b)
    }

    /// Carriers with a non-null RHS, across every bucket.
    pub(crate) fn nonnull(&self) -> usize {
        self.values().map(|b| b.ids.len()).sum()
    }

    /// Carriers of every value but `v`.
    fn others(&self, v: ValueId) -> usize {
        match &self.0 {
            Repr::One((only, b)) => {
                if *only == v {
                    0
                } else {
                    b.ids.len()
                }
            }
            Repr::Many(entries) => entries
                .iter()
                .filter(|(w, _)| *w != v)
                .map(|(_, b)| b.ids.len())
                .sum(),
        }
    }

    /// The value of the group's earliest (least-id) carrier: its only
    /// value when the group is consistent.
    fn pin(&self) -> Option<ValueId> {
        match &self.0 {
            Repr::One((v, _)) => Some(*v),
            Repr::Many(entries) => entries
                .iter()
                .min_by_key(|(_, b)| b.ids.first())
                .map(|(v, _)| *v),
        }
    }

    fn get_mut(&mut self, v: ValueId) -> Option<&mut ValueBucket> {
        let entries = self.as_mut_slice();
        let at = entries.binary_search_by_key(&v, |(k, _)| *k).ok()?;
        Some(&mut entries[at].1)
    }

    /// The bucket of `v`, inserted empty if missing.
    fn entry(&mut self, v: ValueId) -> &mut ValueBucket {
        let at = match self.as_slice().binary_search_by_key(&v, |(k, _)| *k) {
            Ok(at) => at,
            Err(at) => {
                let fresh = (v, ValueBucket::default());
                self.0 = match std::mem::take(&mut self.0) {
                    Repr::Many(entries) if entries.is_empty() => Repr::One(fresh),
                    Repr::Many(mut entries) => {
                        entries.insert(at, fresh);
                        Repr::Many(entries)
                    }
                    Repr::One(entry) => {
                        let mut entries = vec![entry];
                        entries.insert(at, fresh);
                        Repr::Many(entries)
                    }
                };
                at
            }
        };
        &mut self.as_mut_slice()[at].1
    }

    fn remove(&mut self, v: ValueId) {
        match &mut self.0 {
            Repr::One((only, _)) if *only == v => self.0 = Repr::default(),
            Repr::One(_) => {}
            Repr::Many(entries) => {
                if let Ok(at) = entries.binary_search_by_key(&v, |(k, _)| *k) {
                    entries.remove(at);
                }
            }
        }
    }
}

/// Group key → RHS value → bucket, for one shape. FNV-hashed: no
/// per-process seed, and no reader lets the map's iteration order reach
/// a decision.
type GroupMap = FnvMap<IdKey, Buckets>;

/// One tracked shape: its LHS, its RHS and its groups.
type Shape = (Vec<AttrId>, AttrId, GroupMap);

/// The census of one shape, bucketed off a hash index on its LHS: each
/// index group's carriers with a non-null RHS, split by RHS value. Each
/// weight sum adds the same weights in the same order as a walk of the
/// relation in id order. Every group key is hashed once, not once per
/// carrier.
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

/// A hash index on each distinct LHS among `shapes`.
fn lhs_indexes<'s>(
    rel: &Relation,
    shapes: &'s [(Vec<AttrId>, AttrId)],
) -> BTreeMap<&'s [AttrId], HashIndex> {
    let mut built = BTreeMap::new();
    for (lhs, _) in shapes {
        built
            .entry(lhs.as_slice())
            .or_insert_with(|| HashIndex::build(rel, lhs));
    }
    built
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

/// `shape_of` entry of a constant CFD.
const NO_SHAPE: u32 = u32::MAX;

/// Per-(variable-shape, group-key) census of non-null RHS values. A group
/// with no non-null carrier has no entry.
///
/// Low-cardinality FDs (CTY → VAT has five groups) make any per-member
/// scan O(|D|); the census answers "does this group hold more than one
/// value", "who carries each value" and "what does each value weigh" in
/// O(distinct values).
#[derive(Clone)]
pub struct GroupCensus {
    /// One entry per distinct (lhs attrs, rhs attr) among the minimal
    /// variable CFDs ([`variable_shapes`]).
    pub(crate) shapes: Vec<Shape>,
    /// The position in `shapes` of each normal CFD, by
    /// [`crate::CfdId`]; `NO_SHAPE` for constant CFDs. Every variable CFD
    /// shares its shape with a minimal one, so each resolves.
    shape_of: Vec<u32>,
}

impl GroupCensus {
    /// The census of `rel` over the variable shapes of `sigma`, from a
    /// hash index on each distinct LHS built here.
    pub fn new(rel: &Relation, sigma: &Sigma) -> Self {
        let shapes = variable_shapes(sigma);
        let built = lhs_indexes(rel, &shapes);
        GroupCensus::bucketed(rel, sigma, |lhs| &built[lhs])
    }

    /// The census of `rel` over the variable shapes of `sigma`, bucketing
    /// the groups of `index_of(lhs)`: a t=0 index (ascending groups) on
    /// each shape's LHS.
    pub(crate) fn bucketed<'i>(
        rel: &Relation,
        sigma: &Sigma,
        index_of: impl Fn(&[AttrId]) -> &'i HashIndex,
    ) -> Self {
        let shapes: Vec<Shape> = variable_shapes(sigma)
            .into_iter()
            .map(|(lhs, rhs)| {
                let map = bucket_shape(rel, index_of(&lhs), rhs);
                (lhs, rhs, map)
            })
            .collect();
        let shape_of = sigma
            .iter()
            .map(|n| {
                let found = (!n.is_constant())
                    .then(|| {
                        shapes
                            .iter()
                            .position(|(l, r, _)| l == n.lhs() && *r == n.rhs_attr())
                    })
                    .flatten();
                found.map_or(NO_SHAPE, |si| si as u32)
            })
            .collect();
        GroupCensus { shapes, shape_of }
    }

    /// A census over raw shapes that resolves no CFD, ignoring `_par`:
    /// `perfbench` still calls it to count carriers.
    #[doc(hidden)]
    pub fn build<P>(rel: &Relation, variable: &[(Vec<AttrId>, AttrId)], _par: &P) -> Self {
        let built = lhs_indexes(rel, variable);
        let shapes = variable
            .iter()
            .map(|(lhs, rhs)| (lhs.clone(), *rhs, bucket_shape(rel, &built[&lhs[..]], *rhs)))
            .collect();
        GroupCensus {
            shapes,
            shape_of: Vec::new(),
        }
    }

    /// The shape of the variable CFD `n`, if the census tracks it.
    fn shape(&self, n: &NormalCfd) -> Option<usize> {
        match self.shape_of.get(n.id().index()) {
            Some(&si) if si != NO_SHAPE => Some(si as usize),
            _ => None,
        }
    }

    /// Every group of the variable CFD `n`'s shape, matching its pattern
    /// or not; empty for a CFD the census does not track.
    pub(crate) fn groups_of(&self, n: &NormalCfd) -> impl Iterator<Item = (&IdKey, &Buckets)> {
        self.shape(n)
            .into_iter()
            .flat_map(|si| self.shapes[si].2.iter())
    }

    /// Total carriers across all shapes and buckets — a cheap black-box
    /// result for benchmarks.
    pub fn carriers(&self) -> usize {
        self.shapes
            .iter()
            .map(|(_, _, map)| map.values().map(Buckets::nonnull).sum::<usize>())
            .sum()
    }

    /// Order-independent content digest: shapes, group keys, bucket values
    /// and carriers, and the exact weight bits. Two censuses with equal
    /// checksums over the same relation are bit-identical for every
    /// decision a reader takes off them.
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

/// A census that changes: a shared [`GroupCensus`] it never writes, plus
/// the groups written since. The first write to a group copies it from
/// the base; later writes and reads go to the copy. A group emptied here
/// stays with no buckets, which shadows the base group. So the view
/// equals the census a fresh build of the reader's relation would give,
/// bit for bit, whenever each weight sum sees the same additions and
/// subtractions as a fresh walk would; counts and values always agree.
/// The base stays bit-identical however many overlays read it.
pub struct CensusOverlay {
    base: Arc<GroupCensus>,
    /// Per shape, the groups written since the base, as they stand now.
    touched: Vec<GroupMap>,
    /// Per shape, a bit per [`mark_of`] class of the touched keys: a
    /// probe whose bit is clear reads the base without hashing its key
    /// into `touched`.
    marks: Vec<[u64; MARK_WORDS]>,
    /// The carriers [`stage`](Self::stage) counted, oldest first: shape,
    /// group, value, carrier, and the bucket's weight sum before.
    staged: Vec<(usize, IdKey, ValueId, TupleId, f64)>,
}

/// Words of an overlay's touched-key filter per shape.
const MARK_WORDS: usize = 16;

/// The filter bit of `key`: a multiplicative mix of its ids.
fn mark_of(key: &IdKey) -> usize {
    let mix = key
        .as_slice()
        .iter()
        .fold(0u32, |h, v| (h ^ v.0).wrapping_mul(0x9E37_79B1));
    (mix >> 22) as usize % (MARK_WORDS * 64)
}

impl CensusOverlay {
    /// A view of `base` with nothing changed yet.
    pub fn new(base: Arc<GroupCensus>) -> Self {
        let touched = base.shapes.iter().map(|_| GroupMap::default()).collect();
        let marks = vec![[0; MARK_WORDS]; base.shapes.len()];
        CensusOverlay {
            base,
            touched,
            marks,
            staged: Vec::new(),
        }
    }

    /// The buckets of group `key` of shape `si`, overlay first; `None`
    /// when the group has no non-null carrier.
    fn group_at(&self, si: usize, key: &IdKey) -> Option<&Buckets> {
        let bit = mark_of(key);
        if self.marks[si][bit / 64] >> (bit % 64) & 1 == 0 {
            return self.base.shapes[si].2.get(key);
        }
        match self.touched[si].get(key) {
            Some(buckets) if buckets.is_empty() => None,
            Some(buckets) => Some(buckets),
            None => self.base.shapes[si].2.get(key),
        }
    }

    /// Group `key` of shape `si` in the overlay, copied from the base
    /// (or started empty) on first touch.
    fn group_mut(&mut self, si: usize, key: IdKey) -> &mut Buckets {
        let bit = mark_of(&key);
        self.marks[si][bit / 64] |= 1 << (bit % 64);
        let base = &self.base.shapes[si].2;
        self.touched[si]
            .entry(key)
            .or_insert_with_key(|key| base.get(key).cloned().unwrap_or_default())
    }

    /// All value buckets of `t`'s group under the variable CFD `n`'s
    /// shape, pattern match or not. `None` when `n` is constant or the
    /// group has no non-null carrier.
    pub fn group<V: TupleView + ?Sized>(&self, n: &NormalCfd, t: &V) -> Option<&Buckets> {
        let si = self.base.shape(n)?;
        self.group_at(si, &t.project_key(&self.base.shapes[si].0))
    }

    /// Drop carrier `id`, whose cells are `t`, from its group of shape
    /// `si`.
    fn take<V: TupleView + ?Sized>(&mut self, si: usize, id: TupleId, t: &V) {
        let (lhs, rhs) = (&self.base.shapes[si].0, self.base.shapes[si].1);
        let v = t.id(rhs);
        if v.is_null() {
            return;
        }
        let key = t.project_key(lhs);
        if self.group_at(si, &key).is_none() {
            return;
        }
        let buckets = self.group_mut(si, key);
        if let Some(bucket) = buckets.get_mut(v) {
            if let Ok(at) = bucket.ids.binary_search(&id) {
                bucket.ids.remove(at);
                bucket.weight -= t.weight(rhs);
            }
            if bucket.ids.is_empty() {
                buckets.remove(v);
            }
        }
    }

    /// Add carrier `id`, whose cells are `t`, to its group of shape `si`.
    /// Returns where it went and the bucket's weight sum before, when it
    /// was not counted yet.
    fn put<V: TupleView + ?Sized>(
        &mut self,
        si: usize,
        id: TupleId,
        t: &V,
    ) -> Option<(IdKey, ValueId, f64)> {
        let (lhs, rhs) = (&self.base.shapes[si].0, self.base.shapes[si].1);
        let v = t.id(rhs);
        if v.is_null() {
            return None;
        }
        let key = t.project_key(lhs);
        let bucket = self.group_mut(si, key.clone()).entry(v);
        let at = bucket.ids.binary_search(&id).err()?;
        let before = bucket.weight;
        bucket.ids.insert(at, id);
        bucket.weight += t.weight(rhs);
        Some((key, v, before))
    }

    /// Count tuple `id`, whose cells are `t`, in every shape.
    pub fn insert<V: TupleView + ?Sized>(&mut self, id: TupleId, t: &V) {
        for si in 0..self.touched.len() {
            self.put(si, id, t);
        }
    }

    /// [`insert`](Self::insert) until the next [`unstage`](Self::unstage).
    pub fn stage<V: TupleView + ?Sized>(&mut self, id: TupleId, t: &V) {
        for si in 0..self.touched.len() {
            if let Some((key, v, before)) = self.put(si, id, t) {
                self.staged.push((si, key, v, id, before));
            }
        }
    }

    /// Stop counting every staged tuple, newest first. Each weight sum a
    /// staged carrier changed gets its saved bits back rather than a
    /// subtraction, so the view is exactly what it was before staging;
    /// the groups staging copied stay copied for the writes that follow.
    pub fn unstage(&mut self) {
        while let Some((si, key, v, id, before)) = self.staged.pop() {
            let buckets = self.group_mut(si, key);
            if let Some(bucket) = buckets.get_mut(v) {
                if let Ok(at) = bucket.ids.binary_search(&id) {
                    bucket.ids.remove(at);
                }
                bucket.weight = before;
                if bucket.ids.is_empty() {
                    buckets.remove(v);
                }
            }
        }
    }

    /// Stop counting tuple `id`, whose cells are `t`, in every shape.
    pub fn remove<V: TupleView + ?Sized>(&mut self, id: TupleId, t: &V) {
        for si in 0..self.touched.len() {
            self.take(si, id, t);
        }
    }

    /// Record an in-place update of tuple `id` from `before` to `after`.
    pub fn update<V: TupleView + ?Sized, W: TupleView + ?Sized>(
        &mut self,
        id: TupleId,
        before: &V,
        after: &W,
    ) {
        for si in 0..self.touched.len() {
            let (lhs, rhs) = (&self.base.shapes[si].0, self.base.shapes[si].1);
            let key_changed = lhs.iter().any(|a| before.id(*a) != after.id(*a));
            if key_changed || before.id(rhs) != after.id(rhs) {
                self.take(si, id, before);
                self.put(si, id, after);
            }
        }
    }

    /// The value `t`'s group pins under the variable CFD `n`: the group's
    /// only bucket. `None` when `n` is constant or does not apply to `t`,
    /// or the group has no non-null carrier. `INCREPAIR` reads pins over
    /// a clean portion, where a group a CFD applies to holds at most one
    /// value; FINDV reaches for that value first.
    pub fn pinned_id<V: TupleView + ?Sized>(&self, n: &NormalCfd, t: &V) -> Option<ValueId> {
        if n.is_constant() || !n.applies_to(t) {
            return None;
        }
        let buckets = self.group(n, t)?;
        debug_assert!(buckets.len() <= 1, "a pin read met a conflicting group");
        buckets.pin()
    }

    /// Does the candidate tuple `t` satisfy the normal CFD `n` against the
    /// counted tuples? Checks the pattern (constant CFDs) or the group's
    /// value (variable CFDs) — over a group that already conflicts, the
    /// value of its earliest carrier. §3.1's null semantics apply: a null
    /// among `t[X]` means the CFD is inapplicable; a null RHS satisfies.
    pub fn satisfies<V: TupleView + ?Sized>(&self, n: &NormalCfd, t: &V) -> bool {
        if !n.applies_to(t) {
            return true;
        }
        let v = t.id(n.rhs_attr());
        if n.is_constant() {
            return n.rhs_pattern_id().satisfied_by_id(v);
        }
        v.is_null()
            || self
                .group(n, t)
                .and_then(Buckets::pin)
                .is_none_or(|pin| v == pin)
    }

    /// The variable violations of `t` under `n` against the counted
    /// tuples: the members of `t`'s group whose RHS is non-null and
    /// differs from `t[A]` — the group's non-null total minus the
    /// carriers of `t[A]`. Zero when `n` is constant, when it does not
    /// apply to `t`, or when `t[A]` is null. A counted `t` carries its
    /// own value, so it never counts itself.
    pub fn conflicts<V: TupleView + ?Sized>(&self, n: &NormalCfd, t: &V) -> usize {
        if n.is_constant() || !n.applies_to(t) {
            return 0;
        }
        let v = t.id(n.rhs_attr());
        if v.is_null() {
            return 0;
        }
        self.group(n, t).map_or(0, |buckets| buckets.others(v))
    }

    /// Write the changed groups into the base, which this overlay then
    /// owns alone (a shared base is copied first), and start over with
    /// nothing changed.
    pub fn fold(&mut self) {
        debug_assert!(self.staged.is_empty(), "fold while tuples are staged");
        let touched = std::mem::take(&mut self.touched);
        let base = Arc::make_mut(&mut self.base);
        for (si, groups) in touched.into_iter().enumerate() {
            let map = &mut base.shapes[si].2;
            for (key, buckets) in groups {
                if buckets.is_empty() {
                    map.remove(&key);
                } else {
                    map.insert(key, buckets);
                }
            }
        }
        self.touched = base.shapes.iter().map(|_| GroupMap::default()).collect();
        self.marks = vec![[0; MARK_WORDS]; base.shapes.len()];
    }

    /// [`GroupCensus::checksum`] of the census this view stands for.
    pub fn checksum(&self) -> u64 {
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
    use crate::cfd::{Cfd, CfdId};
    use crate::pattern::{PatternRow, PatternValue};
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

    /// FDs whose shapes each key on an attribute another shape reads as
    /// its RHS, so random cell writes move carriers between groups,
    /// between buckets, and into and out of null.
    fn crossing_sigma(rel: &Relation) -> Sigma {
        let fd = |name, lhs: &[u16], rhs| {
            Cfd::standard_fd(
                name,
                lhs.iter().map(|a| AttrId(*a)).collect(),
                vec![AttrId(rhs)],
            )
        };
        let cfds = vec![fd("ac", &[0], 2), fd("abc", &[0, 1], 2), fd("ca", &[2], 0)];
        Sigma::normalize_in(rel.schema().clone(), cfds, rel.pool()).unwrap()
    }

    /// The census as a walk of the relation in id order that hashes
    /// every carrier's key: the reference the bucketed build must equal.
    fn census_by_carrier(rel: &Relation, sigma: &Sigma) -> GroupCensus {
        let shapes = variable_shapes(sigma)
            .into_iter()
            .map(|(lhs, rhs)| {
                let mut map = GroupMap::default();
                for (id, t) in rel.iter() {
                    let v = t.id(rhs);
                    if v.is_null() {
                        continue;
                    }
                    let bucket = map.entry(t.project_key(&lhs)).or_default().entry(v);
                    bucket.ids.push(id);
                    bucket.weight += t.weight(rhs);
                }
                (lhs, rhs, map)
            })
            .collect();
        GroupCensus {
            shapes,
            shape_of: Vec::new(),
        }
    }

    /// An in-place update of `census`: the reference the overlay must
    /// equal at full precision.
    fn update_in_place(census: &mut GroupCensus, id: TupleId, before: &Tuple, after: &Tuple) {
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

    #[test]
    fn bucketed_build_equals_a_per_carrier_walk() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB0C7);
        for _ in 0..10 {
            let rel = random_relation(&mut rng, 80, 1000);
            let sigma = crossing_sigma(&rel);
            let reference = census_by_carrier(&rel, &sigma);
            let census = GroupCensus::new(&rel, &sigma);
            assert_eq!(census.checksum(), reference.checksum());
            assert_eq!(census.carriers(), reference.carriers());
        }
    }

    #[test]
    fn census_updates_match_a_fresh_build() {
        // Weights are multiples of 1/8, so every weight sum is exact in
        // any order and an updated view can equal a fresh build bit for
        // bit.
        let (mut key_moves, mut rhs_moves, mut to_null, mut from_null) = (0, 0, 0, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(0xCE_2505);
        for _ in 0..20 {
            let mut rel = random_relation(&mut rng, 60, 8);
            let sigma = crossing_sigma(&rel);
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
            let mut census = CensusOverlay::new(Arc::new(GroupCensus::new(&rel, &sigma)));
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
            let fresh = GroupCensus::new(&rel, &sigma);
            assert_eq!(census.checksum(), fresh.checksum());
        }
        assert!(key_moves > 0 && rhs_moves > 0 && to_null > 0 && from_null > 0);
    }

    #[test]
    fn overlay_matches_in_place_updates_at_full_precision() {
        // Random writes of values drawn from each attribute's own column
        // (or null), so carriers move between real groups and buckets.
        // Weights in thousandths are not exact binary fractions: a weight
        // sum depends on the order of its additions and subtractions, so
        // only the same operation sequence on the same starting bits can
        // match.
        let mut inexact = 0;
        for seed in [1, 7, 13] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut rel = random_relation(&mut rng, 200, 1000);
            let sigma = crossing_sigma(&rel);
            let ids: Vec<TupleId> = rel.ids().collect();
            let base = Arc::new(GroupCensus::new(&rel, &sigma));
            let base_sum = base.checksum();
            inexact += base
                .shapes
                .iter()
                .flat_map(|(_, _, map)| map.values().flat_map(|b| b.values()))
                .filter(|b| (b.weight * 8.0).fract() != 0.0)
                .count();
            let mut in_place = GroupCensus::new(&rel, &sigma);
            let mut overlay = CensusOverlay::new(Arc::clone(&base));
            for step in 0..600 {
                let id = ids[rng.gen_range(0..ids.len() as u32) as usize];
                let attr = AttrId(rng.gen_range(0..3u32) as u16);
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
                for n in sigma.iter() {
                    let si = in_place.shape(n).unwrap();
                    let want = in_place.shapes[si].2.get(&after.project_key(n.lhs()));
                    let got = overlay.group(n, &after);
                    let values = |b: &Buckets| b.iter().map(|(v, _)| *v).collect::<Vec<_>>();
                    assert_eq!(got.map(values), want.map(values), "seed {seed} step {step}");
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

    /// A relation over `(k, v)` with the FD `k → v`.
    fn kv(rows: &[[&str; 2]]) -> (Relation, Sigma) {
        let schema = Schema::new("s", &["k", "v"]).unwrap();
        let mut rel = Relation::new_in(schema.clone(), ValuePool::new_handle());
        for row in rows {
            rel.insert(Tuple::new_in(*row, rel.pool())).unwrap();
        }
        let fd = Cfd::standard_fd("kv", vec![AttrId(0)], vec![AttrId(1)]);
        let sigma = Sigma::normalize_in(schema, vec![fd], rel.pool()).unwrap();
        (rel, sigma)
    }

    #[test]
    fn an_emptied_group_shadows_the_base() {
        let (mut rel, sigma) = kv(&[["g", "x"], ["g", "y"], ["h", "x"]]);
        let n = sigma.get(CfdId(0));
        let base = Arc::new(GroupCensus::new(&rel, &sigma));
        let base_sum = base.checksum();
        let mut overlay = CensusOverlay::new(Arc::clone(&base));
        let g = rel.tuple(TupleId(0)).unwrap().to_tuple();
        assert_eq!(overlay.group(n, &g).map(|b| b.len()), Some(2));
        // Null every carrier of group `g`: the view loses the group, the
        // base keeps it.
        for id in [TupleId(0), TupleId(1)] {
            let before = rel.tuple(id).unwrap().to_tuple();
            rel.set_value(id, AttrId(1), Value::Null).unwrap();
            let after = rel.tuple(id).unwrap().to_tuple();
            overlay.update(id, &before, &after);
        }
        assert!(overlay.group(n, &g).is_none());
        assert!(base.shapes[0].2.contains_key(&g.project_key(&[AttrId(0)])));
        assert_eq!(
            overlay.checksum(),
            GroupCensus::new(&rel, &sigma).checksum()
        );
        assert_eq!(base.checksum(), base_sum);
        // A carrier moving back in starts the group afresh in the view.
        let before = rel.tuple(TupleId(1)).unwrap().to_tuple();
        rel.set_value(TupleId(1), AttrId(1), Value::str("z"))
            .unwrap();
        let after = rel.tuple(TupleId(1)).unwrap().to_tuple();
        overlay.update(TupleId(1), &before, &after);
        let buckets = overlay.group(n, &g).unwrap();
        assert_eq!(
            buckets.values().map(|b| b.ids.clone()).collect::<Vec<_>>(),
            vec![vec![TupleId(1)]]
        );
        assert_eq!(
            overlay.checksum(),
            GroupCensus::new(&rel, &sigma).checksum()
        );
        assert_eq!(base.checksum(), base_sum);
    }

    #[test]
    fn checksum_detects_content_changes() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let rel = random_relation(&mut rng, 40, 10);
        let sigma = crossing_sigma(&rel);
        let base = GroupCensus::new(&rel, &sigma);
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
        let changed = GroupCensus::new(&other, &sigma);
        assert_ne!(base.checksum(), changed.checksum());
    }

    #[test]
    fn pins_verdicts_and_null_semantics() {
        let (mut rel, mut sigma) =
            kv(&[["212", "NYC"], ["610", "PHI"], ["610", "PHI"], ["415", "-"]]);
        rel.set_value(TupleId(3), AttrId(1), Value::Null).unwrap();
        // A constant CFD next to the FD: 212 → NYC.
        let cons = Cfd::new(
            "cons",
            vec![AttrId(0)],
            vec![AttrId(1)],
            vec![PatternRow::new(
                vec![PatternValue::constant("212")],
                vec![PatternValue::constant("NYC")],
            )],
        )
        .unwrap();
        let cfds = vec![sigma.sources()[0].clone(), cons];
        sigma = Sigma::normalize_in(rel.schema().clone(), cfds, rel.pool()).unwrap();
        let (var, cons) = (sigma.get(CfdId(0)), sigma.get(CfdId(1)));
        let census = CensusOverlay::new(Arc::new(GroupCensus::new(&rel, &sigma)));
        let t = |k: &str, v: Value| Tuple::new_in(vec![Value::str(k), v], rel.pool());
        let nyc = rel.pool().intern_uncounted(&Value::str("NYC"));
        // The variable CFD pins a group to its value.
        assert!(census.satisfies(var, &t("212", Value::str("NYC"))));
        assert!(!census.satisfies(var, &t("212", Value::str("PHI"))));
        assert_eq!(
            census.pinned_id(var, &t("212", Value::str("PHI"))),
            Some(nyc)
        );
        assert_eq!(census.conflicts(var, &t("212", Value::str("PHI"))), 1);
        assert_eq!(census.conflicts(var, &t("610", Value::str("X"))), 2);
        // A fresh key, a null-only group and a null LHS are unconstrained;
        // a null RHS satisfies.
        for free in [
            t("999", Value::str("SF")),
            t("415", Value::str("SF")),
            Tuple::new_in(vec![Value::Null, Value::str("SF")], rel.pool()),
        ] {
            assert!(census.satisfies(var, &free));
            assert_eq!(census.pinned_id(var, &free), None);
            assert_eq!(census.conflicts(var, &free), 0);
        }
        assert!(census.satisfies(var, &t("212", Value::Null)));
        assert_eq!(census.conflicts(var, &t("212", Value::Null)), 0);
        // The constant CFD is checked by its pattern alone.
        assert!(census.satisfies(cons, &t("212", Value::str("NYC"))));
        assert!(!census.satisfies(cons, &t("212", Value::str("PHI"))));
        assert!(census.satisfies(cons, &t("610", Value::str("PHI"))));
        assert!(census.satisfies(cons, &t("212", Value::Null)));
        assert_eq!(census.pinned_id(cons, &t("212", Value::str("PHI"))), None);
        assert_eq!(census.conflicts(cons, &t("212", Value::str("PHI"))), 0);
    }
}
