//! Relations: multisets of tuples with stable identifiers, stored as
//! columns.
//!
//! The repair process needs to "keep track of a given tuple `t` in `D`
//! during the repair process despite that the value of `t` may change"
//! (§3.1). [`TupleId`]s provide exactly that: they are assigned at insert
//! time, never reused, and survive in-place updates. Deletion leaves a
//! tombstone so ids stay stable; [`Relation::compact`] squeezes tombstones
//! out when a clean snapshot is needed.
//!
//! Physically, a relation is one [`ColumnStore`]: one `Vec<ValueId>` and
//! one `Vec<f64>` per attribute plus a validity bitmap (see
//! [`crate::storage`]). Reads go through the zero-copy [`RowRef`] view
//! or, on hot scans, straight through [`Relation::column`] slices;
//! [`Tuple`]s are materialized on demand ([`RowRef::to_tuple`]) only
//! where a row must outlive a mutation.

use std::fmt;
use std::sync::Arc;

use crate::error::ModelError;
use crate::pool::{ValueId, ValuePool, NULL_ID};
use crate::schema::{AttrId, Schema};
use crate::storage::{ColumnStore, RowRef};
use crate::tuple::Tuple;
use crate::value::Value;

/// Stable identifier of a tuple within one [`Relation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The id as a usize, for slot addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A relation instance: schema plus tuples addressed by stable [`TupleId`]s.
///
/// Every cell id belongs to the relation's [`ValuePool`] (see
/// [`Relation::pool`]), named when the relation is built.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: Schema,
    store: ColumnStore,
    live: usize,
}

impl Relation {
    /// An empty relation whose cell ids live in `pool`.
    pub fn new_in(schema: Schema, pool: Arc<ValuePool>) -> Self {
        let store = ColumnStore::new_in(schema.arity(), pool);
        Relation {
            schema,
            store,
            live: 0,
        }
    }

    /// Build a relation directly from value columns pre-interned in
    /// `pool` (the bulk CSV import path). `cols` must hold one column
    /// per schema attribute, all of one length; `weights`, when given,
    /// mirrors that shape.
    pub fn from_columns_in(
        schema: Schema,
        cols: Vec<Vec<ValueId>>,
        weights: Option<Vec<Vec<f64>>>,
        pool: Arc<ValuePool>,
    ) -> Result<Self, ModelError> {
        if cols.len() != schema.arity() {
            return Err(ModelError::ArityMismatch {
                expected: schema.arity(),
                actual: cols.len(),
            });
        }
        let store = ColumnStore::from_columns_in(cols, weights, pool);
        Relation::from_store(schema, store)
    }

    /// Install a relation from a fully built [`ColumnStore`] —
    /// the shared decode→columns→install tail of both the CSV import path
    /// and snapshot load. Tombstones in the store are preserved (the live
    /// count is the validity popcount).
    pub fn from_store(schema: Schema, store: ColumnStore) -> Result<Self, ModelError> {
        if store.arity() != schema.arity() {
            return Err(ModelError::ArityMismatch {
                expected: schema.arity(),
                actual: store.arity(),
            });
        }
        let live = store.live_count();
        Ok(Relation {
            schema,
            store,
            live,
        })
    }

    /// The pool this relation's cell ids belong to.
    #[inline]
    pub fn pool(&self) -> &Arc<ValuePool> {
        self.store.pool()
    }

    /// A deep copy of this relation with every cell re-interned into
    /// `pool` — the boundary translation that moves a relation onto a
    /// pool of its own (noise injection gives each dirty copy a fresh
    /// one). Tuple ids, tombstones, and weights are preserved; a
    /// tombstone's cells read `null` at weight 1. The live cells' distinct
    /// values go to [`ValuePool::install_column`] once, in row-major
    /// first-occurrence order with their occurrence counts, so the target
    /// pool ends up with exactly the ids and frequency counters that
    /// interning the live cells one by one, row by row, would leave. A
    /// no-op (plain clone) when `pool` already owns the relation.
    pub fn rekey_into(&self, pool: &Arc<ValuePool>) -> Relation {
        let src = self.pool();
        if Arc::ptr_eq(src, pool) {
            return self.clone();
        }
        let arity = self.schema.arity();
        let slots = self.store.slot_count();
        // Source id → local code, first occurrence first.
        let mut code: Vec<u32> = Vec::new();
        let mut distinct: Vec<ValueId> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut cols = vec![vec![NULL_ID; slots]; arity];
        let mut wcols = vec![vec![1.0; slots]; arity];
        for slot in self.store.live_slots() {
            for (a, (col, wcol)) in cols.iter_mut().zip(&mut wcols).enumerate() {
                let a = AttrId(a as u16);
                let id = self.store.column(a)[slot];
                if id.index() >= code.len() {
                    code.resize(id.index() + 1, u32::MAX);
                }
                if code[id.index()] == u32::MAX {
                    code[id.index()] = distinct.len() as u32;
                    distinct.push(id);
                    counts.push(0);
                }
                counts[code[id.index()] as usize] += 1;
                col[slot] = ValueId(code[id.index()]);
                wcol[slot] = self.store.weight_column(a)[slot].clamp(0.0, 1.0);
            }
        }
        let values: Vec<Value> = distinct.iter().map(|&id| src.resolve(id)).collect();
        let ids = pool.install_column(&values, &counts);
        for slot in self.store.live_slots() {
            for col in &mut cols {
                col[slot] = ids[col[slot].index()];
            }
        }
        let store = ColumnStore::from_parts(
            slots,
            cols,
            wcols,
            self.store.validity().to_vec(),
            pool.clone(),
        );
        Relation::from_store(self.schema.clone(), store).expect("same schema")
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live tuples remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots, tombstones included (= the id space upper bound).
    pub fn slot_count(&self) -> usize {
        self.store.slot_count()
    }

    /// Is `id` a live tuple?
    #[inline]
    pub fn is_live(&self, id: TupleId) -> bool {
        self.store.is_live(id.index())
    }

    /// Insert a tuple, returning its stable id.
    pub fn insert(&mut self, tuple: Tuple) -> Result<TupleId, ModelError> {
        if tuple.arity() != self.schema.arity() {
            return Err(ModelError::ArityMismatch {
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        let slot = self.store.push(&tuple);
        self.live += 1;
        Ok(TupleId(slot as u32))
    }

    /// Remove a tuple. Returns the removed tuple, or an error if the id was
    /// already dead.
    pub fn delete(&mut self, id: TupleId) -> Result<Tuple, ModelError> {
        if !self.is_live(id) {
            return Err(ModelError::UnknownTuple(id.0));
        }
        self.live -= 1;
        Ok(self.store.kill(id.index()))
    }

    /// A zero-copy view of a live tuple.
    #[inline]
    pub fn tuple(&self, id: TupleId) -> Option<RowRef<'_>> {
        self.store.view(id.index())
    }

    /// A view of a live tuple, erroring on dead ids.
    pub fn require(&self, id: TupleId) -> Result<RowRef<'_>, ModelError> {
        self.tuple(id).ok_or(ModelError::UnknownTuple(id.0))
    }

    /// Materialize a live tuple into an owned [`Tuple`].
    pub fn materialize(&self, id: TupleId) -> Option<Tuple> {
        self.tuple(id).map(|v| v.to_tuple())
    }

    /// Is `(id, a)` a cell of a live tuple?
    #[inline]
    fn has_cell(&self, id: TupleId, a: AttrId) -> bool {
        self.is_live(id) && self.schema.contains(a)
    }

    /// Check that `(id, a)` names a live cell before any write touches
    /// the pool or the columns.
    fn require_cell(&self, id: TupleId, a: AttrId) -> Result<(), ModelError> {
        if !self.is_live(id) {
            return Err(ModelError::UnknownTuple(id.0));
        }
        if !self.schema.contains(a) {
            return Err(ModelError::UnknownAttribute {
                relation: self.schema.name().to_string(),
                attribute: a.to_string(),
            });
        }
        Ok(())
    }

    /// The interned id of one live cell — the hot-path point read.
    /// `None` for a dead id or an attribute outside the arity.
    #[inline]
    pub fn value_id(&self, id: TupleId, a: AttrId) -> Option<ValueId> {
        self.has_cell(id, a)
            .then(|| self.store.column(a)[id.index()])
    }

    /// The weight of one live cell; `None` for a dead id or an attribute
    /// outside the arity.
    #[inline]
    pub fn cell_weight(&self, id: TupleId, a: AttrId) -> Option<f64> {
        self.has_cell(id, a)
            .then(|| self.store.weight_column(a)[id.index()])
    }

    /// The full value column of attribute `a`. Slices cover **all**
    /// slots — consult [`Relation::ids`] or [`Relation::is_live`] for
    /// tombstones.
    ///
    /// # Panics
    /// Panics when `a` is outside the schema's arity.
    #[inline]
    pub fn column(&self, a: AttrId) -> &[ValueId] {
        self.store.column(a)
    }

    /// The full weight column of attribute `a`; same tombstone caveat as
    /// [`Relation::column`].
    ///
    /// # Panics
    /// Panics when `a` is outside the schema's arity.
    #[inline]
    pub fn weight_column(&self, a: AttrId) -> &[f64] {
        self.store.weight_column(a)
    }

    /// Overwrite one attribute value of a live tuple, interning it into
    /// this relation's pool and retiring the occurrence it overwrites, so
    /// a pool that counted this relation's cells still does. A dead id or
    /// an attribute outside the arity fails before the value is interned,
    /// so a failed write leaves the pool (and its use counts) untouched.
    pub fn set_value(&mut self, id: TupleId, a: AttrId, v: Value) -> Result<(), ModelError> {
        self.require_cell(id, a)?;
        let old = self.store.column(a)[id.index()];
        let vid = self.pool().intern(&v);
        self.pool().retire(old, 1);
        self.store.set_cell(id.index(), a, vid);
        Ok(())
    }

    /// Overwrite one attribute value of a live tuple with an
    /// already-interned id — the hot-path form of [`Relation::set_value`].
    /// Use counts are left alone: a repair's working copy shares its
    /// pool with the original, whose counts it must not move.
    pub fn set_value_id(&mut self, id: TupleId, a: AttrId, v: ValueId) -> Result<(), ModelError> {
        self.require_cell(id, a)?;
        self.store.set_cell(id.index(), a, v);
        Ok(())
    }

    /// Overwrite one attribute weight of a live tuple; clamped into
    /// `[0, 1]`.
    pub fn set_weight(&mut self, id: TupleId, a: AttrId, w: f64) -> Result<(), ModelError> {
        self.require_cell(id, a)?;
        self.store.set_weight(id.index(), a, w);
        Ok(())
    }

    /// Overwrite all attribute weights of a live tuple. `weights` must
    /// have exactly the schema's arity.
    pub fn set_weights(&mut self, id: TupleId, weights: &[f64]) -> Result<(), ModelError> {
        if weights.len() != self.schema.arity() {
            return Err(ModelError::ArityMismatch {
                expected: self.schema.arity(),
                actual: weights.len(),
            });
        }
        if !self.is_live(id) {
            return Err(ModelError::UnknownTuple(id.0));
        }
        for (i, w) in weights.iter().enumerate() {
            self.store.set_weight(id.index(), AttrId(i as u16), *w);
        }
        Ok(())
    }

    /// The live slots in id order beside the weight columns, which the
    /// caller may overwrite in place with weights it has checked to lie
    /// in `[0, 1]` (the weight-file reader).
    pub(crate) fn live_weight_columns_mut(
        &mut self,
    ) -> (impl Iterator<Item = usize> + '_, &mut [Vec<f64>]) {
        self.store.live_weight_columns_mut()
    }

    /// Iterate over `(id, view)` pairs of live tuples in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, RowRef<'_>)> + '_ {
        (0..self.store.slot_count())
            .filter_map(|slot| self.store.view(slot).map(|v| (TupleId(slot as u32), v)))
    }

    /// Iterate over live tuple ids.
    pub fn ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.store.live_slots().map(|s| TupleId(s as u32))
    }

    /// Drop tombstones, renumbering tuples densely. Returns the mapping from
    /// old to new ids for callers holding external references.
    pub fn compact(&mut self) -> Vec<(TupleId, TupleId)> {
        self.store
            .compact()
            .into_iter()
            .map(|(o, n)| (TupleId(o as u32), TupleId(n as u32)))
            .collect()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for (id, t) in self.iter() {
            write!(f, "  {id}:")?;
            for a in self.schema.attr_ids() {
                write!(f, " {}", t.value(a))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::NULL_ID;

    fn rel() -> Relation {
        let schema = Schema::new("r", &["a", "b"]).unwrap();
        Relation::new_in(schema, ValuePool::new_handle())
    }

    /// Insert `[a, b]` into `r`, interned into its pool.
    fn put(r: &mut Relation, a: &str, b: &str) -> TupleId {
        r.insert(Tuple::new_in([a, b], r.pool())).unwrap()
    }

    /// Resolve one live cell of `r` through its pool.
    fn cell(r: &Relation, id: TupleId, a: AttrId) -> Value {
        r.pool().resolve(r.value_id(id, a).unwrap())
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut r = rel();
        let t0 = put(&mut r, "x", "y");
        let t1 = put(&mut r, "u", "v");
        assert_eq!(t0, TupleId(0));
        assert_eq!(t1, TupleId(1));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = rel();
        let err = r.insert(Tuple::new_in(["only-one"], r.pool())).unwrap_err();
        assert!(matches!(
            err,
            ModelError::ArityMismatch {
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn delete_keeps_other_ids_stable() {
        let mut r = rel();
        let t0 = put(&mut r, "x", "y");
        let t1 = put(&mut r, "u", "v");
        r.delete(t0).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.tuple(t0).is_none());
        assert_eq!(cell(&r, t1, AttrId(0)), Value::str("u"));
        // double delete errors
        assert!(r.delete(t0).is_err());
    }

    #[test]
    fn set_value_updates_in_place() {
        let mut r = rel();
        let t0 = put(&mut r, "PHI", "PA");
        r.set_value(t0, AttrId(0), Value::str("NYC")).unwrap();
        assert_eq!(cell(&r, t0, AttrId(0)), Value::str("NYC"));
        assert!(r.set_value(TupleId(99), AttrId(0), Value::Null).is_err());
    }

    #[test]
    fn set_value_retires_the_overwritten_occurrence() {
        let mut r = rel();
        let t0 = put(&mut r, "PHI", "PA");
        let t1 = put(&mut r, "PHI", "PA");
        let pool = r.pool().clone();
        let phi = pool.lookup(&Value::str("PHI")).unwrap();
        r.set_value(t0, AttrId(0), Value::str("NYC")).unwrap();
        let nyc = pool.lookup(&Value::str("NYC")).unwrap();
        assert_eq!((pool.use_count(phi), pool.use_count(nyc)), (1, 1));
        // rewriting a cell with its own value leaves its count alone
        r.set_value(t1, AttrId(0), Value::str("PHI")).unwrap();
        assert_eq!(pool.use_count(phi), 1);
        r.set_value(t1, AttrId(0), Value::Null).unwrap();
        assert_eq!(pool.use_count(phi), 0);
        r.set_value(t1, AttrId(0), Value::str("NYC")).unwrap();
        assert_eq!(pool.use_count(nyc), 2);
    }

    #[test]
    fn failed_set_value_leaves_the_pool_untouched() {
        let pool = ValuePool::new_handle();
        let schema = Schema::new("r", &["a", "b"]).unwrap();
        let mut r = Relation::new_in(schema, pool.clone());
        let ids = ["x", "y"].map(|v| pool.intern(&Value::str(v)));
        let live = r.insert(Tuple::from_ids(ids.to_vec())).unwrap();
        let dead = r.insert(Tuple::from_ids(ids.to_vec())).unwrap();
        r.delete(dead).unwrap();
        let len = pool.len();
        let uses = pool.use_count(ids[0]);
        for (id, a) in [
            (dead, AttrId(0)),
            (TupleId(99), AttrId(0)),
            (live, AttrId(2)),
        ] {
            // an existing value must not gain a use, a new one must not
            // enter the pool
            assert!(r.set_value(id, a, Value::str("x")).is_err());
            assert!(r.set_value(id, a, Value::str("fresh")).is_err());
            assert_eq!(pool.len(), len);
            assert_eq!(pool.use_count(ids[0]), uses);
        }
        assert_eq!(pool.lookup(&Value::str("fresh")), None);
    }

    #[test]
    fn out_of_range_attributes_answer_none_or_err() {
        let mut r = rel();
        let id = put(&mut r, "a", "b");
        let past = AttrId(2);
        assert_eq!(r.value_id(id, past), None);
        assert_eq!(r.cell_weight(id, past), None);
        let unknown = |e: ModelError| matches!(e, ModelError::UnknownAttribute { .. });
        assert!(unknown(r.set_value_id(id, past, NULL_ID).unwrap_err()));
        assert!(unknown(r.set_value(id, past, Value::Null).unwrap_err()));
        assert!(unknown(r.set_weight(id, past, 0.5).unwrap_err()));
        // the live cells are unchanged
        assert_eq!(
            r.tuple(id).unwrap().values(),
            [Value::str("a"), Value::str("b")]
        );
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut r = rel();
        let t0 = put(&mut r, "a", "b");
        let _t1 = put(&mut r, "c", "d");
        r.delete(t0).unwrap();
        let ids: Vec<_> = r.ids().collect();
        assert_eq!(ids, vec![TupleId(1)]);
    }

    #[test]
    fn compact_renumbers_densely() {
        let mut r = rel();
        let t0 = put(&mut r, "a", "b");
        let t1 = put(&mut r, "c", "d");
        let t2_ = put(&mut r, "e", "f");
        r.delete(t1).unwrap();
        let mapping = r.compact();
        assert_eq!(mapping, vec![(t0, TupleId(0)), (t2_, TupleId(1))]);
        assert_eq!(r.len(), 2);
        assert_eq!(cell(&r, TupleId(1), AttrId(0)), Value::str("e"));
        // fresh inserts continue after the compacted range
        let t3 = put(&mut r, "g", "h");
        assert_eq!(t3, TupleId(2));
    }

    #[test]
    fn require_errors_on_dead_id() {
        let mut r = rel();
        let t0 = put(&mut r, "a", "b");
        r.delete(t0).unwrap();
        assert!(r.require(t0).is_err());
    }

    #[test]
    fn column_access_covers_every_slot() {
        let mut r = rel();
        put(&mut r, "x", "y");
        let dead = put(&mut r, "u", "v");
        r.delete(dead).unwrap();
        let y = r.pool().lookup(&Value::str("y")).unwrap();
        let v = r.pool().lookup(&Value::str("v")).unwrap();
        assert_eq!(r.column(AttrId(1)), &[y, v]);
        assert_eq!(r.weight_column(AttrId(0)), &[1.0, 1.0]);
    }

    #[test]
    fn point_reads_match_views() {
        let mut r = rel();
        let id = put(&mut r, "a", "b");
        r.set_weight(id, AttrId(1), 0.25).unwrap();
        assert_eq!(r.value_id(id, AttrId(0)), r.pool().lookup(&Value::str("a")));
        assert_eq!(r.cell_weight(id, AttrId(1)), Some(0.25));
        let dead = put(&mut r, "c", "d");
        r.delete(dead).unwrap();
        assert_eq!(r.value_id(dead, AttrId(0)), None);
        assert_eq!(r.cell_weight(dead, AttrId(0)), None);
    }

    /// The cell-by-cell `rekey_into` the bulk install replaced, kept as
    /// its oracle: every live cell interned through the counted path in
    /// row-major order, every tombstone re-made by insert and delete.
    fn reference_rekey(rel: &Relation, pool: &Arc<ValuePool>) -> Relation {
        let src = rel.pool();
        let mut out = Relation::new_in(rel.schema.clone(), pool.clone());
        for slot in 0..rel.store.slot_count() {
            match rel.store.view(slot) {
                Some(v) => {
                    let ids: Vec<ValueId> = rel
                        .schema
                        .attr_ids()
                        .map(|a| src.with_value(v.id(a), |val| pool.intern(val)))
                        .collect();
                    let mut t = Tuple::from_ids(ids);
                    for a in rel.schema.attr_ids() {
                        t.set_weight(a, v.weight(a));
                    }
                    out.insert(t).unwrap();
                }
                None => {
                    let id = out
                        .insert(Tuple::from_ids(vec![NULL_ID; rel.schema.arity()]))
                        .unwrap();
                    out.delete(id).unwrap();
                }
            }
        }
        out
    }

    #[test]
    fn rekey_matches_cell_by_cell_interning() {
        use cfd_prng::{trials, Rng};
        const VALUES: &[&str] = &["a", "b", "c", "d", "e", "f", "g", "h"];
        trials(200, 0x2e4e_71d0, |rng| {
            let arity = rng.gen_range(1..4usize);
            let attrs: Vec<String> = (0..arity).map(|a| format!("c{a}")).collect();
            let mut rel =
                Relation::new_in(Schema::new("r", &attrs).unwrap(), ValuePool::new_handle());
            // Source ids out of value order: intern a shuffled prefix first.
            for _ in 0..rng.gen_range(0..6usize) {
                let v = VALUES[rng.gen_range(0..VALUES.len())];
                rel.pool().intern_uncounted(&Value::str(v));
            }
            for _ in 0..rng.gen_range(0..30usize) {
                let row: Vec<Value> = (0..arity)
                    .map(|_| match rng.gen_range(0..10u32) {
                        0 => Value::Null,
                        1 => Value::int(rng.gen_range(0..3i64)),
                        _ => Value::str(VALUES[rng.gen_range(0..VALUES.len())]),
                    })
                    .collect();
                let id = rel.insert(Tuple::new_in(row, rel.pool())).unwrap();
                for a in 0..arity {
                    let w = rng.gen_range(0..5u32) as f64 / 4.0;
                    rel.set_weight(id, AttrId(a as u16), w).unwrap();
                }
                if rng.gen_bool(0.2) {
                    rel.delete(id).unwrap();
                }
            }
            // The target pool already holds some values and, after a
            // compaction, free slots the installs reuse.
            let seeded: Vec<&str> = (0..rng.gen_range(0..4usize))
                .map(|_| VALUES[rng.gen_range(0..VALUES.len())])
                .collect();
            let freed = rng.gen_bool(0.5);
            let target = || {
                let pool = ValuePool::new_handle();
                for v in &seeded {
                    pool.intern(&Value::str(*v));
                }
                if freed {
                    pool.intern_uncounted(&Value::str("gone"));
                    pool.intern_uncounted(&Value::str("also gone"));
                    assert_eq!(pool.compact(), 2);
                }
                pool
            };
            let (got_pool, want_pool) = (target(), target());
            let got = rel.rekey_into(&got_pool);
            let want = reference_rekey(&rel, &want_pool);
            assert_eq!(got.slot_count(), want.slot_count());
            assert_eq!(got.len(), want.len());
            assert_eq!(got.store.validity(), want.store.validity());
            for a in rel.schema().attr_ids() {
                assert_eq!(got.column(a), want.column(a));
                let bits = |r: &Relation| -> Vec<u64> {
                    r.weight_column(a).iter().map(|w| w.to_bits()).collect()
                };
                assert_eq!(bits(&got), bits(&want));
            }
            assert_eq!(got_pool.len(), want_pool.len());
            for id in (0..want_pool.len() as u32).map(ValueId) {
                assert_eq!(got_pool.resolve(id), want_pool.resolve(id));
                assert_eq!(got_pool.use_count(id), want_pool.use_count(id));
            }
        });
    }
}
