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
use crate::pool::{ValueId, ValuePool};
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
/// [`Relation::pool`]); pool-less constructors fall back to the
/// process-default shared pool, dataset paths use the `_in` variants.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: Schema,
    store: ColumnStore,
    live: usize,
}

impl Relation {
    /// An empty relation over `schema` on the process-default shared
    /// pool (compatibility shim — dataset paths use
    /// [`Relation::new_in`]).
    pub fn new(schema: Schema) -> Self {
        Relation::new_in(schema, ValuePool::shared())
    }

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
    /// `pool` — the boundary translation that moves a relation built on a
    /// foreign pool (say, the shared pool of the pool-less constructors)
    /// onto a dataset-scoped one. Tuple ids, tombstones, and weights are
    /// preserved; live cells are
    /// interned through the counted path, so the target pool's frequency
    /// counters end up exactly as a cell-by-cell load would have left
    /// them. A no-op (plain clone) when `pool` already owns the relation.
    pub fn rekey_into(&self, pool: &Arc<ValuePool>) -> Relation {
        let src = self.pool();
        if Arc::ptr_eq(src, pool) {
            return self.clone();
        }
        let mut out = Relation::new_in(self.schema.clone(), pool.clone());
        for slot in 0..self.store.slot_count() {
            match self.store.view(slot) {
                Some(v) => {
                    let ids: Vec<ValueId> = self
                        .schema
                        .attr_ids()
                        .map(|a| src.with_value(v.id(a), |val| pool.intern(val)))
                        .collect();
                    let mut t = Tuple::from_ids(ids);
                    for a in self.schema.attr_ids() {
                        t.set_weight(a, v.weight(a));
                    }
                    let id = out.insert(t).expect("same schema");
                    debug_assert_eq!(id.index(), slot);
                }
                None => {
                    // Reproduce the tombstone so ids stay aligned.
                    let arity = self.schema.arity();
                    let id = out
                        .insert(Tuple::from_ids(vec![crate::pool::NULL_ID; arity]))
                        .expect("same schema");
                    debug_assert_eq!(id.index(), slot);
                    out.delete(id).expect("just inserted");
                }
            }
        }
        out
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
    /// this relation's pool. A dead id or an attribute outside the arity
    /// fails before the value is interned, so a failed write leaves the
    /// pool (and its use counts) untouched.
    pub fn set_value(&mut self, id: TupleId, a: AttrId, v: Value) -> Result<(), ModelError> {
        self.require_cell(id, a)?;
        let vid = self.pool().intern(&v);
        self.store.set_cell(id.index(), a, vid);
        Ok(())
    }

    /// Overwrite one attribute value of a live tuple with an
    /// already-interned id — the hot-path form of [`Relation::set_value`].
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
        Relation::new(schema)
    }

    fn t2(a: &str, b: &str) -> Tuple {
        Tuple::from_iter([a, b])
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut r = rel();
        let t0 = r.insert(t2("x", "y")).unwrap();
        let t1 = r.insert(t2("u", "v")).unwrap();
        assert_eq!(t0, TupleId(0));
        assert_eq!(t1, TupleId(1));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = rel();
        let err = r.insert(Tuple::from_iter(["only-one"])).unwrap_err();
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
        let t0 = r.insert(t2("x", "y")).unwrap();
        let t1 = r.insert(t2("u", "v")).unwrap();
        r.delete(t0).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.tuple(t0).is_none());
        assert_eq!(r.tuple(t1).unwrap().value(AttrId(0)), Value::str("u"));
        // double delete errors
        assert!(r.delete(t0).is_err());
    }

    #[test]
    fn set_value_updates_in_place() {
        let mut r = rel();
        let t0 = r.insert(t2("PHI", "PA")).unwrap();
        r.set_value(t0, AttrId(0), Value::str("NYC")).unwrap();
        assert_eq!(r.tuple(t0).unwrap().value(AttrId(0)), Value::str("NYC"));
        assert!(r.set_value(TupleId(99), AttrId(0), Value::Null).is_err());
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
        let id = r.insert(t2("a", "b")).unwrap();
        let past = AttrId(2);
        assert_eq!(r.value_id(id, past), None);
        assert_eq!(r.cell_weight(id, past), None);
        let unknown = |e: ModelError| matches!(e, ModelError::UnknownAttribute { .. });
        assert!(unknown(r.set_value_id(id, past, NULL_ID).unwrap_err()));
        assert!(unknown(r.set_value(id, past, Value::Null).unwrap_err()));
        assert!(unknown(r.set_weight(id, past, 0.5).unwrap_err()));
        // the live cells are unchanged
        assert_eq!(r.tuple(id).unwrap(), t2("a", "b"));
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut r = rel();
        let t0 = r.insert(t2("a", "b")).unwrap();
        let _t1 = r.insert(t2("c", "d")).unwrap();
        r.delete(t0).unwrap();
        let ids: Vec<_> = r.ids().collect();
        assert_eq!(ids, vec![TupleId(1)]);
    }

    #[test]
    fn compact_renumbers_densely() {
        let mut r = rel();
        let t0 = r.insert(t2("a", "b")).unwrap();
        let t1 = r.insert(t2("c", "d")).unwrap();
        let t2_ = r.insert(t2("e", "f")).unwrap();
        r.delete(t1).unwrap();
        let mapping = r.compact();
        assert_eq!(mapping, vec![(t0, TupleId(0)), (t2_, TupleId(1))]);
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.tuple(TupleId(1)).unwrap().value(AttrId(0)),
            Value::str("e")
        );
        // fresh inserts continue after the compacted range
        let t3 = r.insert(t2("g", "h")).unwrap();
        assert_eq!(t3, TupleId(2));
    }

    #[test]
    fn require_errors_on_dead_id() {
        let mut r = rel();
        let t0 = r.insert(t2("a", "b")).unwrap();
        r.delete(t0).unwrap();
        assert!(r.require(t0).is_err());
    }

    #[test]
    fn column_access_covers_every_slot() {
        let mut r = rel();
        r.insert(t2("x", "y")).unwrap();
        let dead = r.insert(t2("u", "v")).unwrap();
        r.delete(dead).unwrap();
        let y = ValueId::of(&Value::str("y"));
        let v = ValueId::of(&Value::str("v"));
        assert_eq!(r.column(AttrId(1)), &[y, v]);
        assert_eq!(r.weight_column(AttrId(0)), &[1.0, 1.0]);
    }

    #[test]
    fn point_reads_match_views() {
        let mut r = rel();
        let id = r.insert(t2("a", "b")).unwrap();
        r.set_weight(id, AttrId(1), 0.25).unwrap();
        assert_eq!(
            r.value_id(id, AttrId(0)),
            Some(ValueId::of(&Value::str("a")))
        );
        assert_eq!(r.cell_weight(id, AttrId(1)), Some(0.25));
        let dead = r.insert(t2("c", "d")).unwrap();
        r.delete(dead).unwrap();
        assert_eq!(r.value_id(dead, AttrId(0)), None);
        assert_eq!(r.cell_weight(dead, AttrId(0)), None);
    }
}
