//! Relation storage: [`ColumnStore`] and the [`RowRef`] view over one of
//! its tuples.
//!
//! With every value dictionary-encoded, a relation need not be a vector of
//! row objects: the paper's hot loops read one or two attributes of *every*
//! tuple — violation detection projects `t[X]` and `t[A]`, and
//! `BATCHREPAIR`'s census walks one RHS column per variable-CFD shape.
//! [`ColumnStore`] stores the relation as per-attribute `Vec<ValueId>`
//! columns (plus per-attribute weight columns and a validity/tombstone
//! bitmap), so those scans touch contiguous `u32` slices instead of hopping
//! between heap-allocated rows. It is the only layout.
//!
//! ## Reading without materializing
//!
//! [`RowRef`] is a `Copy` view of one live tuple: a store and a slot. It
//! exposes the read API of [`Tuple`] (`id`, `value`, `weight`,
//! `project_key`, …) without allocating; each read is two slice index
//! operations. Code that must *hold* a tuple across mutations of the
//! relation materializes with [`RowRef::to_tuple`] — the
//! materialize-on-demand path the CLI and repair-edit code use.
//!
//! ## Tombstones
//!
//! Deletion clears a validity bit; column slots keep their stale values
//! until `ColumnStore::compact` squeezes them out. Raw column slices
//! (`Relation::column`) therefore cover *all* slots, dead ones included —
//! scans must either iterate live ids or consult the validity bitmap.

use std::sync::Arc;

use crate::key::IdKey;
use crate::pool::{ValueId, ValuePool, NULL_ID};
use crate::schema::AttrId;
use crate::tuple::{Tuple, TupleView};
use crate::value::Value;

/// A validity bitmap with the first `slots` bits set (all live).
fn full_validity(slots: usize) -> Vec<u64> {
    let mut validity = vec![u64::MAX; slots.div_ceil(64)];
    if !slots.is_multiple_of(64) {
        if let Some(last) = validity.last_mut() {
            *last = (1u64 << (slots % 64)) - 1;
        }
    }
    validity
}

/// Columnar storage: `arity` value columns, `arity` weight columns, and a
/// validity bitmap, all indexed by slot (= [`TupleId`](crate::TupleId)
/// index). Every column is an owned `Vec` of the store's own, whether it
/// came from CSV import, a snapshot load, or cell-by-cell inserts, so
/// cloning a store deep-copies it and a write never touches another
/// store.
#[derive(Clone, Debug)]
pub struct ColumnStore {
    arity: usize,
    slots: usize,
    cols: Vec<Vec<ValueId>>,
    wcols: Vec<Vec<f64>>,
    validity: Vec<u64>,
    /// The pool every `ValueId` in `cols` belongs to.
    pool: Arc<ValuePool>,
}

impl ColumnStore {
    /// An empty store of the given arity whose cell ids live in `pool`.
    pub fn new_in(arity: usize, pool: Arc<ValuePool>) -> Self {
        ColumnStore {
            arity,
            slots: 0,
            cols: vec![Vec::new(); arity],
            wcols: vec![Vec::new(); arity],
            validity: Vec::new(),
            pool,
        }
    }

    /// Build a store directly from value columns pre-interned in `pool`
    /// (all slots live) — the bulk CSV import path. All columns must
    /// share a length; `weights` (if given) must mirror the shape, else
    /// weights default to 1.
    pub fn from_columns_in(
        cols: Vec<Vec<ValueId>>,
        weights: Option<Vec<Vec<f64>>>,
        pool: Arc<ValuePool>,
    ) -> Self {
        let arity = cols.len();
        let slots = cols.first().map(Vec::len).unwrap_or(0);
        for c in &cols {
            assert_eq!(c.len(), slots, "ragged value columns");
        }
        let wcols = match weights {
            Some(mut w) => {
                assert_eq!(w.len(), arity, "weight columns must match arity");
                for c in &mut w {
                    assert_eq!(c.len(), slots, "ragged weight columns");
                    // Same invariant every other weight write enforces.
                    for x in c {
                        *x = x.clamp(0.0, 1.0);
                    }
                }
                w
            }
            None => vec![vec![1.0; slots]; arity],
        };
        let validity = full_validity(slots);
        ColumnStore::from_parts(slots, cols, wcols, validity, pool)
    }

    /// Install a store from fully materialized parts — value columns,
    /// weight columns, and a validity bitmap — without touching the value
    /// pool. This is the snapshot bulk-install hook: the caller (snapshot
    /// load) has already produced ids in `pool` and
    /// validated weights, and tombstoned slots are preserved exactly as
    /// given.
    ///
    /// `slots` is explicit rather than inferred from the columns so an
    /// arity-0 store (no columns at all) can still carry slots — an
    /// arity-0 relation accepts empty-tuple inserts, and its snapshot
    /// must round-trip them.
    ///
    /// # Panics
    /// Panics on columns that disagree with `slots`, a weight shape that
    /// does not mirror the value columns, or a validity bitmap of the
    /// wrong word count with stray bits beyond the last slot. Callers
    /// deserializing untrusted bytes must validate shapes first and
    /// surface typed errors.
    pub fn from_parts(
        slots: usize,
        cols: Vec<Vec<ValueId>>,
        wcols: Vec<Vec<f64>>,
        validity: Vec<u64>,
        pool: Arc<ValuePool>,
    ) -> Self {
        let arity = cols.len();
        for c in &cols {
            assert_eq!(c.len(), slots, "ragged value columns");
        }
        assert_eq!(wcols.len(), arity, "weight columns must match arity");
        for c in &wcols {
            assert_eq!(c.len(), slots, "ragged weight columns");
        }
        assert_eq!(
            validity.len(),
            slots.div_ceil(64),
            "validity word count must cover the slots"
        );
        if !slots.is_multiple_of(64) {
            if let Some(last) = validity.last() {
                assert_eq!(
                    last & !((1u64 << (slots % 64)) - 1),
                    0,
                    "validity bits beyond the last slot must be zero"
                );
            }
        }
        ColumnStore {
            arity,
            slots,
            cols,
            wcols,
            validity,
            pool,
        }
    }

    /// The pool this store's cell ids belong to.
    pub fn pool(&self) -> &Arc<ValuePool> {
        &self.pool
    }

    /// Count of live slots (validity popcount).
    pub fn live_count(&self) -> usize {
        self.validity.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of attribute columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of slots, live and dead.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// Is the slot live?
    #[inline]
    pub fn is_live(&self, slot: usize) -> bool {
        slot < self.slots && (self.validity[slot >> 6] >> (slot & 63)) & 1 == 1
    }

    /// The full value column of attribute `a` (dead slots included).
    #[inline]
    pub fn column(&self, a: AttrId) -> &[ValueId] {
        &self.cols[a.index()]
    }

    /// The full weight column of attribute `a` (dead slots included).
    #[inline]
    pub fn weight_column(&self, a: AttrId) -> &[f64] {
        &self.wcols[a.index()]
    }

    /// The raw validity bitmap (bit `i` set ⟺ slot `i` live).
    pub fn validity(&self) -> &[u64] {
        &self.validity
    }

    #[inline]
    fn cell(&self, slot: usize, a: AttrId) -> ValueId {
        self.cols[a.index()][slot]
    }

    #[inline]
    fn weight(&self, slot: usize, a: AttrId) -> f64 {
        self.wcols[a.index()][slot]
    }

    /// Append `t` as a new live slot, returning the slot.
    pub(crate) fn push(&mut self, t: &Tuple) -> usize {
        debug_assert_eq!(t.arity(), self.arity);
        let slot = self.slots;
        for (a, col) in self.cols.iter_mut().enumerate() {
            col.push(t.id(AttrId(a as u16)));
        }
        for (a, col) in self.wcols.iter_mut().enumerate() {
            col.push(t.weight(AttrId(a as u16)));
        }
        if slot.is_multiple_of(64) {
            self.validity.push(0);
        }
        self.validity[slot >> 6] |= 1u64 << (slot & 63);
        self.slots += 1;
        slot
    }

    fn materialize(&self, slot: usize) -> Tuple {
        let ids: Vec<ValueId> = self.cols.iter().map(|c| c[slot]).collect();
        let weights: Vec<f64> = self.wcols.iter().map(|c| c[slot]).collect();
        let mut t = Tuple::from_ids(ids);
        for (a, w) in weights.into_iter().enumerate() {
            t.set_weight(AttrId(a as u16), w);
        }
        t
    }

    /// Tombstone a live slot, returning the removed tuple. The caller
    /// checks liveness.
    pub(crate) fn kill(&mut self, slot: usize) -> Tuple {
        let t = self.materialize(slot);
        self.validity[slot >> 6] &= !(1u64 << (slot & 63));
        t
    }

    /// A view of the slot, when it is live.
    #[inline]
    pub(crate) fn view(&self, slot: usize) -> Option<RowRef<'_>> {
        self.is_live(slot).then_some(RowRef { store: self, slot })
    }

    /// Overwrite one cell id. The caller checks liveness and arity.
    pub(crate) fn set_cell(&mut self, slot: usize, a: AttrId, v: ValueId) {
        self.cols[a.index()][slot] = v;
    }

    /// Overwrite one cell weight, clamped into `[0, 1]`. The caller
    /// checks liveness and arity.
    pub(crate) fn set_weight(&mut self, slot: usize, a: AttrId, w: f64) {
        self.wcols[a.index()][slot] = w.clamp(0.0, 1.0);
    }

    /// Drop tombstones in place; returns (old slot, new slot) pairs.
    pub(crate) fn compact(&mut self) -> Vec<(usize, usize)> {
        let live: Vec<usize> = self.live_slots().collect();
        let mapping: Vec<(usize, usize)> = live.iter().enumerate().map(|(n, o)| (*o, n)).collect();
        for col in &mut self.cols {
            let kept: Vec<ValueId> = live.iter().map(|&i| col[i]).collect();
            *col = kept;
        }
        for col in &mut self.wcols {
            let kept: Vec<f64> = live.iter().map(|&i| col[i]).collect();
            *col = kept;
        }
        self.slots = live.len();
        self.validity = full_validity(self.slots);
        mapping
    }

    /// Iterate over live slots in ascending order.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots).filter(|s| self.is_live(*s))
    }
}

/// A zero-copy view of one live tuple: a slot of a [`ColumnStore`].
///
/// `Copy`, borrows the relation immutably. Mirrors [`Tuple`]'s read API;
/// materialize with [`RowRef::to_tuple`] when the tuple must outlive a
/// mutation of the relation.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    /// The backing store (which carries the pool).
    store: &'a ColumnStore,
    /// The tuple's slot (= its id's index).
    slot: usize,
}

impl<'a> RowRef<'a> {
    /// The pool this row's ids resolve in.
    #[inline]
    pub fn pool(&self) -> &'a ValuePool {
        &self.store.pool
    }

    /// Tuple arity.
    #[inline]
    pub fn arity(&self) -> usize {
        self.store.arity
    }

    /// The interned id of attribute `a` — the hot-path form of `t[A]`.
    #[inline]
    pub fn id(&self, a: AttrId) -> ValueId {
        self.store.cell(self.slot, a)
    }

    /// The value of attribute `a`, resolved from the owning pool.
    #[inline]
    pub fn value(&self, a: AttrId) -> Value {
        self.pool().resolve(self.id(a))
    }

    /// Is `t[A]` null?
    #[inline]
    pub fn is_null(&self, a: AttrId) -> bool {
        self.id(a).is_null()
    }

    /// The confidence weight `w(t, A)`.
    #[inline]
    pub fn weight(&self, a: AttrId) -> f64 {
        self.store.weight(self.slot, a)
    }

    /// The total weight `wt(t) = Σ_A w(t, A)`.
    pub fn total_weight(&self) -> f64 {
        (0..self.arity() as u16)
            .map(|a| self.weight(AttrId(a)))
            .sum()
    }

    /// Project onto an attribute list as an id key.
    #[inline]
    pub fn project_key(&self, attrs: &[AttrId]) -> IdKey {
        attrs.iter().map(|a| self.id(*a)).collect()
    }

    /// Project onto an attribute list as raw ids.
    pub fn project_ids(&self, attrs: &[AttrId]) -> Vec<ValueId> {
        attrs.iter().map(|a| self.id(*a)).collect()
    }

    /// All values in schema order, resolved from the pool.
    pub fn values(&self) -> Vec<Value> {
        (0..self.arity() as u16)
            .map(|a| self.value(AttrId(a)))
            .collect()
    }

    /// All weights in schema order.
    pub fn weights(&self) -> Vec<f64> {
        (0..self.arity() as u16)
            .map(|a| self.weight(AttrId(a)))
            .collect()
    }

    /// Do `self` and `other` agree on every attribute in `attrs` under
    /// strict equality?
    pub fn agrees_on<V: TupleView + ?Sized>(&self, other: &V, attrs: &[AttrId]) -> bool {
        attrs.iter().all(|a| self.id(*a) == other.id(*a))
    }

    /// Number of attributes on which two views of the same arity differ
    /// (strict semantics).
    pub fn attr_diff<V: TupleView + ?Sized>(&self, other: &V) -> usize {
        debug_assert_eq!(self.arity(), other.arity());
        (0..self.arity() as u16)
            .filter(|a| self.id(AttrId(*a)) != other.id(AttrId(*a)))
            .count()
    }

    /// True when every attribute is `null`.
    pub fn is_nulled(&self) -> bool {
        (0..self.arity() as u16).all(|a| self.id(AttrId(a)) == NULL_ID)
    }

    /// Materialize into an owned [`Tuple`] — the view's escape hatch for
    /// code that must hold the row across relation mutations.
    pub fn to_tuple(&self) -> Tuple {
        self.store.materialize(self.slot)
    }
}

impl std::fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowRef")
            .field(
                "ids",
                &self.project_ids(&(0..self.arity() as u16).map(AttrId).collect::<Vec<_>>()),
            )
            .finish()
    }
}

fn view_eq<A: TupleView + ?Sized, B: TupleView + ?Sized>(a: &A, b: &B) -> bool {
    a.arity() == b.arity()
        && (0..a.arity() as u16).all(|i| {
            let i = AttrId(i);
            a.id(i) == b.id(i) && a.weight(i) == b.weight(i)
        })
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        view_eq(self, other)
    }
}

impl PartialEq<Tuple> for RowRef<'_> {
    fn eq(&self, other: &Tuple) -> bool {
        view_eq(self, other)
    }
}

impl PartialEq<&Tuple> for RowRef<'_> {
    fn eq(&self, other: &&Tuple) -> bool {
        view_eq(self, *other)
    }
}

impl PartialEq<RowRef<'_>> for Tuple {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        view_eq(self, other)
    }
}

impl TupleView for RowRef<'_> {
    #[inline]
    fn arity(&self) -> usize {
        RowRef::arity(self)
    }

    #[inline]
    fn id(&self, a: AttrId) -> ValueId {
        RowRef::id(self, a)
    }

    #[inline]
    fn weight(&self, a: AttrId) -> f64 {
        RowRef::weight(self, a)
    }

    #[inline]
    fn value(&self, a: AttrId) -> Value {
        RowRef::value(self, a)
    }

    #[inline]
    fn pool(&self) -> &ValuePool {
        RowRef::pool(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tuple whose ids are interned in `pool`.
    fn t2(pool: &ValuePool, a: &str, b: &str) -> Tuple {
        Tuple::from_ids(vec![
            pool.intern(&Value::str(a)),
            pool.intern(&Value::str(b)),
        ])
    }

    #[test]
    fn column_store_push_and_read() {
        let pool = ValuePool::new_handle();
        let mut s = ColumnStore::new_in(2, pool.clone());
        let s0 = s.push(&t2(&pool, "x", "y"));
        let s1 = s.push(&t2(&pool, "u", "v"));
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert!(s.is_live(0) && s.is_live(1));
        assert_eq!(s.column(AttrId(0)).len(), 2);
        assert_eq!(s.cell(0, AttrId(0)), pool.intern(&Value::str("x")));
        assert_eq!(s.cell(1, AttrId(1)), pool.intern(&Value::str("v")));
        assert_eq!(s.weight(0, AttrId(0)), 1.0);
    }

    #[test]
    fn kill_tombstones_without_shifting() {
        let pool = ValuePool::new_handle();
        let mut s = ColumnStore::new_in(2, pool.clone());
        s.push(&t2(&pool, "a", "b"));
        s.push(&t2(&pool, "c", "d"));
        let removed = s.kill(0);
        assert_eq!(removed.id(AttrId(0)), pool.intern(&Value::str("a")));
        assert!(!s.is_live(0));
        assert!(s.is_live(1));
        assert_eq!(s.live_slots().collect::<Vec<_>>(), vec![1]);
        // the column slice still covers the dead slot
        assert_eq!(s.column(AttrId(0)).len(), 2);
    }

    #[test]
    fn validity_bitmap_crosses_word_boundaries() {
        let pool = ValuePool::new_handle();
        let mut s = ColumnStore::new_in(1, pool.clone());
        for i in 0..130 {
            s.push(&Tuple::from_ids(vec![
                pool.intern(&Value::str(format!("v{i}")))
            ]));
        }
        s.kill(63);
        s.kill(64);
        s.kill(129);
        assert_eq!(s.live_slots().count(), 127);
        assert!(!s.is_live(63) && !s.is_live(64) && !s.is_live(129));
        assert!(s.is_live(62) && s.is_live(65) && s.is_live(128));
    }

    #[test]
    fn from_columns_marks_all_live() {
        let pool = ValuePool::new_handle();
        let cols = [
            [Value::str("a"), Value::str("b")],
            [Value::int(1), Value::int(2)],
        ]
        .iter()
        .map(|col| col.iter().map(|v| pool.intern(v)).collect())
        .collect();
        let s = ColumnStore::from_columns_in(cols, None, pool.clone());
        assert_eq!(s.slot_count(), 2);
        assert!(s.is_live(0) && s.is_live(1));
        assert!(!s.is_live(2));
        // A materialized `Tuple` resolves through the shared pool, so
        // compare ids, not values.
        assert_eq!(
            s.materialize(1).id(AttrId(0)),
            pool.intern(&Value::str("b"))
        );
    }

    #[test]
    fn row_ref_matches_tuple_api() {
        let pool = ValuePool::new_handle();
        let mut s = ColumnStore::new_in(2, pool.clone());
        let mut t = t2(&pool, "x", "y");
        t.set_weight(AttrId(1), 0.25);
        s.push(&t);
        let v = s.view(0).expect("live slot");
        assert_eq!(v.arity(), 2);
        assert_eq!(v.id(AttrId(0)), t.id(AttrId(0)));
        assert_eq!(v.value(AttrId(1)), Value::str("y"));
        assert_eq!(v.weight(AttrId(1)), 0.25);
        assert_eq!(v.total_weight(), t.total_weight());
        assert_eq!(
            v.project_key(&[AttrId(1), AttrId(0)]),
            t.project_key(&[AttrId(1), AttrId(0)])
        );
        assert_eq!(v.to_tuple(), t);
        assert!(v == t);
        assert!(v.agrees_on(&t, &[AttrId(0), AttrId(1)]));
        assert_eq!(v.attr_diff(&t2(&pool, "x", "z")), 1);
        assert!(s.view(1).is_none());
    }
}
