//! Tuples: dictionary-encoded attribute values plus per-attribute
//! confidence weights.
//!
//! Following the practice of US national statistical agencies adopted by the
//! paper (§3.2), every attribute of every tuple carries a weight
//! `w(t, A) ∈ [0, 1]` reflecting the user's confidence in that value. When no
//! weight information is available all weights default to 1 and the repair
//! algorithms fall back to violation counts for guidance — exactly the
//! degenerate mode the paper evaluates.
//!
//! Values are stored as [`ValueId`]s interned in a [`ValuePool`]:
//! comparisons, projections and index keys are integer operations. A
//! `Tuple` is a *pool-agnostic id carrier* — it records which pool its ids
//! came from nowhere; the owner (normally the
//! [`Relation`](crate::relation::Relation) it lives in) knows, so every
//! value-level read or write goes through that pool. [`Tuple::new_in`]
//! interns values into a named pool; [`Tuple::from_ids`] takes ids
//! already interned.

use crate::key::IdKey;
use crate::pool::{ValueId, ValuePool, NULL_ID};
use crate::schema::AttrId;
use crate::value::Value;

/// Read access to one tuple's cells, independent of how the tuple is
/// stored.
///
/// Implemented by the owned [`Tuple`] and by the zero-copy
/// [`RowRef`](crate::storage::RowRef) views into relation storage.
/// Pattern matching, index keying, and LHS-index probes are generic over
/// this trait so they run identically on materialized tuples (repair
/// candidates) and on storage views (scans).
pub trait TupleView {
    /// Tuple arity.
    fn arity(&self) -> usize;
    /// The interned id of attribute `a` — `t[A]` in id form.
    fn id(&self, a: AttrId) -> ValueId;
    /// The confidence weight `w(t, A)`.
    fn weight(&self, a: AttrId) -> f64;

    /// Is `t[A]` null?
    #[inline]
    fn is_null(&self, a: AttrId) -> bool {
        self.id(a).is_null()
    }

    /// Project onto an attribute list as an id key.
    #[inline]
    fn project_key(&self, attrs: &[AttrId]) -> IdKey {
        attrs.iter().map(|a| self.id(*a)).collect()
    }

    /// Materialize into an owned [`Tuple`].
    fn to_tuple(&self) -> Tuple {
        let ids = (0..self.arity() as u16)
            .map(|a| self.id(AttrId(a)))
            .collect();
        let mut t = Tuple::from_ids(ids);
        for a in 0..self.arity() as u16 {
            t.set_weight(AttrId(a), self.weight(AttrId(a)));
        }
        t
    }
}

impl TupleView for Tuple {
    #[inline]
    fn arity(&self) -> usize {
        Tuple::arity(self)
    }

    #[inline]
    fn id(&self, a: AttrId) -> ValueId {
        Tuple::id(self, a)
    }

    #[inline]
    fn weight(&self, a: AttrId) -> f64 {
        Tuple::weight(self, a)
    }

    fn to_tuple(&self) -> Tuple {
        self.clone()
    }
}

/// A single tuple: interned value ids and confidence weights, both in
/// schema order.
#[derive(Clone, Debug, PartialEq)]
pub struct Tuple {
    ids: Vec<ValueId>,
    weights: Vec<f64>,
}

impl Tuple {
    /// Build a tuple with all weights set to 1 (no confidence
    /// information), interning every value into `pool` through the
    /// counted path: the values become occurrences of that pool's
    /// dataset.
    pub fn new_in<I, V>(values: I, pool: &ValuePool) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let ids = values.into_iter().map(|v| pool.intern(&v.into())).collect();
        Tuple::from_ids(ids)
    }

    /// Build a tuple directly from interned ids, all weights 1.
    pub fn from_ids(ids: Vec<ValueId>) -> Self {
        let weights = vec![1.0; ids.len()];
        Tuple { ids, weights }
    }

    /// Tuple arity.
    pub fn arity(&self) -> usize {
        self.ids.len()
    }

    /// The interned id of attribute `a` — the hot-path form of `t[A]`.
    #[inline]
    pub fn id(&self, a: AttrId) -> ValueId {
        self.ids[a.index()]
    }

    /// Is `t[A]` null? A single integer comparison.
    #[inline]
    pub fn is_null(&self, a: AttrId) -> bool {
        self.ids[a.index()].is_null()
    }

    /// Overwrite the value of attribute `a` with an already-interned id.
    #[inline]
    pub fn set_id(&mut self, a: AttrId, id: ValueId) {
        self.ids[a.index()] = id;
    }

    /// The confidence weight `w(t, A)`.
    #[inline]
    pub fn weight(&self, a: AttrId) -> f64 {
        self.weights[a.index()]
    }

    /// Set the confidence weight `w(t, A)`; clamped into `[0, 1]`.
    pub fn set_weight(&mut self, a: AttrId, w: f64) {
        self.weights[a.index()] = w.clamp(0.0, 1.0);
    }

    /// The total weight `wt(t) = Σ_A w(t, A)` used by the W-INCREPAIR
    /// ordering (§5.2).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// All value ids in schema order.
    pub fn ids(&self) -> &[ValueId] {
        &self.ids
    }

    /// All weights in schema order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Project onto an attribute list as an id key — the hash-index and
    /// LHS-index key form. No allocation for up to four attributes.
    #[inline]
    pub fn project_key(&self, attrs: &[AttrId]) -> IdKey {
        attrs.iter().map(|a| self.id(*a)).collect()
    }

    /// Project onto an attribute list as raw ids.
    pub fn project_ids(&self, attrs: &[AttrId]) -> Vec<ValueId> {
        attrs.iter().map(|a| self.id(*a)).collect()
    }

    /// Do `self` and `other` agree on every attribute in `attrs` under
    /// *strict* equality? (Index keys and grouping use this.)
    pub fn agrees_on(&self, other: &Tuple, attrs: &[AttrId]) -> bool {
        attrs.iter().all(|a| self.id(*a) == other.id(*a))
    }

    /// Do `self` and `other` agree on `attrs` under the paper's simple SQL
    /// null semantics (`null` equals anything)?
    pub fn sql_agrees_on(&self, other: &Tuple, attrs: &[AttrId]) -> bool {
        attrs.iter().all(|a| self.id(*a).sql_eq(other.id(*a)))
    }

    /// Number of attributes on which two tuples of the same schema differ
    /// (strict semantics). This is the per-tuple contribution to
    /// `dif(D1, D2)`.
    pub fn attr_diff(&self, other: &Tuple) -> usize {
        debug_assert_eq!(self.arity(), other.arity());
        self.ids
            .iter()
            .zip(other.ids.iter())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// "Delete" the tuple by nulling every attribute (§3.1, Remark 4).
    pub fn null_out(&mut self) {
        for id in &mut self.ids {
            *id = NULL_ID;
        }
    }

    /// True when every attribute is `null`, i.e. the tuple was logically
    /// deleted.
    pub fn is_nulled(&self) -> bool {
        self.ids.iter().all(|id| id.is_null())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(pool: &ValuePool, vals: &[&str]) -> Tuple {
        Tuple::new_in(vals.iter().copied(), pool)
    }

    #[test]
    fn new_defaults_weights_to_one() {
        let pool = ValuePool::new();
        let tup = t(&pool, &["a23", "H. Porter"]);
        assert_eq!(tup.weight(AttrId(0)), 1.0);
        assert_eq!(tup.weight(AttrId(1)), 1.0);
        assert_eq!(tup.total_weight(), 2.0);
    }

    #[test]
    fn new_in_interns_counted_occurrences() {
        let pool = ValuePool::new();
        let a = t(&pool, &["x", "y"]);
        let b = t(&pool, &["x", "z"]);
        assert_eq!(a.id(AttrId(0)), b.id(AttrId(0)));
        assert_eq!(pool.resolve(a.id(AttrId(1))), Value::str("y"));
        assert_eq!(pool.use_count(a.id(AttrId(0))), 2);
        assert_eq!(pool.use_count(b.id(AttrId(1))), 1);
        let n = Tuple::new_in([Value::Null, Value::int(3)], &pool);
        assert!(n.is_null(AttrId(0)));
        assert_eq!(pool.resolve(n.id(AttrId(1))), Value::int(3));
    }

    #[test]
    fn set_weight_clamps() {
        let pool = ValuePool::new();
        let mut tup = t(&pool, &["x"]);
        tup.set_weight(AttrId(0), 1.5);
        assert_eq!(tup.weight(AttrId(0)), 1.0);
        tup.set_weight(AttrId(0), -0.2);
        assert_eq!(tup.weight(AttrId(0)), 0.0);
        tup.set_weight(AttrId(0), 0.35);
        assert_eq!(tup.weight(AttrId(0)), 0.35);
    }

    #[test]
    fn id_get_set() {
        let pool = ValuePool::new();
        let mut tup = t(&pool, &["212", "PHI"]);
        assert_eq!(pool.resolve(tup.id(AttrId(1))), Value::str("PHI"));
        let nyc = pool.intern(&Value::str("NYC"));
        tup.set_id(AttrId(1), nyc);
        assert_eq!(tup.id(AttrId(1)), nyc);
    }

    #[test]
    fn ids_round_trip() {
        let pool = ValuePool::new();
        let tup = t(&pool, &["212", "PHI"]);
        let back = Tuple::from_ids(tup.ids().to_vec());
        assert_eq!(pool.resolve(back.id(AttrId(0))), Value::str("212"));
        assert_eq!(back, tup);
    }

    #[test]
    fn project_and_agrees() {
        let pool = ValuePool::new();
        let a = t(&pool, &["212", "3345677", "PHI"]);
        let b = t(&pool, &["212", "9999999", "PHI"]);
        let attrs = [AttrId(0), AttrId(2)];
        assert_eq!(
            a.project_key(&attrs).as_slice(),
            &[a.id(AttrId(0)), a.id(AttrId(2))]
        );
        assert!(a.agrees_on(&b, &attrs));
        assert!(!a.agrees_on(&b, &[AttrId(1)]));
    }

    #[test]
    fn sql_agrees_with_null() {
        let pool = ValuePool::new();
        let mut a = t(&pool, &["212", "PHI"]);
        let b = t(&pool, &["212", "NYC"]);
        assert!(!a.sql_agrees_on(&b, &[AttrId(1)]));
        a.set_id(AttrId(1), NULL_ID);
        assert!(a.is_null(AttrId(1)));
        assert!(a.sql_agrees_on(&b, &[AttrId(1)]));
        // strict agreement still fails
        assert!(!a.agrees_on(&b, &[AttrId(1)]));
    }

    #[test]
    fn attr_diff_counts_positions() {
        let pool = ValuePool::new();
        let a = t(&pool, &["212", "3345677", "PHI", "PA"]);
        let b = t(&pool, &["212", "3345677", "NYC", "NY"]);
        assert_eq!(a.attr_diff(&b), 2);
        assert_eq!(a.attr_diff(&a), 0);
    }

    #[test]
    fn null_out_deletes() {
        let pool = ValuePool::new();
        let mut a = t(&pool, &["x", "y"]);
        assert!(!a.is_nulled());
        a.null_out();
        assert!(a.is_nulled());
        assert_eq!(a.id(AttrId(0)), NULL_ID);
    }
}
