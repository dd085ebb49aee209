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
//! Values are stored as [`ValueId`]s interned in a
//! [`ValuePool`](crate::pool::ValuePool): comparisons, projections and
//! index keys are integer operations. A `Tuple` is a *pool-agnostic id
//! carrier* — it records which pool its ids came from nowhere; the owner
//! (normally the [`Relation`](crate::relation::Relation) it lives in)
//! knows. The value-level conveniences here ([`Tuple::new`],
//! [`Tuple::value`], [`Tuple::values`]) are compatibility shims that go
//! through the process-default shared pool; dataset-scoped code interns
//! through its own pool and builds tuples with [`Tuple::from_ids`].

use crate::key::IdKey;
use crate::pool::{ValueId, NULL_ID};
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

    /// The value of attribute `a`, resolved through the view's own pool
    /// when it carries one ([`RowRef`](crate::storage::RowRef) does).
    /// The default resolves through the process-default shared pool —
    /// all an owned [`Tuple`] knows; views scoped to a dataset pool
    /// override this.
    fn value(&self, a: AttrId) -> Value {
        self.id(a).value()
    }

    /// The pool this view's ids belong to. The default is the
    /// process-default shared pool — all an owned [`Tuple`] knows;
    /// views scoped to a dataset pool override this.
    fn pool(&self) -> &crate::pool::ValuePool {
        crate::pool::ValuePool::shared_ref()
    }

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
    /// Build a tuple with all weights set to 1 (no confidence information),
    /// interning every value in the process-default shared pool
    /// (compatibility shim; scoped code interns into its own pool and
    /// uses [`Tuple::from_ids`]).
    pub fn new(values: Vec<Value>) -> Self {
        let ids = values.iter().map(ValueId::of).collect::<Vec<_>>();
        let weights = vec![1.0; ids.len()];
        Tuple { ids, weights }
    }

    /// Build a tuple directly from interned ids, all weights 1.
    pub fn from_ids(ids: Vec<ValueId>) -> Self {
        let weights = vec![1.0; ids.len()];
        Tuple { ids, weights }
    }

    /// Build a tuple with explicit weights.
    ///
    /// # Panics
    /// Panics if `values` and `weights` lengths differ — callers construct
    /// both from the same schema so a mismatch is a programming error.
    pub fn with_weights(values: Vec<Value>, weights: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            weights.len(),
            "values/weights length mismatch"
        );
        let ids = values.iter().map(ValueId::of).collect();
        Tuple { ids, weights }
    }

    /// Convenience constructor from anything convertible to [`Value`].
    #[allow(clippy::should_implement_trait)] // fallible trait impl would hide the panic-free path
    pub fn from_iter<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Tuple::new(values.into_iter().map(Into::into).collect())
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

    /// The value of attribute `a`, i.e. `t[A]`, resolved from the
    /// process-default shared pool (shim — pool-scoped callers resolve
    /// the id through the owning pool instead). Cheap (an `Arc` clone),
    /// but prefer [`Tuple::id`] for comparisons.
    #[inline]
    pub fn value(&self, a: AttrId) -> Value {
        self.ids[a.index()].value()
    }

    /// Is `t[A]` null? A single integer comparison.
    #[inline]
    pub fn is_null(&self, a: AttrId) -> bool {
        self.ids[a.index()].is_null()
    }

    /// Overwrite the value of attribute `a`, interning it.
    #[inline]
    pub fn set_value(&mut self, a: AttrId, v: Value) {
        self.ids[a.index()] = ValueId::of(&v);
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

    /// All values in schema order, resolved from the process-default
    /// shared pool (shim — see [`Tuple::value`]). Allocates; for
    /// display, CSV export and other cold paths.
    pub fn values(&self) -> Vec<Value> {
        self.ids.iter().map(|id| id.value()).collect()
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

    fn t(vals: &[&str]) -> Tuple {
        Tuple::from_iter(vals.iter().copied())
    }

    #[test]
    fn new_defaults_weights_to_one() {
        let tup = t(&["a23", "H. Porter"]);
        assert_eq!(tup.weight(AttrId(0)), 1.0);
        assert_eq!(tup.weight(AttrId(1)), 1.0);
        assert_eq!(tup.total_weight(), 2.0);
    }

    #[test]
    fn set_weight_clamps() {
        let mut tup = t(&["x"]);
        tup.set_weight(AttrId(0), 1.5);
        assert_eq!(tup.weight(AttrId(0)), 1.0);
        tup.set_weight(AttrId(0), -0.2);
        assert_eq!(tup.weight(AttrId(0)), 0.0);
        tup.set_weight(AttrId(0), 0.35);
        assert_eq!(tup.weight(AttrId(0)), 0.35);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn with_weights_checks_length() {
        Tuple::with_weights(vec![Value::str("a")], vec![0.5, 0.5]);
    }

    #[test]
    fn value_get_set() {
        let mut tup = t(&["212", "PHI"]);
        assert_eq!(tup.value(AttrId(1)), Value::str("PHI"));
        tup.set_value(AttrId(1), Value::str("NYC"));
        assert_eq!(tup.value(AttrId(1)), Value::str("NYC"));
        assert_eq!(tup.id(AttrId(1)), ValueId::of(&Value::str("NYC")));
    }

    #[test]
    fn ids_round_trip_through_pool() {
        let tup = t(&["212", "PHI"]);
        let ids = tup.ids().to_vec();
        let back = Tuple::from_ids(ids);
        assert_eq!(back.value(AttrId(0)), Value::str("212"));
        assert_eq!(back, tup);
    }

    #[test]
    fn project_and_agrees() {
        let a = t(&["212", "3345677", "PHI"]);
        let b = t(&["212", "9999999", "PHI"]);
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
        let mut a = t(&["212", "PHI"]);
        let b = t(&["212", "NYC"]);
        assert!(!a.sql_agrees_on(&b, &[AttrId(1)]));
        a.set_value(AttrId(1), Value::Null);
        assert!(a.is_null(AttrId(1)));
        assert!(a.sql_agrees_on(&b, &[AttrId(1)]));
        // strict agreement still fails
        assert!(!a.agrees_on(&b, &[AttrId(1)]));
    }

    #[test]
    fn attr_diff_counts_positions() {
        let a = t(&["212", "3345677", "PHI", "PA"]);
        let b = t(&["212", "3345677", "NYC", "NY"]);
        assert_eq!(a.attr_diff(&b), 2);
        assert_eq!(a.attr_diff(&a), 0);
    }

    #[test]
    fn null_out_deletes() {
        let mut a = t(&["x", "y"]);
        assert!(!a.is_nulled());
        a.null_out();
        assert!(a.is_nulled());
        assert_eq!(a.value(AttrId(0)), Value::Null);
        assert_eq!(a.id(AttrId(0)), NULL_ID);
    }
}
