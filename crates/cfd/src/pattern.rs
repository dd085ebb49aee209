//! Pattern values and the match order `≼`.
//!
//! §2 of the paper defines `η1 ≼ η2` on data values and `_`: `η1 ≼ η2` iff
//! `η1 = η2`, or `η1` is a data value and `η2` is `_`. A data tuple *matches*
//! a pattern tuple when every attribute matches; per §3.1 a tuple containing
//! `null` among the compared attributes never matches (CFDs only apply to
//! tuples that precisely match a pattern, and patterns never contain null).
//!
//! Two representations exist side by side:
//!
//! * [`PatternValue`] carries the constant as a [`Value`] — the parse-time
//!   and analysis form (display, satisfiability).
//! * [`PatternId`] carries the constant as an interned [`ValueId`] — the
//!   match-time form. Constants are interned once when a CFD is loaded
//!   into a [`Sigma`](crate::Sigma), so the hot detection loop compares
//!   plain `u32`s.

use std::fmt;

use cfd_model::{AttrId, TupleView, Value, ValueId, ValuePool};

/// One cell of a pattern tuple: a constant or the unnamed variable `_`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PatternValue {
    /// The unnamed variable `_` ("don't care").
    Wildcard,
    /// A constant `a ∈ dom(A)`.
    Const(Value),
}

/// The interned form of a pattern cell — `Copy`, compared as integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PatternId {
    /// The unnamed variable `_`.
    Wildcard,
    /// An interned constant.
    Const(ValueId),
}

impl PatternValue {
    /// Shorthand for a string constant.
    pub fn constant(s: impl AsRef<str>) -> Self {
        PatternValue::Const(Value::str(s))
    }

    /// Is this the unnamed variable?
    pub fn is_wildcard(&self) -> bool {
        matches!(self, PatternValue::Wildcard)
    }

    /// The constant carried, if any.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            PatternValue::Wildcard => None,
            PatternValue::Const(v) => Some(v),
        }
    }

    /// Intern the constant (if any) into `pool`, producing the match-time
    /// form. Pattern constants are rule metadata, not data: they intern
    /// *uncounted* ([`ValuePool::intern_uncounted`]) so loading or
    /// re-loading rules can never perturb the occurrence counts that
    /// drive FINDV tie-breaks.
    pub fn to_id_in(&self, pool: &ValuePool) -> PatternId {
        match self {
            PatternValue::Wildcard => PatternId::Wildcard,
            PatternValue::Const(v) => PatternId::Const(pool.intern_uncounted(v)),
        }
    }

    /// Data-to-pattern matching `v ≼ self`. `null` matches nothing, not even
    /// `_` (§3.1 Remark 2). Value-level form; hot paths use
    /// [`PatternId::matches_id`].
    #[inline]
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            PatternValue::Wildcard => !v.is_null(),
            PatternValue::Const(c) => v == c,
        }
    }

    /// Right-hand-side satisfaction under the simple SQL null semantics:
    /// like [`PatternValue::matches`], but `null` *satisfies* any pattern.
    ///
    /// This is the comparison used when checking whether a (possibly
    /// repaired) RHS value is acceptable: a `null` written by the repairer
    /// means "uncertain" and cannot be contradicted (§4.1 case 2.3,
    /// Example 5.1 where `(null, null)` satisfies the constant CFD ϕ2).
    #[inline]
    pub fn satisfied_by(&self, v: &Value) -> bool {
        v.is_null() || self.matches(v)
    }

    /// Pattern-to-pattern order: `self ≼ other` (a constant is below the
    /// same constant and below `_`; `_` is below `_` only). Used to drop
    /// variable rows that a more general row of the same embedded FD
    /// already covers during detection.
    pub fn subsumed_by(&self, other: &PatternValue) -> bool {
        match (self, other) {
            (_, PatternValue::Wildcard) => true,
            (PatternValue::Const(a), PatternValue::Const(b)) => a == b,
            (PatternValue::Wildcard, PatternValue::Const(_)) => false,
        }
    }
}

impl PatternId {
    /// Is this the unnamed variable?
    #[inline]
    pub fn is_wildcard(self) -> bool {
        matches!(self, PatternId::Wildcard)
    }

    /// The interned constant, if any.
    #[inline]
    pub fn as_const_id(self) -> Option<ValueId> {
        match self {
            PatternId::Wildcard => None,
            PatternId::Const(id) => Some(id),
        }
    }

    /// Data-to-pattern matching `v ≼ self` on ids: a wildcard matches any
    /// non-null id, a constant matches exactly its own id (null can never
    /// equal a pattern constant — patterns never contain null).
    #[inline]
    pub fn matches_id(self, v: ValueId) -> bool {
        match self {
            PatternId::Wildcard => !v.is_null(),
            PatternId::Const(c) => v == c,
        }
    }

    /// RHS satisfaction on ids: `null` satisfies any pattern (it is
    /// "uncertain", not wrong), mirroring [`PatternValue::satisfied_by`].
    #[inline]
    pub fn satisfied_by_id(self, v: ValueId) -> bool {
        v.is_null() || self.matches_id(v)
    }
}

impl fmt::Display for PatternValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternValue::Wildcard => write!(f, "_"),
            PatternValue::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A pattern tuple over an LHS/RHS attribute split, e.g.
/// `(212, _ ‖ _, NYC, NY)`.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternRow {
    /// Patterns for the LHS attributes, positionally aligned with `X`.
    pub lhs: Vec<PatternValue>,
    /// Patterns for the RHS attributes, positionally aligned with `Y`.
    pub rhs: Vec<PatternValue>,
}

impl PatternRow {
    /// Build a row; panics on later use if lengths disagree with the CFD's
    /// attribute lists, which [`crate::cfd::Cfd::new`] validates.
    pub fn new(lhs: Vec<PatternValue>, rhs: Vec<PatternValue>) -> Self {
        PatternRow { lhs, rhs }
    }

    /// An all-wildcard row of the given arities — the encoding of a
    /// standard FD (§2, Fig. 2).
    pub fn all_wildcards(lhs_len: usize, rhs_len: usize) -> Self {
        PatternRow {
            lhs: vec![PatternValue::Wildcard; lhs_len],
            rhs: vec![PatternValue::Wildcard; rhs_len],
        }
    }
}

/// Does `t[attrs] ≼ pats` hold? (`null` anywhere among `t[attrs]` ⇒ no.)
/// Interned form: a run of integer comparisons.
#[inline]
pub fn tuple_matches<V: TupleView + ?Sized>(t: &V, attrs: &[AttrId], pats: &[PatternId]) -> bool {
    debug_assert_eq!(attrs.len(), pats.len());
    attrs
        .iter()
        .zip(pats.iter())
        .all(|(a, p)| p.matches_id(t.id(*a)))
}

/// Does a *projection* (already extracted ids, e.g. an index group key)
/// match the patterns?
#[inline]
pub fn ids_match(ids: &[ValueId], pats: &[PatternId]) -> bool {
    debug_assert_eq!(ids.len(), pats.len());
    ids.iter().zip(pats.iter()).all(|(v, p)| p.matches_id(*v))
}

/// Does a projection of *values* match the patterns? Value-level
/// convenience for tests and cold paths.
pub fn values_match(vals: &[Value], pats: &[PatternValue]) -> bool {
    debug_assert_eq!(vals.len(), pats.len());
    vals.iter().zip(pats.iter()).all(|(v, p)| p.matches(v))
}

/// Intern a pattern slice into `pool`, uncounted.
pub fn intern_patterns_in(pats: &[PatternValue], pool: &ValuePool) -> Vec<PatternId> {
    pats.iter().map(|p| p.to_id_in(pool)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::Tuple;

    #[test]
    fn wildcard_matches_constants_not_null() {
        let w = PatternValue::Wildcard;
        assert!(w.matches(&Value::str("NYC")));
        assert!(w.matches(&Value::int(5)));
        assert!(!w.matches(&Value::Null));
    }

    #[test]
    fn constant_matches_exactly() {
        let p = PatternValue::constant("212");
        assert!(p.matches(&Value::str("212")));
        assert!(!p.matches(&Value::str("215")));
        assert!(!p.matches(&Value::Null));
        assert!(!p.matches(&Value::int(212))); // typed values stay distinct
    }

    #[test]
    fn id_form_agrees_with_value_form() {
        let pats = [
            PatternValue::Wildcard,
            PatternValue::constant("212"),
            PatternValue::Const(Value::int(212)),
        ];
        let vals = [
            Value::Null,
            Value::str("212"),
            Value::int(212),
            Value::str("NYC"),
        ];
        let pool = ValuePool::new();
        for p in &pats {
            let pid = p.to_id_in(&pool);
            for v in &vals {
                let id = pool.intern(v);
                assert_eq!(pid.matches_id(id), p.matches(v), "{p} vs {v}");
                assert_eq!(pid.satisfied_by_id(id), p.satisfied_by(v), "{p} vs {v}");
            }
        }
    }

    #[test]
    fn satisfied_by_lets_null_through() {
        let p = PatternValue::constant("NYC");
        assert!(p.satisfied_by(&Value::Null));
        assert!(p.satisfied_by(&Value::str("NYC")));
        assert!(!p.satisfied_by(&Value::str("PHI")));
        assert!(PatternValue::Wildcard.satisfied_by(&Value::Null));
    }

    #[test]
    fn subsumption_order() {
        let c = PatternValue::constant("a");
        let c2 = PatternValue::constant("b");
        let w = PatternValue::Wildcard;
        assert!(c.subsumed_by(&w));
        assert!(c.subsumed_by(&c));
        assert!(!c.subsumed_by(&c2));
        assert!(w.subsumed_by(&w));
        assert!(!w.subsumed_by(&c));
    }

    #[test]
    fn paper_example_order_on_tuples() {
        // (Walnut, NYC, NY) ≼ (_, NYC, NY) but not ≼ (_, PHI, _)
        let pool = ValuePool::new();
        let t = Tuple::new_in(["Walnut", "NYC", "NY"], &pool);
        let attrs = [AttrId(0), AttrId(1), AttrId(2)];
        let p1 = intern_patterns_in(
            &[
                PatternValue::Wildcard,
                PatternValue::constant("NYC"),
                PatternValue::constant("NY"),
            ],
            &pool,
        );
        let p2 = intern_patterns_in(
            &[
                PatternValue::Wildcard,
                PatternValue::constant("PHI"),
                PatternValue::Wildcard,
            ],
            &pool,
        );
        assert!(tuple_matches(&t, &attrs, &p1));
        assert!(!tuple_matches(&t, &attrs, &p2));
    }

    #[test]
    fn null_in_tuple_blocks_match() {
        let pool = ValuePool::new();
        let t = Tuple::new_in([Value::Null, Value::str("NYC")], &pool);
        let attrs = [AttrId(0), AttrId(1)];
        let pats = intern_patterns_in(
            &[PatternValue::Wildcard, PatternValue::constant("NYC")],
            &pool,
        );
        assert!(!tuple_matches(&t, &attrs, &pats));
    }

    #[test]
    fn ids_match_on_projections() {
        let pool = ValuePool::new();
        let id = |s: &str| pool.intern(&Value::str(s));
        let ids = [id("212"), id("5551234")];
        let pats = intern_patterns_in(
            &[PatternValue::constant("212"), PatternValue::Wildcard],
            &pool,
        );
        assert!(ids_match(&ids, &pats));
        let other = [id("610"), id("5551234")];
        assert!(!ids_match(&other, &pats));
    }

    #[test]
    fn values_match_on_projections() {
        let vals = [Value::str("212"), Value::str("5551234")];
        let pats = [PatternValue::constant("212"), PatternValue::Wildcard];
        assert!(values_match(&vals, &pats));
        assert!(!values_match(
            &[Value::str("610"), Value::str("5551234")],
            &pats
        ));
    }

    #[test]
    fn all_wildcards_encodes_fd() {
        let row = PatternRow::all_wildcards(2, 3);
        assert_eq!(row.lhs.len(), 2);
        assert_eq!(row.rhs.len(), 3);
        assert!(row.lhs.iter().all(PatternValue::is_wildcard));
    }

    #[test]
    fn display_forms() {
        assert_eq!(PatternValue::Wildcard.to_string(), "_");
        assert_eq!(PatternValue::constant("NYC").to_string(), "NYC");
    }
}
