//! The cost model of §3.2.
//!
//! The cost of changing `t[A]` from `v` to `v'` is
//!
//! ```text
//! cost(v, v') = w(t, A) · dis(v, v') / max(|v|, |v'|)
//! ```
//!
//! — the more accurate the original value (high weight) and the more
//! distant the new value, the more expensive the change. Tuple and repair
//! costs sum over modified attributes / tuples. The model guides every
//! greedy choice in both repair algorithms; in the absence of weight
//! information all weights are 1 and violation counts take over.

use std::sync::Arc;

use cfd_model::{AttrId, Relation, RowRef, TupleId, Value, ValueId};

use crate::distance::{normalized_distance, DistanceCache};

/// `cost(v, v')` for one attribute of one tuple, given the attribute's
/// confidence weight.
#[inline]
pub fn change_cost(weight: f64, from: &Value, to: &Value) -> f64 {
    if from == to {
        return 0.0;
    }
    weight * normalized_distance(from, to)
}

/// [`change_cost`] on interned ids, memoized through `cache`. The hot
/// pricing loops of both repair algorithms use this form: the `dis(v, v')`
/// string computation happens at most once per distinct id pair.
#[inline]
pub fn change_cost_ids(weight: f64, from: ValueId, to: ValueId, cache: &mut DistanceCache) -> f64 {
    if from == to {
        return 0.0;
    }
    weight * cache.normalized(from, to)
}

/// Cost of changing tuple `t` into `t'` (same schema): the sum of
/// per-attribute change costs over modified attributes, using `t`'s
/// weights.
///
/// Compares resolved *values*, not raw ids: each side resolves through
/// its own relation's pool, so the comparison stays correct when `t` and
/// `t_new` live in differently-scoped databases (e.g. a repair written to
/// CSV and re-loaded into a fresh pool).
pub fn tuple_cost(t: &RowRef<'_>, t_new: &RowRef<'_>) -> f64 {
    debug_assert_eq!(t.arity(), t_new.arity());
    let mut total = 0.0;
    for i in 0..t.arity() {
        let a = AttrId(i as u16);
        let (from, to) = (t.value(a), t_new.value(a));
        if from != to {
            total += t.weight(a) * normalized_distance(&from, &to);
        }
    }
    total
}

/// `cost(Repr, D)`: total cost of a repair relative to the original.
/// Relations must share tuple ids; tuples missing on either side are
/// ignored (repairs by value modification never add or remove tuples).
///
/// When both relations intern into one pool, ids compare like values
/// (interning is injective), so cells are compared as ids and only the
/// changed ones are resolved and priced. The sum is taken in the same
/// order as [`tuple_cost`] per tuple, so the result is bit-identical to
/// the value path, which relations in different pools still take.
pub fn repair_cost(original: &Relation, repair: &Relation) -> f64 {
    if !Arc::ptr_eq(original.pool(), repair.pool()) {
        let mut total = 0.0;
        for (id, t) in original.iter() {
            if let Some(t_new) = repair.tuple(id) {
                total += tuple_cost(&t, &t_new);
            }
        }
        return total;
    }
    let pool = original.pool();
    let arity = original.schema().arity();
    let mut total = 0.0;
    for (id, t) in original.iter() {
        let Some(t_new) = repair.tuple(id) else {
            continue;
        };
        let mut tuple_total = 0.0;
        for i in 0..arity {
            let a = AttrId(i as u16);
            let (from, to) = (t.id(a), t_new.id(a));
            if from != to {
                let (from, to) = (pool.resolve(from), pool.resolve(to));
                tuple_total += t.weight(a) * normalized_distance(&from, &to);
            }
        }
        total += tuple_total;
    }
    total
}

/// The aggregate `Cost(t, B, v)` of §4.2 for a set of equivalence-class
/// members: `Σ_{(t', C) ∈ eq(t, B)} w(t', C) · cost(v, t'[C])`. The caller
/// supplies the members' current values and weights; this helper keeps the
/// arithmetic in one place.
pub fn class_assign_cost<'a, I>(members: I, v: &Value) -> f64
where
    I: IntoIterator<Item = (f64, &'a Value)>,
{
    members
        .into_iter()
        .map(|(w, old)| change_cost(w, old, v))
        .sum()
}

/// [`class_assign_cost`] on interned ids, memoized through `cache`.
pub fn class_assign_cost_ids<I>(members: I, v: ValueId, cache: &mut DistanceCache) -> f64
where
    I: IntoIterator<Item = (f64, ValueId)>,
{
    members
        .into_iter()
        .map(|(w, old)| change_cost_ids(w, old, v, cache))
        .sum()
}

/// [`class_assign_cost_ids`] for a whole candidate set at once — the
/// target-major form `FINDV` prices with. Each member's original value is
/// prepared once ([`DistanceCache::normalized_batch`]) and priced against
/// every candidate; per-candidate sums accumulate in member order from
/// `0.0`, the same addition sequence as `|v| class_assign_cost_ids(…, v)`
/// per candidate, so every result is bit-identical to the per-pair path.
pub fn class_assign_cost_ids_batch(
    members: &[(f64, ValueId)],
    candidates: &[ValueId],
    cache: &mut DistanceCache,
) -> Vec<f64> {
    let mut costs = vec![0.0f64; candidates.len()];
    for &(w, old) in members {
        let ds = cache.normalized_batch(old, candidates);
        for (c, (&cand, d)) in costs.iter_mut().zip(candidates.iter().zip(ds)) {
            *c += if old == cand { 0.0 } else { w * d };
        }
    }
    costs
}

/// Convenience: evaluate the cost of an in-place single-attribute change in
/// a relation.
pub fn cell_change_cost(rel: &Relation, id: TupleId, a: AttrId, to: &Value) -> f64 {
    match rel.tuple(id) {
        Some(t) => change_cost(t.weight(a), &t.value(a), to),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::{Schema, Tuple, ValuePool};

    #[test]
    fn identical_change_is_free() {
        assert_eq!(
            change_cost(0.9, &Value::str("PHI"), &Value::str("PHI")),
            0.0
        );
    }

    #[test]
    fn weight_scales_cost() {
        let full = change_cost(1.0, &Value::str("PHI"), &Value::str("NYC"));
        let tenth = change_cost(0.1, &Value::str("PHI"), &Value::str("NYC"));
        assert!((full - 1.0).abs() < 1e-12);
        assert!((tenth - 0.1).abs() < 1e-12);
    }

    #[test]
    fn example_3_1_option_costs() {
        // Option (1): change t3[CT,ST] = (PHI, PA) → (NYC, NY), weights 0.1.
        // cost = 3/3·0.1 + 2/2·0.1 = 0.2 (paper rounds both terms to 0.1).
        let opt1 = change_cost(0.1, &Value::str("PHI"), &Value::str("NYC"))
            + change_cost(0.1, &Value::str("PA"), &Value::str("NY"));
        assert!((opt1 - 0.2).abs() < 1e-9);
        // Option (2): zip 10012→19014 (w=0.8), AC 212→215 (w=0.9):
        // 3/5·0.8 + 1/3·0.9 = 0.78 — like the paper's 0.6, clearly worse
        // than option (1). (The paper's arithmetic uses dis values 1/3 and
        // 2/5; either way option (1) wins, which is what the model must
        // deliver.)
        let opt2 = change_cost(0.8, &Value::str("10012"), &Value::str("19014"))
            + change_cost(0.9, &Value::str("212"), &Value::str("215"));
        assert!(opt2 > opt1);
    }

    #[test]
    fn tuple_cost_sums_changed_attrs_only() {
        let schema = Schema::new("r", &["a", "b", "c"]).unwrap();
        let mut d = Relation::new_in(schema, ValuePool::new_handle());
        let t = d
            .insert(Tuple::new_in(["PHI", "PA", "10012"], d.pool()))
            .unwrap();
        d.set_weights(t, &[0.1, 0.1, 1.0]).unwrap();
        // the changed copy lives in a pool of its own
        let mut r = Relation::new_in(d.schema().clone(), ValuePool::new_handle());
        let t2 = r
            .insert(Tuple::new_in(["NYC", "NY", "10012"], r.pool()))
            .unwrap();
        let c = tuple_cost(&d.tuple(t).unwrap(), &r.tuple(t2).unwrap());
        assert!((c - 0.2).abs() < 1e-9);
        assert!((repair_cost(&d, &r) - c).abs() < 1e-12);
    }

    #[test]
    fn repair_cost_over_relation() {
        let schema = Schema::new("r", &["a"]).unwrap();
        let mut d = Relation::new_in(schema, ValuePool::new_handle());
        let id = d.insert(Tuple::new_in(["PHI"], d.pool())).unwrap();
        let mut r = d.clone();
        r.set_value(id, AttrId(0), Value::str("NYC")).unwrap();
        assert!((repair_cost(&d, &r) - 1.0).abs() < 1e-12);
        assert_eq!(repair_cost(&d, &d.clone()), 0.0);
    }

    #[test]
    fn class_assign_cost_sums_members() {
        let old1 = Value::str("PHI");
        let old2 = Value::str("NYC");
        let v = Value::str("NYC");
        let c = class_assign_cost([(0.5, &old1), (0.9, &old2)], &v);
        assert!((c - 0.5).abs() < 1e-12); // second member already equal
    }

    #[test]
    fn null_assignment_costs_full_weight() {
        // changing to null is maximally distant: cost = weight
        let c = change_cost(0.7, &Value::str("anything"), &Value::Null);
        assert!((c - 0.7).abs() < 1e-12);
    }
}
