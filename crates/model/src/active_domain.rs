//! Active domains: `adom(A, D)`.
//!
//! When a repair modifies `t[A]` it "either draws its value from
//! `adom(A, D)` … or uses the special value `null`" (§3.1) — the algorithms
//! never invent new constants. [`ActiveDomain`] maintains, per attribute,
//! the multiset of non-null constants currently present in a relation, with
//! reference counts so that updates keep the domain exact rather than
//! append-only.
//!
//! The candidate pools are stored as interned [`ValueId`]s: membership
//! tests and frequency lookups hash a `u32`, and the repair algorithms
//! move candidate ids around without touching the pool until the final
//! distance computation.
//!
//! The structure itself is pool-agnostic — it stores whatever ids the
//! caller feeds it. The *value*-level conveniences (`add`, `remove`,
//! `update`, `contains`, `frequency`, `values`, `sorted_values`)
//! translate through the process-default shared pool via
//! [`ValueId::of`] / [`ValueId::value`]; for a relation on a
//! dataset-scoped pool, use the `_id` variants with ids from that pool.

use crate::hash::FnvMap;
use crate::pool::ValueId;
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::value::Value;

/// Per-attribute multiset of the non-null constants occurring in a
/// relation, keyed by interned id.
#[derive(Clone, Debug, Default)]
pub struct ActiveDomain {
    per_attr: Vec<FnvMap<ValueId, usize>>,
}

impl ActiveDomain {
    /// Build the active domain of every attribute of `rel` in one scan.
    pub fn of_relation(rel: &Relation) -> Self {
        let mut per_attr: Vec<FnvMap<ValueId, usize>> =
            vec![FnvMap::default(); rel.schema().arity()];
        for (_, t) in rel.iter() {
            for a in rel.schema().attr_ids() {
                let id = t.id(a);
                if !id.is_null() {
                    *per_attr[a.index()].entry(id).or_insert(0) += 1;
                }
            }
        }
        ActiveDomain { per_attr }
    }

    /// An empty domain for a relation of the given arity.
    pub fn with_arity(arity: usize) -> Self {
        ActiveDomain {
            per_attr: vec![FnvMap::default(); arity],
        }
    }

    /// Record one occurrence of the interned `id` in attribute `a`
    /// (no-op for null).
    pub fn add_id(&mut self, a: AttrId, id: ValueId) {
        if !id.is_null() {
            *self.per_attr[a.index()].entry(id).or_insert(0) += 1;
        }
    }

    /// Record one occurrence of `v` in attribute `a` (no-op for null).
    pub fn add(&mut self, a: AttrId, v: &Value) {
        self.add_id(a, ValueId::of(v));
    }

    /// Remove one occurrence of `id` from attribute `a` (no-op for null or
    /// absent values).
    pub fn remove_id(&mut self, a: AttrId, id: ValueId) {
        if id.is_null() {
            return;
        }
        if let Some(count) = self.per_attr[a.index()].get_mut(&id) {
            *count -= 1;
            if *count == 0 {
                self.per_attr[a.index()].remove(&id);
            }
        }
    }

    /// Remove one occurrence of `v` from attribute `a`.
    pub fn remove(&mut self, a: AttrId, v: &Value) {
        self.remove_id(a, ValueId::of(v));
    }

    /// Record an in-place update `old → new` of attribute `a`.
    pub fn update_id(&mut self, a: AttrId, old: ValueId, new: ValueId) {
        if old == new {
            return;
        }
        self.remove_id(a, old);
        self.add_id(a, new);
    }

    /// Record an in-place update `old → new` of attribute `a`.
    pub fn update(&mut self, a: AttrId, old: &Value, new: &Value) {
        self.update_id(a, ValueId::of(old), ValueId::of(new));
    }

    /// Does `id` occur in `adom(a, D)`?
    pub fn contains_id(&self, a: AttrId, id: ValueId) -> bool {
        self.per_attr[a.index()].contains_key(&id)
    }

    /// Does `v` occur in `adom(a, D)`?
    pub fn contains(&self, a: AttrId, v: &Value) -> bool {
        self.contains_id(a, ValueId::of(v))
    }

    /// Number of occurrences of `id` in attribute `a` — the frequency
    /// signal behind the most-common-value flavour of `FINDV`.
    pub fn frequency_id(&self, a: AttrId, id: ValueId) -> usize {
        self.per_attr[a.index()].get(&id).copied().unwrap_or(0)
    }

    /// Number of occurrences of `v` in attribute `a`.
    pub fn frequency(&self, a: AttrId, v: &Value) -> usize {
        self.frequency_id(a, ValueId::of(v))
    }

    /// Number of distinct constants in `adom(a, D)`.
    pub fn distinct(&self, a: AttrId) -> usize {
        self.per_attr[a.index()].len()
    }

    /// Iterate over the distinct interned constants of attribute `a` with
    /// their frequencies. Order is unspecified.
    pub fn ids(&self, a: AttrId) -> impl Iterator<Item = (ValueId, usize)> + '_ {
        self.per_attr[a.index()].iter().map(|(id, c)| (*id, *c))
    }

    /// Iterate over the distinct constants of attribute `a` with their
    /// frequencies, resolved. Order is unspecified.
    pub fn values(&self, a: AttrId) -> impl Iterator<Item = (Value, usize)> + '_ {
        self.ids(a).map(|(id, c)| (id.value(), c))
    }

    /// Distinct constants of attribute `a`, sorted for deterministic
    /// iteration (candidate enumeration must not depend on hash order or
    /// interning history).
    pub fn sorted_values(&self, a: AttrId) -> Vec<Value> {
        let mut vs: Vec<Value> = self.ids(a).map(|(id, _)| id.value()).collect();
        vs.sort();
        vs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::Tuple;

    fn sample() -> (Relation, ActiveDomain) {
        let schema = Schema::new("r", &["city", "state"]).unwrap();
        let mut rel = Relation::new(schema);
        for (c, s) in [("PHI", "PA"), ("PHI", "PA"), ("NYC", "NY")] {
            rel.insert(Tuple::from_iter([c, s])).unwrap();
        }
        let adom = ActiveDomain::of_relation(&rel);
        (rel, adom)
    }

    #[test]
    fn builds_with_frequencies() {
        let (_, adom) = sample();
        let city = AttrId(0);
        assert_eq!(adom.distinct(city), 2);
        assert_eq!(adom.frequency(city, &Value::str("PHI")), 2);
        assert_eq!(adom.frequency(city, &Value::str("NYC")), 1);
        assert!(adom.contains(city, &Value::str("NYC")));
        assert!(adom.contains_id(city, ValueId::of(&Value::str("NYC"))));
        assert!(!adom.contains(city, &Value::str("LA")));
    }

    #[test]
    fn null_never_enters_domain() {
        let schema = Schema::new("r", &["a"]).unwrap();
        let mut rel = Relation::new(schema);
        rel.insert(Tuple::new(vec![Value::Null])).unwrap();
        let adom = ActiveDomain::of_relation(&rel);
        assert_eq!(adom.distinct(AttrId(0)), 0);
        let mut adom = adom;
        adom.add(AttrId(0), &Value::Null);
        assert_eq!(adom.distinct(AttrId(0)), 0);
    }

    #[test]
    fn remove_decrements_and_evicts() {
        let (_, mut adom) = sample();
        let city = AttrId(0);
        adom.remove(city, &Value::str("PHI"));
        assert_eq!(adom.frequency(city, &Value::str("PHI")), 1);
        adom.remove(city, &Value::str("PHI"));
        assert!(!adom.contains(city, &Value::str("PHI")));
        // removing an absent value is a no-op
        adom.remove(city, &Value::str("PHI"));
        assert_eq!(adom.frequency(city, &Value::str("PHI")), 0);
    }

    #[test]
    fn update_moves_count() {
        let (_, mut adom) = sample();
        let city = AttrId(0);
        adom.update(city, &Value::str("NYC"), &Value::str("LA"));
        assert!(!adom.contains(city, &Value::str("NYC")));
        assert_eq!(adom.frequency(city, &Value::str("LA")), 1);
        // update to null only removes
        adom.update(city, &Value::str("LA"), &Value::Null);
        assert!(!adom.contains(city, &Value::str("LA")));
        // identity update is a no-op
        adom.update(city, &Value::str("PHI"), &Value::str("PHI"));
        assert_eq!(adom.frequency(city, &Value::str("PHI")), 2);
    }

    #[test]
    fn sorted_values_is_deterministic() {
        let (_, adom) = sample();
        let vs = adom.sorted_values(AttrId(0));
        assert_eq!(vs, vec![Value::str("NYC"), Value::str("PHI")]);
    }
}
