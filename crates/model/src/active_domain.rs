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
//! caller feeds it; callers resolve them through the relation's pool.

use crate::hash::FixedMap;
use crate::pool::ValueId;
use crate::relation::Relation;
use crate::schema::AttrId;

/// Per-attribute multiset of the non-null constants occurring in a
/// relation, keyed by interned id.
#[derive(Clone, Debug, Default)]
pub struct ActiveDomain {
    per_attr: Vec<FixedMap<ValueId, usize>>,
}

impl ActiveDomain {
    /// Build the active domain of every attribute of `rel` in one scan.
    pub fn of_relation(rel: &Relation) -> Self {
        let mut per_attr: Vec<FixedMap<ValueId, usize>> =
            vec![FixedMap::default(); rel.schema().arity()];
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
            per_attr: vec![FixedMap::default(); arity],
        }
    }

    /// Record one occurrence of the interned `id` in attribute `a`
    /// (no-op for null).
    pub fn add_id(&mut self, a: AttrId, id: ValueId) {
        if !id.is_null() {
            *self.per_attr[a.index()].entry(id).or_insert(0) += 1;
        }
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

    /// Record an in-place update `old → new` of attribute `a`.
    pub fn update_id(&mut self, a: AttrId, old: ValueId, new: ValueId) {
        if old == new {
            return;
        }
        self.remove_id(a, old);
        self.add_id(a, new);
    }

    /// Does `id` occur in `adom(a, D)`?
    pub fn contains_id(&self, a: AttrId, id: ValueId) -> bool {
        self.per_attr[a.index()].contains_key(&id)
    }

    /// Number of occurrences of `id` in attribute `a` — the frequency
    /// signal behind the most-common-value flavour of `FINDV`.
    pub fn frequency_id(&self, a: AttrId, id: ValueId) -> usize {
        self.per_attr[a.index()].get(&id).copied().unwrap_or(0)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{ValuePool, NULL_ID};
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn sample() -> (Relation, ActiveDomain) {
        let schema = Schema::new("r", &["city", "state"]).unwrap();
        let mut rel = Relation::new_in(schema, ValuePool::new_handle());
        for (c, s) in [("PHI", "PA"), ("PHI", "PA"), ("NYC", "NY")] {
            rel.insert(Tuple::new_in([c, s], rel.pool())).unwrap();
        }
        let adom = ActiveDomain::of_relation(&rel);
        (rel, adom)
    }

    fn id(rel: &Relation, s: &str) -> ValueId {
        rel.pool().intern_uncounted(&Value::str(s))
    }

    #[test]
    fn builds_with_frequencies() {
        let (rel, adom) = sample();
        let city = AttrId(0);
        assert_eq!(adom.distinct(city), 2);
        assert_eq!(adom.frequency_id(city, id(&rel, "PHI")), 2);
        assert_eq!(adom.frequency_id(city, id(&rel, "NYC")), 1);
        assert!(adom.contains_id(city, id(&rel, "NYC")));
        assert!(!adom.contains_id(city, id(&rel, "LA")));
    }

    #[test]
    fn null_never_enters_domain() {
        let schema = Schema::new("r", &["a"]).unwrap();
        let mut rel = Relation::new_in(schema, ValuePool::new_handle());
        rel.insert(Tuple::from_ids(vec![NULL_ID])).unwrap();
        let mut adom = ActiveDomain::of_relation(&rel);
        assert_eq!(adom.distinct(AttrId(0)), 0);
        adom.add_id(AttrId(0), NULL_ID);
        assert_eq!(adom.distinct(AttrId(0)), 0);
    }

    #[test]
    fn remove_decrements_and_evicts() {
        let (rel, mut adom) = sample();
        let (city, phi) = (AttrId(0), id(&rel, "PHI"));
        adom.remove_id(city, phi);
        assert_eq!(adom.frequency_id(city, phi), 1);
        adom.remove_id(city, phi);
        assert!(!adom.contains_id(city, phi));
        // removing an absent value is a no-op
        adom.remove_id(city, phi);
        assert_eq!(adom.frequency_id(city, phi), 0);
    }

    #[test]
    fn update_moves_count() {
        let (rel, mut adom) = sample();
        let city = AttrId(0);
        let (nyc, la, phi) = (id(&rel, "NYC"), id(&rel, "LA"), id(&rel, "PHI"));
        adom.update_id(city, nyc, la);
        assert!(!adom.contains_id(city, nyc));
        assert_eq!(adom.frequency_id(city, la), 1);
        // update to null only removes
        adom.update_id(city, la, NULL_ID);
        assert!(!adom.contains_id(city, la));
        // identity update is a no-op
        adom.update_id(city, phi, phi);
        assert_eq!(adom.frequency_id(city, phi), 2);
    }
}
