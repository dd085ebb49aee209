//! Hash indexes over attribute lists.
//!
//! [`HashIndex`] maps the projection `t[X]` of each live tuple to the set of
//! tuple ids carrying that projection. It is the lookup primitive behind
//! both violation detection (grouping tuples that agree on `LHS(φ)`) and the
//! LHS-indices of §5.2. Keys are [`IdKey`]s — short runs of interned
//! [`ValueId`]s — so every probe hashes a handful of integers instead of
//! full strings. Keys use *strict* equality — a key containing `null`
//! ([`NULL_ID`](crate::pool::NULL_ID)) only groups with identical keys,
//! which is correct because pattern matching excludes nulls anyway and the
//! callers that need SQL-null semantics handle them explicitly.

use crate::hash::FixedMap;

use crate::key::IdKey;
use crate::pool::ValueId;
use crate::relation::{Relation, TupleId};
use crate::schema::AttrId;
use crate::tuple::TupleView;

/// A hash index on a fixed attribute list `X`.
#[derive(Clone, Debug)]
pub struct HashIndex {
    attrs: Vec<AttrId>,
    map: FixedMap<IdKey, Vec<TupleId>>,
}

impl HashIndex {
    /// Build an index on `attrs` over all live tuples of `rel`. Each
    /// group lists its ids in ascending order — repair-layer consumers
    /// truncate group walks, so that order is part of the determinism
    /// contract, not an implementation detail.
    ///
    /// The build walks the indexed attributes' column slices directly —
    /// one contiguous `u32` read per (attribute, tuple) — instead of
    /// materializing rows.
    pub fn build(rel: &Relation, attrs: &[AttrId]) -> Self {
        let cols: Vec<&[ValueId]> = attrs.iter().map(|a| rel.column(*a)).collect();
        let mut map: FixedMap<IdKey, Vec<TupleId>> = FixedMap::default();
        for id in rel.ids() {
            let slot = id.index();
            let key: IdKey = cols.iter().map(|c| c[slot]).collect();
            map.entry(key).or_default().push(id);
        }
        HashIndex {
            attrs: attrs.to_vec(),
            map,
        }
    }

    /// An empty index on `attrs`.
    pub fn empty(attrs: &[AttrId]) -> Self {
        HashIndex {
            attrs: attrs.to_vec(),
            map: FixedMap::default(),
        }
    }

    /// The indexed attribute list.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Key of `t` under this index.
    #[inline]
    pub fn key_of<V: TupleView + ?Sized>(&self, t: &V) -> IdKey {
        t.project_key(&self.attrs)
    }

    /// Add a tuple.
    pub fn insert<V: TupleView + ?Sized>(&mut self, id: TupleId, t: &V) {
        self.map.entry(self.key_of(t)).or_default().push(id);
    }

    /// Remove a tuple given its *current* contents (the caller must remove
    /// before mutating the tuple, or pass the pre-image). Undoing the
    /// latest insert is an O(1) pop that leaves the other members in
    /// their order; any other member is found from the front.
    pub fn remove<V: TupleView + ?Sized>(&mut self, id: TupleId, t: &V) {
        let key = self.key_of(t);
        if let Some(ids) = self.map.get_mut(&key) {
            if ids.last() == Some(&id) {
                ids.pop();
            } else if let Some(pos) = ids.iter().position(|x| *x == id) {
                ids.swap_remove(pos);
            }
            if ids.is_empty() {
                self.map.remove(&key);
            }
        }
    }

    /// Record an update of tuple `id` from `before` to `after`.
    pub fn update<V: TupleView + ?Sized, W: TupleView + ?Sized>(
        &mut self,
        id: TupleId,
        before: &V,
        after: &W,
    ) {
        if self.attrs.iter().all(|a| before.id(*a) == after.id(*a)) {
            return;
        }
        self.remove(id, before);
        self.insert(id, after);
    }

    /// Tuple ids whose projection equals `key` exactly.
    pub fn get(&self, key: &[ValueId]) -> &[TupleId] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Tuple ids grouped with `t` (including `t` itself if indexed).
    pub fn group_of<V: TupleView + ?Sized>(&self, t: &V) -> &[TupleId] {
        self.map
            .get(&self.key_of(t))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterate over `(key, ids)` groups. Order is unspecified.
    pub fn groups(&self) -> impl Iterator<Item = (&IdKey, &[TupleId])> + '_ {
        self.map.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Number of distinct keys.
    pub fn group_count(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{ValuePool, NULL_ID};
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::Value;

    /// `vals` as an index key in `r`'s pool.
    fn key(r: &Relation, vals: &[Value]) -> Vec<ValueId> {
        vals.iter().map(|v| r.pool().intern_uncounted(v)).collect()
    }

    fn empty(attrs: &[&str]) -> Relation {
        Relation::new_in(Schema::new("r", attrs).unwrap(), ValuePool::new_handle())
    }

    fn rel3() -> Relation {
        let mut r = empty(&["ac", "pn", "ct"]);
        for row in [
            ["212", "111", "NYC"],
            ["212", "111", "PHI"],
            ["610", "222", "PHI"],
        ] {
            r.insert(Tuple::new_in(row, r.pool())).unwrap();
        }
        r
    }

    #[test]
    fn build_groups_by_key() {
        let r = rel3();
        let idx = HashIndex::build(&r, &[AttrId(0), AttrId(1)]);
        assert_eq!(idx.group_count(), 2);
        let k = key(&r, &[Value::str("212"), Value::str("111")]);
        let mut ids: Vec<_> = idx.get(&k).to_vec();
        ids.sort();
        assert_eq!(ids, vec![TupleId(0), TupleId(1)]);
        assert_eq!(
            idx.get(&key(&r, &[Value::str("999"), Value::str("0")])),
            &[]
        );
    }

    #[test]
    fn update_moves_between_groups() {
        let mut r = rel3();
        let mut idx = HashIndex::build(&r, &[AttrId(0)]);
        let before = r.tuple(TupleId(2)).unwrap().to_tuple();
        r.set_value(TupleId(2), AttrId(0), Value::str("212"))
            .unwrap();
        let after = r.tuple(TupleId(2)).unwrap().to_tuple();
        idx.update(TupleId(2), &before, &after);
        assert_eq!(idx.get(&key(&r, &[Value::str("610")])), &[]);
        assert_eq!(idx.get(&key(&r, &[Value::str("212")])).len(), 3);
    }

    #[test]
    fn update_on_unrelated_attr_is_noop() {
        let r = rel3();
        let mut idx = HashIndex::build(&r, &[AttrId(0)]);
        let before = r.tuple(TupleId(0)).unwrap().to_tuple();
        let mut after = before.clone();
        after.set_id(AttrId(2), r.pool().intern(&Value::str("LA")));
        idx.update(TupleId(0), &before, &after);
        assert_eq!(idx.get(&key(&r, &[Value::str("212")])).len(), 2);
    }

    #[test]
    fn remove_evicts_empty_groups() {
        let r = rel3();
        let mut idx = HashIndex::build(&r, &[AttrId(0)]);
        idx.remove(TupleId(2), &r.tuple(TupleId(2)).unwrap());
        assert_eq!(idx.get(&key(&r, &[Value::str("610")])), &[]);
        assert_eq!(idx.group_count(), 1);
    }

    #[test]
    fn null_keys_group_strictly() {
        let mut r = empty(&["a"]);
        r.insert(Tuple::new_in([Value::Null], r.pool())).unwrap();
        r.insert(Tuple::new_in([Value::Null], r.pool())).unwrap();
        r.insert(Tuple::new_in([Value::str("x")], r.pool()))
            .unwrap();
        let idx = HashIndex::build(&r, &[AttrId(0)]);
        assert_eq!(idx.get(&[NULL_ID]).len(), 2);
        assert_eq!(idx.get(&key(&r, &[Value::str("x")])).len(), 1);
    }

    #[test]
    fn group_of_uses_tuple_projection() {
        let r = rel3();
        let idx = HashIndex::build(&r, &[AttrId(0), AttrId(1)]);
        let t = r.tuple(TupleId(0)).unwrap();
        assert_eq!(idx.group_of(&t).len(), 2);
    }

    #[test]
    fn build_lists_each_group_ascending() {
        // Not just the right sets: FINDV truncates group walks, so the
        // ascending id order inside each group is part of the contract.
        let mut r = empty(&["k", "v"]);
        for i in 0..20_000u32 {
            let t = Tuple::new_in([format!("k{}", i % 257), format!("v{i}")], r.pool());
            r.insert(t).unwrap();
        }
        let idx = HashIndex::build(&r, &[AttrId(0)]);
        assert_eq!(idx.group_count(), 257);
        assert_eq!(
            idx.groups().map(|(_, ids)| ids.len()).sum::<usize>(),
            20_000
        );
        for (_, ids) in idx.groups() {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        }
    }
}
