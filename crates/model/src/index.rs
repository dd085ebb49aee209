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
//!
//! [`HashIndex::build_with_threads`] shards large relations across
//! `std::thread::scope` workers, each building a local map that is merged
//! at the end; keys are `Copy`-cheap ids, so the merge moves integers,
//! never strings. The caller chooses the worker count.

use std::collections::HashMap;

use crate::key::IdKey;
use crate::pool::ValueId;
use crate::relation::{Relation, TupleId};
use crate::schema::AttrId;
use crate::tuple::TupleView;

/// Relation size below which a parallel build is not worth the thread
/// spawn overhead.
const PARALLEL_THRESHOLD: usize = 8_192;

/// A hash index on a fixed attribute list `X`.
#[derive(Clone, Debug)]
pub struct HashIndex {
    attrs: Vec<AttrId>,
    map: HashMap<IdKey, Vec<TupleId>>,
}

impl HashIndex {
    /// Build an index on `attrs` over all live tuples of `rel`, on the
    /// calling thread (see [`HashIndex::build_with_threads`] for a
    /// sharded build).
    ///
    /// On a columnar relation the build walks the indexed attributes'
    /// column slices directly — one contiguous `u32` read per (attribute,
    /// tuple) — instead of dereferencing row objects.
    pub fn build(rel: &Relation, attrs: &[AttrId]) -> Self {
        let mut idx = HashIndex {
            attrs: attrs.to_vec(),
            map: HashMap::new(),
        };
        if let Some(cols) = columns_of(rel, attrs) {
            for id in rel.ids() {
                let slot = id.index();
                let key: IdKey = cols.iter().map(|c| c[slot]).collect();
                idx.map.entry(key).or_default().push(id);
            }
            return idx;
        }
        for (id, t) in rel.iter() {
            idx.insert(id, &t);
        }
        idx
    }

    /// Sharded build with an explicit worker count: each worker indexes a
    /// contiguous chunk of the ascending id space into a local map, and
    /// chunks are merged in id order. The result is **identical to
    /// [`HashIndex::build`] including the order of ids within each
    /// group** (ascending) — repair-layer consumers truncate group walks,
    /// so group order is part of the determinism contract, not an
    /// implementation detail. Small relations and `threads <= 1` fall
    /// back to the serial build.
    pub fn build_with_threads(rel: &Relation, attrs: &[AttrId], threads: usize) -> Self {
        if threads <= 1 || rel.len() < PARALLEL_THRESHOLD {
            return Self::build(rel, attrs);
        }
        let ids: Vec<TupleId> = rel.ids().collect();
        let chunk = ids.len().div_ceil(threads);
        let maps: Vec<HashMap<IdKey, Vec<TupleId>>> = std::thread::scope(|s| {
            let handles: Vec<_> = ids
                .chunks(chunk.max(1))
                .map(|part| {
                    s.spawn(move || {
                        let mut local: HashMap<IdKey, Vec<TupleId>> = HashMap::new();
                        for id in part {
                            let t = rel.tuple(*id).expect("listed id is live");
                            local.entry(t.project_key(attrs)).or_default().push(*id);
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("index shard panicked"))
                .collect()
        });
        // Chunks hold disjoint ascending id ranges; appending the shard
        // maps in chunk order therefore leaves every group's id list in
        // ascending order, exactly as the serial build produces it.
        let mut map: HashMap<IdKey, Vec<TupleId>> = HashMap::new();
        for local in maps {
            for (k, mut v) in local {
                map.entry(k).or_default().append(&mut v);
            }
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
            map: HashMap::new(),
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

/// The column slices for `attrs`, when `rel` stores columns.
fn columns_of<'a>(rel: &'a Relation, attrs: &[AttrId]) -> Option<Vec<&'a [ValueId]>> {
    attrs.iter().map(|a| rel.column(*a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::NULL_ID;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn key(vals: &[Value]) -> Vec<ValueId> {
        vals.iter().map(ValueId::of).collect()
    }

    fn rel3() -> Relation {
        let schema = Schema::new("r", &["ac", "pn", "ct"]).unwrap();
        let mut r = Relation::new(schema);
        for row in [
            ["212", "111", "NYC"],
            ["212", "111", "PHI"],
            ["610", "222", "PHI"],
        ] {
            r.insert(Tuple::from_iter(row)).unwrap();
        }
        r
    }

    #[test]
    fn build_groups_by_key() {
        let r = rel3();
        let idx = HashIndex::build(&r, &[AttrId(0), AttrId(1)]);
        assert_eq!(idx.group_count(), 2);
        let k = key(&[Value::str("212"), Value::str("111")]);
        let mut ids: Vec<_> = idx.get(&k).to_vec();
        ids.sort();
        assert_eq!(ids, vec![TupleId(0), TupleId(1)]);
        assert_eq!(idx.get(&key(&[Value::str("999"), Value::str("0")])), &[]);
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
        assert_eq!(idx.get(&key(&[Value::str("610")])), &[]);
        assert_eq!(idx.get(&key(&[Value::str("212")])).len(), 3);
    }

    #[test]
    fn update_on_unrelated_attr_is_noop() {
        let r = rel3();
        let mut idx = HashIndex::build(&r, &[AttrId(0)]);
        let before = r.tuple(TupleId(0)).unwrap().to_tuple();
        let mut after = before.clone();
        after.set_value(AttrId(2), Value::str("LA"));
        idx.update(TupleId(0), &before, &after);
        assert_eq!(idx.get(&key(&[Value::str("212")])).len(), 2);
    }

    #[test]
    fn remove_evicts_empty_groups() {
        let r = rel3();
        let mut idx = HashIndex::build(&r, &[AttrId(0)]);
        idx.remove(TupleId(2), &r.tuple(TupleId(2)).unwrap());
        assert_eq!(idx.get(&key(&[Value::str("610")])), &[]);
        assert_eq!(idx.group_count(), 1);
    }

    #[test]
    fn null_keys_group_strictly() {
        let schema = Schema::new("r", &["a"]).unwrap();
        let mut r = Relation::new(schema);
        r.insert(Tuple::new(vec![Value::Null])).unwrap();
        r.insert(Tuple::new(vec![Value::Null])).unwrap();
        r.insert(Tuple::new(vec![Value::str("x")])).unwrap();
        let idx = HashIndex::build(&r, &[AttrId(0)]);
        assert_eq!(idx.get(&[NULL_ID]).len(), 2);
        assert_eq!(idx.get(&key(&[Value::str("x")])).len(), 1);
    }

    #[test]
    fn group_of_uses_tuple_projection() {
        let r = rel3();
        let idx = HashIndex::build(&r, &[AttrId(0), AttrId(1)]);
        let t = r.tuple(TupleId(0)).unwrap();
        assert_eq!(idx.group_of(&t).len(), 2);
    }

    #[test]
    fn sharded_build_preserves_group_order() {
        // Not just the same sets: FINDV truncates group walks, so the
        // ascending id order inside each group is part of the contract.
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let mut r = Relation::new(schema);
        for i in 0..20_000u32 {
            r.insert(Tuple::from_iter([format!("k{}", i % 257), format!("v{i}")]))
                .unwrap();
        }
        let ser = HashIndex::build(&r, &[AttrId(0)]);
        for threads in [2, 3, 8] {
            let par = HashIndex::build_with_threads(&r, &[AttrId(0)], threads);
            assert_eq!(par.group_count(), ser.group_count(), "threads={threads}");
            for (k, ids) in ser.groups() {
                assert_eq!(par.get(k.as_slice()), ids, "threads={threads}");
            }
        }
    }
}
