//! LHS-indices (§5.2, "LHS-indices").
//!
//! For each normal CFD `(R: X → A, tp)` over a *clean* repair `Repr`, the
//! index maps the key `t[X]` to the (unique, because `Repr |= Σ`) non-null
//! `A` value of the tuples carrying that key. A candidate tuple `t'` is
//! then validated in O(|X|) per CFD: look up `t'[X]`, compare `t'[A]`.
//! Keys are [`IdKey`]s and pins are [`ValueId`]s — every probe hashes and
//! compares a handful of integers.
//!
//! * Constant CFDs need no table at all — the pattern itself decides — so
//!   the index stores tables only for variable CFDs.
//! * Group bookkeeping keeps per-key counts so tuples can be added as the
//!   incremental repair grows `Repr` one repaired tuple at a time, and
//!   removed again exactly: a group left with no pin and no nulls drops
//!   its entry, so an add/remove sequence leaves the same map a fresh
//!   build over the surviving tuples would.

use cfd_model::hash::FnvMap;
use cfd_model::{IdKey, Relation, TupleView, ValueId};

use cfd_cfd::{NormalCfd, Sigma};

use crate::shard::{shard_of, Parallelism};

/// Per-key state of one variable CFD's group.
#[derive(Clone, Copy, Debug, Default)]
struct GroupState {
    /// The unique non-null RHS id seen in the group, with its count.
    value: Option<(ValueId, usize)>,
    /// Number of group members whose RHS is null.
    nulls: usize,
}

/// The LHS-index of one `(X, A)` shape shared by every variable normal
/// CFD with that shape.
///
/// The index is *unfiltered* — it covers all tuples, not just those
/// matching a particular pattern row. That is sound because pattern
/// applicability on the LHS depends only on `t[X]`, which is exactly the
/// group key: every member of a group has the same pattern status, so a
/// pattern-matching probe only ever meets pattern-matching partners.
/// Sharing collapses the hundreds of tableau rows of the experiment Σ into
/// one table per structural shape.
#[derive(Clone, Debug)]
pub struct LhsIndex {
    map: FnvMap<IdKey, GroupState>,
}

/// The LHS-indices for the variable CFDs in Σ, shared by shape.
#[derive(Clone, Debug, Default)]
pub struct LhsIndexes {
    /// One index per distinct `(lhs attrs, rhs attr)` among variable CFDs.
    shapes: FnvMap<(Vec<cfd_model::AttrId>, cfd_model::AttrId), LhsIndex>,
}

/// Outcome of validating a candidate RHS value against a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupVerdict {
    /// No tuple with this key (or only null RHS values): any value works.
    Unconstrained,
    /// The group pins the RHS to this id; candidates must equal it (or be
    /// null).
    Pinned(ValueId),
}

impl LhsIndex {
    fn build(rel: &Relation, lhs: &[cfd_model::AttrId], rhs_attr: cfd_model::AttrId) -> Self {
        let mut map: FnvMap<IdKey, GroupState> = FnvMap::default();
        for (_, t) in rel.iter() {
            let key = t.project_key(lhs);
            let state = map.entry(key).or_default();
            Self::account(state, t.id(rhs_attr), 1);
        }
        LhsIndex { map }
    }

    fn account(state: &mut GroupState, v: ValueId, delta: i64) {
        if v.is_null() {
            state.nulls = (state.nulls as i64 + delta) as usize;
            return;
        }
        match &mut state.value {
            Some((existing, count)) if *existing == v => {
                *count = (*count as i64 + delta) as usize;
                if *count == 0 {
                    state.value = None;
                }
            }
            Some(_) => {
                // Only the pin is counted. A second value can meet it in a
                // group whose key matches no pattern row of the shape (no
                // CFD constrains it), or in a relation about to be
                // repaired; adding and removing such a value are both
                // no-ops, so the pair stays an exact inverse.
            }
            None if delta > 0 => state.value = Some((v, delta as usize)),
            None => {}
        }
    }

    /// What does the group of `t` (by its `X` projection) require?
    fn verdict<V: TupleView + ?Sized>(&self, n: &NormalCfd, t: &V) -> GroupVerdict {
        match self.map.get(&t.project_key(n.lhs())) {
            Some(GroupState {
                value: Some((v, _)),
                ..
            }) => GroupVerdict::Pinned(*v),
            _ => GroupVerdict::Unconstrained,
        }
    }
}

/// Relation size below which a sharded build is not worth the thread
/// spawn overhead.
const PARALLEL_BUILD_THRESHOLD: usize = 4_096;

impl LhsIndexes {
    fn with_shapes(shapes: FnvMap<(Vec<cfd_model::AttrId>, cfd_model::AttrId), LhsIndex>) -> Self {
        LhsIndexes { shapes }
    }

    /// Group entries across every shape — the footprint a resident
    /// repairer must return to after rolling a request back.
    pub fn entry_count(&self) -> usize {
        self.shapes.values().map(|idx| idx.map.len()).sum()
    }

    /// Build indices for every variable-CFD shape in `sigma` over `rel`.
    pub fn build(rel: &Relation, sigma: &Sigma) -> Self {
        Self::build_with(rel, sigma, &Parallelism::serial())
    }

    /// [`LhsIndexes::build`] sharded by LHS-key hash range across `par`
    /// worker threads, in two phases: contiguous id chunks fan out to
    /// extract `(shard, key, rhs)` entries (each key projected and hashed
    /// exactly once), then shard ranges fan out to fold exactly their own
    /// entries. Each group key lands wholly
    /// inside one shard and entries stay in ascending id order, so the
    /// disjoint-map union is bit-identical to a serial build at every
    /// thread count.
    pub fn build_with(rel: &Relation, sigma: &Sigma, par: &Parallelism) -> Self {
        let shape_list: Vec<(Vec<cfd_model::AttrId>, cfd_model::AttrId)> = {
            let mut seen = Vec::new();
            for n in sigma.iter().filter(|n| !n.is_constant()) {
                let shape = (n.lhs().to_vec(), n.rhs_attr());
                if !seen.contains(&shape) {
                    seen.push(shape);
                }
            }
            seen
        };
        let threads = par.get();
        if threads <= 1 || rel.len() < PARALLEL_BUILD_THRESHOLD {
            let shapes = shape_list
                .into_iter()
                .map(|(lhs, rhs)| {
                    let idx = LhsIndex::build(rel, &lhs, rhs);
                    ((lhs, rhs), idx)
                })
                .collect();
            return LhsIndexes::with_shapes(shapes);
        }
        // Phase 1: extract `[shape][shard]` entry lists over id chunks.
        type EntryLists = Vec<Vec<Vec<(IdKey, ValueId)>>>;
        let ids: Vec<cfd_model::TupleId> = rel.ids().collect();
        let chunk = ids.len().div_ceil(threads).max(1);
        let chunked: Vec<EntryLists> = std::thread::scope(|s| {
            let shape_list = &shape_list;
            let handles: Vec<_> = ids
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        let mut out: EntryLists = (0..shape_list.len())
                            .map(|_| {
                                (0..threads)
                                    .map(|_| Vec::with_capacity(part.len() / threads + 1))
                                    .collect()
                            })
                            .collect();
                        for id in part {
                            let t = rel.tuple(*id).expect("listed id is live");
                            for ((lhs, rhs_attr), entries) in shape_list.iter().zip(out.iter_mut())
                            {
                                let key = t.project_key(lhs);
                                let shard = shard_of(key.as_slice(), threads);
                                entries[shard].push((key, t.id(*rhs_attr)));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lhs-index extract shard panicked"))
                .collect()
        });
        // Regroup into per-shard work lists (chunk order keeps each list
        // id-ascending, matching the serial accounting order).
        let mut per_shard: Vec<Vec<Vec<(IdKey, ValueId)>>> = (0..threads)
            .map(|_| (0..shape_list.len()).map(|_| Vec::new()).collect())
            .collect();
        for mut part in chunked {
            for (si, shard_lists) in part.iter_mut().enumerate() {
                for (shard, from) in shard_lists.iter_mut().enumerate() {
                    per_shard[shard][si].append(from);
                }
            }
        }
        // Phase 2: fold each shard's entries into its own maps.
        let parts: Vec<Vec<FnvMap<IdKey, GroupState>>> = std::thread::scope(|s| {
            let handles: Vec<_> = per_shard
                .into_iter()
                .map(|mine| {
                    s.spawn(move || {
                        mine.into_iter()
                            .map(|entries| {
                                let mut map: FnvMap<IdKey, GroupState> = FnvMap::default();
                                for (key, v) in entries {
                                    LhsIndex::account(map.entry(key).or_default(), v, 1);
                                }
                                map
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lhs-index insert shard panicked"))
                .collect()
        });
        // Disjoint-key union per shape: a key lives wholly inside the
        // shard its hash selects.
        let mut shapes: FnvMap<_, LhsIndex> = shape_list
            .iter()
            .cloned()
            .map(|shape| {
                (
                    shape,
                    LhsIndex {
                        map: FnvMap::default(),
                    },
                )
            })
            .collect();
        for part in parts {
            for (shape, from) in shape_list.iter().zip(part) {
                let idx = shapes.get_mut(shape).expect("shape registered above");
                debug_assert!(from.keys().all(|k| !idx.map.contains_key(k)));
                idx.map.extend(from);
            }
        }
        LhsIndexes::with_shapes(shapes)
    }

    /// Register a tuple newly inserted into the clean repair.
    pub fn insert<V: TupleView + ?Sized>(&mut self, _sigma: &Sigma, t: &V) {
        for ((lhs, rhs_attr), idx) in self.shapes.iter_mut() {
            let key = t.project_key(lhs);
            let state = idx.map.entry(key).or_default();
            LhsIndex::account(state, t.id(*rhs_attr), 1);
        }
    }

    /// Drop a tuple from every shape's group, given its *current*
    /// contents (call before the relation deletes it). The inverse of
    /// [`LhsIndexes::insert`]: group counts decrement, a pin whose count
    /// reaches zero clears (so a later insert can re-pin the group to a
    /// different value), and a group left with no pin and no nulls drops
    /// its entry. Sound only for tuples of the indexed clean portion —
    /// every non-null RHS in a constrained group equals the pin there.
    pub fn remove<V: TupleView + ?Sized>(&mut self, _sigma: &Sigma, t: &V) {
        for ((lhs, rhs_attr), idx) in self.shapes.iter_mut() {
            let key = t.project_key(lhs);
            if let Some(state) = idx.map.get_mut(&key) {
                LhsIndex::account(state, t.id(*rhs_attr), -1);
                if state.value.is_none() && state.nulls == 0 {
                    idx.map.remove(&key);
                }
            }
        }
    }

    /// Does the candidate tuple `t` satisfy normal CFD `n` against the
    /// indexed relation? Checks both the pattern (constant CFDs) and the
    /// group pin (variable CFDs). §3.1's null semantics apply: a null among
    /// `t[X]` means the CFD is inapplicable; a null RHS satisfies.
    pub fn satisfies<V: TupleView + ?Sized>(&self, n: &NormalCfd, t: &V) -> bool {
        if !n.applies_to(t) {
            return true;
        }
        let v = t.id(n.rhs_attr());
        if n.is_constant() {
            return n.rhs_pattern_id().satisfied_by_id(v);
        }
        if v.is_null() {
            return true;
        }
        match self
            .shapes
            .get(&(n.lhs().to_vec(), n.rhs_attr()))
            .expect("variable CFD has a shape index")
            .verdict(n, t)
        {
            GroupVerdict::Unconstrained => true,
            GroupVerdict::Pinned(pin) => v == pin,
        }
    }

    /// The id (if any) a variable CFD's group pins for `t`'s key — the
    /// "semantically related value" FINDV reaches for first.
    pub fn pinned_id<V: TupleView + ?Sized>(&self, n: &NormalCfd, t: &V) -> Option<ValueId> {
        if n.is_constant() || !n.applies_to(t) {
            return None;
        }
        match self
            .shapes
            .get(&(n.lhs().to_vec(), n.rhs_attr()))?
            .verdict(n, t)
        {
            GroupVerdict::Pinned(v) => Some(v),
            GroupVerdict::Unconstrained => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_cfd::pattern::{PatternRow, PatternValue};
    use cfd_cfd::Cfd;
    use cfd_model::{Schema, Tuple, Value};

    fn vid(s: &str) -> ValueId {
        ValueId::of(&Value::str(s))
    }

    fn setup() -> (Relation, Sigma) {
        let schema = Schema::new("r", &["ac", "pn", "ct"]).unwrap();
        let mut rel = Relation::new(schema.clone());
        for row in [
            ["212", "111", "NYC"],
            ["610", "222", "PHI"],
            ["610", "333", "PHI"],
        ] {
            rel.insert(Tuple::from_iter(row)).unwrap();
        }
        // variable CFD: [ac] → ct with wildcard pattern
        let var = Cfd::standard_fd(
            "var",
            vec![schema.attr("ac").unwrap()],
            vec![schema.attr("ct").unwrap()],
        );
        // constant CFD: ac=212 → ct=NYC
        let cons = Cfd::new(
            "cons",
            vec![schema.attr("ac").unwrap()],
            vec![schema.attr("ct").unwrap()],
            vec![PatternRow::new(
                vec![PatternValue::constant("212")],
                vec![PatternValue::constant("NYC")],
            )],
        )
        .unwrap();
        let sigma = Sigma::normalize(schema, vec![var, cons]).unwrap();
        (rel, sigma)
    }

    #[test]
    fn variable_cfd_pins_group_value() {
        let (rel, sigma) = setup();
        let idx = LhsIndexes::build(&rel, &sigma);
        let var = sigma.get(cfd_cfd::CfdId(0));
        // candidate agreeing with 212's group
        let ok = Tuple::from_iter(["212", "999", "NYC"]);
        assert!(idx.satisfies(var, &ok));
        let bad = Tuple::from_iter(["212", "999", "PHI"]);
        assert!(!idx.satisfies(var, &bad));
        assert_eq!(idx.pinned_id(var, &bad), Some(vid("NYC")));
        // fresh key: unconstrained
        let fresh = Tuple::from_iter(["415", "999", "SF"]);
        assert!(idx.satisfies(var, &fresh));
        assert_eq!(idx.pinned_id(var, &fresh), None);
    }

    #[test]
    fn constant_cfd_checked_by_pattern_alone() {
        let (rel, sigma) = setup();
        let idx = LhsIndexes::build(&rel, &sigma);
        let cons = sigma.get(cfd_cfd::CfdId(1));
        assert!(cons.is_constant());
        let ok = Tuple::from_iter(["212", "999", "NYC"]);
        let bad = Tuple::from_iter(["212", "999", "PHI"]);
        let inapplicable = Tuple::from_iter(["610", "999", "PHI"]);
        assert!(idx.satisfies(cons, &ok));
        assert!(!idx.satisfies(cons, &bad));
        assert!(idx.satisfies(cons, &inapplicable));
    }

    #[test]
    fn null_semantics() {
        let (rel, sigma) = setup();
        let idx = LhsIndexes::build(&rel, &sigma);
        let var = sigma.get(cfd_cfd::CfdId(0));
        let cons = sigma.get(cfd_cfd::CfdId(1));
        // null RHS satisfies both kinds
        let null_rhs = Tuple::new(vec![Value::str("212"), Value::str("9"), Value::Null]);
        assert!(idx.satisfies(var, &null_rhs));
        assert!(idx.satisfies(cons, &null_rhs));
        // null LHS: CFD inapplicable
        let null_lhs = Tuple::new(vec![Value::Null, Value::str("9"), Value::str("PHI")]);
        assert!(idx.satisfies(var, &null_lhs));
        assert!(idx.satisfies(cons, &null_lhs));
    }

    #[test]
    fn insert_updates_groups() {
        let (rel, sigma) = setup();
        let mut idx = LhsIndexes::build(&rel, &sigma);
        let var = sigma.get(cfd_cfd::CfdId(0));
        let fresh = Tuple::from_iter(["415", "1", "SF"]);
        assert_eq!(idx.pinned_id(var, &fresh), None);
        idx.insert(&sigma, &fresh);
        let probe = Tuple::from_iter(["415", "2", "LA"]);
        assert_eq!(idx.pinned_id(var, &probe), Some(vid("SF")));
        assert!(!idx.satisfies(var, &probe));
    }

    #[test]
    fn remove_undoes_insert_and_releases_pins() {
        let (rel, sigma) = setup();
        let mut idx = LhsIndexes::build(&rel, &sigma);
        let var = sigma.get(cfd_cfd::CfdId(0));
        let fresh = Tuple::from_iter(["415", "1", "SF"]);
        idx.insert(&sigma, &fresh);
        let probe = Tuple::from_iter(["415", "2", "LA"]);
        assert_eq!(idx.pinned_id(var, &probe), Some(vid("SF")));
        // Removing the only member clears the pin entirely.
        idx.remove(&sigma, &fresh);
        assert_eq!(idx.pinned_id(var, &probe), None);
        assert!(idx.satisfies(var, &probe));
        // A later insert re-pins the group to the new value.
        idx.insert(&sigma, &probe);
        assert_eq!(idx.pinned_id(var, &fresh), Some(vid("LA")));
        // Counts are per-member: with two members, one removal keeps the pin.
        idx.insert(&sigma, &Tuple::from_iter(["415", "3", "LA"]));
        idx.remove(&sigma, &probe);
        assert_eq!(idx.pinned_id(var, &fresh), Some(vid("LA")));
    }

    #[test]
    fn sharded_build_matches_serial() {
        // Enough tuples to cross the sharded-build threshold; every pin
        // and verdict must agree with the serial build at any count.
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let mut rel = Relation::new(schema.clone());
        for i in 0..5_000u32 {
            let v = if i % 17 == 0 {
                Value::Null
            } else {
                Value::str(format!("v{}", i % 97))
            };
            rel.insert(Tuple::new(vec![Value::str(format!("k{}", i % 97)), v]))
                .unwrap();
        }
        let fd = Cfd::standard_fd(
            "kv",
            vec![schema.attr("k").unwrap()],
            vec![schema.attr("v").unwrap()],
        );
        let sigma = Sigma::normalize(schema, vec![fd]).unwrap();
        let serial = LhsIndexes::build(&rel, &sigma);
        let var = sigma.get(cfd_cfd::CfdId(0));
        for threads in [2, 3, 8] {
            let sharded = LhsIndexes::build_with(&rel, &sigma, &Parallelism::threads(threads));
            for (_, t) in rel.iter() {
                assert_eq!(
                    serial.pinned_id(var, &t),
                    sharded.pinned_id(var, &t),
                    "threads={threads}"
                );
                assert_eq!(
                    serial.satisfies(var, &t),
                    sharded.satisfies(var, &t),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn null_only_group_is_unconstrained() {
        let (mut rel, sigma) = setup();
        rel.set_value(cfd_model::TupleId(0), cfd_model::AttrId(2), Value::Null)
            .unwrap();
        let idx = LhsIndexes::build(&rel, &sigma);
        let var = sigma.get(cfd_cfd::CfdId(0));
        let probe = Tuple::from_iter(["212", "9", "ANY"]);
        assert!(idx.satisfies(var, &probe));
    }

    /// Seeded random add/remove sequences (removals in any order) leave
    /// the same index a fresh build over the surviving tuples gives: the
    /// same entry count and the same pin and verdict for every key.
    #[test]
    fn add_remove_sequences_match_a_fresh_build() {
        use cfd_prng::{trials, Rng};
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let fd = Cfd::standard_fd(
            "kv",
            vec![schema.attr("k").unwrap()],
            vec![schema.attr("v").unwrap()],
        );
        let sigma = Sigma::normalize(schema.clone(), vec![fd]).unwrap();
        let var = sigma.get(cfd_cfd::CfdId(0));
        // A clean relation: key i carries value v{i} or null.
        let row = |k: u32, null: bool| {
            let v = if null {
                Value::Null
            } else {
                Value::str(format!("v{k}"))
            };
            Tuple::new(vec![Value::str(format!("k{k}")), v])
        };
        trials(48, 0x1A5E, |rng| {
            let mut idx = LhsIndexes::build(&Relation::new(schema.clone()), &sigma);
            let mut live: Vec<Tuple> = Vec::new();
            for _ in 0..rng.gen_range(1..120usize) {
                if live.is_empty() || rng.gen_range(0..3u32) > 0 {
                    let t = row(rng.gen_range(0..8u32), rng.gen_range(0..4u32) == 0);
                    idx.insert(&sigma, &t);
                    live.push(t);
                } else {
                    let t = live.swap_remove(rng.gen_range(0..live.len()));
                    idx.remove(&sigma, &t);
                }
                let mut rel = Relation::new(schema.clone());
                for t in &live {
                    rel.insert(t.clone()).unwrap();
                }
                let fresh = LhsIndexes::build(&rel, &sigma);
                assert_eq!(idx.entry_count(), fresh.entry_count());
                for k in 0..8 {
                    for probe in [
                        row(k, false),
                        Tuple::from_iter([format!("k{k}"), "x".into()]),
                    ] {
                        assert_eq!(idx.pinned_id(var, &probe), fresh.pinned_id(var, &probe));
                        assert_eq!(idx.satisfies(var, &probe), fresh.satisfies(var, &probe));
                    }
                }
            }
        });
    }
}
