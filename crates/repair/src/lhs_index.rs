//! LHS-indices (§5.2, "LHS-indices").
//!
//! For each variable normal CFD `(R: X → A, tp)`, the index maps the key
//! `t[X]` to a histogram of the non-null `A` ids among the tuples carrying
//! that key, plus the number of null `A` cells. Keys are [`IdKey`]s and
//! histogram entries are [`ValueId`]s — every probe hashes and compares a
//! handful of integers. Two questions are answered per probe, in O(|X|):
//!
//! * **The pin.** Over a clean repair `Repr` a group that some pattern
//!   row constrains holds one non-null value. A candidate `t'` is then
//!   validated by looking up `t'[X]` and comparing `t'[A]` with it, and
//!   FINDV reaches for that value first.
//! * **The conflicts.** The `vio(t[C/v̄])` term of `TUPLERESOLVE`'s
//!   `costfix` (§5.1) counts, per variable CFD, the group members with a
//!   different non-null `A` value: the group's non-null total minus the
//!   count of `t[A]`. That is the same integer a walk over the members
//!   gives, for any relation, clean or not.
//!
//! Constant CFDs need no table at all — the pattern itself decides — so
//! the index stores tables only for variable CFDs. Each normal CFD is
//! resolved to its shape once, at build time, so a probe allocates
//! nothing.
//!
//! Tuples are added as the incremental repair grows `Repr` one repaired
//! tuple at a time and removed again exactly, whatever their values: the
//! histogram counts every value, a value whose count reaches zero leaves
//! it, and a group left with no members drops its entry, so an add/remove
//! sequence leaves the same counts a fresh build over the surviving tuples
//! would.

use cfd_model::hash::FnvMap;
use cfd_model::{AttrId, IdKey, Relation, TupleView, ValueId, NULL_ID};

use cfd_cfd::{NormalCfd, Sigma};

/// Per-key state of one variable CFD's group: how many members carry
/// each RHS id. The first value to arrive sits inline, so a group with
/// one value — almost every group of a clean relation — allocates
/// nothing; only a second distinct value spills.
#[derive(Clone, Debug)]
struct GroupState {
    /// The earliest-added non-null RHS id still present; meaningless
    /// while `first_count` is zero.
    first: ValueId,
    first_count: u32,
    /// Every other non-null RHS id with its count, in order of arrival.
    /// Counts are never zero; empty (and unallocated) while the group
    /// holds one value.
    rest: Vec<(ValueId, u32)>,
    /// Members with a non-null RHS: `first_count` plus every `rest` count.
    nonnull: u32,
    /// Members whose RHS is null.
    nulls: u32,
}

impl Default for GroupState {
    fn default() -> Self {
        GroupState {
            first: NULL_ID,
            first_count: 0,
            rest: Vec::new(),
            nonnull: 0,
            nulls: 0,
        }
    }
}

impl GroupState {
    fn add(&mut self, v: ValueId) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        self.nonnull += 1;
        if self.first_count == 0 {
            debug_assert!(self.rest.is_empty());
            (self.first, self.first_count) = (v, 1);
        } else if self.first == v {
            self.first_count += 1;
        } else if let Some((_, c)) = self.rest.iter_mut().find(|(x, _)| *x == v) {
            *c += 1;
        } else {
            self.rest.push((v, 1));
        }
    }

    /// The exact inverse of [`GroupState::add`] for a value the group
    /// holds. When the inline value runs out, the next value in arrival
    /// order takes its place.
    fn remove(&mut self, v: ValueId) {
        if v.is_null() {
            debug_assert!(self.nulls > 0, "removing a null the group does not hold");
            self.nulls -= 1;
            return;
        }
        if self.first_count > 0 && self.first == v {
            self.first_count -= 1;
            if self.first_count == 0 && !self.rest.is_empty() {
                (self.first, self.first_count) = self.rest.remove(0);
            }
        } else if let Some(i) = self.rest.iter().position(|(x, _)| *x == v) {
            self.rest[i].1 -= 1;
            if self.rest[i].1 == 0 {
                self.rest.remove(i);
            }
        } else {
            debug_assert!(false, "removing a value the group does not hold");
            return;
        }
        if self.rest.is_empty() {
            // Free the spill once the group is back to one value.
            self.rest = Vec::new();
        }
        self.nonnull -= 1;
    }

    fn is_empty(&self) -> bool {
        self.nonnull == 0 && self.nulls == 0
    }

    /// Members carrying the non-null id `v`.
    fn count(&self, v: ValueId) -> u32 {
        if self.first_count > 0 && self.first == v {
            return self.first_count;
        }
        self.rest
            .iter()
            .find(|(x, _)| *x == v)
            .map_or(0, |(_, c)| *c)
    }

    /// The value the group requires: its earliest-added non-null value.
    /// In a clean relation a group a pattern row constrains has exactly
    /// one.
    fn pin(&self) -> Option<ValueId> {
        (self.first_count > 0).then_some(self.first)
    }
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
struct LhsIndex {
    lhs: Vec<AttrId>,
    rhs: AttrId,
    map: FnvMap<IdKey, GroupState>,
}

/// The LHS-indices for the variable CFDs in Σ, shared by shape.
#[derive(Clone, Debug, Default)]
pub struct LhsIndexes {
    /// One index per distinct `(lhs attrs, rhs attr)` among variable
    /// CFDs, in order of first appearance in Σ.
    shapes: Vec<LhsIndex>,
    /// The position in `shapes` of each normal CFD, by [`cfd_cfd::CfdId`];
    /// [`NO_SHAPE`] for constant CFDs.
    shape_of: Vec<u32>,
}

const NO_SHAPE: u32 = u32::MAX;

/// One group's counts as [`LhsIndexes::group_counts`] reports them.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupCounts {
    /// Position of the shape (in order of first appearance in Σ).
    pub shape: usize,
    /// The group key `t[X]`.
    pub key: Vec<ValueId>,
    /// Members whose RHS is null.
    pub nulls: u32,
    /// Each non-null RHS id with its member count, ascending by id.
    pub values: Vec<(ValueId, u32)>,
}

impl LhsIndexes {
    /// Group entries across every shape — the footprint a resident
    /// repairer must return to after rolling a request back.
    pub fn entry_count(&self) -> usize {
        self.shapes.iter().map(|idx| idx.map.len()).sum()
    }

    /// Every group's counts, sorted, for comparing two indexes over the
    /// same Σ: equal lists mean equal entries, histograms and null counts.
    pub fn group_counts(&self) -> Vec<GroupCounts> {
        let mut out: Vec<GroupCounts> = self
            .shapes
            .iter()
            .enumerate()
            .flat_map(|(shape, idx)| {
                idx.map.iter().map(move |(key, g)| {
                    let mut values = g.rest.clone();
                    if g.first_count > 0 {
                        values.push((g.first, g.first_count));
                    }
                    values.sort_unstable();
                    GroupCounts {
                        shape,
                        key: key.as_slice().to_vec(),
                        nulls: g.nulls,
                        values,
                    }
                })
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Build indices for every variable-CFD shape in `sigma` over `rel`.
    pub fn build(rel: &Relation, sigma: &Sigma) -> Self {
        let mut out = LhsIndexes {
            shapes: Vec::new(),
            shape_of: vec![NO_SHAPE; sigma.len()],
        };
        for n in sigma.iter().filter(|n| !n.is_constant()) {
            let pos = match out
                .shapes
                .iter()
                .position(|s| s.lhs == n.lhs() && s.rhs == n.rhs_attr())
            {
                Some(pos) => pos,
                None => {
                    out.shapes.push(LhsIndex {
                        lhs: n.lhs().to_vec(),
                        rhs: n.rhs_attr(),
                        map: FnvMap::default(),
                    });
                    out.shapes.len() - 1
                }
            };
            out.shape_of[n.id().index()] = pos as u32;
        }
        for (_, t) in rel.iter() {
            out.insert(&t);
        }
        out
    }

    /// Add a tuple to every shape's group.
    pub fn insert<V: TupleView + ?Sized>(&mut self, t: &V) {
        for idx in &mut self.shapes {
            let key = t.project_key(&idx.lhs);
            idx.map.entry(key).or_default().add(t.id(idx.rhs));
        }
    }

    /// Drop a tuple from every shape's group, given the contents it was
    /// added with (call before the relation deletes or changes it). The
    /// exact inverse of [`LhsIndexes::insert`] for any tuple: its RHS
    /// count decrements, a value whose count reaches zero leaves the
    /// histogram, and a group left with no members drops its entry.
    pub fn remove<V: TupleView + ?Sized>(&mut self, t: &V) {
        for idx in &mut self.shapes {
            let key = t.project_key(&idx.lhs);
            if let Some(g) = idx.map.get_mut(&key) {
                g.remove(t.id(idx.rhs));
                if g.is_empty() {
                    idx.map.remove(&key);
                }
            } else {
                debug_assert!(false, "removing a tuple the index does not hold");
            }
        }
    }

    /// The group of `t` under the variable CFD `n`, if it has members.
    fn group<V: TupleView + ?Sized>(&self, n: &NormalCfd, t: &V) -> Option<&GroupState> {
        let idx = &self.shapes[self.shape_of[n.id().index()] as usize];
        idx.map.get(&t.project_key(&idx.lhs))
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
        self.group(n, t)
            .and_then(GroupState::pin)
            .is_none_or(|pin| v == pin)
    }

    /// The id (if any) a variable CFD's group pins for `t`'s key — the
    /// "semantically related value" FINDV reaches for first.
    pub fn pinned_id<V: TupleView + ?Sized>(&self, n: &NormalCfd, t: &V) -> Option<ValueId> {
        if n.is_constant() || !n.applies_to(t) {
            return None;
        }
        self.group(n, t).and_then(GroupState::pin)
    }

    /// The variable violations of `t` under `n` against the indexed
    /// tuples: the members of `t`'s group whose RHS is non-null and
    /// differs from `t[A]`. Zero when `n` is constant, when it does not
    /// apply to `t`, or when `t[A]` is null. A stored `t` is its own
    /// group's member with an equal value, so it never counts itself.
    pub fn conflicts<V: TupleView + ?Sized>(&self, n: &NormalCfd, t: &V) -> usize {
        if n.is_constant() || !n.applies_to(t) {
            return 0;
        }
        let v = t.id(n.rhs_attr());
        if v.is_null() {
            return 0;
        }
        self.group(n, t)
            .map_or(0, |g| (g.nonnull - g.count(v)) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_cfd::pattern::{PatternRow, PatternValue};
    use cfd_cfd::Cfd;
    use cfd_model::{Schema, Tuple, Value, ValuePool};

    fn vid(rel: &Relation, s: &str) -> ValueId {
        rel.pool().intern_uncounted(&Value::str(s))
    }

    fn setup() -> (Relation, Sigma) {
        let schema = Schema::new("r", &["ac", "pn", "ct"]).unwrap();
        let mut rel = Relation::new_in(schema.clone(), ValuePool::new_handle());
        for row in [
            ["212", "111", "NYC"],
            ["610", "222", "PHI"],
            ["610", "333", "PHI"],
        ] {
            rel.insert(Tuple::new_in(row, rel.pool())).unwrap();
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
        let sigma = Sigma::normalize_in(schema, vec![var, cons], rel.pool()).unwrap();
        (rel, sigma)
    }

    #[test]
    fn variable_cfd_pins_group_value() {
        let (rel, sigma) = setup();
        let idx = LhsIndexes::build(&rel, &sigma);
        let var = sigma.get(cfd_cfd::CfdId(0));
        // candidate agreeing with 212's group
        let ok = Tuple::new_in(["212", "999", "NYC"], rel.pool());
        assert!(idx.satisfies(var, &ok));
        let bad = Tuple::new_in(["212", "999", "PHI"], rel.pool());
        assert!(!idx.satisfies(var, &bad));
        assert_eq!(idx.pinned_id(var, &bad), Some(vid(&rel, "NYC")));
        // fresh key: unconstrained
        let fresh = Tuple::new_in(["415", "999", "SF"], rel.pool());
        assert!(idx.satisfies(var, &fresh));
        assert_eq!(idx.pinned_id(var, &fresh), None);
    }

    #[test]
    fn constant_cfd_checked_by_pattern_alone() {
        let (rel, sigma) = setup();
        let idx = LhsIndexes::build(&rel, &sigma);
        let cons = sigma.get(cfd_cfd::CfdId(1));
        assert!(cons.is_constant());
        let ok = Tuple::new_in(["212", "999", "NYC"], rel.pool());
        let bad = Tuple::new_in(["212", "999", "PHI"], rel.pool());
        let inapplicable = Tuple::new_in(["610", "999", "PHI"], rel.pool());
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
        let null_rhs = Tuple::new_in(
            vec![Value::str("212"), Value::str("9"), Value::Null],
            rel.pool(),
        );
        assert!(idx.satisfies(var, &null_rhs));
        assert!(idx.satisfies(cons, &null_rhs));
        // null LHS: CFD inapplicable
        let null_lhs = Tuple::new_in(
            vec![Value::Null, Value::str("9"), Value::str("PHI")],
            rel.pool(),
        );
        assert!(idx.satisfies(var, &null_lhs));
        assert!(idx.satisfies(cons, &null_lhs));
    }

    #[test]
    fn insert_updates_groups() {
        let (rel, sigma) = setup();
        let mut idx = LhsIndexes::build(&rel, &sigma);
        let var = sigma.get(cfd_cfd::CfdId(0));
        let fresh = Tuple::new_in(["415", "1", "SF"], rel.pool());
        assert_eq!(idx.pinned_id(var, &fresh), None);
        idx.insert(&fresh);
        let probe = Tuple::new_in(["415", "2", "LA"], rel.pool());
        assert_eq!(idx.pinned_id(var, &probe), Some(vid(&rel, "SF")));
        assert!(!idx.satisfies(var, &probe));
    }

    #[test]
    fn remove_undoes_insert_and_releases_pins() {
        let (rel, sigma) = setup();
        let mut idx = LhsIndexes::build(&rel, &sigma);
        let var = sigma.get(cfd_cfd::CfdId(0));
        let fresh = Tuple::new_in(["415", "1", "SF"], rel.pool());
        idx.insert(&fresh);
        let probe = Tuple::new_in(["415", "2", "LA"], rel.pool());
        assert_eq!(idx.pinned_id(var, &probe), Some(vid(&rel, "SF")));
        // Removing the only member clears the pin entirely.
        idx.remove(&fresh);
        assert_eq!(idx.pinned_id(var, &probe), None);
        assert!(idx.satisfies(var, &probe));
        // A later insert re-pins the group to the new value.
        idx.insert(&probe);
        assert_eq!(idx.pinned_id(var, &fresh), Some(vid(&rel, "LA")));
        // Counts are per-member: with two members, one removal keeps the pin.
        idx.insert(&Tuple::new_in(["415", "3", "LA"], rel.pool()));
        idx.remove(&probe);
        assert_eq!(idx.pinned_id(var, &fresh), Some(vid(&rel, "LA")));
    }

    #[test]
    fn null_only_group_is_unconstrained() {
        let (mut rel, sigma) = setup();
        rel.set_value(cfd_model::TupleId(0), cfd_model::AttrId(2), Value::Null)
            .unwrap();
        let idx = LhsIndexes::build(&rel, &sigma);
        let var = sigma.get(cfd_cfd::CfdId(0));
        let probe = Tuple::new_in(["212", "9", "ANY"], rel.pool());
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
        let pool = ValuePool::new_handle();
        let sigma = Sigma::normalize_in(schema.clone(), vec![fd], &pool).unwrap();
        let var = sigma.get(cfd_cfd::CfdId(0));
        // A clean relation: key i carries value v{i} or null.
        let row = |k: u32, null: bool| {
            let v = if null {
                Value::Null
            } else {
                Value::str(format!("v{k}"))
            };
            Tuple::new_in([Value::str(format!("k{k}")), v], &pool)
        };
        trials(48, 0x1A5E, |rng| {
            let mut idx =
                LhsIndexes::build(&Relation::new_in(schema.clone(), pool.clone()), &sigma);
            let mut live: Vec<Tuple> = Vec::new();
            for _ in 0..rng.gen_range(1..120usize) {
                if live.is_empty() || rng.gen_range(0..3u32) > 0 {
                    let t = row(rng.gen_range(0..8u32), rng.gen_range(0..4u32) == 0);
                    idx.insert(&t);
                    live.push(t);
                } else {
                    let t = live.swap_remove(rng.gen_range(0..live.len()));
                    idx.remove(&t);
                }
                let mut rel = Relation::new_in(schema.clone(), pool.clone());
                for t in &live {
                    rel.insert(t.clone()).unwrap();
                }
                let fresh = LhsIndexes::build(&rel, &sigma);
                assert_eq!(idx.entry_count(), fresh.entry_count());
                for k in 0..8 {
                    for probe in [
                        row(k, false),
                        Tuple::new_in([format!("k{k}"), "x".into()], rel.pool()),
                    ] {
                        assert_eq!(idx.pinned_id(var, &probe), fresh.pinned_id(var, &probe));
                        assert_eq!(idx.satisfies(var, &probe), fresh.satisfies(var, &probe));
                    }
                }
            }
        });
    }
}
