//! Violation semantics (§3.1): counting `vio(t)`, satisfaction checking,
//! and dirty-tuple detection.
//!
//! For a normal CFD `φ = (R: X → A, tp)` and tuple `t`:
//!
//! 1. **Constant violation** — `t[X] ≼ tp[X]` but `t[A]` fails `tp[A] = a`.
//!    A single tuple suffices. Under the simple SQL null semantics a `null`
//!    RHS *satisfies* the pattern (it is "uncertain", not wrong — see
//!    Example 5.1 where `(null, null)` satisfies the constant CFD ϕ2), while
//!    a `null` among `t[X]` makes the CFD inapplicable.
//! 2. **Variable violation** — `t[X] ≼ tp[X]`, `t[A] ≼ tp[A]`, and some
//!    other tuple `t'` agrees with `t` on `X` (also matching the pattern)
//!    but carries a different non-null `A` value. `vio(t)` grows by one per
//!    such partner.
//!
//! `vio(t)` is the sum over all normal CFDs in `Σ`; it drives the
//! V-INCREPAIR ordering, the stratified sampler, and the repair loop's
//! progress accounting.
//!
//! Full detection reads variable violations off the group census of its
//! [`EngineParts`] ([`crate::census`]), the same histogram `BATCHREPAIR`
//! and `INCREPAIR` decide from: in a group that matches the pattern and
//! holds two or more values, each member's partner count is the group's
//! non-null total minus its own bucket. The satisfaction check [`check`]
//! builds no census: it stops at the first violation.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use cfd_model::hash::FixedMap;
use cfd_model::index::HashIndex;
use cfd_model::{AttrId, IdKey, Relation, TupleId, TupleView, ValueId};

use crate::census::GroupCensus;
use crate::cfd::{CfdId, NormalCfd, Sigma};
use crate::pattern::{ids_match, PatternId};

/// Violations of one relation against one Σ.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViolationReport {
    /// `vio(t)` for every tuple with at least one violation.
    pub per_tuple: FixedMap<TupleId, usize>,
    /// For each normal CFD (indexed by `CfdId`), the tuples violating it.
    pub per_cfd: Vec<Vec<TupleId>>,
    /// Total violation count `vio(D) = Σ_t vio(t)`.
    pub total: usize,
}

impl ViolationReport {
    /// `vio(t)`, zero when clean.
    pub fn vio(&self, t: TupleId) -> usize {
        self.per_tuple.get(&t).copied().unwrap_or(0)
    }

    /// Is the relation clean, i.e. `D |= Σ`?
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Tuples with at least one violation, sorted by id.
    pub fn dirty_tuples(&self) -> Vec<TupleId> {
        let mut ids: Vec<_> = self.per_tuple.keys().copied().collect();
        ids.sort();
        ids
    }
}

/// Shared group indexes: one [`HashIndex`] per distinct LHS attribute list
/// in Σ. Building them once amortizes across the (typically many) normal
/// CFDs expanded from the same tableau.
#[derive(Clone, Default)]
pub struct GroupIndexes {
    by_lhs: BTreeMap<Vec<AttrId>, HashIndex>,
}

impl GroupIndexes {
    /// Build indexes covering every LHS attribute list in `sigma`.
    pub fn build(rel: &Relation, sigma: &Sigma) -> Self {
        let mut by_lhs = BTreeMap::new();
        for n in sigma.iter() {
            by_lhs
                .entry(n.lhs().to_vec())
                .or_insert_with(|| HashIndex::build(rel, n.lhs()));
        }
        GroupIndexes { by_lhs }
    }

    /// The attribute lists currently indexed, in sorted order.
    pub fn attr_lists(&self) -> Vec<Vec<AttrId>> {
        self.by_lhs.keys().cloned().collect()
    }

    /// The index for a given LHS attribute list.
    pub fn for_lhs(&self, lhs: &[AttrId]) -> &HashIndex {
        &self.by_lhs[lhs]
    }

    /// Ensure an index exists on an arbitrary attribute list, building it
    /// from `rel` on first use. `FINDV`'s S-set lookups (§4.2, line 4) need
    /// indexes on `X ∪ {A} \ {B}`, which only materialize for the (φ, B)
    /// combinations the repair actually touches.
    pub fn ensure(&mut self, rel: &Relation, attrs: &[AttrId]) -> &HashIndex {
        self.by_lhs
            .entry(attrs.to_vec())
            .or_insert_with(|| HashIndex::build(rel, attrs))
    }

    /// Look up an index previously created by [`GroupIndexes::build`] or
    /// [`GroupIndexes::ensure`].
    pub fn get(&self, attrs: &[AttrId]) -> Option<&HashIndex> {
        self.by_lhs.get(attrs)
    }

    /// Propagate a tuple update to every index.
    pub fn update<V: TupleView + ?Sized, W: TupleView + ?Sized>(
        &mut self,
        id: TupleId,
        before: &V,
        after: &W,
    ) {
        for idx in self.by_lhs.values_mut() {
            idx.update(id, before, after);
        }
    }
}

/// A hash index over the *constant* normal CFDs of a Σ.
///
/// The experiment tableaus contain 300–5,000 pattern rows ("the set of
/// constraints is fairly large since each pattern tuple is in fact a
/// constraint", §7.1), so testing a tuple against every constant rule
/// one-by-one is quadratic in practice. `ConstantRules` groups the rules by
/// (LHS attribute list, constant-position mask) and hashes the constant
/// parts, reducing "which constant rules fire on `t`?" to one lookup per
/// group — and there are only as many groups as structurally distinct
/// tableau shapes (a handful).
///
/// A caller that knows only some attributes changed can fire just the
/// groups whose LHS mentions them: [`groups_on`](Self::groups_on) lists
/// them per attribute and [`for_each_fired_in`](Self::for_each_fired_in)
/// walks a subset.
#[derive(Clone, Debug, Default)]
pub struct ConstantRules {
    groups: Vec<ConstGroup>,
    /// Per attribute, the groups whose LHS mentions it, ascending.
    by_attr: Vec<Vec<usize>>,
}

#[derive(Clone, Debug)]
struct ConstGroup {
    /// All LHS attributes (wildcard positions must merely be non-null).
    lhs: Vec<AttrId>,
    /// LHS attributes at constant pattern positions (the hash key).
    const_attrs: Vec<AttrId>,
    /// key = interned projection onto `const_attrs` → the rules with that
    /// key. Probed with a stack-built id slice; no allocation per tuple.
    map: FixedMap<IdKey, Vec<ConstRule>>,
}

/// One constant rule: `CfdId` plus its RHS obligation (interned).
#[derive(Clone, Debug)]
pub struct ConstRule {
    /// The normal CFD this rule came from.
    pub id: CfdId,
    /// The RHS attribute.
    pub rhs_attr: AttrId,
    /// The RHS constant pattern, interned at rule-load time.
    pub rhs: PatternId,
}

impl ConstantRules {
    /// Index all constant normal CFDs of `sigma`.
    pub fn build(sigma: &Sigma) -> Self {
        // group key: (lhs attrs, const-position mask)
        let mut grouping: FixedMap<(Vec<AttrId>, Vec<bool>), usize> = FixedMap::default();
        let mut groups: Vec<ConstGroup> = Vec::new();
        for n in sigma.iter().filter(|n| n.is_constant()) {
            let mask: Vec<bool> = n.lhs_pattern().iter().map(|p| !p.is_wildcard()).collect();
            let gi = *grouping
                .entry((n.lhs().to_vec(), mask.clone()))
                .or_insert_with(|| {
                    let const_attrs = n
                        .lhs()
                        .iter()
                        .zip(mask.iter())
                        .filter(|(_, m)| **m)
                        .map(|(a, _)| *a)
                        .collect();
                    groups.push(ConstGroup {
                        lhs: n.lhs().to_vec(),
                        const_attrs,
                        map: FixedMap::default(),
                    });
                    groups.len() - 1
                });
            let key: IdKey = n
                .lhs_pattern_ids()
                .iter()
                .filter_map(|p| p.as_const_id())
                .collect();
            groups[gi].map.entry(key).or_default().push(ConstRule {
                id: n.id(),
                rhs_attr: n.rhs_attr(),
                rhs: n.rhs_pattern_id(),
            });
        }
        let mut by_attr = vec![Vec::new(); sigma.schema().arity()];
        for (gi, g) in groups.iter().enumerate() {
            for a in &g.lhs {
                by_attr[a.index()].push(gi);
            }
        }
        ConstantRules { groups, by_attr }
    }

    /// The groups whose LHS mentions `a`, ascending: the only ones whose
    /// fired rules can change when `t[a]` does.
    pub fn groups_on(&self, a: AttrId) -> &[usize] {
        self.by_attr.get(a.index()).map_or(&[], Vec::as_slice)
    }

    /// Visit every constant rule whose LHS pattern matches `t`
    /// (`t[X] ≼ tp[X]`). The callback also receives the rule's LHS
    /// attribute list (shared by its group) for scope filtering.
    pub fn for_each_fired<'s, V: TupleView + ?Sized>(
        &'s self,
        t: &V,
        f: impl FnMut(&'s [AttrId], &'s ConstRule),
    ) {
        self.for_each_fired_in(t, 0..self.groups.len(), f);
    }

    /// [`for_each_fired`](Self::for_each_fired) over the groups `groups`
    /// only (indexes as [`groups_on`](Self::groups_on) lists them), in
    /// the order given.
    pub fn for_each_fired_in<'s, V: TupleView + ?Sized>(
        &'s self,
        t: &V,
        groups: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(&'s [AttrId], &'s ConstRule),
    ) {
        'group: for g in groups.into_iter().map(|gi| &self.groups[gi]) {
            for a in &g.lhs {
                if t.id(*a).is_null() {
                    continue 'group; // null never matches, not even `_`
                }
            }
            let key = t.project_key(&g.const_attrs);
            if let Some(rules) = g.map.get(&key) {
                for r in rules {
                    f(&g.lhs, r);
                }
            }
        }
    }

    /// Count the constant violations of `t` (each fired rule whose RHS
    /// obligation fails), optionally collecting the violated rule ids.
    pub fn violations_of<V: TupleView + ?Sized>(
        &self,
        t: &V,
        mut out: Option<&mut Vec<CfdId>>,
    ) -> usize {
        let mut count = 0;
        self.for_each_fired(t, |_, r| {
            if !r.rhs.satisfied_by_id(t.id(r.rhs_attr)) {
                count += 1;
                if let Some(ids) = out.as_deref_mut() {
                    ids.push(r.id);
                }
            }
        });
        count
    }
}

/// The owned, Σ-independent detection state of an [`Engine`]: group
/// indexes, hash-indexed constant rules, the subsumption-minimal
/// variable CFD ids, and the variable-CFD group census. `Engine` borrows
/// its Σ, so long-lived owners (a resident dataset handle,
/// `BATCHREPAIR`'s working state) hold an `EngineParts` next to their
/// owned `Sigma` and call [`detect_with_parts`] per operation.
#[derive(Clone)]
pub struct EngineParts {
    /// Group indexes for every LHS attribute list.
    pub indexes: GroupIndexes,
    /// Hash-indexed constant rules.
    pub rules: ConstantRules,
    /// Ids of the subsumption-minimal variable normal CFDs.
    pub variable_ids: Vec<CfdId>,
    /// The group census, bucketed off `indexes` by its first reader.
    /// Clones made after that share it; none copies it.
    census: OnceLock<Arc<GroupCensus>>,
}

impl EngineParts {
    /// The variable-CFD group census of `rel` under `sigma`, the relation
    /// and Σ these parts were built for, bucketed off the group indexes
    /// on first use. It holds weight sums: a caller that reweighs `rel`
    /// must [`drop_census`](Self::drop_census) first.
    pub fn census(&self, rel: &Relation, sigma: &Sigma) -> &Arc<GroupCensus> {
        self.census.get_or_init(|| {
            Arc::new(GroupCensus::bucketed(rel, sigma, |lhs| {
                self.indexes.for_lhs(lhs)
            }))
        })
    }

    /// Forget the census, so the next reader buckets it afresh.
    pub fn drop_census(&mut self) {
        self.census = OnceLock::new();
    }
}

/// All read-only state needed to evaluate violations efficiently: group
/// indexes for the variable CFDs plus the hash-indexed constant rules.
pub struct Engine<'a> {
    /// The constrained Σ.
    pub sigma: &'a Sigma,
    /// Group indexes for every LHS attribute list.
    pub indexes: GroupIndexes,
    /// Hash-indexed constant rules.
    pub rules: ConstantRules,
    /// Ids of the variable normal CFDs (usually few).
    variable_ids: Vec<CfdId>,
}

/// The subsumption-minimal set of variable normal CFDs: a variable CFD
/// whose LHS pattern is pointwise subsumed by another variable CFD with
/// the same attribute lists is redundant for satisfaction checking — the
/// broader pattern already constrains a superset of tuples. Experiment
/// tableaus mix an all-wildcard FD row with hundreds of constant rows
/// (Fig. 1's T1); the constant rows' wildcard-RHS components are all
/// implied by the FD row, so checking only the minimal set turns O(rows)
/// variable checks into O(shapes).
pub fn minimal_variable_ids(sigma: &Sigma) -> Vec<CfdId> {
    let variables: Vec<&NormalCfd> = sigma.iter().filter(|n| !n.is_constant()).collect();
    let mut keep = Vec::new();
    'outer: for n in &variables {
        for m in &variables {
            if m.id() == n.id() || m.lhs() != n.lhs() || m.rhs_attr() != n.rhs_attr() {
                continue;
            }
            let subsumed = n
                .lhs_pattern()
                .iter()
                .zip(m.lhs_pattern())
                .all(|(a, b)| a.subsumed_by(b));
            // strict subsumption, or identical rows deduped by lower id
            let identical = n.lhs_pattern() == m.lhs_pattern();
            if subsumed && (!identical || m.id() < n.id()) {
                continue 'outer;
            }
        }
        keep.push(n.id());
    }
    keep
}

impl<'a> Engine<'a> {
    /// Build the engine for `rel` w.r.t. `sigma`. Variable CFDs are
    /// reduced to the subsumption-minimal set (see
    /// [`minimal_variable_ids`]); `vio` counts therefore count each
    /// conflicting pair once per *distinct* variable constraint rather
    /// than once per redundant tableau row.
    ///
    /// # Panics
    ///
    /// When `sigma` was normalized into another pool than `rel`'s: its
    /// pattern ids would name other values.
    pub fn build(rel: &Relation, sigma: &'a Sigma) -> Self {
        if let Err(e) = sigma.check_pool(rel.pool()) {
            panic!("{e}");
        }
        Engine {
            sigma,
            indexes: GroupIndexes::build(rel, sigma),
            rules: ConstantRules::build(sigma),
            variable_ids: minimal_variable_ids(sigma),
        }
    }

    /// [`Engine::build`], ignoring the count: `perfbench` still calls it.
    #[doc(hidden)]
    pub fn build_with_threads(rel: &Relation, sigma: &'a Sigma, _threads: usize) -> Self {
        Engine::build(rel, sigma)
    }

    /// Decompose into owned [`EngineParts`], letting `BATCHREPAIR` and a
    /// resident dataset reuse the detection structures instead of
    /// rebuilding them.
    pub fn to_parts(self) -> EngineParts {
        EngineParts {
            indexes: self.indexes,
            rules: self.rules,
            variable_ids: self.variable_ids,
            census: OnceLock::new(),
        }
    }

    /// Ids of the subsumption-minimal variable normal CFDs.
    pub fn variable_ids(&self) -> &[CfdId] {
        &self.variable_ids
    }

    /// The variable normal CFDs of Σ.
    pub fn variable_cfds(&self) -> impl Iterator<Item = &NormalCfd> + '_ {
        self.variable_ids.iter().map(|id| self.sigma.get(*id))
    }

    /// `vio(t)` of a candidate tuple (not necessarily in `rel`): constant
    /// violations plus conflicts against existing tuples in `rel`. This is
    /// the `vio(t[C/v̄])` ingredient of `TUPLERESOLVE`'s cost (§5.1). Pass
    /// `exclude` to skip the tuple's own id when it is already stored.
    pub fn vio_of<V: TupleView + ?Sized>(
        &self,
        rel: &Relation,
        t: &V,
        exclude: Option<TupleId>,
    ) -> usize {
        let mut vio = self.rules.violations_of(t, None);
        for n in self.variable_cfds() {
            if !n.applies_to(t) {
                continue;
            }
            let v = t.id(n.rhs_attr());
            if v.is_null() {
                continue;
            }
            let rhs_col = rel.column(n.rhs_attr());
            let group = self.indexes.for_lhs(n.lhs()).group_of(t);
            for other in group {
                if exclude == Some(*other) {
                    continue;
                }
                let ov = rhs_col[other.index()];
                if !ov.is_null() && ov != v {
                    vio += 1;
                }
            }
        }
        vio
    }
}

/// The constant-rule pass of full detection: for every live tuple, count
/// the fired-but-unsatisfied constant rules into `report`. Rule groups in
/// the outer loop, tuples inner, so each pass reads only the group's
/// LHS/RHS **column slices** — contiguous `u32` runs — instead of
/// materializing row views.
fn constant_scan(rel: &Relation, rules: &ConstantRules, report: &mut ViolationReport) {
    let live: Vec<TupleId> = rel.ids().collect();
    for g in &rules.groups {
        let lhs_cols: Vec<&[ValueId]> = g.lhs.iter().map(|a| rel.column(*a)).collect();
        let key_cols: Vec<&[ValueId]> = g.const_attrs.iter().map(|a| rel.column(*a)).collect();
        for id in &live {
            let slot = id.index();
            if lhs_cols.iter().any(|c| c[slot].is_null()) {
                continue; // null never matches, not even `_`
            }
            let key: IdKey = key_cols.iter().map(|c| c[slot]).collect();
            if let Some(rules) = g.map.get(&key) {
                for r in rules {
                    let rhs = rel.column(r.rhs_attr);
                    if !r.rhs.satisfied_by_id(rhs[slot]) {
                        *report.per_tuple.entry(*id).or_insert(0) += 1;
                        report.per_cfd[r.id.index()].push(*id);
                        report.total += 1;
                    }
                }
            }
        }
    }
}

/// Full violation detection against borrowed [`EngineParts`] — the
/// resident-dataset entry point: a warm handle keeps one `EngineParts`
/// alive across requests and detects without rebuilding or cloning any
/// index. Buckets the parts' census on first use.
pub fn detect_with_parts(rel: &Relation, sigma: &Sigma, parts: &EngineParts) -> ViolationReport {
    let mut report = ViolationReport {
        per_cfd: vec![Vec::new(); sigma.len()],
        ..Default::default()
    };
    constant_scan(rel, &parts.rules, &mut report);
    variable_scan(
        rel,
        sigma,
        parts.census(rel, sigma),
        &parts.variable_ids,
        &mut report,
    );
    for ids in &mut report.per_cfd {
        ids.sort();
        ids.dedup();
    }
    report
}

/// The variable-CFD pass of full detection. In a census group that
/// matches a variable CFD's LHS pattern, every non-null RHS member
/// conflicts with each member holding a different non-null RHS value
/// (null equals everything, §3.1): its partners are the group's non-null
/// total minus its own bucket. A group with one value is clean. `vio`
/// accumulates densely by slot and reaches `per_tuple` once.
fn variable_scan(
    rel: &Relation,
    sigma: &Sigma,
    census: &GroupCensus,
    variable_ids: &[CfdId],
    report: &mut ViolationReport,
) {
    let mut vio = vec![0usize; rel.slot_count()];
    for n in variable_ids.iter().map(|id| sigma.get(*id)) {
        let dirty = &mut report.per_cfd[n.id().index()];
        for (key, buckets) in census.groups_of(n) {
            if buckets.len() < 2 || !ids_match(key.as_slice(), n.lhs_pattern_ids()) {
                continue;
            }
            let nonnull = buckets.nonnull();
            for bucket in buckets.values() {
                let partners = nonnull - bucket.ids.len();
                for id in &bucket.ids {
                    vio[id.index()] += partners;
                    dirty.push(*id);
                }
                report.total += partners * bucket.ids.len();
            }
        }
    }
    for (slot, &v) in vio.iter().enumerate() {
        if v > 0 {
            *report.per_tuple.entry(TupleId(slot as u32)).or_insert(0) += v;
        }
    }
}

/// Full violation detection, building all indexes internally.
///
/// # Panics
///
/// When `sigma` was normalized into another pool than `rel`'s
/// ([`Engine::build`]).
pub fn detect(rel: &Relation, sigma: &Sigma) -> ViolationReport {
    detect_with_parts(rel, sigma, &Engine::build(rel, sigma).to_parts())
}

/// Satisfaction check `D |= Σ`. Equivalent to `detect(..).is_clean()` but
/// short-circuits on the first violation, and builds no census.
///
/// # Panics
///
/// When `sigma` was normalized into another pool than `rel`'s
/// ([`Engine::build`]).
pub fn check(rel: &Relation, sigma: &Sigma) -> bool {
    let engine = Engine::build(rel, sigma);
    for (_, t) in rel.iter() {
        let mut bad = false;
        engine.rules.for_each_fired(&t, |_, r| {
            bad |= !r.rhs.satisfied_by_id(t.id(r.rhs_attr));
        });
        if bad {
            return false;
        }
    }
    for n in engine.variable_cfds() {
        let idx = engine.indexes.for_lhs(n.lhs());
        let rhs_col = rel.column(n.rhs_attr());
        for (key, group) in idx.groups() {
            if group.len() < 2 || !ids_match(key.as_slice(), n.lhs_pattern_ids()) {
                continue;
            }
            let mut seen: Option<ValueId> = None;
            for id in group {
                let v = rhs_col[id.index()];
                if v.is_null() {
                    continue;
                }
                match seen {
                    None => seen = Some(v),
                    Some(s) if s == v => {}
                    Some(_) => return false,
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::Cfd;
    use crate::pattern::{PatternRow, PatternValue};
    use cfd_model::{Schema, Tuple, Value, ValuePool};

    /// The paper's Fig. 1 running example: schema, data, ϕ1 and ϕ2.
    fn fig1() -> (Relation, Sigma) {
        let schema = Schema::new(
            "order",
            &["id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip"],
        )
        .unwrap();
        let mut rel = Relation::new_in(schema.clone(), ValuePool::new_handle());
        for row in [
            [
                "a23",
                "H. Porter",
                "17.99",
                "215",
                "8983490",
                "Walnut",
                "PHI",
                "PA",
                "19014",
            ],
            [
                "a23",
                "H. Porter",
                "17.99",
                "610",
                "3456789",
                "Spruce",
                "PHI",
                "PA",
                "19014",
            ],
            [
                "a12",
                "J. Denver",
                "7.94",
                "212",
                "3345677",
                "Canel",
                "PHI",
                "PA",
                "10012",
            ],
            [
                "a89",
                "Snow White",
                "18.99",
                "212",
                "5674322",
                "Broad",
                "PHI",
                "PA",
                "10012",
            ],
        ] {
            rel.insert(Tuple::new_in(row, rel.pool())).unwrap();
        }
        let phi1 = Cfd::new(
            "phi1",
            schema.attrs_named(&["AC", "PN"]).unwrap(),
            schema.attrs_named(&["STR", "CT", "ST"]).unwrap(),
            vec![
                PatternRow::new(
                    vec![PatternValue::constant("212"), PatternValue::Wildcard],
                    vec![
                        PatternValue::Wildcard,
                        PatternValue::constant("NYC"),
                        PatternValue::constant("NY"),
                    ],
                ),
                PatternRow::new(
                    vec![PatternValue::constant("610"), PatternValue::Wildcard],
                    vec![
                        PatternValue::Wildcard,
                        PatternValue::constant("PHI"),
                        PatternValue::constant("PA"),
                    ],
                ),
                PatternRow::new(
                    vec![PatternValue::constant("215"), PatternValue::Wildcard],
                    vec![
                        PatternValue::Wildcard,
                        PatternValue::constant("PHI"),
                        PatternValue::constant("PA"),
                    ],
                ),
            ],
        )
        .unwrap();
        let phi2 = Cfd::new(
            "phi2",
            schema.attrs_named(&["zip"]).unwrap(),
            schema.attrs_named(&["CT", "ST"]).unwrap(),
            vec![
                PatternRow::new(
                    vec![PatternValue::constant("10012")],
                    vec![PatternValue::constant("NYC"), PatternValue::constant("NY")],
                ),
                PatternRow::new(
                    vec![PatternValue::constant("19014")],
                    vec![PatternValue::constant("PHI"), PatternValue::constant("PA")],
                ),
            ],
        )
        .unwrap();
        let sigma = Sigma::normalize_in(schema, vec![phi1, phi2], rel.pool()).unwrap();
        (rel, sigma)
    }

    #[test]
    fn fig1_t3_t4_violate_phi1_and_phi2() {
        let (rel, sigma) = fig1();
        let report = detect(&rel, &sigma);
        assert!(!report.is_clean());
        // t3 (TupleId 2): violates ϕ1 (CT≠NYC, ST≠NY) and ϕ2 (same) — four
        // constant normal CFDs (CT and ST rows of each).
        assert_eq!(report.vio(TupleId(2)), 4);
        assert_eq!(report.vio(TupleId(3)), 4);
        // t1, t2 are clean
        assert_eq!(report.vio(TupleId(0)), 0);
        assert_eq!(report.vio(TupleId(1)), 0);
        assert_eq!(report.dirty_tuples(), vec![TupleId(2), TupleId(3)]);
        assert!(!check(&rel, &sigma));
    }

    #[test]
    fn repaired_fig1_is_clean() {
        let (mut rel, sigma) = fig1();
        let schema = rel.schema().clone();
        let ct = schema.attr("CT").unwrap();
        let st = schema.attr("ST").unwrap();
        for id in [TupleId(2), TupleId(3)] {
            rel.set_value(id, ct, Value::str("NYC")).unwrap();
            rel.set_value(id, st, Value::str("NY")).unwrap();
        }
        assert!(check(&rel, &sigma));
        assert!(detect(&rel, &sigma).is_clean());
    }

    #[test]
    fn variable_violation_needs_pair() {
        let (mut rel, sigma) = fig1();
        let schema = rel.schema().clone();
        // make t3/t4 consistent first
        let ct = schema.attr("CT").unwrap();
        let st = schema.attr("ST").unwrap();
        for id in [TupleId(2), TupleId(3)] {
            rel.set_value(id, ct, Value::str("NYC")).unwrap();
            rel.set_value(id, st, Value::str("NY")).unwrap();
        }
        // insert t5 = (215, 8983490, …, NYC, NY, 10012): agrees with t1 on
        // [AC,PN] but differs on STR/CT/ST → variable violations of ϕ1's
        // 215-row... wait, the 215 row has constant CT/ST; STR stays a
        // wildcard so the STR disagreement is the variable part.
        let t5 = Tuple::new_in(
            [
                "a77",
                "B. Ookworm",
                "3.50",
                "215",
                "8983490",
                "Elm",
                "NYC",
                "NY",
                "10012",
            ],
            rel.pool(),
        );
        let id5 = rel.insert(t5).unwrap();
        let report = detect(&rel, &sigma);
        // t5 violates: ϕ1 215-row CT (NYC≠PHI const) + ST + STR variable
        // conflict with t1.
        assert!(report.vio(id5) >= 3);
        // t1 now also violates the STR variable CFD with t5.
        assert!(report.vio(TupleId(0)) >= 1);
        assert!(!check(&rel, &sigma));
    }

    #[test]
    fn null_rhs_satisfies_constant_cfd() {
        let (mut rel, sigma) = fig1();
        let schema = rel.schema().clone();
        let ct = schema.attr("CT").unwrap();
        let st = schema.attr("ST").unwrap();
        // t3 with null CT/ST instead of NYC/NY: uncertain, not a violation
        rel.set_value(TupleId(2), ct, Value::Null).unwrap();
        rel.set_value(TupleId(2), st, Value::Null).unwrap();
        // fix t4 properly
        rel.set_value(TupleId(3), ct, Value::str("NYC")).unwrap();
        rel.set_value(TupleId(3), st, Value::str("NY")).unwrap();
        assert!(check(&rel, &sigma));
    }

    #[test]
    fn null_lhs_makes_cfd_inapplicable() {
        let (mut rel, sigma) = fig1();
        let schema = rel.schema().clone();
        let ac = schema.attr("AC").unwrap();
        // nulling t3's AC removes its ϕ1 violations (zip-based ϕ2 remain)
        rel.set_value(TupleId(2), ac, Value::Null).unwrap();
        let report = detect(&rel, &sigma);
        assert_eq!(report.vio(TupleId(2)), 2); // only ϕ2's CT/ST rows
    }

    #[test]
    fn vio_of_matches_detect() {
        let (rel, sigma) = fig1();
        let engine = Engine::build(&rel, &sigma);
        let report = detect(&rel, &sigma);
        for (id, t) in rel.iter() {
            assert_eq!(
                engine.vio_of(&rel, &t, Some(id)),
                report.vio(id),
                "mismatch at {id}"
            );
        }
    }

    #[test]
    fn vio_of_counts_future_conflicts() {
        let (mut rel, sigma) = fig1();
        let schema = rel.schema().clone();
        let ct = schema.attr("CT").unwrap();
        let st = schema.attr("ST").unwrap();
        for id in [TupleId(2), TupleId(3)] {
            rel.set_value(id, ct, Value::str("NYC")).unwrap();
            rel.set_value(id, st, Value::str("NY")).unwrap();
        }
        let engine = Engine::build(&rel, &sigma);
        // candidate t5 of Example 1.1
        let t5 = Tuple::new_in(
            [
                "a55", "X", "9.99", "215", "8983490", "Walnut", "NYC", "NY", "10012",
            ],
            rel.pool(),
        );
        // matches 215-row of ϕ1: CT=NYC≠PHI, ST=NY≠PA → 2 constant
        // violations; STR agrees with t1 so no variable conflict; ϕ2
        // 10012-row is satisfied (NYC, NY).
        assert_eq!(engine.vio_of(&rel, &t5, None), 2);
        // the same tuple with CT/ST nulled incurs none
        let mut t5n = t5.clone();
        t5n.set_id(ct, cfd_model::NULL_ID);
        t5n.set_id(st, cfd_model::NULL_ID);
        assert_eq!(engine.vio_of(&rel, &t5n, None), 0);
    }

    /// A mixed tableau's constant-LHS, wildcard-RHS row is subsumed by its
    /// FD row: the conflicting `212` pair counts once per tuple, not twice.
    #[test]
    fn vio_of_skips_subsumed_variable_rows() {
        let schema = Schema::new("r", &["AC", "PN", "STR"]).unwrap();
        let mut rel = Relation::new_in(schema.clone(), ValuePool::new_handle());
        rel.insert(Tuple::new_in(["212", "555", "Elm"], rel.pool()))
            .unwrap();
        rel.insert(Tuple::new_in(["212", "555", "Oak"], rel.pool()))
            .unwrap();
        let cfd = Cfd::new(
            "phi",
            schema.attrs_named(&["AC", "PN"]).unwrap(),
            schema.attrs_named(&["STR"]).unwrap(),
            vec![
                PatternRow::new(
                    vec![PatternValue::Wildcard, PatternValue::Wildcard],
                    vec![PatternValue::Wildcard],
                ),
                PatternRow::new(
                    vec![PatternValue::constant("212"), PatternValue::Wildcard],
                    vec![PatternValue::Wildcard],
                ),
            ],
        )
        .unwrap();
        let sigma = Sigma::normalize_in(schema, vec![cfd], rel.pool()).unwrap();
        let engine = Engine::build(&rel, &sigma);
        let report = detect(&rel, &sigma);
        assert_eq!(report.total, 2);
        for (id, t) in rel.iter() {
            assert_eq!(report.vio(id), 1, "one partner under one constraint");
            assert_eq!(engine.vio_of(&rel, &t, Some(id)), report.vio(id), "{id}");
        }
    }

    #[test]
    fn per_cfd_dirty_sets_are_deduped() {
        let (rel, sigma) = fig1();
        let report = detect(&rel, &sigma);
        for ids in &report.per_cfd {
            let mut sorted = ids.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(&sorted, ids);
        }
    }

    /// Σ normalized into one pool, matched against a relation of another:
    /// detection, the satisfaction check and the engine build refuse.
    #[test]
    fn a_sigma_of_another_pool_is_refused() {
        let (rel, sigma) = fig1();
        let mut other = Relation::new_in(rel.schema().clone(), ValuePool::new_handle());
        for (_, t) in rel.iter() {
            other
                .insert(Tuple::new_in(t.values(), other.pool()))
                .unwrap();
        }
        let refused = |f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("value pool mismatch"), "{msg}");
        };
        refused(&|| {
            detect(&other, &sigma);
        });
        refused(&|| {
            check(&other, &sigma);
        });
        refused(&|| {
            Engine::build(&other, &sigma);
        });
        assert!(matches!(
            sigma.check_pool(other.pool()),
            Err(cfd_model::ModelError::PoolMismatch)
        ));
        assert!(sigma.check_pool(rel.pool()).is_ok());
    }

    #[test]
    fn empty_sigma_always_clean() {
        let (rel, _) = fig1();
        let schema = rel.schema().clone();
        let sigma = Sigma::normalize_in(schema, vec![], rel.pool()).unwrap();
        assert!(check(&rel, &sigma));
        assert!(detect(&rel, &sigma).is_clean());
    }
}
