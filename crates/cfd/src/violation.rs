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

use std::collections::{BTreeMap, HashMap};

use cfd_model::index::HashIndex;
use cfd_model::{AttrId, IdKey, Relation, Tuple, TupleId, TupleView, ValueId};

use crate::cfd::{CfdId, NormalCfd, Sigma};
use crate::pattern::{ids_match, PatternId};

/// Violations of one relation against one Σ.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViolationReport {
    /// `vio(t)` for every tuple with at least one violation.
    pub per_tuple: HashMap<TupleId, usize>,
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

    /// Register a fresh tuple in every index.
    pub fn insert<V: TupleView + ?Sized>(&mut self, id: TupleId, t: &V) {
        for idx in self.by_lhs.values_mut() {
            idx.insert(id, t);
        }
    }

    /// Drop a tuple from every index, given its *current* contents (the
    /// caller must remove before mutating or deleting the tuple). The
    /// inverse of [`GroupIndexes::insert`] — streaming deletions use this
    /// to keep a resident index in step with the relation without a
    /// rebuild.
    pub fn remove<V: TupleView + ?Sized>(&mut self, id: TupleId, t: &V) {
        for idx in self.by_lhs.values_mut() {
            idx.remove(id, t);
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
#[derive(Clone, Debug, Default)]
pub struct ConstantRules {
    groups: Vec<ConstGroup>,
}

#[derive(Clone, Debug)]
struct ConstGroup {
    /// All LHS attributes (wildcard positions must merely be non-null).
    lhs: Vec<AttrId>,
    /// LHS attributes at constant pattern positions (the hash key).
    const_attrs: Vec<AttrId>,
    /// key = interned projection onto `const_attrs` → the rules with that
    /// key. Probed with a stack-built id slice; no allocation per tuple.
    map: HashMap<IdKey, Vec<ConstRule>>,
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
    /// Distinct constant-projection keys per group — the size signal the
    /// vectorized scan's key-major/tuple-major dispatch keys off.
    pub fn key_counts(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.map.len()).collect()
    }

    /// Index all constant normal CFDs of `sigma`.
    pub fn build(sigma: &Sigma) -> Self {
        // group key: (lhs attrs, const-position mask)
        let mut grouping: HashMap<(Vec<AttrId>, Vec<bool>), usize> = HashMap::new();
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
                        map: HashMap::new(),
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
        ConstantRules { groups }
    }

    /// Visit every constant rule whose LHS pattern matches `t`
    /// (`t[X] ≼ tp[X]`). The callback also receives the rule's LHS
    /// attribute list (shared by its group) for scope filtering.
    pub fn for_each_fired<V: TupleView + ?Sized>(
        &self,
        t: &V,
        mut f: impl FnMut(&[AttrId], &ConstRule),
    ) {
        'group: for g in &self.groups {
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

/// For a variable CFD and a group of tuples sharing the LHS key (which
/// matches the pattern), count per-tuple conflicts and report the group's
/// dirty members. Returns (tuple, partner-count) pairs.
fn variable_group_conflicts(
    n: &NormalCfd,
    rel: &Relation,
    group: &[TupleId],
) -> Vec<(TupleId, usize)> {
    // One RHS read per member: straight off the column slice on columnar
    // storage, through the row view otherwise.
    let rhs_col = rel.column(n.rhs_attr());
    let rhs_of = |id: TupleId| -> ValueId {
        match rhs_col {
            Some(col) => col[id.index()],
            None => rel
                .value_id(id, n.rhs_attr())
                .expect("index holds live ids"),
        }
    };
    // Tally non-null RHS ids in the group — a u32-keyed histogram.
    let mut counts: HashMap<ValueId, usize> = HashMap::new();
    let mut non_null_total = 0usize;
    for id in group {
        let v = rhs_of(*id);
        if !v.is_null() {
            *counts.entry(v).or_insert(0) += 1;
            non_null_total += 1;
        }
    }
    if counts.len() <= 1 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for id in group {
        let v = rhs_of(*id);
        if v.is_null() {
            continue; // null equals everything: no conflict for this tuple
        }
        let same = counts[&v];
        out.push((*id, non_null_total - same));
    }
    out
}

/// The owned, Σ-independent detection state of an [`Engine`]: group
/// indexes, hash-indexed constant rules, and the subsumption-minimal
/// variable CFD ids. `Engine` borrows its Σ, so long-lived owners (a
/// resident dataset handle, `BATCHREPAIR`'s working state) hold an
/// `EngineParts` next to their owned `Sigma` and reconstitute a borrowed
/// [`Engine`] — or call [`detect_with_parts`] directly — per operation.
/// The default is empty: a placeholder while the real parts are lent out.
#[derive(Clone, Default)]
pub struct EngineParts {
    /// Group indexes for every LHS attribute list.
    pub indexes: GroupIndexes,
    /// Hash-indexed constant rules.
    pub rules: ConstantRules,
    /// Ids of the subsumption-minimal variable normal CFDs.
    pub variable_ids: Vec<CfdId>,
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
    pub fn build(rel: &Relation, sigma: &'a Sigma) -> Self {
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

    /// Decompose into the group indexes, constant rules, and the
    /// subsumption-minimal variable CFD ids — letting `BATCHREPAIR` reuse
    /// the detection structures instead of rebuilding them.
    pub fn into_parts(self) -> (GroupIndexes, ConstantRules, Vec<CfdId>) {
        (self.indexes, self.rules, self.variable_ids)
    }

    /// [`Engine::into_parts`] as an owned [`EngineParts`].
    pub fn to_parts(self) -> EngineParts {
        EngineParts {
            indexes: self.indexes,
            rules: self.rules,
            variable_ids: self.variable_ids,
        }
    }

    /// Reconstitute an engine from previously built [`EngineParts`] and
    /// the Σ they were built against. The caller owns the pairing: parts
    /// built for one Σ reused against another produce garbage.
    pub fn from_parts(sigma: &'a Sigma, parts: EngineParts) -> Self {
        Engine {
            sigma,
            indexes: parts.indexes,
            rules: parts.rules,
            variable_ids: parts.variable_ids,
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

    /// Register a tuple newly inserted into the underlying relation.
    pub fn insert<V: TupleView + ?Sized>(&mut self, id: TupleId, t: &V) {
        self.indexes.insert(id, t);
    }

    /// Drop a tuple from the group indexes, given its current contents
    /// (call before the relation deletes it). Deletions never violate
    /// CFDs (§3.3), so this is pure index maintenance — no re-detection
    /// is needed afterwards.
    pub fn remove<V: TupleView + ?Sized>(&mut self, id: TupleId, t: &V) {
        self.indexes.remove(id, t);
    }

    /// Propagate an in-place tuple update to the group indexes.
    pub fn update<V: TupleView + ?Sized, W: TupleView + ?Sized>(
        &mut self,
        id: TupleId,
        before: &V,
        after: &W,
    ) {
        self.indexes.update(id, before, after);
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
                let ov = match rhs_col {
                    Some(col) => col[other.index()],
                    None => rel.value_id(*other, n.rhs_attr()).expect("live"),
                };
                if !ov.is_null() && ov != v {
                    vio += 1;
                }
            }
        }
        vio
    }
}

/// The constant-rule pass of full detection: for every live tuple, count
/// the fired-but-unsatisfied constant rules into `report`.
fn constant_scan(rel: &Relation, rules: &ConstantRules, report: &mut ViolationReport) {
    if cfd_model::simd_enabled() && constant_scan_simd(rel, rules, report) {
        return;
    }
    if constant_scan_columnar(rel, rules, report) {
        return;
    }
    constant_scan_rows(rel, rules, report);
}

/// Row-major reference scan — the fallback for relations without columns,
/// and the baseline every other constant-scan path must agree with.
fn constant_scan_rows(rel: &Relation, rules: &ConstantRules, report: &mut ViolationReport) {
    for (id, t) in rel.iter() {
        rules.for_each_fired(&t, |_, r| {
            if !r.rhs.satisfied_by_id(t.id(r.rhs_attr)) {
                *report.per_tuple.entry(id).or_insert(0) += 1;
                report.per_cfd[r.id.index()].push(id);
                report.total += 1;
            }
        });
    }
}

/// Columnar constant scan: rule groups in the outer loop, tuples inner,
/// so each pass reads only the group's LHS/RHS **column slices** —
/// contiguous `u32` runs — instead of materializing row views. Returns
/// false when `rel` has no columns (row-major layout).
fn constant_scan_columnar(
    rel: &Relation,
    rules: &ConstantRules,
    report: &mut ViolationReport,
) -> bool {
    if rel.schema().arity() > 0 && rel.column(AttrId(0)).is_none() {
        return false;
    }
    let live: Vec<TupleId> = rel.ids().collect();
    for g in &rules.groups {
        let lhs_cols: Vec<&[ValueId]> = g
            .lhs
            .iter()
            .map(|a| rel.column(*a).expect("columnar layout"))
            .collect();
        let key_cols: Vec<&[ValueId]> = g
            .const_attrs
            .iter()
            .map(|a| rel.column(*a).expect("columnar layout"))
            .collect();
        for id in &live {
            let slot = id.index();
            if lhs_cols.iter().any(|c| c[slot].is_null()) {
                continue; // null never matches, not even `_`
            }
            let key: IdKey = key_cols.iter().map(|c| c[slot]).collect();
            if let Some(rules) = g.map.get(&key) {
                for r in rules {
                    let rhs = rel.column(r.rhs_attr).expect("columnar layout");
                    if !r.rhs.satisfied_by_id(rhs[slot]) {
                        *report.per_tuple.entry(*id).or_insert(0) += 1;
                        report.per_cfd[r.id.index()].push(*id);
                        report.total += 1;
                    }
                }
            }
        }
    }
    true
}

/// Vectorized constant scan: **key-major** over contiguous `ValueId(u32)`
/// columns. Where the columnar scan probes the rule hash map once per
/// tuple, this path inverts the loops — for each constant key (in sorted,
/// deterministic order) it sweeps the key column with hand-unrolled 8-lane
/// equality compares (stable toolchain; the chunked `u32` compares and
/// bitmask accumulation below are exactly what LLVM auto-vectorizes).
/// Tuple eligibility (live slot, no null among the group's LHS columns) is
/// precomputed once per group as a slot bitmask, so the per-key sweep is
/// branch-free until a lane actually hits.
///
/// Hits surface in (key, rule, slot) order instead of tuple order — safe
/// because every consumer is order-insensitive: `per_tuple` is a count
/// map, `total` a sum, and `detect_with_engine` sorts + dedups `per_cfd`.
/// The hit *multiset* is identical to the scalar scan's (each live tuple
/// matches at most one key per group — map keys are distinct).
///
/// Returns false (nothing recorded) when the relation has no columns or
/// a key column is too sparse to pay off, letting the scalar paths run.
fn constant_scan_simd(rel: &Relation, rules: &ConstantRules, report: &mut ViolationReport) -> bool {
    if rel.schema().arity() == 0 || rel.column(AttrId(0)).is_none() {
        return false;
    }
    // Key-major is a win when keys are few (constant tableaux are small in
    // practice); with many distinct keys the per-tuple hash probe wins.
    const MAX_KEYS_PER_GROUP: usize = 64;
    if rules
        .groups
        .iter()
        .any(|g| g.map.len() > MAX_KEYS_PER_GROUP)
    {
        return false;
    }
    let slots = rel.column(AttrId(0)).expect("checked above").len();
    let words = slots.div_ceil(64);
    // Live bitmask: dead slots keep stale ids and must never match.
    let mut live = vec![0u64; words];
    for id in rel.ids() {
        live[id.index() >> 6] |= 1u64 << (id.index() & 63);
    }
    for g in &rules.groups {
        if g.map.is_empty() {
            continue;
        }
        let key_cols: Vec<&[ValueId]> = g
            .const_attrs
            .iter()
            .map(|a| rel.column(*a).expect("columnar layout"))
            .collect();
        // Eligibility: live ∧ every LHS column non-null (`NULL_ID` is slot
        // 0 of the pool, so the null test is an integer compare with 0).
        let mut eligible = live.clone();
        for a in &g.lhs {
            let col = rel.column(*a).expect("columnar layout");
            and_nonnull(col, &mut eligible);
        }
        // Sorted keys: map iteration order is seeded per process and must
        // not reach the scan order.
        let mut keys: Vec<&IdKey> = g.map.keys().collect();
        keys.sort();
        let mut hits: Vec<u32> = Vec::new();
        for key in keys {
            hits.clear();
            let ks = key.as_slice();
            match key_cols.split_first() {
                // Degenerate all-wildcard-LHS group: every eligible slot
                // fires the key.
                None => collect_set_bits(&eligible, slots, &mut hits),
                Some((first, rest)) => {
                    scan_eq_masked(first, ks[0], &eligible, &mut hits);
                    if !rest.is_empty() {
                        hits.retain(|&s| {
                            rest.iter()
                                .zip(&ks[1..])
                                .all(|(col, k)| col[s as usize] == *k)
                        });
                    }
                }
            }
            if hits.is_empty() {
                continue;
            }
            for r in &g.map[key] {
                let rhs = rel.column(r.rhs_attr).expect("columnar layout");
                for &s in &hits {
                    if !r.rhs.satisfied_by_id(rhs[s as usize]) {
                        let id = TupleId(s);
                        *report.per_tuple.entry(id).or_insert(0) += 1;
                        report.per_cfd[r.id.index()].push(id);
                        report.total += 1;
                    }
                }
            }
        }
    }
    true
}

/// Clear mask bits whose column slot holds `NULL_ID`, 8 lanes per step.
fn and_nonnull(col: &[ValueId], mask: &mut [u64]) {
    let mut nulls = 0u64;
    let mut chunks = col.chunks_exact(8);
    let mut i = 0usize;
    for c in &mut chunks {
        let m = u64::from(c[0].is_null())
            | u64::from(c[1].is_null()) << 1
            | u64::from(c[2].is_null()) << 2
            | u64::from(c[3].is_null()) << 3
            | u64::from(c[4].is_null()) << 4
            | u64::from(c[5].is_null()) << 5
            | u64::from(c[6].is_null()) << 6
            | u64::from(c[7].is_null()) << 7;
        nulls |= m << (i & 63);
        i += 8;
        if i & 63 == 0 {
            mask[(i >> 6) - 1] &= !nulls;
            nulls = 0;
        }
    }
    for v in chunks.remainder() {
        if v.is_null() {
            nulls |= 1u64 << (i & 63);
        }
        i += 1;
        if i & 63 == 0 {
            mask[(i >> 6) - 1] &= !nulls;
            nulls = 0;
        }
    }
    if i & 63 != 0 {
        mask[i >> 6] &= !nulls;
    }
}

/// Append the slots where `col[slot] == key` and the mask bit is set,
/// ascending. The compare runs 8 lanes per step; a chunk's packed hit
/// byte is usually zero, so most iterations fall through branch-free.
fn scan_eq_masked(col: &[ValueId], key: ValueId, mask: &[u64], hits: &mut Vec<u32>) {
    let mut chunks = col.chunks_exact(8);
    let mut base = 0usize;
    for c in &mut chunks {
        let mut m = u32::from(c[0] == key)
            | u32::from(c[1] == key) << 1
            | u32::from(c[2] == key) << 2
            | u32::from(c[3] == key) << 3
            | u32::from(c[4] == key) << 4
            | u32::from(c[5] == key) << 5
            | u32::from(c[6] == key) << 6
            | u32::from(c[7] == key) << 7;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            let slot = base + lane;
            if mask[slot >> 6] & (1u64 << (slot & 63)) != 0 {
                hits.push(slot as u32);
            }
            m &= m - 1;
        }
        base += 8;
    }
    for (off, v) in chunks.remainder().iter().enumerate() {
        let slot = base + off;
        if *v == key && mask[slot >> 6] & (1u64 << (slot & 63)) != 0 {
            hits.push(slot as u32);
        }
    }
}

/// Append every set bit of `mask` below `slots`, ascending.
fn collect_set_bits(mask: &[u64], slots: usize, hits: &mut Vec<u32>) {
    for (w, &word) in mask.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            let slot = (w << 6) + m.trailing_zeros() as usize;
            if slot < slots {
                hits.push(slot as u32);
            }
            m &= m - 1;
        }
    }
}

/// Full violation detection: compute [`ViolationReport`] for `rel` w.r.t.
/// `sigma`, reusing a prebuilt [`Engine`].
pub fn detect_with_engine(rel: &Relation, sigma: &Sigma, engine: &Engine<'_>) -> ViolationReport {
    detect_inner(
        rel,
        sigma,
        &engine.indexes,
        &engine.rules,
        &engine.variable_ids,
    )
}

/// Full violation detection against borrowed [`EngineParts`] — the
/// resident-dataset entry point: a warm handle keeps one `EngineParts`
/// alive across requests and detects without rebuilding or cloning any
/// index.
pub fn detect_with_parts(rel: &Relation, sigma: &Sigma, parts: &EngineParts) -> ViolationReport {
    detect_inner(
        rel,
        sigma,
        &parts.indexes,
        &parts.rules,
        &parts.variable_ids,
    )
}

fn detect_inner(
    rel: &Relation,
    sigma: &Sigma,
    indexes: &GroupIndexes,
    rules: &ConstantRules,
    variable_ids: &[CfdId],
) -> ViolationReport {
    let mut report = ViolationReport {
        per_cfd: vec![Vec::new(); sigma.len()],
        ..Default::default()
    };
    // Constant rules: one indexed pass over the tuples.
    constant_scan(rel, rules, &mut report);
    // Variable CFDs: group analysis.
    for n in variable_ids.iter().map(|id| sigma.get(*id)) {
        let idx = indexes.for_lhs(n.lhs());
        for (key, group) in idx.groups() {
            if group.len() < 2 || !ids_match(key.as_slice(), n.lhs_pattern_ids()) {
                continue;
            }
            for (id, partners) in variable_group_conflicts(n, rel, group) {
                *report.per_tuple.entry(id).or_insert(0) += partners;
                report.per_cfd[n.id().index()].push(id);
                report.total += partners;
            }
        }
    }
    for ids in &mut report.per_cfd {
        ids.sort();
        ids.dedup();
    }
    report
}

/// The constant-rule pass alone, with an explicit kernel choice — the
/// bench and differential-test entry point. `simd == true` runs the
/// vectorized key-major scan (falling back to scalar where the layout or
/// key cardinality rules it out); `false` forces the scalar columnar/row
/// reference. `per_cfd` comes back sorted + deduped like
/// [`detect_with_engine`] leaves it, so reports compare with `==`.
pub fn constant_scan_with_kernel(
    rel: &Relation,
    sigma: &Sigma,
    engine: &Engine<'_>,
    simd: bool,
) -> ViolationReport {
    let mut report = ViolationReport {
        per_cfd: vec![Vec::new(); sigma.len()],
        ..Default::default()
    };
    let done = simd && constant_scan_simd(rel, &engine.rules, &mut report);
    if !done && !constant_scan_columnar(rel, &engine.rules, &mut report) {
        constant_scan_rows(rel, &engine.rules, &mut report);
    }
    for ids in &mut report.per_cfd {
        ids.sort();
        ids.dedup();
    }
    report
}

/// Full violation detection, reusing prebuilt [`GroupIndexes`] (constant
/// rules are indexed internally).
pub fn detect_with_indexes(
    rel: &Relation,
    sigma: &Sigma,
    indexes: &GroupIndexes,
) -> ViolationReport {
    let engine = Engine {
        sigma,
        indexes: indexes.clone(),
        rules: ConstantRules::build(sigma),
        variable_ids: minimal_variable_ids(sigma),
    };
    detect_with_engine(rel, sigma, &engine)
}

/// Full violation detection, building all indexes internally.
pub fn detect(rel: &Relation, sigma: &Sigma) -> ViolationReport {
    let engine = Engine::build(rel, sigma);
    detect_with_engine(rel, sigma, &engine)
}

/// Satisfaction check `D |= Σ`. Equivalent to `detect(..).is_clean()` but
/// short-circuits on the first violation.
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
                let v = match rhs_col {
                    Some(col) => col[id.index()],
                    None => rel.value_id(*id, n.rhs_attr()).expect("live"),
                };
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

/// `vio(t)` for a single tuple already in the relation.
pub fn vio_of_tuple(rel: &Relation, sigma: &Sigma, indexes: &GroupIndexes, id: TupleId) -> usize {
    let t = match rel.tuple(id) {
        Some(t) => t,
        None => return 0,
    };
    let mut vio = 0;
    for n in sigma.iter() {
        if !n.applies_to(&t) {
            continue;
        }
        if n.is_constant() {
            if !n.rhs_pattern_id().satisfied_by_id(t.id(n.rhs_attr())) {
                vio += 1;
            }
        } else {
            let v = t.id(n.rhs_attr());
            if v.is_null() {
                continue;
            }
            let group = indexes.for_lhs(n.lhs()).group_of(&t);
            for other in group {
                if *other == id {
                    continue;
                }
                let ov = rel.value_id(*other, n.rhs_attr()).expect("live");
                if !ov.is_null() && ov != v {
                    vio += 1;
                }
            }
        }
    }
    vio
}

/// Violations a *candidate* tuple `t` (not in `rel`) would incur against
/// `rel ∪ {t}`. Prefer [`Engine::vio_of`] in hot paths; this variant keeps
/// a simple signature for tests and examples.
pub fn vio_of_candidate(rel: &Relation, sigma: &Sigma, indexes: &GroupIndexes, t: &Tuple) -> usize {
    let mut vio = 0;
    for n in sigma.iter() {
        if !n.applies_to(t) {
            continue;
        }
        if n.is_constant() {
            if !n.rhs_pattern_id().satisfied_by_id(t.id(n.rhs_attr())) {
                vio += 1;
            }
        } else {
            let v = t.id(n.rhs_attr());
            if v.is_null() {
                continue;
            }
            let group = indexes.for_lhs(n.lhs()).group_of(t);
            for other in group {
                let ov = rel.value_id(*other, n.rhs_attr()).expect("live");
                if !ov.is_null() && ov != v {
                    vio += 1;
                }
            }
        }
    }
    vio
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::Cfd;
    use crate::pattern::{PatternRow, PatternValue};
    use cfd_model::{Schema, Value};

    /// The paper's Fig. 1 running example: schema, data, ϕ1 and ϕ2.
    fn fig1() -> (Relation, Sigma) {
        let schema = Schema::new(
            "order",
            &["id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip"],
        )
        .unwrap();
        let mut rel = Relation::new(schema.clone());
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
            rel.insert(Tuple::from_iter(row)).unwrap();
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
        let sigma = Sigma::normalize(schema, vec![phi1, phi2]).unwrap();
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
    fn simd_constant_scan_matches_scalar() {
        let (mut rel, sigma) = fig1();
        // Stress the mask logic: a null among the LHS (rule inapplicable),
        // a null RHS (satisfies any constant pattern), and a dead slot
        // whose stale column ids must never match.
        let mut t_null_lhs = Tuple::from_iter([
            "a99", "N. Null", "1.00", "212", "1112223", "Pine", "NYC", "NY", "10012",
        ]);
        t_null_lhs.set_value(AttrId(8), Value::Null); // zip null → ϕ2 off
        rel.insert(t_null_lhs).unwrap();
        let mut t_null_rhs = Tuple::from_iter([
            "a77", "R. Null", "2.00", "610", "9998887", "Oak", "PHI", "PA", "19014",
        ]);
        t_null_rhs.set_value(AttrId(6), Value::Null); // CT null satisfies
        rel.insert(t_null_rhs).unwrap();
        let dead = rel
            .insert(Tuple::from_iter([
                "a55", "D. Gone", "3.00", "212", "4445556", "Elm", "PHI", "PA", "10012",
            ]))
            .unwrap();
        rel.delete(dead).unwrap();
        let engine = Engine::build(&rel, &sigma);
        let scalar = constant_scan_with_kernel(&rel, &sigma, &engine, false);
        let simd = constant_scan_with_kernel(&rel, &sigma, &engine, true);
        assert_eq!(simd, scalar);
        assert!(scalar.total > 0, "fixture must exercise real hits");
        // The dead tuple's stale ids must not resurface.
        assert_eq!(simd.vio(dead), 0);
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
        let t5 = Tuple::from_iter([
            "a77",
            "B. Ookworm",
            "3.50",
            "215",
            "8983490",
            "Elm",
            "NYC",
            "NY",
            "10012",
        ]);
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
    fn vio_of_tuple_matches_detect() {
        let (rel, sigma) = fig1();
        let indexes = GroupIndexes::build(&rel, &sigma);
        let report = detect(&rel, &sigma);
        for (id, _) in rel.iter() {
            assert_eq!(
                vio_of_tuple(&rel, &sigma, &indexes, id),
                report.vio(id),
                "mismatch at {id}"
            );
        }
    }

    #[test]
    fn vio_of_candidate_counts_future_conflicts() {
        let (mut rel, sigma) = fig1();
        let schema = rel.schema().clone();
        let ct = schema.attr("CT").unwrap();
        let st = schema.attr("ST").unwrap();
        for id in [TupleId(2), TupleId(3)] {
            rel.set_value(id, ct, Value::str("NYC")).unwrap();
            rel.set_value(id, st, Value::str("NY")).unwrap();
        }
        let indexes = GroupIndexes::build(&rel, &sigma);
        // candidate t5 of Example 1.1
        let t5 = Tuple::from_iter([
            "a55", "X", "9.99", "215", "8983490", "Walnut", "NYC", "NY", "10012",
        ]);
        // matches 215-row of ϕ1: CT=NYC≠PHI, ST=NY≠PA → 2 constant
        // violations; STR agrees with t1 so no variable conflict; ϕ2
        // 10012-row is satisfied (NYC, NY).
        assert_eq!(vio_of_candidate(&rel, &sigma, &indexes, &t5), 2);
        // the same tuple with CT/ST nulled incurs none
        let mut t5n = t5.clone();
        t5n.set_value(ct, Value::Null);
        t5n.set_value(st, Value::Null);
        assert_eq!(vio_of_candidate(&rel, &sigma, &indexes, &t5n), 0);
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

    #[test]
    fn empty_sigma_always_clean() {
        let (rel, _) = fig1();
        let schema = rel.schema().clone();
        let sigma = Sigma::normalize(schema, vec![]).unwrap();
        assert!(check(&rel, &sigma));
        assert!(detect(&rel, &sigma).is_clean());
    }
}
