//! `INCREPAIR` and `TUPLERESOLVE` (§5): incremental repair of inserted
//! tuples against a clean database.
//!
//! Given a clean `D |= Σ` and a group insertion `ΔD`, `INCREPAIR` (Fig. 6)
//! repairs the new tuples one at a time in a configurable [`Ordering`];
//! each repaired tuple joins the growing clean repair and informs the next
//! resolution. `TUPLERESOLVE` (Fig. 7) solves the (NP-complete, Theorem
//! 5.2) *local repairing problem* greedily: it repeatedly picks the best
//! set `C` of at most `k` attributes and values `v̄` over
//! `adom ∪ {null}` such that the partially-repaired tuple satisfies every
//! CFD that falls inside the already-fixed attributes, minimizing
//! `costfix(C, v̄)`. Attributes are never revisited, so termination is
//! immediate (Theorem 5.3); feasibility is guaranteed because `null`
//! satisfies everything (Example 5.1).
//!
//! One deliberate refinement: the paper's raw product
//! `cost(t, t[C/v̄]) × vio(t[C/v̄])` makes *every* violation-free change
//! free, so candidates are ranked by the additive blend
//! `cost + VIO_PENALTY · vio` instead (see `VIO_PENALTY`).
//!
//! The optimizations of §5.2 are implemented: the group census plays the
//! LHS-indices, validating candidates in O(1) per CFD and pricing
//! `vio(t[C/v̄])` from its per-group RHS buckets, and the cost-based value
//! index enumerates candidate values in increasing DL distance. Σ is
//! split once per attribute set `C`, so each candidate is evaluated
//! against only the rules `C` can change (see `IncState::tuple_resolve`).
//!
//! This module holds the per-tuple machinery (`IncState`) and its owned,
//! Σ-free form (`ResidentParts`). The drivers live elsewhere and all
//! share it: the one-shot [`inc_repair`] and the per-request
//! [`crate::resident::InsertRepairer`] (both in `resident.rs`), the
//! streaming [`crate::resident::StreamRepairer`], and the §5.3 bridge
//! [`crate::subset::repair_via_incremental`]. Every index here changes by
//! tuple inserts and removals only, never by rebuilds, and the census
//! changes through an overlay that never writes its shared base, so a
//! driver can stage ΔD into warm indexes and drop or roll it back
//! exactly.

use std::sync::Arc;

use cfd_cfd::census::{CensusOverlay, GroupCensus};
use cfd_cfd::violation::{minimal_variable_ids, ConstRule, ConstantRules};
use cfd_cfd::{CfdId, NormalCfd, Sigma};
use cfd_model::{ActiveDomain, AttrId, Relation, Tuple, TupleId, TupleView, ValueId, NULL_ID};

use crate::cluster::ValueIndex;
use crate::cost::change_cost_ids;
use crate::distance::DistanceCache;
use crate::resident::InsertRepairer;
use crate::RepairError;

/// Tuple-processing order for `INCREPAIR` (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ordering {
    /// L-INCREPAIR: arbitrary linear scan, zero ordering cost.
    Linear,
    /// V-INCREPAIR: ascending number of violations `vio(t)` — accurate
    /// tuples enter the repair early and anchor later resolutions.
    Violations,
    /// W-INCREPAIR: descending total weight `wt(t)`.
    Weight,
}

/// Configuration for [`inc_repair`].
#[derive(Clone, Debug)]
pub struct IncConfig {
    /// Size of the attribute sets `TUPLERESOLVE` fixes per step. The paper
    /// reports k = 1, 2 already give good results.
    pub k: usize,
    /// Tuple-processing order.
    pub ordering: Ordering,
    /// How many nearest active-domain values to consider per attribute.
    pub candidates_per_attr: usize,
    /// Cap on candidate combinations per attribute set (the all-null
    /// fallback is always tried in addition).
    pub max_combos: usize,
    /// Restrict `TUPLERESOLVE`'s attribute-set search to the attributes of
    /// *failing* constraints (default). This prunes the search from
    /// `attr(R)` to the handful of attributes violations touch and is what
    /// makes the incremental path fast; it excludes cascade repairs that
    /// deliberately break a currently-satisfied constraint and then fix it
    /// (e.g. Example 5.1's `(CT, ST, zip) := (PHI, PA, 19014)` at k = 3 —
    /// reachable again with this set to `false`).
    pub restrict_to_failing: bool,
}

/// Additive penalty per residual violation of a candidate
/// (`costfix = cost + VIO_PENALTY · vio(t[C/v̄])`). The paper's
/// multiplicative `cost × vio` cannot distinguish a zero-cost "keep" that
/// leaves conflicts from one that doesn't — any violation-free change is
/// also free under it — so we use an additive blend.
const VIO_PENALTY: f64 = 0.5;

/// Multiplier applied to the cost of a change *to null* during candidate
/// ranking. The paper treats null as a last resort ("we pick null if the
/// value of an attribute is unknown or uncertain"); under the raw
/// normalized metric null is exactly as distant as any full rewrite, so
/// without a penalty the repairer would null cells instead of applying
/// certain fixes of equal edit distance. 2.0 makes certain values strictly
/// preferred whenever one exists at comparable cost.
const NULL_COST_FACTOR: f64 = 2.0;

impl Default for IncConfig {
    fn default() -> Self {
        IncConfig {
            k: 1,
            ordering: Ordering::Violations,
            candidates_per_attr: 6,
            max_combos: 128,
            restrict_to_failing: true,
        }
    }
}

/// Counters describing a completed incremental repair.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IncStats {
    /// Tuples processed from ΔD.
    pub processed: usize,
    /// Tuples that needed at least one value change.
    pub modified: usize,
    /// Null values introduced.
    pub nulls_introduced: usize,
    /// Total `cost(ΔD_Repr, ΔD)`.
    pub cost: f64,
}

/// Result of an incremental repair.
#[derive(Clone, Debug)]
pub struct IncOutcome {
    /// `D ⊕ ΔD_Repr`: the clean base plus the repaired insertions. Base
    /// tuples keep their ids; ΔD tuples receive fresh ids in input order.
    pub repair: Relation,
    /// Ids assigned to the ΔD tuples, aligned with the input slice.
    pub delta_ids: Vec<TupleId>,
    /// Counters.
    pub stats: IncStats,
}

/// What `INCREPAIR` reads of Σ besides the census, borrowed for a
/// whole run: the hash-indexed constant rules and the subsumption-minimal
/// variable CFDs ([`cfd_cfd::violation::minimal_variable_ids`]). An
/// insert request reads the ones its dataset's detection parts already
/// hold; the other drivers build their own ([`OwnedRules`]).
#[derive(Clone, Copy)]
pub(crate) struct Rules<'a> {
    sigma: &'a Sigma,
    constants: &'a ConstantRules,
    variable_ids: &'a [CfdId],
}

impl<'a> Rules<'a> {
    pub(crate) fn new(
        sigma: &'a Sigma,
        constants: &'a ConstantRules,
        variable_ids: &'a [CfdId],
    ) -> Self {
        Rules {
            sigma,
            constants,
            variable_ids,
        }
    }

    fn variable_cfds(self) -> impl Iterator<Item = &'a NormalCfd> {
        self.variable_ids.iter().map(move |id| self.sigma.get(*id))
    }
}

/// [`Rules`] built from Σ and owned, for drivers that hold no detection
/// parts to borrow them from.
pub(crate) struct OwnedRules {
    constants: ConstantRules,
    variable_ids: Vec<CfdId>,
}

impl OwnedRules {
    pub(crate) fn build(sigma: &Sigma) -> Self {
        OwnedRules {
            constants: ConstantRules::build(sigma),
            variable_ids: minimal_variable_ids(sigma),
        }
    }

    /// Borrow as [`Rules`]; `sigma` must be the Σ these were built from.
    pub(crate) fn view<'a>(&'a self, sigma: &'a Sigma) -> Rules<'a> {
        Rules::new(sigma, &self.constants, &self.variable_ids)
    }
}

/// A constant rule a tuple fires: its group's LHS, the rule, and whether
/// the tuple meets the rule's RHS.
type Fired<'a> = (&'a [AttrId], &'a ConstRule, bool);

/// Σ evaluated on one tuple against the active tuples.
struct Verdicts<'a> {
    /// Every constant rule the tuple fires, in
    /// [`ConstantRules::for_each_fired`] order.
    fired: Vec<Fired<'a>>,
    /// Per minimal variable CFD, in [`Rules::variable_cfds`] order: does
    /// the tuple satisfy it, and how many active tuples conflict with it
    /// ([`CensusOverlay::verdict`]).
    variable: Vec<(bool, usize)>,
}

impl<'a> Verdicts<'a> {
    fn of(rules: Rules<'a>, census: &CensusOverlay, t: &Tuple) -> Self {
        let mut fired = Vec::new();
        rules.constants.for_each_fired(t, |lhs, r| {
            fired.push((lhs, r, r.rhs.satisfied_by_id(t.id(r.rhs_attr))));
        });
        let variable = rules
            .variable_cfds()
            .map(|n| census.verdict(n, t))
            .collect();
        Verdicts { fired, variable }
    }

    /// Does the tuple satisfy the entire Σ?
    fn all_hold(&self) -> bool {
        self.fired.iter().all(|(_, _, holds)| *holds)
            && self.variable.iter().all(|(holds, _)| *holds)
    }
}

/// Σ split for one attribute set `C` of a `TUPLERESOLVE` round, given
/// the [`Verdicts`] of `cur`. The rules that do not mention `C` are
/// settled once, from `cur`'s verdicts; [`Split::price`] evaluates the
/// rest on each candidate (see [`IncState::tuple_resolve`]).
struct Split<'a> {
    /// Marks the attributes of `C`.
    in_c: Vec<bool>,
    /// The round's fixed attributes plus `C`: a rule whose attributes all
    /// fall inside must hold for a candidate to be feasible.
    scope: Vec<bool>,
    /// Does every in-scope rule that does not mention `C` hold on `cur`?
    settled_ok: bool,
    /// `cur`'s violations of the rules that do not mention `C`.
    settled_vio: usize,
    /// (i) The constant rules `cur` fires from groups whose LHS avoids
    /// `C` but whose RHS is in `C`, each with whether it is in scope.
    pinned: Vec<(&'a ConstRule, bool)>,
    /// (ii) The constant groups whose LHS meets `C`, ascending.
    groups: Vec<usize>,
    /// (iii) The variable CFDs that mention `C`, each with whether it is
    /// in scope.
    variable: Vec<(&'a NormalCfd, bool)>,
}

impl<'a> Split<'a> {
    fn new(arity: usize) -> Self {
        Split {
            in_c: vec![false; arity],
            scope: vec![false; arity],
            settled_ok: true,
            settled_vio: 0,
            pinned: Vec::new(),
            groups: Vec::new(),
            variable: Vec::new(),
        }
    }

    /// Split Σ for the attribute set `combo`, with `fixed` the round's
    /// fixed attributes and `cur` the verdicts of the tuple being
    /// resolved.
    fn build(&mut self, rules: Rules<'a>, cur: &Verdicts<'a>, fixed: &[bool], combo: &[AttrId]) {
        let Split {
            in_c,
            scope,
            settled_ok,
            settled_vio,
            pinned,
            groups,
            variable,
        } = self;
        in_c.fill(false);
        scope.copy_from_slice(fixed);
        for a in combo {
            in_c[a.index()] = true;
            scope[a.index()] = true;
        }
        let (in_c, scope) = (&*in_c, &*scope);
        let in_scope = |a: &AttrId| scope[a.index()];
        *settled_ok = true;
        *settled_vio = 0;
        pinned.clear();
        for (lhs, r, holds) in &cur.fired {
            if lhs.iter().any(|a| in_c[a.index()]) {
                continue; // leg (ii) re-fires its group
            }
            let lhs_in_scope = lhs.iter().all(in_scope);
            if in_c[r.rhs_attr.index()] {
                pinned.push((r, lhs_in_scope));
            } else if !holds {
                *settled_vio += 1;
                *settled_ok &= !(lhs_in_scope && in_scope(&r.rhs_attr));
            }
        }
        groups.clear();
        for a in combo {
            groups.extend_from_slice(rules.constants.groups_on(*a));
        }
        groups.sort_unstable();
        groups.dedup();
        variable.clear();
        for (n, (holds, conflicts)) in rules.variable_cfds().zip(&cur.variable) {
            let n_in_scope = n.attrs().all(|a| in_scope(&a));
            if n.attrs().any(|a| in_c[a.index()]) {
                variable.push((n, n_in_scope));
            } else {
                *settled_vio += conflicts;
                *settled_ok &= !n_in_scope || *holds;
            }
        }
    }

    /// `Some(vio(cand))` when the candidate `cand` — `cur` with new values
    /// over `C` — satisfies every rule in scope, `None` otherwise.
    fn price(&self, rules: Rules<'a>, census: &CensusOverlay, cand: &Tuple) -> Option<usize> {
        if !self.settled_ok {
            return None;
        }
        let mut vio = self.settled_vio;
        for (r, in_scope) in &self.pinned {
            if !r.rhs.satisfied_by_id(cand.id(r.rhs_attr)) {
                if *in_scope {
                    return None;
                }
                vio += 1;
            }
        }
        let mut ok = true;
        rules
            .constants
            .for_each_fired_in(cand, self.groups.iter().copied(), |lhs, r| {
                if !r.rhs.satisfied_by_id(cand.id(r.rhs_attr)) {
                    vio += 1;
                    let in_scope = |a: &AttrId| self.scope[a.index()];
                    ok &= !(in_scope(&r.rhs_attr) && lhs.iter().all(in_scope));
                }
            });
        if !ok {
            return None;
        }
        for (n, in_scope) in &self.variable {
            let (holds, conflicts) = census.verdict(n, cand);
            if *in_scope && !holds {
                return None;
            }
            vio += conflicts;
        }
        Some(vio)
    }
}

/// The per-tuple machinery every `INCREPAIR` driver shares (see the
/// module docs): a relation in which `pending` tuples are not yet part of
/// the clean portion, with the indexes over that portion.
pub(crate) struct IncState<'a> {
    rules: Rules<'a>,
    config: IncConfig,
    /// Full storage; pending tuples hold their original (dirty) values.
    pub(crate) work: Relation,
    /// The group census over the *active* (already clean) tuples only:
    /// it validates candidates and prices `vio`. Pending tuples must not
    /// count: one dirty pending tuple would otherwise smear `vio > 0` over
    /// every innocent member of its groups. The asymmetry of "who is to
    /// blame" in a pending pair is instead resolved by the processing
    /// order (clean, trusted tuples first).
    census: CensusOverlay,
    /// Active domain over active tuples.
    adom: ActiveDomain,
    /// Lazily-built per-attribute nearest-value indexes.
    vidx: Vec<Option<ValueIndex>>,
    /// Per attribute whose value index is not built yet: the values this
    /// round activated that were new to the domain. A build mid-round
    /// records them as added, not as base (see [`Self::value_index`]).
    fresh: Vec<Vec<ValueId>>,
    /// Memoized `dis(v, v')` over id pairs — the only place candidate
    /// pricing resolves ids back to strings.
    dcache: DistanceCache,
    pub(crate) stats: IncStats,
}

impl<'a> IncState<'a> {
    /// Build a state over `work` whose clean (active) portion is every
    /// live tuple except `pending`. Indexes must only see active tuples,
    /// so they are built over a scratch copy with the pending ones
    /// deleted.
    pub(crate) fn new(
        work: Relation,
        pending: &[TupleId],
        rules: Rules<'a>,
        config: IncConfig,
    ) -> Result<Self, RepairError> {
        let mut active_view = work.clone();
        for id in pending {
            active_view.delete(*id)?;
        }
        let census = GroupCensus::new(&active_view, rules.sigma);
        let parts = ResidentParts {
            census: CensusOverlay::new(Arc::new(census)),
            adom: ActiveDomain::of_relation(&active_view),
            vidx: vec![None; work.schema().arity()],
            dcache: DistanceCache::for_pool(work.pool().clone()),
            work,
        };
        Ok(IncState::resume(parts, rules, config))
    }

    /// The value index of `a`, built on first use. Its base is the
    /// active domain without this round's fresh values, which join as
    /// added values: the index memoizes answers over its base, and for a
    /// resident insert driver that base must be the clean base alone.
    fn value_index(&mut self, a: AttrId) -> &mut ValueIndex {
        let (adom, pool) = (&self.adom, self.work.pool());
        let fresh = &mut self.fresh[a.index()];
        self.vidx[a.index()].get_or_insert_with(|| {
            fresh.sort_unstable();
            let base = adom
                .ids(a)
                .map(|(id, _)| id)
                .filter(|id| fresh.binary_search(id).is_err());
            let mut idx = ValueIndex::from_ids_in(base, pool.clone());
            for v in fresh.drain(..) {
                idx.add(v);
            }
            idx
        })
    }

    /// Candidate values for attribute `a` while resolving `cur` with the
    /// attribute set `C` (`in_c` marks it); `fired` is `cur`'s
    /// [`Verdicts::fired`]. Sources, in order: the current value, values
    /// pinned by CFDs whose LHS avoids `C`, nearest active-domain values,
    /// and `null`. The nearest values come from the value index, which
    /// answers a base probe from its resident memo merged with the values
    /// activated since (see [`crate::cluster`]); `nearest` keeps that
    /// answer per attribute for the tuple being resolved (see
    /// [`Self::tuple_resolve`]).
    fn candidates_for(
        &mut self,
        cur: &Tuple,
        a: AttrId,
        in_c: &[bool],
        fired: &[Fired<'a>],
        nearest: &mut [Option<(ValueId, Vec<ValueId>)>],
    ) -> Vec<ValueId> {
        let mut out: Vec<ValueId> = Vec::with_capacity(self.config.candidates_per_attr + 6);
        let push = |out: &mut Vec<ValueId>, v: ValueId| {
            if !out.contains(&v) {
                out.push(v);
            }
        };
        push(&mut out, cur.id(a));
        let avoids_c = |lhs: &[AttrId]| lhs.iter().all(|x| !in_c[x.index()]);
        // Constant-rule obligations: rules firing on cur whose LHS avoids C
        // and whose RHS is exactly `a`.
        for (lhs, r, _) in fired {
            if r.rhs_attr == a && avoids_c(lhs) {
                if let Some(v) = r.rhs.as_const_id() {
                    push(&mut out, v);
                }
            }
        }
        // Variable-CFD pins: the group value for cur's key, when the LHS
        // avoids C.
        for n in self.rules.variable_cfds() {
            if n.rhs_attr() == a && avoids_c(n.lhs()) {
                if let Some(v) = self.census.pinned_id(n, cur) {
                    push(&mut out, v);
                }
            }
        }
        // Nearest active-domain values by DL distance.
        let probe = cur.id(a);
        let slot = &mut nearest[a.index()];
        if !matches!(slot, Some((p, _)) if *p == probe) {
            let limit = self.config.candidates_per_attr;
            let ids = self.value_index(a).nearest(probe, limit);
            *slot = Some((probe, ids.into_iter().map(|(v, _)| v).collect()));
        }
        for v in &slot.as_ref().expect("filled above").1 {
            push(&mut out, *v);
        }
        push(&mut out, NULL_ID);
        out
    }

    /// `TUPLERESOLVE` (Fig. 7): repair one tuple against the active portion.
    ///
    /// Σ is evaluated on `cur` once per round ([`Verdicts`]), and split
    /// once per attribute set `C` ([`Split`]): a candidate differs from
    /// `cur` only on `C`, so a rule that does not mention `C` answers for
    /// every candidate what it answered for `cur`. Each candidate is
    /// written into one scratch tuple, and only the rules `C` can change
    /// are evaluated on it: (i) the constant rules `cur` fires from
    /// groups whose LHS avoids `C` but whose RHS is in `C`, (ii) the
    /// constant groups whose LHS meets `C`, re-fired, and (iii) the
    /// variable CFDs that mention `C`. The split is exact — `vio` is an
    /// integer sum over the rules and feasibility an AND of
    /// side-effect-free verdicts, and every rule falls in exactly one
    /// part — so each candidate gets the verdict and `vio` a full
    /// evaluation of Σ would give it.
    pub(crate) fn tuple_resolve(&mut self, orig: &Tuple) -> Tuple {
        // Fast path: a tuple that satisfies Σ against the clean portion
        // *and* has no conflicts pending needs no work. This is the
        // overwhelmingly common case at the experiments' 1%–10% error
        // rates.
        let mut verdicts = Verdicts::of(self.rules, &self.census, orig);
        if verdicts.all_hold() {
            return orig.clone();
        }
        let arity = orig.arity();
        let mut cur = orig.clone();
        // The value indexes only grow when a tuple is activated, never
        // inside one resolution, and an unfixed attribute keeps its
        // original value; so every round asks each attribute the same
        // nearest-value question, answered once here.
        let mut nearest: Vec<Option<(ValueId, Vec<ValueId>)>> = vec![None; arity];
        // Only the attributes of *failing* constraints can participate in a
        // repair: a CFD's satisfaction depends solely on its own attributes,
        // so every attribute outside the failing set keeps its value and is
        // marked fixed up front. This prunes the attribute-set search from
        // `attr(R)` (13 here) to the handful the violations actually touch.
        let mut suspicious = vec![!self.config.restrict_to_failing; arity];
        for (lhs, r, holds) in &verdicts.fired {
            if !holds {
                for a in lhs.iter().chain([&r.rhs_attr]) {
                    suspicious[a.index()] = true;
                }
            }
        }
        for (n, (holds, _)) in self.rules.variable_cfds().zip(&verdicts.variable) {
            if !holds {
                for a in n.attrs() {
                    suspicious[a.index()] = true;
                }
            }
        }
        let mut fixed: Vec<bool> = suspicious.iter().map(|sus| !sus).collect();
        debug_assert!(
            fixed.iter().any(|f| !f),
            "some constraint fails, so some attribute is unfixed"
        );
        // Every candidate is written into `scratch`, which equals `cur`
        // outside the attribute set being tried.
        let mut scratch = cur.clone();
        let mut split = Split::new(arity);
        while fixed.iter().any(|f| !f) {
            let unfixed: Vec<AttrId> = (0..arity as u16)
                .map(AttrId)
                .filter(|a| !fixed[a.index()])
                .collect();
            let k = self.config.k.min(unfixed.len());
            let mut best: Option<(Vec<AttrId>, Vec<ValueId>, f64, f64)> = None;
            for combo in combinations(&unfixed, k) {
                split.build(self.rules, &verdicts, &fixed, &combo);
                let per_attr: Vec<Vec<ValueId>> = combo
                    .iter()
                    .map(|a| {
                        self.candidates_for(&cur, *a, &split.in_c, &verdicts.fired, &mut nearest)
                    })
                    .collect();
                // Warm the distance memo target-major before the odometer:
                // one prepared kernel per (original value, candidate list)
                // instead of a fresh per-pair DP inside `consider`. The
                // memoized numbers are bit-identical to the per-pair path,
                // so this is purely a batching speedup.
                for (a, vs) in combo.iter().zip(per_attr.iter()) {
                    self.dcache.normalized_batch(orig.id(*a), vs);
                }
                let mut tried = 0usize;
                let mut odometer = vec![0usize; k];
                'outer: loop {
                    for ((a, i), vs) in combo.iter().zip(&odometer).zip(&per_attr) {
                        scratch.set_id(*a, vs[*i]);
                    }
                    self.consider(orig, &combo, &scratch, &split, &mut best);
                    tried += 1;
                    if tried >= self.config.max_combos {
                        break;
                    }
                    // advance odometer
                    let mut pos = 0;
                    loop {
                        odometer[pos] += 1;
                        if odometer[pos] < per_attr[pos].len() {
                            break;
                        }
                        odometer[pos] = 0;
                        pos += 1;
                        if pos == k {
                            break 'outer;
                        }
                    }
                }
                // The all-null assignment is always feasible (Example 5.1);
                // make sure it was considered even under the combo cap.
                for a in &combo {
                    scratch.set_id(*a, NULL_ID);
                }
                self.consider(orig, &combo, &scratch, &split, &mut best);
                for a in &combo {
                    scratch.set_id(*a, cur.id(*a));
                }
            }
            let (combo, values, _, _) =
                best.expect("all-null assignment is always feasible, so a best fix exists");
            for (a, v) in combo.iter().zip(values) {
                if v.is_null() && !cur.id(*a).is_null() {
                    self.stats.nulls_introduced += 1;
                }
                cur.set_id(*a, v);
                scratch.set_id(*a, v);
                fixed[a.index()] = true;
            }
            if fixed.iter().any(|f| !f) {
                verdicts = Verdicts::of(self.rules, &self.census, &cur);
            }
        }
        cur
    }

    /// Price one candidate, `cand` (`cur` with the values being tried
    /// written over `combo`), through the attribute set's [`Split`];
    /// update `best` when feasible and cheaper. Ranking is
    /// `(costfix, cost, #nulls)` for determinism.
    fn consider(
        &mut self,
        orig: &Tuple,
        combo: &[AttrId],
        cand: &Tuple,
        split: &Split<'a>,
        best: &mut Option<(Vec<AttrId>, Vec<ValueId>, f64, f64)>,
    ) {
        let Some(vio) = split.price(self.rules, &self.census, cand) else {
            return;
        };
        let cost: f64 = combo
            .iter()
            .map(|a| {
                let v = cand.id(*a);
                let c = change_cost_ids(orig.weight(*a), orig.id(*a), v, &mut self.dcache);
                if v.is_null() && !orig.id(*a).is_null() {
                    c * NULL_COST_FACTOR
                } else {
                    c
                }
            })
            .sum();
        let costfix = cost + VIO_PENALTY * vio as f64;
        let nulls = combo.iter().filter(|a| cand.id(**a).is_null()).count();
        let tie = cost + nulls as f64 * 1e-6;
        match best {
            Some((_, _, bf, bt)) if (*bf, *bt) <= (costfix, tie) => {}
            _ => {
                let values = combo.iter().map(|a| cand.id(*a)).collect();
                *best = Some((combo.to_vec(), values, costfix, tie));
            }
        }
    }

    /// `vio(t)` against the active tuples (§5.1): `t`'s constant
    /// violations plus, per variable CFD, the active members of its group
    /// with a different non-null RHS — read off the census buckets, so no
    /// group is walked.
    fn vio<V: TupleView + ?Sized>(&self, t: &V) -> usize {
        let conflicts: usize = self
            .rules
            .variable_cfds()
            .map(|n| self.census.conflicts(n, t))
            .sum();
        self.rules.constants.violations_of(t, None) + conflicts
    }

    /// Repair the pending tuple at `id` and activate it.
    pub(crate) fn resolve_and_activate(&mut self, id: TupleId) -> Result<(), RepairError> {
        let orig = self.work.require(id)?.to_tuple();
        let repaired = self.tuple_resolve(&orig);
        self.stats.processed += 1;
        // Both tuples carry ids from `work`'s pool, so price the change
        // through the cache bound to it — an owned `Tuple` has no pool of
        // its own, and value-level comparison would resolve through the
        // process-shared one.
        let mut cost = 0.0;
        for a in 0..orig.arity() as u16 {
            let a = AttrId(a);
            cost += change_cost_ids(orig.weight(a), orig.id(a), repaired.id(a), &mut self.dcache);
        }
        if cost > 0.0 || orig.attr_diff(&repaired) > 0 {
            self.stats.modified += 1;
            self.stats.cost += cost;
        }
        // Write back and activate in all index structures.
        for a in 0..repaired.arity() as u16 {
            let a = AttrId(a);
            if self.work.value_id(id, a) != Some(repaired.id(a)) {
                self.work.set_value_id(id, a, repaired.id(a))?;
            }
        }
        let stored = self.work.require(id)?.to_tuple();
        self.census.insert(id, &stored);
        for a in self.work.schema().attr_ids().collect::<Vec<_>>() {
            let v = stored.id(a);
            match &mut self.vidx[a.index()] {
                Some(idx) => idx.add(v),
                None if !v.is_null() && !self.adom.contains_id(a, v) => {
                    self.fresh[a.index()].push(v)
                }
                None => {}
            }
            self.adom.add_id(a, v);
        }
        Ok(())
    }

    /// `INCREPAIR`'s loop (Fig. 6): order `pending` in place, then resolve
    /// and activate each in turn. Returns how many were activated — the
    /// prefix of `pending` a rollback must undo — and the error that
    /// stopped the loop early, if any. A failed activation touched no
    /// index, so the prefix is exact either way.
    pub(crate) fn resolve_all(&mut self, pending: &mut [TupleId]) -> (usize, Option<RepairError>) {
        self.order_pending(pending);
        for (done, id) in pending.iter().enumerate() {
            if let Err(e) = self.resolve_and_activate(*id) {
                return (done, Some(e));
            }
        }
        (pending.len(), None)
    }

    /// ΔD-only verification: do the activated tuples `ids` have
    /// `vio(t) = 0` against everything active? With the rest of the
    /// active portion clean this is exactly "the active portion satisfies
    /// Σ": a CFD violation involves one tuple or a pair, so any new one
    /// touches a tuple of `ids`.
    pub(crate) fn all_clean(&self, ids: &[TupleId]) -> bool {
        ids.iter().all(|id| {
            let t = self.work.require(*id).expect("activated tuple is live");
            self.vio(&t) == 0
        })
    }

    /// V-INCREPAIR's sort key per pending tuple: `vio(t)` against the full
    /// database (active + pending), ascending; ties broken by descending
    /// total weight so the trusted side of a conflicting pending pair
    /// enters the repair first and anchors its group. The key is total
    /// (ids are unique).
    ///
    /// The pending tuples join the census just long enough to be keyed:
    /// with them staged, every group holds the same buckets a census over
    /// all of `work` would, so the keys are the same. Unstaging restores
    /// every weight sum to its saved bits, so the census is left exactly
    /// as it was.
    fn violation_keys(&mut self, pending: &[TupleId]) -> Vec<(usize, i64, TupleId)> {
        let work = &self.work;
        let live = |id: &TupleId| work.require(*id).expect("pending tuple is live");
        for id in pending {
            self.census.stage(*id, &live(id));
        }
        let keyed = pending
            .iter()
            .map(|id| {
                let t = live(id);
                let wt = (t.total_weight() * 1e6) as i64;
                (self.vio(&t), -wt, *id)
            })
            .collect();
        self.census.unstage();
        keyed
    }

    /// Sort pending ids according to the configured ordering.
    pub(crate) fn order_pending(&mut self, pending: &mut [TupleId]) {
        match self.config.ordering {
            Ordering::Linear => {}
            Ordering::Violations => {
                let mut keyed = self.violation_keys(pending);
                keyed.sort();
                for (slot, (_, _, id)) in pending.iter_mut().zip(keyed) {
                    *slot = id;
                }
            }
            Ordering::Weight => {
                let mut keyed: Vec<(f64, TupleId)> = pending
                    .iter()
                    .map(|id| {
                        let t = self.work.require(*id).expect("pending tuple is live");
                        (t.total_weight(), *id)
                    })
                    .collect();
                keyed.sort_by(|a, b| {
                    b.0.partial_cmp(&a.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                });
                for (slot, (_, id)) in pending.iter_mut().zip(keyed) {
                    *slot = id;
                }
            }
        }
    }
}

/// Owned snapshot of an [`IncState`] with the Σ borrow severed: everything
/// a resident stream driver keeps warm between repair rounds so no index
/// is rebuilt at a window boundary. [`IncState::resume`] /
/// [`IncState::suspend`] convert between the two forms; the round-trip is
/// exact, so a resumed state repairs byte-identically to one that was
/// never suspended.
pub(crate) struct ResidentParts {
    pub(crate) work: Relation,
    pub(crate) census: CensusOverlay,
    pub(crate) adom: ActiveDomain,
    pub(crate) vidx: Vec<Option<ValueIndex>>,
    pub(crate) dcache: DistanceCache,
}

impl ResidentParts {
    /// Undo the activation of `activated` (given in activation order) in
    /// the active domain and the value indexes, newest first. The relation
    /// and the census overlay are left alone — the caller discards both. A
    /// value whose domain count drops to zero also leaves the value index,
    /// so no ΔD value outlives its request.
    pub(crate) fn roll_back(&mut self, activated: &[TupleId]) {
        let attrs: Vec<AttrId> = self.work.schema().attr_ids().collect();
        for id in activated.iter().rev() {
            let t = self.work.require(*id).expect("activated tuple is live");
            for a in &attrs {
                let v = t.id(*a);
                self.adom.remove_id(*a, v);
                if !v.is_null() && !self.adom.contains_id(*a, v) {
                    if let Some(idx) = &mut self.vidx[a.index()] {
                        idx.remove(v);
                    }
                }
            }
        }
    }

    /// Drop a live *active* tuple from the relation and every index.
    /// Deletions never violate CFDs (§3.3), so no re-repair is needed.
    /// The active domain (and the value indexes over it) is append-only
    /// by design: values only the departed tuple contributed remain
    /// candidates, which is sound — candidates are suggestions, never
    /// obligations — and keeps removal O(indexes) instead of O(relation).
    pub(crate) fn remove_active(&mut self, id: TupleId) -> Result<Tuple, RepairError> {
        let t = self.work.require(id)?.to_tuple();
        self.census.remove(id, &t);
        Ok(self.work.delete(id)?)
    }
}

impl<'a> IncState<'a> {
    /// Reconstitute a driver from suspended parts. Stats restart at zero —
    /// each resume covers one repair round; callers accumulate across
    /// rounds.
    pub(crate) fn resume(parts: ResidentParts, rules: Rules<'a>, config: IncConfig) -> Self {
        assert!(config.k >= 1, "k must be at least 1");
        IncState {
            rules,
            config,
            fresh: vec![Vec::new(); parts.vidx.len()],
            work: parts.work,
            census: parts.census,
            adom: parts.adom,
            vidx: parts.vidx,
            dcache: parts.dcache,
            stats: IncStats::default(),
        }
    }

    /// Sever the Σ borrow, returning the owned parts plus this round's
    /// counters.
    pub(crate) fn suspend(self) -> (ResidentParts, IncStats) {
        (
            ResidentParts {
                work: self.work,
                census: self.census,
                adom: self.adom,
                vidx: self.vidx,
                dcache: self.dcache,
            },
            self.stats,
        )
    }
}

/// All subsets of `items` of size `k`, in lexicographic position order.
fn combinations(items: &[AttrId], k: usize) -> Vec<Vec<AttrId>> {
    let n = items.len();
    if k == 0 || k > n {
        return vec![];
    }
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|i| items[*i]).collect());
        // advance
        let mut pos = k;
        loop {
            if pos == 0 {
                return out;
            }
            pos -= 1;
            if idx[pos] < n - (k - pos) {
                idx[pos] += 1;
                for j in pos + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Run `INCREPAIR` (Fig. 6): insert `delta` into the clean `d`, repairing
/// each tuple so that the result satisfies `sigma`.
///
/// `d` is assumed clean (`D |= Σ`); it is never modified — the defining
/// property of incremental repair. Deletions never violate CFDs (§3.3) and
/// need no repair, so `delta` carries insertions only. This is the
/// one-shot use of [`InsertRepairer`]: build it over `d`, run `delta`
/// once, and keep the result instead of rolling back. A `sigma`
/// normalized into another pool than `d`'s is refused with
/// [`cfd_model::ModelError::PoolMismatch`].
pub fn inc_repair(
    d: &Relation,
    delta: &[Tuple],
    sigma: &Sigma,
    config: IncConfig,
) -> Result<IncOutcome, RepairError> {
    sigma.check_pool(d.pool())?;
    let outcome = InsertRepairer::new(d).repair_once(d, delta, sigma, config)?;
    debug_assert!(cfd_cfd::check(&outcome.repair, sigma));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_cfd::pattern::{PatternRow, PatternValue};
    use cfd_cfd::Cfd;
    use cfd_model::{Schema, Value, ValuePool};

    /// Clean Fig. 1 data (t3/t4 already fixed) with ϕ1/ϕ2.
    fn clean_fig1() -> (Relation, Sigma) {
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
                "NYC",
                "NY",
                "10012",
            ],
            [
                "a89",
                "Snow White",
                "18.99",
                "212",
                "5674322",
                "Broad",
                "NYC",
                "NY",
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
    fn clean_insert_is_untouched() {
        let (rel, sigma) = clean_fig1();
        let t = Tuple::new_in(
            [
                "a99", "New Item", "5.00", "610", "5550000", "Pine", "PHI", "PA", "19014",
            ],
            rel.pool(),
        );
        let out = inc_repair(&rel, std::slice::from_ref(&t), &sigma, IncConfig::default()).unwrap();
        assert_eq!(out.stats.processed, 1);
        assert_eq!(out.stats.modified, 0);
        assert_eq!(out.repair.tuple(out.delta_ids[0]).unwrap(), &t);
        assert!(cfd_cfd::check(&out.repair, &sigma));
    }

    #[test]
    fn example_1_1_t5_resolved_consistently() {
        // t5 = (215, 8983490, …, NYC, NY, 10012) conflicts with t1 via ϕ1
        // and with ϕ2 in a cycle (Example 1.1). TUPLERESOLVE must output a
        // consistent tuple; with k = 1 the CT/ST pins cannot be satisfied
        // by single-attribute changes, so nulls (or an AC/zip change) are
        // acceptable — the invariant is consistency of the result.
        let (rel, sigma) = clean_fig1();
        let t5 = Tuple::new_in(
            [
                "a55", "K. Oyle", "12.00", "215", "8983490", "Walnut", "NYC", "NY", "10012",
            ],
            rel.pool(),
        );
        for k in [1, 2, 3] {
            let cfg = IncConfig {
                k,
                ..Default::default()
            };
            let out = inc_repair(&rel, std::slice::from_ref(&t5), &sigma, cfg).unwrap();
            assert!(cfd_cfd::check(&out.repair, &sigma), "k={k}");
        }
    }

    #[test]
    fn example_5_1_k3_can_fix_ct_st_zip() {
        // With k = 3, C = {CT, ST, zip} and v̄ = (PHI, PA, 19014) is a
        // feasible certain fix (Example 5.1). It should be preferred over
        // nulls when weights make CT/ST/zip cheap to change.
        let (rel, sigma) = clean_fig1();
        let mut t5 = Tuple::new_in(
            [
                "a55", "K. Oyle", "12.00", "215", "8983490", "Walnut", "NYC", "NY", "10012",
            ],
            rel.pool(),
        );
        // make the conflicted attributes cheap and the others precious
        let schema = rel.schema().clone();
        for name in ["CT", "ST", "zip"] {
            t5.set_weight(schema.attr(name).unwrap(), 0.05);
        }
        for name in ["AC", "PN"] {
            t5.set_weight(schema.attr(name).unwrap(), 1.0);
        }
        let cfg = IncConfig {
            k: 3,
            max_combos: 4096,
            restrict_to_failing: false,
            ..Default::default()
        };
        let out = inc_repair(&rel, &[t5], &sigma, cfg).unwrap();
        assert!(cfd_cfd::check(&out.repair, &sigma));
        let got = out.repair.tuple(out.delta_ids[0]).unwrap();
        let ct = schema.attr("CT").unwrap();
        let st = schema.attr("ST").unwrap();
        let zip = schema.attr("zip").unwrap();
        assert_eq!(got.value(ct), Value::str("PHI"));
        assert_eq!(got.value(st), Value::str("PA"));
        assert_eq!(got.value(zip), Value::str("19014"));
        assert_eq!(out.stats.nulls_introduced, 0);
    }

    #[test]
    fn base_database_is_never_modified() {
        let (rel, sigma) = clean_fig1();
        let t5 = Tuple::new_in(
            [
                "a55", "K. Oyle", "12.00", "215", "8983490", "Walnut", "NYC", "NY", "10012",
            ],
            rel.pool(),
        );
        let out = inc_repair(&rel, &[t5], &sigma, IncConfig::default()).unwrap();
        for (id, t) in rel.iter() {
            assert_eq!(out.repair.tuple(id).unwrap(), t, "base tuple {id} changed");
        }
    }

    #[test]
    fn group_insertion_later_tuples_see_earlier_repairs() {
        // Two inserts with a fresh key: the first pins the group's value,
        // the second (conflicting) must follow it.
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let mut rel = Relation::new_in(schema.clone(), ValuePool::new_handle());
        rel.insert(Tuple::new_in(["k0", "x"], rel.pool())).unwrap();
        let fd = Cfd::standard_fd(
            "kv",
            vec![schema.attr("k").unwrap()],
            vec![schema.attr("v").unwrap()],
        );
        let sigma = Sigma::normalize_in(schema.clone(), vec![fd], rel.pool()).unwrap();
        let d1 = Tuple::new_in(["fresh", "alpha"], rel.pool());
        let d2 = Tuple::new_in(["fresh", "alphb"], rel.pool());
        let cfg = IncConfig {
            ordering: Ordering::Linear,
            ..Default::default()
        };
        let out = inc_repair(&rel, &[d1, d2], &sigma, cfg).unwrap();
        assert!(cfd_cfd::check(&out.repair, &sigma));
        let v = schema.attr("v").unwrap();
        let v1 = out.repair.tuple(out.delta_ids[0]).unwrap().value(v).clone();
        let v2 = out.repair.tuple(out.delta_ids[1]).unwrap().value(v).clone();
        assert_eq!(v1, Value::str("alpha")); // first tuple untouched
        assert_eq!(v2, Value::str("alpha")); // second follows the pin
    }

    #[test]
    fn orderings_all_produce_consistent_repairs() {
        let (rel, sigma) = clean_fig1();
        let dirty = vec![
            Tuple::new_in(
                [
                    "a71", "Item A", "1.00", "212", "1112222", "Canal", "PHI", "PA", "10012",
                ],
                rel.pool(),
            ),
            Tuple::new_in(
                [
                    "a72", "Item B", "2.00", "610", "2223333", "Vine", "NYC", "PA", "19014",
                ],
                rel.pool(),
            ),
        ];
        for ordering in [Ordering::Linear, Ordering::Violations, Ordering::Weight] {
            let cfg = IncConfig {
                ordering,
                ..Default::default()
            };
            let out = inc_repair(&rel, &dirty, &sigma, cfg).unwrap();
            assert!(cfd_cfd::check(&out.repair, &sigma), "{ordering:?}");
            assert_eq!(out.stats.processed, 2, "{ordering:?}");
        }
    }

    #[test]
    fn violation_ordering_repairs_cleanest_first() {
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let mut rel = Relation::new_in(schema.clone(), ValuePool::new_handle());
        rel.insert(Tuple::new_in(["seed", "s"], rel.pool()))
            .unwrap();
        let fd = Cfd::standard_fd(
            "kv",
            vec![schema.attr("k").unwrap()],
            vec![schema.attr("v").unwrap()],
        );
        let sigma = Sigma::normalize_in(schema.clone(), vec![fd], rel.pool()).unwrap();
        // d1 conflicts with two others; d2/d3 agree with each other.
        let d1 = Tuple::new_in(["g", "zzz"], rel.pool());
        let d2 = Tuple::new_in(["g", "aaa"], rel.pool());
        let d3 = Tuple::new_in(["g", "aaa"], rel.pool());
        let cfg = IncConfig {
            ordering: Ordering::Violations,
            ..Default::default()
        };
        let out = inc_repair(&rel, &[d1, d2, d3], &sigma, cfg).unwrap();
        assert!(cfd_cfd::check(&out.repair, &sigma));
        // majority value wins because the agreeing pair is processed first
        let v = schema.attr("v").unwrap();
        assert_eq!(
            out.repair.tuple(out.delta_ids[0]).unwrap().value(v),
            Value::str("aaa")
        );
    }

    #[test]
    fn combinations_enumerate_correctly() {
        let items: Vec<AttrId> = (0..4u16).map(AttrId).collect();
        assert_eq!(combinations(&items, 1).len(), 4);
        assert_eq!(combinations(&items, 2).len(), 6);
        assert_eq!(combinations(&items, 3).len(), 4);
        assert_eq!(combinations(&items, 4).len(), 1);
        assert!(combinations(&items, 5).is_empty());
        // elements are distinct and sorted
        for combo in combinations(&items, 2) {
            assert!(combo[0] < combo[1]);
        }
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let (rel, sigma) = clean_fig1();
        let out = inc_repair(&rel, &[], &sigma, IncConfig::default()).unwrap();
        assert_eq!(out.stats.processed, 0);
        assert_eq!(out.repair.len(), rel.len());
    }

    /// Staged V-ordering keys equal the keys of a fresh `Engine` built
    /// over all of `work` (active + pending), and keying leaves the active
    /// census as it was, weight bits included.
    #[test]
    fn staged_violation_keys_match_a_full_rebuild() {
        use cfd_cfd::violation::Engine;
        use cfd_gen::{generate, inject, GenConfig, NoiseConfig};
        use cfd_prng::{trials, Rng};
        trials(6, 0x57A6ED, |rng| {
            let seed = rng.gen_range(0..1_000u64);
            let w = generate(&GenConfig::sized(300, seed));
            let noise = NoiseConfig {
                rate: 0.1,
                seed,
                ..Default::default()
            };
            let dirty = inject(&w.dopt, &w.world, &noise).dirty;
            let sigma = w.sigma_for(&dirty);
            let pending: Vec<TupleId> = dirty
                .ids()
                .filter(|_| rng.gen_range(0..4u32) == 0)
                .collect();
            let rules = OwnedRules::build(&sigma);
            let mut state = IncState::new(
                dirty.clone(),
                &pending,
                rules.view(&sigma),
                IncConfig::default(),
            )
            .unwrap();
            let snapshot = state.census.checksum();

            let staged = state.violation_keys(&pending);

            let full = Engine::build(&state.work, &sigma);
            let reference: Vec<(usize, i64, TupleId)> = pending
                .iter()
                .map(|id| {
                    let t = state.work.require(*id).unwrap();
                    let wt = (t.total_weight() * 1e6) as i64;
                    (full.vio_of(&state.work, &t, Some(*id)), -wt, *id)
                })
                .collect();
            assert_eq!(staged, reference, "seed {seed}");
            assert!(
                staged.iter().any(|k| k.0 > 0),
                "seed {seed}: no conflicts keyed"
            );
            assert_eq!(state.census.checksum(), snapshot, "seed {seed}");
        });
    }

    /// The full-Σ evaluation [`Split`] replaces, kept as the oracle's
    /// reference: `cand` is feasible when it satisfies every rule whose
    /// attributes fall inside `scope`, and is then priced at `vio(cand)`.
    fn reference_price(state: &IncState, cand: &Tuple, scope: &[bool]) -> Option<usize> {
        let mut ok = true;
        state.rules.constants.for_each_fired(cand, |lhs, r| {
            if lhs.iter().all(|a| scope[a.index()])
                && scope[r.rhs_attr.index()]
                && !r.rhs.satisfied_by_id(cand.id(r.rhs_attr))
            {
                ok = false;
            }
        });
        let ok = ok
            && state
                .rules
                .variable_cfds()
                .filter(|n| n.attrs().all(|a| scope[a.index()]))
                .all(|n| state.census.satisfies(n, cand));
        ok.then(|| state.vio(cand))
    }

    /// Which legs of `split` see a violated rule on `cand`: (i) a pinned
    /// rule, (ii) a re-fired group, (iii) a variable CFD.
    fn legs_hit(state: &IncState, split: &Split, cand: &Tuple) -> [bool; 3] {
        let fails = |r: &ConstRule| !r.rhs.satisfied_by_id(cand.id(r.rhs_attr));
        let mut refired = false;
        state
            .rules
            .constants
            .for_each_fired_in(cand, split.groups.iter().copied(), |_, r| {
                refired |= fails(r);
            });
        [
            split.pinned.iter().any(|(r, _)| fails(r)),
            refired,
            split
                .variable
                .iter()
                .any(|(n, _)| state.census.verdict(n, cand) != (true, 0)),
        ]
    }

    /// Resolve-like probes against `state`: for each probe, k = 1..3, a
    /// random fixed mask, a random attribute set `C` among the unfixed
    /// attributes and candidates drawn from `C`'s current values, the
    /// active domain and null. Every candidate's split verdict and `vio`
    /// must equal the reference's. Counts the candidates each leg saw.
    fn split_trial(
        state: &IncState,
        probes: &[Tuple],
        rng: &mut cfd_prng::ChaCha8Rng,
        hits: &mut [usize; 3],
    ) {
        use cfd_prng::{Rng, SliceRandom};
        let arity = state.work.schema().arity();
        let adom: Vec<Vec<ValueId>> = state
            .work
            .schema()
            .attr_ids()
            .map(|a| state.adom.ids(a).map(|(id, _)| id).collect())
            .collect();
        let mut split = Split::new(arity);
        for cur in probes {
            let verdicts = Verdicts::of(state.rules, &state.census, cur);
            for k in 1..=3 {
                let fixed: Vec<bool> = (0..arity).map(|_| rng.gen_bool(0.4)).collect();
                let mut combo: Vec<AttrId> = (0..arity as u16)
                    .map(AttrId)
                    .filter(|a| !fixed[a.index()])
                    .collect();
                if combo.len() < k {
                    continue;
                }
                combo.shuffle(rng);
                combo.truncate(k);
                combo.sort_unstable();
                split.build(state.rules, &verdicts, &fixed, &combo);
                for _ in 0..12 {
                    let mut cand = cur.clone();
                    for a in &combo {
                        let v = match rng.gen_range(0..5u32) {
                            0 => NULL_ID,
                            1 => cur.id(*a),
                            _ => *adom[a.index()].choose(rng).unwrap_or(&NULL_ID),
                        };
                        cand.set_id(*a, v);
                    }
                    assert_eq!(
                        split.price(state.rules, &state.census, &cand),
                        reference_price(state, &cand, &split.scope),
                        "C = {combo:?}, fixed = {fixed:?}, candidate {cand:?}"
                    );
                    for (hit, leg) in hits.iter_mut().zip(legs_hit(state, &split, &cand)) {
                        *hit += usize::from(leg);
                    }
                }
            }
        }
    }

    /// The split of Σ per attribute set prices every candidate exactly
    /// as the full evaluation does, over the §7.1 Σ (probes: the pending
    /// tuples of a 30%-noisy copy, the rest active) and the Fig. 1 `cust`
    /// Σ (probes: tuples mixed from its active domain), and every leg of
    /// the split decides some of them.
    #[test]
    fn split_pricing_matches_the_full_evaluation() {
        use cfd_gen::{generate, inject, GenConfig, NoiseConfig};
        use cfd_prng::{trials, Rng, SliceRandom};
        let mut hits = [0usize; 3];
        trials(4, 0x5_9117, |rng| {
            let seed = rng.gen_range(0..1_000u64);
            let w = generate(&GenConfig::sized(300, seed));
            let noise = NoiseConfig {
                rate: 0.3,
                seed,
                ..Default::default()
            };
            let dirty = inject(&w.dopt, &w.world, &noise).dirty;
            let sigma = w.sigma_for(&dirty);
            let pending: Vec<TupleId> = dirty
                .ids()
                .filter(|_| rng.gen_range(0..5u32) == 0)
                .collect();
            let rules = OwnedRules::build(&sigma);
            let state = IncState::new(
                dirty.clone(),
                &pending,
                rules.view(&sigma),
                IncConfig::default(),
            )
            .unwrap();
            let probes: Vec<Tuple> = pending
                .iter()
                .map(|id| dirty.require(*id).unwrap().to_tuple())
                .collect();
            split_trial(&state, &probes, rng, &mut hits);
        });
        assert!(hits.iter().all(|h| *h > 0), "§7.1 legs hit: {hits:?}");

        let mut hits = [0usize; 3];
        trials(4, 0xC057, |rng| {
            let pool = ValuePool::new_handle();
            let data = include_str!("../../../tests/fixtures/cust_dirty.csv");
            let rel = cfd_model::csv::read_relation_in("cust", &mut data.as_bytes(), pool).unwrap();
            let text = include_str!("../../../tests/fixtures/cust_rules.txt");
            let cfds = cfd_cfd::parser::parse_rules(rel.schema(), text).unwrap();
            let sigma = Sigma::normalize_in(rel.schema().clone(), cfds, rel.pool()).unwrap();
            let rules = OwnedRules::build(&sigma);
            let state =
                IncState::new(rel.clone(), &[], rules.view(&sigma), IncConfig::default()).unwrap();
            let rows: Vec<Tuple> = rel.iter().map(|(_, t)| t.to_tuple()).collect();
            let probes: Vec<Tuple> = (0..24)
                .map(|_| {
                    let mut t = rows.choose(rng).unwrap().clone();
                    for a in rel.schema().attr_ids() {
                        if rng.gen_bool(0.3) {
                            t.set_id(a, rows.choose(rng).unwrap().id(a));
                        }
                    }
                    t
                })
                .collect();
            split_trial(&state, &probes, rng, &mut hits);
        });
        assert!(hits.iter().all(|h| *h > 0), "cust legs hit: {hits:?}");
    }
}
