//! Resident `INCREPAIR` drivers: the warm indexes of §5.2 kept between
//! repairs, so a small ΔD costs O(|ΔD|) index work instead of a rebuild
//! over all of `D`.
//!
//! Two drivers share the per-tuple machinery of
//! `IncState` (in [`crate::incremental`]) through its owned form,
//! `ResidentParts` (`IncState::resume` / `suspend` move it verbatim, so a
//! resumed state repairs byte-identically to one never suspended):
//!
//! * [`InsertRepairer`] serves repeated insert requests against one
//!   **fixed** clean base. It keeps the LHS-indices, the active domain and
//!   the lazily built nearest-value indexes. The caller passes, read-only,
//!   the constant rules and variable-CFD ids of its detection parts; no
//!   detection index is read or written. Each request clones the base
//!   copy-on-write, stages ΔD, orders and resolves it, verifies only the
//!   ΔD tuples, and then **rolls every index back** to the base. One-shot
//!   [`crate::inc_repair`] is the same driver built over `d`, run once,
//!   and consumed without rollback.
//! * [`StreamRepairer`] serves a stream whose base **evolves**: each
//!   round's repaired tuples stay active, and deletions remove active
//!   tuples. It owns every index and its own copy of the rules.
//!
//! ## The rollback contract
//!
//! After [`InsertRepairer::repair`] returns — success or error — every
//! index it touched holds exactly what it held before: the same
//! LHS-index entries with the same RHS counts and pins, the same
//! active-domain counts and the same value-index contents. Three facts
//! make this exact rather than approximate:
//!
//! * removing a tuple from the LHS-indices is the exact inverse of adding
//!   it, for any tuple: its RHS count decrements, a value whose count
//!   reaches zero leaves the histogram, and a group left with no members
//!   drops its entry;
//! * ΔD tuples are undone newest first, so a group's earliest value — the
//!   pin FINDV and feasibility read — is never removed while a later
//!   value remains;
//! * a ΔD value whose domain count returns to zero leaves the value
//!   index. ΔD values never persist, so every request sees the base's
//!   domain and nothing else.
//!
//! One thing a request leaves behind on purpose: each value index's memo
//! of base answers ([`crate::cluster`]). It holds, per base value asked
//! about, the nearest values over the base alone, so it depends on the
//! fixed base and on nothing a request did, and it survives requests.
//! A ΔD value joins the index as an added value, never as base (an index
//! built mid-request records the values ΔD already activated as added),
//! and only base values become keys, so no ΔD id stays in it.
//!
//! The distance memo is fresh per request: ΔD ids are sealed after each
//! request and never reused, so a memo kept across requests would only
//! collect dead keys.
//!
//! ## Stream divergences from the one-shot path
//!
//! Both deliberate:
//!
//! * **Deletions are index maintenance only.** Deletions never violate
//!   CFDs (§3.3), so [`StreamRepairer::remove_active`] drops the tuple
//!   from the relation and the LHS-indices and stops there — no
//!   re-repair of tuples that conflicted with the departed one.
//! * **The stream's active domain is append-only.** Values contributed
//!   solely by since-deleted tuples remain repair *candidates*.
//!   Candidates are suggestions, never obligations (feasibility always
//!   re-checks against live indexes), so this is sound; it keeps removal
//!   cheap and the nearest-value indexes incremental.

use cfd_cfd::violation::EngineParts;
use cfd_cfd::Sigma;
use cfd_model::{ActiveDomain, Relation, Tuple, TupleId, ValueId};

use crate::cluster::ValueIndex;
use crate::distance::DistanceCache;
use crate::incremental::{
    IncConfig, IncOutcome, IncState, IncStats, OwnedRules, ResidentParts, Rules,
};
use crate::lhs_index::LhsIndexes;
use crate::RepairError;

/// A resident `INCREPAIR` state over one fixed clean base (`D |= Σ`):
/// the LHS-indices, the active domain and the nearest-value index slots,
/// built once and rolled back after every request (see the module docs).
///
/// Holds no borrow of Σ, the base or its rules — each request passes them
/// in, so a dataset handle can keep this next to the relation and the
/// detection parts it already owns.
pub struct InsertRepairer {
    lhs: LhsIndexes,
    adom: ActiveDomain,
    vidx: Vec<Option<ValueIndex>>,
}

/// One request through an [`InsertRepairer`].
#[derive(Clone, Debug)]
pub struct DeltaRepair {
    /// `D ⊕ ΔD_Repr`, exactly what [`crate::inc_repair`] returns.
    pub outcome: IncOutcome,
    /// Every ΔD tuple has `vio(t) = 0` against `D ∪ ΔD_Repr`. With
    /// `D |= Σ` this is exactly `D ⊕ ΔD_Repr |= Σ`: a CFD violation
    /// involves one tuple or a pair, so any new one touches a ΔD tuple.
    pub clean: bool,
}

/// The size of each index an [`InsertRepairer`] keeps — what a rollback
/// must return to — and the value-index memo keys, which persist across
/// requests. Value-index lengths are `None` for slots not built yet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertFootprint {
    /// Group entries across every LHS-index shape.
    pub lhs_entries: usize,
    /// `ActiveDomain::distinct` per attribute.
    pub adom_distinct: Vec<usize>,
    /// `ValueIndex::len` per attribute.
    pub value_index_len: Vec<Option<usize>>,
    /// `ValueIndex::memo_keys` per attribute (empty for slots not built
    /// yet): the base probes whose answers are memoized.
    pub memo_keys: Vec<Vec<ValueId>>,
}

impl InsertRepairer {
    /// Build the state over a clean `base`. The value indexes are built on
    /// first use and keep their memo of base answers from then on.
    pub fn new(base: &Relation, sigma: &Sigma) -> Self {
        InsertRepairer {
            lhs: LhsIndexes::build(base, sigma),
            adom: ActiveDomain::of_relation(base),
            vidx: vec![None; base.schema().arity()],
        }
    }

    /// Repair `delta` against `base`. Of `parts` — detection parts built
    /// for `sigma` — only the constant rules and the variable-CFD ids are
    /// read. Every index of `self` is rolled back before this returns;
    /// `base` is never modified.
    pub fn repair(
        &mut self,
        base: &Relation,
        delta: &[Tuple],
        sigma: &Sigma,
        parts: &EngineParts,
        config: IncConfig,
    ) -> Result<DeltaRepair, RepairError> {
        let rules = Rules::new(sigma, &parts.rules, &parts.variable_ids);
        let run = Run::start(self.take_parts(base), delta, rules, config);
        let clean = run.failed.is_none() && run.state.all_clean(&run.delta_ids);
        debug_assert!(
            run.failed.is_some() || clean == cfd_cfd::check(&run.state.work, sigma),
            "ΔD-only verification disagrees with a full check"
        );
        let (mut back, stats) = run.state.suspend();
        back.roll_back(&run.order[..run.activated]);
        self.lhs = back.lhs;
        self.adom = back.adom;
        self.vidx = back.vidx;
        match run.failed {
            Some(e) => Err(e),
            None => Ok(DeltaRepair {
                outcome: IncOutcome {
                    repair: back.work,
                    delta_ids: run.delta_ids,
                    stats,
                },
                clean,
            }),
        }
    }

    /// Repair `delta` once and keep the result: the one-shot
    /// [`crate::inc_repair`]. Builds the rules from `sigma` (the state
    /// must have been built over `base`) and consumes the state, so
    /// nothing is rolled back.
    pub(crate) fn repair_once(
        mut self,
        base: &Relation,
        delta: &[Tuple],
        sigma: &Sigma,
        config: IncConfig,
    ) -> Result<IncOutcome, RepairError> {
        let rules = OwnedRules::build(sigma);
        let run = Run::start(self.take_parts(base), delta, rules.view(sigma), config);
        match run.failed {
            Some(e) => Err(e),
            None => Ok(IncOutcome {
                delta_ids: run.delta_ids,
                stats: run.state.stats,
                repair: run.state.work,
            }),
        }
    }

    /// The sizes a rollback must restore.
    pub fn footprint(&self) -> InsertFootprint {
        InsertFootprint {
            lhs_entries: self.lhs.entry_count(),
            adom_distinct: (0..self.vidx.len())
                .map(|a| self.adom.distinct(cfd_model::AttrId(a as u16)))
                .collect(),
            value_index_len: self
                .vidx
                .iter()
                .map(|slot| slot.as_ref().map(ValueIndex::len))
                .collect(),
            memo_keys: self
                .vidx
                .iter()
                .map(|slot| slot.as_ref().map(ValueIndex::memo_keys).unwrap_or_default())
                .collect(),
        }
    }

    /// Move this state and a copy-on-write clone of `base` into one
    /// `ResidentParts`, with a fresh distance memo.
    fn take_parts(&mut self, base: &Relation) -> ResidentParts {
        ResidentParts {
            dcache: DistanceCache::for_pool(base.pool().clone()),
            work: base.clone(),
            lhs: std::mem::take(&mut self.lhs),
            adom: std::mem::take(&mut self.adom),
            vidx: std::mem::take(&mut self.vidx),
        }
    }
}

/// One pass of the shared driver: ΔD staged into the work relation (fresh
/// ids in input order, invisible to every index), then ordered, resolved
/// and activated.
struct Run<'s> {
    state: IncState<'s>,
    /// ΔD ids in input order.
    delta_ids: Vec<TupleId>,
    /// ΔD ids in processing order; the first `activated` joined the indexes.
    order: Vec<TupleId>,
    activated: usize,
    /// The error that stopped the run, if any.
    failed: Option<RepairError>,
}

impl<'s> Run<'s> {
    fn start(parts: ResidentParts, delta: &[Tuple], rules: Rules<'s>, config: IncConfig) -> Self {
        let mut state = IncState::resume(parts, rules, config);
        let mut delta_ids = Vec::with_capacity(delta.len());
        let mut failed = None;
        for t in delta {
            match state.work.insert(t.clone()) {
                Ok(id) => delta_ids.push(id),
                Err(e) => {
                    failed = Some(e.into());
                    break;
                }
            }
        }
        let mut order = delta_ids.clone();
        let mut activated = 0;
        if failed.is_none() {
            (activated, failed) = state.resolve_all(&mut order);
        }
        Run {
            state,
            delta_ids,
            order,
            activated,
            failed,
        }
    }
}

/// A resident incremental repairer: owns a working relation plus every
/// index `INCREPAIR` needs, across an unbounded sequence of repair rounds.
///
/// Holds no borrow of Σ — the methods that resolve take it fresh, so the
/// owner (a session, a daemon) can store the repairer and the [`Sigma`]
/// side by side without self-reference. It keeps its own constant rules
/// and variable-CFD ids, built from the Σ it was created with; every call
/// must pass that same Σ.
///
/// Tuples are in one of two states: **active** (part of the clean
/// portion, visible to every index) or **staged** (inserted into the
/// relation but invisible to the indexes, awaiting
/// [`resolve_pending`](StreamRepairer::resolve_pending)). The caller —
/// the windowing layer — tracks which ids are staged.
pub struct StreamRepairer {
    /// `None` only transiently inside `resolve_pending`; a panic there
    /// leaves the repairer unusable, which the session layer surfaces as
    /// a poisoned dataset.
    parts: Option<ResidentParts>,
    rules: OwnedRules,
    config: IncConfig,
}

impl StreamRepairer {
    /// Build a repairer over a clean base (`D |= Σ`). Cost mirrors one
    /// `IncState::new`: every later round is index-rebuild-free.
    pub fn new(base: Relation, sigma: &Sigma, config: IncConfig) -> Result<Self, RepairError> {
        let rules = OwnedRules::build(sigma);
        let (parts, _) = IncState::new(base, &[], rules.view(sigma), config.clone())?.suspend();
        Ok(StreamRepairer {
            parts: Some(parts),
            rules,
            config,
        })
    }

    fn parts(&self) -> &ResidentParts {
        self.parts
            .as_ref()
            .expect("repairer lost in a failed round")
    }

    fn parts_mut(&mut self) -> &mut ResidentParts {
        self.parts
            .as_mut()
            .expect("repairer lost in a failed round")
    }

    /// The working relation: active tuples carry repaired values, staged
    /// tuples their original (possibly dirty) ones.
    pub fn work(&self) -> &Relation {
        &self.parts().work
    }

    /// Stage a tuple: append it to the relation (fresh id, input order)
    /// without touching any index. Staged tuples exert no pressure on
    /// anyone — one dirty arrival must not smear violations over the
    /// innocent members of its groups before resolution assigns blame.
    pub fn stage(&mut self, t: Tuple) -> Result<TupleId, RepairError> {
        Ok(self.parts_mut().work.insert(t)?)
    }

    /// Withdraw a *staged* tuple (an in-window delete cancelling a
    /// not-yet-resolved insert). No index ever saw it, so this is a plain
    /// relation delete. Returns the staged contents.
    pub fn unstage(&mut self, id: TupleId) -> Result<Tuple, RepairError> {
        Ok(self.parts_mut().work.delete(id)?)
    }

    /// Drop an *active* tuple from the relation and every index. See the
    /// module docs for the deletion semantics.
    pub fn remove_active(&mut self, id: TupleId) -> Result<Tuple, RepairError> {
        self.parts_mut().remove_active(id)
    }

    /// One repair round: order `pending` (staged ids) per the configured
    /// [`Ordering`](crate::Ordering), resolve each via `TUPLERESOLVE`,
    /// and activate the repaired tuples in every index. `pending` is
    /// reordered in place to the processing order. Returns this round's
    /// counters.
    pub fn resolve_pending(
        &mut self,
        sigma: &Sigma,
        pending: &mut [TupleId],
    ) -> Result<IncStats, RepairError> {
        let parts = self.parts.take().expect("repairer lost in a failed round");
        let mut state = IncState::resume(parts, self.rules.view(sigma), self.config.clone());
        let (_, failed) = state.resolve_all(pending);
        let (parts, stats) = state.suspend();
        self.parts = Some(parts);
        match failed {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_cfd::Cfd;
    use cfd_model::{Schema, Value, ValuePool};

    fn kv_sigma(schema: &Schema) -> Sigma {
        let fd = Cfd::standard_fd(
            "kv",
            vec![schema.attr("k").unwrap()],
            vec![schema.attr("v").unwrap()],
        );
        Sigma::normalize_in(schema.clone(), vec![fd], &ValuePool::new()).unwrap()
    }

    fn base() -> (Relation, Sigma) {
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let mut rel = Relation::new_in(schema.clone(), ValuePool::new_handle());
        rel.insert(Tuple::new_in(["k0", "alpha"], rel.pool()))
            .unwrap();
        rel.insert(Tuple::new_in(["k1", "beta"], rel.pool()))
            .unwrap();
        let sigma = kv_sigma(&schema);
        (rel, sigma)
    }

    /// Streamed rounds must equal one-shot `inc_repair` over the same
    /// history: round boundaries are invisible to the repair outcome.
    #[test]
    fn rounds_match_one_shot_inc_repair() {
        let (rel, sigma) = base();
        let d1 = Tuple::new_in(["k0", "alphb"], rel.pool()); // conflicts with base pin
        let d2 = Tuple::new_in(["k2", "gamma"], rel.pool()); // clean
        let d3 = Tuple::new_in(["k2", "gamm"], rel.pool()); // conflicts with d2's pin

        // One-shot references: repair [d1, d2] first, then [d3] on top.
        let cfg = IncConfig::default();
        let one = inc_oneshot(&rel, &[d1.clone(), d2.clone()], &sigma, &cfg);
        let two = inc_oneshot(&one, std::slice::from_ref(&d3), &sigma, &cfg);

        let mut r = StreamRepairer::new(rel, &sigma, cfg).unwrap();
        let mut round1 = vec![r.stage(d1).unwrap(), r.stage(d2).unwrap()];
        r.resolve_pending(&sigma, &mut round1).unwrap();
        let mut round2 = vec![r.stage(d3).unwrap()];
        r.resolve_pending(&sigma, &mut round2).unwrap();

        assert_eq!(r.work().len(), two.len());
        for (id, t) in two.iter() {
            assert_eq!(r.work().tuple(id).unwrap(), t, "tuple {id} diverged");
        }
    }

    fn inc_oneshot(d: &Relation, delta: &[Tuple], sigma: &Sigma, cfg: &IncConfig) -> Relation {
        crate::inc_repair(d, delta, sigma, cfg.clone())
            .unwrap()
            .repair
    }

    /// Deleting an active tuple releases its LHS pin: a later arrival
    /// re-pins the group to its own value instead of the departed one's.
    #[test]
    fn remove_active_releases_group_pin() {
        let (rel, sigma) = base();
        let v = rel.schema().attr("v").unwrap();
        let pool = rel.pool().clone();
        let mut r = StreamRepairer::new(rel, &sigma, IncConfig::default()).unwrap();

        let mut ids = vec![r.stage(Tuple::new_in(["k9", "delta"], &pool)).unwrap()];
        r.resolve_pending(&sigma, &mut ids).unwrap();
        let pinner = ids[0];

        // While the pinner lives, a conflicting arrival follows its value.
        let mut ids = vec![r.stage(Tuple::new_in(["k9", "delte"], &pool)).unwrap()];
        r.resolve_pending(&sigma, &mut ids).unwrap();
        assert_eq!(
            r.work().require(ids[0]).unwrap().value(v),
            Value::str("delta")
        );

        // Remove both members; the group is empty, so the pin must clear.
        r.remove_active(pinner).unwrap();
        r.remove_active(ids[0]).unwrap();
        let mut ids = vec![r.stage(Tuple::new_in(["k9", "epsilon"], &pool)).unwrap()];
        r.resolve_pending(&sigma, &mut ids).unwrap();
        assert_eq!(
            r.work().require(ids[0]).unwrap().value(v),
            Value::str("epsilon"),
            "stale pin survived removal of every group member"
        );
    }

    /// A staged tuple withdrawn before resolution leaves no trace in any
    /// index — the relation slot dies and later rounds are unaffected.
    #[test]
    fn unstage_cancels_cleanly() {
        let (rel, sigma) = base();
        let pool = rel.pool().clone();
        let mut r = StreamRepairer::new(rel, &sigma, IncConfig::default()).unwrap();
        let id = r.stage(Tuple::new_in(["k0", "zzz"], &pool)).unwrap();
        let t = r.unstage(id).unwrap();
        assert_eq!(pool.resolve(t.id(rel_attr(&r, "v"))), Value::str("zzz"));
        assert!(r.work().tuple(id).is_none());
        // An empty round is a no-op.
        let stats = r.resolve_pending(&sigma, &mut []).unwrap();
        assert_eq!(stats.processed, 0);
    }

    /// A value index first built mid-request takes the values ΔD already
    /// activated as added, not as base: rolling them back leaves its memo
    /// of base answers in place for the next request.
    #[test]
    fn lazy_index_mid_request_keeps_delta_values_out_of_the_base() {
        let (rel, sigma) = base();
        let parts = cfd_cfd::violation::Engine::build(&rel, &sigma).to_parts();
        let config = IncConfig {
            ordering: crate::Ordering::Linear,
            ..IncConfig::default()
        };
        let mut r = InsertRepairer::new(&rel, &sigma);
        // (k2, gamma) is clean and activates first, bringing the new
        // values k2 and gamma; (k0, alphb) then conflicts with the base
        // pin and builds both value indexes.
        let delta = [
            Tuple::new_in(["k2", "gamma"], rel.pool()),
            Tuple::new_in(["k0", "alphb"], rel.pool()),
        ];
        let run = r.repair(&rel, &delta, &sigma, &parts, config).unwrap();
        assert_eq!(run.outcome.stats.modified, 1);
        let k0 = rel.pool().intern(&Value::str("k0"));
        let after = r.footprint();
        assert_eq!(after.value_index_len, vec![Some(2), Some(2)]);
        assert_eq!(after.memo_keys, vec![vec![k0], vec![]]);
    }

    /// Mid-request, each built value index holds the values ΔD activated
    /// as added ids, and its answers equal the naive scan over the same
    /// contents: base probes (memo hits merged with the added bands) and
    /// ΔD-only probes (full scans) alike. One repairer serves several
    /// requests, so memos built in one request answer the next.
    #[test]
    fn nearest_matches_the_naive_scan_mid_request() {
        use cfd_gen::{generate, inject, GenConfig, NoiseConfig};
        use cfd_model::AttrId;
        for seed in [1u64, 7] {
            let w = generate(&GenConfig::sized(300, seed));
            let base = w.dopt;
            let sigma = w.sigma;
            let parts = cfd_cfd::violation::Engine::build(&base, &sigma).to_parts();
            let base_adom = ActiveDomain::of_relation(&base);
            let mut r = InsertRepairer::new(&base, &sigma);
            let (mut with_added, mut memo_hits) = (0, 0);
            for request in 0..4u64 {
                let fresh = generate(&GenConfig {
                    n_tuples: 20,
                    seed: seed * 100 + request,
                    world: w.world.config.clone(),
                });
                let noise = NoiseConfig {
                    rate: 1.0,
                    seed: seed * 100 + request,
                    ..Default::default()
                };
                let arrivals = inject(&fresh.dopt, &w.world, &noise).dirty;
                let arrivals = arrivals.rekey_into(base.pool());
                let delta: Vec<Tuple> = arrivals.iter().map(|(_, t)| t.to_tuple()).collect();
                // `InsertRepairer::repair`, with the checks between the
                // run and its rollback.
                let rules = Rules::new(&sigma, &parts.rules, &parts.variable_ids);
                let run = Run::start(r.take_parts(&base), &delta, rules, IncConfig::default());
                assert!(run.failed.is_none(), "seed {seed} request {request}");
                let (mut mid, _) = run.state.suspend();
                for (a, slot) in mid.vidx.iter_mut().enumerate() {
                    let Some(idx) = slot else { continue };
                    let attr = AttrId(a as u16);
                    with_added += usize::from(idx.len() > base_adom.distinct(attr));
                    let memo = idx.memo_keys();
                    let mut probes: Vec<ValueId> =
                        base_adom.ids(attr).map(|(id, _)| id).step_by(5).collect();
                    probes.extend(delta.iter().map(|t| t.id(attr)));
                    let repaired = mid.work.column(attr);
                    probes.extend(run.delta_ids.iter().map(|id| repaired[id.index()]));
                    for probe in probes.into_iter().filter(|p| !p.is_null()) {
                        memo_hits += usize::from(memo.binary_search(&probe).is_ok());
                        for k in [6, 3, 1] {
                            assert_eq!(
                                idx.nearest(probe, k),
                                idx.nearest_naive(probe, k),
                                "seed {seed} request {request} attr {a} probe {probe} k {k}"
                            );
                        }
                    }
                }
                mid.roll_back(&run.order[..run.activated]);
                r.lhs = mid.lhs;
                r.adom = mid.adom;
                r.vidx = mid.vidx;
            }
            assert!(with_added > 0, "seed {seed}: no index held ΔD values");
            assert!(memo_hits > 0, "seed {seed}: no probe hit a carried memo");
        }
    }

    fn rel_attr(r: &StreamRepairer, name: &str) -> cfd_model::AttrId {
        r.work().schema().attr(name).unwrap()
    }
}
