//! Applying `INCREPAIR` in the non-incremental setting (§5.3).
//!
//! Given a dirty `D'`, extract a consistent subset `D ⊆ D'` and treat the
//! remainder as insertions `ΔD = D' \ D` for `INCREPAIR`. Finding a
//! *maximal* consistent subset is NP-hard (Proposition 5.4, by reduction
//! from independent set), so the paper recommends — and we implement — the
//! efficient approximation: take the tuples that violate no constraint at
//! all, which is computable with one detection pass and "can often be
//! expected to be fairly large" at realistic error rates.

use cfd_cfd::violation::detect;
use cfd_cfd::Sigma;
use cfd_model::{Relation, TupleId};

use crate::incremental::{IncConfig, IncState, IncStats, OwnedRules};
use crate::RepairError;

/// Split `d` into (clean tuple ids, dirty tuple ids) using the paper's
/// efficient approximation: the clean part holds exactly the tuples with
/// `vio(t) = 0`.
pub fn consistent_subset(d: &Relation, sigma: &Sigma) -> (Vec<TupleId>, Vec<TupleId>) {
    let report = detect(d, sigma);
    let mut clean = Vec::new();
    let mut dirty = Vec::new();
    for id in d.ids() {
        if report.vio(id) == 0 {
            clean.push(id);
        } else {
            dirty.push(id);
        }
    }
    (clean, dirty)
}

/// Outcome of [`repair_via_incremental`].
#[derive(Clone, Debug)]
pub struct SubsetRepairOutcome {
    /// The repair, preserving the input's tuple ids.
    pub repair: Relation,
    /// Ids of the tuples that formed the clean base.
    pub clean_base: Vec<TupleId>,
    /// Ids that were re-resolved as pseudo-insertions.
    pub reinserted: Vec<TupleId>,
    /// TUPLERESOLVE statistics over the reinserted tuples.
    pub stats: IncStats,
}

impl SubsetRepairOutcome {
    /// The repair as an id-level [`cfd_model::EditLog`] against the dirty
    /// input: snapshot + this log replays to the byte-exact `repair`.
    /// Valid because §5.3 repair preserves tuple ids.
    pub fn edit_log(
        &self,
        original: &Relation,
    ) -> Result<cfd_model::EditLog, cfd_model::ModelError> {
        cfd_model::EditLog::between(original, &self.repair)
    }
}

/// Repair a whole dirty database with `INCREPAIR` (§5.3): the violating
/// tuples are re-resolved one at a time against the consistent remainder.
/// Tuple ids are preserved, so the result is directly comparable to the
/// input and to a ground truth.
pub fn repair_via_incremental(
    d: &Relation,
    sigma: &Sigma,
    config: IncConfig,
) -> Result<SubsetRepairOutcome, RepairError> {
    let (clean_base, mut pending) = consistent_subset(d, sigma);
    let rules = OwnedRules::build(sigma);
    let mut state = IncState::new(d.clone(), &pending, rules.view(sigma), config)?;
    if let (_, Some(e)) = state.resolve_all(&mut pending) {
        return Err(e);
    }
    let reinserted = pending;
    let stats = state.stats;
    let repair = state.work;
    debug_assert!(cfd_cfd::check(&repair, sigma));
    Ok(SubsetRepairOutcome {
        repair,
        clean_base,
        reinserted,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::Ordering;
    use cfd_cfd::Cfd;
    use cfd_model::{Schema, Tuple, Value, ValuePool};

    fn kv_sigma(schema: &Schema) -> Sigma {
        let fd = Cfd::standard_fd(
            "kv",
            vec![schema.attr("k").unwrap()],
            vec![schema.attr("v").unwrap()],
        );
        Sigma::normalize_in(schema.clone(), vec![fd], &ValuePool::new()).unwrap()
    }

    fn sample() -> (Relation, Sigma) {
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let mut rel = Relation::new_in(schema.clone(), ValuePool::new_handle());
        for row in [["a", "1"], ["a", "1"], ["b", "2"], ["b", "XXX"], ["c", "3"]] {
            rel.insert(Tuple::new_in(row, rel.pool())).unwrap();
        }
        (rel, kv_sigma(&schema))
    }

    #[test]
    fn consistent_subset_excludes_both_conflict_sides() {
        let (rel, sigma) = sample();
        let (clean, dirty) = consistent_subset(&rel, &sigma);
        assert_eq!(clean, vec![TupleId(0), TupleId(1), TupleId(4)]);
        assert_eq!(dirty, vec![TupleId(2), TupleId(3)]);
    }

    #[test]
    fn repair_via_incremental_fixes_conflicts_in_place() {
        let (rel, sigma) = sample();
        let out = repair_via_incremental(&rel, &sigma, IncConfig::default()).unwrap();
        assert!(cfd_cfd::check(&out.repair, &sigma));
        assert_eq!(out.repair.len(), rel.len());
        assert_eq!(out.reinserted.len(), 2);
        // ids preserved and clean tuples untouched
        for id in out.clean_base {
            assert_eq!(out.repair.tuple(id).unwrap(), rel.tuple(id).unwrap());
        }
        // the b-group now agrees on one value
        let v = rel.schema().attr("v").unwrap();
        let v2 = out.repair.tuple(TupleId(2)).unwrap().value(v).clone();
        let v3 = out.repair.tuple(TupleId(3)).unwrap().value(v).clone();
        assert!(v2.sql_eq(&v3));
    }

    #[test]
    fn clean_database_passes_through() {
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let mut rel = Relation::new_in(schema.clone(), ValuePool::new_handle());
        rel.insert(Tuple::new_in(["a", "1"], rel.pool())).unwrap();
        rel.insert(Tuple::new_in(["b", "2"], rel.pool())).unwrap();
        let sigma = kv_sigma(&schema);
        let out = repair_via_incremental(&rel, &sigma, IncConfig::default()).unwrap();
        assert_eq!(out.reinserted.len(), 0);
        assert_eq!(out.stats.cost, 0.0);
        for (id, t) in rel.iter() {
            assert_eq!(out.repair.tuple(id).unwrap(), t);
        }
    }

    #[test]
    fn orderings_preserve_consistency_via_subset_path() {
        let (rel, sigma) = sample();
        for ordering in [Ordering::Linear, Ordering::Violations, Ordering::Weight] {
            let cfg = IncConfig {
                ordering,
                ..Default::default()
            };
            let out = repair_via_incremental(&rel, &sigma, cfg).unwrap();
            assert!(cfd_cfd::check(&out.repair, &sigma), "{ordering:?}");
        }
    }

    #[test]
    fn nulls_count_in_stats_when_unavoidable() {
        // Conflicting constant CFDs on a single tuple force a null.
        let schema = Schema::new("r", &["a", "b"]).unwrap();
        let mut rel = Relation::new_in(schema.clone(), ValuePool::new_handle());
        rel.insert(Tuple::new_in(["a1", "x"], rel.pool())).unwrap();
        let c1 = Cfd::new(
            "c1",
            vec![schema.attr("a").unwrap()],
            vec![schema.attr("b").unwrap()],
            vec![cfd_cfd::PatternRow::new(
                vec![cfd_cfd::PatternValue::constant("a1")],
                vec![cfd_cfd::PatternValue::constant("b1")],
            )],
        )
        .unwrap();
        let c2 = Cfd::new(
            "c2",
            vec![schema.attr("a").unwrap()],
            vec![schema.attr("b").unwrap()],
            vec![cfd_cfd::PatternRow::new(
                vec![cfd_cfd::PatternValue::constant("a1")],
                vec![cfd_cfd::PatternValue::constant("b2")],
            )],
        )
        .unwrap();
        let sigma = Sigma::normalize_in(schema.clone(), vec![c1, c2], rel.pool()).unwrap();
        let out = repair_via_incremental(&rel, &sigma, IncConfig::default()).unwrap();
        assert!(cfd_cfd::check(&out.repair, &sigma));
        // either b became null, or a changed away from a1 (possibly null)
        let t = out.repair.tuple(TupleId(0)).unwrap();
        let a = schema.attr("a").unwrap();
        let b = schema.attr("b").unwrap();
        assert!(t.value(b).is_null() || t.value(a) != Value::str("a1"));
    }
}
