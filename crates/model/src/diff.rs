//! The `dif` measure: attribute-level differences between two databases.
//!
//! The paper measures repair accuracy through
//! `|dif(Repr, Dopt)| / |Dopt|` and derives precision/recall from three
//! applications of `dif` (§7.1):
//!
//! * noises introduced: `dif(D, Dopt)`
//! * changes made by the repairer: `dif(D, Repr)`
//! * noises correctly repaired: `dif(D, Repr) − dif(Dopt, Repr)`
//!
//! `dif` counts attribute positions whose values differ between two
//! relations that share tuple ids (the generator and the repairers both
//! preserve ids). Within one pool ids compare like values (interning is
//! injective); relations in different pools — a dirty copy and its
//! ground truth each hold their own — are compared by value. Strict null
//! semantics apply: a `null` written over a
//! correct constant counts as a difference, matching the paper's rule that
//! "if such a value before the change is correct, we count the null as an
//! error".
//!
//! ## Id-level edit logs
//!
//! The same cell walk that powers `dif` also yields [`EditLog`]: the
//! repair expressed as an ordered list of `(tuple, attribute, old
//! [`ValueId`], new [`ValueId`])` edits. Because ids are the pipeline's
//! stable currency (PR 1) and snapshots persist the dictionary that
//! defines them ([`crate::snapshot`]), an edit log is a durable,
//! exchangeable artifact: snapshot + edit log replays to the byte-exact
//! repaired relation, without ever materializing the full repair.
//! [`EditLog::apply`] verifies each edit's expected old value, so a log
//! replayed against the wrong base fails loudly instead of silently
//! corrupting data.

use std::sync::Arc;

use crate::error::ModelError;
use crate::pool::ValueId;
use crate::relation::{Relation, TupleId};
use crate::schema::AttrId;

/// Walk the two relations' shared id space: `on_cell` fires for every
/// attribute of every tuple live in both (with both ids), `on_missing`
/// for every tuple live on only one side. This is the single traversal
/// behind both [`dif`] and [`EditLog::between`].
fn walk_cells(
    a: &Relation,
    b: &Relation,
    mut on_cell: impl FnMut(TupleId, AttrId, ValueId, ValueId),
    mut on_missing: impl FnMut(TupleId),
) {
    debug_assert_eq!(a.schema().arity(), b.schema().arity());
    let arity = a.schema().arity() as u16;
    for (id, ta) in a.iter() {
        match b.tuple(id) {
            Some(tb) => {
                for i in 0..arity {
                    let attr = AttrId(i);
                    on_cell(id, attr, ta.id(attr), tb.id(attr));
                }
            }
            None => on_missing(id),
        }
    }
    // Tuples live in b but not in a.
    for (id, _) in b.iter() {
        if a.tuple(id).is_none() {
            on_missing(id);
        }
    }
}

/// Count attribute-level differences between relations sharing tuple ids.
///
/// Tuples present in only one relation contribute one difference per
/// attribute (they are entirely "wrong" from the other side's view).
/// Cells compare as ids when both relations intern into one pool and as
/// values otherwise.
pub fn dif(a: &Relation, b: &Relation) -> usize {
    let arity = a.schema().arity();
    let same_pool = Arc::ptr_eq(a.pool(), b.pool());
    let mut cells = 0;
    let mut missing = 0;
    walk_cells(
        a,
        b,
        |_, _, va, vb| {
            let differ = if same_pool {
                va != vb
            } else {
                a.pool().resolve(va) != b.pool().resolve(vb)
            };
            if differ {
                cells += 1;
            }
        },
        |_| missing += 1,
    );
    cells + missing * arity
}

/// One cell-level change: tuple, attribute, the id being replaced, and
/// the id replacing it. Strict semantics — `null` is a value like any
/// other, so nulling a cell (or un-nulling one) is an ordinary edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edit {
    /// The tuple whose cell changes.
    pub tuple: TupleId,
    /// The attribute that changes.
    pub attr: AttrId,
    /// The cell's value id before the edit (verified on replay).
    pub from: ValueId,
    /// The cell's value id after the edit.
    pub to: ValueId,
}

/// A repair as an ordered list of id-level cell [`Edit`]s.
///
/// Edits are sorted by `(tuple, attr)` — the canonical order
/// [`EditLog::between`] produces and [`crate::snapshot::write_edit_log`]
/// persists, so two logs of the same repair are byte-identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EditLog {
    edits: Vec<Edit>,
}

impl EditLog {
    /// Build a log from pre-sorted edits.
    ///
    /// Returns an error unless the edits are strictly increasing in
    /// `(tuple, attr)` (each cell edited at most once) with `from ≠ to`.
    pub fn from_edits(edits: Vec<Edit>) -> Result<EditLog, ModelError> {
        for pair in edits.windows(2) {
            if (pair[1].tuple, pair[1].attr) <= (pair[0].tuple, pair[0].attr) {
                return Err(ModelError::EditConflict(format!(
                    "edits out of canonical (tuple, attr) order at {} {}",
                    pair[1].tuple, pair[1].attr
                )));
            }
        }
        if let Some(e) = edits.iter().find(|e| e.from == e.to) {
            return Err(ModelError::EditConflict(format!(
                "no-op edit on {} {}",
                e.tuple, e.attr
            )));
        }
        Ok(EditLog { edits })
    }

    /// Derive the edit log that turns `from` into `to`.
    ///
    /// Both relations must share a tuple-id space exactly (same liveness
    /// slot by slot) — the repair algorithms guarantee this; anything
    /// else errors, because insertion/deletion cannot be expressed as
    /// cell edits. Both must also intern into one pool: an edit names
    /// ids, which mean nothing across pools
    /// ([`ModelError::PoolMismatch`]).
    pub fn between(from: &Relation, to: &Relation) -> Result<EditLog, ModelError> {
        if from.schema().arity() != to.schema().arity() {
            return Err(ModelError::ArityMismatch {
                expected: from.schema().arity(),
                actual: to.schema().arity(),
            });
        }
        if !Arc::ptr_eq(from.pool(), to.pool()) {
            return Err(ModelError::PoolMismatch);
        }
        let mut edits = Vec::new();
        let mut missing = None;
        walk_cells(
            from,
            to,
            |tuple, attr, va, vb| {
                if va != vb {
                    edits.push(Edit {
                        tuple,
                        attr,
                        from: va,
                        to: vb,
                    });
                }
            },
            |id| missing = missing.or(Some(id)),
        );
        if let Some(id) = missing {
            return Err(ModelError::EditConflict(format!(
                "tuple {id} is live in only one relation; edit logs express \
                 cell changes over a shared id space"
            )));
        }
        // `walk_cells` visits tuples in id order and attributes in schema
        // order, so the edits are already canonical.
        EditLog { edits }.validate()
    }

    fn validate(self) -> Result<EditLog, ModelError> {
        EditLog::from_edits(self.edits)
    }

    /// Replay the log onto `rel`, verifying each edit's expected old
    /// value first. On a mismatch nothing is modified — verification
    /// completes before the first write — so a stale or misaddressed log
    /// cannot leave a half-applied relation behind.
    pub fn apply(&self, rel: &mut Relation) -> Result<(), ModelError> {
        for e in &self.edits {
            match rel.value_id(e.tuple, e.attr) {
                Some(cur) if cur == e.from => {}
                Some(cur) => {
                    return Err(ModelError::EditConflict(format!(
                        "edit on {} {} expected {} but the relation holds {}",
                        e.tuple, e.attr, e.from, cur
                    )))
                }
                None => return Err(ModelError::UnknownTuple(e.tuple.0)),
            }
        }
        for e in &self.edits {
            rel.set_value_id(e.tuple, e.attr, e.to)
                .expect("verified live above");
        }
        Ok(())
    }

    /// The edits, in canonical `(tuple, attr)` order.
    pub fn edits(&self) -> &[Edit] {
        &self.edits
    }

    /// Number of cell edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// True when the log changes nothing.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }
}

/// `|dif(a, b)| / (|b| · arity)` — the normalized inaccuracy ratio used by
/// the sampling module. Returns 0 for an empty `b`.
pub fn inaccuracy_ratio(repair: &Relation, correct: &Relation) -> f64 {
    let cells = correct.len() * correct.schema().arity();
    if cells == 0 {
        return 0.0;
    }
    dif(repair, correct) as f64 / cells as f64
}

/// Precision and recall of a repair (§7.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepairQuality {
    /// `dif(D, Dopt)` — attribute-level noises present in the dirty data.
    pub noises: usize,
    /// `dif(D, Repr)` — changes the repairing algorithm made.
    pub changes: usize,
    /// `dif(Dopt, Repr)` — residual errors after repair (missed noises plus
    /// newly introduced ones).
    pub residual: usize,
}

impl RepairQuality {
    /// Evaluate a repair given the dirty input `d`, the repair `repr` and
    /// the ground truth `dopt`.
    pub fn evaluate(d: &Relation, repr: &Relation, dopt: &Relation) -> Self {
        RepairQuality {
            noises: dif(d, dopt),
            changes: dif(d, repr),
            residual: dif(dopt, repr),
        }
    }

    /// Correctly repaired noises: `dif(D, Repr) − dif(Dopt, Repr)`,
    /// saturating at zero (a pathological repair can damage more than it
    /// changes relative to the baseline accounting).
    pub fn correct_repairs(&self) -> usize {
        self.changes.saturating_sub(self.residual)
    }

    /// Precision: correctly repaired noises / changes made. 1.0 when the
    /// repairer made no changes (vacuously precise).
    pub fn precision(&self) -> f64 {
        if self.changes == 0 {
            1.0
        } else {
            self.correct_repairs() as f64 / self.changes as f64
        }
    }

    /// Recall: correctly repaired noises / total noises. 1.0 when the input
    /// had no noise.
    pub fn recall(&self) -> f64 {
        if self.noises == 0 {
            1.0
        } else {
            self.correct_repairs() as f64 / self.noises as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ValuePool;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use crate::AttrId;

    /// A relation holding `rows`, on a fresh pool of its own.
    fn rel(rows: &[[&str; 2]]) -> Relation {
        let schema = Schema::new("r", &["a", "b"]).unwrap();
        let mut r = Relation::new_in(schema, ValuePool::new_handle());
        for row in rows {
            r.insert(Tuple::new_in(row.iter().copied(), r.pool()))
                .unwrap();
        }
        r
    }

    fn cell(r: &Relation, t: u32, a: u16) -> Value {
        r.pool()
            .resolve(r.value_id(crate::TupleId(t), AttrId(a)).unwrap())
    }

    #[test]
    fn identical_relations_have_zero_dif() {
        let a = rel(&[["x", "y"], ["u", "v"]]);
        assert_eq!(dif(&a, &a.clone()), 0);
        assert_eq!(inaccuracy_ratio(&a, &a.clone()), 0.0);
    }

    #[test]
    fn dif_counts_cells() {
        let a = rel(&[["x", "y"], ["u", "v"]]);
        let b = rel(&[["x", "CHANGED"], ["CHANGED", "CHANGED"]]);
        assert_eq!(dif(&a, &b), 3);
        assert_eq!(dif(&b, &a), 3); // symmetric when ids align
    }

    #[test]
    fn pools_are_compared_by_value() {
        // Read into two fresh pools, `x` and `y` swap ids: an id walk
        // would see no difference at all.
        let a = rel(&[["x", "y"]]);
        let b = rel(&[["y", "x"]]);
        for attr in [AttrId(0), AttrId(1)] {
            assert_eq!(a.column(attr), b.column(attr));
        }
        assert_eq!(dif(&a, &b), 2);
        assert_eq!(dif(&a, &rel(&[["x", "y"]])), 0);
        let q = RepairQuality::evaluate(&a, &b, &rel(&[["y", "y"]]));
        assert_eq!((q.noises, q.changes, q.residual), (1, 2, 1));
        assert!(matches!(
            EditLog::between(&a, &b),
            Err(crate::ModelError::PoolMismatch)
        ));
    }

    #[test]
    fn null_counts_as_difference() {
        let a = rel(&[["x", "y"]]);
        let mut b = a.clone();
        b.set_value(crate::TupleId(0), AttrId(1), Value::Null)
            .unwrap();
        assert_eq!(dif(&a, &b), 1);
    }

    #[test]
    fn missing_tuples_count_fully() {
        let a = rel(&[["x", "y"], ["u", "v"]]);
        let mut b = a.clone();
        b.delete(crate::TupleId(1)).unwrap();
        assert_eq!(dif(&a, &b), 2); // one 2-attribute tuple missing
        assert_eq!(dif(&b, &a), 2);
    }

    #[test]
    fn quality_perfect_repair() {
        let dopt = rel(&[["x", "y"], ["u", "v"]]);
        let mut d = dopt.clone();
        d.set_value(crate::TupleId(0), AttrId(0), Value::str("BAD"))
            .unwrap();
        let q = RepairQuality::evaluate(&d, &dopt, &dopt);
        assert_eq!(q.noises, 1);
        assert_eq!(q.changes, 1);
        assert_eq!(q.residual, 0);
        assert_eq!(q.precision(), 1.0);
        assert_eq!(q.recall(), 1.0);
    }

    #[test]
    fn quality_partial_repair_with_new_noise() {
        let dopt = rel(&[["x", "y"], ["u", "v"]]);
        // two noises
        let mut d = dopt.clone();
        d.set_value(crate::TupleId(0), AttrId(0), Value::str("BAD0"))
            .unwrap();
        d.set_value(crate::TupleId(1), AttrId(1), Value::str("BAD1"))
            .unwrap();
        // repair fixes noise 0 but damages a clean cell
        let mut repr = d.clone();
        repr.set_value(crate::TupleId(0), AttrId(0), Value::str("x"))
            .unwrap();
        repr.set_value(crate::TupleId(0), AttrId(1), Value::str("OOPS"))
            .unwrap();
        let q = RepairQuality::evaluate(&d, &repr, &dopt);
        assert_eq!(q.noises, 2);
        assert_eq!(q.changes, 2);
        assert_eq!(q.residual, 2); // BAD1 unfixed + OOPS introduced
        assert_eq!(q.correct_repairs(), 0);
        assert_eq!(q.precision(), 0.0);
        assert_eq!(q.recall(), 0.0);
    }

    #[test]
    fn edit_log_round_trips_a_repair() {
        let a = rel(&[["x", "y"], ["u", "v"]]);
        let mut b = a.clone();
        b.set_value(crate::TupleId(0), AttrId(1), Value::str("Y2"))
            .unwrap();
        b.set_value(crate::TupleId(1), AttrId(0), Value::Null)
            .unwrap();
        let log = EditLog::between(&a, &b).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.len(), dif(&a, &b), "edit count is exactly dif");
        let mut replayed = a.clone();
        log.apply(&mut replayed).unwrap();
        for (id, t) in b.iter() {
            assert_eq!(replayed.tuple(id).unwrap().to_tuple(), t.to_tuple());
        }
        // identical relations produce the empty log
        assert!(EditLog::between(&a, &a.clone()).unwrap().is_empty());
    }

    #[test]
    fn edit_log_apply_rejects_stale_base() {
        let a = rel(&[["x", "y"]]);
        let mut b = a.clone();
        b.set_value(crate::TupleId(0), AttrId(0), Value::str("X2"))
            .unwrap();
        let log = EditLog::between(&a, &b).unwrap();
        // replaying onto the already-repaired relation must fail cleanly
        let mut stale = b.clone();
        let err = log.apply(&mut stale).unwrap_err();
        assert!(matches!(err, crate::ModelError::EditConflict(_)), "{err}");
        // and must leave it untouched
        assert_eq!(cell(&stale, 0, 0), Value::str("X2"));
    }

    #[test]
    fn edit_log_apply_verifies_before_writing() {
        // First edit is valid, second is stale: nothing may be written.
        let a = rel(&[["x", "y"], ["u", "v"]]);
        let mut b = a.clone();
        b.set_value(crate::TupleId(0), AttrId(0), Value::str("X2"))
            .unwrap();
        b.set_value(crate::TupleId(1), AttrId(0), Value::str("U2"))
            .unwrap();
        let log = EditLog::between(&a, &b).unwrap();
        let mut target = a.clone();
        target
            .set_value(crate::TupleId(1), AttrId(0), Value::str("DRIFTED"))
            .unwrap();
        assert!(log.apply(&mut target).is_err());
        assert_eq!(
            cell(&target, 0, 0),
            Value::str("x"),
            "valid first edit must not have been applied"
        );
    }

    #[test]
    fn edit_log_rejects_diverging_tuple_sets() {
        let a = rel(&[["x", "y"], ["u", "v"]]);
        let mut b = a.clone();
        b.delete(crate::TupleId(1)).unwrap();
        assert!(matches!(
            EditLog::between(&a, &b),
            Err(crate::ModelError::EditConflict(_))
        ));
    }

    #[test]
    fn from_edits_enforces_canonical_form() {
        let e = |t: u32, a: u16| Edit {
            tuple: crate::TupleId(t),
            attr: AttrId(a),
            from: crate::pool::ValueId(1),
            to: crate::pool::ValueId(2),
        };
        assert!(EditLog::from_edits(vec![e(0, 0), e(0, 1), e(1, 0)]).is_ok());
        assert!(EditLog::from_edits(vec![e(0, 1), e(0, 0)]).is_err());
        assert!(EditLog::from_edits(vec![e(0, 0), e(0, 0)]).is_err());
        let noop = Edit {
            from: crate::pool::ValueId(3),
            to: crate::pool::ValueId(3),
            ..e(0, 0)
        };
        assert!(EditLog::from_edits(vec![noop]).is_err());
    }

    #[test]
    fn quality_no_change_is_vacuously_precise() {
        let dopt = rel(&[["x", "y"]]);
        let q = RepairQuality::evaluate(&dopt, &dopt, &dopt);
        assert_eq!(q.precision(), 1.0);
        assert_eq!(q.recall(), 1.0);
    }
}
