//! Evaluation helpers: precision/recall per §7.1 plus run summaries.
//!
//! "Precision is the ratio of the number of correctly repaired noises to
//! the number of changes made by the repairing algorithm… Recall is the
//! ratio of the number of correctly repaired noises to the total number of
//! noises." Both derive from three `dif` computations; the arithmetic
//! lives in [`cfd_model::diff::RepairQuality`], this module packages it
//! with timing for the experiment harness.

use std::time::Duration;

use cfd_model::diff::RepairQuality;
use cfd_model::Relation;

/// One repair run's quality and timing.
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    /// Attribute-level noises in the dirty input.
    pub noises: usize,
    /// Changes the repairer made.
    pub changes: usize,
    /// Residual errors (missed + newly introduced).
    pub residual: usize,
    /// Precision ∈ [0, 1].
    pub precision: f64,
    /// Recall ∈ [0, 1].
    pub recall: f64,
    /// Wall-clock time of the repair.
    pub elapsed: Duration,
}

impl RunSummary {
    /// Evaluate a repair against the dirty input and ground truth.
    pub fn evaluate(d: &Relation, repr: &Relation, dopt: &Relation, elapsed: Duration) -> Self {
        let q = RepairQuality::evaluate(d, repr, dopt);
        RunSummary {
            noises: q.noises,
            changes: q.changes,
            residual: q.residual,
            precision: q.precision(),
            recall: q.recall(),
            elapsed,
        }
    }

    /// F1 of precision/recall (not in the paper, handy for summaries).
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "precision {:5.1}%  recall {:5.1}%  (noises {}, changes {}, residual {})  {:.2?}",
            self.precision * 100.0,
            self.recall * 100.0,
            self.noises,
            self.changes,
            self.residual,
            self.elapsed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::{AttrId, Schema, Tuple, TupleId, Value, ValuePool};

    fn rel(rows: &[[&str; 2]]) -> Relation {
        let schema = Schema::new("r", &["a", "b"]).unwrap();
        let mut r = Relation::new_in(schema, ValuePool::new_handle());
        for row in rows {
            r.insert(Tuple::new_in(row.iter().copied(), r.pool()))
                .unwrap();
        }
        r
    }

    #[test]
    fn perfect_repair_summary() {
        let dopt = rel(&[["x", "y"]]);
        let mut d = dopt.clone();
        d.set_value(TupleId(0), AttrId(0), Value::str("BAD"))
            .unwrap();
        let s = RunSummary::evaluate(&d, &dopt, &dopt, Duration::from_millis(5));
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1(), 1.0);
        assert_eq!(s.noises, 1);
    }

    #[test]
    fn zero_division_guards() {
        let dopt = rel(&[["x", "y"]]);
        let s = RunSummary::evaluate(&dopt, &dopt, &dopt, Duration::ZERO);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        let half = RunSummary {
            precision: 0.0,
            recall: 0.0,
            ..s
        };
        assert_eq!(half.f1(), 0.0);
    }

    #[test]
    fn display_is_readable() {
        let dopt = rel(&[["x", "y"]]);
        let s = RunSummary::evaluate(&dopt, &dopt, &dopt, Duration::from_secs(1));
        let text = s.to_string();
        assert!(
            text.contains("precision") && text.contains("recall"),
            "{text}"
        );
    }
}
