//! # cfd-repair — repairing relational data with CFDs
//!
//! The core contribution of Cong, Fan, Geerts, Jia & Ma, *Improving Data
//! Quality: Consistency and Accuracy* (VLDB 2007): given a dirty relation
//! `D` and a satisfiable set Σ of conditional functional dependencies, find
//! a repair `Repr |= Σ` of small cost. Both flavors are provided:
//!
//! * [`batch::batch_repair`] — `BATCHREPAIR` (§4), equivalence-class based
//!   whole-database repair with the faithful cost-ordered `PICKNEXT`;
//! * [`incremental::inc_repair`] — `INCREPAIR` (§5), repairing a batch of
//!   inserted tuples one at a time via `TUPLERESOLVE`, with the three
//!   orderings L-/V-/W- of §5.2, the group census as its LHS-indices and
//!   the cost-based candidate-value index;
//! * [`subset`] — the §5.3 bridge that lets `INCREPAIR` clean a whole dirty
//!   database by first extracting a consistent subset.
//!
//! Supporting machinery: the Damerau–Levenshtein [`distance`] kernel, the
//! §3.2 [`cost`] model, [`equivalence`] classes with monotone targets,
//! [`cluster`] for nearest-value enumeration, the
//! resident `INCREPAIR` drivers in [`resident`], and [`shard`], which
//! re-exports the per-shape group census detection and both algorithms
//! share ([`cfd_cfd::census`]).
//!
//! Both algorithms are the paper's serial greedy loops — for
//! `BATCHREPAIR`, `PICKNEXT` picks the cheapest fix, `CFD-RESOLVE`/`FINDV`
//! applies it, and the loop repeats — and their setup (index builds,
//! census, t=0 frontier scoring) runs on the calling thread too. No
//! repair setting takes a thread count.
//!
//! Both repair problems are NP-complete (the paper's Corollaries 4.1/5.1,
//! via Bohannon et al. 2005 and distance-SAT); the algorithms here are the
//! paper's heuristics, with termination enforced by an explicit progress
//! measure.

#![forbid(unsafe_code)]

pub mod batch;
pub mod cluster;
pub mod cost;
pub mod distance;
pub mod equivalence;
pub mod incremental;
pub mod options;
pub mod pricing;
pub mod resident;
pub mod shard;
pub mod subset;

pub use batch::{batch_repair, batch_repair_with_parts, BatchOutcome, BatchSeed, BatchStats};
pub use incremental::{inc_repair, IncConfig, IncOutcome, IncStats, Ordering};
pub use options::{Algorithm, RepairOptions};
#[doc(hidden)]
pub use options::{BatchConfig, Parallelism, PickStrategy};
pub use resident::{DeltaRepair, InsertFootprint, InsertRepairer, StreamRepairer};
pub use subset::{consistent_subset, repair_via_incremental};

/// Errors surfaced by the repair algorithms.
#[derive(Debug)]
pub enum RepairError {
    /// An internal invariant failed (e.g. the termination progress measure
    /// stalled). Indicates a bug, never bad user data.
    Internal(String),
    /// The underlying relational operation failed.
    Model(cfd_model::ModelError),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Internal(m) => write!(f, "internal repair invariant violated: {m}"),
            RepairError::Model(e) => write!(f, "model error during repair: {e}"),
        }
    }
}

impl std::error::Error for RepairError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepairError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cfd_model::ModelError> for RepairError {
    fn from(e: cfd_model::ModelError) -> Self {
        RepairError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_cfd::{Cfd, Engine, Sigma};
    use cfd_model::{AttrId, ModelError, Relation, Schema, Tuple, ValuePool};

    /// A clean `(k, v)` relation in its own pool.
    fn kv() -> Relation {
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let mut rel = Relation::new_in(schema, ValuePool::new_handle());
        for row in [["k0", "a"], ["k1", "b"]] {
            rel.insert(Tuple::new_in(row, rel.pool())).unwrap();
        }
        rel
    }

    /// Every repair entry point that returns a `Result` refuses a Σ
    /// normalized into another pool than its relation's.
    #[test]
    fn repairs_refuse_a_sigma_of_another_pool() {
        let (rel, other) = (kv(), kv());
        let fd = Cfd::standard_fd("kv", vec![AttrId(0)], vec![AttrId(1)]);
        let sigma = Sigma::normalize_in(rel.schema().clone(), vec![fd], other.pool()).unwrap();
        let refused = |r: Result<(), RepairError>, what: &str| {
            assert!(
                matches!(r, Err(RepairError::Model(ModelError::PoolMismatch))),
                "{what}: {r:?}"
            );
        };
        let parts = Engine::build(&other, &sigma).to_parts();
        let delta = [Tuple::new_in(["k2", "c"], rel.pool())];
        let config = IncConfig::default();
        refused(batch_repair(&rel, &sigma).map(drop), "batch_repair");
        refused(
            batch_repair_with_parts(&rel, &sigma, parts.clone(), BatchConfig).map(drop),
            "batch_repair_with_parts",
        );
        refused(
            inc_repair(&rel, &delta, &sigma, config.clone()).map(drop),
            "inc_repair",
        );
        refused(
            InsertRepairer::new(&rel)
                .repair(&rel, &delta, &sigma, &parts, config.clone())
                .map(drop),
            "InsertRepairer::repair",
        );
        refused(
            StreamRepairer::new(rel.clone(), &sigma, config.clone()).map(drop),
            "StreamRepairer::new",
        );
        refused(
            repair_via_incremental(&rel, &sigma, config).map(drop),
            "repair_via_incremental",
        );
        assert!(batch_repair(&other, &sigma).is_ok());
    }
}
