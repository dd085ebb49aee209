//! # cfd-repair — repairing relational data with CFDs
//!
//! The core contribution of Cong, Fan, Geerts, Jia & Ma, *Improving Data
//! Quality: Consistency and Accuracy* (VLDB 2007): given a dirty relation
//! `D` and a satisfiable set Σ of conditional functional dependencies, find
//! a repair `Repr |= Σ` of small cost. Both flavors are provided:
//!
//! * [`batch::batch_repair`] — `BATCHREPAIR` (§4), equivalence-class based
//!   whole-database repair, with the faithful global-best `PICKNEXT` and
//!   the dependency-graph-optimized variant the paper benchmarks;
//! * [`incremental::inc_repair`] — `INCREPAIR` (§5), repairing a batch of
//!   inserted tuples one at a time via `TUPLERESOLVE`, with the three
//!   orderings L-/V-/W- of §5.2, LHS-indices and the cost-based
//!   candidate-value index;
//! * [`subset`] — the §5.3 bridge that lets `INCREPAIR` clean a whole dirty
//!   database by first extracting a consistent subset.
//!
//! Supporting machinery: the Damerau–Levenshtein [`distance`] kernel, the
//! §3.2 [`cost`] model, [`equivalence`] classes with monotone targets,
//! [`lhs_index`] for O(1) constraint validation against a clean repair,
//! [`cluster`] for nearest-value enumeration, the CFD [`depgraph`], and
//! the per-shape group census in [`shard`].
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

pub mod batch;
pub mod cluster;
pub mod cost;
pub mod depgraph;
pub mod distance;
pub mod equivalence;
pub mod incremental;
pub mod lhs_index;
pub mod options;
pub mod pricing;
pub mod resident;
pub mod shard;
pub mod subset;

pub use batch::{
    batch_repair, batch_repair_with_parts, BatchConfig, BatchOutcome, BatchSeed, BatchStats,
    MergePricing, PickStrategy,
};
pub use incremental::{inc_repair, IncConfig, IncOutcome, IncStats, Ordering};
#[doc(hidden)]
pub use options::Parallelism;
pub use options::{Algorithm, RepairOptions};
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
