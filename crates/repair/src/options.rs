//! One knob surface for both repair algorithms: [`RepairOptions`].
//!
//! Callers that expose both algorithms behind one switch (the CLI
//! `repair` command, the `cfd-server` daemon) map user-facing flags onto
//! the *shared* determinism axes — algorithm and `k` — once, here, and
//! lower them to the `INCREPAIR` config via [`RepairOptions::inc_config`].
//! `BATCHREPAIR` has no setting: it runs the paper's cost-ordered
//! `PICKNEXT` with group-majority merge pricing. Both algorithms are
//! serial, so no setting takes a thread count, and each runs one distance
//! kernel, so no setting picks one.
//!
//! [`IncConfig`] stays public — construct it directly only when poking
//! fields `RepairOptions` deliberately does not surface (`max_combos`,
//! …).

use crate::incremental::{IncConfig, Ordering};

/// The repair thread count, always 1: `perfbench` still records it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Parallelism;

impl Parallelism {
    /// Always 1.
    pub fn get(&self) -> usize {
        1
    }
}

/// The `BATCHREPAIR` config, which has no field: `perfbench` still passes
/// one ([`RepairOptions::batch_config`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig;

/// The one `PICKNEXT`, the cost-ordered one: `perfbench` still names it
/// ([`RepairOptions::pick`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub enum PickStrategy {
    /// Always resolve the globally cheapest (CFD, dirty tuple) pair next.
    GlobalBest,
}

/// Which repair algorithm to run — the paper's two flavors, with the
/// incremental one carrying its §5.2 tuple-processing order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// `BATCHREPAIR` (§4): equivalence-class whole-database repair.
    Batch,
    /// `INCREPAIR` (§5) over a consistent subset
    /// ([`crate::repair_via_incremental`]), with the given ordering.
    Incremental(Ordering),
}

impl Algorithm {
    /// The CLI spelling: `batch`, `v-inc`, `w-inc`, or `l-inc`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Algorithm::Batch => "batch",
            Algorithm::Incremental(Ordering::Violations) => "v-inc",
            Algorithm::Incremental(Ordering::Weight) => "w-inc",
            Algorithm::Incremental(Ordering::Linear) => "l-inc",
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "batch" => Ok(Algorithm::Batch),
            "v-inc" => Ok(Algorithm::Incremental(Ordering::Violations)),
            "w-inc" => Ok(Algorithm::Incremental(Ordering::Weight)),
            "l-inc" => Ok(Algorithm::Incremental(Ordering::Linear)),
            other => Err(format!(
                "unknown algorithm {other:?} (expected batch, v-inc, w-inc, or l-inc)"
            )),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Builder over the shared repair knobs, lowering to [`IncConfig`]. Two
/// `RepairOptions` that compare equal produce byte-identical repairs on
/// the same dataset — that is the determinism contract the differential
/// suites pin.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairOptions {
    algorithm: Algorithm,
    k: usize,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            algorithm: Algorithm::Batch,
            k: 1,
        }
    }
}

impl RepairOptions {
    /// Batch algorithm, `k = 1`.
    pub fn new() -> Self {
        RepairOptions::default()
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// No-op: there is one `PICKNEXT`. `perfbench` still calls it.
    #[doc(hidden)]
    pub fn pick(self, _: PickStrategy) -> Self {
        self
    }

    /// `TUPLERESOLVE` attribute-set size for the incremental algorithm.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k.max(1);
        self
    }

    /// The selected algorithm.
    pub fn algorithm_choice(&self) -> Algorithm {
        self.algorithm
    }

    /// The selected `k`.
    pub fn k_choice(&self) -> usize {
        self.k
    }

    /// Always [`Parallelism`]'s single thread: `perfbench` still records
    /// it.
    #[doc(hidden)]
    pub fn parallelism(&self) -> Parallelism {
        Parallelism
    }

    /// Speculation depth of the resolution loop: always `0`. The loop is
    /// the paper's serial greedy BATCHREPAIR; this constant is kept for
    /// callers that record it in run metadata.
    pub fn speculation(&self) -> usize {
        0
    }

    /// The field-less [`BatchConfig`]: `perfbench` still passes it to
    /// [`batch_repair_with_parts`](crate::batch_repair_with_parts).
    #[doc(hidden)]
    pub fn batch_config(&self) -> BatchConfig {
        BatchConfig
    }

    /// Lower to the `INCREPAIR` config. For [`Algorithm::Batch`] the
    /// ordering falls back to the `IncConfig` default (violations-first).
    pub fn inc_config(&self) -> IncConfig {
        let ordering = match self.algorithm {
            Algorithm::Incremental(o) => o,
            Algorithm::Batch => IncConfig::default().ordering,
        };
        IncConfig {
            k: self.k,
            ordering,
            ..IncConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_round_trips_through_strings() {
        for name in ["batch", "v-inc", "w-inc", "l-inc"] {
            let a: Algorithm = name.parse().unwrap();
            assert_eq!(a.as_str(), name);
        }
        assert!("bogus".parse::<Algorithm>().is_err());
    }

    #[test]
    fn overrides_lower_into_the_inc_config() {
        let opts = RepairOptions::new()
            .algorithm(Algorithm::Incremental(Ordering::Weight))
            .k(3);
        let i = opts.inc_config();
        assert_eq!(i.k, 3);
        assert_eq!(i.ordering, Ordering::Weight);
    }

    #[test]
    fn defaults_and_clamps() {
        let opts = RepairOptions::new();
        assert_eq!(opts.speculation(), 0);
        assert_eq!(opts.parallelism().get(), 1);
        assert_eq!(RepairOptions::new().k(0).k_choice(), 1);
    }
}
