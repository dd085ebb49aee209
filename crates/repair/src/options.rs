//! One knob surface for both repair algorithms: [`RepairOptions`].
//!
//! Callers that expose both algorithms behind one switch (the CLI
//! `repair` command, the `cfd-server` daemon) map user-facing flags onto
//! the *shared* determinism axes — algorithm, picker, `k`, threads,
//! distance-kernel override — once, here, and lower them to either
//! algorithm's config via [`RepairOptions::batch_config`] /
//! [`RepairOptions::inc_config`]. An unset thread count defers to
//! `CFD_THREADS`, and the environment is parsed **here and only here**
//! (`env_threads`). (`CFD_SIMD` is process-wide kernel selection and
//! stays with [`cfd_model::simd_enabled`]; `simd(bool)` here is the
//! per-call override threaded into the configs.)
//!
//! [`BatchConfig`] and [`IncConfig`] stay public — construct them
//! directly only when poking fields `RepairOptions` deliberately does
//! not surface (`findv_candidates`, `vio_penalty`, …).

use crate::batch::{BatchConfig, PickStrategy};
use crate::incremental::{IncConfig, Ordering};
use crate::shard::{Parallelism, MAX_THREADS};

/// Resolved `CFD_THREADS`: the variable when set (clamped to `1..=64`),
/// else 1. Parsed once per process — the sole reader of the variable.
pub(crate) fn env_threads() -> usize {
    static RESOLVED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *RESOLVED.get_or_init(|| {
        std::env::var("CFD_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .map_or(1, |n| n.clamp(1, MAX_THREADS))
    })
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

/// Builder over the shared repair knobs, lowering to [`BatchConfig`] or
/// [`IncConfig`]. An unset thread count resolves from the environment
/// exactly once per process; two `RepairOptions` that compare equal
/// produce byte-identical repairs on the same dataset, whatever the
/// thread setting — that is the determinism contract the differential
/// suites pin.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairOptions {
    algorithm: Algorithm,
    pick: PickStrategy,
    k: usize,
    threads: Option<usize>,
    simd: Option<bool>,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            algorithm: Algorithm::Batch,
            pick: PickStrategy::GlobalBest,
            k: 1,
            threads: None,
            simd: None,
        }
    }
}

impl RepairOptions {
    /// Batch algorithm, global-best picker, `k = 1`, everything else
    /// deferred to the environment.
    pub fn new() -> Self {
        RepairOptions::default()
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// `PICKNEXT` variant for the batch algorithm.
    pub fn pick(mut self, p: PickStrategy) -> Self {
        self.pick = p;
        self
    }

    /// `TUPLERESOLVE` attribute-set size for the incremental algorithm.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k.max(1);
        self
    }

    /// Explicit worker-thread count (clamped to `1..=64`), overriding
    /// `CFD_THREADS`. Repairs are byte-identical at every count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.clamp(1, MAX_THREADS));
        self
    }

    /// Distance-kernel override: `true` forces the bit-parallel kernel,
    /// `false` the scalar reference. Unset follows the process-wide
    /// [`cfd_model::simd_enabled`] switch. Byte-identical either way.
    pub fn simd(mut self, on: bool) -> Self {
        self.simd = Some(on);
        self
    }

    /// The selected algorithm.
    pub fn algorithm_choice(&self) -> Algorithm {
        self.algorithm
    }

    /// The selected picker.
    pub fn pick_choice(&self) -> PickStrategy {
        self.pick
    }

    /// The selected `k`.
    pub fn k_choice(&self) -> usize {
        self.k
    }

    /// The explicit thread override, if any.
    pub fn threads_override(&self) -> Option<usize> {
        self.threads
    }

    /// The explicit kernel override, if any.
    pub fn simd_override(&self) -> Option<bool> {
        self.simd
    }

    /// The effective thread count: the override, or `CFD_THREADS`.
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::threads(self.threads.unwrap_or_else(env_threads))
    }

    /// Speculation depth of the resolution loop: always `0`. The loop is
    /// the paper's serial greedy BATCHREPAIR; this constant is kept for
    /// callers that record it in run metadata.
    pub fn speculation(&self) -> usize {
        0
    }

    /// Lower to the `BATCHREPAIR` config.
    pub fn batch_config(&self) -> BatchConfig {
        BatchConfig {
            pick: self.pick,
            parallelism: self.parallelism(),
            simd: self.simd,
            ..BatchConfig::default()
        }
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
            parallelism: self.parallelism(),
            simd: self.simd,
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
    fn overrides_lower_into_both_configs() {
        let opts = RepairOptions::new()
            .algorithm(Algorithm::Incremental(Ordering::Weight))
            .k(3)
            .threads(2)
            .simd(false);
        let b = opts.batch_config();
        assert_eq!(b.parallelism.get(), 2);
        assert_eq!(b.simd, Some(false));
        let i = opts.inc_config();
        assert_eq!(i.k, 3);
        assert_eq!(i.ordering, Ordering::Weight);
        assert_eq!(i.parallelism.get(), 2);
        assert_eq!(i.simd, Some(false));
    }

    #[test]
    fn unset_threads_follow_the_environment() {
        let opts = RepairOptions::new();
        assert_eq!(opts.parallelism(), Parallelism::default());
        assert_eq!(opts.parallelism().get(), env_threads());
        assert_eq!(
            opts.batch_config().parallelism,
            BatchConfig::default().parallelism
        );
        assert_eq!(opts.speculation(), 0);
    }

    #[test]
    fn clamps_match_the_legacy_structs() {
        assert_eq!(
            RepairOptions::new().threads(10_000).parallelism(),
            Parallelism::threads(10_000)
        );
        assert_eq!(RepairOptions::new().k(0).k_choice(), 1);
    }
}
