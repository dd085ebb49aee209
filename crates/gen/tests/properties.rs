//! Randomized property tests for the workload substrate: the generator
//! always produces a Σ-consistent `Dopt`, the noise injector corrupts
//! exactly what it reports and stamps the §7.1 weight bands, and every
//! injected corruption is detectable. Seeded trials via `cfd_prng`.

use cfd_prng::{trials, ChaCha8Rng, Rng};

use std::sync::Arc;

use cfd_cfd::violation::{check, detect};
use cfd_gen::{generate, inject, GenConfig, NoiseConfig, RunSummary};
use cfd_model::{Relation, ValueId};

fn size_and_seed(rng: &mut ChaCha8Rng, lo: usize, hi: usize) -> (usize, u64) {
    (rng.gen_range(lo..hi), rng.gen_range(0..1000u64))
}

/// The generator's output is consistent with its own Σ for any seed and
/// size — the precondition of every experiment in §7.
#[test]
fn generated_dopt_satisfies_sigma() {
    // Workload generation is comparatively expensive: fewer cases.
    trials(12, 0x6E4, |rng| {
        let (n, seed) = size_and_seed(rng, 50, 400);
        let w = generate(&GenConfig::sized(n, seed));
        assert_eq!(w.dopt.len(), n);
        assert!(
            check(&w.dopt, &w.sigma),
            "Dopt must satisfy sigma (seed {seed})"
        );
    });
}

/// The injector corrupts the advertised number of tuples, each listed
/// corruption really differs from `Dopt`, and each corrupted tuple
/// violates at least one CFD (the workload never hides errors).
#[test]
fn injected_noise_is_exactly_as_reported() {
    trials(12, 0x101CE, |rng| {
        let (n, seed) = size_and_seed(rng, 100, 400);
        let rate = rng.gen_range(1..10u32) as f64 / 100.0;
        let w = generate(&GenConfig::sized(n, seed));
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate,
                seed,
                ..Default::default()
            },
        );
        let expected = ((n as f64) * rate).round() as usize;
        assert_eq!(noise.corrupted.len(), expected);
        let report = detect(&noise.dirty, &w.sigma_for(&noise.dirty));
        for (id, attr) in &noise.corrupted {
            let dirty = noise.dirty.tuple(*id).expect("corrupted tuple is live");
            let clean = w.dopt.tuple(*id).expect("dopt tuple exists");
            assert_ne!(
                dirty.value(*attr),
                clean.value(*attr),
                "corruption of {id} attr {attr} must change the value"
            );
            assert!(
                report.vio(*id) > 0,
                "corrupted tuple {id} must violate sigma"
            );
        }
    });
}

/// Every pool a generated dataset holds counts exactly its own cells —
/// `Dopt`'s, and each dirty copy's at several noise rates — so `FINDV`'s
/// most-frequent-value tie-break reads a function of that dataset alone.
#[test]
fn generated_pools_count_their_own_cells() {
    fn assert_counts(rel: &Relation, what: &str) {
        let pool = rel.pool();
        let mut occurrences = vec![0u64; pool.len()];
        for (_, t) in rel.iter() {
            for a in rel.schema().attr_ids() {
                occurrences[t.id(a).index()] += 1;
            }
        }
        // Null (slot 0) is never counted.
        for (i, n) in occurrences.iter().enumerate().skip(1) {
            let id = ValueId(i as u32);
            assert_eq!(
                pool.use_count(id),
                *n,
                "{what}: {:?} occurs {n} times",
                pool.resolve(id)
            );
        }
    }
    let w = generate(&GenConfig::sized(600, 5));
    assert_counts(&w.dopt, "dopt");
    for rate in [0.01, 0.05, 0.1, 0.3] {
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate,
                seed: 5,
                ..Default::default()
            },
        );
        assert_counts(&noise.dirty, &format!("dirty at rho {rate}"));
        assert_counts(&w.dopt, &format!("dopt after rho {rate}"));
        assert!(!Arc::ptr_eq(noise.dirty.pool(), w.dopt.pool()));
    }
}

/// The §7.1 weight bands hold: corrupted cells get weights in `[0, a]`,
/// untouched cells in `[b, 1]`.
#[test]
fn weights_respect_the_bands() {
    trials(12, 0x8A2D5, |rng| {
        let (n, seed) = size_and_seed(rng, 100, 300);
        let cfg = NoiseConfig {
            rate: 0.05,
            seed,
            ..Default::default()
        };
        let w = generate(&GenConfig::sized(n, seed));
        let noise = inject(&w.dopt, &w.world, &cfg);
        let dirty_cells: std::collections::BTreeSet<(u32, u16)> =
            noise.corrupted.iter().map(|(id, a)| (id.0, a.0)).collect();
        for (id, t) in noise.dirty.iter() {
            for a in noise.dirty.schema().attr_ids() {
                let wt = t.weight(a);
                if dirty_cells.contains(&(id.0, a.0)) {
                    assert!(
                        wt <= cfg.weight_dirty_max + 1e-9,
                        "dirty cell ({id}, {a}) weight {wt} above a"
                    );
                } else {
                    assert!(
                        wt >= cfg.weight_clean_min - 1e-9,
                        "clean cell ({id}, {a}) weight {wt} below b"
                    );
                }
            }
        }
    });
}

/// Precision/recall bookkeeping: evaluating `Dopt` itself as the
/// "repair" scores perfect recall and precision; evaluating the dirty
/// input scores zero recall (nothing was repaired).
#[test]
fn run_summary_extremes() {
    trials(12, 0x5C04E, |rng| {
        let (n, seed) = size_and_seed(rng, 100, 300);
        let w = generate(&GenConfig::sized(n, seed));
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.05,
                seed,
                ..Default::default()
            },
        );
        let perfect =
            RunSummary::evaluate(&noise.dirty, &w.dopt, &w.dopt, std::time::Duration::ZERO);
        assert!((perfect.precision - 1.0).abs() < 1e-9);
        assert!((perfect.recall - 1.0).abs() < 1e-9);
        let lazy = RunSummary::evaluate(
            &noise.dirty,
            &noise.dirty,
            &w.dopt,
            std::time::Duration::ZERO,
        );
        assert_eq!(lazy.recall, 0.0);
    });
}
