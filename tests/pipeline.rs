//! Cross-crate pipeline tests: generator → noise → repair → evaluation →
//! statistical certification, at small scale so they run in the default
//! test budget.

use cfd_prng::ChaCha8Rng;
use cfd_prng::SeedableRng;
use cfdclean::cfd::violation::{check, detect};
use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig, RunSummary, WorldConfig};
use cfdclean::model::diff::dif;
use cfdclean::model::TupleId;
use cfdclean::repair::{
    batch_repair, consistent_subset, repair_via_incremental, BatchConfig, IncConfig, Ordering,
    PickStrategy,
};
use cfdclean::sampling::{certify, GroundTruthOracle, SamplingConfig};
use std::time::Duration;

fn small_workload(seed: u64) -> cfdclean::gen::Workload {
    generate(&GenConfig {
        n_tuples: 800,
        seed,
        world: WorldConfig {
            n_customers: 250,
            n_items: 150,
            ..Default::default()
        },
    })
}

#[test]
fn batch_repair_is_consistent_and_accurate() {
    let w = small_workload(5);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            ..Default::default()
        },
    );
    let sigma = w.sigma_for(&noise.dirty);
    let out = batch_repair(&noise.dirty, &sigma, BatchConfig::default()).unwrap();
    assert!(check(&out.repair, &sigma));
    let q = RunSummary::evaluate(&noise.dirty, &out.repair, &w.dopt, Duration::ZERO);
    assert!(q.precision > 0.7, "precision {:.2}", q.precision);
    assert!(q.recall > 0.8, "recall {:.2}", q.recall);
}

#[test]
fn incremental_repair_is_consistent_and_accurate() {
    let w = small_workload(6);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            ..Default::default()
        },
    );
    let sigma = w.sigma_for(&noise.dirty);
    for ordering in [Ordering::Violations, Ordering::Weight, Ordering::Linear] {
        let out = repair_via_incremental(
            &noise.dirty,
            &sigma,
            IncConfig {
                ordering,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(check(&out.repair, &sigma), "{ordering:?}");
        let q = RunSummary::evaluate(&noise.dirty, &out.repair, &w.dopt, Duration::ZERO);
        assert!(q.recall > 0.5, "{ordering:?} recall {:.2}", q.recall);
    }
}

#[test]
fn violation_ordering_beats_linear_scan() {
    // §5.2 / Fig. 9–10: V-INCREPAIR consistently outperforms L-INCREPAIR.
    // Averaged over seeds to keep the comparison stable.
    let mut v_score = 0.0;
    let mut l_score = 0.0;
    for seed in [11, 22, 33] {
        let w = small_workload(seed);
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.08,
                seed,
                ..Default::default()
            },
        );
        let sigma = w.sigma_for(&noise.dirty);
        let v = repair_via_incremental(
            &noise.dirty,
            &sigma,
            IncConfig {
                ordering: Ordering::Violations,
                ..Default::default()
            },
        )
        .unwrap();
        let l = repair_via_incremental(
            &noise.dirty,
            &sigma,
            IncConfig {
                ordering: Ordering::Linear,
                ..Default::default()
            },
        )
        .unwrap();
        v_score += RunSummary::evaluate(&noise.dirty, &v.repair, &w.dopt, Duration::ZERO).f1();
        l_score += RunSummary::evaluate(&noise.dirty, &l.repair, &w.dopt, Duration::ZERO).f1();
    }
    assert!(
        v_score > l_score,
        "V-IncRepair (f1 sum {v_score:.3}) should beat L-IncRepair ({l_score:.3})"
    );
}

#[test]
fn cfds_repair_more_accurately_than_embedded_fds() {
    // Fig. 8: even where the embedded FDs *detect* a conflict (a partner
    // exists), they cannot tell which side holds the right value — only
    // the pattern constants pin it. Repair accuracy under the full Σ must
    // beat the FD-only Σ. Greedy tie-breaks can hand a single seed to
    // either side, so the repair comparison aggregates over seeds (like
    // the V- vs L-IncRepair test); the detection claims are per-seed.
    let mut cfd_f1_sum = 0.0;
    let mut fd_f1_sum = 0.0;
    for seed in [7, 13, 21] {
        let w = small_workload(seed);
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.05,
                seed,
                ..Default::default()
            },
        );
        let sigma = w.sigma_for(&noise.dirty);
        let fd_sigma = sigma.embedded_fds_in(noise.dirty.pool()).unwrap();
        let cfd_report = detect(&noise.dirty, &sigma);
        let cfd_caught = noise
            .corrupted
            .iter()
            .filter(|(id, _)| cfd_report.vio(*id) > 0)
            .count();
        assert_eq!(
            cfd_caught,
            noise.corrupted.len(),
            "CFDs catch every injected error"
        );
        // The embedded FDs can never catch *more* than the CFDs (they see
        // a strict subset of the violations: pattern-constant violations
        // are invisible without the tableau constants; whether they catch
        // fewer on a given seed depends on every corrupted cell having a
        // partner).
        let fd_report = detect(&noise.dirty, &fd_sigma);
        let fd_caught = noise
            .corrupted
            .iter()
            .filter(|(id, _)| fd_report.vio(*id) > 0)
            .count();
        assert!(
            fd_caught <= cfd_caught,
            "embedded FDs cannot catch more errors than the CFDs ({fd_caught} vs {cfd_caught})"
        );
        let cfd_out = batch_repair(&noise.dirty, &sigma, BatchConfig::default()).unwrap();
        let fd_out = batch_repair(&noise.dirty, &fd_sigma, BatchConfig::default()).unwrap();
        cfd_f1_sum +=
            RunSummary::evaluate(&noise.dirty, &cfd_out.repair, &w.dopt, Duration::ZERO).f1();
        fd_f1_sum +=
            RunSummary::evaluate(&noise.dirty, &fd_out.repair, &w.dopt, Duration::ZERO).f1();
    }
    assert!(
        cfd_f1_sum >= fd_f1_sum,
        "CFD repair f1 sum {cfd_f1_sum:.3} must be at least FD repair f1 sum {fd_f1_sum:.3}"
    );
}

#[test]
fn consistent_subset_matches_detection() {
    let w = small_workload(8);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            ..Default::default()
        },
    );
    let sigma = w.sigma_for(&noise.dirty);
    let (clean, dirty) = consistent_subset(&noise.dirty, &sigma);
    let report = detect(&noise.dirty, &sigma);
    assert_eq!(dirty.len(), report.dirty_tuples().len());
    assert_eq!(clean.len() + dirty.len(), noise.dirty.len());
    // every corrupted tuple is excluded from the clean subset
    for (id, _) in &noise.corrupted {
        assert!(dirty.contains(id));
    }
}

#[test]
fn pick_strategies_both_terminate_and_satisfy() {
    let w = small_workload(9);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.06,
            ..Default::default()
        },
    );
    let sigma = w.sigma_for(&noise.dirty);
    for pick in [PickStrategy::GlobalBest, PickStrategy::DependencyOrdered] {
        let out = batch_repair(
            &noise.dirty,
            &sigma,
            BatchConfig {
                pick,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(check(&out.repair, &sigma), "{pick:?}");
    }
}

#[test]
fn certification_accepts_good_repairs_and_rejects_the_dirty_input() {
    let w = small_workload(10);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            ..Default::default()
        },
    );
    let sigma = w.sigma_for(&noise.dirty);
    let report = detect(&noise.dirty, &sigma);
    let out = batch_repair(&noise.dirty, &sigma, BatchConfig::default()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let config = SamplingConfig::new(0.05, 0.95, 250);
    // the repair passes
    let mut oracle = GroundTruthOracle::new(&w.dopt);
    let good = certify(
        &out.repair,
        |id| report.vio(id),
        &config,
        &mut oracle,
        &mut rng,
    )
    .unwrap();
    assert!(good.accepted, "p̂ = {:.4}", good.p_hat);
    // the raw dirty input fails the same test at tuple level… only if
    // enough corrupted tuples land in the sample; with stratification by
    // vio they all do.
    let mut oracle = GroundTruthOracle::new(&w.dopt);
    let bad = certify(
        &noise.dirty,
        |id| report.vio(id),
        &config,
        &mut oracle,
        &mut rng,
    )
    .unwrap();
    assert!(bad.p_hat > good.p_hat);
}

#[test]
fn weights_off_mode_still_works() {
    // §3.2 remark (1): without weight information the algorithms fall back
    // to violation counts; they must still produce consistent repairs.
    let w = small_workload(11);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            assign_weights: false,
            ..Default::default()
        },
    );
    let sigma = w.sigma_for(&noise.dirty);
    let out = batch_repair(&noise.dirty, &sigma, BatchConfig::default()).unwrap();
    assert!(check(&out.repair, &sigma));
    let q = RunSummary::evaluate(&noise.dirty, &out.repair, &w.dopt, Duration::ZERO);
    assert!(q.recall > 0.6, "recall without weights {:.2}", q.recall);
}

#[test]
fn repair_changes_are_bounded_by_dif_accounting() {
    // sanity of the §7.1 bookkeeping: noises = dif(D, Dopt); the repair's
    // changes and residual satisfy the triangle-style inequality
    // residual ≤ noises + changes.
    let w = small_workload(12);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            ..Default::default()
        },
    );
    let sigma = w.sigma_for(&noise.dirty);
    let out = batch_repair(&noise.dirty, &sigma, BatchConfig::default()).unwrap();
    let noises = dif(&noise.dirty, &w.dopt);
    let changes = dif(&noise.dirty, &out.repair);
    let residual = dif(&w.dopt, &out.repair);
    assert!(residual <= noises + changes);
    assert_eq!(noises, noise.corrupted.len());
    let _ = TupleId(0);
}
