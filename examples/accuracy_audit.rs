//! The full interactive loop of Fig. 3: repair → sample → user feedback →
//! re-repair, iterating until the z-test certifies the target accuracy.
//!
//! The "user" is a ground-truth oracle; its corrections are folded back
//! into the database exactly as §6 prescribes, and the repairing module
//! runs again on the corrected state.
//!
//! Run with `cargo run --release --example accuracy_audit`.

use cfd_prng::ChaCha8Rng;
use cfd_prng::SeedableRng;
use cfdclean::cfd::violation::detect;
use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig};
use cfdclean::model::diff::inaccuracy_ratio;
use cfdclean::repair::{repair_via_incremental, IncConfig};
use cfdclean::sampling::{certify, min_sample_for_acceptance, GroundTruthOracle, SamplingConfig};

fn main() {
    let epsilon = 0.002; // demanding bound on cell-level inaccuracy
    let delta = 0.90;

    let w = generate(&GenConfig::sized(4_000, 33));
    // Heavier, nastier noise than the defaults: typos only, which are the
    // hardest to repair exactly.
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.08,
            typo_prob: 0.9,
            ..Default::default()
        },
    );
    let sigma = w.sigma_for(&noise.dirty);
    let mut db = noise.dirty.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(5);

    for round in 1.. {
        // Repair the current state.
        let out =
            repair_via_incremental(&db, &sigma, IncConfig::default()).expect("repair succeeds");
        let repair = out.repair;
        let true_ratio = inaccuracy_ratio(&repair, &w.dopt);
        // Certify on a sample, stratified by current violation counts.
        let report = detect(&db, &sigma);
        let mut oracle = GroundTruthOracle::new(&w.dopt);
        // size the sample so the test has power at this ε (plus headroom)
        let k = (min_sample_for_acceptance(epsilon, delta) * 2).min(repair.len());
        let config = SamplingConfig::new(epsilon, delta, k);
        let outcome = certify(&repair, |id| report.vio(id), &config, &mut oracle, &mut rng)
            .expect("sampling succeeds");
        println!(
            "round {round}: true inaccuracy {:.4}%, sample p̂ {:.4}%, {} corrections — {}",
            true_ratio * 100.0,
            outcome.p_hat * 100.0,
            outcome.corrections.len(),
            if outcome.accepted {
                "ACCEPTED"
            } else {
                "rejected"
            }
        );
        if outcome.accepted {
            println!("repair certified at ε = {epsilon}, δ = {delta} after {round} round(s)");
            break;
        }
        if round >= 10 {
            println!("stopping after 10 rounds (sample too small for ε this tight)");
            break;
        }
        // Fold the expert's corrections back in and go again.
        let mut corrected = repair;
        for (id, fixed) in outcome.corrections {
            let attrs: Vec<_> = corrected.schema().attr_ids().collect();
            for (a, v) in attrs.into_iter().zip(fixed) {
                corrected.set_value(id, a, v).expect("live tuple");
            }
        }
        db = corrected;
    }
}
