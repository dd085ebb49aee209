//! End-to-end data-cleaning pipeline on the paper's `order` workload:
//! the full framework of Fig. 3 — repairing module, then the sampling
//! module certifying accuracy against (ε, δ), with the ground-truth
//! oracle standing in for the domain expert.
//!
//! Run with `cargo run --release --example order_cleaning`.

use cfd_prng::ChaCha8Rng;
use cfd_prng::SeedableRng;
use cfdclean::cfd::violation::detect;
use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig, RunSummary};
use cfdclean::model::TupleId;
use cfdclean::repair::{batch_repair, BatchConfig};
use cfdclean::sampling::{certify, chernoff_sample_size, GroundTruthOracle, SamplingConfig};
use std::time::Instant;

fn main() {
    let epsilon = 0.05; // tolerated inaccuracy rate
    let delta = 0.95; // confidence

    // 1. Generate the workload and corrupt it.
    let w = generate(&GenConfig::sized(5_000, 7));
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.04,
            ..Default::default()
        },
    );
    let sigma = w.sigma_for(&noise.dirty);
    println!(
        "order database: {} tuples, Σ = {} CFDs ({} normalized rules)",
        noise.dirty.len(),
        sigma.sources().len(),
        sigma.len()
    );

    // 2. Detect violations (the consistency diagnosis).
    let report = detect(&noise.dirty, &sigma);
    println!(
        "detected: {} tuples with violations, vio(D) = {}",
        report.dirty_tuples().len(),
        report.total
    );

    // 3. Repair (the repairing module).
    let t0 = Instant::now();
    let out = batch_repair(&noise.dirty, &sigma, BatchConfig::default()).expect("repair succeeds");
    let quality = RunSummary::evaluate(&noise.dirty, &out.repair, &w.dopt, t0.elapsed());
    println!("BATCHREPAIR: {quality}");

    // 4. Certify accuracy (the sampling module). The paper sizes samples
    //    with the Chernoff bound of Theorem 6.1.
    let k = chernoff_sample_size(5, epsilon, delta).min(out.repair.len());
    println!(
        "sampling {k} tuples (Chernoff bound for ≥5 expected errors at ε = {epsilon}, δ = {delta})"
    );
    let suspicion = |id: TupleId| report.vio(id);
    let mut oracle = GroundTruthOracle::new(&w.dopt);
    let config = SamplingConfig::new(epsilon, delta, k);
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let outcome =
        certify(&out.repair, suspicion, &config, &mut oracle, &mut rng).expect("sampling succeeds");
    println!(
        "certification: p̂ = {:.4}, inspected {} tuples, {} corrections — {}",
        outcome.p_hat,
        outcome.inspected,
        outcome.corrections.len(),
        if outcome.accepted {
            "ACCEPTED"
        } else {
            "REJECTED — feed corrections back and re-repair"
        }
    );
}
