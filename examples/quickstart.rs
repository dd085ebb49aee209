//! Quickstart: detect and repair CFD violations on the paper's Fig. 1
//! running example, then on a generated workload.
//!
//! Run with `cargo run --release --example quickstart`.

use cfdclean::cfd::violation::detect;
use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig, RunSummary};
use cfdclean::repair::{batch_repair, repair_via_incremental, IncConfig};
use std::time::Instant;

fn main() {
    // A generated order workload: 2,000 tuples, 5% noise.
    let workload = generate(&GenConfig::sized(2_000, 42));
    let noise = inject(
        &workload.dopt,
        &workload.world,
        &NoiseConfig {
            rate: 0.05,
            ..Default::default()
        },
    );
    let sigma = workload.sigma_for(&noise.dirty);
    let report = detect(&noise.dirty, &sigma);
    println!(
        "dirty database: {} tuples, {} with violations, vio(D) = {}",
        noise.dirty.len(),
        report.dirty_tuples().len(),
        report.total
    );

    // BATCHREPAIR
    let t0 = Instant::now();
    let batch = batch_repair(&noise.dirty, &sigma).expect("batch repair succeeds");
    let batch_summary =
        RunSummary::evaluate(&noise.dirty, &batch.repair, &workload.dopt, t0.elapsed());
    println!("BATCHREPAIR  {batch_summary}");
    println!(
        "  steps {}  merges {}  consts {}  nulls {}  cost {:.2}",
        batch.stats.steps,
        batch.stats.merges,
        batch.stats.consts_set,
        batch.stats.nulls_set,
        batch.stats.cost
    );

    // INCREPAIR in the non-incremental setting (§5.3)
    let t0 = Instant::now();
    let inc = repair_via_incremental(&noise.dirty, &sigma, IncConfig::default())
        .expect("incremental repair succeeds");
    let inc_summary = RunSummary::evaluate(&noise.dirty, &inc.repair, &workload.dopt, t0.elapsed());
    println!("V-INCREPAIR  {inc_summary}");
    println!(
        "  reinserted {}  nulls {}  cost {:.2}",
        inc.reinserted.len(),
        inc.stats.nulls_introduced,
        inc.stats.cost
    );
}
