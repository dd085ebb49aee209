//! Ablation benchmarks for the places this implementation chooses between
//! the paper's literal reading and a variant:
//!
//! 1. `PICKNEXT` strategy: cost-ordered global best vs dependency-ordered
//!    draining (§7.2's optimization) — time *and* accuracy.
//! 2. `TUPLERESOLVE` attribute-set size `k` ∈ {1, 2}.
//! 3. `INCREPAIR` tuple orderings (L / V / W).
//! 4. Candidate-pool width of the cost-based value index.
//! 5. Free/free merge pricing: group-majority vs the literal pairwise
//!    reading of §4.1 (the snowball ablation: pairwise merges drag one
//!    cell after another to a wrong value).
//!
//! Run with `cargo bench --bench repair_ablations [-- json [PATH]]`.

use cfd_bench::harness::{black_box, Harness};
use cfd_bench::workload;
use cfd_gen::{inject, NoiseConfig, RunSummary};
use cfd_repair::{
    batch_repair, repair_via_incremental, BatchConfig, IncConfig, MergePricing, Ordering,
    PickStrategy,
};

const N: usize = 1_500;

fn bench_pick_strategy(h: &mut Harness) {
    let w = workload(N, 3);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            ..Default::default()
        },
    );
    for (label, pick) in [
        ("global_best", PickStrategy::GlobalBest),
        ("dependency_ordered", PickStrategy::DependencyOrdered),
    ] {
        h.run(&format!("batch_pick_strategy/{label}"), || {
            batch_repair(
                black_box(&noise.dirty),
                &w.sigma,
                BatchConfig {
                    pick,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        // accuracy context printed once per strategy
        let out = batch_repair(
            &noise.dirty,
            &w.sigma,
            BatchConfig {
                pick,
                ..Default::default()
            },
        )
        .unwrap();
        let q = RunSummary::evaluate(
            &noise.dirty,
            &out.repair,
            &w.dopt,
            std::time::Duration::ZERO,
        );
        eprintln!(
            "[{label}] precision {:.1}% recall {:.1}%",
            q.precision * 100.0,
            q.recall * 100.0
        );
    }
}

fn bench_tupleresolve_k(h: &mut Harness) {
    let w = workload(N, 5);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            ..Default::default()
        },
    );
    for k in [1usize, 2] {
        h.run(&format!("incremental_k/{k}"), || {
            repair_via_incremental(
                black_box(&noise.dirty),
                &w.sigma,
                IncConfig {
                    k,
                    ..Default::default()
                },
            )
            .unwrap()
        });
    }
}

fn bench_orderings(h: &mut Harness) {
    let w = workload(N, 7);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            ..Default::default()
        },
    );
    for (label, ordering) in [
        ("linear", Ordering::Linear),
        ("violations", Ordering::Violations),
        ("weight", Ordering::Weight),
    ] {
        h.run(&format!("incremental_ordering/{label}"), || {
            repair_via_incremental(
                black_box(&noise.dirty),
                &w.sigma,
                IncConfig {
                    ordering,
                    ..Default::default()
                },
            )
            .unwrap()
        });
    }
}

fn bench_candidate_width(h: &mut Harness) {
    let w = workload(N, 9);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            ..Default::default()
        },
    );
    for width in [2usize, 6, 16] {
        h.run(&format!("incremental_candidates_per_attr/{width}"), || {
            repair_via_incremental(
                black_box(&noise.dirty),
                &w.sigma,
                IncConfig {
                    candidates_per_attr: width,
                    ..Default::default()
                },
            )
            .unwrap()
        });
    }
}

fn bench_merge_pricing(h: &mut Harness) {
    // Seed 1 exhibits the bridge corruption that snowballs under pairwise
    // pricing; both accuracy and time are reported.
    let w = workload(N, 1);
    let noise = inject(
        &w.dopt,
        &w.world,
        &NoiseConfig {
            rate: 0.05,
            seed: 1,
            ..Default::default()
        },
    );
    for (label, pricing) in [
        ("group_majority", MergePricing::GroupMajority),
        ("pairwise", MergePricing::Pairwise),
    ] {
        h.run(&format!("batch_merge_pricing/{label}"), || {
            batch_repair(
                black_box(&noise.dirty),
                &w.sigma,
                BatchConfig {
                    merge_pricing: pricing,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        let out = batch_repair(
            &noise.dirty,
            &w.sigma,
            BatchConfig {
                merge_pricing: pricing,
                ..Default::default()
            },
        )
        .unwrap();
        let q = RunSummary::evaluate(
            &noise.dirty,
            &out.repair,
            &w.dopt,
            std::time::Duration::ZERO,
        );
        eprintln!(
            "[{label}] precision {:.1}% recall {:.1}%",
            q.precision * 100.0,
            q.recall * 100.0
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args.iter().position(|a| a == "json").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_repair_ablations.json".to_string())
    });

    // Whole-repair runs: coarse methodology (single-iteration batches).
    let mut h = Harness::coarse();
    bench_pick_strategy(&mut h);
    bench_tupleresolve_k(&mut h);
    bench_orderings(&mut h);
    bench_candidate_width(&mut h);
    bench_merge_pricing(&mut h);

    println!("\n{}", h.table());
    if let Some(path) = json_path {
        h.write_json(&path).expect("write bench json");
        println!("wrote {path}");
    }
}
