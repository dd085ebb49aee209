//! Ablation benchmarks for the places this implementation chooses between
//! the paper's literal reading and a variant:
//!
//! 1. `TUPLERESOLVE` attribute-set size `k` ∈ {1, 2}.
//! 2. `INCREPAIR` tuple orderings (L / V / W).
//! 3. Candidate-pool width of the cost-based value index.
//!
//! `BATCHREPAIR` has no variant left to ablate: the committed
//! `BENCH_ablations.json` keeps the rows of the dependency-ordered picker
//! and pairwise merge pricing (`batch_pick_strategy/*`,
//! `batch_merge_pricing/*`, `batch_matrix/*`) that showed neither beat the
//! cost-ordered `PICKNEXT` with group-majority pricing.
//!
//! `meta/container_cpus` and `meta/commit/<id>` record where the numbers
//! come from (`-dirty` marks uncommitted changes in the checkout).
//!
//! Run with `cargo bench --bench repair_ablations [-- json [PATH]]`.

use cfd_bench::harness::{black_box, Harness};
use cfd_bench::workload;
use cfd_gen::{inject, NoiseConfig};
use cfd_repair::{repair_via_incremental, IncConfig, Ordering};

const N: usize = 1_500;

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
    let sigma = w.sigma_for(&noise.dirty);
    for k in [1usize, 2] {
        h.run(&format!("incremental_k/{k}"), || {
            repair_via_incremental(
                black_box(&noise.dirty),
                &sigma,
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
    let sigma = w.sigma_for(&noise.dirty);
    for (label, ordering) in [
        ("linear", Ordering::Linear),
        ("violations", Ordering::Violations),
        ("weight", Ordering::Weight),
    ] {
        h.run(&format!("incremental_ordering/{label}"), || {
            repair_via_incremental(
                black_box(&noise.dirty),
                &sigma,
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
    let sigma = w.sigma_for(&noise.dirty);
    for width in [2usize, 6, 16] {
        h.run(&format!("incremental_candidates_per_attr/{width}"), || {
            repair_via_incremental(
                black_box(&noise.dirty),
                &sigma,
                IncConfig {
                    candidates_per_attr: width,
                    ..Default::default()
                },
            )
            .unwrap()
        });
    }
}

/// Where the numbers come from: the CPU count and the checked-out commit.
fn record_metadata(h: &mut Harness) {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    h.record("meta/container_cpus", cpus as f64);
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty =
        git(&["status", "--porcelain", "--untracked-files=no"]).is_some_and(|s| !s.is_empty());
    let suffix = if dirty { "-dirty" } else { "" };
    h.record(&format!("meta/commit/{commit}{suffix}"), 1.0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args.iter().position(|a| a == "json").map(|i| {
        args.get(i + 1)
            // cargo appends its own flags (e.g. `--bench`) after the
            // user's; never mistake one for an output path.
            .filter(|p| !p.starts_with('-'))
            .cloned()
            .unwrap_or_else(|| "BENCH_repair_ablations.json".to_string())
    });

    // Whole-repair runs: coarse methodology (single-iteration batches).
    let mut h = Harness::coarse();
    record_metadata(&mut h);
    bench_tupleresolve_k(&mut h);
    bench_orderings(&mut h);
    bench_candidate_width(&mut h);

    println!("\n{}", h.table());
    if let Some(path) = json_path {
        h.write_json(&path).expect("write bench json");
        println!("wrote {path}");
    }
}
