//! Demonstrates why free/free merges are priced by *group majority*
//! rather than by the literal two-cell reading of §4.1.
//!
//! The workload seeds below contain "bridge" corruptions: a tuple whose
//! corrupted group key (street) parks it in a foreign group of the
//! variable CFD `[CT, STR] → zip`. Under the literal pairwise reading of
//! §4.1 the first merge between the bridge and the clean group is a coin
//! flip on two cell weights — and when the bridge wins, the grown class
//! beats each remaining group member one by one, snowballing the whole
//! group to the corrupted binding. Group-majority pricing asks the whole
//! group instead.
//!
//! Run with `cargo run --release --example merge_pricing_ablation`.

use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig, RunSummary};
use cfdclean::repair::{batch_repair, BatchConfig, MergePricing};
use std::time::Instant;

fn main() {
    println!(
        "{:<10} {:>6} {:>16} {:>12} {:>10}",
        "seed", "mode", "precision", "recall", "time"
    );
    for noise_seed in [42u64, 1, 7] {
        let w = generate(&GenConfig::sized(6_000, 42));
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.05,
                seed: noise_seed,
                ..Default::default()
            },
        );
        for pricing in [MergePricing::GroupMajority, MergePricing::Pairwise] {
            let config = BatchConfig {
                merge_pricing: pricing,
                ..Default::default()
            };
            let t0 = Instant::now();
            let out = batch_repair(&noise.dirty, &w.sigma, config).expect("repair succeeds");
            let q = RunSummary::evaluate(&noise.dirty, &out.repair, &w.dopt, t0.elapsed());
            println!(
                "{:<10} {:>6} {:>15.1}% {:>11.1}% {:>9.2?}",
                noise_seed,
                match pricing {
                    MergePricing::GroupMajority => "group",
                    MergePricing::Pairwise => "pair",
                },
                q.precision * 100.0,
                q.recall * 100.0,
                q.elapsed,
            );
        }
    }
    println!("\nPairwise pricing loses whole groups on bridge-corruption seeds;");
    println!("group-majority pricing is what BatchConfig::default() uses.");
}
