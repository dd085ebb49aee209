//! The incremental module (§5): a clean warehouse keeps receiving order
//! batches; each batch is repaired on arrival with `INCREPAIR` so the
//! database never goes inconsistent — and the clean base is never touched.
//!
//! Also demonstrates the CFD rule-file syntax: Σ is written out with the
//! parser's renderer and read back, as a user of the sampling loop would
//! edit it.
//!
//! Run with `cargo run --release --example incremental_inserts`.

use cfdclean::cfd::parser::{parse_rules, render_cfd};
use cfdclean::cfd::violation::check;
use cfdclean::cfd::Sigma;
use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig};
use cfdclean::model::Tuple;
use cfdclean::repair::{inc_repair, IncConfig, Ordering};
use std::time::Instant;

fn main() {
    // A clean base of 4,000 orders.
    let w = generate(&GenConfig::sized(4_000, 21));
    assert!(check(&w.dopt, &w.sigma), "base must be clean");

    // Round-trip Σ through the textual rule format (truncated preview).
    let rendered = render_cfd(w.sigma.schema(), &w.sigma.sources()[1]);
    let preview: String = rendered.lines().take(4).collect::<Vec<_>>().join("\n");
    println!("ϕ2 in rule-file syntax (first rows):\n{preview}\n  …\n");
    let reparsed = parse_rules(w.sigma.schema(), &rendered).expect("round-trip parses");
    let _sigma2 =
        Sigma::normalize_in(w.sigma.schema().clone(), reparsed, w.dopt.pool()).expect("normalizes");

    // Three arriving batches with increasingly bad quality.
    let mut base = w.dopt.clone();
    for (batch_no, rate) in [(1, 0.2), (2, 0.5), (3, 1.0)] {
        let batch_src = generate(&GenConfig {
            n_tuples: 40,
            seed: 1000 + batch_no,
            world: w.world.config.clone(),
        });
        let noised = inject(
            &batch_src.dopt,
            &w.world,
            &NoiseConfig {
                rate,
                seed: batch_no,
                ..Default::default()
            },
        );
        // The batch arrives in a pool of its own; load it into the
        // warehouse's, as `cfdclean insert` does.
        let arrived = noised.dirty.rekey_into(base.pool());
        let delta: Vec<Tuple> = arrived.iter().map(|(_, t)| t.to_tuple()).collect();
        let t0 = Instant::now();
        let out = inc_repair(
            &base,
            &delta,
            &w.sigma,
            IncConfig {
                ordering: Ordering::Violations,
                ..Default::default()
            },
        )
        .expect("incremental repair succeeds");
        println!(
            "batch {batch_no}: {} inserts ({}% dirty) → {} modified, {} nulls, cost {:.2}, {:?}",
            delta.len(),
            (rate * 100.0) as u32,
            out.stats.modified,
            out.stats.nulls_introduced,
            out.stats.cost,
            t0.elapsed()
        );
        assert!(check(&out.repair, &w.sigma), "warehouse stays consistent");
        base = out.repair;
    }
    println!(
        "final warehouse size: {} tuples, still consistent",
        base.len()
    );
}
