//! Golden digests of INCREPAIR's choices on the resident insert path.
//!
//! `insert_resident_differential` compares resident inserts with one-shot
//! `inc_repair`, but both run the same `TUPLERESOLVE`, so a changed
//! choice passes it unseen. This suite pins the choices themselves: one
//! warm [`DatasetHandle`] over a §7.1 6k base answers the Fig. 12 ΔD
//! batches (10, 20, …, 70 fully-dirty tuples) for every ordering and
//! k ∈ {1, 2, 3}, and each (ordering, k) hashes every reply — the merged
//! CSV bytes, the cost bits, the modified count and the null count — into
//! a digest committed below. A repair that changes one cell, one cost bit
//! or one null changes a digest.

use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig};
use cfdclean::model::{csv, Relation};
use cfdclean::repair::Ordering;
use cfdclean::DatasetHandle;

const BASE_TUPLES: usize = 6_000;
const SEED: u64 = 7;

/// `(ordering, k, digest)` for every configuration, in run order.
const GOLDEN: [(Ordering, usize, u64); 9] = [
    (Ordering::Violations, 1, 0xe0ccc91c3d4725b0),
    (Ordering::Violations, 2, 0x52fcb9b96d6e8f80),
    (Ordering::Violations, 3, 0x52fcb9b96d6e8f80),
    (Ordering::Linear, 1, 0x6f5891f627ea5522),
    (Ordering::Linear, 2, 0xc7ebd481c1c47896),
    (Ordering::Linear, 3, 0xc7ebd481c1c47896),
    (Ordering::Weight, 1, 0x74adcb3334ad71ed),
    (Ordering::Weight, 2, 0x9d797eb5b67c5dee),
    (Ordering::Weight, 3, 0x9d797eb5b67c5dee),
];

fn render(rel: &Relation) -> Vec<u8> {
    let mut out = Vec::new();
    csv::write_relation(rel, &mut out).unwrap();
    out
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One ΔD request: the updates CSV and its weights CSV.
type Batch = (Vec<u8>, Vec<u8>);

/// The clean 6k base with its rules, and the seven Fig. 12 ΔD batches
/// drawn from 280 fresh orders of the same world, every one corrupted,
/// each with the §7.1 weights the noise assigned (without them
/// W-INCREPAIR's order is the linear one).
fn workload() -> (Vec<u8>, String, Vec<Batch>) {
    let w = generate(&GenConfig::sized(BASE_TUPLES, SEED));
    let fresh = generate(&GenConfig {
        n_tuples: 280,
        seed: SEED ^ 0x5eed,
        world: w.world.config.clone(),
    });
    let arriving = inject(
        &fresh.dopt,
        &w.world,
        &NoiseConfig {
            rate: 1.0,
            seed: SEED,
            ..Default::default()
        },
    )
    .dirty;
    let mut weights = Vec::new();
    csv::write_weights(&arriving, &mut weights).unwrap();
    let (rows, weights) = (
        String::from_utf8(render(&arriving)).unwrap(),
        String::from_utf8(weights).unwrap(),
    );
    let (rows, weights): (Vec<&str>, Vec<&str>) =
        (rows.lines().collect(), weights.lines().collect());
    let slice = |lines: &[&str], from: usize, size: usize| {
        format!(
            "{}\n{}\n",
            lines[0],
            lines[1 + from..1 + from + size].join("\n")
        )
        .into_bytes()
    };
    let mut batches = Vec::new();
    let mut next = 0;
    for size in (10..=70).step_by(10) {
        batches.push((slice(&rows, next, size), slice(&weights, next, size)));
        next += size;
    }
    let rules = w
        .sigma
        .sources()
        .iter()
        .map(|c| cfdclean::cfd::parser::render_cfd(w.dopt.schema(), c) + "\n")
        .collect();
    (render(&w.dopt), rules, batches)
}

#[test]
fn resident_insert_choices_match_the_golden_digests() {
    let (base, rules, batches) = workload();
    let mut handle = DatasetHandle::from_csv("base", &base).unwrap();
    handle.bind_rules(&rules, "rules").unwrap();
    let mut got = Vec::new();
    for (ordering, k, _) in GOLDEN {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (updates, weights) in &batches {
            let run = handle.insert(updates, Some(weights), ordering, k).unwrap();
            h = fnv(h, &run.csv);
            h = fnv(h, &run.cost.to_bits().to_le_bytes());
            h = fnv(h, &(run.modified as u64).to_le_bytes());
            h = fnv(h, &(run.nulls as u64).to_le_bytes());
        }
        got.push((ordering, k, h));
    }
    for (want, got) in GOLDEN.iter().zip(&got) {
        assert_eq!(want, got, "{:?} k = {}", want.0, want.1);
    }
}
