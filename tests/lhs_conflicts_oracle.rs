//! LHS-index conflict counts against the group walk of `Engine::vio_of`.
//!
//! INCREPAIR prices `vio(t[C/v̄])` as the constant violations of `t` plus
//! `LhsIndexes::conflicts(n, t)` over the subsumption-minimal variable
//! CFDs: each group's non-null RHS total minus the members equal to
//! `t[A]`. `Engine::vio_of` reaches the same integer by walking every
//! member of each group. Seeded trials over dirty §7.1 relations (noise
//! rate ρ up to 1.0, with some cells nulled so groups hold null RHS
//! values) apply random insert/remove sequences to one `LhsIndexes`, and
//! check two things:
//!
//! 1. after every step, for every live tuple and for random probe tuples
//!    that are not stored, the counts equal `vio_of` on a fresh `Engine`
//!    over the same live tuples;
//! 2. after undoing every operation, newest first, the index equals a
//!    fresh build: the same entry count and the same counts in every
//!    group.
//!
//! Removals pick any live tuple, dirty ones included, so the index must
//! be an exact inverse for tuples that disagree with their group.
//! Failures reproduce exactly from the printed seed.

use std::collections::BTreeMap;

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfdclean::cfd::violation::Engine;
use cfdclean::cfd::Sigma;
use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig};
use cfdclean::model::{AttrId, Relation, Tuple, TupleId, Value, NULL_ID};
use cfdclean::repair::lhs_index::LhsIndexes;

/// `vio(t)` as INCREPAIR computes it: the engine's constant rules plus the
/// index's conflicts over the engine's variable CFDs.
fn counted_vio(engine: &Engine<'_>, idx: &LhsIndexes, t: &Tuple) -> usize {
    engine.rules.violations_of(t, None)
        + engine
            .variable_cfds()
            .map(|n| idx.conflicts(n, t))
            .sum::<usize>()
}

/// A tuple that is not stored: a live or held-out tuple with one or two
/// cells swapped for another tuple's value or for null, so it lands in
/// populated groups with values that may or may not agree.
fn probe(rng: &mut ChaCha8Rng, donors: &[Tuple]) -> Tuple {
    let mut t = donors[rng.gen_range(0..donors.len())].clone();
    for _ in 0..rng.gen_range(1..3usize) {
        let a = AttrId(rng.gen_range(0..t.arity()) as u16);
        let v = if rng.gen_range(0..5u32) == 0 {
            NULL_ID
        } else {
            donors[rng.gen_range(0..donors.len())].id(a)
        };
        t.set_id(a, v);
    }
    t
}

/// Check 1 over every live tuple of `rel` and a few probes.
fn assert_counts_match(
    rng: &mut ChaCha8Rng,
    rel: &Relation,
    sigma: &Sigma,
    idx: &LhsIndexes,
    donors: &[Tuple],
    what: &str,
) {
    let engine = Engine::build(rel, sigma);
    for (id, t) in rel.iter() {
        let t = t.to_tuple();
        assert_eq!(
            counted_vio(&engine, idx, &t),
            engine.vio_of(rel, &t, Some(id)),
            "{what}: live tuple {id}"
        );
    }
    for _ in 0..8 {
        let p = probe(rng, donors);
        assert_eq!(
            counted_vio(&engine, idx, &p),
            engine.vio_of(rel, &p, None),
            "{what}: probe {p:?}"
        );
    }
}

enum Op {
    Inserted(TupleId, Tuple),
    Removed(TupleId, Tuple),
}

#[test]
fn lhs_conflicts_match_vio_of_and_undo_to_a_fresh_build() {
    trials(8, 0x1C0F_11C7, |rng| {
        let seed = rng.gen_range(0..10_000u64);
        let rate = [0.05, 0.3, 1.0][rng.gen_range(0..3usize)];
        let what = format!("seed {seed} rho {rate}");
        let w = generate(&GenConfig::sized(160, seed));
        let noise = NoiseConfig {
            rate,
            seed,
            ..Default::default()
        };
        let mut rel = inject(&w.dopt, &w.world, &noise).dirty;
        let sigma = w.sigma_for(&rel);
        // Null about 4% of the cells, RHS and LHS positions alike.
        let arity = rel.schema().arity() as u16;
        for id in rel.ids().collect::<Vec<_>>() {
            for a in 0..arity {
                if rng.gen_range(0..25u32) == 0 {
                    rel.set_value(id, AttrId(a), Value::Null).unwrap();
                }
            }
        }
        // Hold a quarter of the tuples out: they are the inserts.
        let mut held: Vec<Tuple> = Vec::new();
        for id in rel.ids().collect::<Vec<_>>() {
            if rng.gen_range(0..4u32) == 0 {
                held.push(rel.delete(id).unwrap());
            }
        }
        let donors: Vec<Tuple> = rel
            .iter()
            .map(|(_, t)| t.to_tuple())
            .chain(held.iter().cloned())
            .collect();
        let mut idx = LhsIndexes::build(&rel, &sigma);
        let fresh = (idx.entry_count(), idx.group_counts());
        assert_counts_match(rng, &rel, &sigma, &idx, &donors, &what);

        let mut log: Vec<Op> = Vec::new();
        for step in 0..rng.gen_range(20..60usize) {
            if !held.is_empty() && (rel.is_empty() || rng.gen_bool(0.5)) {
                let t = held.swap_remove(rng.gen_range(0..held.len()));
                idx.insert(&t);
                let id = rel.insert(t.clone()).unwrap();
                log.push(Op::Inserted(id, t));
            } else if !rel.is_empty() {
                let live: Vec<TupleId> = rel.ids().collect();
                let id = live[rng.gen_range(0..live.len())];
                let t = rel.require(id).unwrap().to_tuple();
                idx.remove(&t);
                rel.delete(id).unwrap();
                log.push(Op::Removed(id, t));
            }
            assert_counts_match(
                rng,
                &rel,
                &sigma,
                &idx,
                &donors,
                &format!("{what} step {step}"),
            );
        }

        // A re-inserted tuple gets a fresh id; an earlier insert of the
        // same tuple is undone under that id.
        let mut moved: BTreeMap<TupleId, TupleId> = BTreeMap::new();
        for op in log.into_iter().rev() {
            match op {
                Op::Inserted(id, t) => {
                    idx.remove(&t);
                    rel.delete(moved.get(&id).copied().unwrap_or(id)).unwrap();
                }
                Op::Removed(id, t) => {
                    idx.insert(&t);
                    moved.insert(id, rel.insert(t).unwrap());
                }
            }
        }
        let rebuilt = LhsIndexes::build(&rel, &sigma);
        assert_eq!(idx.entry_count(), fresh.0, "{what}: entries after undo");
        assert_eq!(idx.entry_count(), rebuilt.entry_count(), "{what}");
        assert_eq!(idx.group_counts(), fresh.1, "{what}: counts after undo");
        assert_eq!(idx.group_counts(), rebuilt.group_counts(), "{what}");
        assert_counts_match(rng, &rel, &sigma, &idx, &donors, &what);
    });
}
