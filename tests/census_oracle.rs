//! The group census, read through an overlay, against the group walk of
//! `Engine::vio_of` and against fresh builds.
//!
//! INCREPAIR prices `vio(t[C/v̄])` as the constant violations of `t` plus
//! `CensusOverlay::conflicts(n, t)` over the subsumption-minimal variable
//! CFDs: each group's non-null total minus the carriers of `t[A]`.
//! `Engine::vio_of` reaches the same integer by walking every member of
//! each group. Seeded trials over dirty §7.1 relations (noise rate ρ up
//! to 1.0, with some cells nulled so groups hold null RHS values) apply
//! random insert/remove sequences to one overlay, fold it now and then
//! the way a stream does when a window closes, and check after every
//! step that:
//!
//! 1. for every live tuple and for random probe tuples that are not
//!    stored, the counts equal `vio_of` on a fresh `Engine` over the same
//!    live tuples, and the pin and the verdict of every variable CFD
//!    equal the group walk's;
//! 2. the view's checksum equals a fresh `GroupCensus::new` over the
//!    live tuples, folds included;
//!
//! and at the end that the base the overlay started from has the
//! checksum it was built with.
//!
//! The checksum covers the weight sums, which the overlay adds and
//! subtracts in the order of the sequence. Every weight here is a
//! multiple of 1/8, so every sum is exact in any order and can equal a
//! fresh walk bit for bit; INCREPAIR reads counts and pins, never
//! weights. Failures reproduce exactly from the printed seed.

use std::sync::Arc;

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfdclean::cfd::census::{CensusOverlay, GroupCensus};
use cfdclean::cfd::violation::Engine;
use cfdclean::cfd::{NormalCfd, Sigma};
use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig};
use cfdclean::model::{AttrId, Relation, Tuple, TupleId, Value, ValueId, NULL_ID};

/// `vio(t)` as INCREPAIR computes it: the engine's constant rules plus the
/// overlay's conflicts over the engine's variable CFDs.
fn counted_vio(engine: &Engine<'_>, census: &CensusOverlay, t: &Tuple) -> usize {
    engine.rules.violations_of(t, None)
        + engine
            .variable_cfds()
            .map(|n| census.conflicts(n, t))
            .sum::<usize>()
}

/// The group walk of `t` under the variable CFD `n`: the distinct
/// non-null RHS values of its members, and the value of its least-id
/// non-null member.
fn walk(
    engine: &Engine<'_>,
    rel: &Relation,
    n: &NormalCfd,
    t: &Tuple,
) -> (Vec<ValueId>, Option<ValueId>) {
    let rhs = rel.column(n.rhs_attr());
    let mut values: Vec<ValueId> = Vec::new();
    let mut earliest: Option<(TupleId, ValueId)> = None;
    for &id in engine.indexes.for_lhs(n.lhs()).group_of(t) {
        let v = rhs[id.index()];
        if v.is_null() {
            continue;
        }
        if !values.contains(&v) {
            values.push(v);
        }
        if earliest.is_none_or(|(e, _)| id < e) {
            earliest = Some((id, v));
        }
    }
    (values, earliest.map(|(_, v)| v))
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

/// Checks 1 and 2 over every live tuple of `rel` and a few probes.
fn assert_view_matches(
    rng: &mut ChaCha8Rng,
    rel: &Relation,
    sigma: &Sigma,
    census: &CensusOverlay,
    donors: &[Tuple],
    what: &str,
) {
    let engine = Engine::build(rel, sigma);
    let live = rel.iter().map(|(id, t)| (Some(id), t.to_tuple()));
    let probes: Vec<(Option<TupleId>, Tuple)> =
        (0..8).map(|_| (None, probe(rng, donors))).collect();
    for (id, t) in live.chain(probes) {
        assert_eq!(
            counted_vio(&engine, census, &t),
            engine.vio_of(rel, &t, id),
            "{what}: {id:?} {t:?}"
        );
        for n in engine.variable_cfds().filter(|n| n.applies_to(&t)) {
            let (values, earliest) = walk(&engine, rel, n, &t);
            if values.len() <= 1 {
                assert_eq!(census.pinned_id(n, &t), earliest, "{what}: pin {t:?}");
            }
            let v = t.id(n.rhs_attr());
            assert_eq!(
                census.satisfies(n, &t),
                v.is_null() || earliest.is_none_or(|e| e == v),
                "{what}: verdict {t:?}"
            );
        }
    }
    assert_eq!(
        census.checksum(),
        GroupCensus::new(rel, sigma).checksum(),
        "{what}: checksum"
    );
}

#[test]
fn census_overlay_matches_vio_of_and_fresh_builds() {
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
        // Null about 4% of the cells, RHS and LHS positions alike, and
        // make every weight a multiple of 1/8.
        let arity = rel.schema().arity() as u16;
        for id in rel.ids().collect::<Vec<_>>() {
            for a in 0..arity {
                if rng.gen_range(0..25u32) == 0 {
                    rel.set_value(id, AttrId(a), Value::Null).unwrap();
                }
                let w = f64::from(rng.gen_range(0..=8u32)) / 8.0;
                rel.set_weight(id, AttrId(a), w).unwrap();
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
        let base = Arc::new(GroupCensus::new(&rel, &sigma));
        let base_sum = base.checksum();
        let mut census = CensusOverlay::new(Arc::clone(&base));
        assert_view_matches(rng, &rel, &sigma, &census, &donors, &what);

        let mut folds = 0;
        for step in 0..rng.gen_range(20..60usize) {
            if !held.is_empty() && (rel.is_empty() || rng.gen_bool(0.5)) {
                let t = held.swap_remove(rng.gen_range(0..held.len()));
                let id = rel.insert(t.clone()).unwrap();
                census.insert(id, &t);
            } else if !rel.is_empty() {
                let live: Vec<TupleId> = rel.ids().collect();
                let id = live[rng.gen_range(0..live.len())];
                let t = rel.delete(id).unwrap();
                census.remove(id, &t);
                held.push(t);
            }
            if rng.gen_range(0..8u32) == 0 {
                census.fold();
                folds += 1;
            }
            let what = format!("{what} step {step}");
            assert_view_matches(rng, &rel, &sigma, &census, &donors, &what);
        }
        census.fold();
        assert_view_matches(rng, &rel, &sigma, &census, &donors, &what);
        drop(census);
        assert_eq!(
            base.checksum(),
            base_sum,
            "{what}: base written ({folds} folds)"
        );
    });
}
