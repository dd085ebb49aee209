//! Randomized property tests over the core invariants:
//!
//! * both repair algorithms always terminate with `Repr |= Σ` on random
//!   relations and random CFD sets (the Theorem 4.2 / 5.3 guarantees);
//! * the DL distance is a metric (identity, symmetry, triangle
//!   inequality) and the normalized form stays in `[0, 1]`;
//! * equivalence-class progress is monotone and bounded;
//! * incremental insertion of consistent tuples is a no-op;
//! * CSV round-trips arbitrary values.
//!
//! Seeded trials via `cfd_prng`; failures reproduce exactly from the seed.

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfdclean::cfd::pattern::{PatternRow, PatternValue};
use cfdclean::cfd::violation::check;
use cfdclean::cfd::{Cfd, Sigma};
use std::sync::Arc;

use cfdclean::model::{csv, AttrId, Relation, Schema, Tuple, Value, ValuePool};
use cfdclean::repair::distance::{dl_distance, normalized_distance};
use cfdclean::repair::equivalence::{Cell, EqClasses, Target};
use cfdclean::repair::{batch_repair, inc_repair, IncConfig};

const ARITY: usize = 4;

/// A small value universe keeps collision (and thus violation) rates high.
fn rand_value(rng: &mut ChaCha8Rng) -> Value {
    if rng.gen_range(0..5u32) == 0 {
        Value::Null
    } else {
        Value::str(format!("v{}", rng.gen_range(0..6u32)))
    }
}

fn rand_tuple(rng: &mut ChaCha8Rng) -> Vec<Value> {
    (0..ARITY).map(|_| rand_value(rng)).collect()
}

fn rand_rows(rng: &mut ChaCha8Rng) -> Vec<Vec<Value>> {
    (0..rng.gen_range(1..14usize))
        .map(|_| rand_tuple(rng))
        .collect()
}

/// Random single-attribute normal-form CFDs over the fixed 4-attribute
/// schema. LHS and RHS attrs are distinct; patterns draw from the same
/// value universe.
fn rand_sigma(rng: &mut ChaCha8Rng, schema: &Schema, max: usize, pool: &ValuePool) -> Sigma {
    let n = rng.gen_range(1..=max);
    let mut cfds = Vec::new();
    for i in 0..n {
        let l = rng.gen_range(0..ARITY);
        let mut r = rng.gen_range(0..ARITY);
        if l == r {
            r = (r + 1) % ARITY;
        }
        let pat = |rng: &mut ChaCha8Rng| {
            if rng.gen_bool(0.5) {
                PatternValue::Const(Value::str(format!("v{}", rng.gen_range(0..4u32))))
            } else {
                PatternValue::Wildcard
            }
        };
        let lhs_pat = pat(rng);
        let rhs_pat = pat(rng);
        cfds.push(
            Cfd::new(
                &format!("c{i}"),
                vec![AttrId(l as u16)],
                vec![AttrId(r as u16)],
                vec![PatternRow::new(vec![lhs_pat], vec![rhs_pat])],
            )
            .unwrap(),
        );
    }
    Sigma::normalize_in(schema.clone(), cfds, pool).unwrap()
}

fn build_relation(schema: &Schema, rows: Vec<Vec<Value>>, pool: Arc<ValuePool>) -> Relation {
    let mut rel = Relation::new_in(schema.clone(), pool);
    for row in rows {
        rel.insert(Tuple::new_in(row, rel.pool())).unwrap();
    }
    rel
}

#[test]
fn batch_repair_always_satisfies_sigma() {
    trials(64, 0xBA7C4, |rng| {
        let schema = Schema::new("r", &["a", "b", "c", "d"]).unwrap();
        let pool = ValuePool::new_handle();
        let sigma = rand_sigma(rng, &schema, 4, &pool);
        let rel = build_relation(&schema, rand_rows(rng), pool.clone());
        let out = batch_repair(&rel, &sigma).unwrap();
        assert!(check(&out.repair, &sigma));
        // ids and cardinality preserved: repairs are value modifications
        assert_eq!(out.repair.len(), rel.len());
    });
}

#[test]
fn incremental_repair_always_satisfies_sigma() {
    trials(64, 0x14C2E, |rng| {
        let schema = Schema::new("r", &["a", "b", "c", "d"]).unwrap();
        let pool = ValuePool::new_handle();
        let sigma = rand_sigma(rng, &schema, 4, &pool);
        let rel = build_relation(&schema, rand_rows(rng), pool.clone());
        // start from a guaranteed-clean base
        let clean = batch_repair(&rel, &sigma).unwrap().repair;
        let delta: Vec<Tuple> = (0..rng.gen_range(1..5usize))
            .map(|_| Tuple::new_in(rand_tuple(rng), &pool))
            .collect();
        let out = inc_repair(&clean, &delta, &sigma, IncConfig::default()).unwrap();
        assert!(check(&out.repair, &sigma));
        // the clean base is untouched
        for (id, t) in clean.iter() {
            assert_eq!(out.repair.tuple(id).unwrap(), t);
        }
    });
}

#[test]
fn batch_repair_is_idempotent() {
    trials(64, 0x1DE4, |rng| {
        let schema = Schema::new("r", &["a", "b", "c", "d"]).unwrap();
        let pool = ValuePool::new_handle();
        let sigma = rand_sigma(rng, &schema, 4, &pool);
        let rel = build_relation(&schema, rand_rows(rng), pool.clone());
        let first = batch_repair(&rel, &sigma).unwrap();
        let second = batch_repair(&first.repair, &sigma).unwrap();
        assert_eq!(second.stats.steps, 0, "repairing a repair must be a no-op");
        assert_eq!(second.stats.cost, 0.0);
        for (id, t) in first.repair.iter() {
            assert_eq!(second.repair.tuple(id).unwrap(), t);
        }
    });
}

#[test]
fn inserting_consistent_tuples_changes_nothing() {
    trials(64, 0xC0215, |rng| {
        let schema = Schema::new("r", &["a", "b", "c", "d"]).unwrap();
        let pool = ValuePool::new_handle();
        let sigma = rand_sigma(rng, &schema, 3, &pool);
        let rel = build_relation(&schema, rand_rows(rng), pool.clone());
        let clean = batch_repair(&rel, &sigma).unwrap().repair;
        // re-inserting an existing clean tuple must be a no-op repair
        let existing: Vec<Tuple> = clean.iter().take(2).map(|(_, t)| t.to_tuple()).collect();
        let out = inc_repair(&clean, &existing, &sigma, IncConfig::default()).unwrap();
        assert_eq!(out.stats.modified, 0);
        assert_eq!(out.stats.cost, 0.0);
    });
}

fn rand_word(rng: &mut ChaCha8Rng, alphabet: u32, max: usize) -> String {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| (b'a' + rng.gen_range(0..alphabet) as u8) as char)
        .collect()
}

#[test]
fn dl_distance_is_a_metric() {
    trials(256, 0xD15A, |rng| {
        let a = rand_word(rng, 3, 6);
        let b = rand_word(rng, 3, 6);
        let c = rand_word(rng, 3, 6);
        let dab = dl_distance(&a, &b);
        let dba = dl_distance(&b, &a);
        assert_eq!(dab, dba);
        assert_eq!(dab == 0, a == b);
        // triangle inequality (OSA satisfies it over this alphabet size)
        let dac = dl_distance(&a, &c);
        let dcb = dl_distance(&c, &b);
        assert!(
            dab <= dac + dcb,
            "d({a},{b})={dab} > d({a},{c})+d({c},{b})={}",
            dac + dcb
        );
    });
}

#[test]
fn normalized_distance_is_bounded() {
    trials(256, 0x0B0D, |rng| {
        let a = rand_word(rng, 26, 8);
        let b = rand_word(rng, 26, 8);
        let d = normalized_distance(&Value::str(&a), &Value::str(&b));
        assert!((0.0..=1.0).contains(&d));
        assert_eq!(d == 0.0, a == b);
    });
}

#[test]
fn equivalence_progress_is_monotone_and_bounded() {
    trials(128, 0xE0F5, |rng| {
        let mut eq = EqClasses::new(8, 1, |_, _| 1.0);
        let cells = 8u64;
        let target_x = Target::Const(ValuePool::new().intern(&Value::str("x")));
        for _ in 0..rng.gen_range(1..40usize) {
            let i = rng.gen_range(0..8u32);
            let j = rng.gen_range(0..8u32);
            let kind = rng.gen_range(0..3u32);
            let (ci, cj) = (
                Cell::new(cfdclean::model::TupleId(i), AttrId(0)),
                Cell::new(cfdclean::model::TupleId(j), AttrId(0)),
            );
            let before = eq.progress();
            let _ = match kind {
                0 => eq.merge(ci, cj).map(|_| ()),
                1 => eq.set_target(ci, target_x).map(|_| ()),
                _ => eq.set_target(ci, Target::Null).map(|_| ()),
            };
            let after = eq.progress();
            assert!(after >= before, "progress regressed");
            assert!(after <= 4 * cells, "progress exceeded the 4·cells bound");
        }
    });
}

#[test]
fn csv_round_trips_arbitrary_relations() {
    trials(128, 0xC5B, |rng| {
        let schema = Schema::new("r", &["a", "b", "c", "d"]).unwrap();
        let rel = build_relation(&schema, rand_rows(rng), ValuePool::new_handle());
        let mut buf = Vec::new();
        csv::write_relation(&rel, &mut buf).unwrap();
        let back =
            csv::read_relation_in("r", &mut buf.as_slice(), ValuePool::new_handle()).unwrap();
        assert_eq!(back.len(), rel.len());
        for (id, t) in rel.iter() {
            assert_eq!(back.tuple(id).unwrap().values(), t.values());
        }
    });
}
