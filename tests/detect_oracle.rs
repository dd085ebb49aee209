//! Brute-force detection oracle: `violation::detect` against a direct
//! O(n²) reading of §3.1 on seeded random relations.
//!
//! The oracle walks every normal CFD of Σ over every live tuple:
//!
//! * a **constant** CFD (`tp[A]` a constant) is violated by a tuple whose
//!   `X` values match `tp[X]` and whose non-null `A` value differs from
//!   `tp[A]`;
//! * a **variable** CFD in the subsumption-minimal set
//!   (`minimal_variable_ids`) charges a matching tuple one violation per
//!   other matching tuple that agrees on `X` and holds a different
//!   non-null `A` value.
//!
//! A `null` among `t[X]` makes the CFD inapplicable (it matches no
//! pattern, not even `_`), and a `null` `t[A]` satisfies every pattern.
//! Matching compares `Value`s, not interned ids, so the oracle shares no
//! code with the engine beyond Σ itself.
//!
//! Relations draw from a four-value domain plus nulls, so LHS groups
//! repeat; Σ mixes several CFDs over one LHS list, constant LHS patterns,
//! and tableaux that pair an all-wildcard FD row with constant rows.
//! Seeded trials via `cfd_prng`; failures reproduce exactly from the seed.

use std::collections::BTreeMap;

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfdclean::cfd::pattern::{PatternRow, PatternValue};
use cfdclean::cfd::violation::{check, detect, minimal_variable_ids, Engine};
use cfdclean::cfd::{Cfd, NormalCfd, Sigma};
use cfdclean::model::{AttrId, Relation, Schema, Tuple, TupleId, Value, ValuePool};

const ARITY: usize = 5;

fn schema() -> Schema {
    Schema::new("oracle", &["a", "b", "c", "d", "e"]).unwrap()
}

fn rand_value(rng: &mut ChaCha8Rng) -> Value {
    match rng.gen_range(0..9u32) {
        0 => Value::Null,
        n => Value::str(format!("v{}", n % 4)),
    }
}

fn rand_relation(rng: &mut ChaCha8Rng) -> Relation {
    let pool = ValuePool::new_handle();
    let mut rel = Relation::new_in(schema(), pool.clone());
    for _ in 0..rng.gen_range(0..40usize) {
        let ids = (0..ARITY).map(|_| pool.intern(&rand_value(rng))).collect();
        rel.insert(Tuple::from_ids(ids)).unwrap();
    }
    for _ in 0..rng.gen_range(0..4usize) {
        if rel.slot_count() > 0 {
            let id = TupleId(rng.gen_range(0..rel.slot_count() as u32));
            let _ = rel.delete(id);
        }
    }
    rel
}

fn rand_pattern(rng: &mut ChaCha8Rng, constant: f64) -> PatternValue {
    if rng.gen_bool(constant) {
        PatternValue::constant(format!("v{}", rng.gen_range(0..4u32)))
    } else {
        PatternValue::Wildcard
    }
}

/// One or two distinct attributes, in ascending order.
fn rand_lhs(rng: &mut ChaCha8Rng) -> Vec<AttrId> {
    let first = rng.gen_range(0..ARITY);
    let mut lhs = vec![AttrId(first as u16)];
    if rng.gen_bool(0.5) {
        let second = (first + rng.gen_range(1..ARITY)) % ARITY;
        lhs.push(AttrId(second as u16));
        lhs.sort();
    }
    lhs
}

/// Up to four CFDs over at most two LHS lists, so several share one.
/// Each tableau may open with an all-wildcard FD row (a mixed tableau
/// once constant rows follow) and carries random constant/wildcard rows.
fn rand_sigma(rng: &mut ChaCha8Rng, pool: &ValuePool) -> Sigma {
    let lists: Vec<Vec<AttrId>> = (0..rng.gen_range(1..=2usize))
        .map(|_| rand_lhs(rng))
        .collect();
    let mut cfds = Vec::new();
    for i in 0..rng.gen_range(1..=4usize) {
        let lhs = lists[rng.gen_range(0..lists.len())].clone();
        let free: Vec<AttrId> = (0..ARITY as u16)
            .map(AttrId)
            .filter(|a| !lhs.contains(a))
            .collect();
        let mut rhs = vec![free[rng.gen_range(0..free.len())]];
        if rng.gen_bool(0.3) {
            let other = free[rng.gen_range(0..free.len())];
            if !rhs.contains(&other) {
                rhs.push(other);
            }
        }
        let mut tableau = Vec::new();
        if rng.gen_bool(0.5) {
            tableau.push(PatternRow::all_wildcards(lhs.len(), rhs.len()));
        }
        let extra = rng.gen_range(usize::from(tableau.is_empty())..=3);
        for _ in 0..extra {
            let l = lhs.iter().map(|_| rand_pattern(rng, 0.6)).collect();
            let r = rhs.iter().map(|_| rand_pattern(rng, 0.4)).collect();
            tableau.push(PatternRow::new(l, r));
        }
        cfds.push(Cfd::new(&format!("phi{i}"), lhs, rhs, tableau).unwrap());
    }
    Sigma::normalize_in(schema(), cfds, pool).unwrap()
}

/// `v ≼ p`: `null` matches nothing, not even `_`.
fn matches(v: &Value, p: &PatternValue) -> bool {
    match p.as_const() {
        None => !v.is_null(),
        Some(c) => v == c,
    }
}

fn applies(n: &NormalCfd, t: &[Value]) -> bool {
    n.lhs()
        .iter()
        .zip(n.lhs_pattern())
        .all(|(a, p)| matches(&t[a.index()], p))
}

fn same_lhs(n: &NormalCfd, t: &[Value], u: &[Value]) -> bool {
    n.lhs().iter().all(|a| t[a.index()] == u[a.index()])
}

/// §3.1 by brute force: `vio(t)` per live tuple and the violating tuples
/// per normal CFD.
struct Expected {
    vio: BTreeMap<TupleId, usize>,
    per_cfd: Vec<Vec<TupleId>>,
    total: usize,
}

fn brute_force(rel: &Relation, sigma: &Sigma) -> Expected {
    let tuples: Vec<(TupleId, Vec<Value>)> = rel.iter().map(|(id, t)| (id, t.values())).collect();
    let variable = minimal_variable_ids(sigma);
    let mut out = Expected {
        vio: tuples.iter().map(|(id, _)| (*id, 0)).collect(),
        per_cfd: vec![Vec::new(); sigma.len()],
        total: 0,
    };
    for n in sigma.iter() {
        let a = n.rhs_attr().index();
        for (id, t) in &tuples {
            if !applies(n, t) || t[a].is_null() {
                continue;
            }
            let count = match n.rhs_pattern().as_const() {
                Some(c) => usize::from(&t[a] != c),
                None if variable.contains(&n.id()) => tuples
                    .iter()
                    .filter(|(other, u)| {
                        other != id
                            && applies(n, u)
                            && same_lhs(n, t, u)
                            && !u[a].is_null()
                            && u[a] != t[a]
                    })
                    .count(),
                None => 0,
            };
            if count > 0 {
                *out.vio.get_mut(id).unwrap() += count;
                out.per_cfd[n.id().index()].push(*id);
                out.total += count;
            }
        }
    }
    out
}

/// 400 trials: the report's total, every `vio(t)` and every per-CFD
/// list equal the brute-force reading, and so do `check` and the repair
/// loop's `Engine::vio_of`.
#[test]
fn detect_matches_brute_force() {
    let mut dirty_trials = 0;
    trials(400, 0x0D7E_C7ED, |rng| {
        let rel = rand_relation(rng);
        let sigma = rand_sigma(rng, rel.pool());
        let want = brute_force(&rel, &sigma);
        let got = detect(&rel, &sigma);
        assert_eq!(got.total, want.total, "total");
        assert_eq!(got.per_cfd, want.per_cfd, "per_cfd");
        let engine = Engine::build(&rel, &sigma);
        for (id, t) in rel.iter() {
            assert_eq!(got.vio(id), want.vio[&id], "vio({id})");
            assert_eq!(
                engine.vio_of(&rel, &t, Some(id)),
                want.vio[&id],
                "vio_of({id})"
            );
        }
        let dirty = want.vio.values().filter(|v| **v > 0).count();
        assert_eq!(
            got.per_tuple.len(),
            dirty,
            "per_tuple holds only dirty tuples"
        );
        assert_eq!(check(&rel, &sigma), want.total == 0, "check");
        dirty_trials += usize::from(want.total > 0);
    });
    assert!(
        dirty_trials > 100,
        "only {dirty_trials} trials had violations"
    );
}
