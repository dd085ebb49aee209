//! Randomized property tests for the satisfiability analysis, checked
//! against a brute-force model search over a small domain. Seeded trials
//! via `cfd_prng`.

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfd_cfd::pattern::{PatternRow, PatternValue};
use cfd_cfd::satisfiability::satisfiable;
use cfd_cfd::violation::check;
use cfd_cfd::{Cfd, Sigma};
use std::sync::Arc;

use cfd_model::{AttrId, Relation, Schema, Tuple, Value, ValuePool};

const ARITY: usize = 3;
/// Small closed domain for brute-force model search.
const DOM: usize = 3;

fn schema() -> Schema {
    Schema::new("r", &["a", "b", "c"]).unwrap()
}

fn rand_pattern(rng: &mut ChaCha8Rng) -> PatternValue {
    if rng.gen_range(0..3u32) == 0 {
        PatternValue::Wildcard
    } else {
        PatternValue::constant(format!("v{}", rng.gen_range(0..DOM as u32)))
    }
}

/// Single-attribute-LHS constant-or-variable CFDs over the fixed schema.
fn rand_cfd(rng: &mut ChaCha8Rng) -> Cfd {
    let l = rng.gen_range(0..ARITY);
    let r = rng.gen_range(0..ARITY);
    let rhs_attr = if l == r { (r + 1) % ARITY } else { r };
    Cfd::new(
        "q",
        vec![AttrId(l as u16)],
        vec![AttrId(rhs_attr as u16)],
        vec![PatternRow::new(
            vec![rand_pattern(rng)],
            vec![rand_pattern(rng)],
        )],
    )
    .expect("well-formed")
}

fn rand_sigma(rng: &mut ChaCha8Rng, pool: &ValuePool) -> Sigma {
    let cfds: Vec<Cfd> = (0..rng.gen_range(1..6usize))
        .map(|_| rand_cfd(rng))
        .collect();
    Sigma::normalize_in(schema(), cfds, pool).expect("normalizes")
}

/// Brute force: does any single tuple over the closed domain (plus one
/// fresh symbol per attribute) satisfy all constant rows of Σ? This
/// matches the paper's observation that Σ is satisfiable iff a one-tuple
/// instance exists; fresh symbols stand for "any value outside the
/// pattern constants".
fn brute_force_satisfiable(sigma: &Sigma, pool: &Arc<ValuePool>) -> bool {
    // domain: v0..v{DOM-1} plus a fresh value no pattern mentions
    let mut values: Vec<Value> = (0..DOM).map(|i| Value::str(format!("v{i}"))).collect();
    values.push(Value::str("fresh"));
    let n = values.len();
    let mut idx = [0usize; ARITY];
    loop {
        let mut rel = Relation::new_in(schema(), pool.clone());
        let tuple = Tuple::new_in(idx.iter().map(|i| values[*i].clone()), rel.pool());
        rel.insert(tuple).unwrap();
        if check(&rel, sigma) {
            return true;
        }
        // next assignment
        let mut pos = 0;
        loop {
            idx[pos] += 1;
            if idx[pos] < n {
                break;
            }
            idx[pos] = 0;
            pos += 1;
            if pos == ARITY {
                return false;
            }
        }
    }
}

/// The satisfiability analysis agrees with brute-force model search over
/// single tuples.
#[test]
fn satisfiability_matches_brute_force() {
    trials(48, 0x5A715, |rng| {
        let pool = ValuePool::new_handle();
        let sigma = rand_sigma(rng, &pool);
        let analysed = satisfiable(&sigma).is_satisfiable();
        let brute = brute_force_satisfiable(&sigma, &pool);
        assert_eq!(analysed, brute);
    });
}

/// When satisfiable, the analysis's witness tuple really satisfies Σ.
#[test]
fn satisfiability_witness_is_genuine() {
    trials(48, 0x317E55, |rng| {
        let pool = ValuePool::new_handle();
        let sigma = rand_sigma(rng, &pool);
        if let cfd_cfd::satisfiability::Satisfiability::Satisfiable(w) = satisfiable(&sigma) {
            let mut rel = Relation::new_in(schema(), pool);
            rel.insert(Tuple::new_in(w, rel.pool())).unwrap();
            assert!(check(&rel, &sigma), "witness must satisfy sigma");
        }
    });
}
