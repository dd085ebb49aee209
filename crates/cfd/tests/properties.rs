//! Randomized property tests for the CFD layer: the pattern match order
//! (value-level and interned id-level forms agree), the rule-file
//! parser/renderer pair, and the normal-form transformation.
//!
//! Each property runs seeded trials through `cfd_prng::trials`; failures
//! reproduce exactly from the seed.

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfd_cfd::parser::{parse_rules, render_cfd};
use cfd_cfd::pattern::{values_match, PatternRow, PatternValue};
use cfd_cfd::violation::check;
use cfd_cfd::{Cfd, Sigma};
use cfd_model::{Relation, Schema, Tuple, Value, ValueId, ValuePool};

const ARITY: usize = 4;

fn schema() -> Schema {
    Schema::new("r", &["a", "b", "c", "d"]).unwrap()
}

fn rand_value(rng: &mut ChaCha8Rng) -> Value {
    if rng.gen_range(0..4u32) == 0 {
        Value::Null
    } else {
        Value::str(format!("v{}", rng.gen_range(0..5u32)))
    }
}

fn rand_pattern(rng: &mut ChaCha8Rng) -> PatternValue {
    if rng.gen_range(0..3u32) == 0 {
        PatternValue::Wildcard
    } else {
        PatternValue::constant(format!("v{}", rng.gen_range(0..5u32)))
    }
}

/// A random CFD over the fixed schema: distinct lhs/rhs attributes plus a
/// tableau of 1–3 rows.
fn rand_cfd(rng: &mut ChaCha8Rng) -> Cfd {
    let l = rng.gen_range(0..ARITY);
    let r = rng.gen_range(0..ARITY);
    let lhs = vec![cfd_model::AttrId(l as u16)];
    let rhs_attr = if l == r { (r + 1) % ARITY } else { r };
    let rhs = vec![cfd_model::AttrId(rhs_attr as u16)];
    let rows: Vec<PatternRow> = (0..rng.gen_range(1..4usize))
        .map(|_| PatternRow::new(vec![rand_pattern(rng)], vec![rand_pattern(rng)]))
        .collect();
    Cfd::new("p", lhs, rhs, rows).expect("well-formed by construction")
}

fn rand_relation(rng: &mut ChaCha8Rng) -> Relation {
    let mut rel = Relation::new_in(schema(), ValuePool::new_handle());
    for _ in 0..rng.gen_range(1..12usize) {
        let row: Vec<Value> = (0..ARITY).map(|_| rand_value(rng)).collect();
        rel.insert(Tuple::new_in(row, rel.pool())).unwrap();
    }
    rel
}

/// The interned pattern form must agree with the value form on arbitrary
/// (pattern, value) pairs — both for matching (`≼`) and for RHS
/// satisfaction under the simple SQL null semantics. This is the §3.1
/// semantics contract of the dictionary-encoded path.
#[test]
fn pattern_id_form_agrees_with_value_form() {
    let pool = ValuePool::new();
    trials(500, 0x9A77E12, |rng| {
        let p = rand_pattern(rng);
        let v = rand_value(rng);
        let pid = p.to_id_in(&pool);
        let vid = pool.intern(&v);
        assert_eq!(pid.matches_id(vid), p.matches(&v), "{p} vs {v}");
        assert_eq!(pid.satisfied_by_id(vid), p.satisfied_by(&v), "{p} vs {v}");
    });
}

/// `values_match` against all-wildcards accepts every non-null row, and a
/// row of the pattern's own constants always matches.
#[test]
fn wildcards_match_everything_constants_match_themselves() {
    let pool = ValuePool::new();
    trials(128, 0x71D5, |rng| {
        let pats: Vec<PatternValue> = (0..rng.gen_range(1..5usize))
            .map(|_| rand_pattern(rng))
            .collect();
        let wilds = vec![PatternValue::Wildcard; pats.len()];
        let selfie: Vec<Value> = pats
            .iter()
            .map(|p| match p.as_const() {
                Some(v) => v.clone(),
                None => Value::str("anything"),
            })
            .collect();
        assert!(values_match(&selfie, &wilds));
        assert!(values_match(&selfie, &pats));
        // and the interned forms agree
        let ids: Vec<ValueId> = selfie.iter().map(|v| pool.intern(v)).collect();
        let pids: Vec<_> = pats.iter().map(|p| p.to_id_in(&pool)).collect();
        assert!(cfd_cfd::pattern::ids_match(&ids, &pids));
    });
}

/// Null never matches a pattern (CFDs only apply to tuples that match
/// precisely — §3.1 remark 2), in both representations.
#[test]
fn null_matches_no_pattern() {
    trials(128, 0x9017, |rng| {
        let p = rand_pattern(rng);
        assert!(!p.matches(&Value::Null));
        assert!(!p.to_id_in(&ValuePool::new()).matches_id(cfd_model::NULL_ID));
    });
}

/// `subsumed_by` is a partial order compatible with matching: if `p ⊑ q`
/// then everything matching `p` matches `q`.
#[test]
fn subsumption_implies_match_containment() {
    trials(256, 0x5B5, |rng| {
        let p = rand_pattern(rng);
        let q = rand_pattern(rng);
        let v = rand_value(rng);
        if p.subsumed_by(&q) && p.matches(&v) {
            assert!(q.matches(&v));
        }
        // reflexivity
        assert!(p.subsumed_by(&p));
        // wildcard is the top element
        assert!(p.subsumed_by(&PatternValue::Wildcard));
    });
}

/// Rendering a CFD to rule text and parsing it back preserves its
/// semantics: the two agree on every random relation.
#[test]
fn parser_round_trips_semantics() {
    trials(128, 0xAB5E, |rng| {
        let cfd = rand_cfd(rng);
        let s = schema();
        let text = render_cfd(&s, &cfd);
        let parsed = parse_rules(&s, &text).expect("rendered rules parse");
        assert_eq!(parsed.len(), 1);
        let rel = rand_relation(rng);
        let sig_a = Sigma::normalize_in(s.clone(), vec![cfd], rel.pool()).unwrap();
        let sig_b = Sigma::normalize_in(s.clone(), parsed, rel.pool()).unwrap();
        assert_eq!(
            check(&rel, &sig_a),
            check(&rel, &sig_b),
            "rule text:\n{text}"
        );
    });
}

/// Normalization preserves satisfaction: `D |= φ` under the source
/// tableau iff `D` satisfies every normalized `(X → A, tp)` row. The
/// reference check implements §2's semantics with the paper's null
/// conventions (§3.1 remarks) *on resolved values*, exercising the whole
/// id-encoded detection path against a value-level oracle.
#[test]
fn normalization_preserves_satisfaction() {
    trials(128, 0x0DDB, |rng| {
        fn sql_eq(a: &[Value], b: &[Value]) -> bool {
            a.iter()
                .zip(b)
                .all(|(x, y)| x.is_null() || y.is_null() || x == y)
        }
        fn rhs_ok(vals: &[Value], pats: &[PatternValue]) -> bool {
            vals.iter().zip(pats).all(|(v, p)| p.satisfied_by(v))
        }
        let cfd = rand_cfd(rng);
        let s = schema();
        let rel = rand_relation(rng);
        let sigma = Sigma::normalize_in(s, vec![cfd.clone()], rel.pool()).unwrap();
        // Direct §2 semantics on the *source* CFD, on resolved values.
        let direct = {
            let lhs = cfd.lhs().to_vec();
            let rhs = cfd.rhs().to_vec();
            let mut ok = true;
            'outer: for row in cfd.tableau() {
                let (lp, rp) = (&row.lhs[..], &row.rhs[..]);
                for (_, t1) in rel.iter() {
                    let t1l: Vec<Value> = lhs.iter().map(|a| t1.value(*a)).collect();
                    if !values_match(&t1l, lp) {
                        continue;
                    }
                    let t1r: Vec<Value> = rhs.iter().map(|a| t1.value(*a)).collect();
                    if !rhs_ok(&t1r, rp) {
                        ok = false;
                        break 'outer;
                    }
                    for (_, t2) in rel.iter() {
                        let t2l: Vec<Value> = lhs.iter().map(|a| t2.value(*a)).collect();
                        if t1l != t2l || !values_match(&t2l, lp) {
                            continue;
                        }
                        let t2r: Vec<Value> = rhs.iter().map(|a| t2.value(*a)).collect();
                        if !sql_eq(&t1r, &t2r) {
                            ok = false;
                            break 'outer;
                        }
                    }
                }
            }
            ok
        };
        assert_eq!(check(&rel, &sigma), direct);
    });
}

/// A relation of identical tuples satisfies any satisfiable single CFD
/// whose pattern it matches — weaker sanity net that exercises the
/// engine's group paths.
#[test]
fn uniform_relations_never_trip_variable_rows() {
    trials(64, 0x11F0, |rng| {
        let v = format!("v{}", rng.gen_range(0..5u32));
        let n = rng.gen_range(1..8usize);
        let s = schema();
        let fd = Cfd::standard_fd("fd", vec![s.attr("a").unwrap()], vec![s.attr("b").unwrap()]);
        let mut rel = Relation::new_in(s.clone(), ValuePool::new_handle());
        let sigma = Sigma::normalize_in(s, vec![fd], rel.pool()).unwrap();
        for _ in 0..n {
            rel.insert(Tuple::new_in([&v[..], &v[..], &v[..], &v[..]], rel.pool()))
                .unwrap();
        }
        assert!(check(&rel, &sigma));
    });
}
