//! Integration tests for the violation engine's indexing layers:
//! `ConstantRules`, `minimal_variable_ids`, and `Engine::vio_of` must agree
//! with the naive per-CFD definitions on mixed tableaus.

use cfd_cfd::pattern::{PatternRow, PatternValue};
use cfd_cfd::violation::{detect, minimal_variable_ids, ConstantRules, Engine};
use cfd_cfd::{Cfd, Sigma};
use cfd_model::{Relation, Schema, Tuple, Value, ValuePool};

fn schema() -> Schema {
    Schema::new("r", &["ac", "pn", "ct", "st"]).unwrap()
}

/// A tableau mixing the wildcard FD row with constant rows — the Fig. 1
/// shape that produces redundant variable components.
fn mixed_sigma(s: &Schema, pool: &ValuePool) -> Sigma {
    let cfd = Cfd::new(
        "phi",
        vec![s.attr("ac").unwrap(), s.attr("pn").unwrap()],
        vec![s.attr("ct").unwrap(), s.attr("st").unwrap()],
        vec![
            PatternRow::all_wildcards(2, 2),
            PatternRow::new(
                vec![PatternValue::constant("212"), PatternValue::Wildcard],
                vec![PatternValue::constant("NYC"), PatternValue::constant("NY")],
            ),
            PatternRow::new(
                vec![PatternValue::constant("610"), PatternValue::Wildcard],
                vec![PatternValue::constant("PHI"), PatternValue::constant("PA")],
            ),
        ],
    )
    .unwrap();
    Sigma::normalize_in(s.clone(), vec![cfd], pool).unwrap()
}

#[test]
fn minimal_variable_set_collapses_redundant_rows() {
    let s = schema();
    let sigma = mixed_sigma(&s, &ValuePool::new());
    // normal CFDs: 3 rows × 2 rhs = 6; variable ones: row0 ct, row0 st
    // (rows 1–2 are fully constant)
    let minimal = minimal_variable_ids(&sigma);
    assert_eq!(minimal.len(), 2);
    for id in &minimal {
        let n = sigma.get(*id);
        assert!(!n.is_constant());
        assert!(n.lhs_pattern().iter().all(|p| p.is_wildcard()));
    }
}

#[test]
fn duplicate_variable_rows_dedupe_to_one() {
    let s = schema();
    let fd1 = Cfd::standard_fd(
        "f1",
        vec![s.attr("ac").unwrap()],
        vec![s.attr("ct").unwrap()],
    );
    let fd2 = Cfd::standard_fd(
        "f2",
        vec![s.attr("ac").unwrap()],
        vec![s.attr("ct").unwrap()],
    );
    let sigma = Sigma::normalize_in(s.clone(), vec![fd1, fd2], &ValuePool::new()).unwrap();
    let minimal = minimal_variable_ids(&sigma);
    assert_eq!(minimal.len(), 1, "identical FDs collapse to one check");
}

#[test]
fn constant_rules_fire_exactly_on_matching_tuples() {
    let s = schema();
    let pool = ValuePool::new();
    let sigma = mixed_sigma(&s, &pool);
    let rules = ConstantRules::build(&sigma);
    let hit = Tuple::new_in(["212", "5551234", "NYC", "NY"], &pool);
    let miss = Tuple::new_in(["215", "5551234", "PHI", "PA"], &pool);
    let null_lhs = Tuple::new_in(
        vec![
            Value::str("212"),
            Value::Null,
            Value::str("NYC"),
            Value::str("NY"),
        ],
        &pool,
    );
    let mut fired = 0;
    rules.for_each_fired(&hit, |_, _| fired += 1);
    assert_eq!(fired, 2, "212-row fires for ct and st");
    fired = 0;
    rules.for_each_fired(&miss, |_, _| fired += 1);
    assert_eq!(fired, 0);
    fired = 0;
    rules.for_each_fired(&null_lhs, |_, _| fired += 1);
    assert_eq!(fired, 0, "null in LHS blocks pattern match");
    // violations_of counts failing obligations only
    let bad = Tuple::new_in(["212", "5551234", "PHI", "NY"], &pool);
    assert_eq!(rules.violations_of(&bad, None), 1);
    let worse = Tuple::new_in(["212", "5551234", "PHI", "PA"], &pool);
    assert_eq!(rules.violations_of(&worse, None), 2);
}

#[test]
fn engine_vio_matches_detect_for_in_relation_tuples() {
    let s = schema();
    let mut rel = Relation::new_in(s.clone(), ValuePool::new_handle());
    let sigma = mixed_sigma(&s, rel.pool());
    for row in [
        ["212", "1111111", "NYC", "NY"],
        ["212", "2222222", "PHI", "PA"], // 2 constant violations
        ["610", "3333333", "PHI", "PA"],
        ["610", "3333333", "PHI", "PA"],
        ["999", "4444444", "AAA", "BB"],
        ["999", "4444444", "CCC", "BB"], // variable ct conflict with ↑
    ] {
        rel.insert(Tuple::new_in(row, rel.pool())).unwrap();
    }
    let engine = Engine::build(&rel, &sigma);
    let report = detect(&rel, &sigma);
    for (id, t) in rel.iter() {
        assert_eq!(
            engine.vio_of(&rel, &t, Some(id)),
            report.vio(id),
            "vio mismatch at {id}"
        );
    }
}

#[test]
fn engine_vio_of_candidate_counts_prospective_conflicts() {
    let s = schema();
    let mut rel = Relation::new_in(s.clone(), ValuePool::new_handle());
    let sigma = mixed_sigma(&s, rel.pool());
    rel.insert(Tuple::new_in(["999", "4444444", "AAA", "BB"], rel.pool()))
        .unwrap();
    let engine = Engine::build(&rel, &sigma);
    // candidate joining the (999, 4444444) group with a different ct
    let cand = Tuple::new_in(["999", "4444444", "ZZZ", "BB"], rel.pool());
    assert_eq!(engine.vio_of(&rel, &cand, None), 1);
    // same values: no conflict
    let same = Tuple::new_in(["999", "4444444", "AAA", "BB"], rel.pool());
    assert_eq!(engine.vio_of(&rel, &same, None), 0);
    // constant violation counts too
    let constant_bad = Tuple::new_in(["212", "7777777", "PHI", "NY"], rel.pool());
    assert_eq!(engine.vio_of(&rel, &constant_bad, None), 1);
}
