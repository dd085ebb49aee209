//! Robustness tests for the repair engine: the failure modes that broke
//! naive implementations of the paper's pseudo-code, kept as regression
//! tests. Each scenario is a miniature of a cascade observed on the full
//! workload.

use cfd_cfd::pattern::{PatternRow, PatternValue};
use cfd_cfd::violation::check;
use cfd_cfd::{Cfd, Sigma};
use cfd_model::{AttrId, Relation, Schema, Tuple, TupleId, Value, ValuePool};
use cfd_repair::{batch_repair, BatchConfig};

fn c(s: &str) -> PatternValue {
    PatternValue::constant(s)
}
const W: PatternValue = PatternValue::Wildcard;

/// The t1019 scenario: a corrupted "country" drags a tuple into a foreign
/// group of a low-cardinality FD; without suspect deferral the merge glues
/// the groups and a later constant fix rewrites the whole class.
#[test]
fn corrupted_group_key_does_not_contaminate_the_group() {
    let pool = ValuePool::new_handle();
    let schema = Schema::new("r", &["st", "cty", "vat"]).unwrap();
    let st = schema.attr("st").unwrap();
    let cty = schema.attr("cty").unwrap();
    let vat = schema.attr("vat").unwrap();
    // ST → CTY with constant rows; CTY → VAT as FD (variable).
    let st_cty = Cfd::new(
        "st_cty",
        vec![st],
        vec![cty],
        vec![
            PatternRow::all_wildcards(1, 1),
            PatternRow::new(vec![c("AZ")], vec![c("GBR")]),
            PatternRow::new(vec![c("ON")], vec![c("CAN")]),
        ],
    )
    .unwrap();
    let cty_vat = Cfd::standard_fd("cty_vat", vec![cty], vec![vat]);
    let sigma = Sigma::normalize_in(schema.clone(), vec![st_cty, cty_vat], &pool).unwrap();

    let mut rel = Relation::new_in(schema, pool.clone());
    // a healthy CAN population
    for i in 0..30 {
        let mut t = Tuple::new_in(["ON", "CAN", "0.05"], &pool);
        t.set_weight(AttrId(0), 0.8 + (i % 3) as f64 * 0.05);
        rel.insert(t).unwrap();
    }
    // one GBR tuple whose CTY cell was corrupted to CAN (low weight marks
    // the dirt); its VAT still carries GBR's 0.20.
    let mut bad = Tuple::new_in(["AZ", "CAN", "0.20"], &pool);
    bad.set_weight(AttrId(1), 0.1);
    let bad_id = rel.insert(bad).unwrap();

    let out = batch_repair(&rel, &sigma, BatchConfig::default()).unwrap();
    assert!(check(&out.repair, &sigma));
    // the CAN population must be untouched
    for (id, t) in out.repair.iter() {
        if id == bad_id {
            continue;
        }
        assert_eq!(
            t.value(AttrId(2)),
            Value::str("0.05"),
            "CAN tuple {id} damaged"
        );
        assert_eq!(
            t.value(AttrId(1)),
            Value::str("CAN"),
            "CAN tuple {id} damaged"
        );
    }
    // the corrupted tuple is restored to GBR (the ST row pins it) and its
    // VAT stays 0.20
    let fixed = out.repair.tuple(bad_id).unwrap();
    assert_eq!(fixed.value(AttrId(1)), Value::str("GBR"));
    assert_eq!(fixed.value(AttrId(2)), Value::str("0.20"));
}

/// A corrupted pattern key (the zip-swap scenario): the repair must fix the
/// cheap dirty key, not drag the pattern-bound attributes to the wrong
/// binding.
#[test]
fn corrupted_pattern_key_is_restored_not_propagated() {
    let pool = ValuePool::new_handle();
    let schema = Schema::new("r", &["zip", "ct", "st"]).unwrap();
    let zip = schema.attr("zip").unwrap();
    let ct = schema.attr("ct").unwrap();
    let st = schema.attr("st").unwrap();
    let phi2 = Cfd::new(
        "phi2",
        vec![zip],
        vec![ct, st],
        vec![
            PatternRow::all_wildcards(1, 2),
            PatternRow::new(vec![c("10012")], vec![c("NYC"), c("NY")]),
            PatternRow::new(vec![c("19014")], vec![c("PHI"), c("PA")]),
        ],
    )
    .unwrap();
    let sigma = Sigma::normalize_in(schema.clone(), vec![phi2], &pool).unwrap();
    let mut rel = Relation::new_in(schema, pool.clone());
    // several clean Philadelphia rows establish the S-set for FINDV
    for _ in 0..5 {
        rel.insert(Tuple::new_in(["19014", "PHI", "PA"], &pool))
            .unwrap();
    }
    // one row whose zip was swapped to the NYC zip (dirty, low weight)
    let mut bad = Tuple::new_in(["10012", "PHI", "PA"], &pool);
    bad.set_weight(AttrId(0), 0.1);
    let bad_id = rel.insert(bad).unwrap();
    let out = batch_repair(&rel, &sigma, BatchConfig::default()).unwrap();
    assert!(check(&out.repair, &sigma));
    let fixed = out.repair.tuple(bad_id).unwrap();
    // city/state must survive; the zip is rebound to the Philadelphia zip
    assert_eq!(fixed.value(ct), Value::str("PHI"));
    assert_eq!(fixed.value(st), Value::str("PA"));
    assert_eq!(fixed.value(zip), Value::str("19014"));
}

/// Majority voting inside merged classes: a 1-vs-N value conflict must
/// resolve toward the majority when weights are equal.
#[test]
fn merged_class_resolves_to_majority_value() {
    let pool = ValuePool::new_handle();
    let schema = Schema::new("r", &["k", "v"]).unwrap();
    let fd = Cfd::standard_fd(
        "kv",
        vec![schema.attr("k").unwrap()],
        vec![schema.attr("v").unwrap()],
    );
    let sigma = Sigma::normalize_in(schema.clone(), vec![fd], &pool).unwrap();
    let mut rel = Relation::new_in(schema.clone(), pool.clone());
    for _ in 0..4 {
        rel.insert(Tuple::new_in(["key", "majority"], &pool))
            .unwrap();
    }
    let odd = rel
        .insert(Tuple::new_in(["key", "minority"], &pool))
        .unwrap();
    let out = batch_repair(&rel, &sigma, BatchConfig::default()).unwrap();
    assert!(check(&out.repair, &sigma));
    let v = schema.attr("v").unwrap();
    assert_eq!(
        out.repair.tuple(odd).unwrap().value(v),
        Value::str("majority")
    );
    for (_, t) in out.repair.iter() {
        assert_eq!(t.value(v), Value::str("majority"));
    }
}

/// Step bound: repairs never exceed the termination budget even on inputs
/// where every tuple conflicts with every other.
#[test]
fn pathological_all_conflicting_input_terminates() {
    let pool = ValuePool::new_handle();
    let schema = Schema::new("r", &["k", "v"]).unwrap();
    let fd = Cfd::standard_fd(
        "kv",
        vec![schema.attr("k").unwrap()],
        vec![schema.attr("v").unwrap()],
    );
    let sigma = Sigma::normalize_in(schema.clone(), vec![fd], &pool).unwrap();
    let mut rel = Relation::new_in(schema, pool.clone());
    for i in 0..60 {
        rel.insert(Tuple::new_in(["k", &format!("v{i}")[..]], &pool))
            .unwrap();
    }
    let out = batch_repair(&rel, &sigma, BatchConfig::default()).unwrap();
    assert!(check(&out.repair, &sigma));
    // All 60 values must end up equal. Group-majority reconciliation can
    // settle two minority cells per merge (both sides of a merge are
    // written to the group winner), so the merge count is below 59 — the
    // invariant is value unification, not class unification.
    let v = out.repair.schema().attr("v").unwrap();
    let first = out
        .repair
        .iter()
        .next()
        .map(|(_, t)| t.value(v).clone())
        .unwrap();
    for (_, t) in out.repair.iter() {
        assert_eq!(t.value(v), first);
    }
    assert!(out.stats.merges >= 1);
    let cells = 60 * 2;
    assert!(out.stats.steps <= 8 * cells + 64);
}

/// Unsatisfiable-in-context demands fall back to null, never loop.
#[test]
fn contradictory_constants_resolve_with_null_not_livelock() {
    let pool = ValuePool::new_handle();
    let schema = Schema::new("r", &["a", "b"]).unwrap();
    let a = schema.attr("a").unwrap();
    let b = schema.attr("b").unwrap();
    let c1 = Cfd::new(
        "c1",
        vec![a],
        vec![b],
        vec![PatternRow::new(vec![c("x")], vec![c("p")])],
    )
    .unwrap();
    let c2 = Cfd::new(
        "c2",
        vec![a],
        vec![b],
        vec![PatternRow::new(vec![c("x")], vec![c("q")])],
    )
    .unwrap();
    let sigma = Sigma::normalize_in(schema.clone(), vec![c1, c2], &pool).unwrap();
    let mut rel = Relation::new_in(schema, pool.clone());
    for _ in 0..10 {
        rel.insert(Tuple::new_in(["x", "p"], &pool)).unwrap();
    }
    let out = batch_repair(&rel, &sigma, BatchConfig::default()).unwrap();
    assert!(check(&out.repair, &sigma));
    // every tuple needed either a nulled b or an escaped a
    for (_, t) in out.repair.iter() {
        assert!(t.value(b).is_null() || t.value(a) != Value::str("x"));
    }
    let _ = W;
    let _ = TupleId(0);
}

/// The tid-2258 snowball scenario: one corrupted LHS cell bridges two
/// clean groups of a variable CFD. Pairwise merge pricing made the first
/// zip-class merge a coin flip on two near-equal clean weights; when the
/// bridging tuple won, every later merge pitted the grown class against
/// one more lone clean cell and the whole 16-tuple group snowballed to
/// the wrong binding (~110 wrong cells from 1 corruption). Group-majority
/// pricing must keep the clean group intact regardless of the two
/// cells' relative weights.
#[test]
fn bridging_tuple_does_not_snowball_a_clean_group() {
    let pool = ValuePool::new_handle();
    let schema = Schema::new("r", &["ct", "str", "zip"]).unwrap();
    let ct = schema.attr("ct").unwrap();
    let strt = schema.attr("str").unwrap();
    let zip = schema.attr("zip").unwrap();
    // [CT, STR] → zip as a pure FD (no constants anywhere: the winner can
    // only come from group support).
    let fd4 = Cfd::standard_fd("fd4", vec![ct, strt], vec![zip]);
    let sigma = Sigma::normalize_in(schema.clone(), vec![fd4], &pool).unwrap();

    let mut rel = Relation::new_in(schema, pool.clone());
    // Group A: (Clinfield, Front St) → 10525, sixteen clean rows.
    let mut group_a = Vec::new();
    for i in 0..16 {
        let mut t = Tuple::new_in(["Clinfield", "Front St", "10525"], &pool);
        // clean-range weights, deliberately *lower* than the bridge's zip
        // weight so a pairwise comparison of the first two cells would
        // favour the wrong side
        t.set_weight(AttrId(2), 0.5 + (i % 4) as f64 * 0.02);
        group_a.push(rel.insert(t).unwrap());
    }
    // Group B: (Clinfield, Canel St) → 10539, a few clean rows.
    for _ in 0..4 {
        rel.insert(Tuple::new_in(["Clinfield", "Canel St", "10539"], &pool))
            .unwrap();
    }
    // The bridge: a group-B row whose STR was corrupted to "Front St".
    // Its zip cell is *clean* (high weight) — only the STR is dirty.
    let mut bridge = Tuple::new_in(["Clinfield", "Front St", "10539"], &pool);
    bridge.set_weight(AttrId(1), 0.15);
    bridge.set_weight(AttrId(2), 0.95);
    let bridge_id = rel.insert(bridge).unwrap();

    let out = batch_repair(&rel, &sigma, BatchConfig::default()).unwrap();
    assert!(check(&out.repair, &sigma));
    // Group A must be untouched: all sixteen rows keep zip 10525.
    for id in group_a {
        assert_eq!(
            out.repair.tuple(id).unwrap().value(zip),
            Value::str("10525"),
            "clean group-A tuple {id} was dragged by the bridge"
        );
    }
    // The bridge lost the majority vote: its zip moved to group A's.
    assert_eq!(
        out.repair.tuple(bridge_id).unwrap().value(zip),
        Value::str("10525")
    );
}

/// The t5292 scenario: a doubly-corrupted tuple gets one cell correctly
/// repaired and *pinned* (constant target), but its other corruption (a
/// group key) still parks it in a foreign group of a variable CFD. A
/// Const/Free merge is forced to adopt the pinned constant regardless of
/// group support, so without the escape hatch the foreign group flips
/// member by member. The repair must instead rewrite the corrupted group
/// key and leave the group intact.
#[test]
fn pinned_constant_does_not_flip_a_foreign_group() {
    let pool = ValuePool::new_handle();
    let schema = Schema::new("r", &["ct", "str", "zip", "ac"]).unwrap();
    let ct = schema.attr("ct").unwrap();
    let strt = schema.attr("str").unwrap();
    let zip = schema.attr("zip").unwrap();
    let ac = schema.attr("ac").unwrap();
    // Variable CFD: [CT, STR] → zip; constant CFD: zip → AC bindings.
    let fd4 = Cfd::standard_fd("fd4", vec![ct, strt], vec![zip]);
    let phi5 = Cfd::new(
        "phi5",
        vec![zip],
        vec![ac],
        vec![
            PatternRow::all_wildcards(1, 1),
            PatternRow::new(vec![c("11743")], vec![c("349")]),
            PatternRow::new(vec![c("11757")], vec![c("351")]),
        ],
    )
    .unwrap();
    let sigma = Sigma::normalize_in(schema.clone(), vec![fd4, phi5], &pool).unwrap();

    let mut rel = Relation::new_in(schema, pool.clone());
    // The healthy group: (Riverfield, Dock St) → 11743, AC 349.
    let mut group = Vec::new();
    for _ in 0..12 {
        group.push(
            rel.insert(Tuple::new_in(
                ["Riverfield", "Dock St", "11743", "349"],
                &pool,
            ))
            .unwrap(),
        );
    }
    // A second binding elsewhere: (Riverfield, Main St) → 11757, AC 351.
    for _ in 0..6 {
        rel.insert(Tuple::new_in(
            ["Riverfield", "Main St", "11757", "351"],
            &pool,
        ))
        .unwrap();
    }
    // The suspect: truly a Main-St/11757 tuple, but with *two* corruptions:
    // its zip reads 11743 (so phi5 will repair-and-pin it back to 11757 via
    // the LHS change, AC=351 being clean and heavy) and its STR reads
    // "Dock St" (parking it in the healthy group).
    let mut bad = Tuple::new_in(["Riverfield", "Dock St", "11743", "351"], &pool);
    bad.set_weight(AttrId(1), 0.12); // dirty STR
    bad.set_weight(AttrId(2), 0.15); // dirty zip
    bad.set_weight(AttrId(3), 0.95); // clean AC — the anchor
    let bad_id = rel.insert(bad).unwrap();

    let out = batch_repair(&rel, &sigma, BatchConfig::default()).unwrap();
    assert!(check(&out.repair, &sigma));
    // The healthy group keeps its binding.
    for id in group {
        let t = out.repair.tuple(id).unwrap();
        assert_eq!(
            t.value(zip),
            Value::str("11743"),
            "group tuple {id} zip flipped"
        );
        assert_eq!(
            t.value(ac),
            Value::str("349"),
            "group tuple {id} ac flipped"
        );
    }
    // The suspect ends consistent without damaging the group; its AC
    // anchor must survive.
    assert_eq!(
        out.repair.tuple(bad_id).unwrap().value(ac),
        Value::str("351")
    );
}
