//! The paper's running example, end to end: the Fig. 1 `order` data and
//! CFDs ϕ1–ϕ4, tuple `t5` of Example 1.1, the ϕ1/ϕ2 oscillation of
//! Example 4.1, and Example 5.1's k-sensitivity.

use cfdclean::cfd::parser::parse_rules;
use cfdclean::cfd::satisfiability::satisfiable;
use cfdclean::cfd::violation::{check, detect};
use cfdclean::cfd::Sigma;
use cfdclean::model::{Relation, Schema, Tuple, TupleId, Value, ValuePool};
use cfdclean::repair::{batch_repair, inc_repair, IncConfig};

const RULES: &str = "
# Fig. 1(b) and Fig. 2 of the paper
phi1: [AC, PN] -> [STR, CT, ST] {
  (212, _ || _, NYC, NY);
  (610, _ || _, PHI, PA);
  (215, _ || _, PHI, PA)
}
phi2: [zip] -> [CT, ST] {
  (10012 || NYC, NY);
  (19014 || PHI, PA)
}
phi3: [id] -> [name, PR]
phi4: [CT, STR] -> [zip]
";

fn schema() -> Schema {
    Schema::new(
        "order",
        &["id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip"],
    )
    .unwrap()
}

/// The paper's rules, bound into `rel`'s pool.
fn sigma(rel: &Relation) -> Sigma {
    let s = schema();
    let cfds = parse_rules(&s, RULES).expect("paper rules parse");
    Sigma::normalize_in(s, cfds, rel.pool()).expect("paper rules normalize")
}

/// Fig. 1(a) with the wt rows as weights.
fn fig1_data() -> Relation {
    let mut rel = Relation::new_in(schema(), ValuePool::new_handle());
    let rows: [(&[&str; 9], &[f64; 9]); 4] = [
        (
            &[
                "a23",
                "H. Porter",
                "17.99",
                "215",
                "8983490",
                "Walnut",
                "PHI",
                "PA",
                "19014",
            ],
            &[1.0, 0.5, 0.5, 0.5, 0.5, 0.8, 0.8, 0.8, 0.8],
        ),
        (
            &[
                "a23",
                "H. Porter",
                "17.99",
                "610",
                "3456789",
                "Spruce",
                "PHI",
                "PA",
                "19014",
            ],
            &[1.0, 0.5, 0.5, 0.5, 0.5, 0.6, 0.6, 0.6, 0.6],
        ),
        (
            &[
                "a12",
                "J. Denver",
                "7.94",
                "212",
                "3345677",
                "Canel",
                "PHI",
                "PA",
                "10012",
            ],
            &[1.0, 0.9, 0.9, 0.9, 0.9, 0.6, 0.1, 0.1, 0.8],
        ),
        (
            &[
                "a89",
                "Snow White",
                "18.99",
                "212",
                "5674322",
                "Broad",
                "PHI",
                "PA",
                "10012",
            ],
            &[1.0, 0.6, 0.5, 0.9, 0.9, 0.1, 0.6, 0.6, 0.9],
        ),
    ];
    for (values, weights) in rows {
        let id = rel.insert(Tuple::new_in(*values, rel.pool())).unwrap();
        rel.set_weights(id, weights).unwrap();
    }
    rel
}

#[test]
fn paper_sigma_is_satisfiable() {
    assert!(satisfiable(&sigma(&fig1_data())).is_satisfiable());
}

#[test]
fn fig1_satisfies_the_fds_but_not_the_cfds() {
    let rel = fig1_data();
    let sigma = sigma(&rel);
    // The embedded FDs hold on Fig. 1(a) ("Although the database of
    // Fig. 1(a) satisfies these FDs…").
    let fds = sigma.embedded_fds_in(rel.pool()).unwrap();
    assert!(check(&rel, &fds));
    // …but the CFDs are violated by t3 and t4.
    let report = detect(&rel, &sigma);
    assert_eq!(report.dirty_tuples(), vec![TupleId(2), TupleId(3)]);
}

#[test]
fn batch_repair_produces_the_intended_fig1_repair() {
    let rel = fig1_data();
    let sigma = sigma(&rel);
    let out = batch_repair(&rel, &sigma).unwrap();
    assert!(check(&out.repair, &sigma));
    // t3's low-confidence CT/ST (w = 0.1) are corrected to NYC/NY as in
    // Example 1.1 / 3.1.
    let s = schema();
    let t3 = out.repair.tuple(TupleId(2)).unwrap();
    assert_eq!(t3.value(s.attr("CT").unwrap()), Value::str("NYC"));
    assert_eq!(t3.value(s.attr("ST").unwrap()), Value::str("NY"));
}

#[test]
fn example_1_1_t5_incremental_insert() {
    // Start from the repaired (clean) Fig. 1 database.
    let rel = fig1_data();
    let sigma = sigma(&rel);
    let clean = batch_repair(&rel, &sigma).unwrap().repair;
    assert!(check(&clean, &sigma));
    // Insert t5 = (215, 8983490, …, NYC, NY, 10012): violates fd1 with t1
    // and sits in the ϕ1/ϕ2 cycle of Example 1.1.
    let t5 = Tuple::new_in(
        [
            "a55", "New Item", "9.99", "215", "8983490", "Walnut", "NYC", "NY", "10012",
        ],
        clean.pool(),
    );
    for k in [1, 2, 3] {
        let out = inc_repair(
            &clean,
            std::slice::from_ref(&t5),
            &sigma,
            IncConfig {
                k,
                max_combos: 4096,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(check(&out.repair, &sigma), "k = {k} must yield a repair");
        // the clean base is never modified
        for (id, t) in clean.iter() {
            assert_eq!(out.repair.tuple(id).unwrap(), t);
        }
    }
}

#[test]
fn example_4_1_oscillation_terminates_in_batch() {
    // The naive FD-style RHS-only strategy would flip t5[CT,ST] between
    // (PHI, PA) and (NYC, NY) forever; BATCHREPAIR's monotone targets
    // guarantee termination (Theorem 4.2).
    let rel = fig1_data();
    let sigma = sigma(&rel);
    let mut with_t5 = batch_repair(&rel, &sigma).unwrap().repair;
    let t5 = Tuple::new_in(
        [
            "a55", "New Item", "9.99", "215", "8983490", "Walnut", "NYC", "NY", "10012",
        ],
        with_t5.pool(),
    );
    with_t5.insert(t5).unwrap();
    let out = batch_repair(&with_t5, &sigma).unwrap();
    assert!(check(&out.repair, &sigma));
}

#[test]
fn example_5_1_certain_fix_needs_k3() {
    // With the cascade search enabled, k = 3 can rebind (CT, ST, zip) to
    // (PHI, PA, 19014) — Example 5.1's certain fix — while k = 2 over the
    // same attributes must fall back to nulls.
    let rel = fig1_data();
    let sigma = sigma(&rel);
    let clean = batch_repair(&rel, &sigma).unwrap().repair;
    let s = schema();
    let mut t5 = Tuple::new_in(
        [
            "a55", "New Item", "9.99", "215", "8983490", "Walnut", "NYC", "NY", "10012",
        ],
        clean.pool(),
    );
    // make the conflicted triple cheap, everything else precious
    for name in ["CT", "ST", "zip"] {
        t5.set_weight(s.attr(name).unwrap(), 0.05);
    }
    let cfg = IncConfig {
        k: 3,
        max_combos: 4096,
        restrict_to_failing: false,
        ..Default::default()
    };
    let out = inc_repair(&clean, &[t5], &sigma, cfg).unwrap();
    assert!(check(&out.repair, &sigma));
    let got = out.repair.tuple(out.delta_ids[0]).unwrap();
    assert_eq!(got.value(s.attr("CT").unwrap()), Value::str("PHI"));
    assert_eq!(got.value(s.attr("ST").unwrap()), Value::str("PA"));
    assert_eq!(got.value(s.attr("zip").unwrap()), Value::str("19014"));
    assert_eq!(out.stats.nulls_introduced, 0);
}

#[test]
fn deletions_never_need_repair() {
    // §3.3: "For any deletions ΔD, the tuples can be simply removed from D
    // without causing any CFD violation."
    let rel = fig1_data();
    let sigma = sigma(&rel);
    let mut clean = batch_repair(&rel, &sigma).unwrap().repair;
    clean.delete(TupleId(0)).unwrap();
    clean.delete(TupleId(3)).unwrap();
    assert!(check(&clean, &sigma));
}
