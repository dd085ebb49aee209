//! Satisfiability analysis for sets of CFDs.
//!
//! Unlike traditional FDs, a set of CFDs may be unsatisfiable (§2): pattern
//! rows can contradict each other, e.g. `(A = _ → B = b1)` together with
//! `(A = _ → B = b2)`. The paper's framework assumes satisfiable CFDs, and
//! its sampling loop lets users *edit* Σ, so the analysis is needed to
//! validate user input.
//!
//! We use the single-tuple witness characterization (Bohannon et al., ICDE
//! 2007): a set Σ over one relation is satisfiable iff some *single* tuple
//! `t` satisfies it, because (a) removing tuples from a satisfying instance
//! never introduces violations, and (b) a single tuple vacuously satisfies
//! every variable CFD. This reduces satisfiability to a constraint-
//! satisfaction search over a finite domain: for each attribute, the
//! constants mentioned by Σ's patterns for that attribute plus one fresh
//! "other" symbol (two constants outside the mentioned set are
//! indistinguishable to Σ).
//!
//! Satisfiability is NP-complete in general but PTIME for a fixed schema;
//! the backtracking search below with forward propagation is exponential in
//! the arity only, which is fixed for any concrete schema.

use std::collections::BTreeSet;

use cfd_model::{AttrId, Schema, Value};

use crate::cfd::{NormalCfd, Sigma};
use crate::pattern::PatternValue;

/// A symbolic candidate value during the witness search.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Sym {
    /// A concrete constant mentioned by some pattern.
    Const(Value),
    /// "Some value different from every mentioned constant."
    Fresh,
}

impl Sym {
    fn matches(&self, p: &PatternValue) -> bool {
        match (p, self) {
            (PatternValue::Wildcard, _) => true,
            (PatternValue::Const(c), Sym::Const(v)) => c == v,
            (PatternValue::Const(_), Sym::Fresh) => false,
        }
    }
}

/// Candidate domain per attribute: pattern constants plus `Fresh`.
fn domains(sigma: &Sigma) -> Vec<Vec<Sym>> {
    let arity = sigma.schema().arity();
    let mut consts: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); arity];
    for n in sigma.iter() {
        for (a, p) in n.lhs().iter().zip(n.lhs_pattern()) {
            if let Some(v) = p.as_const() {
                consts[a.index()].insert(v.clone());
            }
        }
        if let Some(v) = n.rhs_pattern().as_const() {
            consts[n.rhs_attr().index()].insert(v.clone());
        }
    }
    consts
        .into_iter()
        .map(|set| {
            let mut dom: Vec<Sym> = set.into_iter().map(Sym::Const).collect();
            dom.push(Sym::Fresh);
            dom
        })
        .collect()
}

/// Check a partial assignment against one constant normal CFD. Returns
/// `false` when the CFD is already *definitely* violated.
fn consistent(n: &NormalCfd, assign: &[Option<Sym>]) -> bool {
    debug_assert!(n.is_constant());
    // If any LHS attribute is assigned and fails its pattern, the CFD can
    // never fire for this tuple: fine.
    let mut lhs_all_assigned = true;
    for (a, p) in n.lhs().iter().zip(n.lhs_pattern()) {
        match &assign[a.index()] {
            Some(sym) => {
                if !sym.matches(p) {
                    return true;
                }
            }
            None => lhs_all_assigned = false,
        }
    }
    if !lhs_all_assigned {
        return true; // LHS could still end up non-matching
    }
    // LHS fully matches: RHS must match if assigned.
    match &assign[n.rhs_attr().index()] {
        Some(sym) => sym.matches(n.rhs_pattern()),
        None => true,
    }
}

fn search(
    attrs: &[AttrId],
    pos: usize,
    doms: &[Vec<Sym>],
    constant_cfds: &[&NormalCfd],
    assign: &mut Vec<Option<Sym>>,
) -> bool {
    if pos == attrs.len() {
        return true;
    }
    let a = attrs[pos];
    for sym in &doms[a.index()] {
        assign[a.index()] = Some(sym.clone());
        let ok = constant_cfds
            .iter()
            .filter(|n| n.mentions(a))
            .all(|n| consistent(n, assign));
        if ok && search(attrs, pos + 1, doms, constant_cfds, assign) {
            return true;
        }
    }
    assign[a.index()] = None;
    false
}

/// Result of the satisfiability analysis.
#[derive(Clone, Debug)]
pub enum Satisfiability {
    /// Σ is satisfiable; a witness tuple's values are provided in schema
    /// order (fresh symbols are rendered as `⋆<attr>` constants,
    /// guaranteed distinct from every pattern constant).
    Satisfiable(Vec<Value>),
    /// No single tuple — hence no non-empty instance — satisfies Σ.
    Unsatisfiable,
}

impl Satisfiability {
    /// Is Σ satisfiable?
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, Satisfiability::Satisfiable(_))
    }
}

/// Decide satisfiability of `sigma`, producing a witness when satisfiable.
pub fn satisfiable(sigma: &Sigma) -> Satisfiability {
    let schema: &Schema = sigma.schema();
    let doms = domains(sigma);
    let constant_cfds: Vec<&NormalCfd> = sigma.iter().filter(|n| n.is_constant()).collect();
    // Order attributes by most-constrained-first: attributes with more
    // constant CFDs on their RHS fail earlier, pruning the search.
    let mut attrs: Vec<AttrId> = schema.attr_ids().collect();
    attrs.sort_by_key(|a| {
        std::cmp::Reverse(constant_cfds.iter().filter(|n| n.rhs_attr() == *a).count())
    });
    let mut assign: Vec<Option<Sym>> = vec![None; schema.arity()];
    if search(&attrs, 0, &doms, &constant_cfds, &mut assign) {
        let values = assign
            .into_iter()
            .enumerate()
            .map(|(i, s)| match s.expect("search assigned every attribute") {
                Sym::Const(v) => v,
                Sym::Fresh => Value::str(format!("⋆{}", schema.attr_name(AttrId(i as u16)))),
            })
            .collect();
        Satisfiability::Satisfiable(values)
    } else {
        Satisfiability::Unsatisfiable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::Cfd;
    use crate::pattern::PatternRow;
    use crate::violation;
    use cfd_model::{Relation, Tuple, ValuePool};

    fn schema2() -> Schema {
        Schema::new("r", &["A", "B"]).unwrap()
    }

    fn cfd(name: &str, s: &Schema, lhs_pat: PatternValue, rhs_pat: PatternValue) -> Cfd {
        Cfd::new(
            name,
            vec![s.attr("A").unwrap()],
            vec![s.attr("B").unwrap()],
            vec![PatternRow::new(vec![lhs_pat], vec![rhs_pat])],
        )
        .unwrap()
    }

    #[test]
    fn contradictory_wildcard_rows_unsatisfiable() {
        let s = schema2();
        let sigma = Sigma::normalize_in(
            s.clone(),
            vec![
                cfd(
                    "c1",
                    &s,
                    PatternValue::Wildcard,
                    PatternValue::constant("b1"),
                ),
                cfd(
                    "c2",
                    &s,
                    PatternValue::Wildcard,
                    PatternValue::constant("b2"),
                ),
            ],
            &ValuePool::new(),
        )
        .unwrap();
        assert!(!satisfiable(&sigma).is_satisfiable());
    }

    #[test]
    fn conditioned_rows_are_satisfiable() {
        let s = schema2();
        // A=a1 → B=b1 and A=a2 → B=b2: pick A outside {a1, a2} or either.
        let sigma = Sigma::normalize_in(
            s.clone(),
            vec![
                cfd(
                    "c1",
                    &s,
                    PatternValue::constant("a1"),
                    PatternValue::constant("b1"),
                ),
                cfd(
                    "c2",
                    &s,
                    PatternValue::constant("a2"),
                    PatternValue::constant("b2"),
                ),
            ],
            &ValuePool::new(),
        )
        .unwrap();
        let result = satisfiable(&sigma);
        assert!(result.is_satisfiable());
    }

    #[test]
    fn witness_actually_satisfies_sigma() {
        let s = schema2();
        let pool = ValuePool::new_handle();
        let sigma = Sigma::normalize_in(
            s.clone(),
            vec![
                cfd(
                    "c1",
                    &s,
                    PatternValue::constant("a1"),
                    PatternValue::constant("b1"),
                ),
                cfd(
                    "c2",
                    &s,
                    PatternValue::Wildcard,
                    PatternValue::constant("b1"),
                ),
            ],
            &pool,
        )
        .unwrap();
        match satisfiable(&sigma) {
            Satisfiability::Satisfiable(witness) => {
                let mut rel = Relation::new_in(s, pool);
                rel.insert(Tuple::new_in(witness, rel.pool())).unwrap();
                assert!(violation::check(&rel, &sigma));
            }
            Satisfiability::Unsatisfiable => panic!("expected satisfiable"),
        }
    }

    #[test]
    fn forced_chain_detected() {
        // A=_ → B=b1, B=b1 → C=c1, C=c1 incompatible with C=_→… no wait:
        // make a chain whose end contradicts the start.
        let s = Schema::new("r", &["A", "B", "C"]).unwrap();
        let ab = Cfd::new(
            "ab",
            vec![s.attr("A").unwrap()],
            vec![s.attr("B").unwrap()],
            vec![PatternRow::new(
                vec![PatternValue::Wildcard],
                vec![PatternValue::constant("b1")],
            )],
        )
        .unwrap();
        let bc = Cfd::new(
            "bc",
            vec![s.attr("B").unwrap()],
            vec![s.attr("C").unwrap()],
            vec![PatternRow::new(
                vec![PatternValue::constant("b1")],
                vec![PatternValue::constant("c1")],
            )],
        )
        .unwrap();
        let c_not = Cfd::new(
            "c_not",
            vec![s.attr("C").unwrap()],
            vec![s.attr("A").unwrap()],
            vec![PatternRow::new(
                vec![PatternValue::constant("c1")],
                vec![PatternValue::constant("a9")],
            )],
        )
        .unwrap();
        // Chain forces B=b1, C=c1, A=a9 — consistent, so satisfiable.
        let sigma = Sigma::normalize_in(
            s.clone(),
            vec![ab.clone(), bc.clone(), c_not],
            &ValuePool::new(),
        )
        .unwrap();
        assert!(satisfiable(&sigma).is_satisfiable());
        // Now add A=a9 → B=b2, contradicting B=b1: unsatisfiable? No —
        // the witness can not escape: every A matches `_` so B=b1 always;
        // B=b1 forces C=c1; C=c1 forces A=a9; A=a9 forces B=b2 ≠ b1.
        let a9b2 = Cfd::new(
            "a9b2",
            vec![s.attr("A").unwrap()],
            vec![s.attr("B").unwrap()],
            vec![PatternRow::new(
                vec![PatternValue::constant("a9")],
                vec![PatternValue::constant("b2")],
            )],
        )
        .unwrap();
        let c_not2 = Cfd::new(
            "c_not2",
            vec![s.attr("C").unwrap()],
            vec![s.attr("A").unwrap()],
            vec![PatternRow::new(
                vec![PatternValue::constant("c1")],
                vec![PatternValue::constant("a9")],
            )],
        )
        .unwrap();
        let sigma2 = Sigma::normalize_in(s, vec![ab, bc, c_not2, a9b2], &ValuePool::new()).unwrap();
        assert!(!satisfiable(&sigma2).is_satisfiable());
    }

    #[test]
    fn variable_cfds_never_block_satisfiability() {
        let s = schema2();
        let fd = Cfd::standard_fd("fd", vec![s.attr("A").unwrap()], vec![s.attr("B").unwrap()]);
        let sigma = Sigma::normalize_in(s, vec![fd], &ValuePool::new()).unwrap();
        assert!(satisfiable(&sigma).is_satisfiable());
    }

    #[test]
    fn empty_sigma_satisfiable() {
        let s = schema2();
        let sigma = Sigma::normalize_in(s, vec![], &ValuePool::new()).unwrap();
        assert!(satisfiable(&sigma).is_satisfiable());
    }
}
