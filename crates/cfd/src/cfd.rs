//! CFD types: the general form, the normal form, and checked sets.
//!
//! §2 of the paper: a CFD is `φ = (R: X → Y, Tp)`. Its *normal form* is
//! `(R: X → A, tp)` with a single RHS attribute and a single pattern tuple;
//! any CFD expands into one normal CFD per (pattern row × RHS attribute).
//! All repair algorithms, and the `Dirty_Tuples(φ)` bookkeeping of §4.2,
//! work on normal CFDs, so normalization assigns each one a dense
//! [`CfdId`].

use std::fmt;
use std::sync::Arc;

use cfd_model::{AttrId, ModelError, Schema, TupleView, ValuePool};

use crate::pattern::{intern_patterns_in, tuple_matches, PatternId, PatternRow, PatternValue};

/// A CFD in the paper's general form `(R: X → Y, Tp)`.
#[derive(Clone, Debug)]
pub struct Cfd {
    name: Arc<str>,
    lhs: Vec<AttrId>,
    rhs: Vec<AttrId>,
    tableau: Vec<PatternRow>,
}

impl Cfd {
    /// Build a CFD, validating that tableau rows align with `lhs`/`rhs` and
    /// that LHS and RHS are disjoint.
    ///
    /// The paper permits an attribute on both sides (distinguished as `AL` /
    /// `AR`); none of its algorithms or experiments exercise that corner, so
    /// we reject it up front rather than carry dead complexity. Overlapping
    /// CFDs can always be rewritten by splitting the RHS.
    pub fn new(
        name: &str,
        lhs: Vec<AttrId>,
        rhs: Vec<AttrId>,
        tableau: Vec<PatternRow>,
    ) -> Result<Self, ModelError> {
        for a in &rhs {
            if lhs.contains(a) {
                return Err(ModelError::DuplicateAttribute(format!(
                    "attribute {a} appears on both sides of CFD {name}"
                )));
            }
        }
        for row in &tableau {
            if row.lhs.len() != lhs.len() || row.rhs.len() != rhs.len() {
                return Err(ModelError::ArityMismatch {
                    expected: lhs.len() + rhs.len(),
                    actual: row.lhs.len() + row.rhs.len(),
                });
            }
        }
        Ok(Cfd {
            name: Arc::from(name),
            lhs,
            rhs,
            tableau,
        })
    }

    /// A standard FD `X → Y` encoded as a CFD with a single all-wildcard
    /// pattern row (§2, Fig. 2).
    pub fn standard_fd(name: &str, lhs: Vec<AttrId>, rhs: Vec<AttrId>) -> Self {
        let row = PatternRow::all_wildcards(lhs.len(), rhs.len());
        Cfd::new(name, lhs, rhs, vec![row]).expect("all-wildcard row always aligns")
    }

    /// The CFD's name (for display and rule files).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `LHS(φ)`.
    pub fn lhs(&self) -> &[AttrId] {
        &self.lhs
    }

    /// `RHS(φ)`.
    pub fn rhs(&self) -> &[AttrId] {
        &self.rhs
    }

    /// The pattern tableau `Tp`.
    pub fn tableau(&self) -> &[PatternRow] {
        &self.tableau
    }

    /// Append a pattern row (rule-file building).
    pub fn push_row(&mut self, row: PatternRow) -> Result<(), ModelError> {
        if row.lhs.len() != self.lhs.len() || row.rhs.len() != self.rhs.len() {
            return Err(ModelError::ArityMismatch {
                expected: self.lhs.len() + self.rhs.len(),
                actual: row.lhs.len() + row.rhs.len(),
            });
        }
        self.tableau.push(row);
        Ok(())
    }

    /// Expand into normal form: one [`NormalCfd`] per pattern row per RHS
    /// attribute, with pattern constants interned (uncounted) into
    /// `pool`. Ids are assigned by the caller ([`Sigma::normalize_in`]).
    pub fn normalize_in(&self, pool: &ValuePool) -> Vec<NormalCfd> {
        let mut out = Vec::with_capacity(self.tableau.len() * self.rhs.len());
        for (row_idx, row) in self.tableau.iter().enumerate() {
            for (j, rhs_attr) in self.rhs.iter().enumerate() {
                out.push(NormalCfd {
                    id: CfdId(u32::MAX), // patched by Sigma::normalize_in
                    source: self.name.clone(),
                    source_row: row_idx,
                    lhs_pat_ids: intern_patterns_in(&row.lhs, pool),
                    rhs_pat_id: row.rhs[j].to_id_in(pool),
                    lhs: self.lhs.clone(),
                    lhs_pat: row.lhs.clone(),
                    rhs_attr: *rhs_attr,
                    rhs_pat: row.rhs[j].clone(),
                });
            }
        }
        out
    }

    /// The CFD with its tableau replaced by a single all-wildcard row —
    /// i.e. the *embedded FD* (§2). The Fig. 8 experiment repairs with
    /// embedded FDs to quantify what the patterns buy.
    pub fn embedded_fd(&self) -> Cfd {
        Cfd::standard_fd(
            &format!("{}_fd", self.name),
            self.lhs.clone(),
            self.rhs.clone(),
        )
    }
}

impl fmt::Display for Cfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [", self.name)?;
        for (i, a) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "] -> [")?;
        for (i, a) in self.rhs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "] with {} pattern row(s)", self.tableau.len())
    }
}

/// Dense identifier of a normal CFD within a [`Sigma`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CfdId(pub u32);

impl CfdId {
    /// The id as an index into [`Sigma`] storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A CFD in normal form: `(R: X → A, tp)` (§2, "Normal form").
#[derive(Clone, Debug)]
pub struct NormalCfd {
    pub(crate) id: CfdId,
    source: Arc<str>,
    source_row: usize,
    lhs: Vec<AttrId>,
    lhs_pat: Vec<PatternValue>,
    /// `tp[X]` with constants interned at rule-load time — what the hot
    /// matching paths compare against.
    lhs_pat_ids: Vec<PatternId>,
    rhs_attr: AttrId,
    rhs_pat: PatternValue,
    /// `tp[A]`, interned.
    rhs_pat_id: PatternId,
}

impl NormalCfd {
    /// This normal CFD's id within its [`Sigma`].
    pub fn id(&self) -> CfdId {
        self.id
    }

    /// Name of the general CFD this row came from.
    pub fn source_name(&self) -> &str {
        &self.source
    }

    /// Index of the tableau row this normal CFD came from.
    pub fn source_row(&self) -> usize {
        self.source_row
    }

    /// `X`.
    pub fn lhs(&self) -> &[AttrId] {
        &self.lhs
    }

    /// `tp[X]`.
    pub fn lhs_pattern(&self) -> &[PatternValue] {
        &self.lhs_pat
    }

    /// `tp[X]`, interned at rule-load time.
    pub fn lhs_pattern_ids(&self) -> &[PatternId] {
        &self.lhs_pat_ids
    }

    /// `A`.
    pub fn rhs_attr(&self) -> AttrId {
        self.rhs_attr
    }

    /// `tp[A]`.
    pub fn rhs_pattern(&self) -> &PatternValue {
        &self.rhs_pat
    }

    /// `tp[A]`, interned at rule-load time.
    pub fn rhs_pattern_id(&self) -> PatternId {
        self.rhs_pat_id
    }

    /// Is this a *constant CFD* (`tp[A]` a constant)? Constant CFDs can be
    /// violated by a single tuple; variable CFDs need a pair (§3.1).
    pub fn is_constant(&self) -> bool {
        !self.rhs_pat.is_wildcard()
    }

    /// Does the CFD apply to `t`, i.e. `t[X] ≼ tp[X]`?
    #[inline]
    pub fn applies_to<V: TupleView + ?Sized>(&self, t: &V) -> bool {
        tuple_matches(t, &self.lhs, &self.lhs_pat_ids)
    }

    /// All attributes mentioned: `X ∪ {A}`.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.lhs
            .iter()
            .copied()
            .chain(std::iter::once(self.rhs_attr))
    }

    /// Does this normal CFD mention attribute `a` (on either side)?
    pub fn mentions(&self, a: AttrId) -> bool {
        self.rhs_attr == a || self.lhs.contains(&a)
    }
}

impl fmt::Display for NormalCfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "([")?;
        for (i, (a, p)) in self.lhs.iter().zip(self.lhs_pat.iter()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}={p}")?;
        }
        write!(f, "] -> {}={})", self.rhs_attr, self.rhs_pat)
    }
}

/// A checked, normalized set `Σ` of CFDs over a single schema.
#[derive(Clone, Debug)]
pub struct Sigma {
    schema: Schema,
    normal: Vec<NormalCfd>,
    /// For each attribute, the ids of normal CFDs mentioning it. Drives the
    /// `Dirty_Tuples` maintenance of §4.2 and the `Σ(X)` filter of §5.1.
    by_attr: Vec<Vec<CfdId>>,
    sources: Vec<Cfd>,
}

impl Sigma {
    /// Normalize a set of general CFDs over `schema`, interning pattern
    /// constants (uncounted) into `pool` — the dataset's pool, so the
    /// hot matching paths compare ids from the same dictionary the data
    /// was loaded into.
    ///
    /// Validates every attribute id against the schema.
    pub fn normalize_in(
        schema: Schema,
        cfds: Vec<Cfd>,
        pool: &ValuePool,
    ) -> Result<Self, ModelError> {
        let mut normal = Vec::new();
        for cfd in &cfds {
            for a in cfd.lhs().iter().chain(cfd.rhs().iter()) {
                if !schema.contains(*a) {
                    return Err(ModelError::UnknownAttribute {
                        relation: schema.name().to_string(),
                        attribute: a.to_string(),
                    });
                }
            }
            normal.extend(cfd.normalize_in(pool));
        }
        for (i, n) in normal.iter_mut().enumerate() {
            n.id = CfdId(i as u32);
        }
        let mut by_attr = vec![Vec::new(); schema.arity()];
        for n in &normal {
            for a in n.attrs() {
                let ids = &mut by_attr[a.index()];
                if ids.last() != Some(&n.id) {
                    ids.push(n.id);
                }
            }
        }
        Ok(Sigma {
            schema,
            normal,
            by_attr,
            sources: cfds,
        })
    }

    /// The schema `Σ` constrains.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of normal CFDs.
    pub fn len(&self) -> usize {
        self.normal.len()
    }

    /// True when `Σ` is empty.
    pub fn is_empty(&self) -> bool {
        self.normal.is_empty()
    }

    /// All normal CFDs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &NormalCfd> + '_ {
        self.normal.iter()
    }

    /// The normal CFD with the given id.
    pub fn get(&self, id: CfdId) -> &NormalCfd {
        &self.normal[id.index()]
    }

    /// Normal CFDs mentioning attribute `a` (either side).
    pub fn mentioning(&self, a: AttrId) -> &[CfdId] {
        &self.by_attr[a.index()]
    }

    /// `Σ(X)`: ids of normal CFDs whose attributes all fall inside `within`
    /// (§5.1). `within` is a bitset-style boolean slice indexed by attr.
    pub fn within(&self, within: &[bool]) -> Vec<CfdId> {
        self.normal
            .iter()
            .filter(|n| n.attrs().all(|a| within[a.index()]))
            .map(|n| n.id)
            .collect()
    }

    /// The general CFDs this Σ was normalized from.
    pub fn sources(&self) -> &[Cfd] {
        &self.sources
    }

    /// The same Σ with every tableau collapsed to its embedded FD — used by
    /// the Fig. 8 comparison. (Embedded FDs are all-wildcard, so no
    /// constants are interned — the pool parameter keeps the API
    /// symmetric with [`Sigma::normalize_in`].)
    pub fn embedded_fds_in(&self, pool: &ValuePool) -> Result<Sigma, ModelError> {
        let fds = self.sources.iter().map(Cfd::embedded_fd).collect();
        Sigma::normalize_in(self.schema.clone(), fds, pool)
    }

    /// Count of constant (resp. variable) normal CFDs; the Fig. 14/15
    /// experiments stratify noise by this split.
    pub fn constant_variable_split(&self) -> (usize, usize) {
        let c = self.normal.iter().filter(|n| n.is_constant()).count();
        (c, self.normal.len() - c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::Tuple;

    fn schema() -> Schema {
        Schema::new(
            "order",
            &["id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip"],
        )
        .unwrap()
    }

    /// ϕ1 from Fig. 1(b): ([AC,PN] → [STR,CT,ST], T1).
    fn phi1(s: &Schema) -> Cfd {
        let lhs = s.attrs_named(&["AC", "PN"]).unwrap();
        let rhs = s.attrs_named(&["STR", "CT", "ST"]).unwrap();
        let rows = vec![
            PatternRow::new(
                vec![PatternValue::constant("212"), PatternValue::Wildcard],
                vec![
                    PatternValue::Wildcard,
                    PatternValue::constant("NYC"),
                    PatternValue::constant("NY"),
                ],
            ),
            PatternRow::new(
                vec![PatternValue::constant("610"), PatternValue::Wildcard],
                vec![
                    PatternValue::Wildcard,
                    PatternValue::constant("PHI"),
                    PatternValue::constant("PA"),
                ],
            ),
        ];
        Cfd::new("phi1", lhs, rhs, rows).unwrap()
    }

    #[test]
    fn normalization_expands_rows_times_rhs() {
        let s = schema();
        let sigma = Sigma::normalize_in(s.clone(), vec![phi1(&s)], &ValuePool::new()).unwrap();
        // 2 rows × 3 RHS attributes
        assert_eq!(sigma.len(), 6);
        let ids: Vec<_> = sigma.iter().map(|n| n.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        // row 0 produced the first three; constant split is 4 constants + 2 wildcards
        assert_eq!(sigma.constant_variable_split(), (4, 2));
    }

    #[test]
    fn rhs_overlap_rejected() {
        let s = schema();
        let a = s.attr("CT").unwrap();
        let err = Cfd::new(
            "bad",
            vec![a],
            vec![a],
            vec![PatternRow::all_wildcards(1, 1)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn row_arity_validated() {
        let s = schema();
        let lhs = s.attrs_named(&["AC"]).unwrap();
        let rhs = s.attrs_named(&["CT"]).unwrap();
        let bad = PatternRow::new(vec![], vec![PatternValue::Wildcard]);
        assert!(Cfd::new("bad", lhs.clone(), rhs.clone(), vec![bad.clone()]).is_err());
        let mut ok = Cfd::standard_fd("ok", lhs, rhs);
        assert!(ok.push_row(bad).is_err());
    }

    #[test]
    fn applies_to_respects_patterns() {
        let s = schema();
        let pool = ValuePool::new();
        let sigma = Sigma::normalize_in(s.clone(), vec![phi1(&s)], &pool).unwrap();
        // normal CFD 1: AC=212 → CT=NYC
        let n = sigma.get(CfdId(1));
        assert_eq!(n.rhs_attr(), s.attr("CT").unwrap());
        assert!(n.is_constant());
        let t3 = Tuple::new_in(
            [
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
            &pool,
        );
        assert!(n.applies_to(&t3));
        let t1 = Tuple::new_in(
            [
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
            &pool,
        );
        assert!(!n.applies_to(&t1));
    }

    #[test]
    fn mentioning_indexes_both_sides() {
        let s = schema();
        let sigma = Sigma::normalize_in(s.clone(), vec![phi1(&s)], &ValuePool::new()).unwrap();
        let ac = s.attr("AC").unwrap();
        let ct = s.attr("CT").unwrap();
        let pr = s.attr("PR").unwrap();
        assert_eq!(sigma.mentioning(ac).len(), 6); // AC on the LHS of all 6
        assert_eq!(sigma.mentioning(ct).len(), 2); // CT the RHS of 2
        assert!(sigma.mentioning(pr).is_empty());
    }

    #[test]
    fn within_filters_by_attr_set() {
        let s = schema();
        let sigma = Sigma::normalize_in(s.clone(), vec![phi1(&s)], &ValuePool::new()).unwrap();
        let mut inside = vec![false; s.arity()];
        for name in ["AC", "PN", "CT"] {
            inside[s.attr(name).unwrap().index()] = true;
        }
        let ids = sigma.within(&inside);
        // only the X → CT normal CFDs fit inside {AC, PN, CT}
        assert_eq!(ids.len(), 2);
        for id in ids {
            assert_eq!(sigma.get(id).rhs_attr(), s.attr("CT").unwrap());
        }
    }

    #[test]
    fn embedded_fd_drops_patterns() {
        let s = schema();
        let cfd = phi1(&s);
        let fd = cfd.embedded_fd();
        assert_eq!(fd.tableau().len(), 1);
        assert!(fd.tableau()[0].lhs.iter().all(PatternValue::is_wildcard));
        let sigma = Sigma::normalize_in(s.clone(), vec![cfd], &ValuePool::new()).unwrap();
        let fds = sigma.embedded_fds_in(&ValuePool::new()).unwrap();
        assert_eq!(fds.len(), 3); // 1 row × 3 RHS attrs
        assert_eq!(fds.constant_variable_split(), (0, 3));
    }

    #[test]
    fn unknown_attribute_rejected_by_sigma() {
        let s = schema();
        let tiny = Schema::new("tiny", &["a"]).unwrap();
        let cfd = phi1(&s);
        assert!(Sigma::normalize_in(tiny, vec![cfd], &ValuePool::new()).is_err());
    }

    #[test]
    fn normal_cfd_display() {
        let s = schema();
        let ac = s.attr("AC").unwrap();
        let ct = s.attr("CT").unwrap();
        let cfd = Cfd::new(
            "phi",
            vec![ac],
            vec![ct],
            vec![PatternRow::new(
                vec![PatternValue::constant("212")],
                vec![PatternValue::constant("NYC")],
            )],
        )
        .unwrap();
        let sigma = Sigma::normalize_in(s.clone(), vec![cfd], &ValuePool::new()).unwrap();
        let n = sigma.iter().next().unwrap();
        let shown = n.to_string();
        assert!(shown.contains("212") && shown.contains("NYC"), "{shown}");
        assert!(n.mentions(ac));
        assert!(n.mentions(ct));
        assert!(!n.mentions(s.attr("zip").unwrap()));
    }
}
