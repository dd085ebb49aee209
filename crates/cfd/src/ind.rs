//! Inclusion dependencies (INDs) — the paper's first future-work item.
//!
//! §9: "to effectively clean real-life data, it is often necessary to
//! consider both CFDs and inclusion dependencies \[5\]". An IND
//! `R1[X] ⊆ R2[Y]` demands that every `X`-projection of the child
//! relation occurs as a `Y`-projection of the parent — the constraint
//! behind foreign keys, and the second constraint class of Bohannon et
//! al.'s cost-based repair framework that this paper builds on.
//!
//! Semantics follow the CFD conventions of §3.1: a child tuple with a
//! `null` among its `X` attributes makes no demand (simple SQL
//! semantics), so nulling the referencing attributes is always a legal
//! last-resort repair.

use std::collections::BTreeSet;

use cfd_model::{AttrId, Database, ModelError, Relation, TupleId, Value};

/// An inclusion dependency `child[X] ⊆ parent[Y]`.
#[derive(Clone, Debug)]
pub struct Ind {
    name: String,
    child: String,
    child_attrs: Vec<AttrId>,
    parent: String,
    parent_attrs: Vec<AttrId>,
}

impl Ind {
    /// Build an IND, validating the attribute lists against the database's
    /// schemas and requiring equal arity on both sides.
    pub fn new(
        db: &Database,
        name: &str,
        child: &str,
        child_attrs: &[&str],
        parent: &str,
        parent_attrs: &[&str],
    ) -> Result<Self, ModelError> {
        if child_attrs.len() != parent_attrs.len() || child_attrs.is_empty() {
            return Err(ModelError::ArityMismatch {
                expected: parent_attrs.len(),
                actual: child_attrs.len(),
            });
        }
        let child_rel = db.relation(child)?;
        let parent_rel = db.relation(parent)?;
        Ok(Ind {
            name: name.to_string(),
            child: child.to_string(),
            child_attrs: child_rel.schema().attrs_named(child_attrs)?,
            parent: parent.to_string(),
            parent_attrs: parent_rel.schema().attrs_named(parent_attrs)?,
        })
    }

    /// The IND's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The referencing relation.
    pub fn child(&self) -> &str {
        &self.child
    }

    /// The referencing attributes `X`.
    pub fn child_attrs(&self) -> &[AttrId] {
        &self.child_attrs
    }

    /// The referenced relation.
    pub fn parent(&self) -> &str {
        &self.parent
    }

    /// The referenced attributes `Y`.
    pub fn parent_attrs(&self) -> &[AttrId] {
        &self.parent_attrs
    }

    /// The set of `Y`-projections present in the parent relation
    /// (null-free keys only — a null parent key cannot be referenced),
    /// in sorted order.
    pub fn parent_keys(&self, parent: &Relation) -> BTreeSet<Vec<Value>> {
        parent
            .iter()
            .map(|(_, t)| t.project(&self.parent_attrs))
            .filter(|key| key.iter().all(|v| !v.is_null()))
            .collect()
    }

    /// Child tuples whose `X`-projection is dangling (absent from the
    /// parent). Tuples with a `null` among `X` are exempt.
    pub fn violations(&self, db: &Database) -> Result<Vec<TupleId>, ModelError> {
        let child = db.relation(&self.child)?;
        let parent = db.relation(&self.parent)?;
        let keys = self.parent_keys(parent);
        Ok(child
            .iter()
            .filter(|(_, t)| {
                let key = t.project(&self.child_attrs);
                key.iter().all(|v| !v.is_null()) && !keys.contains(&key)
            })
            .map(|(id, _)| id)
            .collect())
    }

    /// Does the database satisfy this IND?
    pub fn check(&self, db: &Database) -> Result<bool, ModelError> {
        Ok(self.violations(db)?.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::{Schema, Tuple};

    fn db() -> Database {
        let mut db = Database::new();
        let items = db.create(Schema::new("item", &["id", "name"]).unwrap());
        items.insert(Tuple::from_iter(["a1", "Book"])).unwrap();
        items.insert(Tuple::from_iter(["a2", "Lamp"])).unwrap();
        let orders = db.create(Schema::new("order", &["oid", "item_id", "qty"]).unwrap());
        orders.insert(Tuple::from_iter(["o1", "a1", "2"])).unwrap();
        orders.insert(Tuple::from_iter(["o2", "a2", "1"])).unwrap();
        db
    }

    fn ind(db: &Database) -> Ind {
        Ind::new(db, "fk_item", "order", &["item_id"], "item", &["id"]).unwrap()
    }

    #[test]
    fn satisfied_when_all_references_resolve() {
        let db = db();
        let fk = ind(&db);
        assert!(fk.check(&db).unwrap());
        assert!(fk.violations(&db).unwrap().is_empty());
    }

    #[test]
    fn dangling_references_are_flagged() {
        let mut db = db();
        let dangling = db
            .relation_mut("order")
            .unwrap()
            .insert(Tuple::from_iter(["o3", "a9", "5"]))
            .unwrap();
        let fk = ind(&db);
        assert!(!fk.check(&db).unwrap());
        assert_eq!(fk.violations(&db).unwrap(), vec![dangling]);
    }

    #[test]
    fn null_references_are_exempt() {
        let mut db = db();
        db.relation_mut("order")
            .unwrap()
            .insert(Tuple::new(vec![
                Value::str("o3"),
                Value::Null,
                Value::int(1),
            ]))
            .unwrap();
        let fk = ind(&db);
        assert!(fk.check(&db).unwrap());
    }

    #[test]
    fn null_parent_keys_cannot_be_referenced() {
        let mut db = db();
        db.relation_mut("item")
            .unwrap()
            .insert(Tuple::new(vec![Value::Null, Value::str("Ghost")]))
            .unwrap();
        // a child referencing the literal absent value is still dangling
        let bad = db
            .relation_mut("order")
            .unwrap()
            .insert(Tuple::from_iter(["o4", "zz", "1"]))
            .unwrap();
        let fk = ind(&db);
        assert_eq!(fk.violations(&db).unwrap(), vec![bad]);
    }

    #[test]
    fn arity_and_name_validation() {
        let db = db();
        assert!(Ind::new(&db, "bad", "order", &["item_id", "qty"], "item", &["id"]).is_err());
        assert!(Ind::new(&db, "bad", "order", &[], "item", &[]).is_err());
        assert!(Ind::new(&db, "bad", "missing", &["x"], "item", &["id"]).is_err());
        assert!(Ind::new(&db, "bad", "order", &["nope"], "item", &["id"]).is_err());
    }

    #[test]
    fn composite_keys_supported() {
        let mut db = Database::new();
        let p = db.create(Schema::new("city", &["name", "state"]).unwrap());
        p.insert(Tuple::from_iter(["PHI", "PA"])).unwrap();
        let c = db.create(Schema::new("addr", &["street", "ct", "st"]).unwrap());
        c.insert(Tuple::from_iter(["Walnut", "PHI", "PA"])).unwrap();
        c.insert(Tuple::from_iter(["Canel", "PHI", "NY"])).unwrap(); // wrong state
        let fk = Ind::new(
            &db,
            "fk_city",
            "addr",
            &["ct", "st"],
            "city",
            &["name", "state"],
        )
        .unwrap();
        assert_eq!(fk.violations(&db).unwrap().len(), 1);
    }
}
