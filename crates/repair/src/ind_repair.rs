//! Repairing inclusion-dependency violations (the \[5\]-style counterpart
//! the paper's future work points at).
//!
//! Dangling references are repaired by **value modification on the child
//! side**, consistent with the rest of the framework: the referencing
//! attributes are rebound to the nearest existing parent key under the
//! §3.2 cost model, or nulled (the always-legal fallback of §3.1) when no
//! parent key comes close enough to be a plausible typo fix. The parent
//! relation is never modified — inserting speculative parent rows cannot
//! be justified by the cost model and would invert the trust relation
//! between the two tables.

use cfd_cfd::ind::Ind;
use cfd_model::{Database, Value};

use crate::cost::change_cost;
use crate::RepairError;

/// Configuration for [`repair_ind`].
#[derive(Clone, Debug)]
pub struct IndRepairConfig {
    /// Rebind only when the per-tuple repair cost (weighted normalized
    /// DL distance summed over the referencing attributes) stays below
    /// this bound; otherwise the reference is nulled. With the default
    /// 0.75, a rebинding must be closer than "rewrite three quarters of a
    /// fully-trusted key".
    pub max_rebind_cost: f64,
}

impl Default for IndRepairConfig {
    fn default() -> Self {
        IndRepairConfig {
            max_rebind_cost: 0.75,
        }
    }
}

/// Statistics of one IND repair pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IndRepairStats {
    /// Dangling child tuples found.
    pub dangling: usize,
    /// Tuples rebound to an existing parent key.
    pub rebound: usize,
    /// Tuples whose referencing attributes were nulled.
    pub nulled: usize,
    /// Total repair cost under the §3.2 model.
    pub cost: f64,
}

/// Repair every violation of `ind` in `db` by modifying child tuples.
/// Returns the per-pass statistics; after it returns, `ind.check(db)` is
/// true (enforced by a debug assertion).
pub fn repair_ind(
    db: &mut Database,
    ind: &Ind,
    config: &IndRepairConfig,
) -> Result<IndRepairStats, RepairError> {
    let dangling = ind.violations(db)?;
    let mut stats = IndRepairStats {
        dangling: dangling.len(),
        ..Default::default()
    };
    if dangling.is_empty() {
        return Ok(stats);
    }
    // Candidate pool: the parent's key set (null-free), sorted for
    // deterministic tie-breaks.
    let keys: Vec<Vec<Value>> = ind
        .parent_keys(db.relation(ind.parent())?)
        .into_iter()
        .collect();
    let child = db.relation_mut(ind.child())?;
    for id in dangling {
        let t = child.require(id)?.to_tuple();
        let current = t.project(ind.child_attrs());
        // Cheapest parent key under the weighted normalized distance.
        let mut best: Option<(f64, &Vec<Value>)> = None;
        for key in &keys {
            let cost: f64 = ind
                .child_attrs()
                .iter()
                .zip(current.iter().zip(key.iter()))
                .map(|(a, (from, to))| change_cost(t.weight(*a), from, to))
                .sum();
            if best.map(|(c, _)| cost < c).unwrap_or(true) {
                best = Some((cost, key));
            }
        }
        match best {
            Some((cost, key)) if cost <= config.max_rebind_cost => {
                for (a, v) in ind.child_attrs().iter().zip(key.iter()) {
                    child.set_value(id, *a, v.clone())?;
                }
                stats.rebound += 1;
                stats.cost += cost;
            }
            _ => {
                let null_cost: f64 = ind
                    .child_attrs()
                    .iter()
                    .map(|a| change_cost(t.weight(*a), &t.value(*a), &Value::Null))
                    .sum();
                for a in ind.child_attrs() {
                    child.set_value(id, *a, Value::Null)?;
                }
                stats.nulled += 1;
                stats.cost += null_cost;
            }
        }
    }
    debug_assert!(ind.check(db).unwrap_or(false));
    Ok(stats)
}

/// Repair a set of INDs in sequence. INDs repair independent (child,
/// parent) pairs; chains (A ⊆ B ⊆ C) are handled by repairing parents
/// first — callers pass them in topological order, which this helper
/// verifies is sufficient by re-checking every IND at the end.
pub fn repair_inds(
    db: &mut Database,
    inds: &[Ind],
    config: &IndRepairConfig,
) -> Result<Vec<IndRepairStats>, RepairError> {
    let mut out = Vec::with_capacity(inds.len());
    for ind in inds {
        out.push(repair_ind(db, ind, config)?);
    }
    for ind in inds {
        if !ind.check(db)? {
            return Err(RepairError::Internal(format!(
                "IND {} still violated after the pass: repair order was not topological",
                ind.name()
            )));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::{AttrId, Schema, Tuple};

    fn db() -> Database {
        let mut db = Database::new();
        let items = db.create(Schema::new("item", &["id", "name"]).unwrap());
        for (id, name) in [("a1001", "Book"), ("a1002", "Lamp"), ("b2001", "Desk")] {
            items.insert(Tuple::from_iter([id, name])).unwrap();
        }
        db.create(Schema::new("order", &["oid", "item_id", "qty"]).unwrap());
        db
    }

    fn fk(db: &Database) -> Ind {
        Ind::new(db, "fk_item", "order", &["item_id"], "item", &["id"]).unwrap()
    }

    #[test]
    fn typo_references_are_rebound_to_nearest_key() {
        let mut db = db();
        let id = db
            .relation_mut("order")
            .unwrap()
            .insert(Tuple::from_iter(["o1", "a10O1", "2"])) // O for 0 typo
            .unwrap();
        let ind = fk(&db);
        let stats = repair_ind(&mut db, &ind, &IndRepairConfig::default()).unwrap();
        assert_eq!(stats.dangling, 1);
        assert_eq!(stats.rebound, 1);
        assert_eq!(stats.nulled, 0);
        let fixed = db
            .relation("order")
            .unwrap()
            .require(id)
            .unwrap()
            .to_tuple();
        assert_eq!(fixed.value(AttrId(1)), Value::str("a1001"));
        assert!(ind.check(&db).unwrap());
    }

    #[test]
    fn hopeless_references_are_nulled() {
        let mut db = db();
        let id = db
            .relation_mut("order")
            .unwrap()
            .insert(Tuple::from_iter(["o1", "zzzzzzzzzz", "2"]))
            .unwrap();
        let ind = fk(&db);
        let stats = repair_ind(&mut db, &ind, &IndRepairConfig::default()).unwrap();
        assert_eq!(stats.nulled, 1);
        assert_eq!(stats.rebound, 0);
        let fixed = db
            .relation("order")
            .unwrap()
            .require(id)
            .unwrap()
            .to_tuple();
        assert!(fixed.value(AttrId(1)).is_null());
        assert!(ind.check(&db).unwrap());
    }

    #[test]
    fn clean_references_are_untouched() {
        let mut db = db();
        db.relation_mut("order")
            .unwrap()
            .insert(Tuple::from_iter(["o1", "a1001", "2"]))
            .unwrap();
        let ind = fk(&db);
        let stats = repair_ind(&mut db, &ind, &IndRepairConfig::default()).unwrap();
        assert_eq!(stats, IndRepairStats::default());
    }

    #[test]
    fn weights_gate_the_rebind_decision() {
        let mut db = db();
        // heavily trusted wrong reference: weight 1.0 and distance 2/5 →
        // cost 0.4 under the bound; with a tight bound it nulls instead
        let mut t = Tuple::from_iter(["o1", "a1999", "2"]);
        t.set_weight(AttrId(1), 1.0);
        let id = db.relation_mut("order").unwrap().insert(t).unwrap();
        let ind = fk(&db);
        let tight = IndRepairConfig {
            max_rebind_cost: 0.1,
        };
        let stats = repair_ind(&mut db, &ind, &tight).unwrap();
        assert_eq!(stats.nulled, 1);
        let fixed = db
            .relation("order")
            .unwrap()
            .require(id)
            .unwrap()
            .to_tuple();
        assert!(fixed.value(AttrId(1)).is_null());
    }

    #[test]
    fn empty_parent_forces_nulls() {
        let mut db = Database::new();
        db.create(Schema::new("item", &["id"]).unwrap());
        let orders = db.create(Schema::new("order", &["oid", "item_id"]).unwrap());
        orders.insert(Tuple::from_iter(["o1", "a1"])).unwrap();
        let ind = Ind::new(&db, "fk", "order", &["item_id"], "item", &["id"]).unwrap();
        let stats = repair_ind(&mut db, &ind, &IndRepairConfig::default()).unwrap();
        assert_eq!(stats.nulled, 1);
        assert!(ind.check(&db).unwrap());
    }

    #[test]
    fn chained_inds_repair_in_order() {
        // C ⊆ B ⊆ A: repairing B against A first keeps the end state
        // consistent for both.
        let mut db = Database::new();
        let a = db.create(Schema::new("a", &["k"]).unwrap());
        a.insert(Tuple::from_iter(["k1"])).unwrap();
        let b = db.create(Schema::new("b", &["k"]).unwrap());
        b.insert(Tuple::from_iter(["k1"])).unwrap();
        b.insert(Tuple::from_iter(["kX"])).unwrap(); // dangling vs a
        let c = db.create(Schema::new("c", &["k"]).unwrap());
        c.insert(Tuple::from_iter(["kX"])).unwrap(); // references b's dirty key
        let b_in_a = Ind::new(&db, "b_a", "b", &["k"], "a", &["k"]).unwrap();
        let c_in_b = Ind::new(&db, "c_b", "c", &["k"], "b", &["k"]).unwrap();
        let stats = repair_inds(&mut db, &[b_in_a, c_in_b], &IndRepairConfig::default()).unwrap();
        assert_eq!(stats[0].dangling, 1);
        // c's kX now chases b's repaired value (k1) — rebindable
        assert_eq!(stats[1].rebound + stats[1].nulled, 1);
    }
}
