//! Randomized property tests for the relational substrate: the dictionary
//! layer's id-level semantics agree with the value-level semantics, hash
//! indexes stay consistent under updates, the diff metric is a metric, and relations
//! keep their id/compaction invariants.
//!
//! Each property runs a few hundred seeded trials through
//! `cfd_prng::trials`; failures reproduce exactly from the seed.

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfd_model::csv;
use cfd_model::diff::dif;
use cfd_model::{AttrId, Relation, Schema, Tuple, TupleId, Value, ValueId, ValuePool, NULL_ID};

const ARITY: usize = 3;

fn schema() -> Schema {
    Schema::new("r", &["a", "b", "c"]).unwrap()
}

/// A small random value: one of four constants, an integer, or null.
fn rand_value(rng: &mut ChaCha8Rng) -> Value {
    match rng.gen_range(0..12u32) {
        0 | 1 => Value::Null,
        2 => Value::int(rng.gen_range(0..4i64)),
        i => Value::str(format!("v{}", i % 4)),
    }
}

fn rand_rows(rng: &mut ChaCha8Rng, max: usize) -> Vec<Vec<Value>> {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| (0..ARITY).map(|_| rand_value(rng)).collect())
        .collect()
}

fn build(rows: &[Vec<Value>]) -> Relation {
    let mut rel = Relation::new_in(schema(), ValuePool::new_handle());
    for row in rows {
        rel.insert(Tuple::new_in(row.clone(), rel.pool())).unwrap();
    }
    rel
}

/// Interning is injective, so `ValueId::sql_eq` / `strict_eq` /
/// null-checks must agree with `Value::sql_eq` / `strict_eq` / `is_null`
/// on arbitrary value pairs — the contract that lets every layer above
/// the pool run on ids without changing the paper's §3.1 semantics.
#[test]
fn id_semantics_agree_with_value_semantics() {
    let pool = ValuePool::new();
    trials(500, 0xA11CE, |rng| {
        let v = rand_value(rng);
        let w = rand_value(rng);
        let (iv, iw): (ValueId, ValueId) = (pool.intern(&v), pool.intern(&w));
        assert_eq!(iv.sql_eq(iw), v.sql_eq(&w), "sql_eq mismatch on {v} vs {w}");
        assert_eq!(
            iv.strict_eq(iw),
            v.strict_eq(&w),
            "strict_eq mismatch on {v} vs {w}"
        );
        assert_eq!(iv.is_null(), v.is_null());
        assert_eq!(iv == iw, v == w, "id equality must be injective");
        // round-trip
        assert_eq!(pool.resolve(iv), v);
    });
}

/// Tuple-level agreement predicates (strict and SQL) computed on ids must
/// match a reference computation on resolved values.
#[test]
fn tuple_agreement_matches_value_reference() {
    let pool = ValuePool::new();
    trials(300, 0xBEEF, |rng| {
        let (va, vb): (Vec<Value>, Vec<Value>) = (0..ARITY)
            .map(|_| (rand_value(rng), rand_value(rng)))
            .unzip();
        let a = Tuple::new_in(va.iter().cloned(), &pool);
        let b = Tuple::new_in(vb.iter().cloned(), &pool);
        let attrs: Vec<AttrId> = (0..ARITY as u16).map(AttrId).collect();
        let strict_ref = attrs
            .iter()
            .all(|x| va[x.index()].strict_eq(&vb[x.index()]));
        let sql_ref = attrs.iter().all(|x| va[x.index()].sql_eq(&vb[x.index()]));
        assert_eq!(a.agrees_on(&b, &attrs), strict_ref);
        assert_eq!(a.sql_agrees_on(&b, &attrs), sql_ref);
        let diff_ref = attrs
            .iter()
            .filter(|x| va[x.index()] != vb[x.index()])
            .count();
        assert_eq!(a.attr_diff(&b), diff_ref);
    });
}

/// A fresh (non-global) pool assigns dense ids starting after NULL_ID and
/// resolves every id it issued.
#[test]
fn isolated_pool_is_dense_and_total() {
    trials(50, 0xD1C7, |rng| {
        let pool = ValuePool::new();
        let mut issued = vec![NULL_ID];
        for _ in 0..rng.gen_range(1..40usize) {
            issued.push(pool.intern(&rand_value(rng)));
        }
        let max = issued.iter().map(|id| id.index()).max().unwrap();
        assert_eq!(max + 1, pool.len(), "ids are dense");
        for id in issued {
            let v = pool.resolve(id);
            assert_eq!(pool.intern(&v), id, "resolve/intern round-trip");
        }
    });
}

/// Hash indexes survive arbitrary in-place updates: after a series of
/// set_value calls with index maintenance, every group lookup equals a
/// fresh rebuild.
#[test]
fn hash_index_incremental_equals_rebuild() {
    trials(160, 0x1D3, |rng| {
        let mut rel = build(&rand_rows(rng, 16));
        if rel.is_empty() {
            return;
        }
        let attrs = [AttrId(0), AttrId(1)];
        let mut idx = cfd_model::index::HashIndex::build(&rel, &attrs);
        let ids: Vec<TupleId> = rel.ids().collect();
        for _ in 0..rng.gen_range(0..12usize) {
            let id = ids[rng.gen_range(0..ids.len())];
            let attr = AttrId(rng.gen_range(0..ARITY as u32) as u16);
            let v = rand_value(rng);
            let before = rel.tuple(id).unwrap().to_tuple();
            rel.set_value(id, attr, v).unwrap();
            let after = rel.tuple(id).unwrap().to_tuple();
            idx.update(id, &before, &after);
        }
        let fresh = cfd_model::index::HashIndex::build(&rel, &attrs);
        for (_, t) in rel.iter() {
            let mut a: Vec<TupleId> = idx.group_of(&t).to_vec();
            let mut b: Vec<TupleId> = fresh.group_of(&t).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    });
}

/// `dif` is a metric on equally-sized relations: identity, symmetry,
/// triangle inequality, and the attribute-count bound.
#[test]
fn dif_is_a_metric() {
    trials(120, 0xD1F, |rng| {
        let mut rows_a = rand_rows(rng, 8);
        if rows_a.is_empty() {
            rows_a.push((0..ARITY).map(|_| rand_value(rng)).collect());
        }
        let a = build(&rows_a);
        let mutate = |shift: u32| -> Relation {
            let rows: Vec<Vec<Value>> = rows_a
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let mut r = r.clone();
                    if i % 2 == 0 {
                        r[(i / 2) % ARITY] = Value::str(format!("m{shift}"));
                    }
                    r
                })
                .collect();
            build(&rows)
        };
        let b = mutate(1);
        let c = mutate(2);
        assert_eq!(dif(&a, &a), 0);
        assert_eq!(dif(&a, &b), dif(&b, &a));
        assert!(dif(&a, &c) <= dif(&a, &b) + dif(&b, &c));
        assert!(dif(&a, &b) <= a.len() * ARITY);
    });
}

/// Deleting then compacting preserves the surviving tuples (in order),
/// and ids stay dense afterwards.
#[test]
fn compaction_preserves_survivors() {
    trials(120, 0xC0DE, |rng| {
        let mut rows = rand_rows(rng, 12);
        if rows.is_empty() {
            rows.push((0..ARITY).map(|_| rand_value(rng)).collect());
        }
        let mut rel = build(&rows);
        let ids: Vec<TupleId> = rel.ids().collect();
        let mut survivors = Vec::new();
        for id in &ids {
            if rng.gen_bool(0.4) {
                rel.delete(*id).unwrap();
            } else {
                survivors.push(rel.tuple(*id).unwrap().values());
            }
        }
        let mapping = rel.compact();
        assert_eq!(rel.len(), survivors.len());
        assert_eq!(mapping.len(), survivors.len());
        for (i, (_, new_id)) in mapping.iter().enumerate() {
            assert_eq!(new_id.0 as usize, i, "ids dense after compaction");
        }
        let after: Vec<Vec<Value>> = rel.iter().map(|(_, t)| t.values()).collect();
        assert_eq!(after, survivors);
    });
}

/// CSV round-trips preserve weights alongside values (the CLI's
/// `--weights` path).
#[test]
fn csv_value_and_weight_round_trip() {
    trials(120, 0xC57, |rng| {
        let mut rows = rand_rows(rng, 8);
        if rows.is_empty() {
            rows.push((0..ARITY).map(|_| rand_value(rng)).collect());
        }
        let mut rel = build(&rows);
        let ids: Vec<TupleId> = rel.ids().collect();
        for id in &ids {
            let w: Vec<f64> = (0..ARITY).map(|_| rng.gen_range(0.0..1.0)).collect();
            rel.set_weights(*id, &w).unwrap();
        }
        let mut vbuf = Vec::new();
        csv::write_relation(&rel, &mut vbuf).unwrap();
        let mut wbuf = Vec::new();
        csv::write_weights(&rel, &mut wbuf).unwrap();
        let mut rel2 =
            csv::read_relation_in("r", &mut vbuf.as_slice(), ValuePool::new_handle()).unwrap();
        csv::read_weights(&mut rel2, &mut wbuf.as_slice()).unwrap();
        assert_eq!(rel.len(), rel2.len());
        for ((_, t1), (_, t2)) in rel.iter().zip(rel2.iter()) {
            assert_eq!(t1.values(), t2.values());
            for a in 0..ARITY {
                let a = AttrId(a as u16);
                assert!((t1.weight(a) - t2.weight(a)).abs() < 1e-12);
            }
        }
    });
}
