//! A `Relation` checked against a plain reference model.
//!
//! The storage-op fuzzer drives a random sequence of inserts, deletes,
//! `set_value`s, `set_weights`, compactions and point reads against a
//! relation and against [`Model`] — one optional `(ids, weights)` row per
//! slot — and asserts that the two agree after every operation: liveness,
//! cell ids, weight bits, deleted contents and the compaction mapping.
//! Degenerate shapes and the CSV round trip ride along.
//!
//! Seeded trials via `cfd_prng`; failures reproduce exactly from the
//! seed.

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfdclean::cfd::pattern::{PatternRow, PatternValue};
use cfdclean::cfd::violation::detect;
use cfdclean::cfd::{Cfd, Sigma};
use cfdclean::model::{AttrId, Relation, Schema, Tuple, TupleId, Value, ValueId, ValuePool};
use cfdclean::repair::batch_repair;

const ARITY: usize = 4;

fn schema() -> Schema {
    Schema::new("model", &["a", "b", "c", "d"]).unwrap()
}

/// A small value universe keeps collision (and thus violation) rates high.
fn rand_value(rng: &mut ChaCha8Rng) -> Value {
    if rng.gen_range(0..6u32) == 0 {
        Value::Null
    } else {
        Value::str(format!("v{}", rng.gen_range(0..6u32)))
    }
}

/// A random tuple interned into `pool`, with per-cell weights in `[0, 1]`.
fn rand_tuple(rng: &mut ChaCha8Rng, pool: &ValuePool) -> Tuple {
    let mut t = Tuple::from_ids((0..ARITY).map(|_| pool.intern(&rand_value(rng))).collect());
    for a in 0..ARITY {
        t.set_weight(AttrId(a as u16), (rng.gen_range(0..=10u32) as f64) / 10.0);
    }
    t
}

/// The reference a relation must agree with: one `(ids, weights)` row
/// per slot, `None` for a tombstone.
#[derive(Default)]
struct Model {
    slots: Vec<Option<(Vec<ValueId>, Vec<f64>)>>,
}

impl Model {
    fn insert(&mut self, t: &Tuple) -> TupleId {
        self.slots
            .push(Some((t.ids().to_vec(), t.weights().to_vec())));
        TupleId(self.slots.len() as u32 - 1)
    }

    fn row(&self, id: TupleId) -> Option<&(Vec<ValueId>, Vec<f64>)> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    fn row_mut(&mut self, id: TupleId) -> Option<&mut (Vec<ValueId>, Vec<f64>)> {
        self.slots.get_mut(id.index()).and_then(Option::as_mut)
    }

    fn delete(&mut self, id: TupleId) -> Option<(Vec<ValueId>, Vec<f64>)> {
        self.slots.get_mut(id.index()).and_then(Option::take)
    }

    fn set_weights(&mut self, id: TupleId, ws: &[f64]) -> bool {
        let Some((_, weights)) = self.row_mut(id) else {
            return false;
        };
        for (w, new) in weights.iter_mut().zip(ws) {
            *w = new.clamp(0.0, 1.0);
        }
        true
    }

    fn compact(&mut self) -> Vec<(TupleId, TupleId)> {
        let mut mapping = Vec::new();
        let mut kept = Vec::new();
        for (old, slot) in self.slots.drain(..).enumerate() {
            if slot.is_some() {
                mapping.push((TupleId(old as u32), TupleId(kept.len() as u32)));
                kept.push(slot);
            }
        }
        self.slots = kept;
        mapping
    }
}

/// Every observable of `rel` equals the model: live count, id space,
/// liveness, cell ids and weight bits, through both the row view and the
/// point reads.
fn assert_matches(rel: &Relation, model: &Model, ctx: &str) {
    let live: Vec<TupleId> = (0..model.slots.len() as u32)
        .map(TupleId)
        .filter(|id| model.row(*id).is_some())
        .collect();
    assert_eq!(rel.len(), live.len(), "{ctx}: live count");
    assert_eq!(rel.slot_count(), model.slots.len(), "{ctx}: slot count");
    assert_eq!(rel.ids().collect::<Vec<_>>(), live, "{ctx}: live ids");
    for slot in 0..model.slots.len() {
        let id = TupleId(slot as u32);
        match (rel.tuple(id), model.row(id)) {
            (None, None) => {}
            (Some(t), Some((ids, weights))) => {
                for a in 0..ARITY {
                    let attr = AttrId(a as u16);
                    assert_eq!(t.id(attr), ids[a], "{ctx}: {id} attr {a} value");
                    assert_eq!(
                        t.weight(attr).to_bits(),
                        weights[a].to_bits(),
                        "{ctx}: {id} attr {a} weight"
                    );
                }
            }
            (t, m) => panic!("{ctx}: liveness of {id} diverged ({t:?} vs {m:?})"),
        }
    }
}

/// Storage-op fuzzer: after every random operation the relation and the
/// model agree.
#[test]
fn storage_operations_match_the_model() {
    trials(100, 0xC01D1FF, |rng| {
        let pool = ValuePool::new_handle();
        let mut rel = Relation::new_in(schema(), pool.clone());
        let mut model = Model::default();
        for _ in 0..rng.gen_range(1..12usize) {
            let t = rand_tuple(rng, &pool);
            assert_eq!(rel.insert(t.clone()).unwrap(), model.insert(&t));
        }
        assert_matches(&rel, &model, "initial load");
        for _ in 0..rng.gen_range(1..24usize) {
            // Ids run past the end, so dead and unknown ids both come up.
            let id = TupleId(rng.gen_range(0..rel.slot_count() as u32 + 2));
            match rng.gen_range(0..6u32) {
                0 => {
                    let t = rand_tuple(rng, &pool);
                    assert_eq!(rel.insert(t.clone()).unwrap(), model.insert(&t));
                }
                1 => match (rel.delete(id), model.delete(id)) {
                    (Ok(t), Some((ids, weights))) => {
                        assert_eq!(t.ids(), ids.as_slice(), "deleted {id} ids");
                        assert_eq!(t.weights(), weights.as_slice(), "deleted {id} weights");
                    }
                    (Err(_), None) => {}
                    (got, want) => panic!("delete({id}): {got:?} vs {want:?}"),
                },
                2 => {
                    let attr = AttrId(rng.gen_range(0..ARITY as u32) as u16);
                    let v = rand_value(rng);
                    let pool_len = pool.len();
                    match (rel.set_value(id, attr, v.clone()), model.row_mut(id)) {
                        (Ok(()), Some((ids, _))) => {
                            ids[attr.index()] = pool.lookup(&v).expect("set_value interns");
                        }
                        (Err(_), None) => assert_eq!(pool.len(), pool_len, "failed write"),
                        (got, _) => panic!("set_value({id}) outcome {got:?}"),
                    }
                }
                3 => {
                    // Out-of-range weights exercise the clamp.
                    let ws: Vec<f64> = (0..ARITY)
                        .map(|_| (rng.gen_range(0..=14u32) as f64) / 10.0 - 0.2)
                        .collect();
                    let ok = rel.set_weights(id, &ws).is_ok();
                    assert_eq!(ok, model.set_weights(id, &ws), "set_weights({id})");
                }
                4 => assert_eq!(rel.compact(), model.compact(), "compact mapping"),
                _ => {
                    // Point reads across the whole id space and past it.
                    for slot in 0..model.slots.len() + 2 {
                        let id = TupleId(slot as u32);
                        let attr = AttrId(rng.gen_range(0..ARITY as u32) as u16);
                        let row = model.row(id);
                        assert_eq!(rel.value_id(id, attr), row.map(|r| r.0[attr.index()]));
                        assert_eq!(rel.cell_weight(id, attr), row.map(|r| r.1[attr.index()]));
                    }
                }
            }
            assert_matches(&rel, &model, "after op");
        }
    });
}

/// Degenerate shapes must not panic: an arity-0 schema (regression: the
/// constant scan once probed column 0 before checking arity) and an
/// empty relation.
#[test]
fn degenerate_relations_survive_the_pipeline() {
    let empty_schema = Schema::new("empty", &[] as &[&str]).unwrap();
    let rel = Relation::new_in(empty_schema.clone(), ValuePool::new_handle());
    let sigma = Sigma::normalize_in(empty_schema, vec![], rel.pool()).unwrap();
    assert!(detect(&rel, &sigma).is_clean());
    let out = batch_repair(&rel, &sigma).unwrap();
    assert_eq!(out.repair.len(), 0);
    // arity-4 but zero tuples, under a wildcard FD and a constant row
    let rel = Relation::new_in(schema(), ValuePool::new_handle());
    let cfd = |name: &str, lhs: u16, rhs: u16, l: PatternValue, r: PatternValue| {
        let row = PatternRow::new(vec![l], vec![r]);
        Cfd::new(name, vec![AttrId(lhs)], vec![AttrId(rhs)], vec![row]).unwrap()
    };
    let cfds = vec![
        cfd("fd", 0, 1, PatternValue::Wildcard, PatternValue::Wildcard),
        cfd(
            "const",
            2,
            3,
            PatternValue::Const(Value::str("v1")),
            PatternValue::Const(Value::str("v2")),
        ),
    ];
    let sigma = Sigma::normalize_in(schema(), cfds, rel.pool()).unwrap();
    assert!(detect(&rel, &sigma).is_clean());
    let out = batch_repair(&rel, &sigma).unwrap();
    assert_eq!(out.repair.len(), 0);
}

/// CSV export then bulk import reproduces every live tuple's ids (the
/// import dictionary-encodes into the same pool), and re-export is
/// byte-stable.
#[test]
fn csv_round_trip() {
    use cfdclean::model::csv::{read_relation_in, write_relation};
    trials(100, 0xC57D1FF, |rng| {
        let pool = ValuePool::new_handle();
        let mut rel = Relation::new_in(schema(), pool.clone());
        for _ in 0..rng.gen_range(1..10usize) {
            rel.insert(rand_tuple(rng, &pool)).unwrap();
        }
        let mut out = Vec::new();
        write_relation(&rel, &mut out).unwrap();
        let back = read_relation_in("model", &mut out.as_slice(), pool.clone()).unwrap();
        assert_eq!(back.len(), rel.len());
        for (id, t) in rel.iter() {
            let b = back.tuple(id).unwrap();
            for a in 0..ARITY {
                let attr = AttrId(a as u16);
                assert_eq!(t.id(attr), b.id(attr), "{id} attr {a} after round trip");
            }
        }
        let mut again = Vec::new();
        write_relation(&back, &mut again).unwrap();
        assert_eq!(out, again, "re-export must be byte-stable");
    });
}
