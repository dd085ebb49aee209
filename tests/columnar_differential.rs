//! Row-vs-column differential conformance suite.
//!
//! The columnar pivot swaps the storage layer under the entire repair
//! pipeline; this harness is the proof that nothing above it can tell.
//! Every trial drives an *identical* workload against a row-major and a
//! columnar relation and asserts bit-identical results at each stage:
//!
//! * storage operations — insert, delete, `set_value`, `set_value_id`,
//!   `set_weights`, `compact` — leave identical contents (values,
//!   weights, liveness, id mapping);
//! * `detect` produces identical [`ViolationReport`]s (per-tuple counts,
//!   per-CFD dirty lists, totals);
//! * `BATCHREPAIR` (both pickers) produces identical repairs and stats;
//! * `INCREPAIR` over a clean base produces identical repairs, delta ids,
//!   and stats;
//! * discovery mines identical dependency sets.
//!
//! Seeded trials via `cfd_prng`; failures reproduce exactly from the
//! seed. ≥ 100 trials run through the full pipeline (the acceptance bar),
//! plus another 100 through the storage-op fuzzer.

use std::sync::Arc;

use cfd_prng::{trials, ChaCha8Rng, Rng, SeedableRng};

use cfdclean::cfd::pattern::{PatternRow, PatternValue};
use cfdclean::cfd::violation::{detect, ViolationReport};
use cfdclean::cfd::{Cfd, Sigma};
use cfdclean::discovery::{discover, DiscoveryConfig};
use cfdclean::model::{AttrId, Relation, Schema, StorageLayout, Tuple, TupleId, Value, ValuePool};
use cfdclean::repair::{batch_repair, inc_repair, BatchConfig, IncConfig, PickStrategy};

const ARITY: usize = 4;

fn schema() -> Schema {
    Schema::new("diff", &["a", "b", "c", "d"]).unwrap()
}

/// A small value universe keeps collision (and thus violation) rates high.
fn rand_value(rng: &mut ChaCha8Rng) -> Value {
    if rng.gen_range(0..6u32) == 0 {
        Value::Null
    } else {
        Value::str(format!("v{}", rng.gen_range(0..6u32)))
    }
}

/// A tuple over `values`, interned into `pool`, with per-cell `weights`.
/// The repairing trials intern into a pool of their own: the
/// process-default shared pool is mutated by the concurrently running
/// tests, and its use counts break FINDV and PICKNEXT ties.
fn tuple_in(pool: &ValuePool, values: &[Value], weights: &[f64]) -> Tuple {
    let mut t = Tuple::from_ids(values.iter().map(|v| pool.intern(v)).collect());
    for (i, w) in weights.iter().enumerate() {
        t.set_weight(AttrId(i as u16), *w);
    }
    t
}

fn rand_tuple(rng: &mut ChaCha8Rng, pool: &ValuePool) -> Tuple {
    let values: Vec<Value> = (0..ARITY).map(|_| rand_value(rng)).collect();
    let weights: Vec<f64> = (0..ARITY)
        .map(|_| (rng.gen_range(0..=10u32) as f64) / 10.0)
        .collect();
    tuple_in(pool, &values, &weights)
}

/// Random Σ mixing a wildcard FD row with constant rows, like the paper's
/// tableaus.
fn rand_sigma(rng: &mut ChaCha8Rng, schema: &Schema, pool: &ValuePool) -> Sigma {
    let n = rng.gen_range(1..=3usize);
    let mut cfds = Vec::new();
    for i in 0..n {
        let l = rng.gen_range(0..ARITY);
        let mut r = rng.gen_range(0..ARITY);
        if l == r {
            r = (r + 1) % ARITY;
        }
        let pat = |rng: &mut ChaCha8Rng| {
            if rng.gen_bool(0.5) {
                PatternValue::Const(Value::str(format!("v{}", rng.gen_range(0..4u32))))
            } else {
                PatternValue::Wildcard
            }
        };
        let row = PatternRow::new(vec![pat(rng)], vec![pat(rng)]);
        cfds.push(
            Cfd::new(
                &format!("phi{i}"),
                vec![AttrId(l as u16)],
                vec![AttrId(r as u16)],
                vec![row],
            )
            .unwrap(),
        );
    }
    Sigma::normalize_in(schema.clone(), cfds, pool).unwrap()
}

/// Both layouts loaded with identical tuples (interned into `pool`)
/// through the normal insert path.
fn twin_relations(rows: &[Tuple], pool: &Arc<ValuePool>) -> (Relation, Relation) {
    let mut row = Relation::with_layout_in(schema(), StorageLayout::RowMajor, pool.clone());
    let mut col = Relation::with_layout_in(schema(), StorageLayout::Columnar, pool.clone());
    for t in rows {
        let a = row.insert(t.clone()).unwrap();
        let b = col.insert(t.clone()).unwrap();
        assert_eq!(a, b, "insert must assign identical ids");
    }
    (row, col)
}

/// Byte-level equality of two relations: same id space, same liveness,
/// same ids, same weights.
fn assert_same_contents(row: &Relation, col: &Relation, ctx: &str) {
    assert_eq!(row.len(), col.len(), "{ctx}: live count");
    assert_eq!(row.slot_count(), col.slot_count(), "{ctx}: slot count");
    for slot in 0..row.slot_count() {
        let id = TupleId(slot as u32);
        match (row.tuple(id), col.tuple(id)) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                for i in 0..ARITY {
                    let attr = AttrId(i as u16);
                    assert_eq!(a.id(attr), b.id(attr), "{ctx}: {id} attr {i} value");
                    assert_eq!(
                        a.weight(attr).to_bits(),
                        b.weight(attr).to_bits(),
                        "{ctx}: {id} attr {i} weight"
                    );
                }
            }
            (a, b) => panic!("{ctx}: liveness of {id} diverged ({a:?} vs {b:?})"),
        }
    }
}

fn assert_same_report(a: &ViolationReport, b: &ViolationReport, ctx: &str) {
    assert_eq!(a.total, b.total, "{ctx}: total");
    assert_eq!(a.per_tuple, b.per_tuple, "{ctx}: per-tuple counts");
    assert_eq!(a.per_cfd, b.per_cfd, "{ctx}: per-CFD dirty lists");
}

/// Storage-op fuzzer: a random op sequence applied to both layouts must
/// be observationally identical after every operation.
#[test]
fn differential_storage_operations() {
    trials(100, 0xC01D1FF, |rng| {
        let pool = ValuePool::shared();
        let rows: Vec<Tuple> = (0..rng.gen_range(1..12usize))
            .map(|_| rand_tuple(rng, &pool))
            .collect();
        let (mut row, mut col) = twin_relations(&rows, &pool);
        for _ in 0..rng.gen_range(1..24usize) {
            match rng.gen_range(0..6u32) {
                0 => {
                    let t = rand_tuple(rng, &pool);
                    let a = row.insert(t.clone()).unwrap();
                    let b = col.insert(t).unwrap();
                    assert_eq!(a, b);
                }
                1 => {
                    let id = TupleId(rng.gen_range(0..row.slot_count().max(1) as u32 + 1));
                    let a = row.delete(id);
                    let b = col.delete(id);
                    assert_eq!(a.is_ok(), b.is_ok(), "delete({id}) outcome");
                    if let (Ok(x), Ok(y)) = (a, b) {
                        assert_eq!(x, y, "deleted tuple contents");
                    }
                }
                2 => {
                    let id = TupleId(rng.gen_range(0..row.slot_count().max(1) as u32 + 1));
                    let attr = AttrId(rng.gen_range(0..ARITY as u32) as u16);
                    let v = rand_value(rng);
                    let a = row.set_value(id, attr, v.clone());
                    let b = col.set_value(id, attr, v);
                    assert_eq!(a.is_ok(), b.is_ok(), "set_value({id}) outcome");
                }
                3 => {
                    let id = TupleId(rng.gen_range(0..row.slot_count().max(1) as u32 + 1));
                    let ws: Vec<f64> = (0..ARITY)
                        .map(|_| (rng.gen_range(0..=10u32) as f64) / 10.0)
                        .collect();
                    let a = row.set_weights(id, &ws);
                    let b = col.set_weights(id, &ws);
                    assert_eq!(a.is_ok(), b.is_ok(), "set_weights({id}) outcome");
                }
                4 => {
                    let a = row.compact();
                    let b = col.compact();
                    assert_eq!(a, b, "compact mapping");
                }
                _ => {
                    // point reads across the whole id space
                    for slot in 0..row.slot_count() + 1 {
                        let id = TupleId(slot as u32);
                        let attr = AttrId(rng.gen_range(0..ARITY as u32) as u16);
                        assert_eq!(row.value_id(id, attr), col.value_id(id, attr));
                        assert_eq!(row.cell_weight(id, attr), col.cell_weight(id, attr));
                    }
                }
            }
            assert_same_contents(&row, &col, "after op");
        }
    });
}

/// Full pipeline: detection, both BATCHREPAIR pickers, INCREPAIR, and
/// discovery must be layout-blind. 100 seeded trials.
#[test]
fn differential_full_pipeline() {
    trials(100, 0xD1FFC01, |rng| {
        let pool = ValuePool::new_handle();
        let rows: Vec<Tuple> = (0..rng.gen_range(2..14usize))
            .map(|_| rand_tuple(rng, &pool))
            .collect();
        let sigma = rand_sigma(rng, &schema(), &pool);
        let (mut row, mut col) = twin_relations(&rows, &pool);
        // A few tombstones so detection sees a non-dense id space.
        for _ in 0..rng.gen_range(0..3usize) {
            let id = TupleId(rng.gen_range(0..row.slot_count() as u32));
            let _ = row.delete(id);
            let _ = col.delete(id);
        }
        assert_same_contents(&row, &col, "input");

        // Stage 1: detection.
        let report_row = detect(&row, &sigma);
        let report_col = detect(&col, &sigma);
        assert_same_report(&report_row, &report_col, "detect");

        // Stage 2: BATCHREPAIR, alternating picker per trial.
        let pick = if rng.gen_bool(0.5) {
            PickStrategy::GlobalBest
        } else {
            PickStrategy::DependencyOrdered
        };
        let config = BatchConfig {
            pick,
            ..Default::default()
        };
        let out_row = batch_repair(&row, &sigma, config.clone()).unwrap();
        let out_col = batch_repair(&col, &sigma, config).unwrap();
        assert_same_contents(&out_row.repair, &out_col.repair, "batch repair");
        assert_eq!(out_row.stats, out_col.stats, "batch stats");

        // Stage 3: INCREPAIR against the (clean, identical) repairs.
        let delta: Vec<Tuple> = (0..rng.gen_range(1..4usize))
            .map(|_| rand_tuple(rng, &pool))
            .collect();
        let inc_row = inc_repair(&out_row.repair, &delta, &sigma, IncConfig::default()).unwrap();
        let inc_col = inc_repair(&out_col.repair, &delta, &sigma, IncConfig::default()).unwrap();
        assert_same_contents(&inc_row.repair, &inc_col.repair, "inc repair");
        assert_eq!(inc_row.delta_ids, inc_col.delta_ids, "delta ids");
        assert_eq!(inc_row.stats, inc_col.stats, "inc stats");

        // Stage 4: discovery over the dirty inputs.
        let mined_row = discover(&row, &DiscoveryConfig::default());
        let mined_col = discover(&col, &DiscoveryConfig::default());
        assert_eq!(
            format!("{mined_row:?}"),
            format!("{mined_col:?}"),
            "mined dependencies"
        );
    });
}

/// Degenerate shapes must not panic on either layout: an arity-0 schema
/// (regression: the columnar constant scan once probed column 0 before
/// checking arity) and an empty relation.
#[test]
fn degenerate_relations_survive_the_pipeline() {
    let empty_schema = Schema::new("empty", &[] as &[&str]).unwrap();
    for layout in [StorageLayout::Columnar, StorageLayout::RowMajor] {
        let rel = Relation::with_layout(empty_schema.clone(), layout);
        let sigma = Sigma::normalize(empty_schema.clone(), vec![]).unwrap();
        assert!(detect(&rel, &sigma).is_clean());
        let out = batch_repair(&rel, &sigma, BatchConfig::default()).unwrap();
        assert_eq!(out.repair.len(), 0);
        // arity-4 but zero tuples
        let rel = Relation::with_layout(schema(), layout);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sigma = rand_sigma(&mut rng, &schema(), rel.pool());
        assert!(detect(&rel, &sigma).is_clean());
        let out = batch_repair(&rel, &sigma, BatchConfig::default()).unwrap();
        assert_eq!(out.repair.len(), 0);
    }
}

/// CSV import (columnar bulk-intern) must agree with a row-by-row rebuild
/// of the same file, and export must be layout-independent.
#[test]
fn differential_csv_round_trip() {
    use cfdclean::model::csv::{read_relation, write_relation};
    trials(100, 0xC57D1FF, |rng| {
        let pool = ValuePool::shared();
        let rows: Vec<Tuple> = (0..rng.gen_range(1..10usize))
            .map(|_| rand_tuple(rng, &pool))
            .collect();
        let (row, col) = twin_relations(&rows, &pool);
        let mut out_row = Vec::new();
        let mut out_col = Vec::new();
        write_relation(&row, &mut out_row).unwrap();
        write_relation(&col, &mut out_col).unwrap();
        assert_eq!(out_row, out_col, "CSV bytes must not depend on layout");
        let back = read_relation("diff", &mut out_col.as_slice()).unwrap();
        assert_eq!(back.layout(), StorageLayout::Columnar);
        assert_eq!(back.len(), col.len());
        for (id, t) in col.iter() {
            let b = back.tuple(id).unwrap();
            for i in 0..ARITY {
                let attr = AttrId(i as u16);
                assert_eq!(t.id(attr), b.id(attr), "{id} attr {i} after round trip");
            }
        }
    });
}
