//! Serial-vs-sharded differential conformance suite.
//!
//! The sharded repair layer (`cfd_repair::shard`) fans census
//! construction and `PICKNEXT` frontier scoring out across threads; this
//! harness is the proof that thread count can never leak into results.
//! Every trial drives an *identical* workload through the serial
//! reference ([`Parallelism::serial`]) and through explicit 1/2/8-thread
//! configurations, asserting bit-identical outcomes:
//!
//! * `BATCHREPAIR` under **both** pickers (`GlobalBest`,
//!   `DependencyOrdered`) produces identical repairs — values, weights,
//!   liveness — and identical stats (steps, merges, consts, nulls, and
//!   the exact `f64` cost bits);
//! * `INCREPAIR` over a clean base produces identical repairs, delta ids,
//!   and stats.
//!
//! Mirrors `tests/columnar_differential.rs`: seeded trials via
//! `cfd_prng`, failures reproduce exactly from the seed. 400 trials total
//! (200 batch × both pickers, 100 conflict-heavy batch × both pickers,
//! 100 incremental); explicit thread counts spawn real workers. The CI
//! thread-count matrix additionally runs the whole suite under
//! `CFD_THREADS=1,2,8`, which flows into every *default*-config repair
//! in the repo (golden fixtures included).

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfdclean::cfd::pattern::{PatternRow, PatternValue};
use cfdclean::cfd::{Cfd, Sigma};
use cfdclean::model::{AttrId, Relation, Schema, Tuple, TupleId, Value, ValuePool};
use cfdclean::repair::{
    batch_repair, inc_repair, BatchConfig, IncConfig, Parallelism, PickStrategy,
};

const ARITY: usize = 4;
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn schema() -> Schema {
    Schema::new("par", &["a", "b", "c", "d"]).unwrap()
}

/// A small value universe keeps collision (and thus violation) rates high.
fn rand_value(rng: &mut ChaCha8Rng) -> Value {
    if rng.gen_range(0..6u32) == 0 {
        Value::Null
    } else {
        Value::str(format!("p{}", rng.gen_range(0..6u32)))
    }
}

/// A tuple over `values`, interned into `pool`, with per-cell `weights`.
/// Every trial interns into a pool of its own: the process-default shared
/// pool is mutated by the concurrently running tests, and its use counts
/// break FINDV and PICKNEXT ties.
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
/// tableaus. Multi-attribute LHS lists are included so the shard
/// partitioner sees compound keys.
fn rand_sigma(rng: &mut ChaCha8Rng, schema: &Schema, pool: &ValuePool) -> Sigma {
    let n = rng.gen_range(1..=3usize);
    let mut cfds = Vec::new();
    for i in 0..n {
        let l = rng.gen_range(0..ARITY);
        let mut r = rng.gen_range(0..ARITY);
        if l == r {
            r = (r + 1) % ARITY;
        }
        let wide = rng.gen_bool(0.3);
        let lhs: Vec<AttrId> = if wide {
            let l2 = (l + 1 + usize::from(r == (l + 1) % ARITY)) % ARITY;
            let mut v = vec![AttrId(l as u16), AttrId(l2 as u16)];
            v.sort();
            v.dedup();
            v.retain(|a| a.index() != r);
            if v.is_empty() {
                vec![AttrId(l as u16)]
            } else {
                v
            }
        } else {
            vec![AttrId(l as u16)]
        };
        let pat = |rng: &mut ChaCha8Rng| {
            if rng.gen_bool(0.5) {
                PatternValue::Const(Value::str(format!("p{}", rng.gen_range(0..4u32))))
            } else {
                PatternValue::Wildcard
            }
        };
        let row = PatternRow::new(lhs.iter().map(|_| pat(rng)).collect(), vec![pat(rng)]);
        cfds.push(Cfd::new(&format!("phi{i}"), lhs, vec![AttrId(r as u16)], vec![row]).unwrap());
    }
    Sigma::normalize_in(schema.clone(), cfds, pool).unwrap()
}

fn rand_relation(rng: &mut ChaCha8Rng) -> Relation {
    let pool = ValuePool::new_handle();
    let mut rel = Relation::new_in(schema(), pool.clone());
    for _ in 0..rng.gen_range(2..14usize) {
        rel.insert(rand_tuple(rng, &pool)).unwrap();
    }
    // A few tombstones so the shard walks see a non-dense id space.
    for _ in 0..rng.gen_range(0..3usize) {
        let id = TupleId(rng.gen_range(0..rel.slot_count() as u32));
        let _ = rel.delete(id);
    }
    rel
}

/// Bit-level equality of two relations: same id space, same liveness,
/// same value ids, same weight bits.
fn assert_same_contents(reference: &Relation, got: &Relation, ctx: &str) {
    assert_eq!(reference.len(), got.len(), "{ctx}: live count");
    assert_eq!(reference.slot_count(), got.slot_count(), "{ctx}: slots");
    for slot in 0..reference.slot_count() {
        let id = TupleId(slot as u32);
        match (reference.tuple(id), got.tuple(id)) {
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

/// Run one (relation, Σ) workload through the serial reference and the
/// sharded 1/2/8-thread configurations under both pickers, asserting
/// byte-identical repairs *and* stats (exact cost bits included).
fn assert_thread_matrix(rel: &Relation, sigma: &Sigma, label: &str) {
    for pick in [PickStrategy::GlobalBest, PickStrategy::DependencyOrdered] {
        let reference = batch_repair(
            rel,
            sigma,
            BatchConfig {
                pick,
                parallelism: Parallelism::serial(),
                ..Default::default()
            },
        )
        .unwrap();
        for threads in THREAD_COUNTS {
            let sharded = batch_repair(
                rel,
                sigma,
                BatchConfig {
                    pick,
                    parallelism: Parallelism::threads(threads),
                    ..Default::default()
                },
            )
            .unwrap();
            let ctx = format!("{label} {pick:?} threads={threads}");
            assert_same_contents(&reference.repair, &sharded.repair, &ctx);
            assert_eq!(reference.stats, sharded.stats, "{ctx}: stats");
            assert_eq!(
                reference.stats.cost.to_bits(),
                sharded.stats.cost.to_bits(),
                "{ctx}: cost bits"
            );
        }
    }
}

/// 200 trials × both pickers: sharded `BATCHREPAIR` at 1/2/8 threads must
/// be byte-identical to the serial reference.
#[test]
fn differential_batch_both_pickers() {
    trials(200, 0x5AA5_D1FF, |rng| {
        let rel = rand_relation(rng);
        let sigma = rand_sigma(rng, &schema(), rel.pool());
        assert_thread_matrix(&rel, &sigma, "batch");
    });
}

/// 100 trials on conflict-heavy workloads: a tiny key universe packs many
/// tuples into each LHS group and many groups into each shard, so the
/// sharded census and frontier scoring see dense, heavily contended
/// groups whose every tuple is dirty. Weights vary per cell so merge
/// winners and FINDV prices are non-trivial.
#[test]
fn differential_conflict_heavy_sharded() {
    trials(100, 0x0C0F_11C7, |rng| {
        let pool = ValuePool::new_handle();
        let mut rel = Relation::new_in(schema(), pool.clone());
        let rows = rng.gen_range(8..28usize);
        for _ in 0..rows {
            // Two group keys and three RHS values: nearly every tuple
            // conflicts with half its group.
            let key = format!("k{}", rng.gen_range(0..2u32));
            let vals = vec![
                Value::str(key),
                Value::str(format!("v{}", rng.gen_range(0..3u32))),
                Value::str(format!("w{}", rng.gen_range(0..3u32))),
                Value::str(format!("z{}", rng.gen_range(0..4u32))),
            ];
            let weights: Vec<f64> = (0..ARITY)
                .map(|_| (rng.gen_range(1..=10u32) as f64) / 10.0)
                .collect();
            rel.insert(tuple_in(&pool, &vals, &weights)).unwrap();
        }
        // An FD a→b (variable, always firing) plus a constant rule layer
        // on d→c so constant and variable resolutions interleave.
        let fd = Cfd::standard_fd("fd", vec![AttrId(0)], vec![AttrId(1)]);
        let cons = Cfd::new(
            "cons",
            vec![AttrId(3)],
            vec![AttrId(2)],
            vec![PatternRow::new(
                vec![PatternValue::constant("z0")],
                vec![PatternValue::constant("w0")],
            )],
        )
        .unwrap();
        let sigma = Sigma::normalize_in(schema(), vec![fd, cons], rel.pool()).unwrap();
        assert_thread_matrix(&rel, &sigma, "conflict");
    });
}

/// 100 trials: `INCREPAIR` against a clean base must be byte-identical at
/// every thread count (the parallel V-ordering scan and sharded index
/// builds must not reorder resolutions).
#[test]
fn differential_increpair() {
    trials(100, 0x14C_D1FF, |rng| {
        let rel = rand_relation(rng);
        let sigma = rand_sigma(rng, &schema(), rel.pool());
        // Clean base: repair it first (serial; batch parity is pinned above).
        let base = batch_repair(&rel, &sigma, BatchConfig::default())
            .unwrap()
            .repair;
        let delta: Vec<Tuple> = (0..rng.gen_range(1..5usize))
            .map(|_| rand_tuple(rng, base.pool()))
            .collect();
        let reference = inc_repair(
            &base,
            &delta,
            &sigma,
            IncConfig {
                parallelism: Parallelism::serial(),
                ..Default::default()
            },
        )
        .unwrap();
        for threads in THREAD_COUNTS {
            let sharded = inc_repair(
                &base,
                &delta,
                &sigma,
                IncConfig {
                    parallelism: Parallelism::threads(threads),
                    ..Default::default()
                },
            )
            .unwrap();
            let ctx = format!("inc threads={threads}");
            assert_same_contents(&reference.repair, &sharded.repair, &ctx);
            assert_eq!(reference.delta_ids, sharded.delta_ids, "{ctx}: delta ids");
            assert_eq!(reference.stats, sharded.stats, "{ctx}: stats");
        }
    });
}
