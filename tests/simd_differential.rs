//! SIMD-on vs SIMD-off differential conformance suite.
//!
//! PR 6 replaced the hot distance kernel with a bit-parallel Myers/Hyyrö
//! DP (`cfd_repair::pricing`) and the constant-pattern detection scan
//! with a key-major 8-lane sweep — both pure speedups under the repo's
//! byte-identical determinism contract. This harness is the proof:
//!
//! * the bit-parallel kernel returns the **same integers** as the scalar
//!   reference OSA on seeded random strings — ASCII, multibyte UTF-8,
//!   empty, >64-char values crossing the u64 word boundary, and
//!   transposition-heavy typo strings — for both the exact and the
//!   bounded (cutoff) form;
//! * 300 seeded repair trials (200 `BATCHREPAIR` across thread-count
//!   corners + 100 `INCREPAIR`) produce byte-identical
//!   repairs and exact `f64` cost bits with the kernels forced on vs
//!   forced off (`BatchConfig::simd` / `IncConfig::simd`, the in-process
//!   form of `CFD_SIMD`); the CI determinism matrix additionally runs a
//!   `CFD_SIMD=0` corner over the whole suite;
//! * the vectorized constant scan reports exactly the violations of the
//!   scalar scan on random relations with nulls and tombstones.
//!
//! Seeded trials via `cfd_prng`; failures reproduce exactly from the seed.

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfdclean::cfd::pattern::{PatternRow, PatternValue};
use cfdclean::cfd::violation::{constant_scan_with_kernel, Engine};
use cfdclean::cfd::{Cfd, Sigma};
use cfdclean::model::{AttrId, Relation, Schema, Tuple, TupleId, Value, ValuePool};
use cfdclean::repair::distance::{dl_distance_bounded, dl_distance_reference};
use cfdclean::repair::pricing::TargetPricer;
use cfdclean::repair::{
    batch_repair, inc_repair, BatchConfig, IncConfig, Parallelism, PickStrategy,
};

const ARITY: usize = 4;

// ---------------------------------------------------------------------------
// Kernel-level properties: bit-parallel == scalar reference OSA.
// ---------------------------------------------------------------------------

/// Assert kernel agreement on one pair: exact distance, and the bounded
/// form's exact `Some(d) iff d ≤ cutoff` semantics around the distance.
fn assert_kernels_agree(a: &str, b: &str) {
    let want = dl_distance_reference(a, b);
    let p = TargetPricer::with_kernel(a, true);
    assert_eq!(p.distance(b), want, "bitparallel {a:?} vs {b:?}");
    for cutoff in want.saturating_sub(2)..=want + 2 {
        let got = p.distance_bounded(b, cutoff);
        let expect = if want <= cutoff { Some(want) } else { None };
        assert_eq!(got, expect, "bounded {a:?} vs {b:?} cutoff {cutoff}");
    }
    // The public entry points dispatch through the same kernels.
    assert_eq!(cfdclean::repair::distance::dl_distance(a, b), want);
    assert_eq!(
        dl_distance_bounded(a, b, want),
        Some(want),
        "dl_distance_bounded at the exact distance {a:?} vs {b:?}"
    );
}

fn rand_ascii(rng: &mut ChaCha8Rng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..9u32) as u8))
        .collect()
}

fn rand_multibyte(rng: &mut ChaCha8Rng, max_len: usize) -> String {
    const PALETTE: [char; 12] = ['a', 'b', 'é', 'ü', 'ß', '日', '本', 'č', 'x', 'ø', 'λ', '9'];
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
        .collect()
}

/// A typo-heavy variant of `s`: a few adjacent transpositions plus an
/// occasional substitution — the noise model the OSA extension exists for.
fn transpose_noise(rng: &mut ChaCha8Rng, s: &str) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    if chars.len() >= 2 {
        for _ in 0..rng.gen_range(1..4usize) {
            let i = rng.gen_range(0..chars.len() - 1);
            chars.swap(i, i + 1);
        }
    }
    if !chars.is_empty() && rng.gen_bool(0.5) {
        let i = rng.gen_range(0..chars.len());
        chars[i] = char::from(b'a' + rng.gen_range(0..9u32) as u8);
    }
    chars.into_iter().collect()
}

#[test]
fn bitparallel_matches_reference_ascii() {
    trials(400, 0x51AD_A5C1, |rng| {
        let a = rand_ascii(rng, 24);
        let b = rand_ascii(rng, 24);
        assert_kernels_agree(&a, &b);
        assert_kernels_agree(&a, &transpose_noise(rng, &a));
    });
}

#[test]
fn bitparallel_matches_reference_multibyte() {
    trials(300, 0x51AD_0075, |rng| {
        let a = rand_multibyte(rng, 16);
        // Mixed pairings: multibyte/multibyte and multibyte/ASCII, so the
        // ASCII fast path's zero-mask handling of non-ASCII candidates is
        // exercised from both sides.
        let b = if rng.gen_bool(0.5) {
            rand_multibyte(rng, 16)
        } else {
            rand_ascii(rng, 16)
        };
        assert_kernels_agree(&a, &b);
        assert_kernels_agree(&b, &a);
        assert_kernels_agree(&a, "");
        assert_kernels_agree("", &a);
    });
}

#[test]
fn bitparallel_matches_reference_across_word_boundary() {
    trials(150, 0x51AD_B0DD, |rng| {
        // Targets straddling the 64-char single-word limit: 60..=70 plus
        // an occasional ~120-char value. Past 64 the pricer falls back to
        // the scalar kernel; both sides of the seam must agree with the
        // reference and with each other.
        let len = if rng.gen_bool(0.2) {
            rng.gen_range(110..130usize)
        } else {
            rng.gen_range(60..=70usize)
        };
        let a: String = (0..len)
            .map(|_| char::from(b'a' + rng.gen_range(0..5u32) as u8))
            .collect();
        let b = transpose_noise(rng, &a);
        assert_kernels_agree(&a, &b);
        assert_kernels_agree(&b, &a);
        assert_kernels_agree(&a, &rand_ascii(rng, 80));
    });
}

#[test]
fn bitparallel_matches_reference_transposition_heavy() {
    trials(300, 0x51AD_7A95, |rng| {
        // Tiny alphabet → dense repeats → the `pm_prev`/`d0_prev` carry
        // chain is constantly active.
        let len = rng.gen_range(2..20usize);
        let a: String = (0..len)
            .map(|_| char::from(b'a' + rng.gen_range(0..3u32) as u8))
            .collect();
        let b = transpose_noise(rng, &a);
        let c: String = a.chars().rev().collect();
        assert_kernels_agree(&a, &b);
        assert_kernels_agree(&a, &c);
    });
}

// ---------------------------------------------------------------------------
// Repair-level differential: kernels on vs off, byte-identical repairs.
// ---------------------------------------------------------------------------

fn schema() -> Schema {
    Schema::new("simd", &["a", "b", "c", "d"]).unwrap()
}

/// Value universe with real string variety: city-like names the pricing
/// kernels chew on (including one >64-char value that forces the scalar
/// fallback for that target), plus nulls.
fn rand_value(rng: &mut ChaCha8Rng) -> Value {
    match rng.gen_range(0..12u32) {
        0 => Value::Null,
        1 => Value::str("Philadelphia-Center-City-Annex-With-A-Deliberately-Overlong-Label-19014"),
        n => Value::str(format!("Springfield-{:02}", n % 7)),
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

fn rand_relation(rng: &mut ChaCha8Rng) -> Relation {
    let pool = ValuePool::new_handle();
    let mut rel = Relation::new_in(schema(), pool.clone());
    for _ in 0..rng.gen_range(2..14usize) {
        rel.insert(rand_tuple(rng, &pool)).unwrap();
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let id = TupleId(rng.gen_range(0..rel.slot_count() as u32));
        let _ = rel.delete(id);
    }
    rel
}

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
                PatternValue::Const(Value::str(format!(
                    "Springfield-{:02}",
                    rng.gen_range(2..6)
                )))
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

/// 200 trials: `BATCHREPAIR` with the scalar kernels (simd off) is the
/// reference; the bit-parallel kernels must reproduce it byte-for-byte —
/// repairs, stats, and exact cost bits — at serial and sharded corners
/// and under both pickers.
#[test]
fn differential_batch_simd_on_off() {
    trials(200, 0x51AD_BA7C, |rng| {
        let rel = rand_relation(rng);
        let sigma = rand_sigma(rng, &schema(), rel.pool());
        let pick = if rng.gen_bool(0.5) {
            PickStrategy::GlobalBest
        } else {
            PickStrategy::DependencyOrdered
        };
        let reference = batch_repair(
            &rel,
            &sigma,
            BatchConfig {
                pick,
                parallelism: Parallelism::serial(),
                simd: Some(false),
                ..Default::default()
            },
        )
        .unwrap();
        for threads in [1usize, 2, 8] {
            let fast = batch_repair(
                &rel,
                &sigma,
                BatchConfig {
                    pick,
                    parallelism: Parallelism::threads(threads),
                    simd: Some(true),
                    ..Default::default()
                },
            )
            .unwrap();
            let ctx = format!("batch {pick:?} simd-on threads={threads}");
            assert_same_contents(&reference.repair, &fast.repair, &ctx);
            assert_eq!(reference.stats, fast.stats, "{ctx}: stats");
            assert_eq!(
                reference.stats.cost.to_bits(),
                fast.stats.cost.to_bits(),
                "{ctx}: cost bits"
            );
        }
    });
}

/// 100 trials: `INCREPAIR` with kernels on vs off — identical repairs,
/// delta ids, and stats (cost bits included).
#[test]
fn differential_increpair_simd_on_off() {
    trials(100, 0x51AD_14C0, |rng| {
        let rel = rand_relation(rng);
        let sigma = rand_sigma(rng, &schema(), rel.pool());
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
                simd: Some(false),
                ..Default::default()
            },
        )
        .unwrap();
        let fast = inc_repair(
            &base,
            &delta,
            &sigma,
            IncConfig {
                simd: Some(true),
                ..Default::default()
            },
        )
        .unwrap();
        assert_same_contents(&reference.repair, &fast.repair, "inc simd-on");
        assert_eq!(reference.delta_ids, fast.delta_ids, "inc: delta ids");
        assert_eq!(reference.stats, fast.stats, "inc: stats");
        assert_eq!(
            reference.stats.cost.to_bits(),
            fast.stats.cost.to_bits(),
            "inc: cost bits"
        );
    });
}

/// 150 trials: the vectorized constant scan reports exactly the scalar
/// scan's violations on random relations with nulls and tombstones.
#[test]
fn differential_constant_scan_simd() {
    trials(150, 0x51AD_DE7E, |rng| {
        let rel = rand_relation(rng);
        let sigma = rand_sigma(rng, &schema(), rel.pool());
        let engine = Engine::build(&rel, &sigma);
        let scalar = constant_scan_with_kernel(&rel, &sigma, &engine, false);
        let simd = constant_scan_with_kernel(&rel, &sigma, &engine, true);
        assert_eq!(simd, scalar, "constant scan reports diverged");
    });
}
