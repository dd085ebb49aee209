//! Randomized property tests for the repair crate's kernels: the DL
//! distance pair (exact vs cutoff-bounded vs id-memoized), the cost
//! model, the clustering index, the consistent-subset extractor and the
//! base-immutability of incremental repair. Seeded trials via `cfd_prng`.

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfd_cfd::violation::check;
use cfd_cfd::{Cfd, Sigma};
use cfd_model::{AttrId, Relation, Schema, Tuple, Value, ValueId, ValuePool};
use cfd_repair::cluster::ValueIndex;
use cfd_repair::cost::{change_cost, change_cost_ids, class_assign_cost, tuple_cost};
use cfd_repair::distance::{dl_distance, dl_distance_bounded, normalized_distance, DistanceCache};
use cfd_repair::{consistent_subset, inc_repair, IncConfig};

/// A random word over a 4-letter alphabet, length 0..=max.
fn word(rng: &mut ChaCha8Rng, max: usize) -> String {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| (b'a' + rng.gen_range(0..4u32) as u8) as char)
        .collect()
}

/// The bounded DL distance agrees with the exact one whenever the exact
/// distance fits the cutoff, and reports `None` exactly when it does not.
#[test]
fn bounded_distance_agrees_with_exact() {
    trials(192, 0xB0D, |rng| {
        let a = word(rng, 8);
        let b = word(rng, 8);
        let cutoff = rng.gen_range(0..10usize);
        let exact = dl_distance(&a, &b);
        match dl_distance_bounded(&a, &b, cutoff) {
            Some(d) => {
                assert_eq!(d, exact);
                assert!(d <= cutoff);
            }
            None => assert!(exact > cutoff),
        }
    });
}

/// DL distance bounds: at most max(|a|, |b|), zero iff equal.
#[test]
fn distance_bounds() {
    trials(192, 0xD15, |rng| {
        let a = word(rng, 8);
        let b = word(rng, 8);
        let d = dl_distance(&a, &b);
        assert!(d <= a.chars().count().max(b.chars().count()));
        assert_eq!(d == 0, a == b);
    });
}

/// `normalized_distance` lands in [0, 1] and is symmetric; the cost model
/// scales it linearly by the weight — and the memoized id path agrees
/// with the value path exactly.
#[test]
fn cost_model_is_weighted_normalized_distance() {
    trials(192, 0xC05, |rng| {
        let a = word(rng, 6);
        let b = word(rng, 6);
        let w = rng.gen_range(0.0..1.0);
        let (va, vb) = (Value::str(&a), Value::str(&b));
        let nd = normalized_distance(&va, &vb);
        assert!((0.0..=1.0).contains(&nd));
        assert!((normalized_distance(&vb, &va) - nd).abs() < 1e-12);
        let c = change_cost(w, &va, &vb);
        assert!((c - w * nd).abs() < 1e-12);
        // the id-memoized form returns the identical cost
        let pool = ValuePool::new_handle();
        let (ia, ib) = (pool.intern(&va), pool.intern(&vb));
        let mut cache = DistanceCache::for_pool(pool);
        let ci = change_cost_ids(w, ia, ib, &mut cache);
        assert!((ci - c).abs() < 1e-12);
        // and again from the cache
        let ci2 = change_cost_ids(w, ia, ib, &mut cache);
        assert_eq!(ci, ci2);
    });
}

/// `tuple_cost` sums per-attribute change costs; unchanged tuples cost
/// zero.
#[test]
fn tuple_cost_is_additive() {
    trials(192, 0x7C0, |rng| {
        let vals: Vec<String> = (0..3).map(|_| word(rng, 4)).collect();
        let schema = Schema::new("r", &["a", "b", "c"]).unwrap();
        let mut rel = Relation::new_in(schema, ValuePool::new_handle());
        let t = rel
            .insert(Tuple::new_in(vals.iter().map(|s| &s[..]), rel.pool()))
            .unwrap();
        let mut changed = vals.clone();
        changed[1] = "zzz".to_string();
        let t2 = rel.insert(Tuple::new_in(changed, rel.pool())).unwrap();
        let (t, t2) = (rel.tuple(t).unwrap(), rel.tuple(t2).unwrap());
        assert_eq!(tuple_cost(&t, &t), 0.0);
        let expected = change_cost(t.weight(AttrId(1)), &t.value(AttrId(1)), &Value::str("zzz"));
        assert!((tuple_cost(&t, &t2) - expected).abs() < 1e-12);
    });
}

/// `class_assign_cost` of a class to a value its members already hold is
/// zero, and is monotone in membership (adding a member never lowers it).
#[test]
fn class_cost_monotone_in_members() {
    trials(192, 0xC1A, |rng| {
        let members: Vec<(f64, Value)> = (0..rng.gen_range(1..6usize))
            .map(|_| (rng.gen_range(0.0..1.0), Value::str(word(rng, 4))))
            .collect();
        let tv = Value::str(word(rng, 4));
        let full = class_assign_cost(members.iter().map(|(w, v)| (*w, v)), &tv);
        let partial = class_assign_cost(members[1..].iter().map(|(w, v)| (*w, v)), &tv);
        assert!(full >= partial - 1e-12);
        let same = class_assign_cost(members.iter().map(|(w, _)| (*w, &tv)), &tv);
        assert_eq!(same, 0.0);
    });
}

/// The clustering index returns the same nearest set as a naive scan (as
/// a set of distances, since ties may reorder).
#[test]
fn value_index_matches_naive_nearest() {
    trials(192, 0x71E, |rng| {
        let mut values = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(1..12usize) {
            let mut w = word(rng, 5);
            if w.is_empty() {
                w.push('a');
            }
            values.insert(w);
        }
        let pool = ValuePool::new_handle();
        let ids: Vec<ValueId> = values.iter().map(|v| pool.intern(&Value::str(v))).collect();
        let mut index = ValueIndex::from_ids_in(ids, pool.clone());
        let probe = pool.intern(&Value::str(word(rng, 5)));
        let limit = rng.gen_range(1..6usize);
        let fast = index.nearest(probe, limit);
        let naive = index.nearest_naive(probe, limit);
        let fd: Vec<usize> = fast.iter().map(|(_, d)| *d).collect();
        let nd: Vec<usize> = naive.iter().map(|(_, d)| *d).collect();
        assert_eq!(fd, nd, "fast {fast:?} vs naive {naive:?}");
    });
}

/// `consistent_subset` really is consistent, and it partitions the
/// relation (clean ∪ pending = all ids, disjoint).
#[test]
fn consistent_subset_is_consistent_and_partitions() {
    trials(128, 0x5B5E7, |rng| {
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let fd = Cfd::standard_fd("kv", vec![AttrId(0)], vec![AttrId(1)]);
        let sigma = Sigma::normalize_in(schema.clone(), vec![fd], &ValuePool::new()).unwrap();
        let mut rel = Relation::new_in(schema, ValuePool::new_handle());
        for _ in 0..rng.gen_range(1..12usize) {
            let row = [
                format!("v{}", rng.gen_range(0..4u32)),
                format!("v{}", rng.gen_range(0..4u32)),
            ];
            rel.insert(Tuple::new_in(row.iter().map(|s| &s[..]), rel.pool()))
                .unwrap();
        }
        let (clean, pending) = consistent_subset(&rel, &sigma);
        let mut sub = rel.clone();
        for id in &pending {
            sub.delete(*id).unwrap();
        }
        assert!(check(&sub, &sigma), "clean subset must satisfy sigma");
        assert_eq!(clean.len() + pending.len(), rel.len());
        let mut all: Vec<_> = clean.iter().chain(pending.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), rel.len(), "partition must not overlap");
    });
}

/// `inc_repair` never rewrites the clean base: every base tuple is
/// byte-identical afterwards, whatever ΔD contains.
#[test]
fn incremental_repair_never_touches_the_base() {
    trials(64, 0x1BA5E, |rng| {
        let schema = Schema::new("r", &["k", "v"]).unwrap();
        let fd = Cfd::standard_fd("kv", vec![AttrId(0)], vec![AttrId(1)]);
        let sigma = Sigma::normalize_in(schema.clone(), vec![fd], &ValuePool::new()).unwrap();
        let mut base = Relation::new_in(schema, ValuePool::new_handle());
        // make the base trivially clean: v = f(k)
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(1..8usize) {
            let k = rng.gen_range(0..3u32);
            if seen.insert(k) {
                base.insert(Tuple::new_in(
                    [format!("k{k}"), format!("v{k}")],
                    base.pool(),
                ))
                .unwrap();
            }
        }
        let delta: Vec<Tuple> = (0..rng.gen_range(1..5usize))
            .map(|_| {
                Tuple::new_in(
                    [
                        format!("k{}", rng.gen_range(0..3u32)),
                        format!("w{}", rng.gen_range(0..3u32)),
                    ],
                    base.pool(),
                )
            })
            .collect();
        let out = inc_repair(&base, &delta, &sigma, IncConfig::default()).unwrap();
        assert!(check(&out.repair, &sigma));
        for (id, t) in base.iter() {
            assert_eq!(
                out.repair.tuple(id).expect("base tuple survives").values(),
                t.values(),
                "base tuple {id} was modified"
            );
        }
    });
}
