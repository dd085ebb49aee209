//! Sharded parallel repair machinery: the LHS-key partitioner, per-shard
//! group censuses, and the deterministic frontier merge.
//!
//! `BATCHREPAIR` spends its setup phase on two embarrassingly parallel
//! jobs — building the per-shape [`GroupCensus`] and pricing the initial
//! `PICKNEXT` frontier — both of which read frozen state keyed by each
//! tuple's LHS projection. Dictionary encoding (PR 1) made those keys
//! `Copy` `u32` runs and columnar storage (PR 2) made the inputs `Sync`
//! column slices, so the work partitions cleanly: hash every group key
//! into one of `N` ranges ([`shard_of`]), hand each range to a
//! `std::thread::scope` worker, and merge. The partition respects group
//! boundaries — a group key lands wholly inside one shard — which is the
//! same degree/partition reasoning that makes FD-aware join evaluation
//! parallelizable (Abo Khamis et al.).
//!
//! **Determinism is the contract.** Parallel repair must be byte-identical
//! to serial repair at every thread count:
//!
//! * the census merge is a disjoint-key map union, and every bucket is
//!   accumulated in ascending tuple-id order inside exactly one worker, so
//!   even the floating-point weight sums are bit-identical to a serial
//!   build;
//! * shard frontiers are merged under the total, seed-independent order of
//!   [`Candidate::key`] — cost first, then the planned value's global
//!   [`ValuePool::use_count`](cfd_model::ValuePool::use_count) (more
//!   corroborated values first), then [`ValueId`], then (CFD, tuple) for
//!   totality — mirroring the stable conflict-resolution orderings of
//!   trust-mapping style resolution (Gatterbauer & Suciu): no outcome ever
//!   depends on which worker finished first.
//!
//! [`Parallelism`] carries the thread count through the repair entry
//! points. The default resolves from the `CFD_THREADS` environment
//! variable (1 when unset; the CI determinism matrix runs the whole suite
//! at 1/2/8), and explicit counts override it — the implementation is
//! pure `std`.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cfd_cfd::Sigma;
use cfd_model::{AttrId, IdKey, Relation, TupleId, TupleView, ValueId};

/// Upper bound on configurable threads; far above any sensible fan-out.
pub(crate) const MAX_THREADS: usize = 64;

/// Thread-count configuration for the repair layer.
///
/// The count is resolved at construction and always ≥ 1; `1` means the
/// serial code paths run (no worker threads are spawned). The contract
/// holds at every count: repairs are byte-identical regardless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Single-threaded: the reference the differential suite pins the
    /// sharded paths against.
    pub fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// An explicit thread count (clamped to `1..=64`).
    pub fn threads(n: usize) -> Self {
        Parallelism {
            threads: n.clamp(1, MAX_THREADS),
        }
    }

    /// The resolved thread count (≥ 1).
    pub fn get(&self) -> usize {
        self.threads
    }

    /// Will worker threads be used?
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

impl Default for Parallelism {
    /// The `CFD_THREADS` resolution (1 when unset), parsed in
    /// [`crate::options`].
    fn default() -> Self {
        Parallelism {
            threads: crate::options::env_threads(),
        }
    }
}

/// Shard index of a group key: a stable FNV-1a hash of the id run, reduced
/// modulo the shard count. Stability matters — `std`'s hasher is seeded
/// per-process, and the partition must be a pure function of the data so
/// shard assignment can never leak into observable behaviour.
pub fn shard_of(key: &[ValueId], shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (fnv1a(0xcbf2_9ce4_8422_2325, key.iter().map(|v| v.0)) % shards as u64) as usize
}

/// FNV-1a over a stream of `u32`s (little-endian bytes).
fn fnv1a(seed: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = seed;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The same FNV-1a 64 as [`shard_of`], as a `Hasher` for hot-path maps
/// (e.g. the `DistanceCache` memo, keyed on small fixed-width id pairs).
pub use cfd_model::hash::{Fnv64, FnvBuildHasher};

/// The distinct `(LHS attrs, RHS attr)` shapes among the
/// subsumption-minimal variable CFDs of `sigma` — the shapes a
/// [`GroupCensus`] tracks.
pub fn variable_shapes(sigma: &Sigma) -> Vec<(Vec<AttrId>, AttrId)> {
    let mut seen = Vec::new();
    for id in cfd_cfd::violation::minimal_variable_ids(sigma) {
        let n = sigma.get(id);
        let shape = (n.lhs().to_vec(), n.rhs_attr());
        if !seen.contains(&shape) {
            seen.push(shape);
        }
    }
    seen
}

/// One value bucket of a group: the live carriers of a single RHS value
/// plus their weight sum, maintained incrementally so group-majority
/// decisions are O(distinct values) instead of O(|group|).
#[derive(Default)]
pub(crate) struct ValueBucket {
    /// Ordered so carrier enumeration within a bucket is deterministic.
    /// Bucket order itself is `ValueId` (interning) order — the
    /// interning-history-sensitive decisions (merge winner, dirty-mark
    /// majority, partner choice) each re-anchor to value order or tuple
    /// id explicitly.
    pub(crate) ids: BTreeSet<TupleId>,
    pub(crate) weight: f64,
}

pub(crate) type GroupMap = HashMap<IdKey, BTreeMap<ValueId, ValueBucket>>;

/// One carrier of one shape, as extracted by the sharded build's first
/// phase: everything the insert phase needs. The shard is resolved at
/// extraction, so each key is projected and partition-hashed exactly once
/// across all workers.
struct CensusEntry {
    key: IdKey,
    id: TupleId,
    v: ValueId,
    w: f64,
}

/// Phase 1 of the sharded census build: the census entries of one
/// ascending id chunk, bucketed `[shape][shard]`. Reads column slices
/// directly on columnar storage, row views otherwise.
fn extract_entries(
    rel: &Relation,
    variable: &[(Vec<AttrId>, AttrId)],
    part: &[TupleId],
    shards: usize,
) -> Vec<Vec<Vec<CensusEntry>>> {
    let mut out: Vec<Vec<Vec<CensusEntry>>> = (0..variable.len())
        .map(|_| {
            (0..shards)
                .map(|_| Vec::with_capacity(part.len() / shards + 1))
                .collect()
        })
        .collect();
    let columnar = rel.schema().arity() == 0 || rel.column(AttrId(0)).is_some();
    if columnar {
        for ((lhs, rhs), entries) in variable.iter().zip(out.iter_mut()) {
            let lhs_cols: Vec<&[ValueId]> = lhs
                .iter()
                .map(|a| rel.column(*a).expect("columnar layout"))
                .collect();
            let rhs_col = rel.column(*rhs).expect("columnar layout");
            let w_col = rel.weight_column(*rhs).expect("columnar layout");
            for id in part {
                let slot = id.index();
                let v = rhs_col[slot];
                if v.is_null() {
                    continue;
                }
                let key: IdKey = lhs_cols.iter().map(|c| c[slot]).collect();
                entries[shard_of(key.as_slice(), shards)].push(CensusEntry {
                    key,
                    id: *id,
                    v,
                    w: w_col[slot],
                });
            }
        }
        return out;
    }
    for id in part {
        let t = rel.tuple(*id).expect("listed id is live");
        for ((lhs, rhs), entries) in variable.iter().zip(out.iter_mut()) {
            let v = t.id(*rhs);
            if v.is_null() {
                continue;
            }
            let key = t.project_key(lhs);
            entries[shard_of(key.as_slice(), shards)].push(CensusEntry {
                key,
                id: *id,
                v,
                w: t.weight(*rhs),
            });
        }
    }
    out
}

/// Per-(variable-shape, group-key) census of non-null RHS values. Gives
/// the repair loop's `violates` an O(1) fast path — "this group holds at
/// most one distinct value, nothing to do" — where a scan would be
/// O(|group|). Low-cardinality FDs (CTY → VAT has five groups) make that
/// scan O(|D|) per stale dirty entry, turning the whole repair quadratic
/// without the census. The same buckets drive group-majority merge
/// pricing.
///
/// Construction shards by LHS-key hash range across `std::thread::scope`
/// workers (see the module docs for the determinism argument); all other
/// operations run on the merged, layout-identical result.
pub struct GroupCensus {
    /// One census per distinct (lhs attrs, rhs attr) among variable CFDs:
    /// group key → RHS value → the live tuple ids currently carrying it.
    pub(crate) shapes: Vec<(Vec<AttrId>, AttrId, GroupMap)>,
}

impl GroupCensus {
    /// Build the census for `rel` over the given variable shapes, using
    /// `par` worker threads. Any thread count produces bit-identical
    /// contents (weight sums included).
    ///
    /// The sharded path runs in two chunk/shard-parallel phases so no key
    /// is projected or hashed twice:
    ///
    /// 1. **extract** — contiguous id chunks fan out across workers, each
    ///    emitting `(shard, key, id, value, weight)` entries per shape;
    ///    chunk results concatenate back into ascending id order;
    /// 2. **insert** — shard ranges fan out across workers, each folding
    ///    exactly its own entries (still in ascending id order, so bucket
    ///    weight sums add in serial order) into a private [`GroupMap`].
    ///
    /// The final union is a disjoint-key move: a group key lives wholly
    /// inside the shard its hash selects.
    pub fn build(rel: &Relation, variable: &[(Vec<AttrId>, AttrId)], par: &Parallelism) -> Self {
        let threads = par.get().min(rel.len().max(1));
        if threads <= 1 {
            return Self::build_serial(rel, variable);
        }
        // Phase 1: per-(shape, shard) entry extraction over id chunks.
        let live: Vec<TupleId> = rel.ids().collect();
        let chunk = live.len().div_ceil(threads).max(1);
        let chunked: Vec<Vec<Vec<Vec<CensusEntry>>>> = std::thread::scope(|s| {
            let handles: Vec<_> = live
                .chunks(chunk)
                .map(|part| s.spawn(move || extract_entries(rel, variable, part, threads)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("census extract shard panicked"))
                .collect()
        });
        // Regroup chunk results (ascending id ranges) into per-shard work
        // lists: appending in chunk order keeps every list id-ascending.
        let mut per_shard: Vec<Vec<Vec<CensusEntry>>> = (0..threads)
            .map(|_| (0..variable.len()).map(|_| Vec::new()).collect())
            .collect();
        for mut part in chunked {
            for (si, shard_lists) in part.iter_mut().enumerate() {
                for (shard, from) in shard_lists.iter_mut().enumerate() {
                    per_shard[shard][si].append(from);
                }
            }
        }
        // Phase 2: per-shard insertion; each worker owns its entries, so
        // keys move straight into the maps.
        let parts: Vec<Vec<GroupMap>> = std::thread::scope(|s| {
            let handles: Vec<_> = per_shard
                .into_iter()
                .map(|mine| {
                    s.spawn(move || {
                        mine.into_iter()
                            .map(|shape_entries| {
                                let mut map: GroupMap = HashMap::new();
                                for e in shape_entries {
                                    let bucket =
                                        map.entry(e.key).or_default().entry(e.v).or_default();
                                    bucket.ids.insert(e.id);
                                    bucket.weight += e.w;
                                }
                                map
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("census insert shard panicked"))
                .collect()
        });
        let mut shapes: Vec<(Vec<AttrId>, AttrId, GroupMap)> = variable
            .iter()
            .map(|(lhs, rhs)| (lhs.clone(), *rhs, HashMap::new()))
            .collect();
        for part in parts {
            for ((_, _, into), from) in shapes.iter_mut().zip(part) {
                debug_assert!(from.keys().all(|k| !into.contains_key(k)));
                into.extend(from);
            }
        }
        GroupCensus { shapes }
    }

    /// The single-threaded reference build.
    fn build_serial(rel: &Relation, variable: &[(Vec<AttrId>, AttrId)]) -> Self {
        let mut shapes: Vec<(Vec<AttrId>, AttrId, GroupMap)> = variable
            .iter()
            .map(|(lhs, rhs)| (lhs.clone(), *rhs, HashMap::new()))
            .collect();
        // Columnar fast path: one pass per shape over exactly the shape's
        // LHS/RHS/weight column slices — the census walk never touches
        // attributes outside the shape.
        if rel.schema().arity() == 0 || rel.column(AttrId(0)).is_some() {
            let live: Vec<TupleId> = rel.ids().collect();
            for (lhs, rhs, map) in &mut shapes {
                let lhs_cols: Vec<&[ValueId]> = lhs
                    .iter()
                    .map(|a| rel.column(*a).expect("columnar layout"))
                    .collect();
                let rhs_col = rel.column(*rhs).expect("columnar layout");
                let w_col = rel.weight_column(*rhs).expect("columnar layout");
                for id in &live {
                    let slot = id.index();
                    let v = rhs_col[slot];
                    if v.is_null() {
                        continue;
                    }
                    let key: IdKey = lhs_cols.iter().map(|c| c[slot]).collect();
                    let bucket = map.entry(key).or_default().entry(v).or_default();
                    bucket.ids.insert(*id);
                    bucket.weight += w_col[slot];
                }
            }
            return GroupCensus { shapes };
        }
        for (id, t) in rel.iter() {
            for (lhs, rhs, map) in &mut shapes {
                let v = t.id(*rhs);
                if v.is_null() {
                    continue;
                }
                let bucket = map
                    .entry(t.project_key(lhs))
                    .or_default()
                    .entry(v)
                    .or_default();
                bucket.ids.insert(id);
                bucket.weight += t.weight(*rhs);
            }
        }
        GroupCensus { shapes }
    }

    pub(crate) fn shape(&self, lhs: &[AttrId], rhs: AttrId) -> Option<&GroupMap> {
        self.shapes
            .iter()
            .find(|(l, r, _)| l == lhs && *r == rhs)
            .map(|(_, _, map)| map)
    }

    /// All value buckets of `t`'s group under the shape `(lhs, rhs)`.
    /// `None` when the shape or group is untracked (e.g. every carrier
    /// is null).
    pub(crate) fn value_buckets<V: TupleView + ?Sized>(
        &self,
        lhs: &[AttrId],
        rhs: AttrId,
        t: &V,
    ) -> Option<&BTreeMap<ValueId, ValueBucket>> {
        self.shape(lhs, rhs)
            .and_then(|map| map.get(&t.project_key(lhs)))
    }

    /// Record an in-place update of one tuple.
    pub(crate) fn update(
        &mut self,
        id: TupleId,
        before: &cfd_model::Tuple,
        after: &cfd_model::Tuple,
    ) {
        for (lhs, rhs, map) in &mut self.shapes {
            let key_changed = !before.agrees_on(after, lhs);
            let val_changed = before.id(*rhs) != after.id(*rhs);
            if !key_changed && !val_changed {
                continue;
            }
            let old_v = before.id(*rhs);
            if !old_v.is_null() {
                if let Some(vals) = map.get_mut(&before.project_key(lhs)) {
                    if let Some(bucket) = vals.get_mut(&old_v) {
                        if bucket.ids.remove(&id) {
                            bucket.weight -= before.weight(*rhs);
                        }
                        if bucket.ids.is_empty() {
                            vals.remove(&old_v);
                        }
                    }
                }
            }
            let new_v = after.id(*rhs);
            if !new_v.is_null() {
                let bucket = map
                    .entry(after.project_key(lhs))
                    .or_default()
                    .entry(new_v)
                    .or_default();
                if bucket.ids.insert(id) {
                    bucket.weight += after.weight(*rhs);
                }
            }
        }
    }

    /// Total carriers across all shapes and buckets — a cheap black-box
    /// result for benchmarks.
    pub fn carriers(&self) -> usize {
        self.shapes
            .iter()
            .map(|(_, _, map)| {
                map.values()
                    .map(|vals| vals.values().map(|b| b.ids.len()).sum::<usize>())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Order-independent content digest: shapes, group keys, bucket values
    /// and carriers, and the exact weight bits. Two censuses with equal
    /// checksums over the same relation are bit-identical for every
    /// decision the repair loop reads off them — the serial-vs-sharded
    /// parity assertion in benches and tests.
    pub fn checksum(&self) -> u64 {
        let mut total: u64 = 0;
        for (si, (_, _, map)) in self.shapes.iter().enumerate() {
            for (key, vals) in map {
                let mut h = fnv1a(
                    0xcbf2_9ce4_8422_2325 ^ (si as u64),
                    key.as_slice().iter().map(|v| v.0),
                );
                for (v, bucket) in vals {
                    h = fnv1a(h, std::iter::once(v.0));
                    h = fnv1a(h, bucket.ids.iter().map(|id| id.0));
                    let w = bucket.weight.to_bits();
                    h = fnv1a(h, [w as u32, (w >> 32) as u32]);
                }
                // Commutative fold: HashMap iteration order cannot leak in.
                total = total.wrapping_add(h);
            }
        }
        total
    }
}

/// One priced entry of a shard's `PICKNEXT` frontier: the planned fix of a
/// dirty (CFD, tuple) pair, reduced to its total ordering key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Order-preserving bits of the planned resolution cost.
    pub cost: u64,
    /// `u64::MAX − use_count(value)`: globally corroborated values sort
    /// first among equal costs (`u64::MAX` when the fix pins no constant).
    pub freq: u64,
    /// Raw id of the planned target value (ties after frequency).
    pub value: u32,
    /// The violated CFD.
    pub cfd: u32,
    /// The dirty tuple.
    pub tid: u32,
}

impl Candidate {
    /// The total, seed-independent order the frontier merge and the repair
    /// heap share: cost, then value frequency (descending use count), then
    /// `ValueId`, then (CFD, tuple id) for totality. Every component is a
    /// pure function of relation content — never of shard assignment,
    /// thread interleaving, or hash iteration order.
    pub fn key(self) -> (u64, u64, u32, u32, u32) {
        (self.cost, self.freq, self.value, self.cfd, self.tid)
    }
}

/// Merge per-shard frontiers into one list sorted under [`Candidate::key`].
/// The result is independent of the shard count and of the order shards
/// are supplied in: keys are distinct per (CFD, tuple) pair, so the sort
/// is a total order.
pub fn merge_frontiers(shards: Vec<Vec<Candidate>>) -> Vec<Candidate> {
    let mut all: Vec<Candidate> = shards.into_iter().flatten().collect();
    all.sort_unstable_by_key(|c| c.key());
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::{Schema, Tuple, Value};
    use cfd_prng::{ChaCha8Rng, Rng, SeedableRng};

    #[test]
    fn parallelism_clamps_and_reports() {
        assert_eq!(Parallelism::serial().get(), 1);
        assert!(!Parallelism::serial().is_parallel());
        assert_eq!(Parallelism::threads(0).get(), 1);
        assert_eq!(Parallelism::threads(8).get(), 8);
        assert!(Parallelism::threads(8).is_parallel());
        assert_eq!(Parallelism::threads(10_000).get(), MAX_THREADS);
        assert!(Parallelism::default().get() >= 1);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let key: Vec<ValueId> = vec![ValueId(7), ValueId(99)];
        let first = shard_of(&key, 8);
        for _ in 0..10 {
            assert_eq!(shard_of(&key, 8), first);
        }
        for shards in 1..=16 {
            for seed in 0..64u32 {
                let k = vec![ValueId(seed), ValueId(seed * 31)];
                assert!(shard_of(&k, shards) < shards);
            }
        }
        assert_eq!(shard_of(&key, 1), 0);
        assert_eq!(shard_of(&[], 4), shard_of(&[], 4));
    }

    #[test]
    fn shard_of_spreads_keys() {
        // Not a distribution guarantee, but the partitioner must not
        // degenerate to one shard on a realistic key population.
        let mut hit = vec![false; 4];
        for i in 0..256u32 {
            hit[shard_of(&[ValueId(i + 1)], 4)] = true;
        }
        assert!(hit.iter().all(|h| *h), "some shard never selected: {hit:?}");
    }

    fn random_relation(rng: &mut ChaCha8Rng, rows: usize) -> Relation {
        let schema = Schema::new("s", &["a", "b", "c"]).unwrap();
        let mut rel = Relation::new(schema);
        for _ in 0..rows {
            let mk = |rng: &mut ChaCha8Rng| {
                if rng.gen_range(0..8u32) == 0 {
                    Value::Null
                } else {
                    Value::str(format!("x{}", rng.gen_range(0..16u32)))
                }
            };
            let values = vec![mk(rng), mk(rng), mk(rng)];
            let weights = (0..3)
                .map(|_| (rng.gen_range(0..=10u32) as f64) / 10.0)
                .collect();
            rel.insert(Tuple::with_weights(values, weights)).unwrap();
        }
        rel
    }

    #[test]
    fn sharded_census_matches_serial() {
        let shapes = vec![
            (vec![AttrId(0)], AttrId(2)),
            (vec![AttrId(0), AttrId(1)], AttrId(2)),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
        for _ in 0..20 {
            let rel = random_relation(&mut rng, 60);
            let serial = GroupCensus::build(&rel, &shapes, &Parallelism::serial());
            for threads in [2, 3, 8] {
                let sharded = GroupCensus::build(&rel, &shapes, &Parallelism::threads(threads));
                assert_eq!(serial.checksum(), sharded.checksum(), "threads={threads}");
                assert_eq!(serial.carriers(), sharded.carriers(), "threads={threads}");
            }
        }
    }

    #[test]
    fn checksum_detects_content_changes() {
        let shapes = vec![(vec![AttrId(0)], AttrId(2))];
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let rel = random_relation(&mut rng, 40);
        let base = GroupCensus::build(&rel, &shapes, &Parallelism::serial());
        let mut other = rel.clone();
        // Find a live tuple with a non-null RHS and move it elsewhere.
        let victim = other
            .iter()
            .find(|(_, t)| !t.id(AttrId(2)).is_null())
            .map(|(id, _)| id)
            .expect("some non-null rhs");
        other
            .set_value(victim, AttrId(2), Value::str("moved-away"))
            .unwrap();
        let changed = GroupCensus::build(&other, &shapes, &Parallelism::serial());
        assert_ne!(base.checksum(), changed.checksum());
    }

    #[test]
    fn merge_frontiers_is_shard_order_independent() {
        let c = |cost: u64, freq: u64, value: u32, cfd: u32, tid: u32| Candidate {
            cost,
            freq,
            value,
            cfd,
            tid,
        };
        let a = vec![c(5, 1, 1, 0, 0), c(1, 9, 3, 1, 4)];
        let b = vec![c(1, 2, 3, 0, 2), c(1, 2, 2, 0, 3)];
        let merged = merge_frontiers(vec![a.clone(), b.clone()]);
        let merged_rev = merge_frontiers(vec![b, a]);
        assert_eq!(merged, merged_rev);
        // cost dominates; then freq (lower = more corroborated), value, ids
        assert_eq!(merged[0], c(1, 2, 2, 0, 3));
        assert_eq!(merged[1], c(1, 2, 3, 0, 2));
        assert_eq!(merged[2], c(1, 9, 3, 1, 4));
        assert_eq!(merged[3], c(5, 1, 1, 0, 0));
    }
}
