//! Sharded parallel repair machinery: the LHS-key partitioner, the group
//! census, and the deterministic frontier merge.
//!
//! `BATCHREPAIR` spends its setup phase on two embarrassingly parallel
//! jobs — building the per-shape [`GroupCensus`] and pricing the initial
//! `PICKNEXT` frontier. Dictionary encoding made group keys `Copy` `u32`
//! runs and columnar storage made the inputs `Sync` column slices, so both
//! split cleanly across `std::thread::scope` workers:
//!
//! * the census splits by shape: each worker builds whole shapes, a
//!   contiguous run of them, with the serial build's own pass, so a
//!   sharded build does no more work than a serial one;
//! * frontier scoring splits by group: each dirty pair's LHS key hashes
//!   into one of `N` ranges ([`shard_of`]). A group key lands wholly
//!   inside one shard — the same degree/partition reasoning that makes
//!   FD-aware join evaluation parallelizable (Abo Khamis et al.) — so a
//!   worker can price each group once.
//!
//! **Determinism is the contract.** Parallel repair must be byte-identical
//! to serial repair at every thread count:
//!
//! * every census shape is built by exactly one worker in ascending
//!   tuple-id order, so even the floating-point weight sums are
//!   bit-identical to a serial build, and every bucket's carrier list
//!   comes out sorted by pushing alone;
//! * shard frontiers are merged under the total, seed-independent order of
//!   [`Candidate::key`] — cost first, then the planned value's global
//!   [`ValuePool::use_count`](cfd_model::ValuePool::use_count) (more
//!   corroborated values first), then [`ValueId`], then (CFD, tuple) for
//!   totality — mirroring the stable conflict-resolution orderings of
//!   trust-mapping style resolution (Gatterbauer & Suciu): no outcome ever
//!   depends on which worker finished first. The merged frontier is one
//!   sorted run, which `BATCHREPAIR`'s `PICKNEXT` reads with a cursor
//!   instead of pushing it onto its heap.
//!
//! [`Parallelism`] carries the thread count through the repair entry
//! points. The default resolves from the `CFD_THREADS` environment
//! variable (1 when unset; the CI determinism matrix runs the whole suite
//! at 1/2/8), and explicit counts override it — the implementation is
//! pure `std`.

use std::collections::BTreeMap;

use cfd_cfd::Sigma;
use cfd_model::hash::FnvMap;
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
    /// The carriers as one flat, ascending, duplicate-free id list, so
    /// carrier enumeration within a bucket is deterministic. The build
    /// visits ids in ascending order and simply pushes; `update` inserts
    /// and removes by binary search. Bucket order itself is `ValueId`
    /// (interning) order — the interning-history-sensitive decisions
    /// (merge winner, dirty-mark majority, partner choice) each re-anchor
    /// to value order or tuple id explicitly.
    pub(crate) ids: Vec<TupleId>,
    pub(crate) weight: f64,
}

/// Group key → RHS value → bucket, for one shape. FNV-hashed: no
/// per-process seed, and no reader lets the map's iteration order reach
/// a decision.
pub(crate) type GroupMap = FnvMap<IdKey, BTreeMap<ValueId, ValueBucket>>;

/// The census of one shape: every live tuple with a non-null RHS, pushed
/// in ascending id order. Reads exactly the shape's LHS/RHS/weight column
/// slices on columnar storage, row views otherwise.
fn build_shape(rel: &Relation, lhs: &[AttrId], rhs: AttrId) -> GroupMap {
    let mut map = GroupMap::default();
    if rel.schema().arity() == 0 || rel.column(AttrId(0)).is_some() {
        let lhs_cols: Vec<&[ValueId]> = lhs
            .iter()
            .map(|a| rel.column(*a).expect("columnar layout"))
            .collect();
        let rhs_col = rel.column(rhs).expect("columnar layout");
        let w_col = rel.weight_column(rhs).expect("columnar layout");
        for id in rel.ids() {
            let slot = id.index();
            let v = rhs_col[slot];
            if v.is_null() {
                continue;
            }
            let key: IdKey = lhs_cols.iter().map(|c| c[slot]).collect();
            let bucket = map.entry(key).or_default().entry(v).or_default();
            bucket.ids.push(id);
            bucket.weight += w_col[slot];
        }
        return map;
    }
    for (id, t) in rel.iter() {
        let v = t.id(rhs);
        if v.is_null() {
            continue;
        }
        let bucket = map
            .entry(t.project_key(lhs))
            .or_default()
            .entry(v)
            .or_default();
        bucket.ids.push(id);
        bucket.weight += t.weight(rhs);
    }
    map
}

/// Per-(variable-shape, group-key) census of non-null RHS values. Gives
/// the repair loop's `violates` an O(1) fast path — "this group holds at
/// most one distinct value, nothing to do" — where a scan would be
/// O(|group|). Low-cardinality FDs (CTY → VAT has five groups) make that
/// scan O(|D|) per stale dirty entry, turning the whole repair quadratic
/// without the census. The same buckets drive group-majority merge
/// pricing.
///
/// Construction shards by shape across `std::thread::scope` workers (see
/// the module docs for the determinism argument). A group with no
/// non-null carrier has no entry, whether it never had one or `update`
/// emptied it, so a census maintained through `update` equals a fresh
/// build of the updated relation.
pub struct GroupCensus {
    /// One census per distinct (lhs attrs, rhs attr) among variable CFDs:
    /// group key → RHS value → the live tuple ids currently carrying it.
    pub(crate) shapes: Vec<(Vec<AttrId>, AttrId, GroupMap)>,
}

impl GroupCensus {
    /// Build the census for `rel` over the given variable shapes, using
    /// `par` worker threads. Any thread count produces bit-identical
    /// contents (weight sums included): each worker builds whole shapes,
    /// a contiguous run of them, with the same ascending-id pass a serial
    /// build makes.
    pub fn build(rel: &Relation, variable: &[(Vec<AttrId>, AttrId)], par: &Parallelism) -> Self {
        let threads = par.get().min(variable.len());
        let maps: Vec<GroupMap> = if threads <= 1 {
            variable
                .iter()
                .map(|(lhs, rhs)| build_shape(rel, lhs, *rhs))
                .collect()
        } else {
            let per_worker = variable.len().div_ceil(threads);
            std::thread::scope(|s| {
                let handles: Vec<_> = variable
                    .chunks(per_worker)
                    .map(|part| {
                        s.spawn(move || {
                            part.iter()
                                .map(|(lhs, rhs)| build_shape(rel, lhs, *rhs))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("census shard panicked"))
                    .collect()
            })
        };
        let shapes = variable
            .iter()
            .zip(maps)
            .map(|((lhs, rhs), map)| (lhs.clone(), *rhs, map))
            .collect();
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
                let key = before.project_key(lhs);
                if let Some(vals) = map.get_mut(&key) {
                    if let Some(bucket) = vals.get_mut(&old_v) {
                        if let Ok(at) = bucket.ids.binary_search(&id) {
                            bucket.ids.remove(at);
                            bucket.weight -= before.weight(*rhs);
                        }
                        if bucket.ids.is_empty() {
                            vals.remove(&old_v);
                        }
                    }
                    if vals.is_empty() {
                        map.remove(&key);
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
                if let Err(at) = bucket.ids.binary_search(&id) {
                    bucket.ids.insert(at, id);
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

    /// A random cell value: null one time in eight, else one of 16.
    fn random_value(rng: &mut ChaCha8Rng) -> Value {
        if rng.gen_range(0..8u32) == 0 {
            Value::Null
        } else {
            Value::str(format!("x{}", rng.gen_range(0..16u32)))
        }
    }

    /// A random relation whose weights are multiples of `1 / steps`.
    fn random_relation(rng: &mut ChaCha8Rng, rows: usize, steps: u32) -> Relation {
        let schema = Schema::new("s", &["a", "b", "c"]).unwrap();
        let mut rel = Relation::new(schema);
        for _ in 0..rows {
            let values = vec![random_value(rng), random_value(rng), random_value(rng)];
            let weights = (0..3)
                .map(|_| (rng.gen_range(0..=steps) as f64) / steps as f64)
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
            let rel = random_relation(&mut rng, 60, 10);
            let serial = GroupCensus::build(&rel, &shapes, &Parallelism::serial());
            for threads in [2, 3, 8] {
                let sharded = GroupCensus::build(&rel, &shapes, &Parallelism::threads(threads));
                assert_eq!(serial.checksum(), sharded.checksum(), "threads={threads}");
                assert_eq!(serial.carriers(), sharded.carriers(), "threads={threads}");
            }
        }
    }

    #[test]
    fn census_updates_match_a_fresh_build() {
        // Every shape keys on an attribute another shape reads as its RHS,
        // so random cell writes move carriers between groups, between
        // buckets, and into and out of null. Weights are multiples of 1/8,
        // so every weight sum is exact in any order and a maintained
        // census can equal a fresh build bit for bit.
        let shapes = vec![
            (vec![AttrId(0)], AttrId(2)),
            (vec![AttrId(0), AttrId(1)], AttrId(2)),
            (vec![AttrId(2)], AttrId(0)),
        ];
        let (mut key_moves, mut rhs_moves, mut to_null, mut from_null) = (0, 0, 0, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(0xCE_2505);
        for _ in 0..20 {
            let base = random_relation(&mut rng, 60, 8);
            let writes: Vec<(TupleId, AttrId, Value)> = (0..80)
                .map(|_| {
                    let id = TupleId(rng.gen_range(0..60u32));
                    (
                        id,
                        AttrId(rng.gen_range(0..3u32) as u16),
                        random_value(&mut rng),
                    )
                })
                .collect();
            for threads in [1, 2] {
                let par = Parallelism::threads(threads);
                let mut rel = base.clone();
                let mut census = GroupCensus::build(&rel, &shapes, &par);
                for (id, attr, v) in &writes {
                    let before = rel.tuple(*id).unwrap().to_tuple();
                    rel.set_value(*id, *attr, v.clone()).unwrap();
                    let after = rel.tuple(*id).unwrap().to_tuple();
                    census.update(*id, &before, &after);
                    let (old, new) = (before.id(*attr), after.id(*attr));
                    if old != new {
                        key_moves += usize::from(*attr != AttrId(2));
                        rhs_moves += usize::from(*attr == AttrId(2));
                        to_null += usize::from(new.is_null());
                        from_null += usize::from(old.is_null());
                    }
                }
                let fresh = GroupCensus::build(&rel, &shapes, &par);
                assert_eq!(census.checksum(), fresh.checksum(), "threads={threads}");
                assert_eq!(census.carriers(), fresh.carriers(), "threads={threads}");
            }
        }
        assert!(key_moves > 0 && rhs_moves > 0 && to_null > 0 && from_null > 0);
    }

    #[test]
    fn checksum_detects_content_changes() {
        let shapes = vec![(vec![AttrId(0)], AttrId(2))];
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let rel = random_relation(&mut rng, 40, 10);
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
