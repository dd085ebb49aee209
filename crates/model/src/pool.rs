//! The dictionary-encoded value layer: [`ValuePool`] and [`ValueId`].
//!
//! Every hot path in the repair pipeline — violation detection, the
//! LHS-indices of §5.2, `BATCHREPAIR`'s equivalence classes — ultimately
//! compares and hashes attribute values. Doing that on [`Value`] means
//! hashing full strings on every probe. The pool
//! interns each distinct `Value` exactly once and hands out a dense
//! [`ValueId`] (`u32`); everything above the storage layer then compares,
//! hashes, and groups plain integers, resolving back to the string form
//! only at the edges (distance computation, display, CSV export).
//!
//! ## Null semantics survive the encoding
//!
//! Interning is injective — `intern(a) == intern(b) ⟺ a == b` — so the
//! paper's §3.1 comparison semantics transfer verbatim to ids:
//!
//! * [`ValueId::sql_eq`] — `t1[A] = t2[A]` is true when either side is
//!   [`NULL_ID`] (the "simple SQL semantics" the paper adopts);
//! * [`ValueId::strict_eq`] — plain id equality, `null` equals only
//!   `null`; this is what index keys and grouping use;
//! * pattern matching (in `cfd-cfd`) rejects [`NULL_ID`] outright — a
//!   tuple containing `null` never matches a pattern tuple.
//!
//! `Value::Null` always interns to [`NULL_ID`] (slot 0), so "is this cell
//! null" is a single integer comparison everywhere.
//!
//! ## Sharing model: pools are scoped to a dataset
//!
//! Pools are **per-dataset**, held behind [`Arc<ValuePool>`] handles: every
//! [`Relation`](crate::Relation) and [`ColumnStore`](crate::ColumnStore)
//! carries the pool its cell ids live in, and each dataset a
//! [`Catalog`](crate::Catalog) loads gets a fresh pool of its own. Within
//! one dataset, a single pool is what makes ids stable across structures —
//! the original, the repair's working copy, and every index agree on what
//! id `"NYC"` has, so the repair algorithms move ids around without
//! translation. *Across* datasets nothing is shared: the per-id
//! [`use_count`](ValuePool::use_count) frequency counters that feed
//! `FINDV`'s most-common-value tie-break count occurrences in *this*
//! dataset only, so repair bytes depend on (dataset, rules, config) — never
//! on what else the process loaded before. Fresh handles come from
//! [`ValuePool::new_handle`].
//!
//! Every conversion between a value and its id names its pool: there is
//! no process-wide fallback, so nothing a process loaded earlier can leak
//! into a later dataset's ids or counts.
//!
//! ## Occurrence counts and what bumps them
//!
//! `use_count` approximates a value's occurrence frequency in the
//! dataset's *data*. Only data-loading paths bump it: cell-by-cell
//! interning ([`intern`](ValuePool::intern), tuple construction) and the
//! bulk [`install_column`](ValuePool::install_column). CSV import counts
//! each column's distinct values itself and installs them with those
//! counts; snapshot load installs the exact counts recorded at save time.
//! Both leave the counters where interning every cell would. Non-data
//! interning — pattern constants bound at rule-load time, probes — goes
//! through [`intern_uncounted`](ValuePool::intern_uncounted) and leaves
//! the counters alone, so re-loading rules or repairing twice never skews
//! a frequency tie-break.
//!
//! ## Reclamation
//!
//! Ids are stable while a dataset is resident: lookups take a read lock
//! only, and a miss upgrades to a short write lock. Reclamation is
//! refcount-based, for long-running processes that evict datasets:
//! [`retire`](ValuePool::retire) gives occurrences back (the inverse of
//! the counted intern paths), and [`compact`](ValuePool::compact) frees
//! every count-zero slot — value payload, rendered-text cache, and
//! dictionary entry — putting the slot id on a free list for reuse by
//! future interns. Per-dataset pools rarely need this (dropping the last
//! `Arc` frees the whole dictionary); it exists for session-style pools
//! that outlive the datasets loaded into them. Callers own the safety
//! argument: compact only when nothing still references the retired ids
//! (snapshots make that safe — any evicted value is re-installable from
//! its dataset's dictionary segment).
//!
//! Two narrower paths serve a dataset that stays resident while
//! transient values come and go:
//!
//! * [`mark`](ValuePool::mark) / [`release`](ValuePool::release) — a
//!   section of the pool owned by one request. Everything appended after
//!   the mark is dropped at release, so the slot vectors return to their
//!   length at the mark and the next request gets the same ids in the
//!   same append order. An insert request uses this: nothing it leaves
//!   behind holds a ΔD id.
//! * [`seal_ids`](ValuePool::seal_ids) — tombstones whose ids are never
//!   handed out again until a [`compact`](ValuePool::compact). A stream
//!   uses this: its distance memo outlives each window and is keyed by
//!   the window's ids, so reusing them would alias other values.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::hash::{FixedMap, FixedSet};
use crate::value::Value;

/// Dense identifier of an interned [`Value`] within one pool.
///
/// `Copy`, 4 bytes, hash = integer hash: exactly what hot-path keys want.
/// A slice of ids hashes two ids per 64-bit word, so an
/// [`IdKey`](crate::IdKey) (which hashes as its slice) costs the
/// workspace's [`FixedHasher`](crate::hash::FixedHasher) one step per
/// pair. Ordering is *interning order*, not value order — sort resolved values
/// when a display-stable order is needed. An id is meaningful only
/// relative to the pool that issued it; structures that move ids around
/// (relations, indices, fixes) stay within a single dataset's pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl Hash for ValueId {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.0);
    }

    #[inline]
    fn hash_slice<H: Hasher>(data: &[Self], state: &mut H) {
        let mut pairs = data.chunks_exact(2);
        for p in &mut pairs {
            state.write_u64(u64::from(p[0].0) | (u64::from(p[1].0) << 32));
        }
        if let [last] = pairs.remainder() {
            state.write_u32(last.0);
        }
    }
}

/// The id of `Value::Null` — slot 0 of every pool, by construction.
pub const NULL_ID: ValueId = ValueId(0);

impl ValueId {
    /// The id as a usize, for table addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Is this the interned `null`?
    #[inline]
    pub fn is_null(self) -> bool {
        self == NULL_ID
    }

    /// Tuple-to-tuple equality under the paper's simple SQL semantics:
    /// `null` compares equal to anything (§3.1, Remark 1). Mirrors
    /// [`Value::sql_eq`] exactly, by injectivity of interning.
    #[inline]
    pub fn sql_eq(self, other: ValueId) -> bool {
        self == other || self.is_null() || other.is_null()
    }

    /// Strict equality: `null` equals only `null`. Alias of `==` that
    /// makes call sites explicit about which semantics they want.
    #[inline]
    pub fn strict_eq(self, other: ValueId) -> bool {
        self == other
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The cached rendered form of an interned value: the text the distance
/// kernel compares, plus the two properties every pricing call needs —
/// the character count (the `max(|v|, |v'|)` normalizer) and whether the
/// text is pure ASCII (selects the byte-slice fast path of the
/// bit-parallel kernel). Cheap to clone: the text is `Arc`-shared.
#[derive(Clone, Debug)]
pub struct Rendered {
    /// The value's rendered text (`null` renders empty).
    pub text: Arc<str>,
    /// `text.chars().count()`, cached.
    pub chars: u32,
    /// `text.is_ascii()`, cached.
    pub ascii: bool,
}

impl Rendered {
    fn of(v: &Value) -> Rendered {
        let text: Arc<str> = Arc::from(&*v.render());
        let ascii = text.is_ascii();
        let chars = if ascii {
            text.len() as u32
        } else {
            text.chars().count() as u32
        };
        Rendered { text, chars, ascii }
    }
}

struct PoolInner {
    /// id → value. Slot 0 is always `Value::Null`.
    values: Vec<Value>,
    /// value → id. Keyed by value text, which comes from outside input:
    /// the fixed hasher is not DoS-resistant, so keys crafted to collide
    /// degrade lookups to linear scans. That costs time, never results — no
    /// caller lets this map's iteration order reach its output.
    ids: FixedMap<Value, u32>,
    /// id → number of counted occurrences: every `intern` call bumps the
    /// hit's counter and `install_column` adds its counts, so for loaded
    /// data (tuples, CSV columns, snapshots) the counter approximates the
    /// value's occurrence frequency — the signal `FINDV`'s most-common-value
    /// heuristic reads instead of re-counting a group. Atomic so the
    /// read-lock fast path of `intern` can bump without upgrading.
    counts: Vec<AtomicU64>,
    /// id → lazily rendered text, aligned with `values`. Values are
    /// immutable once interned, so each slot renders at most once per
    /// process; the `OnceLock` lets concurrent readers fill slots under
    /// the pool's *read* lock. This is what lets distance-cache misses
    /// batch their renders: one lock acquisition per candidate set, no
    /// re-render per miss.
    renders: Vec<OnceLock<Rendered>>,
    /// Slot ids freed by [`ValuePool::compact`], available for reuse.
    /// A freed slot holds `Value::Null` as a tombstone (real interns of
    /// null short-circuit to slot 0, so no live slot above 0 is null).
    free: Vec<u32>,
    /// Slot ids tombstoned by [`ValuePool::seal_ids`]: payload and
    /// dictionary entry dropped like a compacted slot, but deliberately
    /// kept **off** the free list so subsequent interns stay in append
    /// order (free-list reuse is LIFO, which would permute `ValueId`
    /// tie-break order relative to a fresh pool). The next
    /// [`ValuePool::compact`] drains these onto the free list.
    sealed: Vec<u32>,
}

impl PoolInner {
    /// Allocate a slot for a value not yet in the dictionary, reusing a
    /// compacted slot when one is free. The slot's count starts at zero;
    /// counted intern paths bump it afterwards.
    fn alloc(&mut self, v: &Value) -> u32 {
        let id = match self.free.pop() {
            Some(slot) => {
                self.values[slot as usize] = v.clone();
                slot
            }
            None => {
                let id =
                    u32::try_from(self.values.len()).expect("value pool overflow (> 4G values)");
                self.values.push(v.clone());
                self.counts.push(AtomicU64::new(0));
                self.renders.push(OnceLock::new());
                id
            }
        };
        self.ids.insert(v.clone(), id);
        id
    }
}

/// A pool's slot count at one moment, taken by [`ValuePool::mark`]:
/// [`ValuePool::release`] drops every slot appended since.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolMark(usize);

/// A dictionary interning [`Value`]s to dense [`ValueId`]s, scoped to one
/// dataset (see the module docs for the sharing and reclamation model).
pub struct ValuePool {
    inner: RwLock<PoolInner>,
    /// This pool's number among every pool the process made: the
    /// identity values normalized into it (a Σ's pattern constants)
    /// carry, so a user can tell whether two pools are the same one.
    serial: u64,
}

/// The serial of the next pool made.
static NEXT_SERIAL: AtomicU64 = AtomicU64::new(0);

impl ValuePool {
    /// A fresh pool with `null` pre-interned at [`NULL_ID`].
    pub fn new() -> Self {
        let mut ids = FixedMap::default();
        ids.insert(Value::Null, 0);
        ValuePool {
            inner: RwLock::new(PoolInner {
                values: vec![Value::Null],
                ids,
                counts: vec![AtomicU64::new(0)],
                renders: vec![OnceLock::new()],
                free: Vec::new(),
                sealed: Vec::new(),
            }),
            serial: NEXT_SERIAL.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// This pool's serial number, unique in the process: two pools with
    /// equal serials are the same pool.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// A fresh pool behind the [`Arc`] handle everything threads around.
    /// This is how a dataset gets its own dictionary: CSV import and
    /// snapshot load both start from one of these.
    pub fn new_handle() -> Arc<ValuePool> {
        Arc::new(ValuePool::new())
    }

    /// Intern `v`, returning its stable id. `Value::Null` always maps to
    /// [`NULL_ID`]. Every call — hit or miss — bumps the value's
    /// [`use_count`](ValuePool::use_count).
    pub fn intern(&self, v: &Value) -> ValueId {
        if v.is_null() {
            return NULL_ID;
        }
        {
            let inner = self.inner.read().expect("pool lock poisoned");
            if let Some(id) = inner.ids.get(v) {
                inner.counts[*id as usize].fetch_add(1, Ordering::Relaxed);
                return ValueId(*id);
            }
        }
        let mut inner = self.inner.write().expect("pool lock poisoned");
        if let Some(id) = inner.ids.get(v).copied() {
            inner.counts[id as usize].fetch_add(1, Ordering::Relaxed);
            return ValueId(id);
        }
        let id = inner.alloc(v);
        inner.counts[id as usize].fetch_add(1, Ordering::Relaxed);
        ValueId(id)
    }

    /// Intern `v` **without** bumping its occurrence counter. This is the
    /// entry point for non-data interning — pattern constants bound at
    /// rule-load time, probe values — so that loading rules (or loading
    /// them twice) never skews the frequency signal `FINDV`'s
    /// most-common-value tie-break reads. `Value::Null` maps to
    /// [`NULL_ID`], as everywhere.
    pub fn intern_uncounted(&self, v: &Value) -> ValueId {
        if v.is_null() {
            return NULL_ID;
        }
        {
            let inner = self.inner.read().expect("pool lock poisoned");
            if let Some(id) = inner.ids.get(v) {
                return ValueId(*id);
            }
        }
        let mut inner = self.inner.write().expect("pool lock poisoned");
        if let Some(id) = inner.ids.get(v).copied() {
            return ValueId(id);
        }
        ValueId(inner.alloc(v))
    }

    /// Bulk-install a column dictionary: intern each value **without**
    /// the implicit occurrence bump of [`intern`](ValuePool::intern), then
    /// add `counts[i]` to its counter. Returns ids aligned with `values`.
    ///
    /// This is the one bulk load path, for CSV import and snapshot load
    /// alike: it takes the pool's write lock once per column and pays one
    /// hash operation per *distinct value*. When `values` lists a column's
    /// distinct values in first-occurrence order with their occurrence
    /// counts, the pool ends up with exactly the ids and counts that
    /// interning the column cell by cell would give, so `FINDV`'s
    /// most-common-value tie-break behaves identically however a relation
    /// was loaded. A value may appear more than once in `values`; its
    /// counts add up. `Value::Null` maps to [`NULL_ID`] and is never
    /// counted, mirroring the intern paths.
    ///
    /// # Panics
    /// Panics when `values` and `counts` lengths differ.
    pub fn install_column(&self, values: &[Value], counts: &[u64]) -> Vec<ValueId> {
        assert_eq!(
            values.len(),
            counts.len(),
            "dictionary values and counts must align"
        );
        let mut inner = self.inner.write().expect("pool lock poisoned");
        let mut out = Vec::with_capacity(values.len());
        for (v, n) in values.iter().zip(counts) {
            if v.is_null() {
                out.push(NULL_ID);
                continue;
            }
            let id = match inner.ids.get(v).copied() {
                Some(id) => id,
                None => inner.alloc(v),
            };
            if *n > 0 {
                inner.counts[id as usize].fetch_add(*n, Ordering::Relaxed);
            }
            out.push(ValueId(id));
        }
        out
    }

    /// How many times `id` has been interned through a counted path — the
    /// dataset-scoped occurrence frequency signal for values loaded
    /// cell-by-cell (see [`intern`](ValuePool::intern)). Zero for ids
    /// this pool never issued.
    pub fn use_count(&self, id: ValueId) -> u64 {
        self.inner
            .read()
            .expect("pool lock poisoned")
            .counts
            .get(id.index())
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Give back `occurrences` previously counted for `id` — the inverse
    /// of the counted intern paths, used when a dataset is evicted from a
    /// pool that outlives it. Saturates at zero; [`NULL_ID`] and unknown
    /// ids are ignored.
    pub fn retire(&self, id: ValueId, occurrences: u64) {
        if id.is_null() || occurrences == 0 {
            return;
        }
        let inner = self.inner.read().expect("pool lock poisoned");
        if let Some(c) = inner.counts.get(id.index()) {
            let _ = c.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(occurrences))
            });
        }
    }

    /// [`retire`](ValuePool::retire) one occurrence per id in `ids` —
    /// the cell-by-cell eviction path (pass every live cell id of the
    /// relation being dropped). Occurrences are coalesced first so the
    /// counters are touched once per distinct id.
    pub fn retire_ids<I: IntoIterator<Item = ValueId>>(&self, ids: I) {
        let mut occ: FixedMap<u32, u64> = FixedMap::default();
        for id in ids {
            if !id.is_null() {
                *occ.entry(id.0).or_default() += 1;
            }
        }
        for (id, n) in occ {
            self.retire(ValueId(id), n);
        }
    }

    /// The pool's current slot count, as a [`PoolMark`] to hand to
    /// [`release`](ValuePool::release) later: every slot appended after
    /// this call sits at or above the mark.
    pub fn mark(&self) -> PoolMark {
        PoolMark(self.inner.read().expect("pool lock poisoned").values.len())
    }

    /// Drop every slot at or above `mark` — value payload, cached render,
    /// dictionary entry and counter — so the slot vectors are as long as
    /// they were when the mark was taken and the next interns get the
    /// same ids, in the same append order. Returns the number of slots
    /// dropped. Slots below the mark, sealed and free ones included, are
    /// untouched.
    ///
    /// This is the insert request's hygiene path: a request marks the
    /// pool before it parses ΔD, retires ΔD's occurrences when it ends,
    /// and releases the mark. The caller owns the safety argument: no
    /// live state may still hold an id at or above the mark. A counted
    /// slot is never dropped; reaching one is a caller bug
    /// (`debug_assert!`), and the release stops there, keeping it and
    /// every slot below it.
    pub fn release(&self, mark: PoolMark) -> usize {
        let (dropped, counted) = {
            let mut inner = self.inner.write().expect("pool lock poisoned");
            let inner = &mut *inner;
            let top = inner.values.len();
            let mark = mark.0.clamp(1, top);
            let counted = (mark..top)
                .rev()
                .find(|&i| inner.counts[i].load(Ordering::Relaxed) != 0);
            let keep = counted.map_or(mark, |i| i + 1);
            for v in inner.values.drain(keep..) {
                if !v.is_null() {
                    inner.ids.remove(&v);
                }
            }
            inner.counts.truncate(keep);
            inner.renders.truncate(keep);
            inner.free.retain(|&i| (i as usize) < keep);
            inner.sealed.retain(|&i| (i as usize) < keep);
            (top - keep, counted)
        };
        // Asserted with the lock released, so the pool stays usable.
        debug_assert!(counted.is_none(), "release met counted slot {counted:?}");
        dropped
    }

    /// Tombstone every count-zero slot in `ids` **without** putting it on
    /// the free list: the value payload, cached render, and dictionary
    /// entry are dropped (so the text could be re-interned later under a
    /// fresh id), but the slot id is not reused until the next
    /// [`compact`](ValuePool::compact). Returns the number of slots
    /// sealed; ids with a nonzero count, already-freed slots, [`NULL_ID`],
    /// and ids this pool never issued are skipped.
    ///
    /// This is the stream's hygiene path: a closed window's values must
    /// release their memory while structures that outlive the window (a
    /// stream's distance memo) still hold their ids as keys, so the ids
    /// must never come back for other values. Sealing also keeps later
    /// interns in **append order** — free-list reuse hands slots back in
    /// LIFO order, which would permute the `(cost, use_count, ValueId, …)`
    /// repair tie-break relative to the equivalent one-shot run. An insert
    /// request, whose state dies with it, uses
    /// [`release`](ValuePool::release) instead and gets its ids back. The
    /// caller owns the exclusion argument: count-zero ids still referenced
    /// by live state (a bound `Sigma`'s uncounted pattern constants, probe
    /// values) **will** be sealed if passed here, so filter them out
    /// first.
    pub fn seal_ids<I: IntoIterator<Item = ValueId>>(&self, ids: I) -> usize {
        let mut inner = self.inner.write().expect("pool lock poisoned");
        let mut seen = FixedSet::default();
        let mut sealed = 0;
        for id in ids {
            let i = id.index();
            if id.is_null() || i >= inner.values.len() || !seen.insert(i) {
                continue;
            }
            if inner.values[i].is_null() {
                continue; // freed or already sealed
            }
            if inner.counts[i].load(Ordering::Relaxed) != 0 {
                continue;
            }
            let v = std::mem::replace(&mut inner.values[i], Value::Null);
            inner.ids.remove(&v);
            inner.renders[i] = OnceLock::new();
            inner.sealed.push(i as u32);
            sealed += 1;
        }
        sealed
    }

    /// Free every count-zero slot: drop the value payload and cached
    /// render, remove the dictionary entry, and put the slot id on the
    /// free list for reuse by future interns (sealed slots — see
    /// [`seal_ids`](ValuePool::seal_ids) — are drained onto the free list
    /// here too). Returns the number of slots freed. Slot 0 (`null`) is
    /// never freed.
    ///
    /// The caller owns the safety argument: compact only when nothing
    /// still holds ids for the retired values — no live relation, index,
    /// fix list, or normalized rule set over them. Uncounted interns
    /// (pattern constants) sit at count zero by design, so a live
    /// `Sigma`'s constants survive only until the next compact; re-bind
    /// rules after compacting, or keep rule lifetimes inside dataset
    /// lifetimes (the CLI and catalog paths do the latter).
    pub fn compact(&self) -> usize {
        let mut inner = self.inner.write().expect("pool lock poisoned");
        // Sealed slots already gave up their payloads; compacting is when
        // they finally become reusable.
        let sealed = std::mem::take(&mut inner.sealed);
        let mut freed = sealed.len();
        inner.free.extend(sealed);
        for i in 1..inner.values.len() {
            if inner.values[i].is_null() {
                continue; // already a free-list tombstone
            }
            if inner.counts[i].load(Ordering::Relaxed) != 0 {
                continue;
            }
            let v = std::mem::replace(&mut inner.values[i], Value::Null);
            inner.ids.remove(&v);
            inner.renders[i] = OnceLock::new();
            inner.free.push(i as u32);
            freed += 1;
        }
        freed
    }

    /// Approximate resident bytes of the dictionary: per-slot fixed
    /// overhead plus live string payloads and cached render texts.
    /// Deterministic for a given pool state, so eviction-loop gates can
    /// assert it returns to a baseline after
    /// [`retire`](ValuePool::retire) + [`compact`](ValuePool::compact).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let inner = self.inner.read().expect("pool lock poisoned");
        // Fixed per-slot overhead (value + counter + render cell), plus
        // the map entry for each live dictionary key. The map key shares
        // the slot's Arc<str>, so string payloads are counted once.
        let mut total = inner.values.len()
            * (size_of::<Value>() + size_of::<AtomicU64>() + size_of::<OnceLock<Rendered>>())
            + inner.ids.len() * (size_of::<Value>() + size_of::<u32>());
        for v in &inner.values {
            if let Value::Str(s) = v {
                total += s.len();
            }
        }
        for r in &inner.renders {
            if let Some(r) = r.get() {
                total += r.text.len();
            }
        }
        total
    }

    /// Resolve an id back to its value. Cheap: strings are
    /// reference-counted, so this clones an `Arc`, not the bytes.
    ///
    /// # Panics
    /// Panics on an id this pool never issued.
    pub fn resolve(&self, id: ValueId) -> Value {
        self.inner.read().expect("pool lock poisoned").values[id.index()].clone()
    }

    /// Resolve without cloning, through a closure.
    pub fn with_value<R>(&self, id: ValueId, f: impl FnOnce(&Value) -> R) -> R {
        f(&self.inner.read().expect("pool lock poisoned").values[id.index()])
    }

    /// The cached rendered text of `id` (see [`Rendered`]): rendered at
    /// most once per process, then served as an `Arc` clone under a read
    /// lock. This is the distance kernel's entry point to value text.
    ///
    /// # Panics
    /// Panics on an id this pool never issued.
    pub fn rendered(&self, id: ValueId) -> Rendered {
        let inner = self.inner.read().expect("pool lock poisoned");
        inner.renders[id.index()]
            .get_or_init(|| Rendered::of(&inner.values[id.index()]))
            .clone()
    }

    /// [`rendered`](ValuePool::rendered) for a whole candidate set under
    /// a single lock acquisition — the batch pricing path renders every
    /// cache-missed candidate in one pass instead of re-locking (and
    /// historically re-rendering) per miss. Output aligns with `ids`.
    pub fn rendered_batch(&self, ids: &[ValueId]) -> Vec<Rendered> {
        let inner = self.inner.read().expect("pool lock poisoned");
        ids.iter()
            .map(|id| {
                inner.renders[id.index()]
                    .get_or_init(|| Rendered::of(&inner.values[id.index()]))
                    .clone()
            })
            .collect()
    }

    /// The id of `v` if already interned.
    pub fn lookup(&self, v: &Value) -> Option<ValueId> {
        if v.is_null() {
            return Some(NULL_ID);
        }
        self.inner
            .read()
            .expect("pool lock poisoned")
            .ids
            .get(v)
            .map(|id| ValueId(*id))
    }

    /// Number of distinct values interned (including `null`), excluding
    /// slots freed by [`compact`](ValuePool::compact), tombstoned by
    /// [`seal_ids`](ValuePool::seal_ids) or dropped by
    /// [`release`](ValuePool::release).
    pub fn len(&self) -> usize {
        let inner = self.inner.read().expect("pool lock poisoned");
        inner.values.len() - inner.free.len() - inner.sealed.len()
    }

    /// A pool is never empty — `null` is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Value-order comparison of two ids (resolves both sides). Used by
    /// the few determinism-sensitive tie-breaks that need an order
    /// independent of interning history.
    pub fn cmp_values(&self, a: ValueId, b: ValueId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        let inner = self.inner.read().expect("pool lock poisoned");
        inner.values[a.index()].cmp(&inner.values[b.index()])
    }
}

impl Default for ValuePool {
    fn default() -> Self {
        ValuePool::new()
    }
}

impl fmt::Debug for ValuePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ValuePool")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_slot_zero() {
        let pool = ValuePool::new();
        assert_eq!(pool.intern(&Value::Null), NULL_ID);
        assert_eq!(pool.resolve(NULL_ID), Value::Null);
        assert!(NULL_ID.is_null());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn interning_is_injective() {
        let pool = ValuePool::new();
        let a = pool.intern(&Value::str("NYC"));
        let b = pool.intern(&Value::str("NYC"));
        let c = pool.intern(&Value::str("PHI"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.resolve(a), Value::str("NYC"));
        assert_eq!(pool.resolve(c), Value::str("PHI"));
    }

    #[test]
    fn int_and_str_stay_distinct() {
        let pool = ValuePool::new();
        let i = pool.intern(&Value::int(212));
        let s = pool.intern(&Value::str("212"));
        assert_ne!(i, s);
    }

    #[test]
    fn sql_eq_mirrors_value_semantics() {
        let pool = ValuePool::new();
        let nyc = pool.intern(&Value::str("NYC"));
        let phi = pool.intern(&Value::str("PHI"));
        assert!(NULL_ID.sql_eq(nyc));
        assert!(nyc.sql_eq(NULL_ID));
        assert!(NULL_ID.sql_eq(NULL_ID));
        assert!(nyc.sql_eq(nyc));
        assert!(!nyc.sql_eq(phi));
        // strict: null equals only null
        assert!(NULL_ID.strict_eq(NULL_ID));
        assert!(!NULL_ID.strict_eq(nyc));
    }

    #[test]
    fn lookup_without_interning() {
        let pool = ValuePool::new();
        assert_eq!(pool.lookup(&Value::str("x")), None);
        let id = pool.intern(&Value::str("x"));
        assert_eq!(pool.lookup(&Value::str("x")), Some(id));
        assert_eq!(pool.lookup(&Value::Null), Some(NULL_ID));
    }

    #[test]
    fn cmp_values_orders_by_value_not_id() {
        let pool = ValuePool::new();
        // Intern in reverse lexicographic order.
        let z = pool.intern(&Value::str("zzz"));
        let a = pool.intern(&Value::str("aaa"));
        assert!(z < a); // id order follows interning order, not value order
        assert_eq!(pool.cmp_values(a, z), std::cmp::Ordering::Less);
        assert_eq!(pool.cmp_values(z, a), std::cmp::Ordering::Greater);
        assert_eq!(pool.cmp_values(a, a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn use_counts_match_brute_force() {
        let pool = ValuePool::new();
        // Interleaved occurrences, counted by hand.
        let data = ["a", "b", "a", "c", "a", "b"];
        for s in data {
            pool.intern(&Value::str(s));
        }
        for s in ["a", "b", "c"] {
            let brute = data.iter().filter(|d| **d == s).count() as u64;
            let id = pool.lookup(&Value::str(s)).unwrap();
            assert_eq!(pool.use_count(id), brute, "count of {s:?}");
        }
        assert_eq!(pool.use_count(ValueId(9999)), 0);
    }

    /// A column's distinct values in first-occurrence order with their
    /// occurrence counts — what CSV import installs.
    fn dictionary(column: &[Value]) -> (Vec<Value>, Vec<u64>) {
        let (mut values, mut counts): (Vec<Value>, Vec<u64>) = (Vec::new(), Vec::new());
        for v in column {
            match values.iter().position(|d| d == v) {
                Some(i) => counts[i] += 1,
                None => {
                    values.push(v.clone());
                    counts.push(1);
                }
            }
        }
        (values, counts)
    }

    #[test]
    fn install_column_with_counts_matches_scalar_interning() {
        let scalar = ValuePool::new();
        let bulk = ValuePool::new();
        let column: Vec<Value> = ["x", "y", "x", "z", "x"]
            .iter()
            .map(|s| Value::str(*s))
            .chain([Value::Null])
            .collect();
        let a: Vec<ValueId> = column.iter().map(|v| scalar.intern(v)).collect();
        let (dict, counts) = dictionary(&column);
        let ids = bulk.install_column(&dict, &counts);
        let b: Vec<ValueId> = column
            .iter()
            .map(|v| ids[dict.iter().position(|d| d == v).unwrap()])
            .collect();
        assert_eq!(a, b);
        assert_eq!(scalar.len(), bulk.len());
        for (v, id) in column.iter().zip(&b) {
            assert_eq!(bulk.resolve(*id), *v);
            assert_eq!(bulk.use_count(*id), scalar.use_count(*id));
        }
        // Null is never counted as an interning of a constant.
        assert_eq!(bulk.use_count(NULL_ID), scalar.use_count(NULL_ID));
    }

    #[test]
    fn install_column_matches_cell_by_cell_interning() {
        // A column loaded cell by cell and the same column installed as a
        // (distinct value, occurrence count) dictionary must leave the
        // pool in an identical state: same ids, same counts.
        let cells: Vec<Value> = ["a", "b", "a", "c", "a", "b"]
            .iter()
            .map(|s| Value::str(*s))
            .chain([Value::Null])
            .collect();
        let scalar = ValuePool::new();
        let a: Vec<ValueId> = cells.iter().map(|v| scalar.intern(v)).collect();

        // Dictionary in first-occurrence order, null first (slot 0).
        let dict = [
            Value::Null,
            Value::str("a"),
            Value::str("b"),
            Value::str("c"),
        ];
        let counts = [0u64, 3, 2, 1];
        let installed = ValuePool::new();
        let ids = installed.install_column(&dict, &counts);
        assert_eq!(ids[0], NULL_ID);
        assert_eq!(installed.len(), scalar.len());
        for (v, id) in dict.iter().zip(&ids) {
            assert_eq!(installed.resolve(*id), *v);
            assert_eq!(
                installed.use_count(*id),
                scalar.use_count(scalar.lookup(v).unwrap()),
                "count of {v:?}"
            );
        }
        // The cell ids the scalar pool issued are reproduced exactly,
        // because the dictionary lists values in first-occurrence order.
        let remapped: Vec<ValueId> = cells.iter().map(|v| installed.lookup(v).unwrap()).collect();
        assert_eq!(remapped, a);
    }

    #[test]
    fn install_column_on_existing_values_adds_counts_without_new_ids() {
        let pool = ValuePool::new();
        let x = pool.intern(&Value::str("x"));
        assert_eq!(pool.use_count(x), 1);
        let ids = pool.install_column(&[Value::str("x")], &[5]);
        assert_eq!(ids, vec![x]);
        assert_eq!(pool.use_count(x), 6);
        assert_eq!(pool.len(), 2); // null + x
    }

    #[test]
    fn rendered_cache_matches_render() {
        let pool = ValuePool::new();
        let cases = [
            Value::Null,
            Value::str("NYC"),
            Value::str("naïve café"),
            Value::int(19014),
            Value::str(""),
        ];
        let ids: Vec<ValueId> = cases.iter().map(|v| pool.intern(v)).collect();
        for (v, id) in cases.iter().zip(&ids) {
            let r = pool.rendered(*id);
            assert_eq!(&*r.text, &*v.render(), "{v:?}");
            assert_eq!(r.chars as usize, v.render().chars().count());
            assert_eq!(r.ascii, v.render().is_ascii());
        }
        // The batch path serves the same cached entries.
        let batch = pool.rendered_batch(&ids);
        for (one, many) in ids.iter().map(|id| pool.rendered(*id)).zip(&batch) {
            assert_eq!(&*one.text, &*many.text);
            assert!(Arc::ptr_eq(&one.text, &many.text), "cache is shared");
        }
    }

    #[test]
    fn intern_uncounted_leaves_counts_alone() {
        let pool = ValuePool::new();
        let a = pool.intern(&Value::str("NYC"));
        assert_eq!(pool.use_count(a), 1);
        // Re-interning the same value uncounted (a pattern constant
        // binding against loaded data) must not skew its frequency.
        let b = pool.intern_uncounted(&Value::str("NYC"));
        assert_eq!(a, b);
        assert_eq!(pool.use_count(a), 1);
        // A fresh uncounted intern allocates a slot at count zero.
        let c = pool.intern_uncounted(&Value::str("PHI"));
        assert_eq!(pool.use_count(c), 0);
        assert_eq!(pool.resolve(c), Value::str("PHI"));
        // Null short-circuits, as on every path.
        assert_eq!(pool.intern_uncounted(&Value::Null), NULL_ID);
    }

    #[test]
    fn retire_and_compact_free_slots_for_reuse() {
        let pool = ValuePool::new();
        let a = pool.intern(&Value::str("a"));
        let b = pool.intern(&Value::str("b"));
        pool.intern(&Value::str("a")); // a: 2, b: 1
        assert_eq!(pool.len(), 3);

        pool.retire(a, 2);
        assert_eq!(pool.use_count(a), 0);
        assert_eq!(pool.compact(), 1); // only `a` is count-zero
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.lookup(&Value::str("a")), None);
        assert_eq!(pool.use_count(b), 1, "live slots untouched");
        assert_eq!(pool.resolve(b), Value::str("b"));

        // The freed slot is reused by the next intern.
        let c = pool.intern(&Value::str("c"));
        assert_eq!(c, a, "freed slot id reused");
        assert_eq!(pool.use_count(c), 1);
        assert_eq!(pool.resolve(c), Value::str("c"));
        assert_eq!(pool.len(), 3);

        // Retiring more than counted saturates at zero; null and unknown
        // ids are ignored.
        pool.retire(b, 100);
        assert_eq!(pool.use_count(b), 0);
        pool.retire(NULL_ID, 5);
        pool.retire(ValueId(9999), 5);
    }

    #[test]
    fn retire_ids_coalesces_cell_occurrences() {
        let pool = ValuePool::new();
        let cells: Vec<Value> = ["x", "y", "x", "x"]
            .iter()
            .map(|s| Value::str(*s))
            .collect();
        let ids: Vec<ValueId> = cells.iter().map(|v| pool.intern(v)).collect();
        pool.retire_ids(ids.iter().copied().chain([NULL_ID]));
        for id in &ids {
            assert_eq!(pool.use_count(*id), 0);
        }
        assert_eq!(pool.compact(), 2);
        assert_eq!(pool.len(), 1); // only null remains
    }

    #[test]
    fn seal_ids_releases_memory_but_keeps_append_order() {
        let pool = ValuePool::new();
        let base = pool.intern(&Value::str("base"));
        let d1 = pool.intern(&Value::str("delta-1"));
        let d2 = pool.intern(&Value::str("delta-2"));
        let probe = pool.intern_uncounted(&Value::str("probe"));

        // Retire the delta occurrences and seal their slots; `base` keeps
        // its count and survives, `probe` is excluded by the caller.
        pool.retire_ids([d1, d2]);
        assert_eq!(pool.seal_ids([base, d1, d2, NULL_ID, ValueId(9999)]), 2);
        assert_eq!(pool.len(), 3, "null + base + probe remain");
        assert_eq!(pool.lookup(&Value::str("delta-1")), None);
        assert_eq!(pool.resolve(base), Value::str("base"));
        assert_eq!(pool.resolve(probe), Value::str("probe"));

        // Sealed slots are NOT reused: new interns append, and re-interning
        // sealed text gets a fresh append-order id — so the relative id
        // order of any two new values matches a pool that never held the
        // delta at all.
        let fresh = pool.intern(&Value::str("fresh"));
        let again = pool.intern(&Value::str("delta-2"));
        assert!(fresh.0 > d2.0, "appended past the sealed region");
        assert!(again.0 > fresh.0, "re-intern appends in arrival order");
        // Sealing twice is a no-op; compact finally recycles the slots.
        assert_eq!(pool.seal_ids([d1, d2]), 0);
        pool.retire_ids([fresh, again]);
        // 2 sealed + 2 retired + the uncounted probe (count zero, as
        // compact has always treated it).
        assert_eq!(pool.compact(), 5);
        assert_eq!(pool.len(), 2, "null + base remain");
    }

    #[test]
    fn release_drops_the_section_and_hands_its_ids_back() {
        let pool = ValuePool::new();
        let base = pool.intern(&Value::str("base"));
        let constant = pool.intern_uncounted(&Value::str("const"));
        pool.rendered(base);
        let before = (pool.len(), pool.approx_bytes());
        let mark = pool.mark();

        // A request's section: counted values (one also a base hit), an
        // uncounted probe, and renders of all of them.
        let x = pool.intern(&Value::str("x"));
        let y = pool.intern(&Value::str("y"));
        pool.intern(&Value::str("x"));
        assert_eq!(pool.intern(&Value::str("base")), base);
        let probe = pool.intern_uncounted(&Value::str("probe"));
        pool.rendered_batch(&[x, y, probe, base]);
        pool.retire_ids([x, x, y, base]);

        assert_eq!(pool.release(mark), 3);
        assert_eq!((pool.len(), pool.approx_bytes()), before);
        for gone in ["x", "y", "probe"] {
            assert_eq!(pool.lookup(&Value::str(gone)), None, "{gone}");
        }
        assert_eq!(pool.use_count(base), 1, "below the mark untouched");
        assert_eq!(pool.lookup(&Value::str("const")), Some(constant));
        assert_eq!(&*pool.rendered(base).text, "base");

        // The next section gets the same ids in the same append order,
        // with fresh counts and renders.
        assert_eq!(pool.intern(&Value::str("x")), x);
        assert_eq!(pool.intern(&Value::str("y")), y);
        assert_eq!(pool.use_count(x), 1);
        assert_eq!(&*pool.rendered(y).text, "y");
        pool.retire_ids([x, y]);
        assert_eq!(pool.release(mark), 2);
        assert_eq!(pool.release(mark), 0, "releasing twice is a no-op");
        assert_eq!((pool.len(), pool.approx_bytes()), before);
    }

    #[test]
    fn release_never_drops_a_counted_slot() {
        let pool = ValuePool::new();
        pool.intern(&Value::str("base"));
        let len = pool.len();
        let mark = pool.mark();
        let kept = pool.intern(&Value::str("kept"));
        pool.intern_uncounted(&Value::str("uncounted"));
        let retired = pool.intern(&Value::str("retired"));
        pool.retire(retired, 1);

        // A counted slot in the section is a caller bug: debug builds
        // assert (after the release, with the lock free); either way the
        // release stops at that slot.
        let released = std::panic::catch_unwind(|| pool.release(mark));
        assert_eq!(released.is_err(), cfg!(debug_assertions));
        if let Ok(dropped) = released {
            assert_eq!(dropped, 2);
        }
        assert_eq!(pool.lookup(&Value::str("kept")), Some(kept));
        assert_eq!(pool.use_count(kept), 1);
        assert_eq!(pool.lookup(&Value::str("uncounted")), None);
        assert_eq!(pool.lookup(&Value::str("retired")), None);
        assert_eq!(pool.len(), len + 1);
    }

    #[test]
    fn release_leaves_sealed_and_free_slots_below_the_mark() {
        let pool = ValuePool::new();
        let [live, freed, sealed] =
            ["live", "freed", "sealed"].map(|s| pool.intern(&Value::str(s)));
        pool.retire(freed, 1);
        assert_eq!(pool.compact(), 1);
        pool.retire(sealed, 1);
        assert_eq!(pool.seal_ids([sealed]), 1);
        let before = (pool.len(), pool.approx_bytes());

        let mark = pool.mark();
        assert_eq!(pool.release(mark), 0);
        assert_eq!((pool.len(), pool.approx_bytes()), before);
        // A value interned in a section takes the free slot below the
        // mark, so the release leaves it; the next one appends at the
        // mark and goes.
        let reused = pool.intern(&Value::str("reused"));
        let appended = pool.intern(&Value::str("appended"));
        assert_eq!(reused, freed);
        assert!(appended > sealed);
        pool.retire_ids([reused, appended]);
        assert_eq!(pool.release(mark), 1);
        assert_eq!(pool.lookup(&Value::str("appended")), None);
        assert_eq!(pool.lookup(&Value::str("reused")), Some(reused));
        assert_eq!(pool.lookup(&Value::str("sealed")), None);
        assert_eq!(pool.use_count(live), 1);
        // The sealed slot is still sealed: compact drains it (and the
        // retired `reused`) onto the free list.
        assert_eq!(pool.compact(), 2);
        assert_eq!(pool.len(), 2, "null + live remain");
    }

    #[test]
    fn evict_loop_returns_to_baseline() {
        // The shape of the pool-growth gate: load, retire, compact, and
        // both the slot count and the byte estimate return to baseline.
        let pool = ValuePool::new();
        let mut baseline = None;
        for round in 0..5 {
            let cells: Vec<Value> = (0..50).map(|i| Value::str(format!("v{i}"))).collect();
            let (dict, counts) = dictionary(&cells);
            let ids = pool.install_column(&dict, &counts);
            let scalar = ValuePool::new();
            for v in &cells {
                scalar.intern(v);
            }
            for (v, id) in cells.iter().zip(&ids) {
                assert_eq!(
                    pool.use_count(*id),
                    scalar.use_count(scalar.lookup(v).unwrap())
                );
            }
            // Render a few to fill the cache, as a repair would.
            pool.rendered_batch(&ids[..10]);
            pool.retire_ids(ids);
            assert!(pool.compact() >= 50);
            match baseline {
                None => baseline = Some((pool.len(), pool.approx_bytes())),
                Some(base) => assert_eq!(
                    (pool.len(), pool.approx_bytes()),
                    base,
                    "round {round} grew the pool"
                ),
            }
        }
    }

    #[test]
    fn concurrent_interning_agrees() {
        let pool = ValuePool::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..100)
                            .map(|i| pool.intern(&Value::str(format!("w{i}"))))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let results: Vec<Vec<ValueId>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            for w in &results[1..] {
                assert_eq!(w, &results[0]);
            }
        });
        assert_eq!(pool.len(), 101); // null + 100 distinct
    }
}
