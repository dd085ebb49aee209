//! # cfd-model — relational substrate for CFD-based data cleaning
//!
//! This crate provides the in-memory relational layer that the repair
//! algorithms of Cong et al. (VLDB 2007) operate on. Its defining design
//! decision is the **dictionary-encoded value layer**: every attribute
//! value is interned exactly once in its dataset's [`ValuePool`], and all
//! storage, comparison, grouping, and indexing above the pool speaks dense
//! [`ValueId`]s (`u32`). Violation detection, the LHS-indices of §5.2,
//! and `BATCHREPAIR`'s equivalence classes all hash and compare integers;
//! strings are resolved only at the edges — distance computation
//! (`dis(v, v')`), display, and CSV.
//!
//! The layers, bottom-up:
//!
//! * [`Value`] — typed attribute values (`Null` / `Int` / `Str`) with the
//!   paper's *simple SQL semantics* for `null` (§3.1, Remarks).
//! * [`pool`] — the dictionary: [`ValuePool`] interns values to
//!   [`ValueId`]s; [`NULL_ID`] is always slot 0, and
//!   [`ValueId::sql_eq`] / [`ValueId::strict_eq`] mirror the value-level
//!   comparison semantics exactly (interning is injective). `t1[A] =
//!   t2[A]` stays true under the simple SQL semantics when either id is
//!   [`NULL_ID`], while pattern matching (in `cfd-cfd`) still rejects
//!   nulls.
//! * [`key`] — [`IdKey`], the compound index key: up to four ids inline
//!   (no allocation), longer keys boxed. Every `HashMap` on a hot path
//!   keys on `IdKey` or `ValueId`, never on `Vec<Value>`.
//! * [`Schema`] / [`AttrId`] — single-relation schemas (CFDs address a
//!   single relation).
//! * [`Tuple`] — a row of [`ValueId`]s plus the per-attribute confidence
//!   weights `w(t, A) ∈ [0, 1]` of the paper's cost model (§3.2);
//!   [`TupleView`] abstracts its read API so scans and pattern matching
//!   run identically on owned tuples and storage views.
//! * [`storage`] — the physical layer: [`ColumnStore`] keeps the relation
//!   as per-attribute `ValueId`/weight columns plus a validity bitmap;
//!   [`RowRef`] is the zero-copy per-tuple view over one of its slots.
//!   Hot scans (violation detection, census walks, index builds) read
//!   contiguous column slices; [`Tuple`]s
//!   materialize on demand at the edges.
//! * [`Relation`] — a multiset of tuples with *stable* [`TupleId`]s, so a
//!   tuple can be tracked through repairs even as its values change (the
//!   "temporary unique tuple id" of §3.1), stored in one [`ColumnStore`].
//! * [`ActiveDomain`] — `adom(A, D)` as an id multiset, the candidate pool
//!   repairs draw new values from (the algorithms never invent values).
//! * [`index::HashIndex`] — hash indexes over attribute lists keyed on
//!   [`IdKey`], the lookup primitive behind violation detection and the
//!   LHS-indices of §5.2.
//! * [`diff`] — `dif(D1, D2)`, the attribute-level difference measure used
//!   for accuracy accounting, precision and recall (§7.1), and
//!   [`EditLog`] — a repair expressed as id-level cell edits.
//! * [`csv`] — plain-text import/export so examples can persist datasets.
//! * [`snapshot`] — the persistence layer: a versioned, checksummed
//!   binary format bundling the dictionary, the columnar segments, the
//!   schema, and rule text; the [`Catalog`] of named datasets; and the
//!   serialized form of [`EditLog`]s. CSV import and snapshot load share
//!   one install path: each bulk-installs a column dictionary with
//!   occurrence counts ([`ValuePool::install_column`]) and hands the id
//!   columns to [`Relation::from_store`]. CSV import builds its
//!   dictionary by deduplicating the parsed fields; snapshot load reads
//!   it from the file and skips parsing.

#![forbid(unsafe_code)]

pub mod active_domain;
pub mod csv;
pub mod diff;
pub mod error;
pub mod hash;
pub mod index;
pub mod key;
pub mod pool;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod storage;
pub mod tuple;
pub mod value;

pub use active_domain::ActiveDomain;
pub use diff::{Edit, EditLog};
pub use error::ModelError;
pub use key::IdKey;
pub use pool::{Rendered, ValueId, ValuePool, NULL_ID};
pub use relation::{Relation, TupleId};
pub use schema::{AttrId, Schema};
pub use snapshot::{Catalog, LoadedSnapshot, SegmentInfo, SnapshotError, SnapshotInfo};
pub use storage::{ColumnStore, RowRef};
pub use tuple::{Tuple, TupleView};
pub use value::Value;

/// Always `true`: the bit-parallel distance kernel and the columnar
/// constant scan are the only runtime kernels. Kept for `perfbench`
/// (`perfbench/src/main.rs`), which records it in its run metadata.
#[doc(hidden)]
pub fn simd_enabled() -> bool {
    true
}

/// Kept for `perfbench` (`perfbench/src/main.rs`), which records
/// `mapping::mmap_enabled()` in its run metadata. Snapshot opens always
/// copy, so it is always `false`.
#[doc(hidden)]
pub mod mapping {
    /// Always `false`: no snapshot open borrows from its file.
    pub fn mmap_enabled() -> bool {
        false
    }
}

/// Kept for `perfbench` (`perfbench/src/daemon.rs`), which opens its
/// snapshot through `load_mapped` and `drop`s the second element. Not
/// `Copy`, so that `drop` compiles without a warning.
#[doc(hidden)]
pub struct NoMapping;

#[doc(hidden)]
impl Catalog {
    /// [`Catalog::load`] paired with a [`NoMapping`] placeholder.
    pub fn load_mapped(&self, name: &str) -> Result<(LoadedSnapshot, NoMapping), SnapshotError> {
        self.load(name).map(|loaded| (loaded, NoMapping))
    }
}

/// Kept for `perfbench` (`perfbench/src/daemon.rs`), which records both
/// after each snapshot open.
#[doc(hidden)]
impl Relation {
    /// Always 0: every column is an owned buffer.
    pub fn mapped_bytes(&self) -> usize {
        0
    }

    /// Column payload bytes: the value and weight columns of every slot
    /// plus the validity bitmap.
    pub fn owned_bytes(&self) -> usize {
        let columns: usize = self
            .schema()
            .attr_ids()
            .map(|a| {
                std::mem::size_of_val(self.column(a)) + std::mem::size_of_val(self.weight_column(a))
            })
            .sum();
        columns + self.slot_count().div_ceil(64) * std::mem::size_of::<u64>()
    }
}
