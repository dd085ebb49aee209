//! # cfd-model — relational substrate for CFD-based data cleaning
//!
//! This crate provides the in-memory relational layer that the repair
//! algorithms of Cong et al. (VLDB 2007) operate on. Its defining design
//! decision is the **dictionary-encoded value layer**: every attribute
//! value is interned exactly once in a process-wide [`ValuePool`], and all
//! storage, comparison, grouping, and indexing above the pool speaks dense
//! [`ValueId`]s (`u32`). Violation detection, the LHS-indices of §5.2,
//! `BATCHREPAIR`'s equivalence classes, and discovery partitions all hash
//! and compare integers; strings are resolved only at the edges — distance
//! computation (`dis(v, v')`), display, and CSV.
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
//!   single relation; multi-relation databases are repaired relation by
//!   relation).
//! * [`Tuple`] — a row of [`ValueId`]s plus the per-attribute confidence
//!   weights `w(t, A) ∈ [0, 1]` of the paper's cost model (§3.2);
//!   [`TupleView`] abstracts its read API so scans and pattern matching
//!   run identically on owned tuples and storage views.
//! * [`storage`] — the physical layer: [`ColumnStore`] keeps the relation
//!   as per-attribute `ValueId`/weight columns plus a validity bitmap
//!   (the default), with a row-major reference store selectable behind
//!   the same abstraction; [`RowRef`] is the zero-copy per-tuple view
//!   over either. Hot scans (violation detection, census walks, index
//!   builds, discovery partitions) read contiguous column slices;
//!   [`Tuple`]s materialize on demand at the edges.
//! * [`Relation`] — a multiset of tuples with *stable* [`TupleId`]s, so a
//!   tuple can be tracked through repairs even as its values change (the
//!   "temporary unique tuple id" of §3.1); layout-selectable via
//!   [`StorageLayout`] and pivotable with `Relation::to_layout`.
//! * [`Database`] — named relations sharing one database-owned pool
//!   (exposed via [`Database::pool`]).
//! * [`ActiveDomain`] — `adom(A, D)` as an id multiset, the candidate pool
//!   repairs draw new values from (the algorithms never invent values).
//! * [`index::HashIndex`] — hash indexes over attribute lists keyed on
//!   [`IdKey`], the lookup primitive behind violation detection and the
//!   LHS-indices of §5.2.
//! * [`query`] — a small selection engine (conjunctive predicates) used by
//!   the SQL-style violation detection.
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

pub mod active_domain;
pub mod csv;
pub mod database;
pub mod diff;
pub mod error;
pub mod hash;
pub mod index;
pub mod key;
pub mod mapping;
pub mod pool;
pub mod query;
pub mod relation;
pub mod schema;
pub mod simd;
pub mod snapshot;
pub mod storage;
pub mod tuple;
pub mod value;

pub use active_domain::ActiveDomain;
pub use database::Database;
pub use diff::{Edit, EditLog};
pub use error::ModelError;
pub use key::IdKey;
pub use mapping::{Mapping, MappingCache};
pub use pool::{Rendered, ValueId, ValuePool, NULL_ID};
pub use relation::{Relation, TupleId};
pub use schema::{AttrId, Schema};
pub use simd::{force_simd, simd_enabled};
pub use snapshot::{Catalog, LoadedSnapshot, SegmentInfo, SnapshotError, SnapshotInfo};
pub use storage::{ColumnStore, IdColumn, RowRef, StorageLayout};
pub use tuple::{Tuple, TupleView};
pub use value::Value;
