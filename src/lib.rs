//! # cfdclean
//!
//! Repairing relational data with **conditional functional dependencies**
//! (CFDs): a complete implementation of Cong, Fan, Geerts, Jia & Ma,
//! *Improving Data Quality: Consistency and Accuracy*, VLDB 2007.
//!
//! ## The dictionary-encoded value layer
//!
//! Every attribute value is interned in a dictionary
//! ([`model::ValuePool`]) and handled as a dense [`model::ValueId`]
//! (`u32`) everywhere above storage. Pools are **dataset-scoped**: each
//! CSV import and each snapshot install interns into a pool of its own
//! (`Arc<ValuePool>`, carried by the [`model::Relation`]), so ids are
//! meaningful only within their pool, and everything a repair computes
//! — including the `use_count` frequencies that break `FINDV` candidate
//! ties — depends only on (dataset, rules, config), never on what else
//! the process loaded (`tests/pool_scoping_differential.rs` pins this).
//! All hot paths — violation detection, the group census that detection,
//! `INCREPAIR` and `BATCHREPAIR` share, and `BATCHREPAIR`'s
//! equivalence-class targets — compare, hash, and group integers;
//! pattern constants are interned (uncounted) into the relation's pool at
//! rule-bind time ([`cfd::Sigma::normalize_in`], which remembers the
//! pool, so a Σ is refused on a relation of another pool);
//! strings are resolved only at the edges (the `dis(v, v')` distance
//! kernel, memoized per id pair and bound to one pool, plus display and
//! CSV) and at the few deliberate cross-pool seams, which exchange
//! [`model::Value`]s rather than ids (the sampling oracle, edit-log
//! parsing, `Relation::rekey_into`, and `dif`, which compares values
//! when its two relations hold different pools). There is no
//! process-wide pool: every constructor that interns names its pool, and
//! the §7.1 generator gives each clean and each dirty dataset a pool
//! counting exactly its own cells. Pools reclaim: occurrence counts maintained
//! by interning feed `retire`/`retire_ids` + `compact`, so a
//! long-running process can evict a dataset and get its dictionary
//! memory back — exactly what the resident server's evictions do. The paper's
//! §3.1 null semantics survive the encoding verbatim: interning is
//! injective, `null` is always id 0 in every pool, and
//! `sql_eq`/`strict_eq`/pattern matching exist in id form with property
//! tests pinning their agreement with the value-level definitions.
//!
//! ## The `Session` facade and the resident server
//!
//! [`session`] is the single owner of the dataset lifecycle. A
//! [`DatasetHandle`] packages one dataset — a relation over its own
//! pool, optionally bound rules, and the **resident detection index**
//! ([`cfd::violation::EngineParts`]), built exactly once at bind time.
//! The first detect after a bind computes the violation report from
//! those parts and the handle keeps it: every later detect request
//! renders the same report. `BATCHREPAIR` keeps its t=0 state resident
//! too ([`repair::BatchSeed`], built from the report by the first batch
//! repair): each repair copies only what its loop mutates. A
//! [`Session`] is a named collection of handles behind per-dataset
//! reader/writer locks, optionally backed by a snapshot catalog and
//! bounded by an LRU capacity whose evictions provably return pool
//! memory. Every front end routes through it:
//!
//! * the one-shot CLI (`cfdclean detect|repair|insert|snapshot`), which
//!   builds a fresh handle per invocation;
//! * the resident daemon (`crates/server`, CLI `cfdclean serve` /
//!   `cfdclean client`), which keeps handles warm across requests and
//!   serves them over a hand-rolled length-prefixed framed protocol
//!   (TCP or Unix socket; the byte-level spec lives in `cfd-server`'s
//!   crate docs) with client-side request pipelining and per-request
//!   timeouts.
//!
//! The contract that makes residency safe is **process-history
//! independence**: a warm handle answers byte-identically to a fresh
//! one-shot process, over any request history. Opens intern into a
//! brand-new pool in canonical order (CSV column-major, then the rules'
//! pattern constants, uncounted); insert requests retire **and seal**
//! ΔD's transient values ([`model::ValuePool::seal_ids`] — released
//! without free-list reuse, so later interns still get append-order
//! ids); eviction retires + compacts the whole dictionary back to
//! baseline. A request that panics inside a dataset's lock poisons only
//! that dataset: subsequent requests on it get a typed
//! [`SessionError::Poisoned`] instead of a wedged session, siblings
//! proceed untouched, and eviction still succeeds and reclaims the
//! memory. The server integration suite pins daemon answers against
//! the one-shot facade, and a CI smoke job diffs a real daemon's output
//! against the committed golden fixtures.
//!
//! ## Streaming repair sessions
//!
//! [`stream`] layers *continuous* repair on top of the resident
//! machinery. A [`RepairSession`] (one per dataset, opened on a clean
//! base with bound rules via `DatasetHandle::open_stream`) accepts
//! timestamped events — `i <ts> <csv-row>` inserts and `d <ts>
//! <tuple-id>` deletes — and windows them by a [`StreamConfig`]:
//! tumbling (`slide == size`) or sliding (`slide < size`), where window
//! `k` covers `[k·slide, k·slide + size)` and an event commits in the
//! *first* window whose close covers its timestamp (deterministic under
//! overlap; events at or below the watermark are rejected as late at
//! feed time, so replaying a log always yields the same assignment).
//! Advancing the watermark closes due windows in order. Each close
//! stages that window's arrivals against the evolved base (base +
//! every previously committed window), runs `INCREPAIR` over the warm
//! group census of a [`repair::StreamRepairer`] — the resident census is
//! *updated*, never rebuilt, as tuples arrive and leave — and emits one
//! id-stable `.cfde` edit log, so replaying the per-window logs onto
//! the initial snapshot reconstructs the live relation exactly
//! (`tests/stream_differential.rs` pins this, plus
//! stream-vs-one-shot-`INCREPAIR` byte equality per window and
//! sliding-with-`slide == size` ≡ tumbling). Pool hygiene follows the
//! insert path's discipline per window: a closing window's rejected
//! values are retired and **sealed** — never free-listed mid-stream, so
//! ids stay append-ordered and `FINDV` tie-breaks match a fresh process
//! — and closing the stream (or evicting the dataset, which aborts an
//! open stream) returns the pool to its pre-stream footprint. All
//! three front ends expose it: the facade (`open_stream` /
//! `stream_feed` / `stream_advance` / `stream_close`), the daemon
//! (opcodes `0x0d`–`0x10`), and the CLI (`cfdclean stream` one-shot
//! replay, `cfdclean client stream-*` against a live daemon), with
//! daemon-fed streams byte-identical to in-process sessions.
//!
//! ## Crates
//!
//! This facade crate re-exports the workspace:
//!
//! * [`model`] — the relational substrate (the value pool, schemas,
//!   id-encoded weighted tuples, relations, `IdKey`-keyed hash indexes,
//!   `dif`/precision/recall and id-level edit logs, CSV, and the
//!   snapshot persistence layer: a checksummed on-disk dictionary +
//!   columnar-segment format behind a catalog of named datasets, loaded
//!   without re-interning);
//! * [`cfd`] — CFDs: pattern tableaus (value and interned forms),
//!   normalization, violation detection, satisfiability, rule files;
//! * [`repair`] — `BATCHREPAIR` and `INCREPAIR` with the §3.2 cost model
//!   over memoized id-pair distances;
//! * [`sampling`] — the statistical accuracy module (stratified sampling,
//!   z-tests, Chernoff bounds);
//! * [`gen`] — the §7.1 evaluation workload generator.
//!
//! The workspace also ships the resident repair daemon
//! (`crates/server`, crate `cfd-server`: the framed wire protocol, the
//! serve loop, and a blocking client), a command-line tool
//! (`crates/cli`, binary `cfdclean`) that exposes detect / repair /
//! insert / stream / certify / generate / snapshot / catalog / serve /
//! client over CSV and rule files, and a dependency-free seedable PRNG
//! (`cfd-prng`) backing the generator and the randomized test suites.
//!
//! Detection, `BATCHREPAIR` and `INCREPAIR` run on the calling thread,
//! as the paper's serial greedy algorithms do; no repair setting takes a
//! thread count. `PICKNEXT` resolves under a total, seed-independent key
//! order, so the same (dataset, Σ, options) always gives byte-identical
//! repairs, cost bits and edit logs. Concurrency lives in the daemon
//! (one thread per connection over a thread-safe, dataset-scoped value
//! pool), never inside one repair.
//!
//! ## Example
//!
//! Detect and repair the paper's Fig. 1 inconsistency:
//!
//! ```
//! use cfdclean::cfd::{parser::parse_rules, violation, Sigma};
//! use cfdclean::model::{Relation, Schema, Tuple, ValuePool};
//! use cfdclean::repair::batch_repair;
//!
//! let schema = Schema::new("order", &["AC", "PN", "CT", "ST", "zip"]).unwrap();
//! // The dataset's values and the rules' constants share one pool.
//! let mut dirty = Relation::new_in(schema.clone(), ValuePool::new_handle());
//! // zip 10012 says NYC/NY — this tuple is wrong on its own
//! let t = Tuple::new_in(["212", "3345677", "PHI", "PA", "10012"], dirty.pool());
//! dirty.insert(t).unwrap();
//! let cfds = parse_rules(
//!     &schema,
//!     "phi2: [zip] -> [CT, ST] { (10012 || NYC, NY); (19014 || PHI, PA) }",
//! )
//! .unwrap();
//! let sigma = Sigma::normalize_in(schema, cfds, dirty.pool()).unwrap();
//!
//! assert!(!violation::check(&dirty, &sigma));
//! let out = batch_repair(&dirty, &sigma).unwrap();
//! assert!(violation::check(&out.repair, &sigma));
//! ```

#![forbid(unsafe_code)]

pub mod session;
pub mod stream;

pub use cfd_cfd as cfd;
pub use cfd_gen as gen;
pub use cfd_model as model;
pub use cfd_repair as repair;
pub use cfd_sampling as sampling;

pub use session::{
    read_cell, write_cell, DatasetCell, DatasetHandle, DatasetRef, EvictReport, InsertRun,
    Installed, RepairRun, ResidentFootprint, Session, SessionError, SessionStats,
};
pub use stream::{RepairSession, StreamCloseReport, StreamConfig, StreamInfo, WindowResult};
