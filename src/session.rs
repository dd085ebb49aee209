//! The unified [`Session`] facade: one owner for the dataset lifecycle.
//!
//! Every front end — the one-shot `cfdclean` CLI, the resident
//! `cfd-server` daemon, embedding applications — drives the same
//! load → bind → detect → repair → insert → snapshot → evict sequence,
//! and before this module each of them re-plumbed it by hand: a fresh
//! [`ValuePool`], a relation interned into it, a [`Sigma`] normalized
//! against that pool, a detection [`Engine`] built over
//! the relation, and (for long-lived processes) the retire/compact
//! eviction dance that returns the dictionary's memory. The facade
//! packages that sequence once:
//!
//! * [`DatasetHandle`] — one dataset: a [`Relation`] over its own
//!   dataset-scoped pool, optional bound rules, and the **resident
//!   detection index** ([`EngineParts`]) built exactly once at bind
//!   time. The **resident violation report** is computed from those
//!   parts ([`cfd_cfd::detect_with_parts`]) by the first detect after a
//!   bind, which also buckets the parts' **group census**; every later
//!   detect request, and the insert path's clean-base check, reads that
//!   one report. `BATCHREPAIR` starts from a **resident t=0 state**
//!   ([`BatchSeed`]): the first default-config batch repair builds it
//!   from the report and a clone of the parts — dirty sets, the shared
//!   census and the priced `PICKNEXT` frontier — and every later
//!   default-config repair copies only what the repair loop mutates,
//!   borrowing the census and frontier. Reweighting and rebinding drop
//!   it; a repair with another config builds a seed for itself alone.
//!   Insert requests go through a **resident `INCREPAIR` state** (see
//!   below), which reads only the parts' constant rules, variable-CFD ids
//!   and census, never their group indexes. The set of Σ's
//!   pattern-constant ids, which pool hygiene must never seal, is also
//!   computed once per bind.
//! * [`Session`] — a named collection of handles behind per-dataset
//!   reader/writer locks, optionally backed by a snapshot [`Catalog`]
//!   and bounded by an LRU capacity whose evictions provably return
//!   pool memory ([`EvictReport`]).
//!
//! ## Determinism contract
//!
//! A handle is **state-identical to a fresh one-shot process**: opening
//! a dataset interns into a brand-new pool in the same order the CLI
//! does (CSV column-major, then the rules' pattern constants, uncounted),
//! so every detect/repair answer is byte-identical to running the
//! equivalent `cfdclean` command, per the workspace-wide determinism
//! contract. Insert requests keep the contract over time: ΔD's values are interned, repaired, and then retired **and
//! sealed** ([`ValuePool::seal_ids`]) — released without free-list
//! reuse — so a later request's interns still get append-order ids,
//! exactly as a fresh process would assign them.
//!
//! ## The insert path
//!
//! The first insert request on a handle checks the base clean once (the
//! §5 precondition `D |= Σ`, answered by the resident violation report) and
//! only then builds the resident state: an [`InsertRepairer`] holding the
//! active domain and nearest-value indexes over the base, plus the base's
//! rendered CSV bytes. Its existence *is* the cached "base is clean"
//! answer; a dirty base builds nothing and every insert keeps failing with
//! the same error. Each request then costs O(|ΔD|) index work: ΔD is
//! staged into a copy-on-write clone of the base, resolved against the
//! parts' census through an overlay of the request's own (which validates
//! candidates and prices their `vio` from the per-group RHS buckets),
//! verified by checking only the ΔD tuples, rendered as the cached base
//! bytes plus the ΔD rows, and rolled back — the overlay is dropped and
//! every index of the state returns exactly to the base before the
//! request returns. What stays warm is each value index's memo of
//! nearest values over the base, which depends on the base alone. The
//! detection parts are only read, so detect and repair answers never
//! depend on insert history. Replies are
//! byte-identical to a one-shot [`inc_repair`](cfd_repair::inc_repair)
//! over the same base.
//! Anything that changes the base or its rules drops the state:
//! [`DatasetHandle::bind_rules`], [`DatasetHandle::apply_weights`], and
//! eviction (before the pool is compacted). A request that fails after
//! staging also drops it, so the next insert re-checks the base and
//! rebuilds the state from the relation.
//!
//! ## Locking
//!
//! [`Session`] holds one mutex over the name → handle map; each handle
//! sits behind its own [`RwLock`]. Request handlers lock the map only
//! long enough to clone the handle's `Arc`, then take the per-dataset
//! lock: reads (detect, repair — repairs never mutate the resident
//! relation) run concurrently, writes (insert's pool hygiene, rule
//! rebinding, eviction) serialize. The session mutex is never acquired
//! while holding a dataset lock, so the lock order is acyclic.

use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use cfd_cfd::parser::parse_rules;
use cfd_cfd::violation::{self, EngineParts, ViolationReport};
use cfd_cfd::{CfdId, Engine, Sigma};
use cfd_model::diff::{dif, EditLog};
use cfd_model::hash::{FixedMap, FixedSet};
use cfd_model::snapshot::{edit_log_to_vec, SnapshotInfo};
use cfd_model::{csv, Catalog, Relation, Tuple, TupleId, ValueId, ValuePool};
use cfd_repair::{
    repair_via_incremental, Algorithm, BatchConfig, BatchSeed, IncConfig, InsertFootprint,
    InsertRepairer, Ordering, RepairError, RepairOptions,
};

use crate::stream::{RepairSession, StreamCloseReport, StreamConfig, StreamInfo, WindowResult};

/// Typed errors for every facade operation. Front ends render these with
/// `Display`; the daemon maps them onto wire-protocol error frames
/// without losing the kind.
#[derive(Debug)]
pub enum SessionError {
    /// No dataset with this name is open in the session.
    UnknownDataset(String),
    /// A dataset with this name is already open; evict it first.
    AlreadyOpen(String),
    /// The handle was evicted while this reference was held.
    Evicted(String),
    /// The operation needs rules, but none are bound to the dataset.
    NoRules(String),
    /// The operation needs a snapshot catalog, but the session has none.
    NoCatalog,
    /// Malformed input data (CSV, weights, arity mismatches, dirty base).
    Data(String),
    /// Malformed or unusable rule text.
    Rules(String),
    /// A snapshot/catalog operation failed.
    Snapshot(String),
    /// The repair algorithm itself failed.
    Repair(String),
    /// A streaming-session operation failed (no stream open, a stream
    /// already open, a late event, a bad delete target).
    Stream(String),
    /// The dataset's lock was poisoned by a panicking request. The
    /// dataset is wedged until evicted (eviction recovers the guard and
    /// reclaims the pool); every other dataset keeps answering.
    Poisoned(String),
    /// An internal invariant failed — a bug, never bad user input.
    Internal(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownDataset(n) => write!(f, "no dataset named {n:?} is open"),
            SessionError::AlreadyOpen(n) => write!(f, "dataset {n:?} is already open"),
            SessionError::Evicted(n) => write!(f, "dataset {n:?} was evicted"),
            SessionError::NoRules(n) => write!(f, "dataset {n:?} has no rules bound"),
            SessionError::NoCatalog => write!(f, "no snapshot catalog is attached to this session"),
            SessionError::Data(m)
            | SessionError::Rules(m)
            | SessionError::Snapshot(m)
            | SessionError::Repair(m)
            | SessionError::Stream(m) => f.write_str(m),
            SessionError::Poisoned(n) => write!(
                f,
                "dataset {n:?} is poisoned by a panicked request; evict it to recover"
            ),
            SessionError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<RepairError> for SessionError {
    fn from(e: RepairError) -> Self {
        SessionError::Repair(e.to_string())
    }
}

/// Rules bound to a dataset: the normalized Σ (pattern constants
/// interned, uncounted, into the dataset's pool), the detection index
/// built over the relation, and the violation report — the daemon's
/// warm state.
struct BoundRules {
    sigma: Sigma,
    /// The detection parts, with the group census their first reader
    /// buckets. The census holds weight sums, so
    /// [`DatasetHandle::apply_weights`] drops it.
    parts: EngineParts,
    /// Σ's pattern-constant ids ([`constant_ids`]): shielded from sealing
    /// by every insert and stream while the rules stay bound.
    constant_ids: FixedSet<ValueId>,
    /// `detect(D, Σ)`, computed by the first detect and read by every
    /// later one. It needs no invalidation while the handle's methods
    /// leave the relation's cells alone: rebinding replaces the whole
    /// `BoundRules`, a report counts carriers and never reads their
    /// weights (reweighting drops only the census it was read off),
    /// inserts, repairs and streams work on copies, and eviction drops it
    /// with the rules (it holds no `ValueId`s, so pool reclamation is
    /// unaffected). A method that changes the resident relation's values
    /// must reset it.
    report: OnceLock<ViolationReport>,
    /// `BATCHREPAIR`'s t=0 state ([`BatchSeed`]) for the default
    /// [`BatchConfig`], built from the report and a clone of `parts` by
    /// the first default batch repair and shared by every later one. A
    /// repair with another config builds a seed of its own and uses it
    /// once, so it can never pin this one. It depends on the cell
    /// weights, so [`DatasetHandle::apply_weights`] resets it; rebinding
    /// replaces it with the rest of `BoundRules`.
    seed: OnceLock<BatchSeed>,
}

/// The resident `INCREPAIR` state of a handle whose base is clean (see
/// the module docs on the insert path).
struct ResidentInsert {
    repairer: InsertRepairer,
    /// `csv::write_relation` bytes of the base: an insert reply is these
    /// followed by the ΔD rows.
    base_csv: Vec<u8>,
}

/// The resident insert state's index sizes, the group count of every
/// detection index of the handle and its census checksum — what each
/// insert request must leave unchanged. Inserts only read the detection
/// parts, so their group counts and census move only with a rebind (and
/// the census with a reweighting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResidentFootprint {
    /// The [`InsertRepairer`]'s own indexes.
    pub repairer: InsertFootprint,
    /// `HashIndex::group_count` per indexed LHS attribute list, in
    /// attribute-list order.
    pub groups: Vec<usize>,
    /// [`GroupCensus::checksum`](cfd_cfd::census::GroupCensus::checksum)
    /// of the parts' census.
    pub census: u64,
}

/// One open dataset: a relation over its own pool, optionally with
/// bound rules and the resident detection index. See the module docs
/// for the determinism and locking contracts.
pub struct DatasetHandle {
    name: String,
    relation: Relation,
    rules_text: Option<String>,
    bound: Option<BoundRules>,
    /// Built by the first insert on a clean base; dropped whenever the
    /// base or its rules change.
    resident: Option<ResidentInsert>,
    /// At most one open streaming session per dataset. The stream works
    /// a clone of the relation sharing the dataset pool; eviction aborts
    /// it so the pool-reclamation proof still holds.
    stream: Option<RepairSession>,
}

/// The result of a repair request: the repaired relation, its rendered
/// CSV bytes (exactly what `cfdclean repair --out` writes), the
/// deterministic stats line, and optionally the id-level edit log bytes.
pub struct RepairRun {
    /// The repaired relation (same pool as the input).
    pub repair: Relation,
    /// `csv::write_relation` bytes of the repair.
    pub csv: Vec<u8>,
    /// `.cfde` edit-log bytes, when requested.
    pub edit_log: Option<Vec<u8>>,
    /// The CLI spelling of the algorithm that ran.
    pub algorithm: &'static str,
    /// Input tuple count.
    pub tuples: usize,
    /// Cells that differ between input and repair.
    pub cells_changed: usize,
    /// The per-algorithm stats detail (the CLI `--stats` line).
    pub detail: String,
}

impl RepairRun {
    /// The deterministic summary line (no timing, no paths).
    pub fn summary(&self) -> String {
        format!(
            "repaired {} tuples with {}: {} cell(s) changed",
            self.tuples, self.algorithm, self.cells_changed
        )
    }
}

/// The result of an insert (incremental repair) request. Carries CSV
/// bytes rather than the merged relation: the delta's pool slots are
/// sealed when the request completes, so the rendered bytes are the
/// durable artifact.
pub struct InsertRun {
    /// `csv::write_relation` bytes of base ⊕ repaired updates.
    pub csv: Vec<u8>,
    /// ΔD tuple count.
    pub inserted: usize,
    /// Base tuple count.
    pub base_rows: usize,
    /// Cells TUPLERESOLVE modified.
    pub modified: usize,
    /// Nulls introduced.
    pub nulls: usize,
    /// Repair cost.
    pub cost: f64,
}

impl InsertRun {
    /// The deterministic summary line (no timing, no paths).
    pub fn summary(&self) -> String {
        format!(
            "inserted {} tuple(s) into {} base rows: {} modified, {} null(s), cost {:.3}",
            self.inserted, self.base_rows, self.modified, self.nulls, self.cost
        )
    }
}

/// What an eviction returned to the allocator — the proof obligation of
/// the resident service: after `open → repair → evict`, `pool_len` and
/// `pool_bytes` sit at the empty-pool baseline, every round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvictReport {
    /// The dataset that was evicted.
    pub name: String,
    /// Non-null cell occurrences retired from the pool's counters.
    pub retired_cells: usize,
    /// Dictionary slots freed by the final compact.
    pub freed_slots: usize,
    /// Pool slot count after compaction (1 = only `null` remains).
    pub pool_len: usize,
    /// Pool byte estimate after compaction.
    pub pool_bytes: usize,
}

impl EvictReport {
    /// The deterministic summary line.
    pub fn summary(&self) -> String {
        format!(
            "evicted {:?}: retired {} cell(s), freed {} slot(s), pool {} value(s) / {} byte(s)",
            self.name, self.retired_cells, self.freed_slots, self.pool_len, self.pool_bytes
        )
    }
}

impl DatasetHandle {
    /// Wrap an already-loaded relation. The relation must own its pool
    /// (fresh per dataset) for the determinism contract to hold — both
    /// [`from_csv`](DatasetHandle::from_csv) and the session's snapshot
    /// loader guarantee that.
    pub fn from_relation(name: impl Into<String>, relation: Relation) -> DatasetHandle {
        DatasetHandle {
            name: name.into(),
            relation,
            rules_text: None,
            bound: None,
            resident: None,
            stream: None,
        }
    }

    /// Parse CSV bytes into a fresh pool. `name` becomes both the
    /// dataset name and the relation name (the CLI uses the file stem,
    /// so pass the same to get byte-identical edit logs).
    pub fn from_csv(name: &str, csv_bytes: &[u8]) -> Result<DatasetHandle, SessionError> {
        let relation = csv::read_relation_in(name, &mut &*csv_bytes, ValuePool::new_handle())
            .map_err(|e| SessionError::Data(format!("cannot parse {name} data: {e}")))?;
        Ok(DatasetHandle::from_relation(name, relation))
    }

    /// Apply a per-cell confidence weight CSV to the relation.
    pub fn apply_weights(&mut self, weight_bytes: &[u8]) -> Result<(), SessionError> {
        self.resident = None;
        if let Some(bound) = &mut self.bound {
            bound.seed = OnceLock::new();
            bound.parts.drop_census();
        }
        csv::read_weights(&mut self.relation, &mut &*weight_bytes)
            .map_err(|e| SessionError::Data(format!("cannot parse weights: {e}")))
    }

    /// Parse and normalize rule text against the relation's schema,
    /// interning pattern constants (uncounted) into the dataset's pool,
    /// and build the resident detection index. `origin` names the rule
    /// source in error messages (a path, `"rules"`, or
    /// `"snapshot \"x\" embedded rules"`). Rebinding replaces any
    /// previous rules and rebuilds the index.
    pub fn bind_rules(&mut self, text: &str, origin: &str) -> Result<(), SessionError> {
        if self.stream.is_some() {
            return Err(SessionError::Stream(format!(
                "dataset {:?} has an open stream; close it before rebinding rules",
                self.name
            )));
        }
        let cfds = parse_rules(self.relation.schema(), text)
            .map_err(|e| SessionError::Rules(format!("cannot parse {origin}: {e}")))?;
        if cfds.is_empty() {
            return Err(SessionError::Rules(format!(
                "no rules in {origin}: the text parsed to zero CFDs"
            )));
        }
        let sigma = Sigma::normalize_in(self.relation.schema().clone(), cfds, self.relation.pool())
            .map_err(|e| SessionError::Rules(format!("cannot normalize rules in {origin}: {e}")))?;
        let parts = Engine::build(&self.relation, &sigma).to_parts();
        self.rules_text = Some(text.to_string());
        self.bound = Some(BoundRules {
            constant_ids: constant_ids(&sigma),
            sigma,
            parts,
            report: OnceLock::new(),
            seed: OnceLock::new(),
        });
        self.resident = None;
        Ok(())
    }

    /// The dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resident relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The bound rule text, if any.
    pub fn rules_text(&self) -> Option<&str> {
        self.rules_text.as_deref()
    }

    /// The normalized Σ, or [`SessionError::NoRules`].
    pub fn sigma(&self) -> Result<&Sigma, SessionError> {
        self.bound
            .as_ref()
            .map(|b| &b.sigma)
            .ok_or_else(|| SessionError::NoRules(self.name.clone()))
    }

    fn bound(&self) -> Result<&BoundRules, SessionError> {
        self.bound
            .as_ref()
            .ok_or_else(|| SessionError::NoRules(self.name.clone()))
    }

    /// The resident violation report: computed against the warm index by
    /// the first call after a bind, then returned as is. Identical to a
    /// cold [`cfd_cfd::detect`] run.
    pub fn detect(&self) -> Result<&ViolationReport, SessionError> {
        let bound = self.bound()?;
        Ok(bound.report.get_or_init(|| {
            violation::detect_with_parts(&self.relation, &bound.sigma, &bound.parts)
        }))
    }

    /// The resident [`BatchSeed`], once a batch repair has built it (and
    /// until anything drops it; see [`repair`](Self::repair)). It exposes
    /// cache state for the resident-repair differential suite
    /// (`tests/batch_resident_differential.rs`) and is not meant for
    /// other callers.
    #[doc(hidden)]
    pub fn batch_seed(&self) -> Option<&BatchSeed> {
        self.bound.as_ref()?.seed.get()
    }

    /// The human-readable violation report — byte-identical to the body
    /// `cfdclean detect` prints, with up to `limit` example tuples per
    /// source CFD.
    pub fn detect_report(&self, limit: usize) -> Result<String, SessionError> {
        use std::fmt::Write as _;
        let report = self.detect()?;
        let sigma = &self.bound().expect("checked by detect").sigma;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} tuples, {} normalized CFDs",
            self.relation.len(),
            sigma.len()
        );
        if report.total == 0 {
            let _ = writeln!(out, "clean: D |= \u{3a3}");
            return Ok(out);
        }
        let _ = writeln!(
            out,
            "dirty: {} violations across {} tuples",
            report.total,
            report.per_tuple.len()
        );
        // Group the normalized rows back by their source CFD for
        // readability — the same rendering the CLI uses.
        let mut by_source: std::collections::BTreeMap<&str, (usize, Vec<TupleId>)> =
            std::collections::BTreeMap::new();
        for (idx, ids) in report.per_cfd.iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let n = sigma.get(CfdId(idx as u32));
            let entry = by_source.entry(n.source_name()).or_default();
            entry.0 += ids.len();
            for id in ids.iter().take(limit) {
                if entry.1.len() < limit && !entry.1.contains(id) {
                    entry.1.push(*id);
                }
            }
        }
        for (name, (count, examples)) in by_source {
            let _ = writeln!(out, "  {name}: {count} violating tuple(s)");
            for id in examples {
                let t = self.relation.tuple(id).expect("reported tuple is live");
                let rendered: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
                let _ = writeln!(out, "    #{} = ({})", id.0, rendered.join(", "));
            }
        }
        Ok(out)
    }

    /// Run a repair. The resident relation is **not** mutated — exactly
    /// like the one-shot CLI, the repair is a derived artifact; the
    /// returned CSV bytes equal what `cfdclean repair --out` writes for
    /// the same input and options. Set `want_edits` to also derive the
    /// `.cfde` edit-log bytes.
    ///
    /// A batch repair with the default [`BatchConfig`] starts from the
    /// resident [`BatchSeed`] (see `BoundRules`): no detection, census
    /// build or frontier pricing per request, only copies of what the
    /// repair loop mutates. Any other config builds a seed for the one
    /// request.
    pub fn repair(
        &self,
        opts: &RepairOptions,
        want_edits: bool,
    ) -> Result<RepairRun, SessionError> {
        let bound = self.bound()?;
        let (repair, detail) = match opts.algorithm_choice() {
            Algorithm::Batch => {
                let config = opts.batch_config();
                let report = self.detect()?;
                let build = |config| {
                    BatchSeed::new(
                        &self.relation,
                        &bound.sigma,
                        bound.parts.clone(),
                        report,
                        config,
                    )
                };
                let outcome = if config == BatchConfig::default() {
                    let seed = bound.seed.get_or_init(|| build(config));
                    seed.repair(&self.relation, &bound.sigma)?
                } else {
                    build(config).into_repair(&self.relation, &bound.sigma)?
                };
                let d = format!(
                    "steps {} merges {} consts {} nulls {} cost {:.3}",
                    outcome.stats.steps,
                    outcome.stats.merges,
                    outcome.stats.consts_set,
                    outcome.stats.nulls_set,
                    outcome.stats.cost
                );
                (outcome.repair, d)
            }
            Algorithm::Incremental(_) => {
                let outcome =
                    repair_via_incremental(&self.relation, &bound.sigma, opts.inc_config())?;
                let d = format!(
                    "reinserted {} modified {} nulls {} cost {:.3}",
                    outcome.reinserted.len(),
                    outcome.stats.modified,
                    outcome.stats.nulls_introduced,
                    outcome.stats.cost
                );
                (outcome.repair, d)
            }
        };
        // The repair theorem guarantees this; verify anyway.
        if !violation::check(&repair, &bound.sigma) {
            return Err(SessionError::Internal(
                "repair does not satisfy the rules".to_string(),
            ));
        }
        let mut csv_bytes = Vec::new();
        csv::write_relation(&repair, &mut csv_bytes)
            .map_err(|e| SessionError::Internal(format!("cannot render repair: {e}")))?;
        let edit_log = if want_edits {
            let log = EditLog::between(&self.relation, &repair)
                .map_err(|e| SessionError::Data(format!("cannot derive edit log: {e}")))?;
            Some(edit_log_to_vec(
                &log,
                self.relation.schema().name(),
                self.relation.schema().arity(),
                self.relation.pool(),
            ))
        } else {
            None
        };
        let cells_changed = dif(&self.relation, &repair);
        Ok(RepairRun {
            csv: csv_bytes,
            edit_log,
            algorithm: opts.algorithm_choice().as_str(),
            tuples: self.relation.len(),
            cells_changed,
            detail,
            repair,
        })
    }

    /// Insert a batch of new tuples (§5's `INCREPAIR` in its native
    /// setting): parse ΔD into the resident pool, repair it against the
    /// clean base through the resident state (see the module docs), render
    /// the merged relation, then retire **and seal** ΔD's pool slots so
    /// the dictionary's memory returns without perturbing append-order id
    /// assignment for later requests (see [`ValuePool::seal_ids`]). The
    /// resident relation is not mutated.
    pub fn insert(
        &mut self,
        updates_csv: &[u8],
        weights_csv: Option<&[u8]>,
        ordering: Ordering,
        k: usize,
    ) -> Result<InsertRun, SessionError> {
        // Rules must already be bound — in request order, constants were
        // interned before ΔD, the same order the (rules-first) one-shot
        // insert uses.
        self.bound()?;
        let mut updates =
            csv::read_relation_in("updates", &mut &*updates_csv, self.relation.pool().clone())
                .map_err(|e| SessionError::Data(format!("cannot parse updates: {e}")))?;
        // Everything ΔD interned must be released when the request ends,
        // success or error — collect the cell ids up front.
        let delta_ids = live_cell_ids(&updates);
        let result = self.insert_inner(&mut updates, weights_csv, ordering, k);
        drop(updates);
        let pool = self.relation.pool();
        pool.retire_ids(delta_ids.iter().copied());
        let unbound = FixedSet::default();
        let protect = self.bound.as_ref().map_or(&unbound, |b| &b.constant_ids);
        pool.seal_ids(delta_ids.into_iter().filter(|id| !protect.contains(id)));
        result
    }

    fn insert_inner(
        &mut self,
        updates: &mut Relation,
        weights_csv: Option<&[u8]>,
        ordering: Ordering,
        k: usize,
    ) -> Result<InsertRun, SessionError> {
        if updates.schema().arity() != self.relation.schema().arity() {
            return Err(SessionError::Data(format!(
                "updates have {} attributes, base has {}",
                updates.schema().arity(),
                self.relation.schema().arity()
            )));
        }
        if let Some(w) = weights_csv {
            csv::read_weights(updates, &mut &*w)
                .map_err(|e| SessionError::Data(format!("cannot parse weights: {e}")))?;
        }
        self.ensure_resident()?;
        let delta: Vec<Tuple> = updates.iter().map(|(_, t)| t.to_tuple()).collect();
        let config = IncConfig {
            k,
            ordering,
            ..IncConfig::default()
        };
        let bound = self
            .bound
            .as_ref()
            .expect("ensure_resident checked the rules");
        let resident = self.resident.as_mut().expect("built by ensure_resident");
        let result =
            resident
                .repairer
                .repair(&self.relation, &delta, &bound.sigma, &bound.parts, config);
        let run = match result {
            Ok(run) if run.clean => run.outcome,
            failed => {
                // The repairer rolled its indexes back and the detection
                // parts were only read, so nothing here is stale; the
                // state is dropped anyway, so the next insert re-checks
                // the base and rebuilds it from the relation.
                self.resident = None;
                return Err(match failed {
                    Err(e) => e.into(),
                    Ok(_) => SessionError::Internal(
                        "merged relation does not satisfy the rules".to_string(),
                    ),
                });
            }
        };
        // Render before the caller seals ΔD's slots — the bytes are the
        // durable artifact; the merged relation dies with this request.
        // ΔD ids follow every base id, so the merged rendering is the
        // base's followed by the ΔD rows.
        let mut csv_bytes = resident.base_csv.clone();
        csv::write_rows(&run.repair, &run.delta_ids, &mut csv_bytes)
            .map_err(|e| SessionError::Internal(format!("cannot render merge: {e}")))?;
        Ok(InsertRun {
            csv: csv_bytes,
            inserted: delta.len(),
            base_rows: self.relation.len(),
            modified: run.stats.modified,
            nulls: run.stats.nulls_introduced,
            cost: run.stats.cost,
        })
    }

    /// Build the resident insert state unless it exists, after checking
    /// the paper's contract `D |= Σ` with the resident report. A dirty base
    /// builds nothing and answers the same error on every request.
    fn ensure_resident(&mut self) -> Result<(), SessionError> {
        if self.resident.is_some() {
            return Ok(());
        }
        let violations = self.detect()?.total;
        if violations > 0 {
            return Err(SessionError::Data(format!(
                "base is not clean: {violations} violation(s); run `cfdclean repair` on it first"
            )));
        }
        let mut base_csv = Vec::new();
        csv::write_relation(&self.relation, &mut base_csv)
            .map_err(|e| SessionError::Internal(format!("cannot render base: {e}")))?;
        let repairer = InsertRepairer::new(&self.relation);
        self.resident = Some(ResidentInsert { repairer, base_csv });
        Ok(())
    }

    /// The resident insert state's footprint, or `None` before the first
    /// successful clean-base check (and after anything that dropped it).
    pub fn resident_footprint(&self) -> Option<ResidentFootprint> {
        let resident = self.resident.as_ref()?;
        let bound = self.bound.as_ref()?;
        let indexes = &bound.parts.indexes;
        let groups = indexes
            .attr_lists()
            .iter()
            .map(|attrs| indexes.for_lhs(attrs).group_count())
            .collect();
        Some(ResidentFootprint {
            repairer: resident.repairer.footprint(),
            groups,
            census: bound.parts.census(&self.relation, &bound.sigma).checksum(),
        })
    }

    /// Open a windowed streaming repair session over this dataset (at
    /// most one per dataset; rules must be bound and the base clean).
    /// The stream works a clone of the resident relation — one-shot
    /// detect/repair/insert requests keep answering from the unmodified
    /// resident state while the stream evolves its own.
    pub fn open_stream(&mut self, config: StreamConfig) -> Result<StreamInfo, SessionError> {
        if self.stream.is_some() {
            return Err(SessionError::Stream(format!(
                "dataset {:?} already has an open stream",
                self.name
            )));
        }
        let bound = self.bound()?;
        let session = RepairSession::open(
            self.name.clone(),
            self.relation.clone(),
            bound.sigma.clone(),
            bound.constant_ids.clone(),
            config,
        )?;
        let info = session.info();
        self.stream = Some(session);
        Ok(info)
    }

    /// Shared access to the open stream (status endpoints, tests), or
    /// [`SessionError::Stream`].
    pub fn stream(&self) -> Result<&RepairSession, SessionError> {
        self.stream.as_ref().ok_or_else(|| {
            SessionError::Stream(format!("dataset {:?} has no open stream", self.name))
        })
    }

    /// The open stream, or [`SessionError::Stream`].
    fn stream_mut(&mut self) -> Result<&mut RepairSession, SessionError> {
        self.stream.as_mut().ok_or_else(|| {
            SessionError::Stream(format!("dataset {:?} has no open stream", self.name))
        })
    }

    /// Feed events into the open stream (see
    /// [`RepairSession::feed`] for the line format). Returns the number
    /// of events accepted; a rejected batch queues nothing.
    pub fn stream_feed(&mut self, events: &str) -> Result<usize, SessionError> {
        self.stream_mut()?.feed(events)
    }

    /// Advance the open stream's watermark, closing due windows.
    pub fn stream_advance(&mut self, watermark: u64) -> Result<Vec<WindowResult>, SessionError> {
        self.stream_mut()?.advance(watermark)
    }

    /// The open stream's descriptor.
    pub fn stream_info(&self) -> Result<StreamInfo, SessionError> {
        self.stream.as_ref().map(|s| s.info()).ok_or_else(|| {
            SessionError::Stream(format!("dataset {:?} has no open stream", self.name))
        })
    }

    /// Close the open stream: flush every queued window and run the
    /// final pool hygiene, returning the flushed results and the close
    /// report.
    pub fn stream_close(&mut self) -> Result<(Vec<WindowResult>, StreamCloseReport), SessionError> {
        let stream = self.stream.take().ok_or_else(|| {
            SessionError::Stream(format!("dataset {:?} has no open stream", self.name))
        })?;
        stream.close()
    }

    /// Tear the dataset down and prove its memory came back: retire
    /// every live cell occurrence, drop the relation, rules, and index,
    /// compact the pool, and report the end state. After this, `pool_len`
    /// is 1 (only `null`) — the pool held nothing but this dataset.
    pub fn evict(self) -> EvictReport {
        let DatasetHandle {
            name,
            relation,
            rules_text,
            bound,
            resident,
            stream,
        } = self;
        // An open stream holds pool counts for its live arrivals; abort
        // runs its hygiene (retire + seal) so the compact below still
        // returns the dictionary to baseline.
        if let Some(s) = stream {
            s.abort();
        }
        let pool = relation.pool().clone();
        let live = live_cell_ids(&relation);
        let retired_cells = live.len();
        // Σ's pattern constants are uncounted, so dropping the bound
        // rules is what legalizes compacting them away.
        drop(relation);
        drop(resident);
        drop(bound);
        drop(rules_text);
        pool.retire_ids(live);
        let freed_slots = pool.compact();
        EvictReport {
            name,
            retired_cells,
            freed_slots,
            pool_len: pool.len(),
            pool_bytes: pool.approx_bytes(),
        }
    }
}

/// Every non-null cell id of `rel`'s live tuples, one entry per
/// occurrence — the unit [`ValuePool::retire_ids`] coalesces.
fn live_cell_ids(rel: &Relation) -> Vec<ValueId> {
    let mut live = Vec::with_capacity(rel.len() * rel.schema().arity());
    for (_, t) in rel.iter() {
        for a in rel.schema().attr_ids() {
            let id = t.id(a);
            if !id.is_null() {
                live.push(id);
            }
        }
    }
    live
}

/// The pattern-constant ids a normalized Σ holds — count-zero by design
/// (uncounted interns), so they must be shielded from sealing while the
/// rules stay bound.
fn constant_ids(sigma: &Sigma) -> FixedSet<ValueId> {
    let mut out = FixedSet::default();
    for cfd in sigma.iter() {
        for p in cfd.lhs_pattern_ids() {
            if let Some(id) = p.as_const_id() {
                out.insert(id);
            }
        }
        if let Some(id) = cfd.rhs_pattern_id().as_const_id() {
            out.insert(id);
        }
    }
    out
}

/// A slot in the session map. The handle lives in an `Option` so
/// eviction can take it in place: stale `Arc` holders see
/// [`SessionError::Evicted`] instead of dangling state.
pub struct DatasetCell {
    name: String,
    slot: Option<DatasetHandle>,
}

impl DatasetCell {
    /// The resident handle, or [`SessionError::Evicted`].
    pub fn handle(&self) -> Result<&DatasetHandle, SessionError> {
        self.slot
            .as_ref()
            .ok_or_else(|| SessionError::Evicted(self.name.clone()))
    }

    /// Mutable access to the resident handle, or
    /// [`SessionError::Evicted`].
    pub fn handle_mut(&mut self) -> Result<&mut DatasetHandle, SessionError> {
        self.slot
            .as_mut()
            .ok_or_else(|| SessionError::Evicted(self.name.clone()))
    }
}

/// The shared reference request handlers hold while working a dataset.
pub type DatasetRef = Arc<RwLock<DatasetCell>>;

/// Take the read side of a dataset cell, surfacing a poisoned lock as
/// [`SessionError::Poisoned`] instead of recovering the guard: a panic
/// mid-`insert` (or mid-stream) can leave the handle's pool ledger
/// half-updated, so the poisoned dataset answers a typed error until
/// eviction rebuilds it — while every *other* dataset keeps answering.
pub fn read_cell(
    entry: &DatasetRef,
) -> Result<std::sync::RwLockReadGuard<'_, DatasetCell>, SessionError> {
    entry
        .read()
        .map_err(|e| SessionError::Poisoned(e.into_inner().name.clone()))
}

/// Take the write side of a dataset cell; see [`read_cell`] for the
/// poison policy.
pub fn write_cell(
    entry: &DatasetRef,
) -> Result<std::sync::RwLockWriteGuard<'_, DatasetCell>, SessionError> {
    entry
        .write()
        .map_err(|e| SessionError::Poisoned(e.into_inner().name.clone()))
}

/// An [`install`](Session::install) result: the new dataset's cell plus
/// any datasets the LRU capacity pushed out to make room.
pub struct Installed {
    /// The freshly installed dataset.
    pub entry: DatasetRef,
    /// LRU evictions performed to stay under capacity, oldest first.
    pub evicted: Vec<EvictReport>,
}

/// A point-in-time view of the session for status reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionStats {
    /// Open dataset names, sorted.
    pub resident: Vec<String>,
    /// The LRU capacity, if bounded.
    pub capacity: Option<usize>,
    /// Datasets evicted automatically by the LRU policy so far.
    pub auto_evictions: u64,
}

struct SessionInner {
    datasets: FixedMap<String, DatasetRef>,
    /// Dataset names, least-recently-used first.
    lru: Vec<String>,
    auto_evictions: u64,
}

/// A named collection of [`DatasetHandle`]s behind per-dataset locks —
/// the state a `cfd-server` daemon keeps warm between requests, equally
/// usable in-process. See the module docs for the locking discipline.
pub struct Session {
    catalog: Option<Catalog>,
    capacity: Option<usize>,
    inner: Mutex<SessionInner>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session: no catalog, unbounded residency.
    pub fn new() -> Session {
        Session {
            catalog: None,
            capacity: None,
            inner: Mutex::new(SessionInner {
                datasets: FixedMap::default(),
                lru: Vec::new(),
                auto_evictions: 0,
            }),
        }
    }

    /// Attach a snapshot catalog (enables
    /// [`open_snapshot`](Session::open_snapshot) /
    /// [`save_snapshot`](Session::save_snapshot)).
    pub fn with_catalog(mut self, catalog: Catalog) -> Session {
        self.catalog = Some(catalog);
        self
    }

    /// Bound residency: installing a dataset beyond the capacity evicts
    /// the least-recently-used one first (clamped to at least 1).
    pub fn with_capacity(mut self, capacity: usize) -> Session {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// The attached catalog, if any.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.catalog.as_ref()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SessionInner> {
        // A panicked handler must not wedge the daemon: recover the
        // guard — map mutations are single assignments, never partial.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Install a handle under its own name. Errors with
    /// [`SessionError::AlreadyOpen`] instead of silently replacing;
    /// evict first to reopen. May LRU-evict other datasets when the
    /// session has a capacity.
    pub fn install(&self, handle: DatasetHandle) -> Result<Installed, SessionError> {
        let name = handle.name().to_string();
        let mut inner = self.lock();
        if inner.datasets.contains_key(&name) {
            return Err(SessionError::AlreadyOpen(name));
        }
        let mut evicted = Vec::new();
        if let Some(cap) = self.capacity {
            while inner.datasets.len() >= cap {
                let Some(victim) = inner.lru.first().cloned() else {
                    break;
                };
                evicted.push(Self::evict_locked(&mut inner, &victim)?);
            }
        }
        inner.auto_evictions += evicted.len() as u64;
        let entry = Arc::new(RwLock::new(DatasetCell {
            name: name.clone(),
            slot: Some(handle),
        }));
        inner.datasets.insert(name.clone(), entry.clone());
        inner.lru.push(name);
        Ok(Installed { entry, evicted })
    }

    /// Look up an open dataset, marking it most-recently-used.
    pub fn get(&self, name: &str) -> Result<DatasetRef, SessionError> {
        let mut inner = self.lock();
        let entry = inner
            .datasets
            .get(name)
            .cloned()
            .ok_or_else(|| SessionError::UnknownDataset(name.to_string()))?;
        inner.lru.retain(|n| n != name);
        inner.lru.push(name.to_string());
        Ok(entry)
    }

    /// Evict an open dataset: remove it from the map, take the handle
    /// out of its cell (stale references see [`SessionError::Evicted`]),
    /// and tear it down, proving the pool memory came back.
    pub fn evict(&self, name: &str) -> Result<EvictReport, SessionError> {
        let mut inner = self.lock();
        Self::evict_locked(&mut inner, name)
    }

    fn evict_locked(inner: &mut SessionInner, name: &str) -> Result<EvictReport, SessionError> {
        let entry = inner
            .datasets
            .remove(name)
            .ok_or_else(|| SessionError::UnknownDataset(name.to_string()))?;
        inner.lru.retain(|n| n != name);
        // Waits for in-flight requests on the victim to drain (they hold
        // the read side); the session mutex is held across the wait,
        // which is safe because no handler acquires it while holding a
        // dataset lock.
        let mut cell = entry.write().unwrap_or_else(|e| e.into_inner());
        let handle = cell
            .slot
            .take()
            .ok_or_else(|| SessionError::Evicted(name.to_string()))?;
        drop(cell);
        Ok(handle.evict())
    }

    /// Open CSV bytes (plus optional rules and weights) as a named
    /// dataset — the composite the daemon's `open` request uses.
    pub fn open_csv(
        &self,
        name: &str,
        csv_bytes: &[u8],
        rules_text: Option<&str>,
        weight_bytes: Option<&[u8]>,
    ) -> Result<Installed, SessionError> {
        let mut handle = DatasetHandle::from_csv(name, csv_bytes)?;
        if let Some(w) = weight_bytes {
            handle.apply_weights(w)?;
        }
        if let Some(r) = rules_text {
            handle.bind_rules(r, "rules")?;
        }
        self.install(handle)
    }

    /// Load a catalog snapshot as an open dataset, binding its embedded
    /// rules when present. The snapshot installs into a fresh pool, so
    /// the handle obeys the same determinism contract as a CSV open.
    pub fn open_snapshot(&self, name: &str) -> Result<Installed, SessionError> {
        self.open_snapshot_as(name, None)
    }

    /// Like [`open_snapshot`](Session::open_snapshot), but install the
    /// dataset under `as_name` when given — the move that lets one
    /// snapshot file back two resident datasets. Each open reads and
    /// installs the file on its own, so the two datasets share nothing
    /// and a write to one never shows in the other.
    pub fn open_snapshot_as(
        &self,
        name: &str,
        as_name: Option<&str>,
    ) -> Result<Installed, SessionError> {
        let catalog = self.catalog.as_ref().ok_or(SessionError::NoCatalog)?;
        let loaded = catalog
            .load(name)
            .map_err(|e| SessionError::Snapshot(format!("cannot load snapshot {name:?}: {e}")))?;
        let install_as = as_name.unwrap_or(name);
        let mut handle = DatasetHandle::from_relation(install_as, loaded.relation);
        if let Some(text) = loaded.rules {
            handle.bind_rules(&text, &format!("snapshot {name:?} embedded rules"))?;
        }
        self.install(handle)
    }

    /// Persist an open dataset (and its rule text) to the catalog under
    /// `as_name`, returning the snapshot path and tuple count.
    pub fn save_snapshot(
        &self,
        dataset: &str,
        as_name: &str,
    ) -> Result<(PathBuf, usize), SessionError> {
        let catalog = self.catalog.as_ref().ok_or(SessionError::NoCatalog)?;
        let entry = self.get(dataset)?;
        let cell = read_cell(&entry)?;
        let h = cell.handle()?;
        let path = catalog
            .save(as_name, h.relation(), h.rules_text())
            .map_err(|e| {
                SessionError::Snapshot(format!("cannot save snapshot {as_name:?}: {e}"))
            })?;
        Ok((path, h.relation().len()))
    }

    /// Describe a catalog snapshot without installing it.
    pub fn snapshot_info(&self, name: &str) -> Result<SnapshotInfo, SessionError> {
        let catalog = self.catalog.as_ref().ok_or(SessionError::NoCatalog)?;
        catalog
            .info(name)
            .map_err(|e| SessionError::Snapshot(format!("cannot read snapshot {name:?}: {e}")))
    }

    /// The per-segment layout of a catalog snapshot: name, payload
    /// bytes, and checksum status for every frame in file order.
    /// Best-effort on checksums (a corrupt segment reports
    /// `checksum_ok: false` instead of erroring) so `snapshot info`
    /// can show *which* segment went bad.
    pub fn snapshot_segments(
        &self,
        name: &str,
    ) -> Result<Vec<cfd_model::SegmentInfo>, SessionError> {
        let catalog = self.catalog.as_ref().ok_or(SessionError::NoCatalog)?;
        catalog
            .segments(name)
            .map_err(|e| SessionError::Snapshot(format!("cannot read snapshot {name:?}: {e}")))
    }

    /// The catalog's dataset names, sorted.
    pub fn snapshot_names(&self) -> Result<Vec<String>, SessionError> {
        let catalog = self.catalog.as_ref().ok_or(SessionError::NoCatalog)?;
        catalog
            .list()
            .map_err(|e| SessionError::Snapshot(format!("cannot list catalog: {e}")))
    }

    /// Open dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        let inner = self.lock();
        let mut names: Vec<String> = inner.datasets.keys().cloned().collect();
        names.sort();
        names
    }

    /// A point-in-time status view.
    pub fn stats(&self) -> SessionStats {
        let inner = self.lock();
        let mut resident: Vec<String> = inner.datasets.keys().cloned().collect();
        resident.sort();
        SessionStats {
            resident,
            capacity: self.capacity,
            auto_evictions: inner.auto_evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "AC,PN,CT,ST,zip\n\
                       212,3345677,PHI,PA,10012\n\
                       212,5556611,NYC,NY,10012\n";
    const RULES: &str = "phi: [zip] -> [CT, ST] { (10012 || NYC, NY) }";

    fn open(session: &Session, name: &str) -> DatasetRef {
        session
            .open_csv(name, CSV.as_bytes(), Some(RULES), None)
            .expect("open")
            .entry
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn session_is_shareable_across_threads() {
        assert_send_sync::<Session>();
        assert_send_sync::<DatasetHandle>();
    }

    #[test]
    fn detect_repair_lifecycle_through_the_facade() {
        let session = Session::new();
        let entry = open(&session, "orders");
        let cell = entry.read().unwrap();
        let handle = cell.handle().unwrap();

        let report = handle.detect().unwrap();
        assert!(report.total > 0, "the PHI/PA tuple violates phi");
        let text = handle.detect_report(5).unwrap();
        assert!(text.starts_with("2 tuples, 2 normalized CFDs\n"));
        assert!(text.contains("phi: "));

        let run = handle.repair(&RepairOptions::new(), true).unwrap();
        assert!(violation::check(&run.repair, handle.sigma().unwrap()));
        assert_eq!(run.tuples, 2);
        assert!(run.cells_changed > 0);
        assert!(run.detail.starts_with("steps "));
        assert!(run.edit_log.is_some());
        // The resident relation was not mutated.
        assert!(handle.detect().unwrap().total > 0);
    }

    #[test]
    fn evict_returns_the_pool_to_baseline_and_invalidates_refs() {
        let session = Session::new();
        let mut baseline = None;
        for _ in 0..3 {
            let entry = open(&session, "orders");
            {
                let cell = entry.read().unwrap();
                let handle = cell.handle().unwrap();
                handle.repair(&RepairOptions::new(), false).unwrap();
            }
            let report = session.evict("orders").unwrap();
            assert_eq!(report.pool_len, 1, "only null survives eviction");
            let sig = (report.retired_cells, report.freed_slots, report.pool_bytes);
            match baseline {
                None => baseline = Some(sig),
                Some(b) => assert_eq!(sig, b, "every round reclaims identically"),
            }
            // Stale references observe the eviction as a typed error.
            let cell = entry.read().unwrap();
            assert!(matches!(cell.handle(), Err(SessionError::Evicted(_))));
        }
    }

    #[test]
    fn insert_serves_a_merge_and_seals_the_delta() {
        let clean = "AC,PN,CT,ST,zip\n212,5556611,NYC,NY,10012\n";
        let session = Session::new();
        let entry = session
            .open_csv("base", clean.as_bytes(), Some(RULES), None)
            .unwrap()
            .entry;
        let mut cell = entry.write().unwrap();
        let handle = cell.handle_mut().unwrap();
        let pool_before = (handle.relation().pool().len(), 0);

        let updates = "AC,PN,CT,ST,zip\n215,8883425,PHI,PA,10012\n";
        let run = handle
            .insert(updates.as_bytes(), None, Ordering::Violations, 2)
            .unwrap();
        assert_eq!(run.inserted, 1);
        assert_eq!(run.base_rows, 1);
        let text = String::from_utf8(run.csv.clone()).unwrap();
        assert!(text.contains("NYC,NY"), "merged rows satisfy phi");
        // ΔD's slots were retired and sealed: the pool is back at its
        // pre-insert size, and a second identical insert answers
        // identically (the determinism contract over time).
        assert_eq!(handle.relation().pool().len(), pool_before.0);
        let again = handle
            .insert(updates.as_bytes(), None, Ordering::Violations, 2)
            .unwrap();
        assert_eq!(again.csv, run.csv);
        assert_eq!(again.summary(), run.summary());
    }

    /// Regression pin for the insert error path (audited for PR 9): ΔD
    /// is interned into the resident pool *before* `insert_inner` can
    /// fail, so every error exit — wrong arity, unparsable weights, a
    /// dirty base — must still retire **and seal** ΔD's slots. The path
    /// was already correct (`insert` collects `delta_ids` up front and
    /// runs the hygiene unconditionally after the inner call); this test
    /// keeps it that way.
    #[test]
    fn failed_inserts_release_every_delta_intern() {
        let session = Session::new();
        let entry = open(&session, "orders"); // CSV base is dirty under phi
        let mut cell = entry.write().unwrap();
        let handle = cell.handle_mut().unwrap();
        let baseline = handle.relation().pool().len();

        // Wrong arity: rejected after ΔD interned two fresh values.
        let narrow = "AC,PN\n999,1112223\n";
        let err = handle
            .insert(narrow.as_bytes(), None, Ordering::Violations, 1)
            .err()
            .expect("arity mismatch must be rejected");
        assert!(matches!(err, SessionError::Data(_)), "{err}");
        assert_eq!(
            handle.relation().pool().len(),
            baseline,
            "arity error leaked ΔD"
        );

        // Unparsable weights: rejected after ΔD *and* the weight header
        // were read.
        let updates = "AC,PN,CT,ST,zip\n999,1112223,LA,CA,90001\n";
        let err = handle
            .insert(
                updates.as_bytes(),
                Some(b"not,a,weights,file"),
                Ordering::Violations,
                1,
            )
            .err()
            .expect("bad weights must be rejected");
        assert!(matches!(err, SessionError::Data(_)), "{err}");
        assert_eq!(
            handle.relation().pool().len(),
            baseline,
            "weights error leaked ΔD"
        );

        // Dirty base: the §5 precondition check fires last, deepest into
        // the request.
        let err = handle
            .insert(updates.as_bytes(), None, Ordering::Violations, 1)
            .err()
            .expect("dirty base must be rejected");
        assert!(
            matches!(&err, SessionError::Data(m) if m.contains("base is not clean")),
            "{err}"
        );
        assert_eq!(
            handle.relation().pool().len(),
            baseline,
            "dirty-base error leaked ΔD"
        );

        // And the failures left id assignment undisturbed: repairing the
        // resident relation now answers exactly what a fresh handle says.
        let run = handle.repair(&RepairOptions::new(), false).unwrap();
        drop(cell);
        let fresh = Session::new();
        let entry = open(&fresh, "orders");
        let cell = entry.read().unwrap();
        let fresh_run = cell
            .handle()
            .unwrap()
            .repair(&RepairOptions::new(), false)
            .unwrap();
        assert_eq!(run.summary(), fresh_run.summary());
    }

    /// A request that panics while holding a dataset's write lock must
    /// not wedge the session: the poisoned dataset answers a typed
    /// [`SessionError::Poisoned`], other datasets keep serving, and
    /// eviction still reclaims the slot.
    #[test]
    fn poisoned_dataset_answers_typed_errors_and_evicts_cleanly() {
        let session = Session::new();
        let entry = open(&session, "orders");
        let other = open(&session, "backup");

        let victim = entry.clone();
        std::thread::spawn(move || {
            let _guard = victim.write().unwrap();
            panic!("simulated mid-insert failure");
        })
        .join()
        .unwrap_err();

        assert!(matches!(read_cell(&entry), Err(SessionError::Poisoned(ref n)) if n == "orders"));
        assert!(matches!(write_cell(&entry), Err(SessionError::Poisoned(ref n)) if n == "orders"));

        // The sibling dataset is untouched.
        let cell = read_cell(&other).unwrap();
        assert!(cell.handle().unwrap().detect().unwrap().total > 0);
        drop(cell);

        // Eviction recovers the poisoned slot and its pool, and frees
        // the name for reuse.
        let report = session.evict("orders").unwrap();
        assert_eq!(
            report.pool_len,
            1,
            "poisoned evict still reclaims: {}",
            report.summary()
        );
        open(&session, "orders");
    }

    /// Every detect reads the one report computed after the bind.
    #[test]
    fn detect_serves_one_resident_report() {
        let session = Session::new();
        let entry = open(&session, "orders");
        let cell = entry.read().unwrap();
        let handle = cell.handle().unwrap();
        let first = handle.detect().unwrap();
        assert!(std::ptr::eq(first, handle.detect().unwrap()));
        handle.detect_report(5).unwrap();
        assert!(std::ptr::eq(first, handle.detect().unwrap()));
    }

    fn cold_detect(handle: &DatasetHandle) -> ViolationReport {
        violation::detect(handle.relation(), handle.sigma().unwrap())
    }

    /// Rebinding replaces the report; reweighting keeps a report that
    /// still equals a cold detection.
    #[test]
    fn rebinding_and_reweighting_keep_the_report_exact() {
        let session = Session::new();
        let entry = open(&session, "orders");
        let mut cell = entry.write().unwrap();
        let handle = cell.handle_mut().unwrap();
        let before = handle.detect().unwrap().clone();
        assert_eq!(before, cold_detect(handle));

        handle
            .bind_rules("fd: [AC] -> [PN] { (_ || _) }", "rules")
            .unwrap();
        let rebound = handle.detect().unwrap().clone();
        assert_eq!(rebound, cold_detect(handle));
        assert_ne!(rebound, before, "the new Σ has different violations");

        handle
            .apply_weights(b"AC,PN,CT,ST,zip\n1,1,0.5,0.5,1\n1,1,0.2,0.2,1\n")
            .unwrap();
        assert_eq!(handle.detect().unwrap(), &cold_detect(handle));
        assert_eq!(handle.detect().unwrap(), &rebound);
    }

    /// Inserts, failed or not, and streams never change what a detect
    /// request renders.
    #[test]
    fn inserts_and_streams_leave_the_report_unchanged() {
        let clean = "AC,PN,CT,ST,zip\n212,5556611,NYC,NY,10012\n";
        let session = Session::new();
        let entry = session
            .open_csv("base", clean.as_bytes(), Some(RULES), None)
            .unwrap()
            .entry;
        let mut cell = entry.write().unwrap();
        let handle = cell.handle_mut().unwrap();
        let before = handle.detect_report(5).unwrap();
        let updates = "AC,PN,CT,ST,zip\n215,8883425,PHI,PA,10012\n";
        handle
            .insert(updates.as_bytes(), None, Ordering::Violations, 2)
            .unwrap();
        assert_eq!(handle.detect_report(5).unwrap(), before, "after an insert");
        let narrow = "AC,PN\n999,1112223\n";
        handle
            .insert(narrow.as_bytes(), None, Ordering::Violations, 1)
            .err()
            .expect("arity mismatch must be rejected");
        assert_eq!(
            handle.detect_report(5).unwrap(),
            before,
            "after an arity error"
        );
        handle.open_stream(StreamConfig::tumbling(10)).unwrap();
        handle
            .stream_feed("i 1 212,5550001,PHI,PA,10012\n")
            .unwrap();
        handle.stream_advance(10).unwrap();
        handle.stream_close().unwrap();
        assert_eq!(handle.detect_report(5).unwrap(), before, "after a stream");
        assert_eq!(handle.detect().unwrap(), &cold_detect(handle));
        drop(cell);

        let dirty = open(&session, "orders");
        let mut cell = dirty.write().unwrap();
        let handle = cell.handle_mut().unwrap();
        let before = handle.detect_report(5).unwrap();
        handle
            .insert(updates.as_bytes(), None, Ordering::Violations, 1)
            .err()
            .expect("dirty base must be rejected");
        assert_eq!(
            handle.detect_report(5).unwrap(),
            before,
            "after a dirty-base error"
        );
        handle
            .insert(narrow.as_bytes(), None, Ordering::Violations, 1)
            .err()
            .expect("arity mismatch must be rejected");
        assert_eq!(
            handle.detect_report(5).unwrap(),
            before,
            "after an arity error"
        );
        assert_eq!(handle.detect().unwrap(), &cold_detect(handle));
    }

    /// The bytes a repair reply carries.
    fn reply(run: RepairRun) -> (Vec<u8>, Option<Vec<u8>>, String) {
        (run.csv, run.edit_log, run.detail)
    }

    /// Default batch repairs share the one seed the first of them built;
    /// a repair with another config runs on a seed of its own, before or
    /// after that, and never stores it.
    #[test]
    fn repairs_share_one_resident_batch_seed() {
        let session = Session::new();
        let entry = open(&session, "orders");
        let cell = entry.read().unwrap();
        let handle = cell.handle().unwrap();
        let other = RepairOptions::new().pick(cfd_repair::PickStrategy::DependencyOrdered);
        let ordered = reply(handle.repair(&other, true).unwrap());
        assert!(handle.batch_seed().is_none(), "another config stores none");
        let first = reply(handle.repair(&RepairOptions::new(), true).unwrap());
        let seed = handle
            .batch_seed()
            .expect("built by the first default repair");
        let second = reply(handle.repair(&RepairOptions::new(), true).unwrap());
        assert!(std::ptr::eq(seed, handle.batch_seed().unwrap()));
        assert_eq!(first, second);
        assert_eq!(reply(handle.repair(&other, true).unwrap()), ordered);
        assert!(std::ptr::eq(seed, handle.batch_seed().unwrap()));
    }

    /// A fresh handle's repair of the CSV base with `weights` and `rules`.
    fn fresh_repair(weights: Option<&[u8]>, rules: &str) -> (Vec<u8>, Option<Vec<u8>>, String) {
        let session = Session::new();
        let entry = session
            .open_csv("orders", CSV.as_bytes(), Some(rules), weights)
            .unwrap()
            .entry;
        let cell = entry.read().unwrap();
        reply(
            cell.handle()
                .unwrap()
                .repair(&RepairOptions::new(), true)
                .unwrap(),
        )
    }

    /// Reweighting and rebinding drop the seed; the next repair builds
    /// one for the new weights or rules.
    #[test]
    fn reweighting_and_rebinding_rebuild_the_batch_seed() {
        const WEIGHTS: &[u8] = b"AC,PN,CT,ST,zip\n1,1,0.9,0.9,0.1\n1,1,0.1,0.1,1\n";
        const FD: &str = "fd: [zip] -> [CT] { (_ || _) }";
        let session = Session::new();
        let entry = open(&session, "orders");
        let mut cell = entry.write().unwrap();
        let handle = cell.handle_mut().unwrap();
        let before = reply(handle.repair(&RepairOptions::new(), true).unwrap());
        assert!(handle.batch_seed().is_some());

        handle.apply_weights(WEIGHTS).unwrap();
        assert!(handle.batch_seed().is_none(), "reweighting drops the seed");
        let reweighted = reply(handle.repair(&RepairOptions::new(), true).unwrap());
        assert!(handle.batch_seed().is_some());
        assert_eq!(reweighted, fresh_repair(Some(WEIGHTS), RULES));

        handle.bind_rules(FD, "rules").unwrap();
        assert!(handle.batch_seed().is_none(), "rebinding drops the seed");
        let rebound = reply(handle.repair(&RepairOptions::new(), true).unwrap());
        assert!(handle.batch_seed().is_some());
        assert_eq!(rebound, fresh_repair(Some(WEIGHTS), FD));
        assert_ne!(rebound, before);
    }

    #[test]
    fn lru_capacity_auto_evicts_oldest_first() {
        let session = Session::new().with_capacity(2);
        open(&session, "a");
        open(&session, "b");
        // Touch `a` so `b` becomes the LRU victim.
        session.get("a").unwrap();
        let installed = session
            .open_csv("c", CSV.as_bytes(), Some(RULES), None)
            .unwrap();
        assert_eq!(installed.evicted.len(), 1);
        assert_eq!(installed.evicted[0].name, "b");
        assert_eq!(installed.evicted[0].pool_len, 1);
        assert_eq!(session.names(), vec!["a", "c"]);
        assert_eq!(session.stats().auto_evictions, 1);
        assert!(matches!(
            session.get("b"),
            Err(SessionError::UnknownDataset(_))
        ));
        assert!(matches!(
            session.open_csv("a", CSV.as_bytes(), None, None),
            Err(SessionError::AlreadyOpen(_))
        ));
    }
}
